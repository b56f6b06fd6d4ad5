use super::*;
use crate::soa::BoundsKernel;
use prosel_engine::plan::{CmpOp, PlanNode, Predicate};
use prosel_engine::trace::Snapshot;
use prosel_engine::{decompose, run_plan, Catalog, ExecConfig, OperatorKind};
use prosel_planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel_planner::PlanBuilder;

impl IncrementalObs {
    /// The original per-node *scalar* walk: per-node plan access,
    /// [`OperatorKind`] dispatch and driver-set membership tests, with the
    /// driver family and build-side spills resolved from `first`, the
    /// pipeline's first in-window snapshot. The reference the compiled
    /// [`PipeCols`] walk (`entry_for`) is pinned against.
    fn entry_for_scalar(
        &self,
        first: SnapshotView<'_>,
        serial: u64,
        snap: SnapshotView<'_>,
        ctx: &SnapshotCtx,
    ) -> ObsEntry {
        let plan = &self.plan;
        let [drivers, batch_extra, seek_extra] =
            driver_family(plan, &self.pipeline, first.materialized);
        let driver_set: Vec<NodeId> = drivers.iter().map(|&(d, _)| d).collect();
        let sum_d: f64 = drivers.iter().map(|&(_, d)| d).sum();
        let (lb, ub) = (&ctx.lb, &ctx.ub);
        let is_leaf_read = |id: NodeId| {
            matches!(
                plan.node(id).op,
                OperatorKind::TableScan { .. }
                    | OperatorKind::IndexScan { .. }
                    | OperatorKind::IndexSeek { .. }
            )
        };
        let mut k_total = 0.0;
        let mut k_u64 = 0u64;
        let mut e_clamped = 0.0;
        let mut wl = 0.0;
        let mut wu = 0.0;
        let mut bytes = 0.0;
        let mut pending_spill = 0.0;
        for &n in &self.pipeline.nodes {
            let k = snap.k[n] as f64;
            k_total += k;
            k_u64 += snap.k[n];
            e_clamped += clamp_estimate(plan.node(n).est_rows, lb[n], ub[n]);
            wu += ub[n];
            wl += k;
            if driver_set.contains(&n) || !is_leaf_read(n) {
                bytes += snap.bytes_read[n] as f64;
            }
            bytes += snap.bytes_written[n] as f64;
            if matches!(plan.node(n).op, OperatorKind::HashJoin { .. }) {
                let build_spill = first.bytes_written[plan.node(n).children[1]];
                let expected = build_spill as f64 + snap.bytes_written[n] as f64;
                pending_spill += (expected - snap.bytes_read[n] as f64).max(0.0);
            }
        }
        for &(d, total) in &drivers {
            wl += (total - snap.k[d] as f64).max(0.0);
        }
        let k_driver: f64 = drivers.iter().map(|&(d, _)| snap.k[d] as f64).sum();
        let k_of = |extra: &[(NodeId, f64)]| -> f64 {
            drivers.iter().chain(extra).map(|&(n, _)| snap.k[n] as f64).sum()
        };
        ObsEntry {
            serial,
            time: snap.time,
            sum_k: k_total,
            k_u64,
            sum_e_clamped: e_clamped.max(1.0),
            work_lb: wl.max(1.0),
            work_ub: wu.max(1.0),
            alpha: alpha(k_driver, sum_d),
            done_bytes: bytes,
            pending_spill,
            k_dne: k_of(&[]),
            k_batch: k_of(&batch_extra),
            k_seek: k_of(&seek_extra),
            driver_read: drivers.iter().map(|&(d, _)| snap.bytes_read[d] as f64).sum(),
        }
    }
}

fn scan_filter_plan() -> Arc<PhysicalPlan> {
    Arc::new(PhysicalPlan {
        nodes: vec![
            PlanNode {
                op: OperatorKind::TableScan { table: "t".into(), cols: vec![0] },
                children: vec![],
                est_rows: 100.0,
                est_row_bytes: 8.0,
                out_cols: 1,
            },
            PlanNode {
                op: OperatorKind::Filter {
                    pred: Predicate::ColCmp { col: 0, op: CmpOp::Gt, val: 0 },
                },
                children: vec![0],
                est_rows: 50.0,
                est_row_bytes: 8.0,
                out_cols: 1,
            },
        ],
        root: 1,
    })
}

fn snap(time: f64, k0: u64, k1: u64) -> Snapshot {
    Snapshot {
        time,
        k: vec![k0, k1].into_boxed_slice(),
        bytes_read: vec![k0 * 8, 0].into_boxed_slice(),
        bytes_written: vec![0, 0].into_boxed_slice(),
        materialized: vec![0, 0].into_boxed_slice(),
    }
}

/// Offer `s` with its bounds from the scalar pass.
fn offer(obs: &mut IncrementalObs, serial: u64, s: &Snapshot, window: (f64, f64)) -> usize {
    let ctx = SnapshotCtx::new(&obs.plan, s);
    obs.offer_view(serial, s.as_view(), window, &ctx)
}

#[test]
fn skips_snapshots_before_the_window() {
    let plan = scan_filter_plan();
    let pipelines = decompose(&plan);
    let mut obs = IncrementalObs::new(plan, &pipelines[0]);
    // Pipeline not started yet: window is (inf, -inf).
    assert_eq!(offer(&mut obs, 0, &snap(5.0, 0, 0), (f64::INFINITY, f64::NEG_INFINITY)), 0);
    assert!(!obs.started());
    // Started at t=10; a snapshot inside the known window commits.
    assert_eq!(offer(&mut obs, 1, &snap(12.0, 20, 10), (10.0, 12.0)), 1);
    assert!(obs.started());
    assert_eq!(obs.len(), 1);
    assert!((obs.value(EstimatorKind::Dne).unwrap() - 0.2).abs() < 1e-12);
}

#[test]
fn pendings_commit_when_proven_in_window() {
    let plan = scan_filter_plan();
    let pipelines = decompose(&plan);
    let mut obs = IncrementalObs::new(plan, &pipelines[0]);
    offer(&mut obs, 0, &snap(12.0, 20, 10), (10.0, 12.0));
    // Snapshot past the last known tick: cannot commit yet (it might
    // land past the final window end).
    assert_eq!(offer(&mut obs, 1, &snap(30.0, 20, 10), (10.0, 12.0)), 0);
    assert_eq!(obs.len(), 1);
    // A later tick at t=40 proves the pending was inside the window;
    // both it and the new snapshot commit.
    assert_eq!(offer(&mut obs, 2, &snap(40.0, 80, 40), (10.0, 40.0)), 2);
    assert_eq!(obs.len(), 3);
    // Finalize: the first trailing pending commits (the
    // one-past-end rule), later ones are dropped.
    offer(&mut obs, 3, &snap(45.0, 100, 50), (10.0, 41.0));
    offer(&mut obs, 4, &snap(50.0, 100, 50), (10.0, 41.0));
    obs.finalize((10.0, 41.0));
    assert_eq!(obs.len(), 4, "exactly one past-end observation");
    assert_eq!(obs.times().last(), Some(45.0));
    let dne = obs.curve(EstimatorKind::Dne);
    assert!((dne.last().unwrap() - 1.0).abs() < 1e-12);
}

#[test]
#[should_panic(expected = "after finalize")]
fn oracle_curves_require_finalization() {
    let plan = scan_filter_plan();
    let pipelines = decompose(&plan);
    let mut obs = IncrementalObs::new(plan, &pipelines[0]);
    offer(&mut obs, 0, &snap(12.0, 20, 10), (10.0, 12.0));
    let _ = obs.curve(EstimatorKind::GetNextOracle);
}

#[test]
fn truth_and_total_getnext_unlock_at_finalize() {
    let plan = scan_filter_plan();
    let pipelines = decompose(&plan);
    let mut obs = IncrementalObs::new(plan, &pipelines[0]);
    offer(&mut obs, 0, &snap(12.0, 20, 10), (10.0, 12.0));
    offer(&mut obs, 1, &snap(40.0, 80, 40), (10.0, 40.0));
    obs.finalize((10.0, 40.0));
    // Elapsed-time fractions of the final [10, 40] window.
    let truth = obs.truth();
    assert_eq!(truth.len(), 2);
    assert!((truth[0] - 2.0 / 30.0).abs() < 1e-12);
    assert!((truth[1] - 1.0).abs() < 1e-12);
    // Counters frozen at the window end: Σ K of the last observation.
    assert_eq!(obs.total_getnext(), 120);
}

#[test]
#[should_panic(expected = "after finalize")]
fn truth_requires_finalization() {
    let plan = scan_filter_plan();
    let pipelines = decompose(&plan);
    let mut obs = IncrementalObs::new(plan, &pipelines[0]);
    offer(&mut obs, 0, &snap(12.0, 20, 10), (10.0, 12.0));
    let _ = obs.truth();
}

#[test]
fn online_values_track_curves() {
    let plan = scan_filter_plan();
    let pipelines = decompose(&plan);
    let mut obs = IncrementalObs::new(plan, &pipelines[0]);
    assert_eq!(obs.value(EstimatorKind::Tgn), None);
    for (i, t) in [12.0, 20.0, 28.0].iter().enumerate() {
        let k = 20 * (i as u64 + 1);
        offer(&mut obs, i as u64, &snap(*t, k, k / 2), (10.0, *t));
    }
    for kind in ONLINE_KINDS {
        let c = obs.curve(kind);
        assert_eq!(c.len(), 3);
        assert_eq!(obs.value(kind), c.last().copied());
        assert!(c.iter().all(|v| (0.0..=1.0).contains(v)), "{kind} out of range");
    }
}

/// The compiled walk is a refactoring, not an approximation: on real
/// workload executions, the aggregates of every offered snapshot — bounds
/// from the compiled kernel, walk over the [`PipeCols`] columns — equal
/// the scalar walk's over the scalar bound pass, bit for bit.
#[test]
fn soa_and_scalar_paths_are_bit_identical_on_real_workloads() {
    let mut pipelines_checked = 0usize;
    for (kind, queries) in [(WorkloadKind::TpchLike, 14), (WorkloadKind::TpcdsLike, 8)] {
        let spec = WorkloadSpec::new(kind, 4321).with_queries(queries).with_scale(0.6);
        let w = materialize(&spec);
        let catalog = Catalog::new(&w.db, &w.design);
        let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
        for (qi, q) in w.queries.iter().enumerate() {
            let plan = builder.build(q).expect("plan");
            let run = run_plan(
                &catalog,
                &plan,
                &ExecConfig { seed: 0x50A ^ qi as u64, ..ExecConfig::default() },
            );
            let plan = Arc::new(run.plan.clone());
            let kernel = BoundsKernel::new(&plan);
            let mut soa_ctx = SnapshotCtx::empty();
            for pid in 0..run.pipelines.len() {
                let mut obs = IncrementalObs::new(Arc::clone(&plan), &run.pipelines[pid]);
                let (start, end) = run.trace.pipeline_windows[pid];
                let mut first_in_window = None;
                let mut compared = 0usize;
                for (j, snap) in run.trace.snapshots.iter().enumerate() {
                    let window = (start, end.min(snap.time));
                    soa_ctx.recompute(&kernel, &snap.k);
                    obs.offer_view(j as u64, snap.as_view(), window, &soa_ctx);
                    if !obs.started() {
                        continue;
                    }
                    let first = *first_in_window.get_or_insert(j);
                    let latest = obs.latest.expect("started");
                    assert_eq!(latest.serial, j as u64, "pipeline {pid} skipped snapshot {j}");
                    let ctx = SnapshotCtx::new(&plan, snap);
                    let first = run.trace.snapshots[first].as_view();
                    let scalar = obs.entry_for_scalar(first, j as u64, snap.as_view(), &ctx);
                    assert_eq!(
                        latest.bits(),
                        scalar.bits(),
                        "query {qi} pipeline {pid} snapshot {j}: compiled {latest:?}, scalar {scalar:?}"
                    );
                    compared += 1;
                }
                pipelines_checked += usize::from(compared > 0);
            }
        }
    }
    assert!(pipelines_checked > 30, "only {pipelines_checked} pipelines exercised");
}
