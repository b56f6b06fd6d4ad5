//! Property tests for the [`prosel_estimators::refine::bounds`] contract
//! that the shared-snapshot hoist ([`prosel_estimators::SnapshotCtx`])
//! relies on.
//!
//! Over plans built from operators with *sound* upper bounds — scans
//! (exact base cardinality), filters, hash joins and full sorts — and
//! **operator-quiescent** execution prefixes (every operator has fully
//! processed what its child emitted; the counter states of \[6\]'s
//! analysis), the refinement guarantees, per node:
//!
//! * `lb ≤ ub`, and neither contradicts the observed counter (`lb ≥ K`);
//! * `lb` is non-decreasing and `ub` non-increasing as `K` grows along
//!   the prefix;
//! * both bracket the true total (`lb ≤ N_i ≤ ub` at every state);
//! * at completion the bounds collapse to the truth (`lb = ub = N_i`).
//!
//! The quiescent prefixes are synthesized exactly (pure integer
//! bookkeeping over known data), because a live engine snapshot can land
//! *mid-operator* — the child's counter advanced, the parent's not yet —
//! where the in-flight row makes `ub` dip by up to its potential output
//! and recover at the next quiescent point. Live snapshots therefore get
//! the weaker engine-driven properties below (ordering, `K`-consistency,
//! `lb` monotonicity), which also cover the operators whose model trades
//! soundness for availability: index seeks cap their total with a
//! documented slack factor, aggregates rebuild their upper bound from `K`
//! alone during the drain phase, and early-terminating operators (TOP,
//! merge joins) leave upstream bounds uncollapsed by design.

use proptest::prelude::*;
use prosel_datagen::schema::{ColumnMeta, ColumnRole, TableMeta};
use prosel_datagen::{Column, Database, PhysicalDesign, Table, TuningLevel};
use prosel_engine::plan::{CmpOp, OperatorKind, PhysicalPlan, PlanNode, Predicate};
use prosel_engine::{run_plan, Catalog, ExecConfig};
use prosel_estimators::refine::bounds;
use prosel_estimators::TraceCtx;
use prosel_planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel_planner::PlanBuilder;

/// Value of row `i` (0-based) in either synthetic table.
fn v_of(i: usize) -> i64 {
    ((i * 7) % 10) as i64
}

fn two_table_db(rows_a: usize, rows_b: usize) -> Database {
    let mut db = Database::new("bounds");
    for (name, rows) in [("a", rows_a), ("b", rows_b)] {
        let meta = TableMeta::new(
            name,
            64,
            vec![
                ColumnMeta::new("id", ColumnRole::PrimaryKey),
                ColumnMeta::new("v", ColumnRole::Value { min: 0, max: 9 }),
            ],
        );
        db.add(Table::new(
            meta,
            vec![
                Column { name: "id".into(), data: (1..=rows as i64).collect() },
                Column { name: "v".into(), data: (0..rows).map(v_of).collect() },
            ],
        ));
    }
    db
}

fn node(op: OperatorKind, children: Vec<usize>, est: f64, cols: usize) -> PlanNode {
    PlanNode { op, children, est_rows: est, est_row_bytes: 8.0 * cols as f64, out_cols: cols }
}

/// Node ids of one [`sound_plan`] instance.
struct SoundIds {
    scan_a: usize,
    filters: Vec<usize>,
    scan_b: Option<usize>,
    join: Option<usize>,
    sort: Option<usize>,
}

/// A random member of the sound-bounds plan family: scan(a) under a
/// filter chain, optionally hash-joined against scan(b) and/or sorted.
fn sound_plan(
    rows_a: usize,
    rows_b: usize,
    n_filters: usize,
    with_join: bool,
    with_sort: bool,
    cut: i64,
) -> (PhysicalPlan, SoundIds) {
    let mut nodes = vec![node(
        OperatorKind::TableScan { table: "a".into(), cols: vec![0, 1] },
        vec![],
        rows_a as f64,
        2,
    )];
    let mut ids = SoundIds { scan_a: 0, filters: Vec::new(), scan_b: None, join: None, sort: None };
    let mut top = 0usize;
    for _ in 0..n_filters {
        // The (possibly wildly wrong) filter estimate never enters the
        // bounds — only leaf cardinalities do.
        nodes.push(node(
            OperatorKind::Filter { pred: Predicate::ColCmp { col: 1, op: CmpOp::Lt, val: cut } },
            vec![top],
            (rows_a / 3) as f64,
            2,
        ));
        top = nodes.len() - 1;
        ids.filters.push(top);
    }
    let mut cols = 2usize;
    if with_join {
        nodes.push(node(
            OperatorKind::TableScan { table: "b".into(), cols: vec![0, 1] },
            vec![],
            rows_b as f64,
            2,
        ));
        let build = nodes.len() - 1;
        ids.scan_b = Some(build);
        nodes.push(node(
            OperatorKind::HashJoin { probe_key: 1, build_key: 1 },
            vec![top, build],
            rows_a as f64,
            4,
        ));
        top = nodes.len() - 1;
        ids.join = Some(top);
        cols = 4;
    }
    if with_sort {
        nodes.push(node(OperatorKind::Sort { key_cols: vec![0] }, vec![top], rows_a as f64, cols));
        top = nodes.len() - 1;
        ids.sort = Some(top);
    }
    (PhysicalPlan { nodes, root: top }, ids)
}

/// The exact operator-quiescent counter prefix of a [`sound_plan`]
/// execution, in phase order: hash build (scan b), probe stream (scan a →
/// filters → join, with the sort absorbing silently), sort drain.
fn quiescent_prefix(
    rows_a: usize,
    rows_b: usize,
    ids: &SoundIds,
    n_nodes: usize,
    cut: i64,
) -> Vec<Vec<u64>> {
    // Matches per probe value in b, and the running pass/join counts.
    let mut cnt_b = [0u64; 10];
    for j in 0..rows_b {
        cnt_b[v_of(j) as usize] += 1;
    }
    let step_a = (rows_a / 24).max(1);
    let step_b = (rows_b / 12).max(1);
    let mut states: Vec<Vec<u64>> = Vec::new();
    let mut k = vec![0u64; n_nodes];
    // Phase 1: the join's build side is consumed first (when present).
    if let Some(scan_b) = ids.scan_b {
        let mut x = 0usize;
        loop {
            k[scan_b] = x as u64;
            states.push(k.clone());
            if x == rows_b {
                break;
            }
            x = (x + step_b).min(rows_b);
        }
    }
    // Phase 2: the probe stream; filters pass the prefix's matching rows,
    // the join emits their b-matches, the sort (if any) only absorbs.
    let mut passed = 0u64;
    let mut joined = 0u64;
    let mut t = 0usize;
    loop {
        k[ids.scan_a] = t as u64;
        for &f in &ids.filters {
            k[f] = passed;
        }
        if let Some(join) = ids.join {
            k[join] = joined;
        }
        states.push(k.clone());
        if t == rows_a {
            break;
        }
        let next = (t + step_a).min(rows_a);
        for i in t..next {
            if v_of(i) < cut {
                passed += 1;
                joined += cnt_b[v_of(i) as usize];
            }
        }
        t = next;
    }
    // Phase 3: the sort drains exactly its materialized input — the
    // output of whatever sits directly below it.
    if let Some(sort) = ids.sort {
        let total = if ids.join.is_some() {
            joined
        } else if ids.filters.is_empty() {
            rows_a as u64
        } else {
            passed
        };
        let step = (total / 16).max(1);
        let mut y = 0u64;
        loop {
            k[sort] = y;
            states.push(k.clone());
            if y == total {
                break;
            }
            y = (y + step).min(total);
        }
    }
    states
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The strict contract on exact quiescent prefixes: ordering,
    /// K-consistency, lb↑ / ub↓ monotonicity, truth bracketing, and
    /// collapse at completion — plus SnapshotCtx ≡ direct bounds.
    #[test]
    fn bounds_invariants_on_quiescent_prefixes(
        rows_a in 50usize..900,
        rows_b in 20usize..300,
        n_filters in 0usize..3,
        with_join in any::<bool>(),
        with_sort in any::<bool>(),
        cut in 1i64..10,
    ) {
        let (plan, ids) = sound_plan(rows_a, rows_b, n_filters, with_join, with_sort, cut);
        let n = plan.len();
        let states = quiescent_prefix(rows_a, rows_b, &ids, n, cut);
        prop_assert!(states.len() >= 2);
        let truth = states.last().unwrap().clone();

        let mut prev_lb = vec![f64::NEG_INFINITY; n];
        let mut prev_ub = vec![f64::INFINITY; n];
        for (j, k) in states.iter().enumerate() {
            let (lb, ub) = bounds(&plan, k);
            for i in 0..n {
                prop_assert!(lb[i] <= ub[i] + 1e-9, "lb > ub at node {} state {}", i, j);
                prop_assert!(lb[i] >= k[i] as f64 - 1e-9, "lb below K at node {} state {}", i, j);
                prop_assert!(
                    lb[i] <= truth[i] as f64 + 1e-9 && truth[i] as f64 <= ub[i] + 1e-9,
                    "bounds [{}, {}] fail to bracket truth {} at node {} state {}",
                    lb[i], ub[i], truth[i], i, j
                );
                prop_assert!(
                    lb[i] >= prev_lb[i] - 1e-9,
                    "lb regressed {} -> {} at node {} state {}", prev_lb[i], lb[i], i, j
                );
                prop_assert!(
                    ub[i] <= prev_ub[i] + 1e-9,
                    "ub grew {} -> {} at node {} state {}", prev_ub[i], ub[i], i, j
                );
            }
            prev_lb = lb;
            prev_ub = ub;
        }

        // Completion: both bounds collapse onto the truth.
        let (lb, ub) = bounds(&plan, &truth);
        for i in 0..n {
            prop_assert!(
                (lb[i] - truth[i] as f64).abs() < 1e-9 && (ub[i] - truth[i] as f64).abs() < 1e-9,
                "bounds [{}, {}] did not collapse to {} at node {} (rows_a={} rows_b={} nf={} join={} sort={} cut={})", lb[i], ub[i], truth[i], i, rows_a, rows_b, n_filters, with_join, with_sort, cut
            );
        }
    }

}

// Engine-driven properties execute real (small) queries per case, so the
// case count is kept low — breadth comes from the randomized plan shapes
// and observation cadences.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Real execution of the same plan family: live snapshots keep the
    /// weak invariants, and the shared-context batch path is bit-identical
    /// to the self-computing one on every curve of every pipeline.
    #[test]
    fn shared_ctx_is_bit_identical_on_real_runs(
        rows_a in 200usize..700,
        rows_b in 40usize..200,
        n_filters in 0usize..3,
        with_join in any::<bool>(),
        with_sort in any::<bool>(),
        cut in 1i64..10,
        interval in 15.0f64..120.0,
        seed in any::<u64>(),
    ) {
        let db = two_table_db(rows_a, rows_b);
        let design = PhysicalDesign::derive(&db, TuningLevel::Untuned);
        let catalog = Catalog::new(&db, &design);
        let (plan, _) = sound_plan(rows_a, rows_b, n_filters, with_join, with_sort, cut);
        let run = run_plan(
            &catalog,
            &plan,
            &ExecConfig { seed, initial_snapshot_interval: interval, ..ExecConfig::default() },
        );
        prop_assert!(!run.trace.snapshots.is_empty());

        // The per-run context (compiled kernel) is exactly the direct
        // scalar computation, snapshot by snapshot — so every pipeline
        // replayed against it sees the reference bounds.
        let ctx = TraceCtx::new(&run);
        for (j, snap) in run.trace.snapshots.iter().enumerate() {
            let (lb, ub) = bounds(&plan, &snap.k);
            prop_assert_eq!(&ctx.snapshot(j).lb, &lb, "ctx/lb diverged at snapshot {}", j);
            prop_assert_eq!(&ctx.snapshot(j).ub, &ub, "ctx/ub diverged at snapshot {}", j);
        }
    }

    /// The weaker guarantees that survive on arbitrary workload plans and
    /// live (possibly mid-operator) snapshots: bounds stay ordered, never
    /// contradict the observed counters, and the lower bound never
    /// regresses.
    #[test]
    fn weak_invariants_on_workload_plans(
        workload_seed in 0u64..1000,
        tpcds in any::<bool>(),
        query_pick in 0usize..3,
    ) {
        let kind = if tpcds { WorkloadKind::TpcdsLike } else { WorkloadKind::TpchLike };
        let spec = WorkloadSpec::new(kind, workload_seed).with_queries(3).with_scale(0.3);
        let w = materialize(&spec);
        let catalog = Catalog::new(&w.db, &w.design);
        let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
        let plan = builder.build(&w.queries[query_pick]).expect("plan");
        let run = run_plan(
            &catalog,
            &plan,
            &ExecConfig { seed: workload_seed, ..ExecConfig::default() },
        );
        let n = plan.len();
        let mut prev_lb = vec![f64::NEG_INFINITY; n];
        for (j, snap) in run.trace.snapshots.iter().enumerate() {
            let (lb, ub) = bounds(&plan, &snap.k);
            for i in 0..n {
                prop_assert!(lb[i] <= ub[i] + 1e-9, "lb > ub at node {} snap {}", i, j);
                prop_assert!(lb[i].is_finite() && ub[i].is_finite());
                prop_assert!(
                    lb[i] >= snap.k[i] as f64 - 1e-9,
                    "lb below observed K at node {} snap {}", i, j
                );
                prop_assert!(
                    ub[i] >= snap.k[i] as f64 - 1e-9,
                    "ub below observed K at node {} snap {}", i, j
                );
                prop_assert!(lb[i] >= prev_lb[i] - 1e-9, "lb regressed at node {} snap {}", i, j);
            }
            prev_lb = lb;
        }
    }
}
