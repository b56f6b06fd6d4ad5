//! Post-hoc evaluation of one pipeline of a finished run, and the point
//! formulas the estimators share.
//!
//! There is no separate batch implementation: [`PipelineObs`] *is*
//! [`IncrementalObs`], and [`PipelineObs::with_ctx`] replays the
//! pipeline's recorded trace through the incremental protocol, yielding
//! the observation times, truth, driver fractions and every
//! [`EstimatorKind`](crate::kinds::EstimatorKind) curve that the live
//! monitor would have committed for the same execution.
//!
//! The free functions below are the pieces of estimator math that more
//! than one step of that protocol needs (driver totals, the LUO window
//! and point formula, the probability clamp); each exists exactly once.

use crate::ctx::TraceCtx;
use crate::incremental::IncrementalObs;
use prosel_engine::plan::{NodeId, OperatorKind, PhysicalPlan};
use prosel_engine::trace::QueryRun;
use prosel_engine::Pipeline;

/// The post-hoc name of [`IncrementalObs`]: a finalized observation state
/// obtained by replaying a completed run.
pub type PipelineObs = IncrementalObs;

impl IncrementalObs {
    /// Evaluate pipeline `pid` of a completed run —
    /// [`Self::replay_shared`] under the name post-hoc callers use.
    /// `None` when the pipeline produced no observations.
    pub fn with_ctx(run: &QueryRun, pid: usize, ctx: &TraceCtx) -> Option<PipelineObs> {
        Self::replay_shared(run, pid, ctx)
    }
}

/// Known total input of driver node `id` (paper §3.4). Materialized
/// inputs — sort / hash-aggregate outputs — use the size the blocking
/// operator reported when its build phase completed (deliberately *not*
/// `final_k[id]`: under early termination the emitted count is smaller
/// and unknowable mid-query, while the materialized size is what a live
/// engine exposes). Scans use their known base cardinality; seeks and
/// everything else the optimizer estimate.
pub(crate) fn driver_node_total(plan: &PhysicalPlan, id: NodeId, materialized: &[u64]) -> f64 {
    match plan.node(id).op {
        OperatorKind::Sort { .. } | OperatorKind::HashAggregate { .. } => materialized[id] as f64,
        _ => plan.node(id).est_rows,
    }
}

/// Topmost node of a pipeline: the one whose parent is outside it (the
/// pipeline's output).
pub(crate) fn pipeline_top(plan: &PhysicalPlan, pipeline: &Pipeline) -> NodeId {
    let parents = plan.parents();
    let nodes = &pipeline.nodes;
    nodes
        .iter()
        .copied()
        .find(|&n| match parents[n] {
            None => true,
            Some(p) => !pipeline.contains(p),
        })
        .unwrap_or(nodes[nodes.len() - 1])
}

/// Expected total result-output bytes of the pipeline with output `top`.
/// Only the plan root writes its results out (to the client / result
/// spool); interior pipeline tops hand tuples to a consuming operator in
/// memory, so their only writes are spills, which are observed rather
/// than predicted.
pub(crate) fn expected_output_bytes(plan: &PhysicalPlan, top: NodeId) -> f64 {
    if top == plan.root {
        plan.node(top).est_rows * plan.node(top).est_row_bytes
    } else {
        0.0
    }
}

/// Start index of the LUO speed window for observation `i`: walk back
/// from `i` while the previous observation is still inside `win`, then
/// step one further (the reference algorithm, used by
/// `IncrementalObs::rebuild_luo`); `IncrementalObs::luo_next` reproduces
/// the same result with a monotone forward pointer (equivalence argued
/// there and property-tested under thinning).
pub(crate) fn luo_window_start(
    time_at: impl Fn(usize) -> f64,
    i: usize,
    t: f64,
    win: f64,
) -> usize {
    let mut w = i;
    while w > 0 && t - time_at(w - 1) < win {
        w -= 1;
    }
    w.saturating_sub(1)
}

/// One LUO estimate from the speed-window deltas — the bytes-processed /
/// speed model of \[13\]: remaining *time* from the byte-processing speed
/// over a trailing window, converted to a progress fraction. With no
/// usable speed sample yet (`first` observation, or no time/bytes moved
/// inside the window) it falls back to the byte fraction, or to `prev`
/// when no bytes exist at all.
pub(crate) fn luo_point(
    first: bool,
    elapsed: f64,
    dt: f64,
    db: f64,
    done_bytes: f64,
    remaining_bytes: f64,
    prev: f64,
) -> f64 {
    let est = if first || dt <= 0.0 || db <= 0.0 {
        let total = done_bytes + remaining_bytes;
        if total > 0.0 {
            done_bytes / total
        } else {
            prev
        }
    } else {
        let speed = db / dt;
        let remaining_time = remaining_bytes / speed.max(1e-9);
        elapsed / (elapsed + remaining_time)
    };
    clamp01(est)
}

/// Clamp to a probability, mapping non-finite values to 1.0 (complete).
#[inline]
pub(crate) fn clamp01(v: f64) -> f64 {
    if v.is_finite() {
        v.clamp(0.0, 1.0)
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kinds::EstimatorKind;
    use prosel_datagen::schema::{ColumnMeta, ColumnRole, TableMeta};
    use prosel_datagen::{Column, Database, PhysicalDesign, Table, TuningLevel};
    use prosel_engine::plan::{CmpOp, PhysicalPlan, PlanNode, Predicate};
    use prosel_engine::{run_plan, Catalog, CostModel, ExecConfig};

    fn db_with_rows(n: usize) -> Database {
        let mut db = Database::new("d");
        let meta = TableMeta::new(
            "t",
            64,
            vec![
                ColumnMeta::new("a", ColumnRole::PrimaryKey),
                ColumnMeta::new("b", ColumnRole::Value { min: 0, max: 9 }),
            ],
        );
        db.add(Table::new(
            meta,
            vec![
                Column { name: "a".into(), data: (1..=n as i64).collect() },
                Column { name: "b".into(), data: (0..n as i64).map(|x| x % 10).collect() },
            ],
        ));
        db
    }

    fn node(op: OperatorKind, children: Vec<usize>, est: f64, cols: usize) -> PlanNode {
        PlanNode { op, children, est_rows: est, est_row_bytes: 8.0 * cols as f64, out_cols: cols }
    }

    fn run_scan_filter(est_filter: f64) -> QueryRun {
        let db = db_with_rows(2000);
        let design = PhysicalDesign::derive(&db, TuningLevel::Untuned);
        let cat = Catalog::new(&db, &design);
        let plan = PhysicalPlan {
            nodes: vec![
                node(
                    OperatorKind::TableScan { table: "t".into(), cols: vec![0, 1] },
                    vec![],
                    2000.0,
                    2,
                ),
                node(
                    OperatorKind::Filter {
                        pred: Predicate::ColCmp { col: 1, op: CmpOp::Lt, val: 5 },
                    },
                    vec![0],
                    est_filter,
                    2,
                ),
            ],
            root: 1,
        };
        run_plan(
            &cat,
            &plan,
            &ExecConfig {
                cost: CostModel::deterministic(),
                initial_snapshot_interval: 50.0,
                ..ExecConfig::default()
            },
        )
    }

    fn obs_of(run: &QueryRun) -> PipelineObs {
        PipelineObs::with_ctx(run, 0, &TraceCtx::new(run)).expect("observations")
    }

    #[test]
    fn curves_are_probabilities_and_end_near_one() {
        let run = run_scan_filter(1000.0);
        let p = obs_of(&run);
        for kind in EstimatorKind::CANDIDATES {
            let c = p.curve(kind);
            assert_eq!(c.len(), p.len());
            for &v in &c {
                assert!((0.0..=1.0).contains(&v), "{kind}: {v}");
            }
        }
        // DNE and the oracle must end at 1 (all driver input consumed).
        let dne = p.curve(EstimatorKind::Dne);
        assert!((dne.last().unwrap() - 1.0).abs() < 1e-9);
        let oracle = p.curve(EstimatorKind::GetNextOracle);
        assert!((oracle.last().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dne_accurate_when_work_uniform() {
        let run = run_scan_filter(1000.0);
        let p = obs_of(&run);
        let dne = p.curve(EstimatorKind::Dne);
        let truth = p.truth();
        let l1: f64 =
            dne.iter().zip(&truth).map(|(a, b)| (a - b).abs()).sum::<f64>() / dne.len() as f64;
        assert!(l1 < 0.05, "uniform scan should be easy for DNE, l1={l1}");
    }

    #[test]
    fn tgn_hurt_by_bad_estimate_dne_immune() {
        // Optimizer thinks the filter passes 10 rows; truth is ~1000.
        let run = run_scan_filter(10.0);
        let p = obs_of(&run);
        let truth = p.truth();
        let l1 = |c: &[f64]| -> f64 {
            c.iter().zip(&truth).map(|(a, b)| (a - b).abs()).sum::<f64>() / c.len() as f64
        };
        let tgn = l1(&p.curve(EstimatorKind::Tgn));
        let dne = l1(&p.curve(EstimatorKind::Dne));
        assert!(
            tgn > dne + 0.05,
            "TGN should suffer from the cardinality error: tgn={tgn} dne={dne}"
        );
    }

    #[test]
    fn oracle_is_best_in_class() {
        let run = run_scan_filter(10.0);
        let p = obs_of(&run);
        let truth = p.truth();
        let l1 = |c: &[f64]| -> f64 {
            c.iter().zip(&truth).map(|(a, b)| (a - b).abs()).sum::<f64>() / c.len() as f64
        };
        let oracle = l1(&p.curve(EstimatorKind::GetNextOracle));
        for kind in [EstimatorKind::Tgn, EstimatorKind::Pmax, EstimatorKind::Safe] {
            assert!(oracle <= l1(&p.curve(kind)) + 1e-9, "oracle should beat {kind}");
        }
        assert!(oracle < 0.05, "oracle l1={oracle}");
    }

    #[test]
    fn pmax_is_most_pessimistic() {
        let run = run_scan_filter(1000.0);
        let p = obs_of(&run);
        let pmax = p.curve(EstimatorKind::Pmax);
        let safe = p.curve(EstimatorKind::Safe);
        for (a, b) in pmax.iter().zip(&safe) {
            assert!(a <= b, "PMAX must lower-bound SAFE");
        }
    }

    #[test]
    fn missing_pipeline_returns_none() {
        let run = run_scan_filter(1000.0);
        assert!(PipelineObs::with_ctx(&run, 0, &TraceCtx::new(&run)).is_some());
        assert_eq!(run.pipelines.len(), 1);
    }
}
