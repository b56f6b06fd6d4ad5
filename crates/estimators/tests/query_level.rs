//! Query-level progress combination (eq. (5)) and per-query evaluation.

use prosel_engine::{run_plan, Catalog, ExecConfig};
use prosel_estimators::{l1_error, query_l1, query_progress_curve, EstimatorKind};
use prosel_planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel_planner::PlanBuilder;

fn some_runs(n: usize) -> Vec<prosel_engine::QueryRun> {
    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 404).with_queries(n).with_scale(0.8);
    let w = materialize(&spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    w.queries
        .iter()
        .enumerate()
        .map(|(qi, q)| {
            let plan = builder.build(q).expect("plan");
            run_plan(&catalog, &plan, &ExecConfig { seed: qi as u64, ..ExecConfig::default() })
        })
        .collect()
}

#[test]
fn query_curves_are_monotone_enough_and_complete() {
    for run in some_runs(12) {
        let curve = query_progress_curve(&run, |_| EstimatorKind::Dne);
        assert_eq!(curve.len(), run.trace.snapshots.len());
        for &v in &curve {
            assert!((0.0..=1.0).contains(&v));
        }
        // DNE-based query progress is non-decreasing (driver counters only
        // grow and finished pipelines pin to their weight).
        for w in curve.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "regression in DNE query curve");
        }
        // By the end everything is complete.
        assert!(curve.last().copied().unwrap_or(0.0) > 0.95);
    }
}

#[test]
fn oracle_query_error_beats_estimates() {
    let runs = some_runs(12);
    let mut oracle_sum = 0.0;
    let mut tgn_sum = 0.0;
    for run in &runs {
        oracle_sum += query_l1(run, EstimatorKind::GetNextOracle);
        tgn_sum += query_l1(run, EstimatorKind::Tgn);
    }
    assert!(
        oracle_sum < tgn_sum,
        "oracle {:.4} should beat TGN {:.4} at query level",
        oracle_sum / runs.len() as f64,
        tgn_sum / runs.len() as f64
    );
}

#[test]
fn mixed_per_pipeline_choices_are_valid() {
    // Alternate estimators per pipeline: still a valid probability curve.
    for run in some_runs(6) {
        let curve = query_progress_curve(&run, |pid| {
            if pid % 2 == 0 {
                EstimatorKind::Tgn
            } else {
                EstimatorKind::Dne
            }
        });
        let truth: Vec<f64> = (0..curve.len()).map(|j| run.trace.true_progress(j)).collect();
        let err = l1_error(&curve, &truth);
        assert!((0.0..=0.6).contains(&err), "mixed-choice query error {err}");
    }
}

#[test]
fn every_query_curve_ends_at_exactly_one() {
    // A pipeline whose window has ended is pinned to its full weight even
    // when its estimator never reached 1 (a driver left unexhausted by
    // early termination) and a later snapshot still counts among its
    // observations.
    for kind in [WorkloadKind::TpchLike, WorkloadKind::TpcdsLike] {
        let w = materialize(&WorkloadSpec::new(kind, 0xD1FF).with_queries(30).with_scale(0.5));
        let catalog = Catalog::new(&w.db, &w.design);
        let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
        for (qi, q) in w.queries.iter().enumerate() {
            let plan = builder.build(q).expect("plan");
            let run = run_plan(&catalog, &plan, &ExecConfig::default());
            let curve = query_progress_curve(&run, |pid| {
                if pid % 2 == 0 {
                    EstimatorKind::Tgn
                } else {
                    EstimatorKind::Dne
                }
            });
            let last = curve.last().copied().expect("snapshots");
            assert_eq!(last, 1.0, "{kind:?} q{qi}: a finished query reads {last}");
        }
    }
}
