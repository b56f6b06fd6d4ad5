//! Estimator behaviour across real workloads: the paper's premises must
//! emerge from the simulator, not be injected.

use prosel_engine::{run_plan, Catalog, ExecConfig};
use prosel_estimators::{evaluate_pipeline_shared, EstimatorKind, TraceCtx};
use prosel_planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel_planner::PlanBuilder;

/// Collect per-pipeline L1 errors for all candidate estimators over a
/// workload.
fn collect_errors(kind: WorkloadKind, queries: usize) -> Vec<Vec<(EstimatorKind, f64)>> {
    let spec = WorkloadSpec::new(kind, 1234).with_queries(queries).with_scale(0.8);
    let w = materialize(&spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let mut out = Vec::new();
    for (qi, q) in w.queries.iter().enumerate() {
        let plan = builder.build(q).expect("plan");
        let run = run_plan(
            &catalog,
            &plan,
            &ExecConfig { seed: 0xABC ^ qi as u64, ..ExecConfig::default() },
        );
        let ctx = TraceCtx::new(&run);
        for pid in 0..run.pipelines.len() {
            if let Some(errs) =
                evaluate_pipeline_shared(&run, pid, &EstimatorKind::CANDIDATES, &ctx)
            {
                out.push(errs.iter().map(|e| (e.kind, e.l1)).collect());
            }
        }
    }
    out
}

#[test]
fn no_single_estimator_dominates() {
    let errors = collect_errors(WorkloadKind::TpchLike, 40);
    assert!(errors.len() > 60, "expected many pipelines, got {}", errors.len());
    // Count how often each of the three classic estimators is the best of
    // the three — each must win somewhere (Figure 1's premise).
    let three = [EstimatorKind::Dne, EstimatorKind::Tgn, EstimatorKind::Luo];
    let mut wins = [0usize; 3];
    for pipeline_errors in &errors {
        let of = |k: EstimatorKind| pipeline_errors.iter().find(|(kk, _)| *kk == k).unwrap().1;
        let best = three
            .iter()
            .enumerate()
            .min_by(|a, b| of(*a.1).partial_cmp(&of(*b.1)).unwrap())
            .unwrap()
            .0;
        wins[best] += 1;
    }
    for (i, &w) in wins.iter().enumerate() {
        assert!(
            w as f64 / errors.len() as f64 > 0.03,
            "{:?} never wins ({w}/{} pipelines): no estimator diversity",
            three[i],
            errors.len()
        );
    }
}

#[test]
fn estimator_errors_bounded() {
    for kind in [WorkloadKind::TpcdsLike, WorkloadKind::Real1] {
        let errors = collect_errors(kind, 15);
        for pipeline_errors in &errors {
            for &(k, l1) in pipeline_errors {
                assert!((0.0..=1.0).contains(&l1), "{k}: implausible L1 {l1} on {kind:?}");
            }
        }
    }
}

#[test]
fn oracle_getnext_model_outperforms_estimators_on_average() {
    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 99).with_queries(30).with_scale(0.8);
    let w = materialize(&spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let kinds =
        [EstimatorKind::Dne, EstimatorKind::Tgn, EstimatorKind::Luo, EstimatorKind::GetNextOracle];
    let mut sums = [0.0f64; 4];
    let mut n = 0usize;
    for (qi, q) in w.queries.iter().enumerate() {
        let plan = builder.build(q).expect("plan");
        let run =
            run_plan(&catalog, &plan, &ExecConfig { seed: qi as u64, ..ExecConfig::default() });
        let ctx = TraceCtx::new(&run);
        for pid in 0..run.pipelines.len() {
            if let Some(errs) = evaluate_pipeline_shared(&run, pid, &kinds, &ctx) {
                for (i, e) in errs.iter().enumerate() {
                    sums[i] += e.l1;
                }
                n += 1;
            }
        }
    }
    let avg: Vec<f64> = sums.iter().map(|s| s / n as f64).collect();
    let oracle = avg[3];
    // §6.7: the idealized GetNext model is far better than any practical
    // estimator and has a small absolute error.
    for i in 0..3 {
        assert!(oracle < avg[i], "oracle {oracle:.4} should beat {} ({:.4})", kinds[i], avg[i]);
    }
    assert!(oracle < 0.12, "oracle L1 too high: {oracle:.4}");
}

#[test]
fn worst_case_estimators_are_poor_in_practice() {
    let errors = collect_errors(WorkloadKind::TpchLike, 25);
    let mean = |k: EstimatorKind| -> f64 {
        let vals: Vec<f64> =
            errors.iter().map(|pe| pe.iter().find(|(kk, _)| *kk == k).unwrap().1).collect();
        vals.iter().sum::<f64>() / vals.len() as f64
    };
    let pmax = mean(EstimatorKind::Pmax);
    let safe = mean(EstimatorKind::Safe);
    let dne = mean(EstimatorKind::Dne);
    let tgn = mean(EstimatorKind::Tgn);
    // §6.2: PMAX/SAFE are far worse than the practical estimators, and
    // PMAX is the worst of the two.
    assert!(pmax > dne && pmax > tgn, "pmax {pmax:.3} dne {dne:.3} tgn {tgn:.3}");
    assert!(safe > dne.min(tgn), "safe {safe:.3}");
    assert!(pmax > safe, "pmax {pmax:.3} should exceed safe {safe:.3}");
}

#[test]
fn specialized_estimators_help_their_target_cases() {
    // Fully tuned TPC-H: plenty of nested iterations and batch sorts.
    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 77)
        .with_queries(120)
        .with_scale(0.8)
        .with_skew(2.0)
        .with_tuning(prosel_datagen::TuningLevel::FullyTuned);
    let w = materialize(&spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let mut dne_sum = 0.0;
    let mut seek_sum = 0.0;
    let mut batch_sum = 0.0;
    let mut n = 0usize;
    for (qi, q) in w.queries.iter().enumerate() {
        let plan = builder.build(q).expect("plan");
        let run =
            run_plan(&catalog, &plan, &ExecConfig { seed: qi as u64, ..ExecConfig::default() });
        let ctx = TraceCtx::new(&run);
        for (pid, p) in run.pipelines.iter().enumerate() {
            // Only pipelines with nested iteration + batch sort.
            if p.index_seek_nodes.is_empty() || p.batch_sort_nodes.is_empty() {
                continue;
            }
            let kinds = [EstimatorKind::Dne, EstimatorKind::DneSeek, EstimatorKind::BatchDne];
            if let Some(errs) = evaluate_pipeline_shared(&run, pid, &kinds, &ctx) {
                dne_sum += errs[0].l1;
                seek_sum += errs[1].l1;
                batch_sum += errs[2].l1;
                n += 1;
            }
        }
    }
    assert!(n >= 5, "need nested-iteration pipelines to test, got {n}");
    let (dne, seek, batch) = (dne_sum / n as f64, seek_sum / n as f64, batch_sum / n as f64);
    // On their target pipelines the specialized estimators should (on
    // average) improve on plain DNE.
    assert!(
        seek < dne || batch < dne,
        "specialized estimators never helped: dne={dne:.4} dneseek={seek:.4} batchdne={batch:.4}"
    );
}
