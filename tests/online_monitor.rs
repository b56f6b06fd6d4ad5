//! Online monitoring integration: live traces through the monitor must
//! reproduce the post-hoc estimator stack exactly, and the served
//! progress must respect the monitor invariants.

use prosel::core::pipeline_runs::{collect_from_workload, CollectConfig};
use prosel::core::selection::{EstimatorSelector, SelectorConfig};
use prosel::core::training::TrainingSet;
use prosel::engine::{
    run_concurrent_tapped, run_plan_tapped, Catalog, ConcurrentConfig, ExecConfig, QueryRun,
    TraceEvent,
};
use prosel::estimators::kinds::EstimatorKind;
use prosel::estimators::{PipelineObs, TraceCtx, ONLINE_KINDS};
use prosel::mart::BoostParams;
use prosel::monitor::{MonitorBuilder, MonitorConfig, ProgressMonitor};
use prosel::planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel::planner::PlanBuilder;

/// Every estimator kind, oracles included.
fn all_kinds() -> Vec<EstimatorKind> {
    let mut kinds = ONLINE_KINDS.to_vec();
    kinds.push(EstimatorKind::GetNextOracle);
    kinds.push(EstimatorKind::BytesOracle);
    kinds
}

/// Assert that the monitor's observation state, fed live (deltas, thinning,
/// provisional windows), equals post-hoc replay of the final trace bit for
/// bit on every pipeline of `run`.
fn assert_equivalent(monitor: &ProgressMonitor, query: usize, run: &QueryRun, label: &str) {
    let ctx = TraceCtx::new(run);
    for pid in 0..run.pipelines.len() {
        let inc = monitor.observation(query, pid).expect("registered pipeline");
        match PipelineObs::with_ctx(run, pid, &ctx) {
            None => assert!(
                inc.is_empty(),
                "{label}: pipeline {pid} unobserved post-hoc but online has {} obs",
                inc.len()
            ),
            Some(replayed) => {
                assert_eq!(
                    inc.times(),
                    replayed.times(),
                    "{label}: observation set mismatch on pipeline {pid}"
                );
                assert_eq!(
                    inc.window(),
                    replayed.window(),
                    "{label}: window mismatch, pipeline {pid}"
                );
                for kind in all_kinds() {
                    let online = inc.curve(kind);
                    let offline = replayed.curve(kind);
                    assert_eq!(
                        online.len(),
                        offline.len(),
                        "{label}: {kind} curve length mismatch on pipeline {pid}"
                    );
                    for (j, (a, b)) in online.iter().zip(&offline).enumerate() {
                        assert!(
                            a.to_bits() == b.to_bits(),
                            "{label}: {kind} differs at pipeline {pid} obs {j}: \
                             online {a:?} vs replayed {b:?}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn online_offline_equivalence_tpch() {
    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 0x011).with_queries(12);
    let w = materialize(&spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    for (qi, q) in w.queries.iter().enumerate() {
        let plan = builder.build(q).expect("plan");
        let (tap, rx) = std::sync::mpsc::channel();
        let mut monitor = MonitorBuilder::fixed(EstimatorKind::Dne).build_monitor().expect("build");
        monitor.register(qi, &plan);
        let cfg = ExecConfig { seed: qi as u64, ..ExecConfig::default() };
        let run = run_plan_tapped(&catalog, &plan, &cfg, qi, tap);
        monitor.drain(&rx);
        assert_eq!(monitor.is_finished(qi), Some(true));
        assert_equivalent(&monitor, qi, &run, &format!("tpch q{qi}"));
    }
}

#[test]
fn online_offline_equivalence_survives_thinning() {
    // A tiny snapshot budget forces repeated buffer thinning; the monitor
    // must track the engine's bounded trace through every halving.
    let spec = WorkloadSpec::new(WorkloadKind::TpcdsLike, 77).with_queries(6);
    let w = materialize(&spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let mut thinned = 0usize;
    for (qi, q) in w.queries.iter().enumerate() {
        let plan = builder.build(q).expect("plan");
        let (tap, rx) = std::sync::mpsc::channel();
        let mut monitor = MonitorBuilder::fixed(EstimatorKind::Tgn).build_monitor().expect("build");
        monitor.register(qi, &plan);
        let cfg = ExecConfig {
            max_snapshots: 32,
            initial_snapshot_interval: 5.0,
            seed: qi as u64,
            ..ExecConfig::default()
        };
        let run = run_plan_tapped(&catalog, &plan, &cfg, qi, tap);
        while let Ok(ev) = rx.try_recv() {
            if matches!(ev, TraceEvent::Thinned { .. }) {
                thinned += 1;
            }
            monitor.ingest(ev);
        }
        assert_equivalent(&monitor, qi, &run, &format!("thinning q{qi}"));
    }
    assert!(thinned > 0, "the tiny budget should have forced thinning");
}

#[test]
fn monitor_progress_is_monotone_and_pins_to_one() {
    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 404).with_queries(8);
    let w = materialize(&spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    for (qi, q) in w.queries.iter().enumerate() {
        let plan = builder.build(q).expect("plan");
        let (tap, rx) = std::sync::mpsc::channel();
        // DNE is monotone (driver counters only grow against fixed
        // totals), so the served query progress must be too.
        let mut monitor = MonitorBuilder::fixed(EstimatorKind::Dne).build_monitor().expect("build");
        monitor.register(qi, &plan);
        let run = run_plan_tapped(&catalog, &plan, &ExecConfig::default(), qi, tap);
        let mut prev = 0.0f64;
        while let Ok(ev) = rx.try_recv() {
            monitor.ingest(ev);
            let p = monitor.query_progress(qi).expect("registered");
            assert!((0.0..=1.0).contains(&p), "q{qi}: progress {p} out of range");
            assert!(p >= prev - 1e-12, "q{qi}: DNE-monitored progress regressed: {prev} -> {p}");
            prev = p;
        }
        assert_eq!(
            monitor.query_progress(qi),
            Some(1.0),
            "q{qi}: progress must pin to exactly 1.0 at the final snapshot"
        );
        // Post-hoc, the monotone estimators' committed curves agree.
        for pid in 0..run.pipelines.len() {
            let inc = monitor.observation(qi, pid).expect("pipeline");
            for kind in [EstimatorKind::Dne, EstimatorKind::GetNextOracle] {
                let c = inc.curve(kind);
                for w2 in c.windows(2) {
                    assert!(w2[0] <= w2[1] + 1e-12, "q{qi} p{pid}: {kind} curve regressed");
                }
            }
        }
    }
}

#[test]
fn selector_driven_monitor_end_to_end() {
    // Train a small selector, then monitor a concurrent batch with online
    // re-selection: curves still match post-hoc replay exactly (selection never
    // perturbs observation state), switches are well-formed, and the
    // serving surface stays sane throughout.
    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 21).with_queries(20).with_scale(0.5);
    let w = materialize(&spec);
    let records = collect_from_workload(&w, &CollectConfig::default()).expect("records");
    let train = TrainingSet::from_records(&records);
    let selector = EstimatorSelector::train(
        &train,
        &SelectorConfig::default().with_boost(BoostParams::fast()),
    );

    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let plans: Vec<_> = w.queries.iter().take(6).map(|q| builder.build(q).expect("plan")).collect();

    let (tap, rx) = std::sync::mpsc::channel();
    let mut monitor = MonitorBuilder::with_selector(selector)
        .config(MonitorConfig { reselect_every: 3, ..MonitorConfig::default() })
        .build_monitor()
        .expect("build");
    for (qi, plan) in plans.iter().enumerate() {
        monitor.register(qi, plan);
    }
    let runs = run_concurrent_tapped(&catalog, &plans, &ConcurrentConfig::default(), tap);
    while let Ok(ev) = rx.try_recv() {
        let q = ev.query();
        monitor.ingest(ev);
        let status = monitor.status(q).expect("registered");
        assert!((0.0..=1.0).contains(&status.progress));
        for p in &status.pipelines {
            assert!((0.0..=1.0).contains(&p.progress));
        }
    }
    for (qi, run) in runs.iter().enumerate() {
        assert_eq!(monitor.is_finished(qi), Some(true));
        assert_equivalent(&monitor, qi, run, &format!("selector q{qi}"));
        let switches = monitor.switch_history(qi).expect("registered");
        for s in &switches {
            assert_ne!(s.from, s.to, "q{qi}: no-op switch logged");
        }
        // Initial choices came from static features; current choice must
        // equal the initial one composed with the logged switches.
        for pid in 0..run.pipelines.len() {
            let mut k = monitor.initial_choice(qi, pid).expect("pipeline");
            for s in switches.iter().filter(|s| s.pipeline == pid) {
                assert_eq!(s.from, k, "q{qi} p{pid}: switch chain broken");
                k = s.to;
            }
            assert_eq!(monitor.current_choice(qi, pid), Some(k));
        }
    }
}
