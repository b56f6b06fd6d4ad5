//! Sharded service integration: a [`MonitorService`] fed by real tapped
//! executions must serve exactly what a single-threaded
//! [`ProgressMonitor`] ingesting the same (deterministic) event stream
//! serves — sharding changes the threading, never the estimates.

use prosel::core::pipeline_runs::{collect_from_workload, CollectConfig};
use prosel::core::selection::{EstimatorSelector, SelectorConfig};
use prosel::core::training::TrainingSet;
use prosel::engine::{run_concurrent_tapped, Catalog, ConcurrentConfig, ExecConfig};
use prosel::estimators::kinds::EstimatorKind;
use prosel::mart::BoostParams;
use prosel::monitor::{MonitorBuilder, MonitorConfig, QueryError, RegisterError};
use prosel::planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel::planner::PlanBuilder;

#[test]
fn service_matches_single_monitor_on_concurrent_workload() {
    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 0xBEEF).with_queries(8).with_scale(0.5);
    let w = materialize(&spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let plans: Vec<_> = w.queries.iter().map(|q| builder.build(q).expect("plan")).collect();
    let cfg = ConcurrentConfig::default();

    // Run 1: tapped into the sharded service (3 shards on 8 queries so
    // shards hold 3/3/2 queries each).
    let service =
        MonitorBuilder::fixed(EstimatorKind::Dne).shards(3).build_service().expect("build");
    let queries: Vec<usize> = (0..plans.len()).collect();
    for (qi, plan) in plans.iter().enumerate() {
        service.register(qi, plan);
    }
    let runs = run_concurrent_tapped(&catalog, &plans, &cfg, service.tap());
    // Service reads are snapshots — drain the tapped events
    // before comparing final state.
    service.quiesce();

    // Run 2: the same workload tapped into a channel-fed single monitor.
    // Concurrent execution is deterministic, so both monitors saw the
    // byte-identical event stream.
    let (tap, rx) = std::sync::mpsc::channel();
    let mut reference = MonitorBuilder::fixed(EstimatorKind::Dne).build_monitor().expect("build");
    for (qi, plan) in plans.iter().enumerate() {
        reference.register(qi, plan);
    }
    let runs2 = run_concurrent_tapped(&catalog, &plans, &cfg, tap);
    reference.drain(&rx);

    for (qi, (run, run2)) in runs.iter().zip(&runs2).enumerate() {
        assert_eq!(run.trace.snapshots.len(), run2.trace.snapshots.len(), "q{qi} determinism");
        let served = service.status(qi).expect("registered");
        let expect = reference.status(qi).expect("registered");
        assert!(served.finished && expect.finished, "q{qi} must be finished");
        assert_eq!(served.progress.to_bits(), expect.progress.to_bits(), "q{qi} progress");
        assert_eq!(served.time.to_bits(), expect.time.to_bits(), "q{qi} time");
        assert_eq!(served.pipelines.len(), expect.pipelines.len());
        for (a, b) in served.pipelines.iter().zip(&expect.pipelines) {
            assert_eq!(a.pipeline, b.pipeline);
            assert_eq!(a.estimator, b.estimator);
            assert_eq!(a.progress.to_bits(), b.progress.to_bits(), "q{qi} p{}", a.pipeline);
            assert_eq!(a.observations, b.observations, "q{qi} p{}", a.pipeline);
        }
        for pid in 0..run.pipelines.len() {
            assert_eq!(
                service.pipeline_progress(qi, pid).ok().map(f64::to_bits),
                reference.pipeline_progress(qi, pid).map(f64::to_bits),
                "q{qi} p{pid} pipeline progress"
            );
        }
    }
    assert_eq!(service.registered_queries(), queries);
    service.shutdown();
}

#[test]
fn selector_service_matches_single_monitor_including_switches() {
    // Train a small selector, then compare the sharded service against the
    // single-threaded monitor under dynamic re-selection: choices and
    // switch logs must be identical too.
    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 21).with_queries(20).with_scale(0.5);
    let w = materialize(&spec);
    let records = collect_from_workload(&w, &CollectConfig::default()).expect("records");
    let train = TrainingSet::from_records(&records);
    let cfg = SelectorConfig::default().with_boost(BoostParams::fast());

    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let plans: Vec<_> = w.queries.iter().take(5).map(|q| builder.build(q).expect("plan")).collect();
    let run_cfg = ConcurrentConfig {
        exec: ExecConfig { seed: 0xD1CE, ..ExecConfig::default() },
        ..Default::default()
    };
    let monitor_cfg = MonitorConfig { reselect_every: 3, ..MonitorConfig::default() };

    let service = MonitorBuilder::with_selector(EstimatorSelector::train(&train, &cfg))
        .config(monitor_cfg.clone())
        .shards(4)
        .build_service()
        .expect("build");
    for (qi, plan) in plans.iter().enumerate() {
        service.register(qi, plan);
    }
    run_concurrent_tapped(&catalog, &plans, &run_cfg, service.tap());
    service.quiesce();

    let (tap, rx) = std::sync::mpsc::channel();
    let mut reference = MonitorBuilder::with_selector(EstimatorSelector::train(&train, &cfg))
        .config(monitor_cfg)
        .build_monitor()
        .expect("build");
    for (qi, plan) in plans.iter().enumerate() {
        reference.register(qi, plan);
    }
    run_concurrent_tapped(&catalog, &plans, &run_cfg, tap);
    reference.drain(&rx);

    for qi in 0..plans.len() {
        let switches = service.switch_history(qi).expect("registered");
        let expect = reference.switch_history(qi).expect("registered");
        assert_eq!(switches.len(), expect.len(), "q{qi} switch count");
        for (a, b) in switches.iter().zip(&expect) {
            assert_eq!(a, b, "q{qi} switch event");
        }
        let served = service.status(qi).expect("registered");
        let expected = reference.status(qi).expect("registered");
        for (a, b) in served.pipelines.iter().zip(&expected.pipelines) {
            assert_eq!(a.estimator, b.estimator, "q{qi} p{} final choice", a.pipeline);
        }
        assert_eq!(served.progress.to_bits(), expected.progress.to_bits(), "q{qi}");
    }
}

#[test]
fn service_registration_errors_and_late_join_are_graceful() {
    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 7).with_queries(2).with_scale(0.3);
    let w = materialize(&spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let plan = builder.build(&w.queries[0]).expect("plan");

    let service =
        MonitorBuilder::fixed(EstimatorKind::Tgn).shards(2).build_service().expect("build");
    assert_eq!(service.try_register(0, &plan), Ok(()));
    assert_eq!(service.try_register(0, &plan), Err(RegisterError::DuplicateQuery(0)));

    // An unregistered query streaming through the tap is ignored; a query
    // registered only after its stream started is dropped on first
    // contact, not served corrupted.
    let late = 1usize;
    let runs = prosel::engine::run_plan_tapped(
        &catalog,
        &plan,
        &ExecConfig::default(),
        late,
        service.tap(),
    );
    assert!(runs.trace.snapshots.len() > 1);
    service.quiesce();
    assert_eq!(service.query_progress(late), Err(QueryError::QueryUnknown(late)));
    service.register(late, &plan);
    let _ = prosel::engine::run_plan_tapped(
        &catalog,
        &plan,
        &ExecConfig::default(),
        late,
        service.tap(),
    );
    // The second stream also starts at seq 0 relative to the engine run,
    // which the shard accepts as a fresh stream for the new registration.
    service.quiesce();
    assert_eq!(service.query_progress(late), Ok(1.0));
    service.shutdown();
}
