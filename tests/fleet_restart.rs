//! Restart-resume at the workspace level: a learning-loop process that
//! crashes between feedback rounds and comes back from its checkpoint
//! must be **indistinguishable** from one that never crashed.
//!
//! Checkpoint → drop → [`OnlineLearner::restore`] in a "new process",
//! then drive the restored learner and a never-crashed twin with the
//! identical harvest stream — every subsequent checkpoint, retrain
//! decision and served model must stay byte-identical.

use prosel::core::pipeline_runs::collect_workload_records;
use prosel::core::selection::{EstimatorSelector, SelectorConfig};
use prosel::core::training::TrainingSet;
use prosel::engine::{run_plan_tapped, Catalog, ExecConfig};
use prosel::learn::{BufferConfig, LearnConfig, OnlineLearner};
use prosel::mart::BoostParams;
use prosel::monitor::{HarvestConfig, HarvestedQuery, MonitorBuilder};
use prosel::planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel::planner::PlanBuilder;
use std::sync::Arc;

fn selector_on(spec: &WorkloadSpec) -> EstimatorSelector {
    let records = collect_workload_records(spec).expect("workload");
    EstimatorSelector::train(
        &TrainingSet::from_records(&records),
        &SelectorConfig {
            boost: BoostParams { iterations: 8, ..BoostParams::fast() },
            ..SelectorConfig::default()
        },
    )
}

/// Execute one workload through a harvesting monitor and return the
/// harvests in deterministic (query) order — the feedback stream both
/// universes replay.
fn harvest_round(spec: &WorkloadSpec, selector: Arc<EstimatorSelector>) -> Vec<HarvestedQuery> {
    let w = materialize(spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let (sink, rx) = std::sync::mpsc::channel();
    let mut monitor = MonitorBuilder::with_selector(selector)
        .harvester(Arc::new(sink), HarvestConfig { label: spec.label(), min_observations: 5 })
        .build_monitor()
        .expect("build");
    for (qi, q) in w.queries.iter().enumerate() {
        let plan = builder.build(q).expect("plan");
        let (tap, events) = std::sync::mpsc::channel();
        monitor.register(qi, &plan);
        let cfg = ExecConfig { seed: 0xF1EE ^ qi as u64, ..ExecConfig::default() };
        let _run = run_plan_tapped(&catalog, &plan, &cfg, qi, tap);
        monitor.drain(&events);
        monitor.unregister(qi).expect("registered above");
    }
    drop(monitor);
    rx.try_iter().collect()
}

fn learn_config() -> LearnConfig {
    LearnConfig {
        buffer: BufferConfig { capacity: 96, group_quota: 16, ..BufferConfig::default() },
        retrain_every: 0,
        holdout_every: 4,
        min_records: 12,
        warm_trees: 16,
        ..LearnConfig::default()
    }
}

/// Crash between feedback rounds: the restored learner and a
/// never-crashed twin fed the same stream stay byte-identical through
/// the next absorb/retrain cycle — including the retrain (the restored
/// reservoir generator resumes at the recorded draw position and the
/// re-seated boost parameters reproduce the exact candidate fit).
#[test]
fn restarted_learner_is_indistinguishable_from_an_uncrashed_one() {
    let baseline = Arc::new(selector_on(
        &WorkloadSpec::new(WorkloadKind::TpchLike, 0xF1E0).with_queries(8).with_scale(0.4),
    ));
    let round1 = harvest_round(
        &WorkloadSpec::new(WorkloadKind::TpcdsLike, 0xF1E1).with_queries(8),
        Arc::clone(&baseline),
    );
    let round2 = harvest_round(
        &WorkloadSpec::new(WorkloadKind::TpcdsLike, 0xF1E2).with_queries(8),
        Arc::clone(&baseline),
    );
    assert!(!round1.is_empty() && !round2.is_empty(), "harvests must flow");

    // Universe A never crashes.
    let mut continuous = OnlineLearner::new(Arc::clone(&baseline), learn_config());
    // Universe B checkpoints after round 1, "crashes", and resumes.
    let mut doomed = OnlineLearner::new(Arc::clone(&baseline), learn_config());
    for h in &round1 {
        continuous.absorb(h);
        doomed.absorb(h);
    }
    continuous.retrain();
    doomed.retrain();
    let artifact = doomed.checkpoint();
    drop(doomed); // the crash

    let mut restored = OnlineLearner::restore(&artifact).expect("own checkpoint must restore");
    assert_eq!(restored.checkpoint(), artifact, "restore -> checkpoint is the identity");
    assert_eq!(
        restored.current().to_text(),
        continuous.current().to_text(),
        "the restored learner serves the exact promoted model"
    );

    // Both universes replay round 2.
    for h in &round2 {
        continuous.absorb(h);
        restored.absorb(h);
    }
    let a = continuous.retrain();
    let b = restored.retrain();
    assert_eq!(a.promoted, b.promoted);
    assert_eq!(a.trained_on, b.trained_on);
    assert_eq!(
        continuous.current().to_text(),
        restored.current().to_text(),
        "post-restart retrains must fit the identical model"
    );
    assert_eq!(
        continuous.checkpoint(),
        restored.checkpoint(),
        "the universes stay bit-identical after the restart"
    );
}
