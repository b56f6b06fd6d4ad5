//! The learning loop: one feedback round (replay finished queries through
//! a harvesting monitor, absorb, retrain, checkpoint and restore), and the
//! held-out scores before and after it.

use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Instant;

use prosel::core::selection::EstimatorSelector;
use prosel::core::training::TrainingSet;
use prosel::engine::trace::TraceEvent;
use prosel::engine::{run_plan_tapped, Catalog, ExecConfig};
use prosel::estimators::EstimatorKind;
use prosel::learn::{LearnConfig, OnlineLearner};
use prosel::monitor::{HarvestConfig, HarvestedQuery, MonitorBuilder};
use prosel::planner::workload::Workload;
use prosel::planner::PlanBuilder;

use crate::calib::Meter;
use crate::fixtures::{Template, DELTA_THRESHOLD, MAX_SNAPSHOTS};
use crate::spans::{Tracer, NO_QUERY};

/// Finished queries a feedback round learns from.
pub const FEEDBACK_QUERIES: usize = 150;

/// Where a feedback round's finished queries come from.
pub enum Source<'a> {
    /// The serving workloads: the first queries of the run's own traffic,
    /// replayed from their captured streams.
    Streams { templates: &'a [Template], draws: &'a [u16] },
    /// `learn_cycle`: a corpus of fresh queries, executed by the engine
    /// with the tap feeding the monitor.
    Corpus(&'a Workload),
}

pub struct Feedback {
    /// Replay + absorb + retrain + checkpoint + restore.
    pub seconds: f64,
    /// The host's slowdown ([`crate::calib`]) over those seconds.
    pub slowdown: f64,
    pub absorb_us: f64,
    pub retrain_ms: f64,
    pub checkpoint_ms: f64,
    pub restore_ms: f64,
    pub harvested: usize,
    pub promoted: bool,
    /// `restore(checkpoint(l))` checkpointed to the same bytes.
    pub checkpoint_identical: bool,
    /// The selector the round leaves serving.
    pub selector: Arc<EstimatorSelector>,
    /// With [`Source::Corpus`]: the executed queries' plans and streams
    /// (`learn_cycle` serves them next).
    pub captured: Vec<Template>,
}

/// One feedback round, exactly as a deployment runs it: finished queries
/// are harvested by the monitor that served them (under `selector`),
/// absorbed into an [`OnlineLearner`], the learner retrains (guarded
/// promotion on its own validation slice), and its state goes through a
/// checkpoint → restore cycle.
pub fn feedback_round(
    selector: &Arc<EstimatorSelector>,
    source: Source<'_>,
    tracer: &mut Tracer,
) -> Feedback {
    let start = Instant::now();
    let mut meter = Meter::start();
    let (sink, harvests) = channel();
    let mut monitor = MonitorBuilder::with_selector(Arc::clone(selector))
        .harvester(Arc::new(sink), HarvestConfig { label: "feedback".into(), min_observations: 5 })
        .build_monitor()
        .expect("selector-policy monitors always build");
    let mut captured = Vec::new();
    match source {
        Source::Streams { templates, draws } => {
            for (query, &d) in draws.iter().take(FEEDBACK_QUERIES).enumerate() {
                let tpl = &templates[d as usize];
                monitor.register(query, Arc::clone(&tpl.plan));
                for idx in 0..tpl.events.len() {
                    let ev = tpl.event(idx, query, idx as f64 * 1e-3);
                    tracer.call("monitor.shard_ingest", query as u32, || monitor.ingest(ev));
                }
            }
        }
        Source::Corpus(w) => {
            let catalog = Catalog::new(&w.db, &w.design);
            let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
            for (query, spec) in w.queries.iter().take(FEEDBACK_QUERIES).enumerate() {
                let plan = tracer
                    .call("planner.plan_build", NO_QUERY, || builder.build(spec))
                    .expect("corpus query plans");
                let exec = ExecConfig {
                    seed: 0xFEED_0000 ^ query as u64,
                    max_snapshots: MAX_SNAPSHOTS,
                    delta_threshold: DELTA_THRESHOLD,
                    ..ExecConfig::default()
                };
                let (tap, rx) = channel();
                let run = tracer.call("engine.run_plan_tapped", query as u32, || {
                    run_plan_tapped(&catalog, &plan, &exec, query, tap)
                });
                let events: Vec<TraceEvent> = rx.try_iter().collect();
                let plan = Arc::new(plan);
                monitor.register(query, Arc::clone(&plan));
                for ev in &events {
                    tracer
                        .call("monitor.shard_ingest", query as u32, || monitor.ingest(ev.clone()));
                }
                captured.push(Template {
                    corpus: 0,
                    plan,
                    events,
                    exec,
                    total_time: run.trace.total_time,
                });
                if query % 32 == 31 {
                    meter.lap();
                }
            }
        }
    }
    drop(monitor);
    meter.lap();

    let mut harvested: Vec<HarvestedQuery> = harvests.try_iter().collect();
    harvested.sort_by_key(|h| h.query);
    let mut learner = OnlineLearner::new(
        Arc::clone(selector),
        LearnConfig { retrain_every: 0, ..LearnConfig::default() },
    );
    let (_, absorb_ns) = tracer.timed("learn.absorb", NO_QUERY, || {
        for h in &harvested {
            learner.absorb(h);
        }
    });
    let (outcome, retrain_ns) = tracer.timed("learn.retrain", NO_QUERY, || learner.retrain());
    let (text, checkpoint_ns) = tracer.timed("learn.checkpoint", NO_QUERY, || learner.checkpoint());
    let (restored, restore_ns) =
        tracer.timed("learn.restore", NO_QUERY, || OnlineLearner::restore(&text));
    let slowdown = meter.finish();
    let seconds = start.elapsed().as_secs_f64();
    let restored = restored.expect("a learner's own checkpoint restores");
    Feedback {
        seconds,
        slowdown,
        absorb_us: absorb_ns as f64 / 1e3 / harvested.len().max(1) as f64,
        retrain_ms: retrain_ns as f64 / 1e6,
        checkpoint_ms: checkpoint_ns as f64 / 1e6,
        restore_ms: restore_ns as f64 / 1e6,
        harvested: harvested.len(),
        promoted: outcome.promoted,
        checkpoint_identical: restored.checkpoint() == text,
        selector: restored.current(),
        captured,
    }
}

/// Held-out quality of a selector, with the naive baselines a prediction
/// system must be stated against: the best single fixed estimator, and the
/// per-pipeline oracle.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    pub selection_l1: f64,
    pub best_fixed_l1: f64,
    pub oracle_l1: f64,
    pub eval_ms: f64,
}

pub fn quality(
    selector: &EstimatorSelector,
    holdout: &TrainingSet,
    tracer: &mut Tracer,
) -> Quality {
    let (report, ns) =
        tracer.timed("core.selector_evaluate", NO_QUERY, || selector.evaluate(holdout));
    let best_fixed_l1 = selector
        .config()
        .candidates
        .iter()
        .map(|&k: &EstimatorKind| holdout.mean_l1(k))
        .fold(f64::INFINITY, f64::min);
    Quality {
        selection_l1: report.chosen_l1,
        best_fixed_l1,
        oracle_l1: report.oracle_l1,
        eval_ms: ns as f64 / 1e6,
    }
}
