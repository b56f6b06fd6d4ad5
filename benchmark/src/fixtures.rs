//! Set-up: the fixed corpora every workload runs on.
//!
//! The six paper workloads, the plan templates with their captured tap
//! streams, the bootstrap selector and the hold-out set are the same on
//! every run — they play the part TPC-H's data plays for a database
//! benchmark. `--seed` drives the *traffic* drawn over them (see
//! [`crate::schedule`]), so quality numbers (the L1s) are properties of the
//! code under test, not of the seed.

use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Instant;

use prosel::core::pipeline_runs::{collect_from_workload, CollectConfig, PipelineRecord};
use prosel::core::selection::{EstimatorSelector, SelectorConfig};
use prosel::core::training::TrainingSet;
use prosel::datagen::{PhysicalDesign, TuningLevel, Zipf};
use prosel::engine::plan::PhysicalPlan;
use prosel::engine::trace::TraceEvent;
use prosel::engine::{run_plan_tapped, Catalog, ExecConfig};
use prosel::mart::BoostParams;
use prosel::planner::stats::DbStats;
use prosel::planner::workload::{
    build_database, generate_queries, Workload, WorkloadKind, WorkloadSpec,
};
use prosel::planner::PlanBuilder;

use crate::calib::Meter;
use crate::spans::{Tracer, NO_QUERY};

/// Scale of every corpus: small enough that set-up is dominated by the
/// selector bootstrap, large enough that plans emit ~95 events each.
pub const SCALE: f64 = 0.25;
pub const TEMPLATES_PER_CORPUS: usize = 4;
/// Zipf exponent of the template popularity every serving workload draws
/// queries with.
pub const ZIPF_EXPONENT: f64 = 1.1;
/// Engine settings of every tapped execution: at most 64 retained
/// snapshots, and plans of 8+ nodes on the delta wire format — roughly
/// half the templates on full snapshots and half on deltas.
pub const MAX_SNAPSHOTS: usize = 64;
pub const DELTA_THRESHOLD: usize = 8;

pub struct Corpus {
    pub label: &'static str,
    pub kind: WorkloadKind,
    pub seed: u64,
    pub tuning: TuningLevel,
}

/// The paper's six workloads, in the traffic harness's slot order.
pub const CORPORA: [Corpus; 6] = [
    Corpus {
        label: "tpcds",
        kind: WorkloadKind::TpcdsLike,
        seed: 12,
        tuning: TuningLevel::PartiallyTuned,
    },
    Corpus {
        label: "tpch-untuned",
        kind: WorkloadKind::TpchLike,
        seed: 11,
        tuning: TuningLevel::Untuned,
    },
    Corpus {
        label: "tpch-partial",
        kind: WorkloadKind::TpchLike,
        seed: 11,
        tuning: TuningLevel::PartiallyTuned,
    },
    Corpus {
        label: "tpch-tuned",
        kind: WorkloadKind::TpchLike,
        seed: 11,
        tuning: TuningLevel::FullyTuned,
    },
    Corpus {
        label: "real1",
        kind: WorkloadKind::Real1,
        seed: 13,
        tuning: TuningLevel::PartiallyTuned,
    },
    Corpus {
        label: "real2",
        kind: WorkloadKind::Real2,
        seed: 14,
        tuning: TuningLevel::PartiallyTuned,
    },
];

/// One plan with the tap stream its execution emits.
pub struct Template {
    pub corpus: usize,
    pub plan: Arc<PhysicalPlan>,
    /// Captured once; replays clone and re-stamp these.
    pub events: Vec<TraceEvent>,
    /// Engine settings that reproduce `events` exactly (the live workload
    /// re-executes the plan with them).
    pub exec: ExecConfig,
    /// Virtual run time — the denominator of true progress.
    pub total_time: f64,
}

impl Template {
    /// Clone event `idx` for query `query`, stamped at wall second `wall`.
    pub fn event(&self, idx: usize, query: usize, wall: f64) -> TraceEvent {
        restamp(&self.events[idx], query, wall)
    }
}

/// Re-address a captured event to `query` at wall second `wall`.
pub fn restamp(ev: &TraceEvent, query: usize, wall: f64) -> TraceEvent {
    let mut ev = ev.clone();
    match &mut ev {
        TraceEvent::Snapshot { query: q, wall: w, .. }
        | TraceEvent::Delta { query: q, wall: w, .. }
        | TraceEvent::Finished { query: q, wall: w, .. } => {
            *q = query;
            *w = wall;
        }
        TraceEvent::Thinned { query: q } => *q = query,
    }
    ev
}

/// Wall time of the set-up's calls into each layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    /// The host's slowdown ([`crate::calib`]) over the whole set-up, and
    /// over the bootstrap alone.
    pub slowdown: f64,
    pub train_slowdown: f64,
    pub build_db_ms: f64,
    pub stats_ms: f64,
    pub plan_build_us: f64,
    /// Collect + train + text round trip of the bootstrap selector.
    pub train_s: f64,
    /// `EstimatorSelector::train` alone.
    pub train_call_s: f64,
}

pub struct Fixtures {
    pub workloads: Vec<Workload>,
    /// Popularity-ranked: rank `r` is corpus `r % 6`, so the head of the
    /// Zipf mixes narrow full-snapshot plans with wide delta plans.
    pub templates: Vec<Template>,
    /// How often the traffic draws each template: rank `k` is
    /// `templates[k - 1]`.
    pub popularity: Zipf,
    pub selector: Arc<EstimatorSelector>,
    /// What `selector` was trained on.
    pub bootstrap_records: TrainingSet,
    /// Held-out `tpcds` pipelines every selector is scored on.
    pub holdout: TrainingSet,
    /// The bootstrap selector survived its text codec byte for byte.
    pub codec_identical: bool,
    pub times: SetupTimes,
}

/// Popularity of each template in the traffic (the Zipf probability mass).
pub fn popularity(fx: &Fixtures) -> Vec<f64> {
    (1..=fx.popularity.n()).map(|rank| fx.popularity.pmf(rank)).collect()
}

/// `materialize`, with each layer call timed.
fn materialize_timed(spec: &WorkloadSpec, times: &mut SetupTimes, tracer: &mut Tracer) -> Workload {
    let (db, ns) = tracer.timed("datagen.build_database", NO_QUERY, || build_database(spec));
    times.build_db_ms += ns as f64 / 1e6;
    let (stats, ns) = tracer.timed("planner.stats", NO_QUERY, || DbStats::build(&db));
    times.stats_ms += ns as f64 / 1e6;
    let design =
        tracer.call("datagen.design", NO_QUERY, || PhysicalDesign::derive(&db, spec.tuning));
    let queries =
        tracer.call("planner.generate_queries", NO_QUERY, || generate_queries(spec, &db, &stats));
    Workload { spec: spec.clone(), db, stats, design, queries }
}

/// Execute every query of `w` and label its pipelines.
pub fn collect_records(w: &Workload, tracer: &mut Tracer) -> Vec<PipelineRecord> {
    tracer
        .call("core.collect_records", NO_QUERY, || {
            collect_from_workload(w, &CollectConfig::default())
        })
        .expect("corpus queries plan and run")
}

/// A selector bootstrapped from scratch, and what it cost.
pub struct Bootstrap {
    pub selector: EstimatorSelector,
    pub records: TrainingSet,
    /// `EstimatorSelector::train` alone.
    pub train_call_s: f64,
    /// Collect + train + text round trip.
    pub seconds: f64,
    /// The host's slowdown over those seconds.
    pub slowdown: f64,
    /// `from_text(to_text(s))` re-encoded to the same bytes.
    pub codec_identical: bool,
}

/// The paper's pipeline from executed queries to a deployable selector:
/// collect labelled records from `corpora`, train `iterations` boosting
/// rounds per candidate, and pass the model through its text codec (what a
/// deployment ships).
pub fn bootstrap(corpora: &[&Workload], iterations: usize, tracer: &mut Tracer) -> Bootstrap {
    let start = Instant::now();
    let mut meter = Meter::start();
    let mut records = Vec::new();
    for w in corpora {
        records.extend(collect_records(w, tracer));
        meter.lap();
    }
    let cfg = SelectorConfig {
        boost: BoostParams { iterations, ..BoostParams::fast() },
        ..SelectorConfig::default()
    };
    let records = TrainingSet::from_records(&records);
    let (trained, train_ns) =
        tracer.timed("core.selector_train", NO_QUERY, || EstimatorSelector::train(&records, &cfg));
    let text = tracer.call("core.selector_to_text", NO_QUERY, || trained.to_text());
    let mut selector = tracer
        .call("core.selector_from_text", NO_QUERY, || EstimatorSelector::from_text(&text))
        .expect("a selector's own text parses");
    // The codec ships models, not training recipes; the learning loop
    // retrains with the recipe this selector was trained with.
    selector.set_boost(cfg.boost);
    let slowdown = meter.finish();
    let seconds = start.elapsed().as_secs_f64();
    let codec_identical = selector.to_text() == text;
    Bootstrap {
        selector,
        records,
        train_call_s: train_ns as f64 / 1e9,
        seconds,
        slowdown,
        codec_identical,
    }
}

/// A fully materialised corpus of `queries` queries under its own seed
/// (not one of [`CORPORA`]'s, so training, hold-out and serving sets
/// never share a query).
pub fn side_corpus(
    kind: WorkloadKind,
    seed: u64,
    tuning: TuningLevel,
    queries: usize,
    tracer: &mut Tracer,
) -> Workload {
    materialize_timed(&spec_of(kind, seed, tuning, queries), &mut SetupTimes::default(), tracer)
}

fn spec_of(kind: WorkloadKind, seed: u64, tuning: TuningLevel, queries: usize) -> WorkloadSpec {
    WorkloadSpec::new(kind, seed).with_queries(queries).with_scale(SCALE).with_tuning(tuning)
}

/// Everything a workload needs before its first timed operation.
pub fn setup(tracer: &mut Tracer) -> Fixtures {
    let start = Instant::now();
    let mut meter = Meter::start();
    let mut times = SetupTimes::default();

    let workloads: Vec<Workload> = CORPORA
        .iter()
        .map(|c| {
            let spec = spec_of(c.kind, c.seed, c.tuning, TEMPLATES_PER_CORPUS);
            let w = materialize_timed(&spec, &mut times, tracer);
            meter.lap();
            w
        })
        .collect();

    // Popularity rank interleaves the corpora (rank r is corpus r mod 6).
    let catalogs: Vec<Catalog<'_>> =
        workloads.iter().map(|w| Catalog::new(&w.db, &w.design)).collect();
    let mut templates = Vec::new();
    for qi in 0..TEMPLATES_PER_CORPUS {
        for (ci, w) in workloads.iter().enumerate() {
            let query = w
                .queries
                .get(qi)
                .unwrap_or_else(|| panic!("{} is short of queries", CORPORA[ci].label));
            let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
            let (plan, ns) = tracer.timed("planner.plan_build", NO_QUERY, || builder.build(query));
            let plan = plan.expect("corpus query plans");
            times.plan_build_us += ns as f64 / 1e3;
            let exec = ExecConfig {
                seed: 0xBE7C_0000 ^ ((ci as u64) << 32) ^ qi as u64,
                max_snapshots: MAX_SNAPSHOTS,
                delta_threshold: DELTA_THRESHOLD,
                ..ExecConfig::default()
            };
            let (tap, rx) = channel();
            let run = tracer.call("engine.run_plan_tapped", NO_QUERY, || {
                run_plan_tapped(&catalogs[ci], &plan, &exec, 0, tap)
            });
            templates.push(Template {
                corpus: ci,
                plan: Arc::new(plan),
                events: rx.try_iter().collect(),
                exec,
                total_time: run.trace.total_time,
            });
        }
    }
    drop(catalogs);
    meter.lap();
    times.plan_build_us /= templates.len() as f64;
    let popularity = Zipf::new(templates.len() as u64, ZIPF_EXPONENT);

    // A real selector, so re-selection on the serving path costs what it
    // costs in production: 60 boosting rounds over 120 TPC-H-like queries.
    let train = side_corpus(WorkloadKind::TpchLike, 21, TuningLevel::PartiallyTuned, 120, tracer);
    meter.lap();
    let boot = bootstrap(&[&train], 60, tracer);
    meter.lap();
    times.train_s = boot.seconds;
    times.train_slowdown = boot.slowdown;
    times.train_call_s = boot.train_call_s;
    let codec_identical = boot.codec_identical;
    let selector = Arc::new(boot.selector);
    let bootstrap_records = boot.records;

    let holdout_corpus =
        side_corpus(WorkloadKind::TpcdsLike, 32, TuningLevel::PartiallyTuned, 150, tracer);
    let holdout = TrainingSet::from_records(&collect_records(&holdout_corpus, tracer));

    times.slowdown = meter.finish();
    times.total_s = start.elapsed().as_secs_f64();
    Fixtures {
        workloads,
        templates,
        popularity,
        selector,
        bootstrap_records,
        holdout,
        codec_identical,
        times,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restamp_readdresses_every_event_kind() {
        let thinned = restamp(&TraceEvent::Thinned { query: 0 }, 9, 1.5);
        assert_eq!(thinned, TraceEvent::Thinned { query: 9 });
        let fin =
            TraceEvent::Finished { query: 0, wall: 0.0, windows: Box::new([]), total_time: 4.0 };
        assert_eq!(
            restamp(&fin, 3, 2.5),
            TraceEvent::Finished { query: 3, wall: 2.5, windows: Box::new([]), total_time: 4.0 }
        );
    }
}
