//! The read surface, one table: every per-query read of
//! [`ProgressMonitor`] and of [`MonitorService`] must return the same
//! bits after every event.
//!
//! Both surfaces answer from the same cell code, so equal *formulas* are
//! true by construction. What still needs a test is the transport: that
//! the shard core stores into the cell as the last step of every kind of
//! event (snapshot, delta, `Thinned`, `Finished`), that a service read
//! after `ingest` finds exactly that store, and that a query leaves both
//! surfaces on the same event — a defensive drop, or `unregister`. The
//! table below is evaluated after each event of each of those, with
//! "absent" on the monitor (`None`) required to be "unknown" on the
//! service ([`QueryError::QueryUnknown`]); and since a store the core
//! forgot would leave both surfaces equally stale, the served status is
//! also recomputed from the core's observation state each time.

use prosel_core::pipeline_runs::collect_workload_records;
use prosel_core::selection::{EstimatorSelector, SelectorConfig};
use prosel_core::training::TrainingSet;
use prosel_engine::clock::{Clock, ManualClock};
use prosel_engine::trace::TraceEvent;
use prosel_engine::{
    decompose, pipeline_weight, run_plan_tapped, Catalog, ExecConfig, PhysicalPlan,
};
use prosel_estimators::{EstimatorKind, ONLINE_KINDS};
use prosel_mart::BoostParams;
use prosel_monitor::{
    Eta, MonitorBuilder, MonitorConfig, MonitorService, ProgressMonitor, QueryError, QueryStatus,
    SwitchEvent,
};
use prosel_planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel_planner::PlanBuilder;
use std::sync::Arc;

/// A read's answer, flattened to words: floats by bit pattern.
type Bits = Vec<u64>;

/// What a read is asked about.
struct Probe {
    query: usize,
    pipeline: usize,
    deadline: f64,
}

/// One per-query read, on both surfaces.
struct Read {
    name: &'static str,
    monitor: fn(&ProgressMonitor, &Probe) -> Option<Bits>,
    service: fn(&MonitorService, &Probe) -> Result<Bits, QueryError>,
}

fn kind(kind: EstimatorKind) -> u64 {
    ONLINE_KINDS.iter().position(|&k| k == kind).expect("served kinds are online kinds") as u64
}

fn eta(e: Eta) -> Bits {
    let floats = [e.as_of, e.progress, e.speed, e.remaining, e.remaining_lo, e.remaining_hi];
    floats.iter().map(|f| f.to_bits()).chain([e.samples as u64]).collect()
}

fn status(s: QueryStatus) -> Bits {
    let mut bits = vec![s.query as u64, s.progress.to_bits(), s.time.to_bits(), s.finished as u64];
    for p in s.pipelines {
        bits.extend([p.pipeline as u64, kind(p.estimator), p.progress.to_bits()]);
        bits.push(p.observations as u64);
    }
    bits
}

fn switches(history: Vec<SwitchEvent>) -> Bits {
    history
        .iter()
        .flat_map(|s| [s.pipeline as u64, s.time.to_bits(), kind(s.from), kind(s.to)])
        .collect()
}

/// The nine per-query reads.
const READS: [Read; 9] = [
    Read {
        name: "query_progress",
        monitor: |m, p| m.query_progress(p.query).map(|v| vec![v.to_bits()]),
        service: |s, p| s.query_progress(p.query).map(|v| vec![v.to_bits()]),
    },
    Read {
        name: "pipeline_progress",
        monitor: |m, p| m.pipeline_progress(p.query, p.pipeline).map(|v| vec![v.to_bits()]),
        service: |s, p| s.pipeline_progress(p.query, p.pipeline).map(|v| vec![v.to_bits()]),
    },
    Read {
        name: "status",
        monitor: |m, p| m.status(p.query).map(status),
        service: |s, p| s.status(p.query).map(status),
    },
    Read {
        name: "is_finished",
        monitor: |m, p| m.is_finished(p.query).map(|v| vec![v as u64]),
        service: |s, p| s.is_finished(p.query).map(|v| vec![v as u64]),
    },
    Read {
        name: "switch_history",
        monitor: |m, p| m.switch_history(p.query).map(switches),
        service: |s, p| s.switch_history(p.query).map(switches),
    },
    Read {
        name: "remaining_time",
        monitor: |m, p| m.remaining_time(p.query).map(eta),
        service: |s, p| s.remaining_time(p.query).map(eta),
    },
    Read {
        name: "remaining_time_at_last_event",
        monitor: |m, p| m.remaining_time_at_last_event(p.query).map(eta),
        service: |s, p| s.remaining_time_at_last_event(p.query).map(eta),
    },
    Read {
        name: "query_selector_epoch",
        monitor: |m, p| m.query_selector_epoch(p.query).map(|v| vec![v]),
        service: |s, p| s.query_selector_epoch(p.query).map(|v| vec![v]),
    },
    Read {
        name: "progress_at_deadline",
        monitor: |m, p| m.progress_at_deadline(p.query, p.deadline).map(|v| vec![v.to_bits()]),
        service: |s, p| s.progress_at_deadline(p.query, p.deadline).map(|v| vec![v.to_bits()]),
    },
];

/// Both surfaces under test, sharing one frozen serving clock.
struct Surfaces {
    monitor: ProgressMonitor,
    service: MonitorService,
    clock: Arc<ManualClock>,
}

impl Surfaces {
    fn new(selector: &Arc<EstimatorSelector>) -> Surfaces {
        let clock = Arc::new(ManualClock::new(0.0));
        let config = MonitorConfig {
            reselect_every: 3,
            clock: Arc::clone(&clock) as Arc<dyn Clock>,
            ..MonitorConfig::default()
        };
        let builder = || MonitorBuilder::with_selector(Arc::clone(selector)).config(config.clone());
        Surfaces {
            monitor: builder().build_monitor().expect("build"),
            service: builder().shards(3).build_service().expect("build"),
            clock,
        }
    }

    /// Feed one event to both surfaces (the service's `ingest` returns
    /// once the owning shard has drained it) and move the serving clock a
    /// little past its wall stamp.
    fn ingest(&mut self, ev: &TraceEvent) {
        self.monitor.ingest(ev.clone());
        self.service.ingest(ev.clone());
        if let Some(wall) = ev.wall() {
            self.clock.set(wall + 0.3);
        }
    }

    /// Evaluate the whole table for `query`: every pipeline index up to
    /// one past the plan's last, deadlines before, at, just after and long after the served
    /// ETA's `as_of`. Returns whether the query is served.
    fn compare(&self, query: usize, n_pipelines: usize, context: &str) -> bool {
        let as_of = self.monitor.remaining_time_at_last_event(query).map_or(0.0, |e| e.as_of);
        for pipeline in 0..=n_pipelines {
            for deadline in [as_of - 1.0, as_of, as_of + 0.05, as_of + 7.5] {
                let probe = Probe { query, pipeline, deadline };
                for read in &READS {
                    let want = (read.monitor)(&self.monitor, &probe);
                    let got = (read.service)(&self.service, &probe);
                    if let Err(e) = got {
                        assert_eq!(e, QueryError::QueryUnknown(query), "{context}: {}", read.name);
                    }
                    assert_eq!(got.ok(), want, "{context}: {} (pipeline {pipeline})", read.name);
                }
            }
        }
        // The index one past the last pipeline is out of range on a
        // registered query and the query is unknown otherwise: absent
        // either way.
        assert_eq!(self.monitor.pipeline_progress(query, n_pipelines), None, "{context}");
        self.monitor.query_progress(query).is_some()
    }

    /// The served status of a registered query against the core's own
    /// state: each pipeline's row is its observation state under the
    /// estimator in charge, the query's progress their eq. (5)-weighted
    /// sum, and a finished query reads exactly 1 everywhere.
    fn check_published(&self, query: usize, plan: &PhysicalPlan, finished: bool, context: &str) {
        let m = &self.monitor;
        let status = m.status(query).expect("served");
        let pipelines = decompose(plan);
        assert_eq!((status.finished, status.pipelines.len()), (finished, pipelines.len()));
        let (mut acc, mut total) = (0.0f64, 0.0f64);
        for (p, row) in pipelines.iter().zip(&status.pipelines) {
            let obs = m.observation(query, p.id).expect("pipeline");
            let choice = m.current_choice(query, p.id).expect("pipeline");
            let value = obs.value(choice).unwrap_or(0.0);
            let want = if finished { 1.0 } else { value };
            assert_eq!(
                (row.pipeline, row.estimator, row.progress.to_bits(), row.observations),
                (p.id, choice, want.to_bits(), obs.len()),
                "{context}: pipeline {}",
                p.id
            );
            let weight = pipeline_weight(plan, p);
            if weight > 0.0 {
                total += weight;
                acc += weight * value;
            }
        }
        let want = match (finished, total > 0.0) {
            (true, _) => 1.0,
            (false, true) => (acc / total).clamp(0.0, 1.0),
            (false, false) => 0.0,
        };
        assert_eq!(status.progress.to_bits(), want.to_bits(), "{context}: query progress");
    }
}

/// A selector trained on one workload family; serving another makes it
/// revise its initial choices.
fn selector() -> Arc<EstimatorSelector> {
    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 21).with_queries(16).with_scale(0.4);
    let records = collect_workload_records(&spec).expect("records");
    let cfg = SelectorConfig::default()
        .with_boost(BoostParams { iterations: 40, ..BoostParams::default() });
    Arc::new(EstimatorSelector::train(&TrainingSet::from_records(&records), &cfg))
}

#[test]
fn both_surfaces_serve_the_same_bits_after_every_event() {
    let mut surfaces = Surfaces::new(&selector());
    let w = materialize(
        &WorkloadSpec::new(WorkloadKind::TpcdsLike, 12).with_queries(6).with_scale(0.4),
    );
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let wall_clock = Arc::new(ManualClock::stepping(0.0, 0.05));
    let (mut thinned, mut deltas, mut switched, mut widest) = (0usize, 0usize, 0usize, 0usize);
    for (qi, q) in w.queries.iter().enumerate() {
        let plan = Arc::new(builder.build(q).expect("plan"));
        // A snapshot budget small enough to thin the buffer, deltas for
        // the wider plans, wall stamps from a stepping manual clock.
        let exec = ExecConfig {
            max_snapshots: 32,
            initial_snapshot_interval: 5.0,
            seed: qi as u64,
            wall_clock: Arc::clone(&wall_clock) as Arc<dyn Clock>,
            delta_threshold: 6,
            ..ExecConfig::default()
        };
        let (tap, rx) = std::sync::mpsc::channel();
        let run = run_plan_tapped(&catalog, &plan, &exec, qi, tap);
        let events: Vec<TraceEvent> = rx.try_iter().collect();
        let n_pipelines = run.pipelines.len();
        widest = widest.max(n_pipelines);

        assert!(!surfaces.compare(qi, n_pipelines, "before registration"));
        surfaces.monitor.register(qi, Arc::clone(&plan));
        surfaces.service.register(qi, Arc::clone(&plan));
        assert!(surfaces.compare(qi, n_pipelines, "at registration"));
        surfaces.check_published(qi, &plan, false, "at registration");

        // Every other query loses an observation mid-stream: the event
        // after the gap must make both surfaces stop serving it.
        let gap = (qi % 2 == 1).then_some(events.len() / 2);
        let mut served = true;
        for (i, ev) in events.iter().enumerate() {
            let observation = matches!(ev, TraceEvent::Snapshot { .. } | TraceEvent::Delta { .. });
            if gap == Some(i) && observation {
                continue;
            }
            thinned += matches!(ev, TraceEvent::Thinned { .. }) as usize;
            deltas += matches!(ev, TraceEvent::Delta { .. }) as usize;
            surfaces.ingest(ev);
            let context = format!("q{qi} event {i}");
            served = surfaces.compare(qi, n_pipelines, &context);
            if !served {
                break;
            }
            let finished = matches!(ev, TraceEvent::Finished { .. });
            surfaces.check_published(qi, &plan, finished, &context);
        }
        match gap {
            Some(_) => assert!(!served, "q{qi}: a seq gap must drop the query"),
            None => {
                assert_eq!(surfaces.monitor.is_finished(qi), Some(true), "q{qi}");
                switched += surfaces.monitor.switch_history(qi).expect("registered").len();
                assert_eq!(surfaces.monitor.unregister(qi), Ok(()));
                assert_eq!(surfaces.service.unregister(qi), Ok(()));
                assert!(!surfaces.compare(qi, n_pipelines, "after unregister"));
            }
        }
        // A dropped query is gone from both: unregistering it is refused.
        assert_eq!(surfaces.monitor.unregister(qi), Err(QueryError::QueryUnknown(qi)));
        assert_eq!(surfaces.service.unregister(qi), Err(QueryError::QueryUnknown(qi)));
    }
    assert!(
        thinned > 0 && deltas > 0 && switched > 0 && widest > 1,
        "{thinned} thinnings, {deltas} deltas, {switched} switches, {widest} pipelines at most"
    );
    surfaces.service.shutdown();
}
