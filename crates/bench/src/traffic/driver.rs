//! The open-loop driver: replay a schedule against a live
//! [`prosel_monitor::MonitorService`].
//!
//! The driver splits the expensive and the hot parts of the run:
//!
//! 1. **Template capture** ([`TemplateSet::build`]) executes a handful of
//!    plans per workload *once* through the real engine
//!    ([`prosel_engine::run_plan_tapped`]) and keeps their tapped event
//!    streams. This is the only place queries actually execute.
//! 2. **Replay** ([`drive`]) walks the arrival schedule in virtual time
//!    with an event-driven simulation: each arriving query is registered
//!    with the service, its template's events are re-stamped (new query
//!    id, wall clock mapped onto the arrival timeline) and interleaved
//!    with every other in-flight query's events in global time order.
//!    Millions of queries then cost event *sends*, not query executions.
//!
//! The replay thread is single and service reads are wait-free snapshots;
//! the driver quiesces the service (drains every event already sent)
//! immediately before each read it digests, so each read observes exactly
//! the events sent before it — read *values* are deterministic functions
//! of the spec and fold into [`TrafficOutcome::reads_digest`]. The driver
//! times nothing: read and ingest latency are the benchmark's to measure
//! (`benchmark/`).

use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::mpsc::channel;
use std::sync::Arc;

use prosel_core::features::FeatureSchema;
use prosel_core::pipeline_runs::PipelineRecord;
use prosel_core::selection::{EstimatorSelector, SelectorConfig};
use prosel_core::training::TrainingSet;
use prosel_datagen::TuningLevel;
use prosel_engine::clock::{Clock, ManualClock};
use prosel_engine::plan::PhysicalPlan;
use prosel_engine::trace::TraceEvent;
use prosel_engine::{run_plan_tapped, Catalog, ExecConfig};
use prosel_estimators::EstimatorKind;
use prosel_learn::{LearnConfig, OnlineLearner, Trainer};
use prosel_mart::BoostParams;
use prosel_monitor::{HarvestConfig, MonitorBuilder, MonitorConfig, ShardStats};
use prosel_obs::{MetricsRegistry, MetricsSnapshot};
use prosel_planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel_planner::PlanBuilder;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use super::arrivals::{digest64, schedule, schedule_text, Arrival};
use super::config::TrafficSpec;
use super::metrics::{TrafficCounters, TrafficMetrics};

/// Every replayed query is re-timed so its whole event stream spans this
/// many virtual seconds: it pins the offered load (`rate ×` this) to the
/// same order of magnitude as the admission window for every profile,
/// independent of how long the captured plan really ran.
pub const TARGET_SERVICE_SECONDS: f64 = 0.05;

/// One captured plan: the plan itself plus its tapped event stream,
/// re-timed to relative virtual seconds.
struct Template {
    plan: PhysicalPlan,
    /// `(relative_time, event)` pairs, non-decreasing in time; the event's
    /// `query` / `wall` fields are placeholders until replay re-stamps
    /// them.
    events: Vec<(f64, TraceEvent)>,
}

/// The captured plan templates of every workload in the mix.
pub struct TemplateSet {
    /// Indexed by mix slot ([`MIX_LABELS`]); empty for zero-weight slots.
    per_workload: Vec<Vec<Template>>,
}

/// The paper workload behind mix slot `i`, sized for template capture.
fn template_workload(spec: &TrafficSpec, slot: usize) -> WorkloadSpec {
    let (kind, seed, tuning) = match slot {
        0 => (WorkloadKind::TpcdsLike, 12, None),
        1 => (WorkloadKind::TpchLike, 11, Some(TuningLevel::Untuned)),
        2 => (WorkloadKind::TpchLike, 11, Some(TuningLevel::PartiallyTuned)),
        3 => (WorkloadKind::TpchLike, 11, Some(TuningLevel::FullyTuned)),
        4 => (WorkloadKind::Real1, 13, None),
        _ => (WorkloadKind::Real2, 14, None),
    };
    let mut w = WorkloadSpec::new(kind, seed)
        .with_queries(spec.templates_per_workload)
        .with_scale(spec.workload_scale);
    if let Some(t) = tuning {
        w = w.with_tuning(t);
    }
    w
}

impl TemplateSet {
    /// Execute `templates_per_workload` queries of every mix-positive
    /// workload through the engine and capture their event streams. The
    /// expensive step — build once, [`drive`] as often as needed.
    pub fn build(spec: &TrafficSpec) -> TemplateSet {
        let mut per_workload = Vec::with_capacity(spec.mix.len());
        for (slot, &weight) in spec.mix.iter().enumerate() {
            if weight <= 0.0 {
                per_workload.push(Vec::new());
                continue;
            }
            let w = materialize(&template_workload(spec, slot));
            let catalog = Catalog::new(&w.db, &w.design);
            let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
            let mut templates = Vec::with_capacity(spec.templates_per_workload);
            for (qi, q) in w.queries.iter().take(spec.templates_per_workload).enumerate() {
                let plan = builder.build(q).expect("template plan");
                let (tap, rx) = channel();
                let cfg = ExecConfig {
                    seed: spec.seed ^ ((slot as u64) << 32) ^ qi as u64,
                    // Few retained snapshots: templates bound the per-query
                    // event count (and thus the soak's ingest volume).
                    max_snapshots: 16,
                    // Captured streams carry the spec's tap wire format:
                    // with a nonzero threshold the replay sends sparse
                    // Delta events instead of full snapshots.
                    delta_threshold: spec.delta_threshold,
                    ..ExecConfig::default()
                };
                let _run = run_plan_tapped(&catalog, &plan, &cfg, 0, tap);
                let raw: Vec<TraceEvent> = rx.try_iter().collect();
                templates.push(Template { plan, events: retime(raw) });
            }
            per_workload.push(templates);
        }
        TemplateSet { per_workload }
    }

    /// Templates captured for mix slot `slot`.
    fn workload(&self, slot: usize) -> &[Template] {
        &self.per_workload[slot]
    }

    /// Total captured templates across the mix.
    pub fn len(&self) -> usize {
        self.per_workload.iter().map(Vec::len).sum()
    }

    /// True when no workload contributed templates.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Map a captured stream onto `[0, TARGET_SERVICE_SECONDS]` relative time.
/// `Thinned` events carry no stamp and inherit the previous event's
/// instant (they mark a buffer transformation, not an observation).
fn retime(raw: Vec<TraceEvent>) -> Vec<(f64, TraceEvent)> {
    let total = raw
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::Finished { total_time, .. } => Some(*total_time),
            _ => None,
        })
        .next_back()
        .unwrap_or(0.0);
    let scale = if total > 0.0 { TARGET_SERVICE_SECONDS / total } else { 0.0 };
    let mut last = 0.0f64;
    raw.into_iter()
        .map(|ev| {
            let rel = match &ev {
                TraceEvent::Snapshot { snapshot, .. } => snapshot.time * scale,
                TraceEvent::Delta { time, .. } => time * scale,
                TraceEvent::Finished { total_time, .. } => total_time * scale,
                TraceEvent::Thinned { .. } => last,
            };
            // The engine emits snapshots in time order; keep the replay
            // monotone even under float rounding.
            last = rel.max(last);
            (last, ev)
        })
        .collect()
}

/// Re-stamp one template event for replay: the new query id, and wall
/// time mapped onto the arrival timeline (`t0` + the template-relative
/// instant).
fn restamp(ev: &TraceEvent, query: usize, wall: f64) -> TraceEvent {
    match ev {
        TraceEvent::Snapshot { seq, snapshot, windows, .. } => TraceEvent::Snapshot {
            query,
            seq: *seq,
            wall,
            snapshot: snapshot.clone(),
            windows: windows.clone(),
        },
        TraceEvent::Delta { seq, time, changes, window_updates, .. } => TraceEvent::Delta {
            query,
            seq: *seq,
            wall,
            time: *time,
            changes: changes.clone(),
            window_updates: window_updates.clone(),
        },
        TraceEvent::Thinned { .. } => TraceEvent::Thinned { query },
        TraceEvent::Finished { windows, total_time, .. } => {
            TraceEvent::Finished { query, wall, windows: windows.clone(), total_time: *total_time }
        }
    }
}

/// A cheap trained selector that always prefers `kind` (constant error
/// models make features irrelevant) — the hot-swap payload for soaks and
/// examples, where selector *quality* is beside the point.
pub fn synthetic_selector(kind: EstimatorKind) -> EstimatorSelector {
    let dims = FeatureSchema::get().len();
    let idx = kind.candidate_index().expect("candidate kind");
    let records: Vec<PipelineRecord> = (0..24)
        .map(|i| {
            let mut errors = vec![0.9f32; 8];
            errors[idx] = 0.05;
            PipelineRecord {
                workload: "syn".into(),
                query_idx: i,
                pipeline_id: 0,
                features: vec![0.0; dims],
                errors_l1: errors.clone(),
                errors_l2: errors,
                total_getnext: 10,
                weight: 1.0,
                n_obs: 10,
                fingerprint: "syn".into(),
                oracle_l1: [0.0; 2],
                oracle_l2: [0.0; 2],
            }
        })
        .collect();
    let cfg = SelectorConfig {
        candidates: vec![EstimatorKind::Dne, EstimatorKind::Tgn],
        boost: BoostParams { iterations: 4, ..BoostParams::fast() },
        ..SelectorConfig::default()
    };
    EstimatorSelector::train(&TrainingSet::from_records(&records), &cfg)
}

/// Knobs of one [`drive`] call that are not part of the schedule.
#[derive(Debug, Clone, Copy, Default)]
pub struct DriveOptions {
    /// Attach a harvest sink and a background [`Trainer`] that retrains
    /// on finished queries and hot-swaps promoted models concurrently
    /// with the driver — the interference scenario. Costs determinism of
    /// [`TrafficOutcome::reads_digest`] (registrations racing a trainer
    /// swap may score under either model), so soak determinism checks run
    /// with this off.
    pub retrain: bool,
}

/// Everything one replayed run produced.
pub struct TrafficOutcome {
    /// FNV-1a over the canonical schedule text — two runs of one spec
    /// must agree byte-for-byte.
    pub schedule_digest: u64,
    /// Running fold of every read's `(index, kind, query, value-bits)` —
    /// the deterministic transcript of read *values*.
    pub reads_digest: u64,
    /// Counters and violations.
    pub metrics: TrafficMetrics,
    /// Service-wide [`ShardStats`] readout taken after the last event.
    pub stats: ShardStats,
    /// Final scrape of the service's metrics registry, taken after the
    /// post-drain quiesce — the authoritative registry view the soak's
    /// conservation assertions run against.
    pub obs: MetricsSnapshot,
    /// Cadence scrapes ([`TrafficSpec::scrape_every`] finished queries
    /// apart), oldest first. Excluded from [`Self::invariant_report`] —
    /// they carry wall-clock latency histograms.
    pub obs_scrapes: Vec<MetricsSnapshot>,
}

impl TrafficOutcome {
    /// The run as one comparable string: counters, digests, shard-stats
    /// fold and violations — everything but the scrapes. Two runs of one
    /// spec (without [`DriveOptions::retrain`]) must return identical
    /// reports.
    pub fn invariant_report(&self) -> String {
        let c = &self.metrics.counters;
        let s = &self.stats;
        let mut out = format!(
            "schedule={:016x} reads={:016x}\n\
             arrivals={} registered={} finished={} events={} event_bytes={} reads={} swaps={} \
             queue_peak={} max_in_flight={}\n\
             shards: admitted={} refused={} ingested={} unroutable={} rejected={} dropped={} \
             finished={} harvests={} still_registered={}\n",
            self.schedule_digest,
            self.reads_digest,
            c.arrivals,
            c.registered,
            c.finished,
            c.events_sent,
            c.event_bytes,
            c.reads,
            c.swaps,
            c.queue_peak,
            c.max_in_flight,
            s.admitted,
            s.refused,
            s.events_ingested,
            s.events_unroutable,
            s.events_rejected,
            s.queries_dropped,
            s.queries_finished,
            s.harvests,
            s.registered,
        );
        if self.metrics.violations.is_empty() {
            out.push_str("violations: none\n");
        } else {
            for v in &self.metrics.violations {
                out.push_str(&format!("violation: {v}\n"));
            }
        }
        out
    }
}

/// One instant of the replay simulation.
enum SimKind {
    /// Index into the arrival schedule.
    Arrive(usize),
    /// Deliver in-flight query's event number `event_idx`.
    Step { query: usize, event_idx: usize },
}

struct SimEvent {
    at: f64,
    /// Global tiebreak: equal instants pop in schedule order.
    seq: u64,
    kind: SimKind,
}

impl PartialEq for SimEvent {
    fn eq(&self, other: &Self) -> bool {
        self.at.to_bits() == other.at.to_bits() && self.seq == other.seq
    }
}
impl Eq for SimEvent {}
impl PartialOrd for SimEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for SimEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: invert so the earliest instant pops
        // first, seq breaking ties FIFO.
        other.at.total_cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// State of one in-flight query.
struct InFlight {
    /// Arrival timeline origin of its re-stamped walls.
    t0: f64,
    workload: usize,
    template: usize,
}

/// Fold one 64-bit word into a running FNV-1a digest.
fn fold(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Replay `spec`'s schedule against a fresh [`prosel_monitor::MonitorService`] built from
/// `templates`. See the module docs for the execution model and
/// [`TrafficOutcome`] for what comes back.
pub fn drive(spec: &TrafficSpec, templates: &TemplateSet) -> TrafficOutcome {
    drive_with(spec, templates, DriveOptions::default())
}

/// [`drive`] with explicit [`DriveOptions`].
pub fn drive_with(
    spec: &TrafficSpec,
    templates: &TemplateSet,
    opts: DriveOptions,
) -> TrafficOutcome {
    let arrivals = schedule(spec);
    let schedule_digest = digest64(schedule_text(&arrivals).as_bytes());

    // The serving clock is the simulation clock: the driver drags it
    // forward to each event's instant, so staleness and deadline reads
    // are answered on the same timeline as the re-stamped event walls.
    let clock = Arc::new(ManualClock::new(0.0));
    let registry = Arc::new(MetricsRegistry::new());
    let config = MonitorConfig {
        clock: Arc::clone(&clock) as Arc<dyn Clock>,
        metrics: Some(Arc::clone(&registry)),
        ..MonitorConfig::default()
    };
    let selector = Arc::new(synthetic_selector(EstimatorKind::Dne));
    let mut builder =
        MonitorBuilder::with_selector(Arc::clone(&selector)).config(config).shards(spec.n_shards);
    let mut harvest_rx = None;
    if opts.retrain {
        let (sink, rx) = channel();
        builder = builder.harvester(
            Arc::new(sink),
            HarvestConfig { label: "traffic".into(), min_observations: 3 },
        );
        harvest_rx = Some(rx);
    }
    let service = Arc::new(builder.build_service().expect("selector-policy services always build"));
    let trainer = harvest_rx.map(|rx| {
        let mut learner = OnlineLearner::new(
            Arc::clone(&selector),
            LearnConfig { retrain_every: 256, min_records: 64, ..LearnConfig::default() },
        );
        // The learner shares the service's registry and trace ring: one
        // scrape covers serving and learning.
        learner.observe(&registry, service.trace_ring().clone());
        // Publish through a weak handle: the trainer must not keep the
        // service alive, or shutdown (which disconnects the harvest
        // channel) could never run.
        let weak = Arc::downgrade(&service);
        Trainer::spawn(learner, rx, move |s| {
            if let Some(svc) = weak.upgrade() {
                let _ = svc.swap_selector(Arc::clone(s));
            }
        })
    });

    // The driver's own hot-swap rotation (satellite of the scenario: the
    // selector changes under live traffic at a fixed cadence).
    let swap_payloads = [
        Arc::new(synthetic_selector(EstimatorKind::Tgn)),
        Arc::new(synthetic_selector(EstimatorKind::Dne)),
    ];

    let tap = service.tap();
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x5EED_D21E);
    let mut counters = TrafficCounters { arrivals: arrivals.len() as u64, ..Default::default() };
    let mut reads_digest = 0xcbf2_9ce4_8422_2325u64;
    let mut violations: Vec<String> = Vec::new();

    let mut heap = BinaryHeap::new();
    let mut sim_seq = 0u64;
    let mut next_arrival = 0usize;
    let push = |heap: &mut BinaryHeap<SimEvent>, sim_seq: &mut u64, at: f64, kind: SimKind| {
        heap.push(SimEvent { at, seq: *sim_seq, kind });
        *sim_seq += 1;
    };
    if !arrivals.is_empty() {
        push(&mut heap, &mut sim_seq, arrivals[0].at, SimKind::Arrive(0));
        next_arrival = 1;
    }

    let mut in_flight: HashMap<usize, InFlight> = HashMap::new();
    // Insertion-ordered in-flight ids for deterministic read-target draws.
    let mut in_flight_ids: Vec<usize> = Vec::new();
    let mut id_pos: HashMap<usize, usize> = HashMap::new();
    let mut wait_queue: VecDeque<Arrival> = VecDeque::new();
    let mut last_epoch = 0u64;
    let mut read_counter = 0u64;
    let mut obs_scrapes: Vec<MetricsSnapshot> = Vec::new();

    // Admit one arrival at instant `now`: register, track, schedule its
    // first event.
    macro_rules! admit {
        ($a:expr, $now:expr) => {{
            let a: Arrival = $a;
            let tpl = &templates.workload(a.workload)
                [a.template.min(templates.workload(a.workload).len().saturating_sub(1))];
            match service.try_register(a.query, &tpl.plan) {
                Ok(()) => counters.registered += 1,
                Err(e) => violations.push(format!("register q{}: {e}", a.query)),
            }
            in_flight
                .insert(a.query, InFlight { t0: $now, workload: a.workload, template: a.template });
            id_pos.insert(a.query, in_flight_ids.len());
            in_flight_ids.push(a.query);
            counters.max_in_flight = counters.max_in_flight.max(in_flight.len() as u64);
            if let Some((rel, _)) = tpl.events.first() {
                push(
                    &mut heap,
                    &mut sim_seq,
                    $now + rel,
                    SimKind::Step { query: a.query, event_idx: 0 },
                );
            } else {
                // A template with no events (degenerate capture): retire
                // immediately so the query cannot leak.
                violations
                    .push(format!("template {}/{} captured no events", a.workload, a.template));
                if let Err(e) = service.unregister(a.query) {
                    violations.push(format!("unregister q{}: {e}", a.query));
                }
                remove_in_flight(&mut in_flight, &mut in_flight_ids, &mut id_pos, a.query);
            }
        }};
    }

    while let Some(SimEvent { at, kind, .. }) = heap.pop() {
        clock.advance_to(at);
        match kind {
            SimKind::Arrive(idx) => {
                if next_arrival < arrivals.len() {
                    push(
                        &mut heap,
                        &mut sim_seq,
                        arrivals[next_arrival].at,
                        SimKind::Arrive(next_arrival),
                    );
                    next_arrival += 1;
                }
                let a = arrivals[idx];
                if in_flight.len() < spec.max_concurrency {
                    admit!(a, a.at);
                } else {
                    wait_queue.push_back(a);
                    counters.queue_peak = counters.queue_peak.max(wait_queue.len() as u64);
                }
            }
            SimKind::Step { query, event_idx } => {
                let Some(fl) = in_flight.get(&query) else {
                    violations.push(format!("step for retired q{query}"));
                    continue;
                };
                let tpl = &templates.workload(fl.workload)
                    [fl.template.min(templates.workload(fl.workload).len().saturating_sub(1))];
                let (rel, ev) = &tpl.events[event_idx];
                let wall = fl.t0 + rel;
                let is_last = event_idx + 1 == tpl.events.len();
                let stamped = restamp(ev, query, wall);
                counters.event_bytes += stamped.payload_bytes() as u64;
                if tap.send(stamped).is_err() {
                    violations.push(format!("tap rejected event for q{query}"));
                }
                counters.events_sent += 1;

                if spec.read_every > 0
                    && counters.events_sent.is_multiple_of(spec.read_every as u64)
                    && !in_flight_ids.is_empty()
                {
                    let target = in_flight_ids[rng.random_range(0..in_flight_ids.len())];
                    // Drain everything sent so far so the read value is a
                    // pure function of the schedule.
                    service.quiesce();
                    let (kind_tag, bits) = match read_counter % 3 {
                        0 => ("progress", service.query_progress(target).map(f64::to_bits)),
                        1 => (
                            "remaining",
                            service.remaining_time(target).map(|eta| eta.remaining.to_bits()),
                        ),
                        _ => (
                            "deadline",
                            service.progress_at_deadline(target, at + 1.0).map(f64::to_bits),
                        ),
                    };
                    counters.reads += 1;
                    read_counter += 1;
                    match bits {
                        Ok(b) => {
                            fold(&mut reads_digest, read_counter);
                            fold(&mut reads_digest, target as u64);
                            fold(&mut reads_digest, b);
                        }
                        Err(e) => violations
                            .push(format!("{kind_tag} read of registered q{target} failed: {e}")),
                    }
                }

                if is_last {
                    // The Finished event was just sent through the tap;
                    // drain it before asserting on its effect.
                    service.quiesce();
                    match service.is_finished(query) {
                        Ok(true) => {}
                        Ok(false) => violations
                            .push(format!("q{query} not finished after its Finished event")),
                        Err(e) => violations.push(format!("finish check q{query}: {e}")),
                    }
                    if let Err(e) = service.unregister(query) {
                        violations.push(format!("unregister q{query}: {e}"));
                    }
                    remove_in_flight(&mut in_flight, &mut in_flight_ids, &mut id_pos, query);
                    counters.finished += 1;

                    if spec.scrape_every > 0
                        && counters.finished.is_multiple_of(spec.scrape_every as u64)
                    {
                        obs_scrapes.push(service.metrics());
                    }

                    if spec.swap_every > 0
                        && counters.finished.is_multiple_of(spec.swap_every as u64)
                    {
                        let payload = &swap_payloads[(counters.swaps % 2) as usize];
                        match service.swap_selector(Arc::clone(payload)) {
                            Ok(epoch) => {
                                if epoch <= last_epoch {
                                    violations.push(format!(
                                        "swap epoch not monotone: {epoch} after {last_epoch}"
                                    ));
                                }
                                last_epoch = epoch;
                                counters.swaps += 1;
                            }
                            Err(e) => violations.push(format!("swap failed: {e}")),
                        }
                    }
                    if let Some(a) = wait_queue.pop_front() {
                        admit!(a, at);
                    }
                } else {
                    push(
                        &mut heap,
                        &mut sim_seq,
                        fl.t0 + tpl.events[event_idx + 1].0,
                        SimKind::Step { query, event_idx: event_idx + 1 },
                    );
                }
            }
        }
    }
    if !in_flight.is_empty() || !wait_queue.is_empty() {
        violations.push(format!(
            "drain incomplete: {} in flight, {} queued",
            in_flight.len(),
            wait_queue.len()
        ));
    }

    // Drain every event sent above before the final readout, so the
    // conservation law must be exact here.
    service.quiesce();
    let stats = match service.stats() {
        Ok(s) => s,
        Err(e) => {
            violations.push(format!("stats readout: {e}"));
            ShardStats::default()
        }
    };
    if stats.events_ingested != counters.events_sent {
        violations.push(format!(
            "event conservation broken: sent {} ingested {}",
            counters.events_sent, stats.events_ingested
        ));
    }
    if stats.events_unroutable != 0 {
        violations.push(format!("{} events were unroutable", stats.events_unroutable));
    }
    if stats.events_rejected != 0 {
        violations.push(format!("{} events rejected by dead shards", stats.events_rejected));
    }
    if stats.queries_dropped != 0 {
        violations.push(format!("{} queries defensively dropped", stats.queries_dropped));
    }
    if stats.queries_finished != counters.finished {
        violations.push(format!(
            "finish conservation broken: driver {} shards {}",
            counters.finished, stats.queries_finished
        ));
    }
    if stats.registered != 0 {
        violations.push(format!("{} queries leaked past the drain", stats.registered));
    }

    // Tear down: dropping the only strong service handle drains and joins
    // the shards, which drops the harvest sink, which ends the trainer.
    drop(tap);
    drop(service);
    if let Some(t) = trainer {
        let _ = t.join();
    }

    // The final scrape happens after the trainer joined, so the learn_*
    // series include the tail retrain (the registry outlives the service).
    let obs = registry.snapshot();

    let metrics = TrafficMetrics { counters, violations };
    TrafficOutcome { schedule_digest, reads_digest, metrics, stats, obs, obs_scrapes }
}

fn remove_in_flight(
    in_flight: &mut HashMap<usize, InFlight>,
    ids: &mut Vec<usize>,
    pos: &mut HashMap<usize, usize>,
    query: usize,
) {
    in_flight.remove(&query);
    if let Some(p) = pos.remove(&query) {
        ids.swap_remove(p);
        if let Some(&moved) = ids.get(p) {
            pos.insert(moved, p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> TrafficSpec {
        let mut spec = TrafficSpec {
            num_queries: 96,
            max_concurrency: 8,
            templates_per_workload: 1,
            workload_scale: 0.2,
            n_shards: 2,
            read_every: 4,
            swap_every: 16,
            ..TrafficSpec::default()
        };
        // Two workloads keep template capture cheap in debug builds.
        spec.mix = [1.0, 1.0, 0.0, 0.0, 0.0, 0.0];
        spec
    }

    #[test]
    fn tiny_drive_is_clean_and_deterministic() {
        let spec = tiny_spec();
        let templates = TemplateSet::build(&spec);
        assert_eq!(templates.len(), 2);
        let a = drive(&spec, &templates);
        let b = drive(&spec, &templates);
        assert_eq!(a.metrics.violations, Vec::<String>::new());
        assert_eq!(a.metrics.counters.finished, 96);
        assert_eq!(a.metrics.counters.registered, 96);
        assert!(a.metrics.counters.reads > 0 && a.metrics.counters.swaps > 0);
        assert_eq!(a.invariant_report(), b.invariant_report());
        assert_eq!(a.reads_digest, b.reads_digest);
    }

    #[test]
    fn admission_window_is_respected() {
        let spec = TrafficSpec { max_concurrency: 2, ..tiny_spec() };
        let templates = TemplateSet::build(&spec);
        let out = drive(&spec, &templates);
        assert!(out.metrics.violations.is_empty(), "{:?}", out.metrics.violations);
        assert!(out.metrics.counters.max_in_flight <= 2);
        assert!(out.metrics.counters.queue_peak > 0, "a 2-wide window must queue");
    }

    #[test]
    fn delta_tap_soak_is_clean_cheaper_on_the_wire_and_bit_identical() {
        let full_spec = tiny_spec();
        let delta_spec = TrafficSpec { delta_threshold: 1, ..tiny_spec() };
        let full = drive(&full_spec, &TemplateSet::build(&full_spec));
        let delta = drive(&delta_spec, &TemplateSet::build(&delta_spec));
        assert_eq!(delta.metrics.violations, Vec::<String>::new());
        assert_eq!(delta.metrics.counters.finished, 96);
        // Deltas replace full snapshots 1:1 — same event count, fewer
        // bytes on the wire.
        assert_eq!(delta.metrics.counters.events_sent, full.metrics.counters.events_sent);
        assert!(
            delta.metrics.counters.event_bytes < full.metrics.counters.event_bytes,
            "delta {} B vs full {} B",
            delta.metrics.counters.event_bytes,
            full.metrics.counters.event_bytes
        );
        // The shard reconstructs the exact counter stream from deltas, so
        // every progress/ETA read returns bitwise the same value as under
        // the full-snapshot wire format.
        assert_eq!(delta.reads_digest, full.reads_digest, "delta reconstruction must be bitwise");
    }

    #[test]
    fn retrain_mode_stays_clean() {
        let spec = tiny_spec();
        let templates = TemplateSet::build(&spec);
        let out = drive_with(&spec, &templates, DriveOptions { retrain: true });
        assert_eq!(out.metrics.violations, Vec::<String>::new());
        assert_eq!(out.metrics.counters.finished, 96);
        assert!(out.stats.harvests > 0, "the sink must see finished queries");
    }

    #[test]
    fn synthetic_selectors_train_for_both_candidates() {
        for kind in [EstimatorKind::Dne, EstimatorKind::Tgn] {
            let _ = synthetic_selector(kind);
        }
    }
}
