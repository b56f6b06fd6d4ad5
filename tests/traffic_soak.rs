//! The open-loop traffic soak: a Zipf-skewed Poisson schedule over plan
//! templates of the six paper workloads, replayed in virtual time against
//! a multi-shard `MonitorService` while progress/ETA reads and selector
//! hot-swaps are issued. Every invariant must hold with zero violations:
//!
//! * no arrival is dropped or duplicated — every scheduled query is
//!   registered exactly once and reaches `Finished`;
//! * progress/ETA reads of a registered query never fail;
//! * selector-swap epochs are strictly monotone;
//! * the shard counters obey the event conservation law (every sent
//!   event was ingested by exactly one shard, none unroutable, none
//!   defensively dropped) and no query state leaks past the drain;
//! * without background retraining the run is deterministic: the
//!   schedule and read-value digests and the event volume are pinned,
//!   and two drives produce identical invariant reports.
//!
//! Arrivals never slow down for the service, so queueing behind the
//! admission window is visible rather than hidden. The query count can
//! grow without executing more queries: [`capture_templates`] runs a few
//! plans per workload once through the real engine and keeps their tapped
//! event streams, and [`drive`] replays re-stamped copies of them. The
//! driver times nothing; serving speed is the benchmark's to measure.

mod common;

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::mpsc::channel;
use std::sync::Arc;

use common::synthetic_selector;
use prosel::core::textio::fnv64;
use prosel::datagen::zipf::Zipf;
use prosel::datagen::TuningLevel;
use prosel::engine::clock::{Clock, ManualClock};
use prosel::engine::plan::PhysicalPlan;
use prosel::engine::trace::TraceEvent;
use prosel::engine::{run_plan_tapped, Catalog, ExecConfig};
use prosel::estimators::EstimatorKind;
use prosel::learn::{LearnConfig, OnlineLearner, Trainer};
use prosel::monitor::{HarvestConfig, MonitorBuilder, MonitorConfig, ShardStats};
use prosel::obs::{MetricsRegistry, MetricsSnapshot};
use prosel::planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel::planner::PlanBuilder;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Seeds the schedule, the template executions and the read targets.
const SEED: u64 = 0x007A_FF1C;
/// Poisson arrival rate, queries per virtual second.
const RATE: f64 = 500.0;
/// Zipf exponent over template ranks: a few plans dominate the traffic.
const ZIPF: f64 = 1.1;
/// Plan templates captured per workload.
const TEMPLATES: usize = 4;
/// Every replayed query's event stream spans this many virtual seconds,
/// so `RATE` offers about 25 queries in flight at once.
const SERVICE_SECONDS: f64 = 0.05;
const SHARDS: usize = 4;
/// One progress/ETA read per this many sent events.
const READ_EVERY: u64 = 16;
/// One selector hot-swap per this many finished queries.
const SWAP_EVERY: u64 = 512;

/// One scheduled arrival; its query id is its index in the schedule.
struct Arrival {
    at: f64,
    workload: usize,
    /// Zipf rank minus one: template 0 is the hottest.
    template: usize,
}

/// The first `queries` arrivals and the FNV-1a digest of their canonical
/// text (`query at-bits workload template` per line). Each arrival draws
/// from one seeded generator in a fixed order — exponential gap, uniform
/// workload, Zipf template — so the schedule is a function of [`SEED`].
fn schedule(queries: usize) -> (Vec<Arrival>, u64) {
    let mut rng = StdRng::seed_from_u64(SEED);
    let zipf = Zipf::new(TEMPLATES as u64, ZIPF);
    let mut arrivals = Vec::with_capacity(queries);
    let mut text = String::new();
    let mut at = 0.0f64;
    for query in 0..queries {
        // Inverse-CDF draw of an Exp(RATE) gap; u < 1, so ln is finite.
        let u: f64 = rng.random();
        at += -(1.0 - u).ln() / RATE;
        let workload = (rng.random::<f64>() * 6.0) as usize;
        let template = (zipf.sample(&mut rng) - 1) as usize;
        let _ = writeln!(text, "{query} {:016x} {workload} {template}", at.to_bits());
        arrivals.push(Arrival { at, workload, template });
    }
    (arrivals, fnv64(text.as_bytes()))
}

/// One captured plan and its tapped event stream, re-timed to relative
/// virtual seconds. The events' `query` and `wall` are placeholders until
/// replay re-stamps them.
struct Template {
    plan: PhysicalPlan,
    events: Vec<(f64, TraceEvent)>,
}

/// Execute [`TEMPLATES`] queries of each paper workload at scale 0.25
/// through the engine and capture their event streams, indexed by
/// workload then template. Plans of at least 8 nodes tap sparse `Delta`
/// events after a full baseline, so the soak exercises delta decoding.
fn capture_templates() -> Vec<Vec<Template>> {
    let workloads = [
        (WorkloadKind::TpcdsLike, 12, None),
        (WorkloadKind::TpchLike, 11, Some(TuningLevel::Untuned)),
        (WorkloadKind::TpchLike, 11, Some(TuningLevel::PartiallyTuned)),
        (WorkloadKind::TpchLike, 11, Some(TuningLevel::FullyTuned)),
        (WorkloadKind::Real1, 13, None),
        (WorkloadKind::Real2, 14, None),
    ];
    workloads
        .into_iter()
        .enumerate()
        .map(|(slot, (kind, seed, tuning))| {
            let mut spec = WorkloadSpec::new(kind, seed).with_queries(TEMPLATES).with_scale(0.25);
            if let Some(t) = tuning {
                spec = spec.with_tuning(t);
            }
            let w = materialize(&spec);
            let catalog = Catalog::new(&w.db, &w.design);
            let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
            w.queries
                .iter()
                .take(TEMPLATES)
                .enumerate()
                .map(|(qi, q)| {
                    let plan = builder.build(q).expect("template plan");
                    let (tap, rx) = channel();
                    let cfg = ExecConfig {
                        seed: SEED ^ ((slot as u64) << 32) ^ qi as u64,
                        // Few retained snapshots bound the soak's ingest volume.
                        max_snapshots: 16,
                        delta_threshold: 8,
                        ..ExecConfig::default()
                    };
                    let _run = run_plan_tapped(&catalog, &plan, &cfg, 0, tap);
                    Template { plan, events: retime(rx.try_iter().collect()) }
                })
                .collect()
        })
        .collect()
}

/// Map a captured stream onto `[0, SERVICE_SECONDS]` relative time.
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
    let scale = if total > 0.0 { SERVICE_SECONDS / total } else { 0.0 };
    let mut last = 0.0f64;
    raw.into_iter()
        .map(|ev| {
            let rel = match &ev {
                TraceEvent::Snapshot { snapshot, .. } => snapshot.time * scale,
                TraceEvent::Delta { time, .. } => time * scale,
                TraceEvent::Finished { total_time, .. } => total_time * scale,
                TraceEvent::Thinned { .. } => last,
            };
            // Keep the replay monotone even under float rounding.
            last = rel.max(last);
            (last, ev)
        })
        .collect()
}

/// Re-stamp one template event for replay: the new query id, and `wall`
/// on the arrival timeline.
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

/// What one drive counted.
#[derive(Debug, Default)]
struct Counters {
    registered: u64,
    finished: u64,
    events_sent: u64,
    /// Approximate wire bytes of the sent events (`payload_bytes`).
    event_bytes: u64,
    reads: u64,
    swaps: u64,
    /// Peak depth of the admission queue.
    queue_peak: u64,
    max_in_flight: u64,
}

/// Everything one drive produced.
struct Outcome {
    schedule_digest: u64,
    /// FNV-1a over each read's number, target query and value bits as
    /// little-endian words: the transcript of read values.
    reads_digest: u64,
    counters: Counters,
    /// Invariant violations; empty on a clean run.
    violations: Vec<String>,
    /// Service-wide readout after the final drain.
    stats: ShardStats,
    /// The metrics registry, scraped after teardown.
    obs: MetricsSnapshot,
}

impl Outcome {
    /// The run as one comparable string: everything but the scrape, whose
    /// latency histograms are wall clock.
    fn invariant_report(&self) -> String {
        format!(
            "schedule={:016x} reads={:016x}\n{:?}\n{:?}\nviolations: {:?}\n",
            self.schedule_digest, self.reads_digest, self.counters, self.stats, self.violations
        )
    }
}

/// One instant of the replay simulation.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Step {
    /// The arrival of the query with this schedule index.
    Arrive(usize),
    /// Deliver event number `idx` of live query `query`.
    Event { query: usize, idx: usize },
}

/// An admitted query: its template, the arrival-timeline origin of its
/// re-stamped walls, and its index in the list read targets are drawn
/// from.
struct Live<'t> {
    tpl: &'t Template,
    t0: f64,
    pos: usize,
}

/// Replay the first `queries` scheduled arrivals against a fresh service,
/// admitting at most `window` queries at once; excess arrivals wait in
/// FIFO order. With `retrain`, a harvest sink feeds a background
/// [`Trainer`] that hot-swaps promoted models concurrently; registrations
/// racing its swaps may score under either model, so read values are then
/// not deterministic.
fn drive(templates: &[Vec<Template>], queries: usize, window: usize, retrain: bool) -> Outcome {
    let (arrivals, schedule_digest) = schedule(queries);

    // The serving clock is the simulation clock: the driver drags it
    // forward to each instant, so staleness and deadline reads are
    // answered on the same timeline as the re-stamped event walls.
    let clock = Arc::new(ManualClock::new(0.0));
    let registry = Arc::new(MetricsRegistry::new());
    let config = MonitorConfig {
        clock: Arc::clone(&clock) as Arc<dyn Clock>,
        metrics: Some(Arc::clone(&registry)),
        ..MonitorConfig::default()
    };
    let selector = Arc::new(synthetic_selector(EstimatorKind::Dne));
    let mut builder =
        MonitorBuilder::with_selector(Arc::clone(&selector)).config(config).shards(SHARDS);
    let mut harvest_rx = None;
    if retrain {
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
    let swap_payloads = [
        Arc::new(synthetic_selector(EstimatorKind::Tgn)),
        Arc::new(synthetic_selector(EstimatorKind::Dne)),
    ];

    let tap = service.tap();
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x5EED_D21E);
    let mut c = Counters::default();
    let mut reads = Vec::new();
    let mut violations: Vec<String> = Vec::new();
    let mut last_epoch = 0u64;

    // Pending instants, earliest first and FIFO among equals. Instants
    // are non-negative, so their bit patterns order like their values.
    let mut agenda: BinaryHeap<Reverse<(u64, u64, Step)>> = BinaryHeap::new();
    let mut pushed = 0u64;
    let mut push = |agenda: &mut BinaryHeap<Reverse<(u64, u64, Step)>>, at: f64, step: Step| {
        agenda.push(Reverse((at.to_bits(), pushed, step)));
        pushed += 1;
    };
    push(&mut agenda, arrivals[0].at, Step::Arrive(0));
    let mut live: HashMap<usize, Live<'_>> = HashMap::new();
    let mut ids: Vec<usize> = Vec::new();
    let mut waiting: VecDeque<usize> = VecDeque::new();

    while let Some(Reverse((bits, _, step))) = agenda.pop() {
        let at = f64::from_bits(bits);
        clock.set(at);
        match step {
            Step::Arrive(query) => {
                if let Some(next) = arrivals.get(query + 1) {
                    push(&mut agenda, next.at, Step::Arrive(query + 1));
                }
                waiting.push_back(query);
            }
            Step::Event { query, idx } => {
                let Live { tpl, t0, .. } = live[&query];
                let (rel, ev) = &tpl.events[idx];
                let stamped = restamp(ev, query, t0 + rel);
                c.event_bytes += stamped.payload_bytes() as u64;
                if tap.send(stamped).is_err() {
                    violations.push(format!("tap rejected event for q{query}"));
                }
                c.events_sent += 1;

                if c.events_sent.is_multiple_of(READ_EVERY) {
                    let target = ids[rng.random_range(0..ids.len())];
                    // Drain everything sent so far so the read value is a
                    // pure function of the schedule.
                    service.quiesce();
                    let read = match c.reads % 3 {
                        0 => service.query_progress(target).map(f64::to_bits),
                        1 => service.remaining_time(target).map(|eta| eta.remaining.to_bits()),
                        _ => service.progress_at_deadline(target, at + 1.0).map(f64::to_bits),
                    };
                    c.reads += 1;
                    match read {
                        Ok(value) => {
                            for word in [c.reads, target as u64, value] {
                                reads.extend_from_slice(&word.to_le_bytes());
                            }
                        }
                        Err(e) => violations.push(format!("read {} of q{target}: {e}", c.reads)),
                    }
                }

                if let Some((next_rel, _)) = tpl.events.get(idx + 1) {
                    push(&mut agenda, t0 + next_rel, Step::Event { query, idx: idx + 1 });
                } else {
                    // The Finished event was just sent; drain it before
                    // asserting on its effect.
                    service.quiesce();
                    match service.is_finished(query) {
                        Ok(true) => {}
                        Ok(false) => violations.push(format!("q{query} not finished")),
                        Err(e) => violations.push(format!("finish check q{query}: {e}")),
                    }
                    if let Err(e) = service.unregister(query) {
                        violations.push(format!("unregister q{query}: {e}"));
                    }
                    let pos = live.remove(&query).expect("finished query was live").pos;
                    ids.swap_remove(pos);
                    if let Some(moved) = ids.get(pos) {
                        live.get_mut(moved).expect("listed query is live").pos = pos;
                    }
                    c.finished += 1;

                    if c.finished.is_multiple_of(SWAP_EVERY) {
                        let payload = &swap_payloads[(c.swaps % 2) as usize];
                        match service.swap_selector(Arc::clone(payload)) {
                            Ok(epoch) => {
                                if epoch <= last_epoch {
                                    violations.push(format!(
                                        "swap epoch not monotone: {epoch} after {last_epoch}"
                                    ));
                                }
                                last_epoch = epoch;
                                c.swaps += 1;
                            }
                            Err(e) => violations.push(format!("swap failed: {e}")),
                        }
                    }
                }
            }
        }
        // Admit from the head of the queue while the window has room.
        while live.len() < window {
            let Some(query) = waiting.pop_front() else { break };
            let a = &arrivals[query];
            let tpl = &templates[a.workload][a.template];
            match service.try_register(query, &tpl.plan) {
                Ok(()) => c.registered += 1,
                Err(e) => violations.push(format!("register q{query}: {e}")),
            }
            live.insert(query, Live { tpl, t0: at, pos: ids.len() });
            ids.push(query);
            c.max_in_flight = c.max_in_flight.max(live.len() as u64);
            push(&mut agenda, at + tpl.events[0].0, Step::Event { query, idx: 0 });
        }
        c.queue_peak = c.queue_peak.max(waiting.len() as u64);
    }

    // Drain every event sent above before the final readout, so the
    // conservation law must be exact here.
    service.quiesce();
    let stats = service.stats().unwrap_or_else(|e| {
        violations.push(format!("stats readout: {e}"));
        ShardStats::default()
    });
    if stats.events_ingested != c.events_sent {
        violations.push(format!(
            "event conservation broken: sent {} ingested {}",
            c.events_sent, stats.events_ingested
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
    if stats.queries_finished != c.finished {
        violations.push(format!(
            "finish conservation broken: driver {} shards {}",
            c.finished, stats.queries_finished
        ));
    }
    if stats.registered != 0 {
        violations.push(format!("{} queries leaked past the drain", stats.registered));
    }

    // Dropping the only strong service handle drains and joins the
    // shards, which drops the harvest sink, which ends the trainer; the
    // scrape after the join includes the tail retrain.
    drop(tap);
    drop(service);
    if let Some(t) = trainer {
        t.join();
    }
    Outcome {
        schedule_digest,
        reads_digest: fnv64(&reads),
        counters: c,
        violations,
        stats,
        obs: registry.snapshot(),
    }
}

#[test]
fn quick_soak_is_clean_and_deterministic_at_ten_thousand_queries() {
    let templates = capture_templates();
    let a = drive(&templates, 10_000, 64, false);

    assert_eq!(a.violations, Vec::<String>::new(), "soak invariants violated");
    assert_eq!(a.schedule_digest, 0x6241_f2fe_0a74_3ccb);
    assert_eq!(a.reads_digest, 0x297f_64c0_85b9_10a9);
    let c = &a.counters;
    assert_eq!((c.registered, c.finished), (10_000, 10_000));
    assert_eq!(c.events_sent, 404_657);
    assert_eq!(c.event_bytes, 69_288_943, "171 B/event with the delta tap");
    assert_eq!(c.queue_peak, 0, "about 25 offered in flight never fill a 64-wide window");
    assert!(c.reads > 0 && c.swaps > 0, "the scenario must read and swap under load");

    // The same conservation law, asserted from the metrics registry:
    // `ShardStats` is a view over the per-shard counters, so summing the
    // registry series must reproduce the driver's own counts.
    let obs = &a.obs;
    assert_eq!(obs.sum_counters("_events_ingested_total"), c.events_sent);
    assert_eq!(obs.sum_counters("_events_unroutable_total"), 0);
    assert_eq!(obs.sum_counters("_events_rejected_total"), 0);
    assert_eq!(obs.sum_counters("_queries_dropped_total"), 0);
    assert_eq!(obs.sum_counters("_queries_finished_total"), c.finished);
    assert_eq!(obs.sum_counters("_admitted_total"), c.registered);
    assert_eq!(obs.counter("tap_events_total"), Some(c.events_sent), "tap counted every send");
    assert_eq!(obs.counter("tap_bytes_total"), Some(c.event_bytes), "tap counted every byte");
    // Every read the driver issued is counted: the digested ones and the
    // one `is_finished` check per finished query.
    assert_eq!(obs.counter("service_reads_total"), Some(c.reads + c.finished));
    // The exposition codec round-trips the scrape bit-identically.
    let text = obs.render_text();
    let parsed = MetricsSnapshot::parse_text(&text).expect("own exposition parses");
    assert_eq!(parsed.render_text(), text, "exposition must round-trip bit-identically");

    let b = drive(&templates, 10_000, 64, false);
    assert_eq!(a.invariant_report(), b.invariant_report());
}

#[test]
fn background_retraining_drains_cleanly_through_a_tight_admission_window() {
    let out = drive(&capture_templates(), 2_000, 16, true);
    assert_eq!(out.violations, Vec::<String>::new());
    assert_eq!(out.counters.finished, 2_000);
    assert_eq!(out.stats.harvests, 2_000, "the sink saw every finished query");
    assert!(out.counters.max_in_flight <= 16);
    assert!(out.counters.queue_peak > 0, "about 25 offered in flight must queue at 16");
    assert!(out.counters.swaps > 0);
    assert_eq!(out.stats.registered, 0);
}
