//! The shard's dirty set is an identity, not an approximation.
//!
//! A monitor refreshes bounds only at the positions an event's moved
//! counters reach and re-stamps the aggregates of every started pipeline
//! they do not reach. The reference below does neither: per event it
//! recomputes every bound from scratch and evaluates every pipeline
//! (`offer_view`, the always-evaluate entry point). After every event of
//! every stream the two must hold the same observations, bit for bit —
//! over full-snapshot streams (diffed against the scratch they
//! overwrite), delta streams, and snapshot budgets small enough to thin
//! the buffer again and again.
//!
//! Each plan is driven twice: by the engine's own tapped stream, and by a
//! *scrambled* stream in which pipelines overlap and any counter of any
//! node moves at any time. The engine runs the pipelines of a query one
//! after another, so by the time a pipeline has started everything below
//! it stands still and its own stream never shows that a pipeline's
//! bounds depend on the counters of its whole subtree; the scrambled
//! stream is where that dependence — and a byte counter moving with no
//! row beside it — is exercised.
//!
//! Builds with debug assertions also check each re-stamp where it
//! happens; this suite is what holds in release builds, and it is the one
//! the dependency masks were mutation-checked against (dropping the
//! ancestors from `pipeline_readers`, or the byte columns from the
//! full-snapshot diff, fails it).

use proptest::prelude::*;
use prosel_engine::plan::PhysicalPlan;
use prosel_engine::trace::{thin_half, DeltaDecoder, DeltaEncoder, Snapshot, TraceEvent};
use prosel_engine::{decompose, run_plan_tapped, Catalog, ExecConfig};
use prosel_estimators::soa::BoundsKernel;
use prosel_estimators::{Column, EstimatorKind, IncrementalObs, SnapshotCtx, ONLINE_KINDS};
use prosel_monitor::{MonitorBuilder, ProgressMonitor};
use prosel_planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel_planner::PlanBuilder;
use std::sync::Arc;

/// One query evaluated the long way: every bound, every pipeline, every
/// event.
struct Reference {
    decoder: DeltaDecoder,
    kernel: BoundsKernel,
    ctx: SnapshotCtx,
    pipes: Vec<IncrementalObs>,
    /// Serials of the retained snapshots, and the next one to hand out
    /// (serials count every snapshot, thinned ones included).
    live: Vec<u64>,
    serial_next: u64,
}

impl Reference {
    fn new(plan: &Arc<PhysicalPlan>) -> Reference {
        Reference {
            decoder: DeltaDecoder::new(),
            kernel: BoundsKernel::new(plan),
            ctx: SnapshotCtx::empty(),
            pipes: decompose(plan)
                .iter()
                .map(|p| IncrementalObs::new(Arc::clone(plan), p))
                .collect(),
            live: Vec::new(),
            serial_next: 0,
        }
    }

    fn ingest(&mut self, ev: &TraceEvent) {
        match ev {
            TraceEvent::Snapshot { snapshot, windows, .. } => {
                self.decoder.apply_full(snapshot, windows);
                self.observe();
            }
            TraceEvent::Delta { time, changes, window_updates, .. } => {
                assert!(self.decoder.apply_delta(*time, changes, window_updates));
                self.observe();
            }
            TraceEvent::Thinned { .. } => {
                thin_half(&mut self.live);
                for pipe in &mut self.pipes {
                    pipe.thin(&self.live);
                }
            }
            TraceEvent::Finished { windows, .. } => {
                for pipe in &mut self.pipes {
                    pipe.finalize(windows[pipe.pipeline_id()]);
                }
            }
        }
    }

    fn observe(&mut self) {
        let serial = self.serial_next;
        self.serial_next += 1;
        self.live.push(serial);
        let view = self.decoder.view();
        self.ctx.recompute(&self.kernel, view.k);
        for pipe in &mut self.pipes {
            let window = self.decoder.windows()[pipe.pipeline_id()];
            pipe.offer_view(serial, view, window, &self.ctx);
        }
    }
}

/// What a case has exercised, summed over its streams.
#[derive(Default)]
struct Coverage {
    /// Offers to a pipeline that had started (the ones a monitor may
    /// answer with a re-stamp).
    started_offers: usize,
    thinnings: usize,
}

/// Where two observation states differ, if anywhere: `len`, `window`,
/// `times`, `driver_fraction` and all nine online curves, by bit pattern.
fn difference(got: &IncrementalObs, want: &IncrementalObs) -> Option<String> {
    let bits = |column: Column<'_>| column.iter().map(f64::to_bits).collect::<Vec<_>>();
    let window = |obs: &IncrementalObs| (obs.window().0.to_bits(), obs.window().1.to_bits());
    if got.len() != want.len() {
        return Some(format!("len {} vs {}", got.len(), want.len()));
    }
    if window(got) != window(want) {
        return Some(format!("window {:?} vs {:?}", got.window(), want.window()));
    }
    if bits(got.times()) != bits(want.times()) {
        return Some("times".into());
    }
    if bits(got.driver_fraction()) != bits(want.driver_fraction()) {
        return Some("driver fraction".into());
    }
    ONLINE_KINDS
        .into_iter()
        .find(|&kind| bits(got.curve_view(kind)) != bits(want.curve_view(kind)))
        .map(|kind| format!("{kind} curve"))
}

/// Register `plan` as query `qi`, feed `events` to the monitor and to a
/// fresh [`Reference`], and compare every pipeline after every event.
/// The first divergence, if any.
fn divergence(
    monitor: &mut ProgressMonitor,
    qi: usize,
    plan: &Arc<PhysicalPlan>,
    events: impl IntoIterator<Item = TraceEvent>,
    coverage: &mut Coverage,
) -> Option<String> {
    monitor.register(qi, Arc::clone(plan));
    let mut reference = Reference::new(plan);
    for (n, ev) in events.into_iter().enumerate() {
        coverage.thinnings += matches!(ev, TraceEvent::Thinned { .. }) as usize;
        reference.ingest(&ev);
        monitor.ingest(ev);
        for (pid, want) in reference.pipes.iter().enumerate() {
            let got = monitor.observation(qi, pid).expect("registered");
            if let Some(what) = difference(got, want) {
                return Some(format!("q{qi} p{pid} event {n}: {what}"));
            }
            coverage.started_offers += want.started() as usize;
        }
    }
    (monitor.is_finished(qi) != Some(true)).then(|| format!("q{qi} did not finish"))
}

/// A stream no engine run produces (see the module docs): each pipeline
/// starts at an event of its own and stays active to the end, a third of
/// the nodes move one counter each per event — `GetNext`, bytes read,
/// bytes written or the materialized size, whichever the dice say — the
/// known window end sometimes lags the snapshot (pending observations),
/// and the buffer is thinned every `thin_every` snapshots. `deltas`
/// encodes everything after the baseline sparsely.
fn scrambled_stream(
    plan: &PhysicalPlan,
    query: usize,
    seed: u64,
    deltas: bool,
    thin_every: usize,
) -> Vec<TraceEvent> {
    const SNAPSHOTS: usize = 40;
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let starts: Vec<usize> = decompose(plan).iter().map(|_| next() as usize % 6).collect();
    let mut windows = vec![(f64::INFINITY, f64::NEG_INFINITY); starts.len()];
    // Per node: `GetNext`, bytes read, bytes written, materialized.
    let mut counters = vec![[0u64; 4]; plan.len()];
    let mut encoder = DeltaEncoder::new();
    let mut events = Vec::new();
    for i in 0..SNAPSHOTS {
        let time = (i + 1) as f64;
        // One event in six moves nothing at all.
        if !next().is_multiple_of(6) {
            for node in &mut counters {
                if next().is_multiple_of(3) {
                    let column = [0, 0, 0, 0, 1, 1, 2, 3][next() as usize % 8];
                    node[column] += 1 + next() % 50;
                }
            }
        }
        for (window, &start) in windows.iter_mut().zip(&starts) {
            if i == start {
                *window = (time - 0.5, time - 0.5);
            }
            if i >= start && !next().is_multiple_of(4) {
                window.1 = time;
            }
        }
        let [k, bytes_read, bytes_written, materialized] =
            [0, 1, 2, 3].map(|column| counters.iter().map(|node| node[column]).collect());
        let snapshot = Snapshot { time, k, bytes_read, bytes_written, materialized };
        let seq = i as u64;
        let encoded = if deltas { encoder.encode(&snapshot, &windows) } else { None };
        events.push(match encoded {
            Some((changes, window_updates)) => {
                TraceEvent::Delta { query, seq, wall: time, time, changes, window_updates }
            }
            None => TraceEvent::Snapshot {
                query,
                seq,
                wall: time,
                snapshot,
                windows: windows.clone().into_boxed_slice(),
            },
        });
        if (i + 1) % thin_every == 0 {
            events.push(TraceEvent::Thinned { query });
        }
    }
    let total_time = SNAPSHOTS as f64 + 1.0;
    events.push(TraceEvent::Finished {
        query,
        wall: total_time,
        windows: windows.into_boxed_slice(),
        total_time,
    });
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dirty_set_ingest_equals_evaluating_everything(
        workload_seed in 0u64..1000,
        tpcds in any::<bool>(),
        encoding in 0usize..3,
        max_snapshots in 16usize..40,
    ) {
        let kind = if tpcds { WorkloadKind::TpcdsLike } else { WorkloadKind::TpchLike };
        let spec = WorkloadSpec::new(kind, workload_seed).with_queries(3).with_scale(0.3);
        let w = materialize(&spec);
        let catalog = Catalog::new(&w.db, &w.design);
        let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
        let mut monitor =
            MonitorBuilder::fixed(EstimatorKind::Dne).build_monitor().expect("build");
        let (mut tapped, mut scrambled) = (Coverage::default(), Coverage::default());
        for (qi, q) in w.queries.iter().enumerate() {
            let plan = Arc::new(builder.build(q).expect("plan"));
            let cfg = ExecConfig {
                seed: workload_seed ^ qi as u64,
                max_snapshots,
                initial_snapshot_interval: 5.0,
                // Full snapshots only, deltas for every plan, deltas for
                // the wider plans.
                delta_threshold: [0, 1, 8][encoding],
                ..ExecConfig::default()
            };
            let (tap, rx) = std::sync::mpsc::channel();
            run_plan_tapped(&catalog, &plan, &cfg, qi, tap);
            let on_tapped = divergence(&mut monitor, qi, &plan, rx.try_iter(), &mut tapped);
            prop_assert_eq!(on_tapped, None);
            let id = w.queries.len() + qi;
            let events =
                scrambled_stream(&plan, id, workload_seed ^ qi as u64, encoding != 0, max_snapshots / 4);
            let on_scrambled = divergence(&mut monitor, id, &plan, events, &mut scrambled);
            prop_assert_eq!(on_scrambled, None);
        }
        // Both kinds of stream exercised what the case is about: started
        // pipelines beside the ones that moved, and a thinned buffer.
        for coverage in [tapped, scrambled] {
            prop_assert!(
                coverage.started_offers > 0 && coverage.thinnings > 0,
                "{} started offers, {} thinnings",
                coverage.started_offers,
                coverage.thinnings
            );
        }
    }
}
