//! The ingest funnel: every [`TraceEvent`] a monitor accepts goes through
//! [`ProgressMonitor::ingest_outcome`], whose last step stores what the
//! query now serves into its cell.
//!
//! Per snapshot, the refinement-bound pass is computed **once per query**
//! as a [`SnapshotCtx`] and shared across all of the query's pipelines
//! ([`IncrementalObs::offer_view`](prosel_estimators::IncrementalObs::offer_view))
//! — O(plan) per snapshot instead of O(pipelines × plan) — and only where
//! counters moved: the event's changed counters (a delta lists them, a
//! full snapshot is diffed against the scratch it overwrites) are folded
//! through the plan's dependency masks ([`prosel_estimators::soa`]) into
//! the bound positions to refresh and the pipelines whose aggregates to
//! recompute; every other started pipeline re-stamps its previous
//! aggregates in O(1)
//! ([`IncrementalObs::offer_unchanged`](prosel_estimators::IncrementalObs::offer_unchanged)).

use super::{CompiledPlan, HarvestSink, HarvestedQuery, ProgressMonitor, QueryState};
use crate::cell::SwitchEvent;
use crate::config::HarvestConfig;
use crate::eta::Eta;
use crate::stats::ShardCounters;
use prosel_core::pipeline_runs::record_with_statics;
use prosel_engine::trace::{
    thin_half, CounterKind, CounterUpdate, DeltaDecoder, Snapshot, TraceEvent,
};
use prosel_estimators::soa::BoundsKernel;
use prosel_estimators::SnapshotCtx;
use prosel_obs::SAMPLE_EVERY;
use std::collections::btree_map::{Entry, OccupiedEntry};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// What the funnel did with one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ingested {
    /// It advanced a registered query; the query's cell shows the result.
    Served,
    /// It reached a registered query whose stream can no longer be
    /// trusted: the query's state was dropped, and whatever else names
    /// its cell (a service shard's registry) has to retire it too.
    Dropped,
    /// No such query is registered.
    Unroutable,
}

/// Per-query reusable ingest scratch. One allocation set per query for
/// its whole lifetime: the [`DeltaDecoder`] holds the current counter
/// vectors and windows (full snapshots are copied into it in place,
/// [`TraceEvent::Delta`] events patch it sparsely) and the [`SnapshotCtx`]
/// is the refinement-bound scratch refreshed per event. Only these are
/// per query: the [`BoundsKernel`] that refreshes the scratch and its
/// per-node pipeline masks ([`BoundsKernel::pipeline_readers`]) depend on
/// the plan alone, so they live in the query's shared
/// [`CompiledPlan`](super::compiled::CompiledPlan), compiled once per
/// plan `Arc` per shard.
/// Before this existed, every ingested snapshot allocated a fresh
/// `SnapshotCtx` (two `Vec<f64>` plus the topological order) — visible
/// under the 24k-query saturated-ingest bench.
pub(super) struct IngestScratch {
    decoder: DeltaDecoder,
    ctx: SnapshotCtx,
}

impl IngestScratch {
    pub(super) fn new() -> IngestScratch {
        IngestScratch { decoder: DeltaDecoder::new(), ctx: SnapshotCtx::empty() }
    }
}

/// What the counters one event moved can reach: the bound positions to
/// re-evaluate and the pipelines whose aggregates to recompute (one bit
/// each — see the dependency masks of [`prosel_estimators::soa`]).
#[derive(Debug, Clone, Copy, Default)]
struct Dirty {
    positions: u64,
    pipes: u64,
}

impl Dirty {
    /// Fold in one moved counter of `node`.
    fn mark(&mut self, kernel: &BoundsKernel, readers: &[u64], node: usize, counter: CounterKind) {
        match counter {
            CounterKind::GetNext => {
                self.positions |= kernel.dependents(node);
                self.pipes |= readers[node];
            }
            CounterKind::BytesRead | CounterKind::BytesWritten => self.pipes |= readers[node],
            // Read once, when a pipeline's driver totals resolve at its
            // first observation; no started pipeline looks at it again.
            CounterKind::Materialized => {}
        }
    }

    /// Must pipeline `pid` recompute its aggregates? (Pipelines a mask
    /// cannot name always do.)
    fn reaches(&self, pid: usize) -> bool {
        pid >= u64::BITS as usize || self.pipes >> pid & 1 == 1
    }
}

/// What ingesting an event needs of the monitor besides the query map,
/// borrowed field by field so the map can be borrowed beside it.
struct IngestEnv<'a> {
    counters: &'a ShardCounters,
    reselect_every: usize,
    harvester: Option<&'a (Arc<dyn HarvestSink>, HarvestConfig)>,
    dynamic_feats: &'a mut Vec<f32>,
    /// Is this event a sampled (timed) one?
    timed: bool,
}

impl ProgressMonitor {
    /// [`Self::ingest`], reporting what became of the event.
    pub(crate) fn ingest_outcome(&mut self, ev: TraceEvent) -> Ingested {
        self.obs_tick = self.obs_tick.wrapping_add(1);
        let timed = self.obs_tick.is_multiple_of(SAMPLE_EVERY);
        let env = IngestEnv {
            counters: &self.counters,
            reselect_every: self.config.reselect_every,
            harvester: self.harvester.as_ref(),
            dynamic_feats: &mut self.dynamic_feats,
            timed,
        };
        let start = timed.then(Instant::now);
        let outcome = Self::ingest_inner(&mut self.queries, env, ev);
        if let Some(start) = start {
            self.counters.ingest_ns.record(start.elapsed().as_nanos() as u64);
        }
        outcome
    }

    fn ingest_inner(
        queries: &mut BTreeMap<usize, QueryState>,
        mut env: IngestEnv<'_>,
        ev: TraceEvent,
    ) -> Ingested {
        // The map's size before this event: what a defensive drop, which
        // holds the entry and not the map, re-seats the gauge from.
        let registered = queries.len();
        let Entry::Occupied(mut entry) = queries.entry(ev.query()) else {
            env.counters.events_unroutable.inc();
            return Ingested::Unroutable;
        };
        env.counters.events_ingested.inc();
        let qs = entry.get_mut();
        // One contract for every event kind: state that can no longer be
        // trusted is dropped — never served, never a panic (which would
        // kill a whole service shard).
        let trusted = match ev {
            TraceEvent::Snapshot { seq, wall, snapshot, windows, .. } => {
                Self::on_snapshot(qs, &mut env, seq, wall, &snapshot, &windows)
            }
            TraceEvent::Delta { seq, wall, time, changes, window_updates, .. } => {
                Self::on_delta(qs, &mut env, seq, wall, time, &changes, &window_updates)
            }
            // `finished`: a new stream reusing the id (see on_snapshot).
            TraceEvent::Thinned { .. } => {
                !qs.served.finished && {
                    // Mirror the engine: odd positions survive, interval
                    // doubles (the interval is the engine's business).
                    // Thinning re-indexes the rows the dynamic features
                    // read: no suffix stays settled.
                    thin_half(&mut qs.live);
                    for pipe in &mut qs.pipes {
                        pipe.obs.thin(&qs.live);
                        pipe.settled = false;
                    }
                    // Thinning rebuilds the LUO window: a served value moved.
                    qs.served.progress = qs.weighted_progress();
                    true
                }
            }
            TraceEvent::Finished { query, wall, windows, total_time } => {
                // Same contract as the snapshot path: a second
                // termination means a new stream is reusing this id
                // against finalized state, and a window-arity mismatch
                // means the engine ran a different plan under it.
                !qs.served.finished && windows.len() == qs.pipes.len() && {
                    Self::on_finished(qs, &env, query, wall, &windows, total_time);
                    true
                }
            }
        };
        if !trusted {
            Self::drop_entry(entry, registered, env.counters);
            return Ingested::Dropped;
        }
        qs.publish();
        Ingested::Served
    }

    fn on_finished(
        qs: &mut QueryState,
        env: &IngestEnv<'_>,
        query: usize,
        wall: f64,
        windows: &[(f64, f64)],
        total_time: f64,
    ) {
        qs.last_wall = qs.last_wall.max(wall);
        qs.served.finished = true;
        qs.served.time = total_time;
        qs.served.progress = 1.0;
        qs.served.eta = Eta::finished(qs.last_wall);
        env.counters.queries_finished.inc();
        for pipe in &mut qs.pipes {
            let pid = pipe.obs.pipeline_id();
            pipe.obs.finalize(windows[pid]);
        }
        // Harvest hook: the pipes are finalized, so their committed
        // curves, truth and totals now match what post-hoc replay would
        // compute over this trace. Under a selector policy admission
        // already derived each pipeline's static prefix from this plan.
        if let Some((sink, hcfg)) = env.harvester {
            let compiled = &qs.compiled;
            let records = qs
                .pipes
                .iter()
                .filter_map(|pipe| {
                    let pid = pipe.obs.pipeline_id();
                    record_with_statics(
                        &qs.plan,
                        compiled.selector.is_some().then(|| compiled.statics(pid)),
                        &pipe.obs,
                        &hcfg.label,
                        query,
                        compiled.weights[pid],
                        hcfg.min_observations,
                    )
                })
                .collect();
            sink.deliver(HarvestedQuery {
                query,
                selector_epoch: qs.cell.epoch(),
                total_time,
                records,
                switches: qs.cell.switch_history(),
            });
            env.counters.harvests.inc();
        }
    }

    /// Defensive drop of one query's state (corrupt, late-joined or
    /// id-reusing stream): one call site funnel so the drop counter and
    /// the `registered` gauge can never drift from the map, which held
    /// `registered` queries with this one in it.
    fn drop_entry(
        entry: OccupiedEntry<'_, usize, QueryState>,
        registered: usize,
        counters: &ShardCounters,
    ) {
        entry.remove();
        counters.queries_dropped.inc();
        counters.registered.reset(registered as u64 - 1);
    }

    /// Ingest a full snapshot; `false` when the stream can no longer be
    /// trusted.
    fn on_snapshot(
        qs: &mut QueryState,
        env: &mut IngestEnv<'_>,
        seq: u64,
        wall: f64,
        snapshot: &Snapshot,
        windows: &[(f64, f64)],
    ) -> bool {
        let width = qs.plan.len();
        if qs.served.finished
            || seq != qs.serial_next
            || [&snapshot.k, &snapshot.bytes_read, &snapshot.bytes_written, &snapshot.materialized]
                .iter()
                .any(|column| column.len() != width)
            || windows.len() != qs.pipes.len()
        {
            // `finished` first: a snapshot after termination means a new
            // stream is reusing this query id against finalized state (a
            // seq-0 stream would otherwise pass the header check when the
            // finished run emitted no snapshots, and panic the pipes).
            // The stream was joined mid-way, events were lost, or the
            // engine is executing a different plan under this query id —
            // any one counter column of the wrong width says so, and every
            // later index into it (this snapshot's evaluation, the next
            // delta's patch) relies on the width checked here: state can
            // no longer be trusted, so refuse to serve corrupted estimates
            // rather than panic or misalign.
            return false;
        }
        // Copy the full counter vectors into the per-query scratch (no
        // allocation once the scratch is warm), noting which of them
        // differ from what it held, and run the shared tail.
        let CompiledPlan { kernel, readers, .. } = &*qs.compiled;
        let mut dirty = Dirty::default();
        qs.scratch.decoder.apply_full_diff(snapshot, windows, |node, counter| {
            dirty.mark(kernel, readers, node, counter)
        });
        Self::advance_query(qs, env, wall, dirty);
        true
    }

    /// Ingest a [`TraceEvent::Delta`]: patch the per-query counter
    /// scratch with the changed `(node, counter)` pairs and advance the
    /// pipelines exactly as a full snapshot would. `false` when the
    /// stream can no longer be trusted.
    fn on_delta(
        qs: &mut QueryState,
        env: &mut IngestEnv<'_>,
        seq: u64,
        wall: f64,
        time: f64,
        changes: &[CounterUpdate],
        window_updates: &[(u32, (f64, f64))],
    ) -> bool {
        // Same contract as the snapshot path, plus: a delta is only
        // meaningful against a primed baseline (the engine always emits a
        // full snapshot first), and its node/pipeline indices must land
        // inside that baseline. `apply_delta` refuses (leaving the scratch
        // untouched) on either violation — treat that exactly like a
        // seq gap: the stream can no longer be trusted.
        let ok = !qs.served.finished
            && seq == qs.serial_next
            && qs.scratch.decoder.apply_delta(time, changes, window_updates);
        if !ok {
            return false;
        }
        env.counters.delta_decodes.inc();
        // The delta names exactly which counters moved.
        let CompiledPlan { kernel, readers, .. } = &*qs.compiled;
        let mut dirty = Dirty::default();
        for u in changes {
            dirty.mark(kernel, readers, u.node as usize, u.counter);
        }
        Self::advance_query(qs, env, wall, dirty);
        true
    }

    /// The shared per-event tail of [`Self::on_snapshot`] /
    /// [`Self::on_delta`]: the query's counter scratch holds the current
    /// snapshot and `dirty` what its moved counters reach; do the serial
    /// bookkeeping, refresh the shared bound context at the dirty
    /// positions, recompute the aggregates of the dirty pipelines and
    /// re-stamp the others.
    fn advance_query(qs: &mut QueryState, env: &mut IngestEnv<'_>, wall: f64, dirty: Dirty) {
        let eval_start = env.timed.then(Instant::now);
        let serial = qs.serial_next;
        qs.serial_next += 1;
        qs.live.push(serial);
        // Destructure so the pipe loop can borrow the scratch (view +
        // ctx) and the pipes mutably at the same time.
        let QueryState { compiled, scratch, pipes, served, cell, .. } = qs;
        let IngestScratch { decoder, ctx } = scratch;
        let view = decoder.view();
        let windows = decoder.windows();
        ctx.refresh_dirty(&compiled.kernel, view.k, dirty.positions);
        served.time = view.time;
        for pipe in pipes.iter_mut() {
            let pid = pipe.obs.pipeline_id();
            let committed = if dirty.reaches(pid) {
                pipe.obs.offer_view(serial, view, windows[pid], ctx)
            } else {
                pipe.obs.offer_unchanged(serial, view, windows[pid], ctx)
            };
            if committed == 0 {
                continue;
            }
            // Re-selection scores with the selector captured at this
            // query's registration, not the monitor's current policy: a
            // hot swap must never change an in-flight query's behavior.
            if let Some(sel) = &compiled.selector {
                pipe.since_select += committed;
                if env.reselect_every > 0
                    && pipe.since_select >= env.reselect_every
                    && !pipe.obs.is_empty()
                {
                    pipe.since_select = 0;
                    let statics = compiled.statics(pid);
                    let next = pipe.rescore(statics, sel, env.dynamic_feats, env.counters);
                    if next != pipe.choice {
                        cell.push_switch(SwitchEvent {
                            pipeline: pid,
                            time: view.time,
                            from: pipe.choice,
                            to: next,
                        });
                        pipe.choice = next;
                    }
                }
            }
        }
        // One speed sample per snapshot: the wall stamp against the served
        // query-level progress. Regressions and frozen clocks are rejected
        // inside the tracker, so the sample can be offered unconditionally;
        // the served ETA moves only when one is accepted.
        qs.last_wall = qs.last_wall.max(wall);
        qs.served.progress = qs.weighted_progress();
        if qs.eta.offer(wall, qs.served.progress) {
            qs.served.eta = qs.eta.estimate();
        }
        if let Some(start) = eval_start {
            env.counters.snapshot_eval_ns.record(start.elapsed().as_nanos() as u64);
        }
    }
}
