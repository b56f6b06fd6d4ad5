//! The sharded monitor service: N shards as cooperative tasks on a small
//! worker pool, with a read path that never touches ingest.
//!
//! [`MonitorService`] scales the [`ProgressMonitor`] core past one ingest
//! thread. Each shard owns the queries with `query % n_shards == shard`:
//! a plain single-threaded [`ProgressMonitor`] guarded by a mutex, an
//! event queue the tap pushes into, and a registry naming the cell
//! ([`crate::cell`]) of every query registered on it. Shards are not
//! threads — they are tasks on a small hand-rolled worker pool
//! ([`crate::runtime`], sized via [`crate::RuntimeConfig`]
//! inside [`MonitorConfig`](crate::MonitorConfig)); a shard task drains
//! its event queue in batches (amortizing wakeups under saturated ingest)
//! into the core, whose ingest funnel stores into the affected query's
//! cell as its last step.
//!
//! **Reads never touch the ingest path.** Every per-query read is one
//! registry lookup (`MonitorService::read`, the one place the read
//! counter and sampled read timer tick) plus one method of the cell — no
//! channel send, no queueing behind events, never the core or queue lock.
//! A read takes the registry's read lock for a hash probe, releases it,
//! then locks the cell to copy out; it can wait behind one writer's copy
//! of about a hundred bytes into that cell, never behind an event's
//! evaluation. The lock order is written down in `service/slots.rs`.
//! Under a saturated tap the read tail stays flat (`benchmark/` reports it
//! as `read_p99_ns` on `ingest_saturate`).
//!
//! **Writes go through one body each.** Events enter through
//! `ServiceInner::push` (the stopping and dead-shard refusals and the
//! scheduled edge, all under the shard's queue lock — see
//! `service/slots.rs`), whether sent one at a time or in batches;
//! registrations through `MonitorService::admit`, which
//! quiesces the owning shard's queue first so the
//! registered-before-first-event contract of
//! [`ProgressMonitor::register`] survives re-ordering-free. Unregister and
//! selector swaps lock the owning shard's core directly.
//!
//! **Admission is compiled once per plan per shard.** What a registration
//! derives from the plan alone — pipelines, eq. (5) weights, static
//! features and the initial choice under the current selector, the bound
//! kernel and its pipeline masks — is kept by each shard core per
//! registering `Arc<PhysicalPlan>` and shared by every query registered
//! against that `Arc`, so a registration builds only the query's live
//! state. That assumes what serving traffic looks like: queries recur
//! over plan templates, and a caller keeps one `Arc` per template (all
//! four benchmark workloads register from 24). A caller passing
//! `&PhysicalPlan` or an owned plan makes a fresh `Arc` per call and pays
//! a full compile each time (`tests/traffic_soak.rs` exercises that
//! path). The per-shard map is bounded by the plans still alive: each
//! entry holds only a `Weak` to its plan, dead entries are pruned
//! whenever the map doubles, and a selector swap empties it.
//!
//! Dead shards degrade, never lie: a panicking shard task is caught, the
//! shard is marked dead, its queued events are counted as
//! `events_rejected` (the conservation law `ingested + unroutable +
//! rejected == sent` survives the crash), reads for its queries return
//! [`QueryError::ShardDown`], selector swaps report the affected shard ids
//! via [`SwapError`], and the frozen stats snapshot keeps serving.

mod slots;

use crate::cell::{QueryCell, QueryStatus, SwitchEvent};
use crate::error::{QueryError, RegisterError, SwapError};
use crate::eta::Eta;
use crate::runtime::{RunQueue, Runtime, RuntimeObs};
use crate::shard::ProgressMonitor;
use crate::stats::ShardStats;
use prosel_core::selection::EstimatorSelector;
use prosel_engine::plan::PhysicalPlan;
use prosel_engine::trace::{TapSink, TraceEvent, TraceTap};
use prosel_obs::{MetricsRegistry, MetricsSnapshot, ObsEvent, TraceRing, SAMPLE_EVERY};
use slots::{ServiceInner, ServiceObs, ShardSlot};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Sharded, concurrent-safe progress monitor service whose reads never
/// queue behind ingest. See the module docs for the architecture and the
/// crate docs for when to prefer the plain [`ProgressMonitor`].
pub struct MonitorService {
    inner: Arc<ServiceInner>,
    runtime: Runtime,
}

impl MonitorService {
    /// Serve `cores` — shard `i` is `cores[i]`, built by
    /// [`crate::MonitorBuilder`] with its counters in `metrics` — as one
    /// service. Shard 0's [`crate::RuntimeConfig`] (inside its
    /// [`crate::MonitorConfig`], which every shard shares) sizes the
    /// worker pool.
    pub(crate) fn spawn(
        cores: Vec<ProgressMonitor>,
        metrics: Arc<MetricsRegistry>,
    ) -> MonitorService {
        let config = cores[0].config();
        let runtime_config = config.runtime.clone();
        let clock = Arc::clone(&config.clock);
        let n = cores.len();
        let shards = cores
            .into_iter()
            .enumerate()
            .map(|(si, core)| {
                let wakes = metrics.counter(&format!("monitor_shard{si}_quiesce_wakes_total"));
                ShardSlot::new(core, wakes)
            })
            .collect();
        let run_queue = Arc::new(RunQueue::new(RuntimeObs::from_registry(&metrics)));
        let inner = Arc::new(ServiceInner {
            shards,
            ring: TraceRing::new(256, Arc::clone(&clock)),
            clock,
            swap_lock: Mutex::new(()),
            run_queue: Arc::clone(&run_queue),
            obs: ServiceObs::new(&metrics),
            metrics,
        });
        let body: Arc<dyn Fn(usize) -> bool + Send + Sync> = {
            let inner = Arc::clone(&inner);
            Arc::new(move |task| inner.drain_batch(task))
        };
        let runtime = Runtime::spawn(&run_queue, n, &runtime_config, body);
        MonitorService { inner, runtime }
    }

    /// Block until every event enqueued so far (tap or
    /// [`Self::ingest`]) has been drained into shard state — the explicit
    /// read-your-writes barrier. Reads are snapshots of what has been
    /// ingested and do **not** queue behind the events still queued, so a
    /// caller that just finished a tapped run quiesces once before
    /// asserting on final state.
    /// Terminates even with dead shards (their events are accounted as
    /// rejected).
    pub fn quiesce(&self) {
        self.inner.quiesce();
    }

    /// Register a query with its owning shard **before it runs** (the
    /// [`ProgressMonitor::register`] contract, routed). Quiesces the
    /// owning shard's queue first, so earlier tapped events for this id
    /// (unroutable by contract) cannot land after the registration and
    /// corrupt it.
    ///
    /// # Panics
    /// Panics if `query` is already registered; use [`Self::try_register`]
    /// to handle the error as a value.
    pub fn register(&self, query: usize, plan: impl Into<Arc<PhysicalPlan>>) {
        self.try_register(query, plan).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Non-panicking [`Self::register`]: duplicate ids come back as
    /// [`RegisterError::DuplicateQuery`], a dead shard as
    /// [`RegisterError::ShardDown`]. Accepts `&PhysicalPlan`, an owned
    /// plan, or `Arc<PhysicalPlan>` (no deep clone for shared plans, and
    /// the owning shard's compiled admission record is shared too).
    pub fn try_register(
        &self,
        query: usize,
        plan: impl Into<Arc<PhysicalPlan>>,
    ) -> Result<(), RegisterError> {
        let mut result = Err(RegisterError::ShardDown);
        self.admit(self.inner.shard_of(query), &[query], &plan.into(), |_, r| result = r);
        result
    }

    /// Register many queries against one plan with **one quiesce + core
    /// lock per shard** instead of one per query — the admission path for
    /// bulk workloads. The plan is cloned into one `Arc` for the whole
    /// batch, so each shard compiles its admission record once and every
    /// query of the batch on that shard shares it (see the module docs);
    /// a later batch of the same plan is a fresh `Arc` and compiles again.
    /// Returns one `(query, result)` pair per input query; queries owned
    /// by a dead shard report [`RegisterError::ShardDown`].
    pub fn try_register_batch(
        &self,
        queries: &[usize],
        plan: &PhysicalPlan,
    ) -> Vec<(usize, Result<(), RegisterError>)> {
        let plan = Arc::new(plan.clone());
        let n = self.inner.shards.len();
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &q in queries {
            by_shard[q % n].push(q);
        }
        let mut out = Vec::with_capacity(queries.len());
        for (si, queries) in by_shard.iter().enumerate() {
            if !queries.is_empty() {
                self.admit(si, queries, &plan, |q, r| out.push((q, r)));
            }
        }
        out
    }

    /// The one admit body: register `queries` — all owned by shard `si` —
    /// against `plan` under one quiesce and one core lock, file each
    /// admitted query's cell in the shard's registry, and `report` every
    /// outcome. One `service_register_ns` sample per call.
    fn admit(
        &self,
        si: usize,
        queries: &[usize],
        plan: &Arc<PhysicalPlan>,
        mut report: impl FnMut(usize, Result<(), RegisterError>),
    ) {
        let start = Instant::now();
        let slot = &self.inner.shards[si];
        let core = slot.is_alive().then(|| {
            slot.quiesce();
            slot.core.lock().ok()
        });
        match core.flatten() {
            Some(mut core) => {
                for &q in queries {
                    let admitted = core.admit(q, Arc::clone(plan)).map(|cell| {
                        slot.registry.write().unwrap_or_else(|e| e.into_inner()).insert(q, cell);
                    });
                    report(q, admitted);
                }
            }
            None => queries.iter().for_each(|&q| report(q, Err(RegisterError::ShardDown))),
        }
        self.inner.obs.register_ns.record(start.elapsed().as_nanos() as u64);
    }

    /// Drop a query's state on its owning shard. Unknown ids come back as
    /// [`QueryError::QueryUnknown`]; a dead owning shard as
    /// [`QueryError::ShardDown`] (its state is frozen and unreachable).
    pub fn unregister(&self, query: usize) -> Result<(), QueryError> {
        let si = self.inner.shard_of(query);
        let slot = &self.inner.shards[si];
        if !slot.is_alive() {
            return Err(QueryError::ShardDown);
        }
        // Quiesce first: events for this id already in the queue belong to
        // the registration being dropped and must drain into it, not into
        // the unroutable bucket of a later re-registration.
        slot.quiesce();
        let mut core = slot.core.lock().map_err(|_| QueryError::ShardDown)?;
        let result = core.unregister(query);
        slot.registry.write().unwrap_or_else(|e| e.into_inner()).remove(&query);
        result
    }

    /// A [`TraceTap`] that fans the engine's event stream out to the
    /// owning shards — pass it to [`prosel_engine::run_plan_tapped`] /
    /// [`prosel_engine::run_concurrent_tapped`]. Each event is routed to
    /// exactly one shard; cloning the tap shares the same service. The
    /// sink supports [`TapSink::send_batch`] (one queue lock + one wakeup
    /// per shard per batch) for writers that buffer.
    pub fn tap(&self) -> TraceTap {
        TraceTap::from_sink(Arc::clone(&self.inner) as Arc<dyn TapSink>)
    }

    /// Ingest one event and wait until the owning shard has drained it —
    /// read-your-writes for single-threaded callers (a subsequent read
    /// observes this event). Events for dead shards are counted as
    /// rejected and dropped, matching the old fire-and-forget contract of
    /// ignoring send failures. For fire-and-forget streaming use
    /// [`Self::tap`].
    pub fn ingest(&self, ev: TraceEvent) {
        let si = self.inner.shard_of(ev.query());
        if let Ok(target) = self.inner.enqueue(ev) {
            self.inner.shards[si].wait_processed(target);
        }
    }

    /// Answer a per-query read from the query's cell — every read below
    /// is this lookup plus one [`QueryCell`] method, and this is the only
    /// place the read counter and the sampled read timer tick. It takes
    /// the registry read lock for a hash probe (writers touch the registry
    /// only at register/unregister/drop, never per event) and releases it
    /// before `f` locks the cell, which waits at most for one writer's
    /// copy.
    fn read<R>(&self, query: usize, f: impl FnOnce(&QueryCell) -> R) -> Result<R, QueryError> {
        let obs = &self.inner.obs;
        // The sampling tick is the read counter itself — one `fetch_add`
        // total, so timing adds no shared-cacheline traffic to unsampled
        // reads.
        let timer =
            obs.reads_total.tick().is_multiple_of(u64::from(SAMPLE_EVERY)).then(Instant::now);
        let shard = &self.inner.shards[self.inner.shard_of(query)];
        let out = if shard.is_alive() {
            let registry = shard.registry.read().unwrap_or_else(|e| e.into_inner());
            let cell = registry.get(&query).cloned();
            drop(registry);
            cell.map(|cell| f(&cell)).ok_or(QueryError::QueryUnknown(query))
        } else {
            Err(QueryError::ShardDown)
        };
        if let Some(start) = timer {
            obs.read_ns.record(start.elapsed().as_nanos() as u64);
        }
        out
    }

    /// Estimated progress of `query` in [0, 1] — the
    /// [`ProgressMonitor::query_progress`] contract (never queues behind
    /// ingest: one registry probe, then a copy out of the query's cell).
    /// Unregistered queries and dead shards come back as distinct
    /// [`QueryError`] values.
    pub fn query_progress(&self, query: usize) -> Result<f64, QueryError> {
        self.read(query, QueryCell::progress)
    }

    /// Latest progress estimate of one pipeline.
    pub fn pipeline_progress(&self, query: usize, pipeline: usize) -> Result<f64, QueryError> {
        self.read(query, |cell| cell.pipeline_progress(pipeline))?
            .ok_or(QueryError::QueryUnknown(query))
    }

    /// Full live status of one query.
    pub fn status(&self, query: usize) -> Result<QueryStatus, QueryError> {
        self.read(query, |cell| cell.status(query))
    }

    /// Has the engine reported this query's termination?
    pub fn is_finished(&self, query: usize) -> Result<bool, QueryError> {
        self.read(query, QueryCell::is_finished)
    }

    /// The estimator-switch history of a query (owned copy).
    pub fn switch_history(&self, query: usize) -> Result<Vec<SwitchEvent>, QueryError> {
        self.read(query, QueryCell::switch_history)
    }

    /// Wall-clock remaining-time answer for `query` — the
    /// [`ProgressMonitor::remaining_time`] contract: the at-last-event ETA
    /// **with staleness folded in** ([`Eta::aged`] against the service's
    /// configured clock), so a stalled query's countdown keeps shrinking
    /// and pins to 0 instead of freezing at the last accepted speed
    /// sample. The raw event-stream-pure variant is
    /// [`Self::remaining_time_at_last_event`].
    pub fn remaining_time(&self, query: usize) -> Result<Eta, QueryError> {
        self.read(query, |cell| cell.remaining_time(&*self.inner.clock))
    }

    /// [`Self::remaining_time`] without the staleness fold: point +
    /// interval ETA exactly as of the latest accepted event, a pure
    /// function of the ingested stream (bit-deterministic under a manual
    /// clock).
    pub fn remaining_time_at_last_event(&self, query: usize) -> Result<Eta, QueryError> {
        self.read(query, QueryCell::eta)
    }

    /// The selector epoch `query` was registered under.
    pub fn query_selector_epoch(&self, query: usize) -> Result<u64, QueryError> {
        self.read(query, QueryCell::epoch)
    }

    /// Bounded-staleness progress prediction at wall instant `deadline` —
    /// the [`ProgressMonitor::progress_at_deadline`] contract.
    pub fn progress_at_deadline(&self, query: usize, deadline: f64) -> Result<f64, QueryError> {
        self.read(query, |cell| cell.progress_at_deadline(deadline))
    }

    /// Hot-swap `selector` into **every live shard** and return the new
    /// selector epoch (identical across shards: swaps are serialized
    /// against each other and applied under each shard's core lock). New
    /// registrations anywhere in the service pick up the new model;
    /// queries already registered keep the selector captured at their
    /// registration — an in-flight query's answers are bit-unchanged by a
    /// swap.
    ///
    /// With dead shards the swap still applies to every survivor, but
    /// comes back as [`SwapError`] naming the shards it missed — a partial
    /// broadcast must be visible (the survivors serve the new model, the
    /// dead shards are frozen on the old one), never a silent `Ok`.
    pub fn swap_selector(&self, selector: Arc<EstimatorSelector>) -> Result<u64, SwapError> {
        let start = Instant::now();
        let _guard = self.inner.swap_lock.lock().unwrap_or_else(|e| e.into_inner());
        let mut dead = Vec::new();
        let mut epoch: Option<u64> = None;
        for (si, slot) in self.inner.shards.iter().enumerate() {
            if !slot.is_alive() {
                dead.push(si);
                continue;
            }
            match slot.core.lock() {
                Ok(mut core) => {
                    let e = core.swap_selector(Arc::clone(&selector));
                    epoch = Some(epoch.map_or(e, |prev| prev.max(e)));
                }
                Err(_) => dead.push(si),
            }
        }
        self.inner.obs.swap_ns.record(start.elapsed().as_nanos() as u64);
        if dead.is_empty() {
            let epoch = epoch.expect("a service always has ≥ 1 shard");
            self.inner.ring.emit(ObsEvent::SwapInstalled { epoch });
            Ok(epoch)
        } else {
            self.inner.ring.emit(ObsEvent::SwapRefused { dead_shards: dead.len() });
            Err(SwapError { shards: dead, epoch })
        }
    }

    /// Per-shard operation counters, in shard order. Lock-free: every
    /// counter of every shard is loaded on its own from the atomics the
    /// shard bumps, so the readout never queues behind ingest — and,
    /// taken while events are in flight, it can show an event
    /// half-counted (say, `events_ingested` bumped and `queries_finished`
    /// not yet). Call [`Self::quiesce`] first when the readout must
    /// reflect every event already sent, whole. Dead shards serve their
    /// counters frozen at the crash plus a live `events_rejected`, so
    /// after a quiesce the conservation law `ingested + unroutable +
    /// rejected == sent` holds exactly service-wide (`tests/traffic_soak.rs`
    /// checks it). Nothing here can fail: the `Result` is kept for API
    /// stability and is always `Ok`.
    pub fn shard_stats(&self) -> Result<Vec<ShardStats>, QueryError> {
        Ok(self.inner.shards.iter().map(|slot| slot.counters.load()).collect())
    }

    /// [`Self::shard_stats`] folded into one service-wide readout.
    pub fn stats(&self) -> Result<ShardStats, QueryError> {
        Ok(self.shard_stats()?.iter().fold(ShardStats::default(), |acc, s| acc.merged(s)))
    }

    /// The service's metrics registry: every shard's counters
    /// (`monitor_shard<i>_*`), the service instrumentation (`service_*`,
    /// `tap_*`) and the runtime's scheduler counters (`runtime_*`) all
    /// live here. The same registry the caller passed via
    /// [`crate::MonitorConfig::metrics`], or a service-private one.
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.inner.metrics
    }

    /// A point-in-time scrape of [`Self::metrics_registry`] — diffable
    /// ([`MetricsSnapshot::diff`]) for per-interval rates, and consistent
    /// with [`Self::shard_stats`] by construction (same atomics).
    /// Wait-free for the hot paths; the scrape itself takes the registry
    /// mutex briefly.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// [`Self::metrics`] rendered in the strict checksummed text
    /// exposition format ([`MetricsSnapshot::render_text`]).
    pub fn render_text(&self) -> String {
        self.metrics().render_text()
    }

    /// The service's control-plane trace ring: swap installs/refusals and
    /// shard panics, stamped by the service clock. Cloning shares the
    /// buffer — a caller can hand the clone to a
    /// [`prosel_obs::TraceRing`]-aware consumer.
    pub fn trace_ring(&self) -> &TraceRing {
        &self.inner.ring
    }

    /// Per-shard checkpointable state, in shard order: the selector epoch
    /// and the monotone counters, for persisting via
    /// [`HarvestState::to_text`](crate::HarvestState::to_text) and
    /// re-seating through
    /// [`MonitorBuilder::restore`](crate::MonitorBuilder::restore).
    /// Quiesces first so the snapshot reflects every event already sent.
    /// Dead shards report their state frozen at the crash.
    pub fn harvest_states(&self) -> Vec<crate::HarvestState> {
        self.inner.quiesce();
        self.inner
            .shards
            .iter()
            .map(|slot| {
                let core = slot.core.lock().unwrap_or_else(|e| e.into_inner());
                core.harvest_state()
            })
            .collect()
    }

    /// Deliberately crash one shard task — test hook for the crash-path
    /// suites (dead-shard reads, partial swaps, conservation under
    /// failure). Sets a poison pill, schedules the shard, and waits until
    /// the task has panicked through the real ingest path (poisoning the
    /// core mutex exactly like an organic crash). No-op on an
    /// already-dead shard.
    #[doc(hidden)]
    pub fn inject_shard_panic(&self, shard: usize) {
        let si = shard % self.inner.shards.len();
        if self.inner.poison(si) {
            while self.inner.shards[si].is_alive() {
                std::thread::yield_now();
            }
        }
    }

    /// Drain and stop the service. Events already enqueued (including
    /// tapped events still in flight) are processed first; taps handed out
    /// earlier refuse new events afterwards. Dropping the service shuts it
    /// down the same way.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        // Refuse new tap events, then drain what's already queued, then
        // stop the pool. `stopping` is set under the lock every push
        // takes, so a racing push either lands before it (and the quiesce
        // below drains it while the workers are still up) or is refused.
        for slot in &self.inner.shards {
            slot.lock_queue().stopping = true;
        }
        self.inner.quiesce();
        self.runtime.stop();
    }
}

impl Drop for MonitorService {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests;
