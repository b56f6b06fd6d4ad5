//! The shard slots and what moves events through them: the one push
//! body behind every tap send, the shard task's batch drain, and the
//! crash accounting that keeps the conservation law exact when a shard
//! dies.

use crate::cell::QueryCell;
use crate::runtime::Shared as RuntimeShared;
use crate::shard::{Ingested, ProgressMonitor};
use crate::stats::ShardCounters;
use prosel_engine::clock::Clock;
use prosel_engine::trace::{TapSink, TraceEvent};
use prosel_obs::{Counter, Histogram, MetricsRegistry, ObsEvent, TraceRing};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, RwLock};
use std::time::Duration;

/// Maximum number of events a shard task ingests per scheduling pass: large
/// enough to amortize wakeups and queue locking under saturated ingest,
/// small enough that a freshly enqueued event is not long behind a batch.
const INGEST_BATCH: usize = 64;

/// Service-level instrumentation: read/registration/swap latency
/// histograms, tap volume, ingest batch sizes. All handles live in the
/// service registry (`service_*` / `tap_*` names); the hot read path
/// touches one counter unconditionally and a clock only on sampled
/// reads.
pub(super) struct ServiceObs {
    pub(super) reads_total: Arc<Counter>,
    pub(super) read_ns: Arc<Histogram>,
    pub(super) register_ns: Arc<Histogram>,
    pub(super) swap_ns: Arc<Histogram>,
    /// Events the engine tap handed to the sink (counted there — the
    /// engine cannot depend on the obs crate).
    tap_events_total: Arc<Counter>,
    /// Estimated wire bytes of those events ([`TraceEvent::payload_bytes`]).
    tap_bytes_total: Arc<Counter>,
    ingest_batch_len: Arc<Histogram>,
}

impl ServiceObs {
    pub(super) fn new(registry: &MetricsRegistry) -> ServiceObs {
        ServiceObs {
            reads_total: registry.counter("service_reads_total"),
            read_ns: registry.histogram("service_read_ns"),
            register_ns: registry.histogram("service_register_ns"),
            swap_ns: registry.histogram("service_swap_ns"),
            tap_events_total: registry.counter("tap_events_total"),
            tap_bytes_total: registry.counter("tap_bytes_total"),
            ingest_batch_len: registry.histogram("service_ingest_batch_len"),
        }
    }
}

/// One shard: the single-threaded monitor core, its event queue, and the
/// registry reads find the core's cells through.
pub(super) struct ShardSlot {
    /// Events the tap routed here, awaiting the shard task.
    queue: Mutex<VecDeque<TraceEvent>>,
    /// Events ever accepted into `queue` (monotone).
    enqueued: AtomicU64,
    /// Events removed from `queue` and fully accounted — ingested by the
    /// core, or counted as rejected on a dead shard. `processed ==
    /// enqueued` means the queue is drained (the quiesce condition).
    pub(super) processed: AtomicU64,
    alive: AtomicBool,
    /// Test hook: make the next drain pass panic mid-ingest (exercising
    /// the real crash path, poisoned core mutex included).
    pub(super) poison_pill: AtomicBool,
    /// The shard's monitor core. Writers only: the shard task (ingest),
    /// registration, unregister, swaps. Never touched by reads.
    pub(super) core: Mutex<ProgressMonitor>,
    /// The cells of the queries registered on the core, by query id —
    /// changed (under the core mutex) only when the core's query map
    /// changes: registration, unregister, a defensive drop.
    pub(super) registry: RwLock<HashMap<usize, Arc<QueryCell>>>,
    /// The shard core's own counter handles, cloned: the same atomics the
    /// core increments, readable here without its mutex. Single source of
    /// truth — a dead (poisoned-mutex) shard's stats stay readable, and
    /// [`crate::ShardStats`] readouts equal a registry scrape by construction.
    /// The slot (not the core) owns the `events_rejected` increments: the
    /// push body and dead-queue sweeps count refusals here.
    pub(super) counters: ShardCounters,
    /// Quiesce waiters park here; the shard task notifies when a batch
    /// has carried `processed` to a value one of them waits for.
    drain_sync: Mutex<()>,
    drained: Condvar,
    /// The smallest `processed` value a parked waiter is waiting for;
    /// `u64::MAX` when nobody waits. Waiters lower it (under
    /// `drain_sync`) *before* re-checking `processed`, the shard task
    /// raises `processed` *before* reading it — both `SeqCst`, so of a
    /// waiter and a batch racing each other at least one sees the other:
    /// either the task finds the target and notifies, or the waiter
    /// finds its events processed and never parks.
    wake_at: AtomicU64,
    /// Notifies issued (`monitor_shard<i>_quiesce_wakes_total`, scrape
    /// only).
    wakes: Arc<Counter>,
}

impl ShardSlot {
    pub(super) fn new(core: ProgressMonitor, wakes: Arc<Counter>) -> ShardSlot {
        let counters = core.counters();
        ShardSlot {
            queue: Mutex::new(VecDeque::new()),
            enqueued: AtomicU64::new(0),
            processed: AtomicU64::new(0),
            alive: AtomicBool::new(true),
            poison_pill: AtomicBool::new(false),
            core: Mutex::new(core),
            registry: RwLock::new(HashMap::new()),
            counters,
            drain_sync: Mutex::new(()),
            drained: Condvar::new(),
            wake_at: AtomicU64::new(u64::MAX),
            wakes,
        }
    }

    pub(super) fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    pub(super) fn lock_queue(&self) -> MutexGuard<'_, VecDeque<TraceEvent>> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Account `n` more events as processed. `SeqCst`: the store half of
    /// the handshake described at `wake_at`.
    fn add_processed(&self, n: u64) {
        self.processed.fetch_add(n, Ordering::SeqCst);
    }

    /// Wake the quiesce waiters if `processed` has reached the smallest
    /// target among them — after most batches nobody waits, or not for
    /// this little, and a notify is a futex syscall whether or not anyone
    /// does. Everyone parked is woken and the target reset; waiters whose
    /// own target is still ahead put it back before they park again.
    fn notify_drained(&self) {
        if self.wake_at.load(Ordering::SeqCst) > self.processed.load(Ordering::SeqCst) {
            return;
        }
        // Through `drain_sync`: a waiter between its re-check and its
        // park holds the lock, so the notify cannot fall into that gap.
        let guard = self.drain_sync.lock().unwrap_or_else(|e| e.into_inner());
        self.wake_at.store(u64::MAX, Ordering::SeqCst);
        drop(guard);
        self.drained.notify_all();
        self.wakes.inc();
    }

    /// Block until `processed >= target`. Terminates on dead shards too:
    /// every enqueued event is eventually accounted (ingested or
    /// rejected), and the 1ms re-check bounds any missed notify.
    pub(super) fn wait_processed(&self, target: u64) {
        if self.processed.load(Ordering::Acquire) >= target {
            return;
        }
        let mut guard = self.drain_sync.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            self.wake_at.fetch_min(target, Ordering::SeqCst);
            if self.processed.load(Ordering::SeqCst) >= target {
                return;
            }
            let (g, _) = self
                .drained
                .wait_timeout(guard, Duration::from_millis(1))
                .unwrap_or_else(|e| e.into_inner());
            guard = g;
        }
    }
}

/// State shared by the service handle, the worker pool and the taps.
pub(super) struct ServiceInner {
    pub(super) shards: Vec<ShardSlot>,
    /// The serving clock (shared with the prototype's config) — stamps the
    /// staleness fold of [`super::MonitorService::remaining_time`].
    pub(super) clock: Arc<dyn Clock>,
    /// Set by shutdown before the final quiesce: taps refuse new events
    /// (returned to the sender, uncounted) while queued ones still drain.
    pub(super) stopping: AtomicBool,
    /// Serializes [`super::MonitorService::swap_selector`] broadcasts: two
    /// concurrent swaps must apply in the same order on every shard, or
    /// shards would serve different models under the same epoch.
    pub(super) swap_lock: Mutex<()>,
    /// Handle into the worker pool (set once at construction; the runtime
    /// body needs `ServiceInner` and the tap needs the runtime, so the
    /// cycle is tied here).
    pub(super) runtime: OnceLock<Arc<RuntimeShared>>,
    /// The service's metrics registry: the shards' counters, the
    /// service-level instrumentation and the runtime's counters all
    /// register here — [`super::MonitorService::metrics`] scrapes it.
    /// Taken from [`crate::MonitorConfig::metrics`] when set, created
    /// fresh otherwise.
    pub(super) metrics: Arc<MetricsRegistry>,
    /// Control-plane event ring (swap installed/refused, shard panics),
    /// stamped by the service clock.
    pub(super) ring: TraceRing,
    /// Service-level latency/volume instrumentation.
    pub(super) obs: ServiceObs,
}

impl ServiceInner {
    pub(super) fn shard_of(&self, query: usize) -> usize {
        query % self.shards.len()
    }

    /// The one push body: append `batch` — events all owned by shard `si`
    /// — to the shard's queue under one lock, wake the shard task once,
    /// and return the `enqueued` count that covers them. `Err` hands the
    /// events back: the service is stopping (uncounted — the post-shutdown
    /// tap contract) or the shard is dead (counted in `events_rejected`:
    /// a refusal must not break the conservation law).
    fn push<B>(&self, si: usize, batch: B) -> Result<u64, B>
    where
        B: IntoIterator<Item = TraceEvent> + AsRef<[TraceEvent]>,
    {
        let slot = &self.shards[si];
        let count = batch.as_ref().len() as u64;
        if !slot.is_alive() {
            slot.counters.events_rejected.add(count);
            return Err(batch);
        }
        let target = {
            let mut queue = slot.lock_queue();
            // The stopping check lives *inside* the queue lock: shutdown
            // sets the flag and then cycles every queue lock before its
            // final quiesce, so any push that slips past here is either
            // visible to that quiesce (and drained) or refused.
            if self.stopping.load(Ordering::Acquire) {
                return Err(batch);
            }
            queue.extend(batch);
            slot.enqueued.fetch_add(count, Ordering::AcqRel) + count
        };
        if let Some(rt) = self.runtime.get() {
            rt.schedule(si);
        }
        // The shard may have died between the liveness check and the push;
        // its final drain may already have run, so sweep the queue here
        // (idempotent — drains count whatever they pop, exactly once).
        if !slot.is_alive() {
            self.drain_dead(si);
        }
        Ok(target)
    }

    /// Route one event to the shard owning its query ([`Self::push`]).
    pub(super) fn enqueue(&self, ev: TraceEvent) -> Result<u64, TraceEvent> {
        self.push(self.shard_of(ev.query()), [ev]).map_err(|[ev]| ev)
    }

    /// The shard task body: drain (up to) one batch of events into the
    /// core. Returns whether more events are already waiting. Runs on the
    /// worker pool; panics are caught here so the crash is accounted
    /// (shard marked dead, events counted rejected) before the runtime's
    /// own catch sees anything.
    pub(super) fn drain_batch(&self, si: usize) -> bool {
        let slot = &self.shards[si];
        if !slot.is_alive() {
            self.drain_dead(si);
            return false;
        }
        let batch: Vec<TraceEvent> = {
            let mut queue = slot.lock_queue();
            let n = INGEST_BATCH.min(queue.len());
            queue.drain(..n).collect()
        };
        if batch.is_empty() && !slot.poison_pill.load(Ordering::Acquire) {
            return false;
        }
        let total = batch.len() as u64;
        if total > 0 {
            self.obs.ingest_batch_len.record(total);
        }
        let done = AtomicU64::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // A poisoned core mutex means an earlier panic escaped without
            // marking the shard dead; treat it as a fresh crash.
            let mut core = slot.core.lock().expect("shard core poisoned");
            if slot.poison_pill.load(Ordering::Acquire) {
                panic!("injected shard panic (test hook)");
            }
            for ev in batch {
                let query = ev.query();
                // A served event is already visible: the core stored into
                // the query's cell. Only a defensive drop changes which
                // cells exist.
                if core.ingest_outcome(ev) == Ingested::Dropped {
                    slot.registry.write().unwrap_or_else(|e| e.into_inner()).remove(&query);
                }
                // Per-event accounting (not per batch): if a later event
                // in this batch panics the core, events already ingested
                // stay counted as ingested — the crash bookkeeping below
                // only rejects the genuinely unprocessed tail. (No stats
                // publish step: the core increments the same shared
                // atomics the read path loads.)
                done.fetch_add(1, Ordering::Relaxed);
                slot.add_processed(1);
            }
        }));
        if outcome.is_err() {
            self.kill_shard(si, total - done.load(Ordering::Relaxed));
        }
        slot.notify_drained();
        slot.is_alive() && !slot.lock_queue().is_empty()
    }

    /// Mark a shard dead and account the events it can no longer ingest:
    /// `unprocessed` from the batch that crashed, plus everything still
    /// queued. Every one lands in `events_rejected` *and* `processed` so
    /// quiesce waiters and the conservation law both stay exact.
    fn kill_shard(&self, si: usize, unprocessed: u64) {
        let slot = &self.shards[si];
        slot.alive.store(false, Ordering::Release);
        self.ring.emit(ObsEvent::ShardPanic { shard: si });
        if unprocessed > 0 {
            slot.counters.events_rejected.add(unprocessed);
            slot.add_processed(unprocessed);
        }
        self.drain_dead(si);
    }

    /// Sweep a dead shard's queue, counting the swept events as rejected.
    fn drain_dead(&self, si: usize) {
        let slot = &self.shards[si];
        let n = {
            let mut queue = slot.lock_queue();
            let n = queue.len() as u64;
            queue.clear();
            n
        };
        if n > 0 {
            slot.counters.events_rejected.add(n);
            slot.add_processed(n);
        }
        slot.notify_drained();
    }

    /// Wait until every event enqueued on `si` so far is accounted.
    pub(super) fn quiesce_shard(&self, si: usize) {
        let slot = &self.shards[si];
        let target = slot.enqueued.load(Ordering::Acquire);
        slot.wait_processed(target);
    }

    pub(super) fn quiesce(&self) {
        for si in 0..self.shards.len() {
            self.quiesce_shard(si);
        }
    }
}

/// The sink behind [`super::MonitorService::tap`]: each [`TraceEvent`]
/// goes to the shard owning its query — one queue push per event, one per
/// shard per batch, no broadcast. A dead shard's events come back as `Err`
/// **and** are counted in [`crate::ShardStats::events_rejected`]. Tap
/// volume is counted here, not in the engine: the engine cannot depend on
/// the obs crate, and the sink sees every event the tap emits (accepted
/// or refused).
impl TapSink for ServiceInner {
    fn send(&self, ev: TraceEvent) -> Result<(), TraceEvent> {
        self.obs.tap_events_total.inc();
        self.obs.tap_bytes_total.add(ev.payload_bytes() as u64);
        self.enqueue(ev).map(drop)
    }

    fn send_batch(&self, events: Vec<TraceEvent>) -> Result<(), Vec<TraceEvent>> {
        self.obs.tap_events_total.add(events.len() as u64);
        let bytes: usize = events.iter().map(TraceEvent::payload_bytes).sum();
        self.obs.tap_bytes_total.add(bytes as u64);
        let mut by_shard: Vec<Vec<TraceEvent>> = Vec::new();
        by_shard.resize_with(self.shards.len(), Vec::new);
        for ev in events {
            by_shard[self.shard_of(ev.query())].push(ev);
        }
        let mut returned = Vec::new();
        for (si, batch) in by_shard.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            if let Err(batch) = self.push(si, batch) {
                returned.extend(batch);
            }
        }
        if returned.is_empty() {
            Ok(())
        } else {
            Err(returned)
        }
    }
}
