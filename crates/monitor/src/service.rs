//! The sharded monitor service: N shards as cooperative tasks on a
//! work-stealing runtime, with a wait-free read path.
//!
//! [`MonitorService`] scales the [`ProgressMonitor`] core past one ingest
//! thread. Each shard owns the queries with `query % n_shards == shard`:
//! a plain single-threaded [`ProgressMonitor`] guarded by a mutex, an
//! event queue the tap pushes into, and a **published read snapshot** per
//! registered query. Shards are not threads — they are tasks on a small
//! hand-rolled work-stealing pool ([`crate::runtime`], sized and pinned
//! via [`crate::RuntimeConfig`] inside
//! [`MonitorConfig`](crate::MonitorConfig)); a shard task drains its event
//! queue in batches (amortizing wakeups under saturated ingest) and
//! republishes the affected query's snapshot after every event.
//!
//! **Reads never touch the ingest path.** `query_progress`,
//! `remaining_time`, `progress_at_deadline`, `status`, `stats` and friends
//! are wait-free loads from seqlocked snapshot cells — no channel send, no
//! queueing behind events, no lock shared with ingest. Under a saturated
//! tap the read tail stays flat (`benchmark/` reports it as `read_p99_ns`
//! on `ingest_saturate`). Writes (registration, unregister,
//! selector swaps) lock the owning shard's core directly; registration
//! quiesces the shard's queue first so the registered-before-first-event
//! contract of [`ProgressMonitor::register`] survives re-ordering-free.
//!
//! Default `remaining_time` folds staleness in ([`Eta::aged`]): a stalled
//! query's countdown keeps shrinking (and pins to 0) instead of freezing
//! at the last accepted speed sample. The event-stream-pure raw answer —
//! what the bit-identity equivalence suites pin — stays available as
//! [`MonitorService::remaining_time_at_last_event`].
//!
//! Dead shards degrade, never lie: a panicking shard task is caught, the
//! shard is marked dead, its queued events are counted as
//! `events_rejected` (the conservation law `ingested + unroutable +
//! rejected == sent` survives the crash), reads for its queries return
//! [`QueryError::ShardDown`], selector swaps report the affected shard ids
//! via [`SwapError`], and the frozen stats snapshot keeps serving.

use crate::eta::{Eta, StaleEta};
use crate::runtime::{Runtime, RuntimeObs, Shared as RuntimeShared};
use crate::shard::{
    PipelineStatus, ProgressMonitor, QueryStatus, QueryView, RegisterError, ShardCounters,
    ShardStats, SwitchEvent,
};
use prosel_core::selection::EstimatorSelector;
use prosel_engine::clock::Clock;
use prosel_engine::plan::PhysicalPlan;
use prosel_engine::trace::{TapSink, TraceEvent, TraceTap};
use prosel_estimators::{EstimatorKind, ONLINE_KINDS};
use prosel_obs::{
    Counter, Histogram, MetricsRegistry, MetricsSnapshot, ObsEvent, ObsOptions, TraceRing,
};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// Why a [`MonitorService`] read could not be served.
///
/// The two failure modes are operationally different — an unknown query is
/// the caller's bug (or a completed/unregistered query), a dead shard is a
/// service-health incident — so the read APIs surface them as distinct
/// typed values instead of flattening both into `None` (the read-side
/// mirror of [`RegisterError`]'s non-panicking admission).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// The query (or the requested pipeline of it) is not registered on
    /// its owning shard: never registered, already unregistered, or
    /// dropped after a corrupt/late-joined stream.
    QueryUnknown(usize),
    /// The shard owning this query is dead (its task panicked) or the
    /// service is shutting down.
    ShardDown,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::QueryUnknown(q) => write!(f, "query {q} is not registered"),
            QueryError::ShardDown => write!(f, "owning shard is dead"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A selector swap reached only part of the service: one or more shards
/// were dead, so the surviving shards now serve the new model while the
/// dead ones are frozen on the old one.
///
/// The swap **is applied** to every surviving shard (new registrations
/// there score with the new model under the bumped epoch); the error makes
/// the partial broadcast visible instead of silently reporting success —
/// the channel design's silent-partial-swap hole. A caller that cannot
/// tolerate mixed models should treat this as a service-health incident
/// (the dead shards need replacing anyway; they also fail every read).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapError {
    /// Shard ids the broadcast could not reach (dead tasks), ascending.
    pub shards: Vec<usize>,
    /// The epoch the surviving shards now serve, if any survived.
    pub epoch: Option<u64>,
}

impl std::fmt::Display for SwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "selector swap missed {} dead shard(s) {:?}", self.shards.len(), self.shards)?;
        match self.epoch {
            Some(e) => write!(f, "; surviving shards serve epoch {e}"),
            None => write!(f, "; no shard survived"),
        }
    }
}

impl std::error::Error for SwapError {}

// ---------------------------------------------------------------------------
// Seqlock: versioned wait-free snapshot cells.
// ---------------------------------------------------------------------------

/// A sequence lock over all-atomic payload fields. Writers (always under
/// the owning shard's core mutex, so mutually exclusive) bump the version
/// to odd, store the payload, and bump to even; readers retry while the
/// version is odd or changed across their payload loads. Readers never
/// block and never write shared state — the read path stays wait-free for
/// any number of concurrent readers, and an ingest burst can at worst make
/// a reader retry a few loads.
struct SeqLock {
    version: AtomicU64,
}

impl SeqLock {
    fn new() -> SeqLock {
        SeqLock { version: AtomicU64::new(0) }
    }

    fn write<R>(&self, f: impl FnOnce() -> R) -> R {
        let v = self.version.load(Ordering::Relaxed);
        self.version.store(v.wrapping_add(1), Ordering::Relaxed);
        // Order the odd-version store before the payload stores.
        fence(Ordering::Release);
        let out = f();
        self.version.store(v.wrapping_add(2), Ordering::Release);
        out
    }

    fn read<R>(&self, f: impl Fn() -> R) -> R {
        loop {
            let v1 = self.version.load(Ordering::Acquire);
            if v1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let out = f();
            // Order the payload loads before the version re-check.
            fence(Ordering::Acquire);
            if self.version.load(Ordering::Relaxed) == v1 {
                return out;
            }
        }
    }
}

fn store_f64(cell: &AtomicU64, value: f64) {
    cell.store(value.to_bits(), Ordering::Relaxed);
}

fn load_f64(cell: &AtomicU64) -> f64 {
    f64::from_bits(cell.load(Ordering::Relaxed))
}

/// `EstimatorKind` has no stable numeric contract, so the snapshot cells
/// store an index into [`ONLINE_KINDS`] (only online kinds can ever be a
/// pipeline's choice — the oracle kinds are refused at construction and
/// selectors only score online candidates).
fn kind_to_code(kind: EstimatorKind) -> usize {
    ONLINE_KINDS.iter().position(|&k| k == kind).expect("pipeline choices are online kinds")
}

fn kind_from_code(code: usize) -> EstimatorKind {
    ONLINE_KINDS[code.min(ONLINE_KINDS.len() - 1)]
}

// ---------------------------------------------------------------------------
// Published snapshots.
// ---------------------------------------------------------------------------

/// Snapshot of one pipeline, inside a [`QuerySlot`]'s seqlock.
struct PipeCell {
    /// Pipeline id (immutable; plans don't change under a registration).
    pipeline: usize,
    /// Index into [`ONLINE_KINDS`] of the estimator currently in charge.
    estimator: AtomicUsize,
    progress: AtomicU64,
    observations: AtomicUsize,
}

/// The published read snapshot of one registered query. Written by the
/// owning shard (under its core mutex) after every ingested event; read
/// wait-free by any thread.
struct QuerySlot {
    /// Selector epoch at registration (immutable for the slot's lifetime).
    epoch: u64,
    seq: SeqLock,
    progress: AtomicU64,
    time: AtomicU64,
    finished: AtomicBool,
    // Raw at-last-event Eta, field by field (f64s as bit patterns).
    eta_as_of: AtomicU64,
    eta_progress: AtomicU64,
    eta_samples: AtomicUsize,
    eta_speed: AtomicU64,
    eta_remaining: AtomicU64,
    eta_lo: AtomicU64,
    eta_hi: AtomicU64,
    pipes: Box<[PipeCell]>,
    /// Switch history (append-only). A mutex, not the seqlock: it is
    /// unbounded, read rarely, and still never touches the ingest path —
    /// the publisher appends only new tail entries while holding the core
    /// mutex, so a reader blocks at most for a short memcpy.
    switches: Mutex<Vec<SwitchEvent>>,
    /// How many switches the publisher has appended — its own note (one
    /// writer, under the core mutex), so that an event without a new
    /// switch, which is nearly every event, does not take the lock.
    switches_published: AtomicUsize,
}

impl QuerySlot {
    fn new(view: &QueryView<'_>) -> QuerySlot {
        let slot = QuerySlot {
            epoch: view.epoch,
            seq: SeqLock::new(),
            progress: AtomicU64::new(0),
            time: AtomicU64::new(0),
            finished: AtomicBool::new(false),
            eta_as_of: AtomicU64::new(0),
            eta_progress: AtomicU64::new(0),
            eta_samples: AtomicUsize::new(0),
            eta_speed: AtomicU64::new(0),
            eta_remaining: AtomicU64::new(0),
            eta_lo: AtomicU64::new(0),
            eta_hi: AtomicU64::new(0),
            pipes: view
                .pipes
                .iter()
                .map(|p| PipeCell {
                    pipeline: p.obs.pipeline_id(),
                    estimator: AtomicUsize::new(kind_to_code(p.choice)),
                    progress: AtomicU64::new(0),
                    observations: AtomicUsize::new(0),
                })
                .collect(),
            switches: Mutex::new(Vec::new()),
            switches_published: AtomicUsize::new(0),
        };
        slot.publish(view);
        slot
    }

    /// Re-publish from the shard core's current state. Caller holds the
    /// owning shard's core mutex (writer exclusivity).
    fn publish(&self, view: &QueryView<'_>) {
        self.seq.write(|| {
            store_f64(&self.progress, view.progress);
            store_f64(&self.time, view.time);
            self.finished.store(view.finished, Ordering::Relaxed);
            store_f64(&self.eta_as_of, view.eta.as_of);
            store_f64(&self.eta_progress, view.eta.progress);
            self.eta_samples.store(view.eta.samples, Ordering::Relaxed);
            store_f64(&self.eta_speed, view.eta.speed);
            store_f64(&self.eta_remaining, view.eta.remaining);
            store_f64(&self.eta_lo, view.eta.remaining_lo);
            store_f64(&self.eta_hi, view.eta.remaining_hi);
            for (cell, pipe) in self.pipes.iter().zip(view.pipes) {
                cell.estimator.store(kind_to_code(pipe.choice), Ordering::Relaxed);
                let progress =
                    if view.finished { 1.0 } else { pipe.obs.value(pipe.choice).unwrap_or(0.0) };
                store_f64(&cell.progress, progress);
                cell.observations.store(pipe.obs.len(), Ordering::Relaxed);
            }
        });
        let seen = self.switches_published.load(Ordering::Relaxed);
        if seen < view.switches.len() {
            let mut switches = self.switches.lock().unwrap_or_else(|e| e.into_inner());
            switches.extend_from_slice(&view.switches[seen..]);
            self.switches_published.store(view.switches.len(), Ordering::Relaxed);
        }
    }

    fn read_eta(&self) -> Eta {
        self.seq.read(|| Eta {
            as_of: load_f64(&self.eta_as_of),
            progress: load_f64(&self.eta_progress),
            samples: self.eta_samples.load(Ordering::Relaxed),
            speed: load_f64(&self.eta_speed),
            remaining: load_f64(&self.eta_remaining),
            remaining_lo: load_f64(&self.eta_lo),
            remaining_hi: load_f64(&self.eta_hi),
        })
    }

    fn read_status(&self, query: usize) -> QueryStatus {
        self.seq.read(|| QueryStatus {
            query,
            progress: load_f64(&self.progress),
            time: load_f64(&self.time),
            finished: self.finished.load(Ordering::Relaxed),
            pipelines: self
                .pipes
                .iter()
                .map(|cell| PipelineStatus {
                    pipeline: cell.pipeline,
                    estimator: kind_from_code(cell.estimator.load(Ordering::Relaxed)),
                    progress: load_f64(&cell.progress),
                    observations: cell.observations.load(Ordering::Relaxed),
                })
                .collect(),
        })
    }
}

/// Service-level instrumentation: read/registration/swap latency
/// histograms, tap volume, ingest batch sizes. All handles live in the
/// service registry (`service_*` / `tap_*` names); the hot read path
/// touches one counter unconditionally and a clock only on sampled
/// reads.
struct ServiceObs {
    reads_total: Arc<Counter>,
    read_ns: Arc<Histogram>,
    register_ns: Arc<Histogram>,
    swap_ns: Arc<Histogram>,
    /// Events the engine tap handed to the router (counted there — the
    /// engine cannot depend on the obs crate).
    tap_events_total: Arc<Counter>,
    /// Estimated wire bytes of those events ([`TraceEvent::payload_bytes`]).
    tap_bytes_total: Arc<Counter>,
    ingest_batch_len: Arc<Histogram>,
    stride: u64,
}

impl ServiceObs {
    fn new(registry: &MetricsRegistry, options: ObsOptions) -> ServiceObs {
        ServiceObs {
            reads_total: registry.counter("service_reads_total"),
            read_ns: registry.histogram("service_read_ns"),
            register_ns: registry.histogram("service_register_ns"),
            swap_ns: registry.histogram("service_swap_ns"),
            tap_events_total: registry.counter("tap_events_total"),
            tap_bytes_total: registry.counter("tap_bytes_total"),
            ingest_batch_len: registry.histogram("service_ingest_batch_len"),
            stride: options.stride() as u64,
        }
    }

    /// Count one read; start a timer on 1-in-N sampled reads. The
    /// sampling tick is the read counter itself — one `fetch_add` total,
    /// so timing adds no shared-cacheline traffic to unsampled reads.
    fn read_timer(&self) -> Option<Instant> {
        self.reads_total.tick().is_multiple_of(self.stride).then(Instant::now)
    }

    fn read_done(&self, timer: Option<Instant>) {
        if let Some(start) = timer {
            self.read_ns.record(start.elapsed().as_nanos() as u64);
        }
    }
}

// ---------------------------------------------------------------------------
// Shards.
// ---------------------------------------------------------------------------

/// One shard: the single-threaded monitor core, its event queue, and the
/// published snapshots reads are served from.
struct ShardSlot {
    /// Events the tap routed here, awaiting the shard task.
    queue: Mutex<VecDeque<TraceEvent>>,
    /// Events ever accepted into `queue` (monotone).
    enqueued: AtomicU64,
    /// Events removed from `queue` and fully accounted — ingested by the
    /// core, or counted as rejected on a dead shard. `processed ==
    /// enqueued` means the queue is drained (the quiesce condition).
    processed: AtomicU64,
    alive: AtomicBool,
    /// Test hook: make the next drain pass panic mid-ingest (exercising
    /// the real crash path, poisoned core mutex included).
    poison_pill: AtomicBool,
    /// The shard's monitor core. Writers only: the shard task (ingest),
    /// registration, unregister, swaps. Never touched by reads.
    core: Mutex<ProgressMonitor>,
    /// Published per-query read snapshots.
    registry: RwLock<HashMap<usize, Arc<QuerySlot>>>,
    /// The shard core's own counter handles, cloned: the same atomics the
    /// core increments, readable here without its mutex. Single source of
    /// truth — a dead (poisoned-mutex) shard's stats stay readable, and
    /// [`ShardStats`] readouts equal a registry scrape by construction.
    /// The slot (not the core) owns the `events_rejected` increments: the
    /// router and dead-queue sweeps count refusals here.
    counters: ShardCounters,
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
    fn new(core: ProgressMonitor, wakes: Arc<Counter>) -> ShardSlot {
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

    fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    fn lock_queue(&self) -> MutexGuard<'_, VecDeque<TraceEvent>> {
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
    fn wait_processed(&self, target: u64) {
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

    fn read_stats(&self) -> ShardStats {
        self.counters.load()
    }
}

/// State shared by the service handle, the worker pool and the taps.
struct ServiceInner {
    shards: Vec<ShardSlot>,
    /// The serving clock (shared with the prototype's config) — stamps the
    /// staleness fold of [`MonitorService::remaining_time`].
    clock: Arc<dyn Clock>,
    /// [`crate::RuntimeConfig::ingest_batch`], clamped to ≥ 1.
    ingest_batch: usize,
    /// Set by shutdown before the final quiesce: taps refuse new events
    /// (returned to the sender, uncounted) while queued ones still drain.
    stopping: AtomicBool,
    /// Serializes [`MonitorService::swap_selector`] broadcasts: two
    /// concurrent swaps must apply in the same order on every shard, or
    /// shards would serve different models under the same epoch.
    swap_lock: Mutex<()>,
    /// Handle into the worker pool (set once at construction; the runtime
    /// body needs `ServiceInner` and the tap needs the runtime, so the
    /// cycle is tied here).
    runtime: OnceLock<Arc<RuntimeShared>>,
    /// The service's metrics registry: the shards' counters, the
    /// service-level instrumentation and the runtime's counters all
    /// register here — [`MonitorService::metrics`] scrapes it. Taken from
    /// [`crate::MonitorConfig::metrics`] when set, created fresh
    /// otherwise.
    metrics: Arc<MetricsRegistry>,
    /// Control-plane event ring (swap installed/refused, shard panics),
    /// stamped by the service clock.
    ring: TraceRing,
    /// Service-level latency/volume instrumentation.
    obs: ServiceObs,
}

impl ServiceInner {
    fn shard_of(&self, query: usize) -> usize {
        query % self.shards.len()
    }

    /// Push one event onto its owning shard's queue and wake the shard
    /// task. `Err(ev)` returns the event to the caller: the service is
    /// stopping (uncounted, matching the old post-shutdown tap contract)
    /// or the shard is dead (counted in `events_rejected` — the router
    /// must not break the conservation law, satellite of ISSUE 7).
    fn enqueue(&self, ev: TraceEvent) -> Result<u64, TraceEvent> {
        let si = self.shard_of(ev.query());
        let slot = &self.shards[si];
        if !slot.is_alive() {
            slot.counters.events_rejected.inc();
            return Err(ev);
        }
        let target = {
            let mut queue = slot.lock_queue();
            // The stopping check lives *inside* the queue lock: shutdown
            // sets the flag and then cycles every queue lock before its
            // final quiesce, so any push that slips past here is either
            // visible to that quiesce (and drained) or refused.
            if self.stopping.load(Ordering::Acquire) {
                return Err(ev);
            }
            queue.push_back(ev);
            slot.enqueued.fetch_add(1, Ordering::AcqRel) + 1
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

    /// Batched [`Self::enqueue`]: group by shard, one queue lock and one
    /// wakeup per shard. Returns the events that could not be accepted.
    fn enqueue_batch(&self, events: Vec<TraceEvent>) -> Vec<TraceEvent> {
        let n = self.shards.len();
        let mut by_shard: Vec<Vec<TraceEvent>> = Vec::new();
        by_shard.resize_with(n, Vec::new);
        let mut returned = Vec::new();
        for ev in events {
            by_shard[self.shard_of(ev.query())].push(ev);
        }
        for (si, batch) in by_shard.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let slot = &self.shards[si];
            if !slot.is_alive() {
                slot.counters.events_rejected.add(batch.len() as u64);
                returned.extend(batch);
                continue;
            }
            let count = batch.len() as u64;
            {
                let mut queue = slot.lock_queue();
                // Same stopping-inside-the-lock protocol as `enqueue`.
                if self.stopping.load(Ordering::Acquire) {
                    returned.extend(batch);
                    continue;
                }
                queue.extend(batch);
                slot.enqueued.fetch_add(count, Ordering::AcqRel);
            }
            if let Some(rt) = self.runtime.get() {
                rt.schedule(si);
            }
            if !slot.is_alive() {
                self.drain_dead(si);
            }
        }
        returned
    }

    /// The shard task body: drain (up to) one batch of events into the
    /// core and republish the touched snapshots. Returns whether more
    /// events are already waiting. Runs on the worker pool; panics are
    /// caught here so the crash is accounted (shard marked dead, events
    /// counted rejected) before the runtime's own catch sees anything.
    fn drain_batch(&self, si: usize) -> bool {
        let slot = &self.shards[si];
        if !slot.is_alive() {
            self.drain_dead(si);
            return false;
        }
        let batch: Vec<TraceEvent> = {
            let mut queue = slot.lock_queue();
            let n = self.ingest_batch.min(queue.len());
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
                match core.ingest_view(ev) {
                    Some(view) => {
                        let registry = slot.registry.read().unwrap_or_else(|e| e.into_inner());
                        if let Some(qslot) = registry.get(&query) {
                            qslot.publish(&view);
                        }
                    }
                    None => {
                        // Unroutable, or the event triggered a defensive
                        // state drop — retire the published snapshot (if
                        // one exists; probe with the read lock first so a
                        // saturated unroutable stream never takes the
                        // write lock the read path contends on).
                        let published = slot
                            .registry
                            .read()
                            .unwrap_or_else(|e| e.into_inner())
                            .contains_key(&query);
                        if published {
                            slot.registry.write().unwrap_or_else(|e| e.into_inner()).remove(&query);
                        }
                    }
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
    fn quiesce_shard(&self, si: usize) {
        let slot = &self.shards[si];
        let target = slot.enqueued.load(Ordering::Acquire);
        slot.wait_processed(target);
    }

    fn quiesce(&self) {
        for si in 0..self.shards.len() {
            self.quiesce_shard(si);
        }
    }
}

/// Routes each [`TraceEvent`] to the shard owning its query — the sink
/// behind [`MonitorService::tap`]. One queue push per event (one per shard
/// per batch via [`TapSink::send_batch`]), no broadcast. A dead shard's
/// events come back as `Err` **and** are counted in
/// [`ShardStats::events_rejected`] — the router refuses cleanly instead of
/// panicking on the dead worker's channel like the old design did.
struct ShardRouter {
    inner: Arc<ServiceInner>,
}

impl TapSink for ShardRouter {
    fn send(&self, ev: TraceEvent) -> Result<(), TraceEvent> {
        // Tap volume is counted here, not in the engine: the engine
        // cannot depend on the obs crate, and the router sees every
        // event the tap emits (accepted or refused).
        self.inner.obs.tap_events_total.inc();
        self.inner.obs.tap_bytes_total.add(ev.payload_bytes() as u64);
        self.inner.enqueue(ev).map(|_| ())
    }

    fn send_batch(&self, events: Vec<TraceEvent>) -> Result<(), Vec<TraceEvent>> {
        self.inner.obs.tap_events_total.add(events.len() as u64);
        let bytes: usize = events.iter().map(TraceEvent::payload_bytes).sum();
        self.inner.obs.tap_bytes_total.add(bytes as u64);
        let returned = self.inner.enqueue_batch(events);
        if returned.is_empty() {
            Ok(())
        } else {
            Err(returned)
        }
    }
}

/// Sharded, concurrent-safe progress monitor service with a wait-free read
/// path. See the module docs for the architecture and the crate docs for
/// when to prefer the plain [`ProgressMonitor`].
pub struct MonitorService {
    inner: Arc<ServiceInner>,
    runtime: Runtime,
}

impl MonitorService {
    /// Scale `prototype` across `n_shards` shard tasks (clamped to ≥ 1) —
    /// the service form of [`crate::MonitorBuilder`]. Every shard is a
    /// fork of `prototype` (same policy, config, selector epoch and —
    /// notably — harvest sink, so one learning loop is fed from all
    /// shards); forks start with no registered queries. The prototype's
    /// [`crate::RuntimeConfig`] (inside its [`crate::MonitorConfig`])
    /// sizes and pins the worker pool.
    pub(crate) fn spawn(mut prototype: ProgressMonitor, n_shards: usize) -> MonitorService {
        let n = n_shards.max(1);
        // Every service has a scrapeable registry: the configured one, or
        // a private one when the caller supplied none. Shard forks pick it
        // up through the prototype's config.
        let metrics = prototype.ensure_metrics();
        let obs_options = prototype.config().obs;
        let runtime_config = prototype.config().runtime.clone();
        let clock = Arc::clone(&prototype.config().clock);
        let shards = (0..n)
            .map(|si| {
                let wakes = metrics.counter(&format!("monitor_shard{si}_quiesce_wakes_total"));
                ShardSlot::new(prototype.fork(si), wakes)
            })
            .collect();
        let obs = ServiceObs::new(&metrics, obs_options);
        let ring = TraceRing::new(256, Arc::clone(&clock));
        let runtime_obs = Arc::new(RuntimeObs::from_registry(&metrics));
        let inner = Arc::new(ServiceInner {
            shards,
            clock,
            ingest_batch: runtime_config.ingest_batch.max(1),
            stopping: AtomicBool::new(false),
            swap_lock: Mutex::new(()),
            runtime: OnceLock::new(),
            metrics,
            ring,
            obs,
        });
        let body: Arc<dyn Fn(usize) -> bool + Send + Sync> = {
            let inner = Arc::clone(&inner);
            Arc::new(move |task| inner.drain_batch(task))
        };
        let runtime = Runtime::spawn_observed(n, &runtime_config, body, Some(runtime_obs));
        let _ = inner.runtime.set(runtime.shared());
        MonitorService { inner, runtime }
    }

    /// Number of shards (tasks, not threads — see [`Self::n_workers`]).
    pub fn n_shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// Number of pool workers executing the shard tasks.
    pub fn n_workers(&self) -> usize {
        self.runtime.worker_count()
    }

    /// Block until every event enqueued so far (tap or
    /// [`Self::ingest`]) has been drained into shard state — the explicit
    /// read-your-writes barrier. Reads are wait-free snapshots and do
    /// **not** queue behind ingest, so a caller that just finished a
    /// tapped run quiesces once before asserting on final state.
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
    /// plan, or `Arc<PhysicalPlan>` (no deep clone for shared plans).
    pub fn try_register(
        &self,
        query: usize,
        plan: impl Into<Arc<PhysicalPlan>>,
    ) -> Result<(), RegisterError> {
        let start = Instant::now();
        let plan: Arc<PhysicalPlan> = plan.into();
        let si = self.inner.shard_of(query);
        let slot = &self.inner.shards[si];
        if !slot.is_alive() {
            return Err(RegisterError::ShardDown);
        }
        self.inner.quiesce_shard(si);
        let mut core = slot.core.lock().map_err(|_| RegisterError::ShardDown)?;
        let result = core.try_register(query, plan);
        if result.is_ok() {
            let view = core.query_view(query).expect("query registered above");
            slot.registry
                .write()
                .unwrap_or_else(|e| e.into_inner())
                .insert(query, Arc::new(QuerySlot::new(&view)));
        }
        self.inner.obs.register_ns.record(start.elapsed().as_nanos() as u64);
        result
    }

    /// Register many queries against one plan with **one quiesce + core
    /// lock per shard** instead of one per query — the admission path for
    /// bulk workloads. Returns one `(query, result)` pair per input query;
    /// queries owned by a dead shard report [`RegisterError::ShardDown`].
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
        for (si, queries) in by_shard.into_iter().enumerate() {
            if queries.is_empty() {
                continue;
            }
            let slot = &self.inner.shards[si];
            if !slot.is_alive() {
                out.extend(queries.into_iter().map(|q| (q, Err(RegisterError::ShardDown))));
                continue;
            }
            self.inner.quiesce_shard(si);
            let Ok(mut core) = slot.core.lock() else {
                out.extend(queries.into_iter().map(|q| (q, Err(RegisterError::ShardDown))));
                continue;
            };
            for q in queries {
                let result = core.try_register(q, Arc::clone(&plan));
                if result.is_ok() {
                    let view = core.query_view(q).expect("query registered above");
                    slot.registry
                        .write()
                        .unwrap_or_else(|e| e.into_inner())
                        .insert(q, Arc::new(QuerySlot::new(&view)));
                }
                out.push((q, result));
            }
        }
        out
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
        self.inner.quiesce_shard(si);
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
        TraceTap::from_sink(Arc::new(ShardRouter { inner: Arc::clone(&self.inner) }))
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

    /// Look up the published snapshot of `query`. Wait-free apart from the
    /// registry read lock (held for a hash probe; writers touch it only at
    /// register/unregister/drop, never per event).
    fn slot(&self, query: usize) -> Result<Arc<QuerySlot>, QueryError> {
        let shard = &self.inner.shards[self.inner.shard_of(query)];
        if !shard.is_alive() {
            return Err(QueryError::ShardDown);
        }
        let registry = shard.registry.read().unwrap_or_else(|e| e.into_inner());
        registry.get(&query).cloned().ok_or(QueryError::QueryUnknown(query))
    }

    /// Estimated progress of `query` in [0, 1] — the
    /// [`ProgressMonitor::query_progress`] contract, served from the
    /// published snapshot (wait-free; never queues behind ingest).
    /// Unregistered queries and dead shards come back as distinct
    /// [`QueryError`] values.
    pub fn query_progress(&self, query: usize) -> Result<f64, QueryError> {
        let timer = self.inner.obs.read_timer();
        let out = self.slot(query).map(|slot| slot.seq.read(|| load_f64(&slot.progress)));
        self.inner.obs.read_done(timer);
        out
    }

    /// Latest progress estimate of one pipeline.
    pub fn pipeline_progress(&self, query: usize, pipeline: usize) -> Result<f64, QueryError> {
        let slot = self.slot(query)?;
        let cell = slot.pipes.get(pipeline).ok_or(QueryError::QueryUnknown(query))?;
        Ok(slot.seq.read(|| load_f64(&cell.progress)))
    }

    /// Full live status of one query.
    pub fn status(&self, query: usize) -> Result<QueryStatus, QueryError> {
        let timer = self.inner.obs.read_timer();
        let out = self.slot(query).map(|slot| slot.read_status(query));
        self.inner.obs.read_done(timer);
        out
    }

    /// Has the engine reported this query's termination?
    pub fn is_finished(&self, query: usize) -> Result<bool, QueryError> {
        let slot = self.slot(query)?;
        Ok(slot.seq.read(|| slot.finished.load(Ordering::Relaxed)))
    }

    /// The estimator-switch history of a query (owned copy).
    pub fn switch_history(&self, query: usize) -> Result<Vec<SwitchEvent>, QueryError> {
        let slot = self.slot(query)?;
        let switches = slot.switches.lock().unwrap_or_else(|e| e.into_inner());
        Ok(switches.clone())
    }

    /// Wall-clock remaining-time answer for `query` — the
    /// [`ProgressMonitor::remaining_time`] contract: the at-last-event ETA
    /// **with staleness folded in** ([`Eta::aged`] against the service's
    /// configured clock), so a stalled query's countdown keeps shrinking
    /// and pins to 0 instead of freezing at the last accepted speed
    /// sample. Served wait-free from the published snapshot. The raw
    /// event-stream-pure variant is
    /// [`Self::remaining_time_at_last_event`].
    pub fn remaining_time(&self, query: usize) -> Result<Eta, QueryError> {
        Ok(self.remaining_time_at_last_event(query)?.aged(self.inner.clock.now()))
    }

    /// [`Self::remaining_time`] without the staleness fold: point +
    /// interval ETA exactly as of the latest accepted event, a pure
    /// function of the ingested stream (bit-deterministic under a manual
    /// clock — the equivalence suites pin service-vs-monitor bit-identity
    /// on this variant).
    pub fn remaining_time_at_last_event(&self, query: usize) -> Result<Eta, QueryError> {
        let timer = self.inner.obs.read_timer();
        let out = self.slot(query).map(|slot| slot.read_eta());
        self.inner.obs.read_done(timer);
        out
    }

    /// [`Self::remaining_time_at_last_event`] plus its staleness: the raw
    /// [`Eta`] paired with how far the serving clock has advanced past
    /// [`Eta::as_of`] — the [`ProgressMonitor::remaining_time_with_age`]
    /// contract, wait-free.
    pub fn remaining_time_with_age(&self, query: usize) -> Result<StaleEta, QueryError> {
        let eta = self.remaining_time_at_last_event(query)?;
        Ok(StaleEta::at(eta, self.inner.clock.now()))
    }

    /// The selector epoch `query` was registered under.
    pub fn query_selector_epoch(&self, query: usize) -> Result<u64, QueryError> {
        Ok(self.slot(query)?.epoch)
    }

    /// Bounded-staleness progress prediction at wall instant `deadline` —
    /// the [`ProgressMonitor::progress_at_deadline`] contract, recomputed
    /// bit-identically from the published ETA snapshot (the snapshot
    /// carries the tracker's latest sample and end-to-end speed, which is
    /// everything [`crate::SpeedTracker::progress_at`] consults).
    pub fn progress_at_deadline(&self, query: usize, deadline: f64) -> Result<f64, QueryError> {
        let timer = self.inner.obs.read_timer();
        let out = self.progress_at_deadline_inner(query, deadline);
        self.inner.obs.read_done(timer);
        out
    }

    fn progress_at_deadline_inner(&self, query: usize, deadline: f64) -> Result<f64, QueryError> {
        let slot = self.slot(query)?;
        Ok(slot.seq.read(|| {
            if slot.finished.load(Ordering::Relaxed) {
                return 1.0;
            }
            let samples = slot.eta_samples.load(Ordering::Relaxed);
            if samples == 0 {
                return 0.0;
            }
            let as_of = load_f64(&slot.eta_as_of);
            let progress = load_f64(&slot.eta_progress);
            if !deadline.is_finite() || deadline <= as_of {
                return progress;
            }
            if samples < 2 {
                return progress;
            }
            let speed = load_f64(&slot.eta_speed);
            (progress + speed * (deadline - as_of)).clamp(0.0, 1.0)
        }))
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

    /// Queries currently registered across all shards, ascending.
    /// Quiesces first so defensive drops from already-enqueued events are
    /// reflected (the admin-API mirror of the old FIFO round-trip).
    pub fn registered_queries(&self) -> Vec<usize> {
        self.inner.quiesce();
        let mut all = Vec::new();
        for slot in &self.inner.shards {
            let registry = slot.registry.read().unwrap_or_else(|e| e.into_inner());
            all.extend(registry.keys().copied());
        }
        all.sort_unstable();
        all
    }

    /// Per-shard operation counters, in shard order — the traffic
    /// harness's invariant and interference hook. Wait-free: served from
    /// each shard's published stats snapshot (republished after every
    /// event), so it never queues behind ingest; call [`Self::quiesce`]
    /// first when the readout must reflect every event already sent. Dead
    /// shards serve their counters frozen at the crash plus a live
    /// `events_rejected`, so the conservation law `ingested + unroutable +
    /// rejected == sent` stays exact service-wide — which is why this
    /// cannot fail: the `Result` is kept for API stability and is always
    /// `Ok`.
    pub fn shard_stats(&self) -> Result<Vec<ShardStats>, QueryError> {
        Ok(self.inner.shards.iter().map(ShardSlot::read_stats).collect())
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

    /// Re-seat checkpointed per-shard state (builder restore path). Must
    /// run before any registration; one state per shard, in shard order.
    pub(crate) fn restore_harvest_states(
        &self,
        states: &[crate::HarvestState],
    ) -> Result<(), crate::MonitorError> {
        if states.len() != self.inner.shards.len() {
            return Err(crate::MonitorError::Restore(format!(
                "{} checkpointed shard state(s) for a {}-shard service",
                states.len(),
                self.inner.shards.len()
            )));
        }
        for (slot, state) in self.inner.shards.iter().zip(states) {
            let mut core = slot.core.lock().map_err(|_| {
                crate::MonitorError::Restore("shard died during restore".to_string())
            })?;
            core.restore_harvest_state(state);
        }
        Ok(())
    }

    /// Deliberately crash one shard task — test hook for the crash-path
    /// suites (dead-shard reads, partial swaps, conservation under
    /// failure). Sets a poison pill, schedules the shard, and waits until
    /// the task has panicked through the real ingest path (poisoning the
    /// core mutex exactly like an organic crash). No-op on an
    /// already-dead shard.
    #[doc(hidden)]
    pub fn inject_shard_panic(&self, shard: usize) {
        let slot = &self.inner.shards[shard % self.inner.shards.len()];
        if !slot.is_alive() {
            return;
        }
        slot.poison_pill.store(true, Ordering::Release);
        if let Some(rt) = self.inner.runtime.get() {
            rt.schedule(shard % self.inner.shards.len());
        }
        while slot.is_alive() {
            std::thread::yield_now();
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
        // stop the pool (its own shutdown also runs queued tasks dry).
        self.inner.stopping.store(true, Ordering::Release);
        // Cycle every queue lock: a racing enqueue either completed its
        // push before this barrier (so the quiesce below sees and drains
        // it while the workers are still up) or takes the lock after it
        // and observes `stopping` — no event can slip in unprocessed
        // between the quiesce and the pool teardown.
        for slot in &self.inner.shards {
            drop(slot.lock_queue());
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
mod tests {
    use super::*;
    use crate::shard::test_support::dne;
    use prosel_engine::plan::{OperatorKind, PlanNode};
    use prosel_engine::trace::Snapshot;

    fn scan_plan() -> PhysicalPlan {
        PhysicalPlan {
            nodes: vec![PlanNode {
                op: OperatorKind::TableScan { table: "t".into(), cols: vec![0] },
                children: vec![],
                est_rows: 100.0,
                est_row_bytes: 8.0,
                out_cols: 1,
            }],
            root: 0,
        }
    }

    fn snapshot_event(query: usize, seq: u64, time: f64, k: u64) -> TraceEvent {
        TraceEvent::Snapshot {
            query,
            seq,
            // Tests stamp wall == virtual time (one tick per second).
            wall: time,
            snapshot: Snapshot {
                time,
                k: vec![k].into_boxed_slice(),
                bytes_read: vec![k * 8].into_boxed_slice(),
                bytes_written: vec![0].into_boxed_slice(),
                materialized: vec![0].into_boxed_slice(),
            },
            windows: vec![(1.0, time)].into_boxed_slice(),
        }
    }

    #[test]
    fn routes_registration_ingest_and_reads_by_query_id() {
        let plan = scan_plan();
        let service = dne().shards(4).build_service().unwrap();
        assert_eq!(service.n_shards(), 4);
        assert!(service.n_workers() >= 1);
        // Query ids chosen to land on distinct shards (mod 4).
        for q in [0usize, 1, 2, 3, 7] {
            service.register(q, &plan);
        }
        let tap = service.tap();
        for q in [0usize, 1, 2, 3, 7] {
            tap.send(snapshot_event(q, 0, 10.0, 25 * (q as u64 % 4 + 1))).unwrap();
        }
        // Reads are wait-free snapshots: quiesce is the read-your-writes
        // barrier after tap sends (ingest() below needs none).
        service.quiesce();
        assert!((service.query_progress(0).unwrap() - 0.25).abs() < 1e-12);
        assert!((service.query_progress(3).unwrap() - 1.0).abs() < 1e-12);
        // Shard of query 7 (7 % 4 == 3) holds both 3 and 7.
        assert_eq!(service.registered_queries(), vec![0, 1, 2, 3, 7]);
        let st = service.status(7).expect("registered");
        assert!(!st.finished);
        assert_eq!(st.pipelines.len(), 1);
        service.ingest(TraceEvent::Finished {
            query: 7,
            wall: 40.0,
            windows: vec![(1.0, 40.0)].into_boxed_slice(),
            total_time: 40.0,
        });
        assert_eq!(service.query_progress(7), Ok(1.0));
        assert_eq!(service.is_finished(7), Ok(true));
        // Staleness folding keeps a finished query's ETA all-zero, so the
        // exact comparison survives the default read path.
        assert_eq!(service.remaining_time(7), Ok(Eta::finished(40.0)));
        service.unregister(7).unwrap();
        assert_eq!(service.query_progress(7), Err(QueryError::QueryUnknown(7)));
        assert_eq!(service.remaining_time(7), Err(QueryError::QueryUnknown(7)));
        service.shutdown();
    }

    #[test]
    fn delta_events_route_and_advance_progress_like_snapshots() {
        use prosel_engine::trace::{CounterKind, CounterUpdate};
        let plan = scan_plan();
        let service = dne().shards(2).build_service().unwrap();
        service.register(6, &plan);
        // Full baseline, then a sparse delta standing for snapshot seq 1.
        service.ingest(snapshot_event(6, 0, 10.0, 25));
        service.ingest(TraceEvent::Delta {
            query: 6,
            seq: 1,
            wall: 20.0,
            time: 20.0,
            changes: Box::new([
                CounterUpdate { node: 0, counter: CounterKind::GetNext, value: 50 },
                CounterUpdate { node: 0, counter: CounterKind::BytesRead, value: 400 },
            ]),
            window_updates: Box::new([(0, (1.0, 20.0))]),
        });
        assert!((service.query_progress(6).unwrap() - 0.5).abs() < 1e-12);
        service.shutdown();
    }

    #[test]
    fn duplicate_registration_is_an_error_not_an_abort() {
        let plan = scan_plan();
        let service = dne().shards(2).build_service().unwrap();
        assert_eq!(service.try_register(5, &plan), Ok(()));
        assert_eq!(service.try_register(5, &plan), Err(RegisterError::DuplicateQuery(5)));
        // The shard survives and still serves the original registration.
        service.ingest(snapshot_event(5, 0, 10.0, 50));
        assert!((service.query_progress(5).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn batch_registration_covers_all_shards_and_reports_duplicates() {
        let plan = scan_plan();
        let service = dne().shards(3).build_service().unwrap();
        service.register(4, &plan);
        let queries: Vec<usize> = (0..10).collect();
        let mut results = service.try_register_batch(&queries, &plan);
        results.sort_by_key(|&(q, _)| q);
        for (q, r) in &results {
            match q {
                4 => assert_eq!(*r, Err(RegisterError::DuplicateQuery(4))),
                _ => assert_eq!(*r, Ok(()), "q{q}"),
            }
        }
        assert_eq!(service.registered_queries(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn eta_reads_are_routed_and_typed() {
        let plan = scan_plan();
        let service = dne().shards(2).build_service().unwrap();
        service.register(6, &plan);
        assert!(!service.remaining_time(6).expect("registered").is_known());
        service.ingest(snapshot_event(6, 0, 10.0, 25));
        service.ingest(snapshot_event(6, 1, 20.0, 50));
        // The raw at-last-event variant is the bit-exact one.
        let eta = service.remaining_time_at_last_event(6).expect("registered");
        assert!(eta.is_known());
        // 0.25 progress per 10 s => 0.025/s; 0.5 left => 20 s, and one
        // speed sample => interval degenerates onto the point.
        assert!((eta.remaining - 20.0).abs() < 1e-9);
        assert_eq!(eta.remaining_lo.to_bits(), eta.remaining.to_bits());
        assert_eq!(eta.remaining_hi.to_bits(), eta.remaining.to_bits());
        // The default path folds staleness: never larger than raw, same
        // provenance.
        let folded = service.remaining_time(6).expect("registered");
        assert!(folded.remaining <= eta.remaining);
        assert_eq!(folded.as_of, eta.as_of);
        let p = service.progress_at_deadline(6, 30.0).expect("registered");
        assert!((p - 0.75).abs() < 1e-9);
        assert_eq!(service.progress_at_deadline(99, 1.0), Err(QueryError::QueryUnknown(99)));
        assert_eq!(service.remaining_time(99), Err(QueryError::QueryUnknown(99)));
        service.shutdown();
    }

    #[test]
    fn swap_selector_broadcasts_and_epochs_stay_aligned() {
        let favoring = crate::shard::test_support::selector_favoring;
        let plan = scan_plan();
        let service = crate::MonitorBuilder::with_selector(favoring(EstimatorKind::Dne))
            .shards(3)
            .build_service()
            .unwrap();
        // One query per shard registered under epoch 0.
        for q in 0..3usize {
            service.register(q, &plan);
        }
        let epoch = service.swap_selector(Arc::new(favoring(EstimatorKind::Tgn))).expect("up");
        assert_eq!(epoch, 1);
        // Registrations after the swap land on epoch 1 on every shard;
        // pre-swap queries keep epoch 0.
        for q in 3..6usize {
            service.register(q, &plan);
        }
        for q in 0..3usize {
            assert_eq!(service.query_selector_epoch(q), Ok(0), "q{q}");
            assert_eq!(service.query_selector_epoch(q + 3), Ok(1), "q{}", q + 3);
            let st = service.status(q + 3).expect("registered");
            assert_eq!(st.pipelines[0].estimator, EstimatorKind::Tgn);
        }
        assert_eq!(service.query_selector_epoch(99), Err(QueryError::QueryUnknown(99)));
        // A second swap bumps every shard again.
        assert_eq!(service.swap_selector(Arc::new(favoring(EstimatorKind::Dne))), Ok(2));
        service.shutdown();
    }

    #[test]
    fn staleness_reads_are_routed() {
        use prosel_engine::clock::{Clock, ManualClock};
        let plan = scan_plan();
        let clock = Arc::new(ManualClock::new(0.0));
        let config = crate::shard::MonitorConfig {
            clock: Arc::clone(&clock) as Arc<dyn Clock>,
            ..Default::default()
        };
        let service = dne().config(config).shards(2).build_service().unwrap();
        service.register(4, &plan);
        service.ingest(snapshot_event(4, 0, 10.0, 25));
        service.ingest(snapshot_event(4, 1, 20.0, 50));
        clock.set(26.0);
        let stale = service.remaining_time_with_age(4).expect("registered");
        // 0.025 progress/s, 0.5 left => 20 s from as_of 20.0; age 6.
        assert!((stale.eta.remaining - 20.0).abs() < 1e-9);
        assert!((stale.age - 6.0).abs() < 1e-9);
        assert!((stale.remaining_now() - 14.0).abs() < 1e-9);
        // The default remaining_time folds the same staleness in — the
        // stalled-query countdown keeps shrinking instead of freezing.
        let folded = service.remaining_time(4).expect("registered");
        assert!((folded.remaining - 14.0).abs() < 1e-9);
        assert!((folded.remaining_lo - (stale.eta.remaining_lo - 6.0).max(0.0)).abs() < 1e-9);
        clock.set(1000.0);
        assert_eq!(service.remaining_time(4).unwrap().remaining, 0.0, "pins to zero");
        assert!(
            service.remaining_time_at_last_event(4).unwrap().remaining > 0.0,
            "raw variant stays frozen at the last event by design"
        );
        assert_eq!(service.remaining_time_with_age(99), Err(QueryError::QueryUnknown(99)));
        service.shutdown();
    }

    #[test]
    fn harvests_flow_from_all_shards_to_one_sink() {
        use crate::shard::{HarvestConfig, HarvestedQuery};
        let plan = scan_plan();
        let (sink, harvested) = std::sync::mpsc::channel::<HarvestedQuery>();
        let service = dne()
            .harvester(Arc::new(sink), HarvestConfig { label: "svc".into(), min_observations: 2 })
            .shards(3)
            .build_service()
            .unwrap();
        for q in 0..6usize {
            service.register(q, &plan);
            for seq in 0..3u64 {
                service.ingest(snapshot_event(q, seq, (seq + 1) as f64 * 10.0, 25 * (seq + 1)));
            }
            service.ingest(TraceEvent::Finished {
                query: q,
                wall: 40.0,
                windows: vec![(1.0, 40.0)].into_boxed_slice(),
                total_time: 40.0,
            });
        }
        service.shutdown(); // drains queues, so every harvest is delivered
        let mut got: Vec<usize> = harvested.try_iter().map(|h| h.query).collect();
        got.sort_unstable();
        assert_eq!(got, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn saturated_shards_refuse_admission_with_typed_errors_not_panics() {
        use crate::shard::MonitorConfig;
        let plan = scan_plan();
        // 2 shards × cap 2 = 4 admission slots service-wide.
        let config = MonitorConfig { max_queries: 2, ..Default::default() };
        let service = dne().config(config).shards(2).build_service().unwrap();
        // Flood well past the cap through both admission paths: every
        // over-cap registration must come back as a typed Saturated value
        // and no shard task may die.
        let queries: Vec<usize> = (0..16).collect();
        let results = service.try_register_batch(&queries, &plan);
        let admitted: Vec<usize> =
            results.iter().filter(|(_, r)| r.is_ok()).map(|&(q, _)| q).collect();
        let saturated = results
            .iter()
            .filter(|(_, r)| matches!(r, Err(RegisterError::Saturated { limit: 2 })))
            .count();
        assert_eq!(admitted.len(), 4);
        assert_eq!(saturated, 12);
        assert_eq!(service.try_register(17, &plan), Err(RegisterError::Saturated { limit: 2 }));
        // The shards survived the flood and still serve admitted queries.
        for &q in &admitted {
            service.ingest(snapshot_event(q, 0, 10.0, 50));
            assert!((service.query_progress(q).unwrap() - 0.5).abs() < 1e-12, "q{q}");
        }
        // Draining a query frees its slot on the owning shard only.
        let freed = admitted[0];
        service.unregister(freed).unwrap();
        assert_eq!(service.try_register(freed + 2 * service.n_shards(), &plan), Ok(()));
        let stats = service.stats().expect("stats are always served");
        assert_eq!(stats.registered, 4);
        assert_eq!(stats.admitted, 5);
        assert_eq!(stats.refused, 13);
        service.shutdown();
    }

    #[test]
    fn stats_fold_per_shard_counters_after_the_queues_drain() {
        let plan = scan_plan();
        let service = dne().shards(3).build_service().unwrap();
        for q in 0..6usize {
            service.register(q, &plan);
        }
        let tap = service.tap();
        for q in 0..6usize {
            tap.send(snapshot_event(q, 0, 10.0, 25)).unwrap();
        }
        // An event for a query nobody registered: dropped and counted.
        tap.send(snapshot_event(42, 0, 10.0, 25)).unwrap();
        // Stats are wait-free snapshots; quiesce is the explicit barrier
        // that makes the conservation law exact at readout time.
        service.quiesce();
        let per_shard = service.shard_stats().expect("stats are always served");
        assert_eq!(per_shard.len(), 3);
        let total = service.stats().expect("stats are always served");
        assert_eq!(total.events_ingested + total.events_unroutable, 7);
        assert_eq!(total.events_unroutable, 1);
        assert_eq!(total.events_rejected, 0, "no dead shards, nothing rejected");
        assert_eq!((total.registered, total.admitted), (6, 6));
        assert_eq!(total.queries_dropped, 0);
        service.shutdown();
    }

    #[test]
    fn oracle_kinds_are_refused() {
        let err = crate::MonitorBuilder::fixed(EstimatorKind::BytesOracle)
            .shards(2)
            .build_service()
            .err();
        assert!(
            matches!(
                err,
                Some(crate::MonitorError::Register(RegisterError::OracleKind(
                    EstimatorKind::BytesOracle
                )))
            ),
            "{err:?}"
        );
    }

    #[test]
    fn online_kind_codes_roundtrip() {
        for &kind in ONLINE_KINDS.iter() {
            assert_eq!(kind_from_code(kind_to_code(kind)), kind);
        }
    }

    #[test]
    fn batched_tap_sends_are_equivalent_to_singles() {
        let plan = scan_plan();
        let service = dne().shards(3).build_service().unwrap();
        for q in 0..6usize {
            service.register(q, &plan);
        }
        let tap = service.tap();
        let batch: Vec<TraceEvent> = (0..6usize).map(|q| snapshot_event(q, 0, 10.0, 25)).collect();
        tap.send_batch(batch).unwrap();
        service.quiesce();
        for q in 0..6usize {
            assert!((service.query_progress(q).unwrap() - 0.25).abs() < 1e-12, "q{q}");
        }
        let total = service.stats().expect("stats are always served");
        assert_eq!(total.events_ingested, 6);
        service.shutdown();
    }

    #[test]
    fn reads_are_concurrent_with_ingest() {
        // Hammer one service from parallel reader threads while a writer
        // streams events: every read must return a sane value and the
        // final state must be exact.
        let plan = scan_plan();
        let service = std::sync::Arc::new(dne().shards(4).build_service().unwrap());
        let n_queries = 32usize;
        for q in 0..n_queries {
            service.register(q, &plan);
        }
        std::thread::scope(|scope| {
            let writer = {
                let service = Arc::clone(&service);
                scope.spawn(move || {
                    let tap = service.tap();
                    for seq in 0..100u64 {
                        for q in 0..n_queries {
                            let k = seq + 1; // 1% of the 100-row scan per event
                            tap.send(snapshot_event(q, seq, (seq + 1) as f64, k)).unwrap();
                        }
                    }
                })
            };
            for reader in 0..3usize {
                let service = Arc::clone(&service);
                scope.spawn(move || {
                    for i in 0..200usize {
                        // Stride across all queries (and thus all shards).
                        let q = (i * 7 + reader) % n_queries;
                        if let Ok(p) = service.query_progress(q) {
                            assert!((0.0..=1.0).contains(&p));
                        }
                    }
                });
            }
            writer.join().unwrap();
        });
        service.quiesce();
        for q in 0..n_queries {
            let p = service.query_progress(q).expect("registered");
            assert!((p - 1.0).abs() < 1e-12, "q{q} final progress {p}");
        }
    }

    #[test]
    fn short_counter_column_drops_the_query_and_spares_the_shard() {
        use prosel_engine::trace::{CounterKind, CounterUpdate};
        // The header check used to look at `k` alone: a snapshot whose
        // `k` has the plan's width and another counter column does not
        // went on to index that column — in the evaluation, or in the
        // patch of the next delta — and the panic took every query of the
        // shard with it.
        let plan = scan_plan();
        let columns =
            [CounterKind::BytesRead, CounterKind::BytesWritten, CounterKind::Materialized];
        for (corrupt, bystander, column) in
            [(0usize, 2usize, columns[0]), (4, 6, columns[1]), (8, 10, columns[2])]
        {
            let service = dne().shards(2).build_service().unwrap();
            service.register(corrupt, &plan);
            service.register(bystander, &plan);
            let TraceEvent::Snapshot { mut snapshot, windows, .. } =
                snapshot_event(corrupt, 0, 10.0, 25)
            else {
                unreachable!("snapshot_event builds a snapshot")
            };
            match column {
                CounterKind::BytesRead => snapshot.bytes_read = Box::new([]),
                CounterKind::BytesWritten => snapshot.bytes_written = Box::new([]),
                _ => snapshot.materialized = Box::new([]),
            }
            service.ingest(TraceEvent::Snapshot {
                query: corrupt,
                seq: 0,
                wall: 10.0,
                snapshot,
                windows,
            });
            service.ingest(TraceEvent::Delta {
                query: corrupt,
                seq: 1,
                wall: 20.0,
                time: 20.0,
                changes: Box::new([CounterUpdate { node: 0, counter: column, value: 7 }]),
                window_updates: Box::new([]),
            });
            assert_eq!(
                service.query_progress(corrupt),
                Err(QueryError::QueryUnknown(corrupt)),
                "{column:?}: the corrupt stream's query is dropped"
            );
            // Same shard, still alive, still serving.
            service.ingest(snapshot_event(bystander, 0, 10.0, 25));
            assert!(
                (service.query_progress(bystander).unwrap() - 0.25).abs() < 1e-12,
                "{column:?}"
            );
            let stats = service.stats().expect("stats are always served");
            assert_eq!((stats.queries_dropped, stats.events_rejected), (1, 0), "{column:?}");
            assert_eq!(stats.events_unroutable, 1, "{column:?}: the delta found no query");
            service.shutdown();
        }
    }

    #[test]
    fn quiesce_waiters_wake_at_their_own_targets_and_rarely() {
        use std::sync::Barrier;
        // One shard, a tap streaming batches into it, and waiters parked
        // at different points of the stream: each must come back, none
        // before the shard has processed what it waits for, and the shard
        // must not pay a notify per batch for them.
        let plan = scan_plan();
        let service = dne().shards(1).build_service().unwrap();
        const QUERIES: usize = 32;
        const SNAPSHOTS: u64 = 1000;
        for q in 0..QUERIES {
            service.register(q, &plan);
        }
        let total = QUERIES as u64 * SNAPSHOTS;
        let targets = [total / 7, total / 3, total / 2, total / 2, total - 1, total];
        let slot = &service.inner.shards[0];
        let start = Barrier::new(targets.len() + 1);
        std::thread::scope(|scope| {
            for &target in &targets {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    slot.wait_processed(target);
                    let processed = slot.processed.load(Ordering::SeqCst);
                    assert!(processed >= target, "woke at {processed}, waiting for {target}");
                });
            }
            let tap = service.tap();
            start.wait();
            for seq in 0..SNAPSHOTS {
                let batch: Vec<TraceEvent> =
                    (0..QUERIES).map(|q| snapshot_event(q, seq, (seq + 1) as f64, 1)).collect();
                tap.send_batch(batch).unwrap();
            }
        });
        // `quiesce` still means: everything accepted is visible.
        service.quiesce();
        assert_eq!(slot.processed.load(Ordering::SeqCst), total);
        let metrics = service.metrics();
        let wakes = metrics.counter("monitor_shard0_quiesce_wakes_total").expect("registered");
        let batches = metrics.histogram("service_ingest_batch_len").expect("registered").count();
        assert!(wakes >= 1, "the waiters were woken, not timed out of every wait");
        assert!(wakes * 1000 < total, "{wakes} wakes for {total} events");
        assert!(wakes * 4 < batches, "{wakes} wakes for {batches} batches");
        service.shutdown();
    }

    #[test]
    fn dead_shard_reads_swaps_and_router_degrade_cleanly() {
        let favoring = crate::shard::test_support::selector_favoring;
        let plan = scan_plan();
        let service = crate::MonitorBuilder::with_selector(favoring(EstimatorKind::Dne))
            .shards(3)
            .build_service()
            .unwrap();
        for q in 0..6usize {
            service.register(q, &plan);
        }
        let tap = service.tap();
        tap.send(snapshot_event(1, 0, 1.0, 10)).unwrap();
        service.quiesce();
        // Kill shard 1 (owns queries 1 and 4) through the real panic path.
        service.inject_shard_panic(1);
        // Reads on the dead shard: typed error, never a hang or panic.
        assert_eq!(service.query_progress(1), Err(QueryError::ShardDown));
        assert_eq!(service.remaining_time(4), Err(QueryError::ShardDown));
        assert_eq!(service.status(4).err(), Some(QueryError::ShardDown));
        // Live shards keep serving.
        assert_eq!(service.query_progress(0), Ok(0.0));
        // The router refuses the dead shard's events cleanly — Err returns
        // the event, and the drop is counted (conservation law).
        let ev = snapshot_event(4, 0, 1.0, 10);
        let back = tap.send(ev.clone());
        assert_eq!(back, Err(ev));
        assert!(tap.send(snapshot_event(0, 1, 2.0, 20)).is_ok(), "live shards accept");
        service.quiesce();
        let stats = service.stats().expect("stats are always served");
        assert_eq!(stats.events_rejected, 1);
        // A swap reports the dead shard by id and still applies to the
        // survivors (visible via the epoch on a fresh registration).
        let err = service.swap_selector(Arc::new(favoring(EstimatorKind::Tgn))).unwrap_err();
        assert_eq!(err.shards, vec![1]);
        assert_eq!(err.epoch, Some(1));
        service.register(6, &plan); // 6 % 3 == 0: a surviving shard
        assert_eq!(service.query_selector_epoch(6), Ok(1));
        // Registration on the dead shard is refused as a value.
        assert_eq!(service.try_register(7, &plan), Err(RegisterError::ShardDown));
        service.shutdown();
    }
}
