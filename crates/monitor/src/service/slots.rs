//! The shard slots and what moves events through them: the one push
//! body behind every tap send, the shard task's batch drain, and the
//! crash accounting that keeps the conservation law exact when a shard
//! dies.
//!
//! **One lock per shard.** Every decision about a shard's events — is
//! the service stopping, is the shard dead, is its task already on the
//! run queue, how far has it drained, is anyone waiting for that — is
//! taken under the mutex over its event queue ([`ShardQueue`]), the lock
//! a push has to take anyway. So:
//!
//! - a shard id is on the run queue at most once: it is pushed only by
//!   whoever flips `scheduled` from false to true, and only the drain
//!   that leaves nothing to do flips it back;
//! - a quiesce waiter checks `processed` and sleeps under the same mutex
//!   the drain raises it under, so a wake-up cannot fall between the two;
//! - a crash clears the queue and counts what it held under the lock a
//!   push checks `dead` under, so no event lands on a dead shard
//!   uncounted.
//!
//! The one atomic left is `alive`, a copy of `dead` for the read path,
//! which never takes the queue lock.
//!
//! **Lock order.** A query's cell ([`crate::cell`]) is one mutex, so the
//! order in which the monitor's locks nest is the whole concurrency
//! argument for the read model. No path takes two of them in the other
//! order:
//!
//! - core → registry (write), on admit, unregister and the defensive
//!   drop of a query whose event the core refused;
//! - core → cell, on ingest: the core's funnel stores into the query's
//!   cell and logs its switches there;
//! - registry (read) is released before the cell is locked: a read
//!   clones the cell's `Arc` under the read lock and drops the guard
//!   first;
//! - queue → no other monitor lock: the queue mutex is released before
//!   the core is locked or a shard id is put on the run queue, and a
//!   quiesce waiter sleeps on the queue's own condvar.
//!
//! (Selector swaps take the service's swap lock and then each core in
//! turn.) A read holds one lock at a time, and the cell's only for a
//! copy of about a hundred bytes, so it can wait behind one writer's
//! copy but never behind an event's evaluation.

use crate::cell::QueryCell;
use crate::runtime::RunQueue;
use crate::shard::{Ingested, ProgressMonitor};
use crate::stats::ShardCounters;
use prosel_engine::clock::Clock;
use prosel_engine::trace::{TapSink, TraceEvent};
use prosel_obs::{Counter, Histogram, MetricsRegistry, ObsEvent, TraceRing};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
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

/// What a shard's queue mutex guards: the events awaiting the shard task
/// and every fact about them (see the module docs).
pub(super) struct ShardQueue {
    pub(super) events: VecDeque<TraceEvent>,
    /// The shard id is on the run queue or its task is running. Set by
    /// the push (or panic injection) that finds it clear, which is then
    /// the one to put the id on the run queue; cleared by the drain that
    /// leaves nothing to do.
    scheduled: bool,
    /// Events ever accepted into `events` (monotone).
    pub(super) enqueued: u64,
    /// Events removed from `events` and fully accounted — ingested by the
    /// core, or counted as rejected when the shard died. `processed ==
    /// enqueued` means the queue is drained (the quiesce condition).
    pub(super) processed: u64,
    /// The smallest `processed` value a parked waiter is waiting for;
    /// `u64::MAX` when nobody waits. A drain notifies only once it has
    /// reached it.
    wake_at: u64,
    /// Set by shutdown: pushes are refused (returned to the sender,
    /// uncounted) while queued events still drain.
    pub(super) stopping: bool,
    /// The shard task panicked: pushes are refused and counted in
    /// `events_rejected`.
    dead: bool,
    /// Test hook: make the next drain pass panic mid-ingest (exercising
    /// the real crash path, poisoned core mutex included).
    poison: bool,
}

impl ShardQueue {
    /// Does the shard task have a pass to run?
    fn has_work(&self) -> bool {
        !self.dead && (self.poison || !self.events.is_empty())
    }

    /// Claim the shard's scheduled edge: true exactly when the caller
    /// must put the shard id on the run queue.
    fn schedule(&mut self) -> bool {
        !std::mem::replace(&mut self.scheduled, true)
    }
}

/// One shard: the single-threaded monitor core, its event queue, and the
/// registry reads find the core's cells through.
pub(super) struct ShardSlot {
    queue: Mutex<ShardQueue>,
    /// Quiesce waiters park here; the drain notifies when it has carried
    /// `processed` to `wake_at`.
    drained: Condvar,
    /// `!dead`, for the read path, which never takes the queue lock.
    alive: AtomicBool,
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
    /// push body and the crash accounting count refusals here.
    pub(super) counters: ShardCounters,
    /// Notifies issued (`monitor_shard<i>_quiesce_wakes_total`, scrape
    /// only).
    wakes: Arc<Counter>,
}

impl ShardSlot {
    pub(super) fn new(core: ProgressMonitor, wakes: Arc<Counter>) -> ShardSlot {
        let counters = core.counters();
        ShardSlot {
            queue: Mutex::new(ShardQueue {
                events: VecDeque::new(),
                scheduled: false,
                enqueued: 0,
                processed: 0,
                wake_at: u64::MAX,
                stopping: false,
                dead: false,
                poison: false,
            }),
            drained: Condvar::new(),
            alive: AtomicBool::new(true),
            core: Mutex::new(core),
            registry: RwLock::new(HashMap::new()),
            counters,
            wakes,
        }
    }

    pub(super) fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    pub(super) fn lock_queue(&self) -> MutexGuard<'_, ShardQueue> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Block until `processed >= target`. Terminates on dead shards too:
    /// a crash accounts every event it can no longer ingest as processed.
    pub(super) fn wait_processed(&self, target: u64) {
        self.wait(self.lock_queue(), target);
    }

    /// Block until every event enqueued so far is accounted.
    pub(super) fn quiesce(&self) {
        let queue = self.lock_queue();
        let target = queue.enqueued;
        self.wait(queue, target);
    }

    fn wait(&self, mut queue: MutexGuard<'_, ShardQueue>, target: u64) {
        while queue.processed < target {
            queue.wake_at = queue.wake_at.min(target);
            // The drain decides to notify under this lock, so no notify is
            // missed and the timeout is not needed to see one. It buys
            // wake-up latency: with a timer a millisecond away the parked
            // core idles shallowly and a notify lands ~1.5 µs sooner than
            // with no timer (50 ms does not help) — without it
            // `emit_to_visible_p50_us` on `live_tapped` rises ~30 % on a
            // 2-vCPU guest.
            queue = self
                .drained
                .wait_timeout(queue, Duration::from_millis(1))
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }
}

/// State shared by the service handle, the worker pool and the taps.
pub(super) struct ServiceInner {
    pub(super) shards: Vec<ShardSlot>,
    /// The serving clock (shared with the shards' config) — stamps the
    /// staleness fold of [`super::MonitorService::remaining_time`].
    pub(super) clock: Arc<dyn Clock>,
    /// Serializes [`super::MonitorService::swap_selector`] broadcasts: two
    /// concurrent swaps must apply in the same order on every shard, or
    /// shards would serve different models under the same epoch.
    pub(super) swap_lock: Mutex<()>,
    /// The worker pool's run queue, which shard ids are pushed into on
    /// their scheduled edge.
    pub(super) run_queue: Arc<RunQueue>,
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
    /// — to the shard's queue under one lock, put the shard on the run
    /// queue if it is not there yet, and return the `enqueued` count that
    /// covers them. `Err` hands the events back: the service is stopping
    /// (uncounted — the post-shutdown tap contract) or the shard is dead
    /// (counted in `events_rejected`: a refusal must not break the
    /// conservation law).
    fn push<B>(&self, si: usize, batch: B) -> Result<u64, B>
    where
        B: IntoIterator<Item = TraceEvent> + AsRef<[TraceEvent]>,
    {
        let slot = &self.shards[si];
        let count = batch.as_ref().len() as u64;
        let mut queue = slot.lock_queue();
        if queue.stopping {
            return Err(batch);
        }
        if queue.dead {
            slot.counters.events_rejected.add(count);
            return Err(batch);
        }
        queue.events.extend(batch);
        queue.enqueued += count;
        let target = queue.enqueued;
        let wake = queue.schedule();
        drop(queue);
        if wake {
            self.run_queue.push(si);
        }
        Ok(target)
    }

    /// Route one event to the shard owning its query ([`Self::push`]).
    pub(super) fn enqueue(&self, ev: TraceEvent) -> Result<u64, TraceEvent> {
        self.push(self.shard_of(ev.query()), [ev]).map_err(|[ev]| ev)
    }

    /// Set shard `si`'s poison pill and schedule it, so its next pass
    /// panics. False when the shard is already dead.
    pub(super) fn poison(&self, si: usize) -> bool {
        let mut queue = self.shards[si].lock_queue();
        if queue.dead {
            return false;
        }
        queue.poison = true;
        let wake = queue.schedule();
        drop(queue);
        if wake {
            self.run_queue.push(si);
        }
        true
    }

    /// The shard task body: drain (up to) one batch of events into the
    /// core, then account it. Returns whether the shard has more work, in
    /// which case it stays scheduled. Runs on the worker pool only while
    /// `scheduled` is set, so never on a dead shard and never twice at
    /// once. Panics are caught here so the crash is accounted (shard
    /// marked dead, events counted rejected) before the runtime's own
    /// catch sees anything.
    pub(super) fn drain_batch(&self, si: usize) -> bool {
        let slot = &self.shards[si];
        let (batch, poison) = {
            let mut queue = slot.lock_queue();
            let n = INGEST_BATCH.min(queue.events.len());
            (queue.events.drain(..n).collect::<Vec<_>>(), queue.poison)
        };
        let total = batch.len() as u64;
        if total > 0 {
            self.obs.ingest_batch_len.record(total);
        }
        // Events fully ingested so far: if a later event of the batch
        // panics the core, these stay counted as ingested and only the
        // unprocessed tail is rejected. (No stats publish step: the core
        // increments the same shared atomics the read path loads.)
        let mut done = 0u64;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // A poisoned core mutex means an earlier panic escaped without
            // marking the shard dead; treat it as a fresh crash.
            let mut core = slot.core.lock().expect("shard core poisoned");
            if poison {
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
                done += 1;
            }
        }));
        let mut queue = slot.lock_queue();
        queue.processed += done;
        if outcome.is_err() {
            self.kill_shard(si, &mut queue, total - done);
        }
        queue.scheduled = queue.has_work();
        let more = queue.scheduled;
        // Everyone parked is woken and the target reset; waiters whose own
        // target is still ahead put it back before they park again.
        let wake = queue.processed >= queue.wake_at;
        if wake {
            queue.wake_at = u64::MAX;
        }
        drop(queue);
        // Notified after unlocking: a woken waiter's first step is to
        // retake the lock, and every waiter the decision covers is already
        // parked — it could only have parked by releasing the lock.
        if wake {
            slot.drained.notify_all();
            slot.wakes.inc();
        }
        more
    }

    /// Mark a shard dead and account the events it can no longer ingest:
    /// `unprocessed` from the batch that crashed, plus everything still
    /// queued. Every one lands in `events_rejected` *and* `processed` so
    /// quiesce waiters and the conservation law both stay exact.
    fn kill_shard(&self, si: usize, queue: &mut ShardQueue, unprocessed: u64) {
        let slot = &self.shards[si];
        queue.dead = true;
        slot.alive.store(false, Ordering::Release);
        let rejected = unprocessed + queue.events.len() as u64;
        queue.events.clear();
        slot.counters.events_rejected.add(rejected);
        queue.processed += rejected;
        self.ring.emit(ObsEvent::ShardPanic { shard: si });
    }

    pub(super) fn quiesce(&self) {
        for slot in &self.shards {
            slot.quiesce();
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
