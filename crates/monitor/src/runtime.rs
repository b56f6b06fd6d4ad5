//! A small hand-rolled runtime for shard tasks: a worker pool on one run
//! queue.
//!
//! Each shard of the [`MonitorService`](crate::MonitorService) is a *task*
//! (an index `0..n_tasks`), and a fixed pool of workers runs whichever
//! tasks have work. Reads never come anywhere near this runtime — they are
//! wait-free loads from the per-query cells — so the pool only ever
//! executes the ingest drain.
//!
//! Design notes:
//!
//! - **No crates.io.** Everything is `std`: one mutex-guarded deque, a
//!   condvar for parking, atomics for the per-task state machine.
//! - **At-most-once execution.** A task is never run by two workers at once.
//!   Each task carries an atomic state (`IDLE`/`QUEUED`/`RUNNING`/
//!   `RUNNING_DIRTY`); `Shared::schedule` transitions `IDLE -> QUEUED`
//!   (enqueue) or `RUNNING -> RUNNING_DIRTY` (re-run after the current pass),
//!   and is a no-op when the task is already queued or dirty. This gives the
//!   classic "schedule is idempotent, wakeups are coalesced" property that
//!   lets the ingest path batch events without losing them.
//! - **One run queue.** Scheduled tasks wait in a single FIFO that is also
//!   the parking condvar's mutex: a push happens under the lock a worker
//!   holds from its empty-queue check until it parks, so no wakeup can be
//!   missed and nothing has to be re-scanned. The pool has only ever been
//!   measured at one or two workers, where per-worker queues with stealing
//!   bought nothing; split the queue when a run on more cores shows it
//!   contended.
//! - **Core affinity.** [`RuntimeConfig::core_ids`] pins worker `i` to
//!   `core_ids[i % len]` via a raw `sched_setaffinity` call on Linux
//!   (best-effort, no-op elsewhere) so a latency-sensitive deployment can
//!   fence the ingest pool away from serving threads.
//! - **Panic containment.** A task body that panics is caught at the worker
//!   loop; the worker survives and keeps running other tasks. The service
//!   layers its own dead-shard accounting on top.

use prosel_obs::{Counter, Gauge, MetricsRegistry};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Knobs for the shard runtime, embedded in
/// [`MonitorConfig`](crate::MonitorConfig).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Number of pool workers. `0` (the default) picks
    /// `min(available_parallelism, n_shards)`.
    pub worker_threads: usize,
    /// Optional CPU pinning: worker `i` is pinned to `core_ids[i % len]`.
    /// Empty (the default) leaves placement to the OS scheduler. Pinning is
    /// best-effort and Linux-only; invalid ids are ignored.
    pub core_ids: Vec<usize>,
}

impl RuntimeConfig {
    /// Resolve the worker count for `n_tasks` shard tasks.
    pub(crate) fn resolved_workers(&self, n_tasks: usize) -> usize {
        if self.worker_threads > 0 {
            return self.worker_threads;
        }
        let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        cores.min(n_tasks.max(1)).max(1)
    }
}

/// Scheduler instrumentation: park/unpark churn and the run queue's
/// depth. Registered under `runtime_*` names; all updates happen on the
/// scheduling paths (never inside a task body).
pub(crate) struct RuntimeObs {
    /// Times a worker went to sleep on the condvar.
    parks: Arc<Counter>,
    /// Times a parked worker woke up (timeout or notify).
    unparks: Arc<Counter>,
    /// The run queue's length, set under its lock at every push and pop.
    depth: Arc<Gauge>,
}

impl RuntimeObs {
    pub(crate) fn from_registry(registry: &MetricsRegistry) -> RuntimeObs {
        RuntimeObs {
            parks: registry.counter("runtime_parks_total"),
            unparks: registry.counter("runtime_unparks_total"),
            depth: registry.gauge("runtime_queue_depth"),
        }
    }
}

// Per-task scheduling states. `RUNNING_DIRTY` means "schedule() was called
// while the task was running": the worker re-queues the task after the pass
// instead of idling it, so no wakeup is ever lost.
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const RUNNING_DIRTY: u8 = 3;

/// State shared between workers and external schedulers (the tap/router).
pub(crate) struct Shared {
    /// The run queue: tasks in state `QUEUED`, oldest first. Also the
    /// mutex `wake` waits on — a worker holds it from finding the queue
    /// empty until it is parked, and a push holds it too, so a push can
    /// never slip between a worker's check and its wait.
    queue: Mutex<VecDeque<usize>>,
    /// One scheduling state per task.
    states: Vec<AtomicU8>,
    wake: Condvar,
    stop: AtomicBool,
    obs: RuntimeObs,
}

impl Shared {
    /// Request that `task` run (again). Idempotent; coalesces with a pending
    /// or in-flight run. Wait-free for the caller apart from one short queue
    /// lock when the task transitions to `QUEUED`.
    pub(crate) fn schedule(&self, task: usize) {
        let state = &self.states[task];
        loop {
            match state.load(Ordering::Acquire) {
                IDLE => {
                    if state
                        .compare_exchange(IDLE, QUEUED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        self.push(task);
                        return;
                    }
                }
                RUNNING => {
                    if state
                        .compare_exchange(
                            RUNNING,
                            RUNNING_DIRTY,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        return;
                    }
                }
                // Already queued or already marked dirty: the pending run
                // will observe everything enqueued before it starts.
                _ => return,
            }
        }
    }

    fn lock_queue(&self) -> MutexGuard<'_, VecDeque<usize>> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queue a task whose state the caller has just set to `QUEUED`, and
    /// wake a worker for it.
    fn push(&self, task: usize) {
        let mut queue = self.lock_queue();
        queue.push_back(task);
        self.obs.depth.set(queue.len() as f64);
        drop(queue);
        self.wake.notify_one();
    }
}

fn worker_loop(shared: &Shared, body: &(dyn Fn(usize) -> bool + Send + Sync)) {
    let mut queue = shared.lock_queue();
    loop {
        if let Some(task) = queue.pop_front() {
            shared.obs.depth.set(queue.len() as f64);
            drop(queue);
            run_task(shared, task, body);
            queue = shared.lock_queue();
            continue;
        }
        // Checked only on an empty queue: shutdown drains, it does not
        // abandon.
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        // The timeout is belt-and-braces only; correctness never depends on
        // it. 10ms bounds the cost of any wakeup bug to a schedule hiccup.
        shared.obs.parks.inc();
        queue = shared
            .wake
            .wait_timeout(queue, Duration::from_millis(10))
            .unwrap_or_else(|e| e.into_inner())
            .0;
        shared.obs.unparks.inc();
    }
}

fn run_task(shared: &Shared, task: usize, body: &(dyn Fn(usize) -> bool + Send + Sync)) {
    let state = &shared.states[task];
    state.store(RUNNING, Ordering::Release);
    // `body` returns true when the task knows it has more work (e.g. events
    // left in the shard queue beyond this batch). A panicking body is
    // contained here; the service marks the shard dead from inside the body,
    // so from the runtime's perspective a panicked pass simply has no more
    // work.
    let more = catch_unwind(AssertUnwindSafe(|| body(task))).unwrap_or(false);
    // RUNNING_DIRTY: schedule() fired mid-run; run again.
    if more || state.compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire).is_err() {
        state.store(QUEUED, Ordering::Release);
        shared.push(task);
    }
}

/// The worker pool. Owns the threads; dropping (or [`Runtime::stop`])
/// signals shutdown and joins them. Queued tasks still run to completion
/// before workers exit — shutdown drains, it does not abandon.
pub(crate) struct Runtime {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Runtime {
    /// Spawn a pool running `body` for tasks `0..n_tasks`. `body(task)`
    /// returns whether the task should immediately run again.
    pub(crate) fn spawn(
        n_tasks: usize,
        config: &RuntimeConfig,
        body: Arc<dyn Fn(usize) -> bool + Send + Sync>,
        obs: RuntimeObs,
    ) -> Runtime {
        let n_workers = config.resolved_workers(n_tasks);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            states: (0..n_tasks).map(|_| AtomicU8::new(IDLE)).collect(),
            wake: Condvar::new(),
            stop: AtomicBool::new(false),
            obs,
        });
        let workers = (0..n_workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let body = Arc::clone(&body);
                let pin = if config.core_ids.is_empty() {
                    None
                } else {
                    Some(config.core_ids[w % config.core_ids.len()])
                };
                std::thread::Builder::new()
                    .name(format!("prosel-shard-worker-{w}"))
                    .spawn(move || {
                        if let Some(core) = pin {
                            pin_to_core(core);
                        }
                        worker_loop(&shared, &*body);
                    })
                    .expect("spawn shard runtime worker")
            })
            .collect();
        Runtime { shared, workers }
    }

    pub(crate) fn shared(&self) -> Arc<Shared> {
        Arc::clone(&self.shared)
    }

    pub(crate) fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Signal shutdown and join the pool. Idempotent.
    pub(crate) fn stop(&mut self) {
        // Under the queue lock, so the flag cannot land between a worker's
        // check of it and its park.
        let queue = self.shared.lock_queue();
        self.shared.stop.store(true, Ordering::Release);
        drop(queue);
        self.shared.wake.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Best-effort thread pinning via a raw `sched_setaffinity(2)` call — the
/// workspace takes no crates.io dependencies, so the one libc symbol we need
/// is declared by hand. Failures (bad core id, restricted cpuset) are
/// ignored: affinity is an optimization, never a correctness requirement.
#[cfg(target_os = "linux")]
fn pin_to_core(core: usize) {
    // Mirrors glibc's cpu_set_t: a 1024-bit mask.
    #[repr(C)]
    struct CpuSet {
        bits: [u64; 16],
    }
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }
    if core >= 1024 {
        return;
    }
    let mut set = CpuSet { bits: [0; 16] };
    set.bits[core / 64] |= 1u64 << (core % 64);
    // pid 0 targets the calling thread.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
}

#[cfg(not(target_os = "linux"))]
fn pin_to_core(_core: usize) {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn config(workers: usize) -> RuntimeConfig {
        RuntimeConfig { worker_threads: workers, ..RuntimeConfig::default() }
    }

    fn obs() -> RuntimeObs {
        RuntimeObs::from_registry(&MetricsRegistry::new())
    }

    fn spin_until(deadline_ms: u64, mut done: impl FnMut() -> bool) -> bool {
        let start = std::time::Instant::now();
        while start.elapsed() < Duration::from_millis(deadline_ms) {
            if done() {
                return true;
            }
            std::thread::yield_now();
        }
        done()
    }

    #[test]
    fn scheduled_tasks_run_and_coalesce() {
        let runs: Arc<Vec<AtomicU64>> = Arc::new((0..4).map(|_| AtomicU64::new(0)).collect());
        let body = {
            let runs = Arc::clone(&runs);
            Arc::new(move |task: usize| {
                runs[task].fetch_add(1, Ordering::SeqCst);
                false
            }) as Arc<dyn Fn(usize) -> bool + Send + Sync>
        };
        let mut rt = Runtime::spawn(4, &config(2), body, obs());
        let shared = rt.shared();
        for task in 0..4 {
            shared.schedule(task);
        }
        assert!(spin_until(2_000, || (0..4).all(|t| runs[t].load(Ordering::SeqCst) >= 1)));
        rt.stop();
        // Coalescing never drops a run: every task ran at least once, and an
        // idle task scheduled once runs exactly once.
        for task in 0..4 {
            assert!(runs[task].load(Ordering::SeqCst) >= 1);
        }
    }

    #[test]
    fn dirty_reschedule_runs_the_task_again() {
        // The body parks until released, so we can schedule() while RUNNING
        // and prove the dirty bit forces a second pass.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let runs = Arc::new(AtomicU64::new(0));
        let body = {
            let gate = Arc::clone(&gate);
            let runs = Arc::clone(&runs);
            Arc::new(move |_task: usize| {
                if runs.fetch_add(1, Ordering::SeqCst) == 0 {
                    let (lock, cv) = &*gate;
                    let mut open = lock.lock().unwrap();
                    while !*open {
                        open = cv.wait(open).unwrap();
                    }
                }
                false
            }) as Arc<dyn Fn(usize) -> bool + Send + Sync>
        };
        let mut rt = Runtime::spawn(1, &config(1), body, obs());
        let shared = rt.shared();
        shared.schedule(0);
        assert!(spin_until(2_000, || runs.load(Ordering::SeqCst) == 1));
        // First pass is parked inside body(): this schedule must coalesce
        // into RUNNING_DIRTY and trigger a second pass once released.
        shared.schedule(0);
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        assert!(spin_until(2_000, || runs.load(Ordering::SeqCst) == 2));
        rt.stop();
        assert_eq!(runs.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn more_work_reruns_until_drained() {
        // body() drains a counter one step per pass and reports "more".
        let left = Arc::new(AtomicU64::new(5));
        let body = {
            let left = Arc::clone(&left);
            Arc::new(move |_task: usize| left.fetch_sub(1, Ordering::SeqCst) > 1)
                as Arc<dyn Fn(usize) -> bool + Send + Sync>
        };
        let mut rt = Runtime::spawn(1, &config(1), body, obs());
        rt.shared().schedule(0);
        assert!(spin_until(2_000, || left.load(Ordering::SeqCst) == 0));
        rt.stop();
    }

    #[test]
    fn panicking_task_does_not_kill_the_pool() {
        let runs = Arc::new(AtomicU64::new(0));
        let body = {
            let runs = Arc::clone(&runs);
            Arc::new(move |task: usize| {
                runs.fetch_add(1, Ordering::SeqCst);
                if task == 0 {
                    panic!("task 0 always panics");
                }
                false
            }) as Arc<dyn Fn(usize) -> bool + Send + Sync>
        };
        let mut rt = Runtime::spawn(2, &config(1), body, obs());
        let shared = rt.shared();
        shared.schedule(0);
        assert!(spin_until(2_000, || runs.load(Ordering::SeqCst) == 1));
        // The single worker survived the panic and still runs task 1.
        shared.schedule(1);
        assert!(spin_until(2_000, || runs.load(Ordering::SeqCst) == 2));
        rt.stop();
    }

    #[test]
    fn many_tasks_over_few_workers_each_run_exactly_once() {
        // 32 tasks scheduled once each onto 3 workers sharing the run
        // queue: every task runs, and none runs twice.
        let runs: Arc<Vec<AtomicU64>> = Arc::new((0..32).map(|_| AtomicU64::new(0)).collect());
        let body = {
            let runs = Arc::clone(&runs);
            Arc::new(move |task: usize| {
                runs[task].fetch_add(1, Ordering::SeqCst);
                false
            }) as Arc<dyn Fn(usize) -> bool + Send + Sync>
        };
        let mut rt = Runtime::spawn(32, &config(3), body, obs());
        assert_eq!(rt.worker_count(), 3);
        let shared = rt.shared();
        for task in 0..32 {
            shared.schedule(task);
        }
        assert!(spin_until(5_000, || (0..32).all(|t| runs[t].load(Ordering::SeqCst) == 1)));
        rt.stop();
    }

    #[test]
    fn stop_is_idempotent_and_drains_queued_tasks() {
        let runs = Arc::new(AtomicU64::new(0));
        let body = {
            let runs = Arc::clone(&runs);
            Arc::new(move |_task: usize| {
                runs.fetch_add(1, Ordering::SeqCst);
                false
            }) as Arc<dyn Fn(usize) -> bool + Send + Sync>
        };
        let mut rt = Runtime::spawn(8, &config(2), body, obs());
        let shared = rt.shared();
        for task in 0..8 {
            shared.schedule(task);
        }
        rt.stop();
        rt.stop();
        // Shutdown drained everything that was queued before the signal.
        assert_eq!(runs.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn default_config_resolves_sane_worker_counts() {
        let cfg = RuntimeConfig::default();
        assert!(cfg.resolved_workers(1) >= 1);
        assert!(cfg.resolved_workers(4) <= 4);
        assert_eq!(config(3).resolved_workers(1), 3);
    }
}
