//! A small hand-rolled runtime for shard tasks: a worker pool on one run
//! queue.
//!
//! Each shard of the [`MonitorService`](crate::MonitorService) is a *task*
//! (an index `0..n_tasks`), and a fixed pool of workers runs whichever
//! tasks have work. Reads never come anywhere near this runtime — they are
//! copies out of the per-query cells — so the pool only ever executes the
//! ingest drain.
//!
//! Design notes:
//!
//! - **No crates.io.** Everything is `std`: one mutex over a FIFO of task
//!   ids and a stop flag, and a condvar for parking.
//! - **The runtime keeps no per-task state.** A task id is pushed by
//!   whoever owns the decision that it has work — the service's shard
//!   slot, under its own lock, on the edge of its `scheduled` bit — so an
//!   id is in the FIFO at most once and never run by two workers at once
//!   (see `service/slots.rs`). A pass whose body reports more work is
//!   pushed again by the worker that ran it.
//! - **One run queue.** Scheduled tasks wait in a single FIFO that is also
//!   the parking condvar's mutex: a push and the stop flag both happen
//!   under the lock a worker holds from its empty-queue check until it
//!   parks, so no wakeup can be missed and no timed wait is needed. The
//!   pool has only ever been measured at one or two workers, where
//!   per-worker queues with stealing bought nothing; split the queue when
//!   a run on more cores shows it contended.
//! - **Panic containment.** A task body that panics is caught at the worker
//!   loop; the worker survives and keeps running other tasks. The service
//!   layers its own dead-shard accounting on top.

use prosel_obs::{Counter, Gauge, MetricsRegistry};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Knobs for the shard runtime, embedded in
/// [`MonitorConfig`](crate::MonitorConfig).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Number of pool workers. `0` (the default) picks
    /// `min(available_parallelism, n_shards)`.
    pub worker_threads: usize,
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
    /// Times a parked worker woke up.
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

/// What the run-queue mutex guards.
struct Queue {
    /// Task ids with work, oldest first.
    tasks: VecDeque<usize>,
    /// Set once by [`Runtime::stop`]; a worker reads it only on an empty
    /// queue, so shutdown drains, it does not abandon.
    stop: bool,
}

/// The run queue shared by the workers and the task owners that push
/// into it. Created before the service state that pushes into it, so the
/// two need no late binding.
pub(crate) struct RunQueue {
    queue: Mutex<Queue>,
    wake: Condvar,
    obs: RuntimeObs,
}

impl RunQueue {
    pub(crate) fn new(obs: RuntimeObs) -> RunQueue {
        RunQueue {
            queue: Mutex::new(Queue { tasks: VecDeque::new(), stop: false }),
            wake: Condvar::new(),
            obs,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queue `task` and wake a worker for it. The caller guarantees the
    /// task is neither queued nor running (it owns the task's scheduled
    /// edge).
    pub(crate) fn push(&self, task: usize) {
        let mut queue = self.lock();
        queue.tasks.push_back(task);
        self.obs.depth.set(queue.tasks.len() as f64);
        drop(queue);
        self.wake.notify_one();
    }
}

fn worker_loop(rq: &RunQueue, body: &(dyn Fn(usize) -> bool + Send + Sync)) {
    let mut queue = rq.lock();
    loop {
        if let Some(task) = queue.tasks.pop_front() {
            rq.obs.depth.set(queue.tasks.len() as f64);
            drop(queue);
            // `body` returns true when the task has more work (events left
            // beyond this batch). A panicking body is contained here; the
            // service marks the shard dead from inside the body, so a
            // panicked pass simply has no more work.
            if catch_unwind(AssertUnwindSafe(|| body(task))).unwrap_or(false) {
                rq.push(task);
            }
            queue = rq.lock();
            continue;
        }
        if queue.stop {
            return;
        }
        rq.obs.parks.inc();
        queue = rq.wake.wait(queue).unwrap_or_else(|e| e.into_inner());
        rq.obs.unparks.inc();
    }
}

/// The worker pool. Owns the threads; dropping (or [`Runtime::stop`])
/// signals shutdown and joins them. Queued tasks still run to completion
/// before workers exit — shutdown drains, it does not abandon.
pub(crate) struct Runtime {
    rq: Arc<RunQueue>,
    workers: Vec<JoinHandle<()>>,
}

impl Runtime {
    /// Spawn a pool running `body` for the task ids pushed into `rq`, of
    /// which there are `n_tasks`. `body(task)` returns whether the task
    /// should run again.
    pub(crate) fn spawn(
        rq: &Arc<RunQueue>,
        n_tasks: usize,
        config: &RuntimeConfig,
        body: Arc<dyn Fn(usize) -> bool + Send + Sync>,
    ) -> Runtime {
        let workers = (0..config.resolved_workers(n_tasks))
            .map(|w| {
                let rq = Arc::clone(rq);
                let body = Arc::clone(&body);
                std::thread::Builder::new()
                    .name(format!("prosel-shard-worker-{w}"))
                    .spawn(move || worker_loop(&rq, &*body))
                    .expect("spawn shard runtime worker")
            })
            .collect();
        Runtime { rq: Arc::clone(rq), workers }
    }

    /// Signal shutdown and join the pool. Idempotent.
    pub(crate) fn stop(&mut self) {
        self.rq.lock().stop = true;
        self.rq.wake.notify_all();
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    fn config(workers: usize) -> RuntimeConfig {
        RuntimeConfig { worker_threads: workers }
    }

    fn run_queue() -> Arc<RunQueue> {
        Arc::new(RunQueue::new(RuntimeObs::from_registry(&MetricsRegistry::new())))
    }

    fn spin_until(deadline_ms: u64, mut done: impl FnMut() -> bool) -> bool {
        let start = Instant::now();
        while start.elapsed() < Duration::from_millis(deadline_ms) {
            if done() {
                return true;
            }
            std::thread::yield_now();
        }
        done()
    }

    #[test]
    fn more_work_reruns_until_drained() {
        // body() drains a counter one step per pass and reports "more".
        let left = Arc::new(AtomicUsize::new(5));
        let body = {
            let left = Arc::clone(&left);
            Arc::new(move |_task: usize| left.fetch_sub(1, Ordering::Relaxed) > 1)
                as Arc<dyn Fn(usize) -> bool + Send + Sync>
        };
        let rq = run_queue();
        let mut rt = Runtime::spawn(&rq, 1, &config(1), body);
        rq.push(0);
        assert!(spin_until(2_000, || left.load(Ordering::Relaxed) == 0));
        rt.stop();
    }

    #[test]
    fn panicking_task_does_not_kill_the_pool() {
        let runs = Arc::new(AtomicUsize::new(0));
        let body = {
            let runs = Arc::clone(&runs);
            Arc::new(move |task: usize| {
                runs.fetch_add(1, Ordering::Relaxed);
                if task == 0 {
                    panic!("task 0 always panics");
                }
                false
            }) as Arc<dyn Fn(usize) -> bool + Send + Sync>
        };
        let rq = run_queue();
        let mut rt = Runtime::spawn(&rq, 2, &config(1), body);
        rq.push(0);
        assert!(spin_until(2_000, || runs.load(Ordering::Relaxed) == 1));
        // The single worker survived the panic and still runs task 1.
        rq.push(1);
        assert!(spin_until(2_000, || runs.load(Ordering::Relaxed) == 2));
        rt.stop();
    }

    #[test]
    fn many_tasks_over_few_workers_each_run_exactly_once() {
        // 32 tasks pushed once each onto 3 workers sharing the run queue:
        // every task runs, and none runs twice.
        let runs: Arc<Vec<AtomicUsize>> = Arc::new((0..32).map(|_| AtomicUsize::new(0)).collect());
        let body = {
            let runs = Arc::clone(&runs);
            Arc::new(move |task: usize| {
                runs[task].fetch_add(1, Ordering::Relaxed);
                false
            }) as Arc<dyn Fn(usize) -> bool + Send + Sync>
        };
        let rq = run_queue();
        let mut rt = Runtime::spawn(&rq, 32, &config(3), body);
        assert_eq!(rt.workers.len(), 3);
        for task in 0..32 {
            rq.push(task);
        }
        rt.stop();
        assert!((0..32).all(|t| runs[t].load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn stop_is_idempotent_and_drains_queued_tasks() {
        let runs = Arc::new(AtomicUsize::new(0));
        let body = {
            let runs = Arc::clone(&runs);
            Arc::new(move |_task: usize| {
                runs.fetch_add(1, Ordering::Relaxed);
                false
            }) as Arc<dyn Fn(usize) -> bool + Send + Sync>
        };
        let rq = run_queue();
        let mut rt = Runtime::spawn(&rq, 8, &config(2), body);
        for task in 0..8 {
            rq.push(task);
        }
        rt.stop();
        rt.stop();
        // Shutdown drained everything that was queued before the signal.
        assert_eq!(runs.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn default_config_resolves_sane_worker_counts() {
        let cfg = RuntimeConfig::default();
        assert!(cfg.resolved_workers(1) >= 1);
        assert!(cfg.resolved_workers(4) <= 4);
        assert_eq!(config(3).resolved_workers(1), 3);
    }
}
