//! The read model: one seqlocked cell per registered query.
//!
//! The shard core creates a `QueryCell` when it admits a query and
//! stores into it as the last step of every event it ingests. Every
//! per-query read of both public surfaces is a lookup of that cell plus
//! one method of it — [`crate::ProgressMonitor`] finds the cell in its
//! query map and maps "absent" to `None`, [`crate::MonitorService`] finds
//! it in the owning shard's registry and maps "absent" to
//! [`crate::QueryError`] — so what a query serves is decided here, once.
//! Reads are wait-free loads: no channel send, no queueing behind events,
//! no lock shared with ingest (the unbounded switch history sits behind
//! its own short mutex).

use crate::eta::Eta;
use prosel_engine::clock::Clock;
use prosel_estimators::{EstimatorKind, ONLINE_KINDS};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// One estimator switch, logged when online re-selection changes its mind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchEvent {
    pub pipeline: usize,
    /// Virtual time of the observation that triggered the switch.
    pub time: f64,
    pub from: EstimatorKind,
    pub to: EstimatorKind,
}

/// Progress of one pipeline, as served live.
#[derive(Debug, Clone, Copy)]
pub struct PipelineStatus {
    pub pipeline: usize,
    /// Estimator currently in charge of this pipeline.
    pub estimator: EstimatorKind,
    /// Latest progress estimate in [0, 1]; 0 before the first observation,
    /// 1 once the query finished.
    pub progress: f64,
    /// Number of committed observations so far.
    pub observations: usize,
}

/// Progress of one registered query, as served live.
#[derive(Debug, Clone)]
pub struct QueryStatus {
    pub query: usize,
    /// Estimated query progress in [0, 1] (eq. (5) weighting); exactly 1.0
    /// once the engine reported termination.
    pub progress: f64,
    /// Virtual time of the latest event seen for this query.
    pub time: f64,
    pub finished: bool,
    pub pipelines: Vec<PipelineStatus>,
}

/// The query-level words of a cell as one plain value: what the shard
/// core keeps current while it ingests, and what a scalar read loads.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Served {
    /// Eq. (5)-weighted progress under each pipeline's current estimator,
    /// pinned to exactly 1.0 once finished.
    pub(crate) progress: f64,
    /// Virtual time of the latest event.
    pub(crate) time: f64,
    pub(crate) finished: bool,
    /// The raw at-last-event ETA; [`Eta::finished`] once finished.
    pub(crate) eta: Eta,
}

/// A sequence lock over all-atomic payload fields. The writer (one per
/// cell: the owning shard core, under `&mut` or its mutex) bumps the
/// version to odd, stores the payload, and bumps to even; readers retry
/// while the version is odd or changed across their payload loads. Readers
/// never block and never write shared state — the read path stays
/// wait-free for any number of concurrent readers, and an ingest burst can
/// at worst make a reader retry a few loads.
#[derive(Default)]
struct SeqLock {
    version: AtomicU64,
}

impl SeqLock {
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

/// `EstimatorKind` has no stable numeric contract, so the cells store an
/// index into [`ONLINE_KINDS`] (only online kinds can ever be a pipeline's
/// choice — the oracle kinds are refused at construction and selectors
/// only score online candidates).
pub(crate) fn kind_to_code(kind: EstimatorKind) -> usize {
    ONLINE_KINDS.iter().position(|&k| k == kind).expect("pipeline choices are online kinds")
}

pub(crate) fn kind_from_code(code: usize) -> EstimatorKind {
    ONLINE_KINDS[code.min(ONLINE_KINDS.len() - 1)]
}

/// One pipeline's row inside a [`QueryCell`]'s seqlock.
#[derive(Default)]
struct PipeCell {
    /// Pipeline id (immutable; plans don't change under a registration).
    pipeline: usize,
    /// Index into [`ONLINE_KINDS`] of the estimator currently in charge.
    estimator: AtomicUsize,
    progress: AtomicU64,
    observations: AtomicUsize,
}

/// Everything one registered query serves. See the module docs.
#[derive(Default)]
pub(crate) struct QueryCell {
    /// Selector epoch at registration (immutable for the cell's lifetime).
    epoch: u64,
    seq: SeqLock,
    progress: AtomicU64,
    time: AtomicU64,
    finished: AtomicBool,
    // The raw at-last-event Eta, field by field (f64s as bit patterns).
    eta_as_of: AtomicU64,
    eta_progress: AtomicU64,
    eta_samples: AtomicUsize,
    eta_speed: AtomicU64,
    eta_remaining: AtomicU64,
    eta_lo: AtomicU64,
    eta_hi: AtomicU64,
    pipes: Box<[PipeCell]>,
    /// Switch history (append-only). A mutex, not the seqlock: it is
    /// unbounded, read rarely and written only when a re-selection
    /// changes its mind, so neither side holds it for more than a short
    /// memcpy.
    switches: Mutex<Vec<SwitchEvent>>,
}

impl QueryCell {
    /// The cell of a query registered under selector epoch `epoch`,
    /// holding its registration-time state.
    pub(crate) fn new(
        epoch: u64,
        served: &Served,
        pipelines: impl Iterator<Item = PipelineStatus> + Clone,
    ) -> QueryCell {
        let cell = QueryCell {
            epoch,
            pipes: pipelines
                .clone()
                .map(|p| PipeCell { pipeline: p.pipeline, ..PipeCell::default() })
                .collect(),
            ..QueryCell::default()
        };
        cell.store(served, pipelines);
        cell
    }

    /// Replace what the query serves. One writer per cell (the owning
    /// shard core), so writes are mutually exclusive.
    pub(crate) fn store(&self, served: &Served, pipelines: impl Iterator<Item = PipelineStatus>) {
        self.seq.write(|| {
            store_f64(&self.progress, served.progress);
            store_f64(&self.time, served.time);
            self.finished.store(served.finished, Ordering::Relaxed);
            store_f64(&self.eta_as_of, served.eta.as_of);
            store_f64(&self.eta_progress, served.eta.progress);
            self.eta_samples.store(served.eta.samples, Ordering::Relaxed);
            store_f64(&self.eta_speed, served.eta.speed);
            store_f64(&self.eta_remaining, served.eta.remaining);
            store_f64(&self.eta_lo, served.eta.remaining_lo);
            store_f64(&self.eta_hi, served.eta.remaining_hi);
            for (cell, pipe) in self.pipes.iter().zip(pipelines) {
                cell.estimator.store(kind_to_code(pipe.estimator), Ordering::Relaxed);
                store_f64(&cell.progress, pipe.progress);
                cell.observations.store(pipe.observations, Ordering::Relaxed);
            }
        });
    }

    /// The query-level words, unsynchronised: call inside `seq.read`.
    fn words(&self) -> Served {
        Served {
            progress: load_f64(&self.progress),
            time: load_f64(&self.time),
            finished: self.finished.load(Ordering::Relaxed),
            eta: Eta {
                as_of: load_f64(&self.eta_as_of),
                progress: load_f64(&self.eta_progress),
                samples: self.eta_samples.load(Ordering::Relaxed),
                speed: load_f64(&self.eta_speed),
                remaining: load_f64(&self.eta_remaining),
                remaining_lo: load_f64(&self.eta_lo),
                remaining_hi: load_f64(&self.eta_hi),
            },
        }
    }

    /// A consistent copy of the query-level words — what every scalar read
    /// is answered from (no allocation, no pipeline rows).
    fn load(&self) -> Served {
        self.seq.read(|| self.words())
    }

    pub(crate) fn progress(&self) -> f64 {
        self.load().progress
    }

    pub(crate) fn is_finished(&self) -> bool {
        self.load().finished
    }

    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The raw at-last-event ETA.
    pub(crate) fn eta(&self) -> Eta {
        self.load().eta
    }

    /// [`Self::eta`] with the staleness against `clock` folded in.
    pub(crate) fn remaining_time(&self, clock: &dyn Clock) -> Eta {
        self.eta().aged(clock.now())
    }

    /// Progress predicted for wall instant `deadline`; exactly 1.0 once
    /// finished (the terminal ETA carries progress 1.0 and no samples).
    pub(crate) fn progress_at_deadline(&self, deadline: f64) -> f64 {
        self.eta().progress_at(deadline)
    }

    /// `None` for a pipeline index the plan does not have.
    pub(crate) fn pipeline_progress(&self, pipeline: usize) -> Option<f64> {
        let cell = self.pipes.get(pipeline)?;
        Some(self.seq.read(|| load_f64(&cell.progress)))
    }

    pub(crate) fn status(&self, query: usize) -> QueryStatus {
        self.seq.read(|| {
            let Served { progress, time, finished, .. } = self.words();
            let pipelines = self
                .pipes
                .iter()
                .map(|cell| PipelineStatus {
                    pipeline: cell.pipeline,
                    estimator: kind_from_code(cell.estimator.load(Ordering::Relaxed)),
                    progress: load_f64(&cell.progress),
                    observations: cell.observations.load(Ordering::Relaxed),
                })
                .collect();
            QueryStatus { query, progress, time, finished, pipelines }
        })
    }

    /// The estimator switches logged so far (owned copy).
    pub(crate) fn switch_history(&self) -> Vec<SwitchEvent> {
        self.switches.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    pub(crate) fn push_switch(&self, switch: SwitchEvent) {
        self.switches.lock().unwrap_or_else(|e| e.into_inner()).push(switch);
    }
}
