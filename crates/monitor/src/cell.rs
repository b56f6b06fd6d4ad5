//! The read model: one cell per registered query, behind one mutex.
//!
//! The shard core creates a `QueryCell` when it admits a query and
//! stores into it as the last step of every event it ingests. Every
//! per-query read of both public surfaces is a lookup of that cell plus
//! one method of it — [`crate::ProgressMonitor`] finds the cell in its
//! query map and maps "absent" to `None`, [`crate::MonitorService`] finds
//! it in the owning shard's registry and maps "absent" to
//! [`crate::QueryError`] — so what a query serves is decided here, once.
//! A read locks the cell and copies out: no channel send, no queueing
//! behind events, no core or queue lock. The cell's one writer (the
//! owning shard core) holds its mutex only to copy about a hundred bytes
//! in, so a read can wait behind one such copy, never behind an event's
//! evaluation.

use crate::eta::Eta;
use prosel_engine::clock::Clock;
use prosel_estimators::EstimatorKind;
use std::sync::{Mutex, MutexGuard};

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

/// The query-level values of a cell as one plain value: what the shard
/// core keeps current while it ingests, and what a scalar read copies.
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

/// What a cell's mutex guards.
struct Held {
    served: Served,
    /// One row per pipeline, sized at registration and overwritten in
    /// place by every store.
    pipes: Box<[PipelineStatus]>,
    /// Switch history (append-only), written only when a re-selection
    /// changes its mind.
    switches: Vec<SwitchEvent>,
}

/// Everything one registered query serves. See the module docs.
pub(crate) struct QueryCell {
    /// Selector epoch at registration (immutable for the cell's lifetime).
    epoch: u64,
    held: Mutex<Held>,
}

impl QueryCell {
    /// The cell of a query registered under selector epoch `epoch`,
    /// holding its registration-time state.
    pub(crate) fn new(
        epoch: u64,
        served: &Served,
        pipelines: impl Iterator<Item = PipelineStatus>,
    ) -> QueryCell {
        let held = Held { served: *served, pipes: pipelines.collect(), switches: Vec::new() };
        QueryCell { epoch, held: Mutex::new(held) }
    }

    /// The guarded state. A panic while it is held (a dying shard
    /// poisoning it) leaves it whole: every store is plain copies.
    fn lock(&self) -> MutexGuard<'_, Held> {
        self.held.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Replace what the query serves (no allocation: the rows are
    /// overwritten in place).
    pub(crate) fn store(&self, served: &Served, pipelines: impl Iterator<Item = PipelineStatus>) {
        let mut held = self.lock();
        held.served = *served;
        for (row, pipe) in held.pipes.iter_mut().zip(pipelines) {
            *row = pipe;
        }
    }

    /// A copy of the query-level values — what every scalar read is
    /// answered from (no allocation, no pipeline rows).
    fn load(&self) -> Served {
        self.lock().served
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
        self.lock().pipes.get(pipeline).map(|row| row.progress)
    }

    pub(crate) fn status(&self, query: usize) -> QueryStatus {
        let held = self.lock();
        let Served { progress, time, finished, .. } = held.served;
        QueryStatus { query, progress, time, finished, pipelines: held.pipes.to_vec() }
    }

    /// The estimator switches logged so far (owned copy).
    pub(crate) fn switch_history(&self) -> Vec<SwitchEvent> {
        self.lock().switches.clone()
    }

    pub(crate) fn push_switch(&self, switch: SwitchEvent) {
        self.lock().switches.push(switch);
    }
}
