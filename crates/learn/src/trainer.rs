//! The background trainer: the [`OnlineLearner`] core on its own thread.
//!
//! Retraining a MART ensemble takes orders of magnitude longer than
//! ingesting a trace event; a production monitor must never stall its
//! ingest path on a model fit. [`Trainer`] therefore owns the learner on
//! a dedicated thread fed by the harvest channel: the monitor's
//! [`prosel_monitor::HarvestSink`] (a plain sender) stays O(1), and every
//! promotion is pushed through the caller's `publish` hook — typically a
//! closure that stores the model in a [`crate::SelectorHub`] and
//! hot-swaps it into the [`prosel_monitor::MonitorService`].
//!
//! A retrain fits the selector's candidates side by side
//! ([`EstimatorSelector::train`] / [`EstimatorSelector::retrain_from`]) on
//! `min(available_parallelism, candidates)` threads, and the models it
//! promotes are the same, bit for bit, at any width. The trainer thread is
//! one of them, so while a retrain runs it competes for the host's cores
//! with busy shard workers instead of holding to one; what that costs
//! ingest during the fit is not measured.
//!
//! Lifecycle: the thread runs until every harvest sender is dropped; it
//! then performs one final retrain over any not-yet-trained tail (so a
//! short session still learns from its last queries) and returns the
//! learner — [`Trainer::join`] hands it back for inspection or
//! persistence.

use crate::learner::OnlineLearner;
use prosel_core::selection::EstimatorSelector;
use prosel_monitor::HarvestedQuery;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Handle of the background retraining thread. See the module docs.
pub struct Trainer {
    handle: JoinHandle<OnlineLearner>,
}

impl Trainer {
    /// Spawn the trainer over `learner`, draining `rx`. `publish` is
    /// invoked (on the trainer thread) with every *promoted* selector —
    /// wire it to [`crate::SelectorHub::publish`] and
    /// [`prosel_monitor::MonitorService::swap_selector`]. Rejected or
    /// skipped rounds publish nothing.
    pub fn spawn(
        mut learner: OnlineLearner,
        rx: Receiver<HarvestedQuery>,
        publish: impl Fn(&Arc<EstimatorSelector>) + Send + 'static,
    ) -> Trainer {
        let handle = std::thread::spawn(move || {
            while let Ok(harvest) = rx.recv() {
                if let Some(outcome) = learner.absorb_and_maybe_retrain(&harvest) {
                    if outcome.promoted {
                        publish(&learner.current());
                    }
                }
            }
            // All harvest senders are gone: learn from the tail before
            // handing the learner back.
            if learner.pending() > 0 {
                let outcome = learner.retrain();
                if outcome.promoted {
                    publish(&learner.current());
                }
            }
            learner
        });
        Trainer { handle }
    }

    /// Wait for the harvest channel to close and the final retrain to
    /// finish; returns the learner (current model, buffer, stats).
    ///
    /// # Panics
    /// Panics if the trainer thread itself panicked.
    pub fn join(self) -> OnlineLearner {
        self.handle.join().expect("trainer thread panicked")
    }
}
