//! Bounded rings of typed, clock-stamped structured events.
//!
//! Metrics aggregate; they cannot answer "*why* was that selector frame
//! refused" or "what did the last retrain decide". [`TraceRing`] keeps
//! the most recent N control-plane events — swap installs and refusals,
//! frame rejections with their typed reason, retrain outcomes, shard
//! panics — each stamped by an injectable
//! [`Clock`] so tests with a [`prosel_engine::clock::ManualClock`] see
//! deterministic stamps.
//!
//! Rings are for **rare** events (swaps, retrains, failures), not the
//! per-event data plane: emission takes a short mutex on the ring's
//! deque, which is fine at control-plane rates and keeps readers
//! trivially consistent. Give each producer its own ring when producers
//! are hot enough to contend.

use prosel_engine::clock::Clock;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Why a selector publication frame was refused by a subscriber.
///
/// Mirrors `prosel_learn::SubscribeError` shape-for-shape (the learn
/// crate depends on this crate, not the other way around, so the reason
/// is restated here as plain data).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameRejectReason {
    /// The underlying stream failed mid-frame.
    Io,
    /// The frame was truncated (torn write / partial read).
    Torn,
    /// The payload checksum did not match the declared one.
    ChecksumMismatch {
        /// Checksum declared in the frame header.
        declared: u64,
        /// Checksum computed over the received payload.
        computed: u64,
    },
    /// The offered epoch does not advance past the installed one.
    StaleEpoch {
        /// Epoch currently installed at the subscriber.
        current: u64,
        /// Epoch the frame offered.
        offered: u64,
    },
    /// The frame's header, meta fields or payload failed to parse.
    Malformed,
}

impl fmt::Display for FrameRejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameRejectReason::Io => write!(f, "io error"),
            FrameRejectReason::Torn => write!(f, "torn frame"),
            FrameRejectReason::ChecksumMismatch { declared, computed } => {
                write!(f, "checksum mismatch (declared {declared:016x}, computed {computed:016x})")
            }
            FrameRejectReason::StaleEpoch { current, offered } => {
                write!(f, "stale epoch (offered {offered}, current {current})")
            }
            FrameRejectReason::Malformed => write!(f, "malformed frame"),
        }
    }
}

/// One structured control-plane event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ObsEvent {
    /// A selector swap was installed service-wide at this epoch.
    SwapInstalled {
        /// The epoch the swap landed at.
        epoch: u64,
    },
    /// A selector swap could not reach every shard.
    SwapRefused {
        /// Number of shards that refused the swap (dead workers).
        dead_shards: usize,
    },
    /// A publication frame was refused by a subscriber.
    FrameRejected {
        /// The typed refusal reason.
        reason: FrameRejectReason,
    },
    /// A retrain round promoted its candidate.
    RetrainPromoted {
        /// Buffered records the candidate was fit on.
        trained_on: usize,
        /// Candidate's validation L1 (NaN when the guard was starved).
        candidate_l1: f64,
        /// Incumbent's validation L1 on the same slice.
        incumbent_l1: f64,
    },
    /// A retrain round held the incumbent (guard rejection or skip).
    RetrainHeld {
        /// Buffered records the candidate was fit on (0 ⇒ skipped).
        trained_on: usize,
        /// Candidate's validation L1.
        candidate_l1: f64,
        /// Incumbent's validation L1.
        incumbent_l1: f64,
    },
    /// A shard worker panicked and was fenced off.
    ShardPanic {
        /// The dead shard's index.
        shard: usize,
    },
}

impl fmt::Display for ObsEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObsEvent::SwapInstalled { epoch } => write!(f, "swap installed (epoch {epoch})"),
            ObsEvent::SwapRefused { dead_shards } => {
                write!(f, "swap refused by {dead_shards} dead shard(s)")
            }
            ObsEvent::FrameRejected { reason } => write!(f, "frame rejected: {reason}"),
            ObsEvent::RetrainPromoted { trained_on, candidate_l1, incumbent_l1 } => write!(
                f,
                "retrain promoted ({trained_on} records, L1 {candidate_l1:.4} vs {incumbent_l1:.4})"
            ),
            ObsEvent::RetrainHeld { trained_on, candidate_l1, incumbent_l1 } => write!(
                f,
                "retrain held ({trained_on} records, L1 {candidate_l1:.4} vs {incumbent_l1:.4})"
            ),
            ObsEvent::ShardPanic { shard } => write!(f, "shard {shard} panicked"),
        }
    }
}

/// One ring entry: the event plus its clock stamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Reading of the ring's clock at emission.
    pub at: f64,
    /// The event.
    pub event: ObsEvent,
}

struct RingInner {
    clock: Arc<dyn Clock>,
    capacity: usize,
    buf: Mutex<VecDeque<TraceRecord>>,
}

/// A bounded ring of clock-stamped [`ObsEvent`]s. Cheap to clone (all
/// clones share the same buffer); see the module docs for when to share
/// vs. give each producer its own.
#[derive(Clone)]
pub struct TraceRing {
    inner: Arc<RingInner>,
}

impl fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TraceRing(cap {}, len {})", self.inner.capacity, self.len())
    }
}

impl TraceRing {
    /// A ring retaining the most recent `capacity` events (clamped to
    /// ≥ 1), stamped by `clock`.
    pub fn new(capacity: usize, clock: Arc<dyn Clock>) -> TraceRing {
        TraceRing {
            inner: Arc::new(RingInner {
                clock,
                capacity: capacity.max(1),
                buf: Mutex::new(VecDeque::new()),
            }),
        }
    }

    /// Append one event, stamped with the ring clock's current reading.
    /// Evicts the oldest entry when full.
    pub fn emit(&self, event: ObsEvent) {
        let at = self.inner.clock.now();
        let mut buf = self.inner.buf.lock().expect("trace ring poisoned");
        if buf.len() == self.inner.capacity {
            buf.pop_front();
        }
        buf.push_back(TraceRecord { at, event });
    }

    /// The retained events, oldest first.
    pub fn recent(&self) -> Vec<TraceRecord> {
        self.inner.buf.lock().expect("trace ring poisoned").iter().copied().collect()
    }

    /// Retained event count.
    pub fn len(&self) -> usize {
        self.inner.buf.lock().expect("trace ring poisoned").len()
    }

    /// Is the ring empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prosel_engine::clock::ManualClock;

    #[test]
    fn ring_stamps_bounds_and_counts_drops() {
        let clock = Arc::new(ManualClock::new(10.0));
        let ring = TraceRing::new(2, clock.clone());
        ring.emit(ObsEvent::SwapInstalled { epoch: 1 });
        clock.advance(5.0);
        ring.emit(ObsEvent::ShardPanic { shard: 0 });
        ring.emit(ObsEvent::SwapRefused { dead_shards: 1 });
        let recent = ring.recent();
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].at, 15.0);
        assert_eq!(recent[0].event, ObsEvent::ShardPanic { shard: 0 });
        assert_eq!(recent[1].event, ObsEvent::SwapRefused { dead_shards: 1 });
    }

    #[test]
    fn clones_share_one_buffer() {
        let ring = TraceRing::new(8, Arc::new(ManualClock::new(0.0)));
        let clone = ring.clone();
        clone.emit(ObsEvent::SwapInstalled { epoch: 99 });
        assert_eq!(ring.len(), 1);
    }
}
