//! Wall-clock remaining-time (ETA) estimation from progress samples.
//!
//! The monitor serves *fractional* progress; the question a DBA actually
//! asks (König et al. §1) is "how much longer?". Converting one into the
//! other needs the rate at which wall-clock time buys progress. A
//! [`SpeedTracker`] maintains exactly that: a bounded trailing window of
//! `(wall, progress)` samples per query, from which it serves
//!
//! * a **point** estimate — remaining fraction divided by the window's
//!   end-to-end speed, and
//! * an **interval** — the same fraction divided by the *maximum* and
//!   *minimum* consecutive-sample speeds observed inside the window
//!   (optimistic and conservative bounds, the interval-estimate framing of
//!   trailing-window makespan estimation; see PAPERS.md, arXiv:1707.01880).
//!
//! Because the point speed is the mediant of the consecutive speeds, the
//! interval always brackets the point estimate.
//!
//! Robustness properties, by construction:
//!
//! * Samples are accepted only when **both** wall time and progress
//!   strictly advanced, so every retained speed is positive and finite and
//!   ETAs are non-negative — estimator curves that momentarily regress, or
//!   repeated stamps from a frozen [`prosel_engine::clock::ManualClock`],
//!   cannot poison the window (a stall simply widens the wall gap to the
//!   next accepted sample, lowering the measured speed, which is the
//!   honest answer).
//! * The tracker keeps its own history, independent of the monitor's
//!   snapshot-buffer mirror: the engine's thinning protocol
//!   ([`prosel_engine::trace::TraceEvent::Thinned`]) rewrites which
//!   *snapshots* are retained, but never retroactively edits the speed
//!   window — thinning only slows the future sample cadence, which the
//!   trailing window absorbs.
//! * Cost is O(1) per offered sample (amortized): a ring buffer for the
//!   samples and the classic monotone-deque sliding-window minimum /
//!   maximum over consecutive speeds.

use std::collections::VecDeque;

/// A remaining-time answer, all wall quantities in the seconds of the
/// clock that stamped the underlying trace events (see
/// [`prosel_engine::clock::Clock`]).
///
/// Point and interval are measured **from [`Eta::as_of`]** — the wall
/// instant of the latest accepted sample — not from the caller's "now": the
/// estimate is a pure function of the ingested event stream, which is what
/// makes ETA serving bit-deterministic under a manual clock. A caller
/// holding the same clock subtracts `clock.now() - eta.as_of` if it wants
/// staleness-adjusted countdowns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Eta {
    /// Wall instant of the latest accepted sample (0.0 before the first).
    pub as_of: f64,
    /// Progress fraction at `as_of` (1.0 once finished).
    pub progress: f64,
    /// Accepted samples currently in the trailing window.
    pub samples: usize,
    /// Progress per wall second over the window (end-to-end slope); 0.0
    /// until the window holds ≥ 2 samples.
    pub speed: f64,
    /// Point ETA in seconds from `as_of`; `f64::INFINITY` until the window
    /// holds ≥ 2 samples, exactly 0.0 once finished.
    pub remaining: f64,
    /// Optimistic bound: remaining fraction at the fastest consecutive
    /// speed seen in the window. `remaining_lo ≤ remaining ≤ remaining_hi`.
    pub remaining_lo: f64,
    /// Conservative bound: remaining fraction at the slowest consecutive
    /// speed seen in the window.
    pub remaining_hi: f64,
}

impl Eta {
    /// Does this answer carry an actual estimate (finished, or ≥ 2 samples
    /// in the window)?
    pub fn is_known(&self) -> bool {
        self.remaining.is_finite()
    }

    /// The all-infinite answer served before two samples exist.
    fn unknown(as_of: f64, progress: f64, samples: usize) -> Eta {
        Eta {
            as_of,
            progress,
            samples,
            speed: 0.0,
            remaining: f64::INFINITY,
            remaining_lo: f64::INFINITY,
            remaining_hi: f64::INFINITY,
        }
    }

    /// The terminal answer: the query finished at wall instant `as_of`.
    pub(crate) fn finished(as_of: f64) -> Eta {
        Eta {
            as_of,
            progress: 1.0,
            samples: 0,
            speed: 0.0,
            remaining: 0.0,
            remaining_lo: 0.0,
            remaining_hi: 0.0,
        }
    }

    /// Predicted progress at wall instant `deadline` — the
    /// bounded-staleness answer: the progress at [`Eta::as_of`],
    /// extrapolated forward at the window speed and clamped to [0, 1].
    /// Deadlines at or before `as_of`, and deadlines asked while no speed
    /// is measurable (fewer than two samples: before the second sample,
    /// and once finished, when `progress` is 1.0), serve `progress`
    /// unextrapolated.
    pub fn progress_at(&self, deadline: f64) -> f64 {
        let Eta { as_of, progress, samples, speed, .. } = *self;
        if samples < 2 || !deadline.is_finite() || deadline <= as_of {
            return progress;
        }
        (progress + speed * (deadline - as_of)).clamp(0.0, 1.0)
    }

    /// Fold staleness into the countdowns: subtract the wall seconds `now`
    /// has advanced past [`Eta::as_of`] from the point and both interval
    /// estimates, flooring each at 0. This is what makes a stalled
    /// query's served ETA shrink (and pin to 0) instead of freezing at the
    /// last accepted sample: [`SpeedTracker::offer`] correctly rejects
    /// non-advancing samples, so without aging the raw `remaining` would
    /// stay frozen at `as_of` forever.
    ///
    /// `as_of`, `progress`, `samples` and `speed` are untouched — the
    /// result still records which sample it was computed from. Unknown
    /// answers stay unknown (`∞ − age = ∞`), finished answers stay
    /// all-zero, and `remaining_lo ≤ remaining ≤ remaining_hi` is
    /// preserved (subtracting a constant and flooring is monotone).
    #[must_use]
    pub fn aged(&self, now: f64) -> Eta {
        let age = (now - self.as_of).max(0.0);
        Eta {
            remaining: (self.remaining - age).max(0.0),
            remaining_lo: (self.remaining_lo - age).max(0.0),
            remaining_hi: (self.remaining_hi - age).max(0.0),
            ..*self
        }
    }
}

/// Trailing-window tracker of wall-clock progress speed for one query.
/// See the module docs for the model.
#[derive(Debug, Clone)]
pub struct SpeedTracker {
    /// Maximum samples retained (≥ 2).
    window: usize,
    /// `(wall, progress)`, strictly increasing in both components.
    samples: VecDeque<(f64, f64)>,
    /// Sliding-window minimum over consecutive-sample speeds: `(id, speed)`
    /// with speeds non-decreasing front to back.
    min_q: VecDeque<(u64, f64)>,
    /// Sliding-window maximum: speeds non-increasing front to back.
    max_q: VecDeque<(u64, f64)>,
    /// Id of the next consecutive-speed entry (speed `i` connects samples
    /// `i` and `i+1` of the *accepted* sequence).
    next_speed_id: u64,
    /// Id of the oldest speed still inside the window.
    front_speed_id: u64,
}

impl SpeedTracker {
    /// A tracker retaining at most `window` samples (clamped to ≥ 2; a
    /// one-sample window could never measure a slope).
    pub fn new(window: usize) -> SpeedTracker {
        SpeedTracker {
            window: window.max(2),
            samples: VecDeque::new(),
            min_q: VecDeque::new(),
            max_q: VecDeque::new(),
            next_speed_id: 0,
            front_speed_id: 0,
        }
    }

    /// Offer one `(wall, progress)` sample. Returns whether it was
    /// accepted: non-finite components are rejected, as is any sample that
    /// does not strictly advance both wall time and progress past the
    /// latest retained sample (see the module docs for why).
    pub fn offer(&mut self, wall: f64, progress: f64) -> bool {
        if !wall.is_finite() || !progress.is_finite() {
            return false;
        }
        let progress = progress.clamp(0.0, 1.0);
        if let Some(&(last_wall, last_progress)) = self.samples.back() {
            if wall <= last_wall || progress <= last_progress {
                return false;
            }
            let speed = (progress - last_progress) / (wall - last_wall);
            let id = self.next_speed_id;
            self.next_speed_id += 1;
            while self.min_q.back().is_some_and(|&(_, s)| s >= speed) {
                self.min_q.pop_back();
            }
            self.min_q.push_back((id, speed));
            while self.max_q.back().is_some_and(|&(_, s)| s <= speed) {
                self.max_q.pop_back();
            }
            self.max_q.push_back((id, speed));
        }
        self.samples.push_back((wall, progress));
        if self.samples.len() > self.window {
            self.samples.pop_front();
            // Dropping the oldest sample retires the speed that connected
            // it to its successor.
            let expired = self.front_speed_id;
            self.front_speed_id += 1;
            if self.min_q.front().is_some_and(|&(id, _)| id == expired) {
                self.min_q.pop_front();
            }
            if self.max_q.front().is_some_and(|&(id, _)| id == expired) {
                self.max_q.pop_front();
            }
        }
        true
    }

    /// The latest accepted `(wall, progress)` sample.
    pub fn latest(&self) -> Option<(f64, f64)> {
        self.samples.back().copied()
    }

    /// End-to-end speed of the window (progress per wall second); `None`
    /// until ≥ 2 samples.
    pub fn speed(&self) -> Option<f64> {
        if self.samples.len() < 2 {
            return None;
        }
        let (w0, p0) = *self.samples.front().expect("non-empty");
        let (w1, p1) = *self.samples.back().expect("non-empty");
        Some((p1 - p0) / (w1 - w0))
    }

    /// `(slowest, fastest)` consecutive-sample speed inside the window;
    /// `None` until ≥ 2 samples.
    pub fn speed_bounds(&self) -> Option<(f64, f64)> {
        let min = self.min_q.front()?.1;
        let max = self.max_q.front()?.1;
        Some((min, max))
    }

    /// The current remaining-time answer (see [`Eta`]).
    pub fn estimate(&self) -> Eta {
        let Some((as_of, progress)) = self.latest() else {
            return Eta::unknown(0.0, 0.0, 0);
        };
        let (Some(speed), Some((slow, fast))) = (self.speed(), self.speed_bounds()) else {
            return Eta::unknown(as_of, progress, self.samples.len());
        };
        let left = (1.0 - progress).max(0.0);
        Eta {
            as_of,
            progress,
            samples: self.samples.len(),
            speed,
            remaining: left / speed,
            remaining_lo: left / fast,
            remaining_hi: left / slow,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn needs_two_samples_for_an_estimate() {
        let mut t = SpeedTracker::new(8);
        assert!(!t.estimate().is_known());
        assert!(t.offer(1.0, 0.1));
        let e = t.estimate();
        assert!(!e.is_known());
        assert_eq!(e.samples, 1);
        assert_eq!(e.progress, 0.1);
        assert!(t.offer(2.0, 0.2));
        let e = t.estimate();
        assert!(e.is_known());
        // 0.1 progress per second, 0.8 left => 8 seconds.
        assert!((e.remaining - 8.0).abs() < 1e-12);
        assert!((e.speed - 0.1).abs() < 1e-12);
        assert_eq!(e.as_of, 2.0);
    }

    #[test]
    fn rejects_regressions_stalls_and_non_finite() {
        let mut t = SpeedTracker::new(8);
        assert!(t.offer(1.0, 0.5));
        assert!(!t.offer(1.0, 0.6), "wall must strictly advance");
        assert!(!t.offer(2.0, 0.5), "progress must strictly advance");
        assert!(!t.offer(2.0, 0.4), "regressions are dropped");
        assert!(!t.offer(f64::NAN, 0.6));
        assert!(!t.offer(3.0, f64::NAN));
        assert_eq!(t.estimate().samples, 1);
        assert!(t.offer(3.0, 0.6));
        assert_eq!(t.estimate().samples, 2);
    }

    #[test]
    fn interval_brackets_point_and_tracks_window_extremes() {
        let mut t = SpeedTracker::new(8);
        // Speeds between consecutive samples: 0.1, 0.3, 0.05.
        for (w, p) in [(0.0, 0.0), (1.0, 0.1), (2.0, 0.4), (4.0, 0.5)] {
            assert!(t.offer(w, p));
        }
        let (slow, fast) = t.speed_bounds().expect("bounds");
        assert!((slow - 0.05).abs() < 1e-12);
        assert!((fast - 0.3).abs() < 1e-12);
        let e = t.estimate();
        assert!(e.remaining_lo <= e.remaining && e.remaining <= e.remaining_hi);
        // Point speed is the end-to-end slope 0.5/4.
        assert!((e.speed - 0.125).abs() < 1e-12);
    }

    #[test]
    fn window_eviction_retires_old_speeds() {
        let mut t = SpeedTracker::new(3);
        // A very fast first leg that must leave the 3-sample window.
        assert!(t.offer(0.0, 0.0));
        assert!(t.offer(0.1, 0.5)); // speed 5.0
        assert!(t.offer(1.1, 0.6)); // speed 0.1
        assert!(t.offer(2.1, 0.7)); // speed 0.1; evicts the 5.0 leg
        let (slow, fast) = t.speed_bounds().expect("bounds");
        assert!((slow - 0.1).abs() < 1e-12);
        assert!((fast - 0.1).abs() < 1e-12, "evicted speed must not linger, got {fast}");
        assert_eq!(t.estimate().samples, 3);
    }

    #[test]
    fn progress_at_deadline_extrapolates_and_clamps() {
        let mut t = SpeedTracker::new(8);
        assert_eq!(t.estimate().progress_at(5.0), 0.0, "no samples yet");
        t.offer(1.0, 0.2);
        assert_eq!(t.estimate().progress_at(9.0), 0.2, "no speed yet: serve latest");
        t.offer(2.0, 0.3); // 0.1/s
        assert!((t.estimate().progress_at(4.0) - 0.5).abs() < 1e-12);
        assert_eq!(t.estimate().progress_at(1.5), 0.3, "past deadlines serve latest");
        assert_eq!(t.estimate().progress_at(100.0), 1.0, "clamped at completion");
    }

    #[test]
    fn finished_eta_is_zero() {
        let e = Eta::finished(42.0);
        assert!(e.is_known());
        assert_eq!((e.remaining, e.remaining_lo, e.remaining_hi), (0.0, 0.0, 0.0));
        assert_eq!(e.progress, 1.0);
        assert_eq!(e.as_of, 42.0);
    }

    #[test]
    fn aging_shrinks_countdowns_floors_at_zero_and_keeps_the_bracket() {
        let mut t = SpeedTracker::new(8);
        t.offer(0.0, 0.0);
        t.offer(1.0, 0.1);
        t.offer(2.0, 0.4);
        t.offer(4.0, 0.5);
        let raw = t.estimate();
        // No time has passed (or the clock is behind as_of): identity.
        assert_eq!(raw.aged(raw.as_of), raw);
        assert_eq!(raw.aged(raw.as_of - 10.0), raw);
        let aged = raw.aged(raw.as_of + 1.5);
        assert!((aged.remaining - (raw.remaining - 1.5)).abs() < 1e-12);
        assert!((aged.remaining_lo - (raw.remaining_lo - 1.5).max(0.0)).abs() < 1e-12);
        assert!(aged.remaining_lo <= aged.remaining && aged.remaining <= aged.remaining_hi);
        // Sample provenance is untouched by aging.
        assert_eq!((aged.as_of, aged.progress, aged.samples), (raw.as_of, raw.progress, 4));
        // A stall longer than the whole estimate pins every countdown to 0.
        let pinned = raw.aged(raw.as_of + 1e6);
        assert_eq!((pinned.remaining, pinned.remaining_lo, pinned.remaining_hi), (0.0, 0.0, 0.0));
        assert!(pinned.is_known());
        // Unknown stays unknown at any age.
        let mut one = SpeedTracker::new(8);
        one.offer(1.0, 0.1);
        assert!(!one.estimate().aged(100.0).is_known());
        // Finished stays all-zero.
        assert_eq!(Eta::finished(42.0).aged(50.0), Eta::finished(42.0));
    }
}
