//! Property net over the [`SpeedTracker`] window math.
//!
//! The invariants the ETA subsystem promises, exercised over randomized
//! sample streams (including regressions, stalls and clamped progress):
//!
//! * ETAs are never negative, and never NaN;
//! * once two samples were accepted, the point estimate is finite;
//! * the interval always brackets the point estimate, and the window's
//!   consecutive-speed bounds always bracket its end-to-end speed;
//! * `progress_at` is clamped, non-decreasing in the deadline, and serves
//!   the latest sample for past deadlines;
//! * an identically-driven [`ManualClock`] produces byte-identical ETA
//!   streams across runs — the determinism that makes ETA serving
//!   regression-testable at all.

use proptest::collection::vec;
use proptest::prelude::*;
use prosel_engine::clock::{Clock, ManualClock};
use prosel_monitor::{Eta, SpeedTracker};

/// Every wall quantity of an [`Eta`], as raw bits — "byte-identical"
/// comparisons compare these, not approximate float equality.
fn eta_bits(e: &Eta) -> [u64; 6] {
    [
        e.as_of.to_bits(),
        e.progress.to_bits(),
        e.speed.to_bits(),
        e.remaining.to_bits(),
        e.remaining_lo.to_bits(),
        e.remaining_hi.to_bits(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn eta_is_nonnegative_finite_and_bracketed(
        window in 2usize..16,
        dts in vec(0.001f64..5.0, 1..48),
        dps in vec(-0.05f64..0.15, 1..48),
    ) {
        let mut tracker = SpeedTracker::new(window);
        let (mut wall, mut progress) = (0.0f64, 0.0f64);
        let mut accepted = usize::from(tracker.offer(wall, progress));
        for (dt, dp) in dts.iter().zip(&dps) {
            // Stalls (dp <= 0) and regressions are part of the stream on
            // purpose: the tracker must reject them, not corrupt itself.
            wall += dt;
            progress = (progress + dp).clamp(0.0, 1.0);
            accepted += usize::from(tracker.offer(wall, progress));

            let e = tracker.estimate();
            prop_assert!(e.remaining >= 0.0 && !e.remaining.is_nan());
            prop_assert!(e.remaining_lo >= 0.0 && e.remaining_hi >= 0.0);
            prop_assert!(
                e.remaining_lo <= e.remaining && e.remaining <= e.remaining_hi,
                "interval [{}, {}] must bracket point {}",
                e.remaining_lo, e.remaining_hi, e.remaining
            );
            if accepted >= 2 {
                prop_assert!(e.is_known(), "{accepted} accepted samples but unknown ETA");
                prop_assert!(e.remaining.is_finite() && e.speed > 0.0);
                let (slow, fast) = tracker.speed_bounds().expect("known => bounds");
                prop_assert!(
                    slow <= e.speed + 1e-12 && e.speed <= fast + 1e-12,
                    "window speed {} outside consecutive bounds [{slow}, {fast}]",
                    e.speed
                );
            } else {
                prop_assert!(!e.is_known());
            }
            prop_assert!(tracker.len() <= window, "ring buffer must stay bounded");
        }
    }

    #[test]
    fn progress_at_deadline_is_clamped_and_monotone(
        dts in vec(0.01f64..3.0, 2..32),
        dps in vec(0.001f64..0.1, 2..32),
        probe in 0.0f64..50.0,
    ) {
        let mut tracker = SpeedTracker::new(8);
        let (mut wall, mut progress) = (1.0f64, 0.0f64);
        tracker.offer(wall, progress);
        for (dt, dp) in dts.iter().zip(&dps) {
            wall += dt;
            progress = (progress + dp).clamp(0.0, 1.0);
            tracker.offer(wall, progress);
        }
        let (as_of, latest) = tracker.latest().expect("samples offered");
        prop_assert_eq!(tracker.estimate().progress_at(as_of), latest);
        prop_assert_eq!(tracker.estimate().progress_at(as_of - 0.5), latest);
        let mut prev = 0.0f64;
        for i in 0..8 {
            let p = tracker.estimate().progress_at(as_of + probe * i as f64 / 8.0);
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert!(p + 1e-12 >= prev, "prediction must not shrink with later deadlines");
            prev = p;
        }
    }

    #[test]
    fn manual_clock_streams_are_byte_identical(
        step in 0.001f64..1.0,
        dps in vec(0.001f64..0.08, 2..40),
        window in 2usize..12,
    ) {
        // Two independent trackers fed from two identically-driven manual
        // clocks must serve bit-for-bit the same ETA stream.
        let run = || -> Vec<[u64; 6]> {
            let clock = ManualClock::stepping(0.0, step);
            let mut tracker = SpeedTracker::new(window);
            let mut progress = 0.0f64;
            let mut out = Vec::new();
            for dp in &dps {
                progress = (progress + dp).clamp(0.0, 1.0);
                tracker.offer(clock.now(), progress);
                out.push(eta_bits(&tracker.estimate()));
            }
            out
        };
        prop_assert_eq!(run(), run());
    }
}
