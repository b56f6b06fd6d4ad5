//! Injectable wall-clock time for tapped executions.
//!
//! The engine's *virtual* clock ([`crate::context::ExecContext::now`])
//! measures simulated work and is fully deterministic. Converting progress
//! fractions into "how much longer?" answers additionally needs *wall*
//! time: the real-world instants at which observations became available.
//! Tap events ([`crate::trace::TraceEvent`]) therefore carry a wall stamp,
//! taken from a [`Clock`] at emission — at the producer, not at the
//! consumer, so queueing delay in a sharded monitor cannot skew speed
//! measurements.
//!
//! The clock is injectable precisely so that tests and experiments stay
//! deterministic: [`SystemClock`] (the [`crate::context::ExecConfig`]
//! default) reads the host's monotonic clock, while [`ManualClock`] is
//! driven entirely by the caller — set it, advance it, or let it
//! auto-step a fixed amount per reading so a deterministic engine run
//! produces a byte-identical stamp sequence every time.

use std::sync::Mutex;
use std::time::Instant;

/// A source of wall-clock seconds since the clock's own epoch.
///
/// Implementations must be monotone non-decreasing and cheap: the engine
/// reads the clock once per emitted tap event, inline with execution.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Seconds elapsed since this clock's epoch.
    fn now(&self) -> f64;
}

/// The production clock: the host's monotonic clock, with the clock's
/// construction instant as epoch.
#[derive(Debug)]
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    pub fn new() -> SystemClock {
        SystemClock { origin: Instant::now() }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        SystemClock::new()
    }
}

impl Clock for SystemClock {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }
}

/// A caller-driven clock for deterministic tests and experiments.
///
/// Time only moves when told to: [`ManualClock::set`] /
/// [`ManualClock::advance`] move it explicitly, and a clock built with
/// [`ManualClock::stepping`] additionally auto-advances by a fixed step on
/// every [`Clock::now`] reading — with a deterministic emission order
/// (which the engine guarantees, including under concurrent execution's
/// turn scheduler) the stamp sequence is then byte-identical across runs.
///
/// Share it as `Arc<ManualClock>`: the handle you keep drives the same
/// clock the engine stamps from.
#[derive(Debug, Default)]
pub struct ManualClock {
    /// (current time, auto-step per reading).
    state: Mutex<(f64, f64)>,
}

impl ManualClock {
    /// A clock frozen at `start` until explicitly moved.
    pub fn new(start: f64) -> ManualClock {
        ManualClock { state: Mutex::new((start, 0.0)) }
    }

    /// A clock that returns `start`, `start + step`, `start + 2·step`, …
    /// on successive readings.
    pub fn stepping(start: f64, step: f64) -> ManualClock {
        assert!(step >= 0.0 && step.is_finite(), "step must be finite and >= 0");
        ManualClock { state: Mutex::new((start, step)) }
    }

    /// Jump to `t` (clamped to never move backwards).
    pub fn set(&self, t: f64) {
        let mut st = self.state.lock().expect("clock poisoned");
        st.0 = st.0.max(t);
    }

    /// Move forward by `dt` seconds; returns the new time.
    pub fn advance(&self, dt: f64) -> f64 {
        assert!(dt >= 0.0, "clocks do not run backwards");
        let mut st = self.state.lock().expect("clock poisoned");
        st.0 += dt;
        st.0
    }
}

impl Clock for ManualClock {
    fn now(&self) -> f64 {
        let mut st = self.state.lock().expect("clock poisoned");
        let t = st.0;
        st.0 += st.1;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_clock_is_monotone() {
        let c = SystemClock::new();
        let a = c.now();
        let b = c.now();
        assert!(a >= 0.0 && b >= a);
    }

    #[test]
    fn manual_clock_moves_only_when_told() {
        let c = ManualClock::new(5.0);
        assert_eq!(c.now(), 5.0);
        assert_eq!(c.now(), 5.0);
        assert_eq!(c.advance(2.5), 7.5);
        assert_eq!(c.now(), 7.5);
        c.set(3.0); // backwards: clamped
        assert_eq!(c.now(), 7.5);
        c.set(10.0);
        assert_eq!(c.now(), 10.0);
    }

    #[test]
    fn stepping_clock_auto_advances_per_reading() {
        let c = ManualClock::stepping(1.0, 0.5);
        assert_eq!(c.now(), 1.0);
        assert_eq!(c.now(), 1.5);
        c.advance(10.0);
        assert_eq!(c.now(), 12.0);
        assert_eq!(c.now(), 12.5);
    }
}
