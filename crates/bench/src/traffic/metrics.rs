//! Metrics collected while driving traffic through the monitor.
//!
//! Two strictly separated kinds of measurement live here:
//!
//! * **Deterministic counters** ([`TrafficCounters`]) — pure functions of
//!   the spec and the driver's logic. Two runs of the same spec must
//!   produce `==` counter blocks; the soak test asserts exactly that.
//! * **Wall-clock latencies** ([`LatencyStats`]) — `Instant`-measured
//!   nanoseconds for progress reads and selector hot-swaps. These vary
//!   run to run and are *reported* (the `traffic-soak` table), never
//!   asserted deterministic.

/// A reservoir of nanosecond samples with exact quantiles.
///
/// Samples are kept raw (the soak issues at most a few hundred thousand
/// reads, comfortably in memory) so quantiles are exact rather than
/// sketched — the same sort-and-index rule as the estimator score tables.
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    samples: Vec<u64>,
}

impl LatencyStats {
    /// Record one sample, in nanoseconds.
    pub fn record(&mut self, nanos: u64) {
        self.samples.push(nanos);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Mean in nanoseconds; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|&n| n as f64).sum::<f64>() / self.samples.len() as f64
    }

    /// Exact quantile `q ∈ [0, 1]` in nanoseconds; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    }

    /// p50 / p99 / p999, the columns the `traffic-soak` table prints.
    pub fn summary(&self) -> (u64, u64, u64) {
        (self.quantile(0.50), self.quantile(0.99), self.quantile(0.999))
    }
}

/// Deterministic driver counters — the reproducible half of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficCounters {
    /// Scheduled arrivals (post-duration-trim schedule length).
    pub arrivals: u64,
    /// Successful registrations acked by the service.
    pub registered: u64,
    /// Queries that reached `Finished` and were verified + unregistered.
    pub finished: u64,
    /// Trace events sent through the tap.
    pub events_sent: u64,
    /// Total approximate wire bytes of those events
    /// ([`prosel_engine::trace::TraceEvent::payload_bytes`]) — the
    /// quantity delta compression shrinks.
    pub event_bytes: u64,
    /// Progress / ETA reads issued.
    pub reads: u64,
    /// Selector hot-swaps issued.
    pub swaps: u64,
    /// Peak depth of the admission wait queue (arrivals held back by
    /// `max_concurrency`).
    pub queue_peak: u64,
    /// Peak number of simultaneously in-flight queries.
    pub max_in_flight: u64,
}

/// Everything one driven run produces.
#[derive(Debug, Clone, Default)]
pub struct TrafficMetrics {
    /// The deterministic half.
    pub counters: TrafficCounters,
    /// Latency of progress / ETA reads, measured at the driver.
    pub read_latency: LatencyStats,
    /// Latency of `swap_selector` round-trips.
    pub swap_latency: LatencyStats,
    /// Driver wall time for the whole run, in seconds.
    pub wall_seconds: f64,
    /// Invariant violations, empty on a clean run. Each entry is a
    /// human-readable description; the soak test asserts emptiness.
    pub violations: Vec<String>,
}

impl TrafficMetrics {
    /// Ingest throughput in events per wall second; 0 for an empty run.
    pub fn events_per_second(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.counters.events_sent as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Mean wire bytes per tap event; 0 for an empty run. Full-snapshot
    /// streams pay O(plan) here, delta streams O(changed counters).
    pub fn bytes_per_event(&self) -> f64 {
        if self.counters.events_sent > 0 {
            self.counters.event_bytes as f64 / self.counters.events_sent as f64
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_on_small_sets() {
        let mut s = LatencyStats::default();
        for n in [5u64, 1, 4, 2, 3] {
            s.record(n);
        }
        assert_eq!(s.count(), 5);
        assert_eq!(s.quantile(0.0), 1);
        assert_eq!(s.quantile(0.5), 3);
        assert_eq!(s.quantile(1.0), 5);
        assert!((s.mean() - 3.0).abs() < 1e-12);
        // p99/p999 on a tiny set round to the max.
        assert_eq!(s.summary(), (3, 5, 5));
    }

    #[test]
    fn empty_stats_are_all_zero() {
        let s = LatencyStats::default();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.mean(), 0.0);
        let m = TrafficMetrics::default();
        assert_eq!(m.events_per_second(), 0.0);
    }

    #[test]
    fn throughput_is_events_over_wall_time() {
        let m = TrafficMetrics {
            counters: TrafficCounters { events_sent: 5_000, ..Default::default() },
            wall_seconds: 2.5,
            ..Default::default()
        };
        assert!((m.events_per_second() - 2_000.0).abs() < 1e-9);
    }
}
