//! What a driven run counts: pure functions of the spec and the driver's
//! logic. Two runs of the same spec must produce `==` counter blocks; the
//! soak test asserts exactly that. Timing the service is the benchmark's
//! job (`benchmark/`), not the harness's.

/// Deterministic driver counters.
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

/// Everything one driven run counts.
#[derive(Debug, Clone, Default)]
pub struct TrafficMetrics {
    /// The driver's counters.
    pub counters: TrafficCounters,
    /// Invariant violations, empty on a clean run. Each entry is a
    /// human-readable description; the soak test asserts emptiness.
    pub violations: Vec<String>,
}

impl TrafficMetrics {
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
