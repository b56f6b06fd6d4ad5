//! # prosel-obs
//!
//! The observability layer of the monitor stack: **wait-free metrics**,
//! **typed trace rings**, and a **strict text exposition codec** — so a
//! live [`prosel-monitor`](../prosel_monitor/index.html) service can
//! answer "what is ingest latency doing right now", "why was that
//! selector frame refused" and "how long did the last retrain take"
//! without perturbing the paths it measures.
//!
//! Three pieces:
//!
//! * [`MetricsRegistry`] — a named collection of atomic [`Counter`]s,
//!   [`Gauge`]s and fixed log₂-bucketed [`Histogram`]s. Hot paths hold
//!   `Arc` handles and record through a few relaxed atomic adds — no
//!   locks, no allocation, so timing a read or an ingest adds no lock to
//!   it. The registry mutex is touched only at metric creation and at
//!   scrape time.
//! * [`TraceRing`] — a bounded ring of clock-stamped structured
//!   [`ObsEvent`]s (swap installed/refused, frame rejected with its
//!   typed [`FrameRejectReason`], retrain promoted/held, shard panic).
//!   The [`prosel_engine::clock::Clock`] is
//!   injectable, so tests see deterministic stamps.
//! * [`MetricsSnapshot`] — the diffable scrape artifact, serialized by
//!   [`MetricsSnapshot::render_text`] in the workspace's strict
//!   checksummed text-artifact discipline (built on
//!   [`prosel_core::textio`]) and parsed back bit-exactly by
//!   [`MetricsSnapshot::parse_text`]; truncation, corruption and
//!   trailing garbage are rejected with a typed error.
//!
//! The monitor and learn crates thread these through every layer
//! — runtime (parks, queue depth), shard (per-event ingest
//! latency, snapshot eval time, delta decodes), service (read /
//! registration / swap latency, tap volume), learner (buffer occupancy,
//! retrain duration, promotion decisions) — and the traffic soak test
//! holds the registry to its own counts. See the README's
//! "Observability" section for the inventory.
//!
//! ```
//! use prosel_obs::{MetricsRegistry, MetricsSnapshot};
//! use std::sync::Arc;
//!
//! let registry = Arc::new(MetricsRegistry::new());
//! let events = registry.counter("events_total");   // cold: registers
//! let latency = registry.histogram("ingest_ns");
//! for v in [120u64, 340, 95] {
//!     events.inc();                                // hot: one atomic add
//!     latency.record(v);                           // hot: two atomic adds
//! }
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("events_total"), Some(3));
//! let text = snap.render_text();
//! assert_eq!(MetricsSnapshot::parse_text(&text).unwrap(), snap);
//! ```

pub mod metrics;
pub mod ring;
pub mod snapshot;

pub use metrics::{
    bucket_index, bucket_lower, bucket_upper, Counter, Gauge, Histogram, MetricsRegistry,
    HISTOGRAM_BUCKETS,
};
pub use ring::{FrameRejectReason, ObsEvent, TraceRecord, TraceRing};
pub use snapshot::{ExpositionError, HistogramSnapshot, MetricsSnapshot, Sample, SampleValue};

/// The hot paths' latency-histogram sampling stride: 1-in-N events pay
/// the clock reads, the only part of the instrumentation with measurable
/// hot-path cost. Counters, gauges and the cold paths (registration,
/// swap, retrain) are always recorded.
///
/// 4096 keeps sampled events at ~2% of the above-p99 population (1/4096
/// sampled vs 1/100 in the tail), so tail-latency readings of
/// instrumented hot paths are not inflated by the sampler's own clock
/// reads even when the natural latency distribution has its knee right at
/// p99. A service answering ~100k reads/s still lands ~25 histogram
/// samples per second.
pub const SAMPLE_EVERY: u32 = 4096;
