//! The wait-free metric primitives and the registry that names them.
//!
//! Hot paths hold `Arc` handles to individual metrics and record through
//! a handful of relaxed atomic adds — no locks, no allocation, no
//! syscalls. The registry's mutex is touched only on the cold paths:
//! metric creation (once per name, at construction time) and
//! [`MetricsRegistry::snapshot`] (the scrape).

use crate::snapshot::{HistogramSnapshot, MetricsSnapshot, Sample, SampleValue};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: one zero bucket plus one per power of
/// two of the `u64` range (`2^0 ..= 2^63`).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotone counter. `inc`/`add` are single relaxed `fetch_add`s —
/// wait-free and safe to call from any thread through a shared handle.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A detached counter (not registered anywhere) — embed components
    /// can count unconditionally and only pay registry wiring when a
    /// scrape is wanted.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1 and return the post-increment value — the same single
    /// `fetch_add` as [`Counter::inc`]. Lets hot paths derive a
    /// 1-in-N sampling tick from a count they already pay for instead
    /// of bouncing a second shared cacheline (an A/B against the
    /// uninstrumented path showed a dedicated tick atomic fattening the
    /// read tail).
    pub fn tick(&self) -> u64 {
        self.value.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Overwrite the value — **not** for hot paths. Exists so derived
    /// counters can mirror an authoritative total (a shard's
    /// `registered` count follows its live query map).
    pub fn reset(&self, value: u64) {
        self.value.store(value, Ordering::Relaxed);
    }
}

/// A last-value-wins gauge holding an `f64` (stored as its bit pattern
/// in an `AtomicU64`). `set`/`get` are single relaxed atomic ops.
///
/// Integer-valued gauges (occupancies, depths) are exact up to 2^53.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// A detached gauge holding 0.0.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Store `value`.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed log₂-bucketed histogram over `u64` samples (latencies in
/// nanoseconds, sizes in bytes, …).
///
/// Bucket 0 holds exactly the value 0; bucket `i ≥ 1` holds the range
/// `[2^(i-1), 2^i - 1]`. [`Histogram::record`] is two relaxed
/// `fetch_add`s (the bucket and the running sum) — wait-free, no locks,
/// so recording adds no lock to the path it times.
///
/// Quantiles are served as **bucket brackets**: the exact sample
/// quantile provably lies inside the returned `[lo, hi]` range (the
/// property net pins this for p50/p99 on known distributions); the
/// point estimate [`Histogram::quantile`] is the bracket's upper bound,
/// i.e. conservative.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0u64; HISTOGRAM_BUCKETS].map(AtomicU64::new), sum: AtomicU64::new(0) }
    }
}

/// Bucket index of `value`: 0 for 0, else `64 - leading_zeros` (so 1
/// lands in bucket 1, 2..3 in bucket 2, and so on).
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bucket `i`.
pub fn bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Inclusive upper bound of bucket `i`.
pub fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// A detached histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample: two relaxed `fetch_add`s.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Samples recorded so far (the sum over all buckets).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the bucket counts and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            sum: self.sum(),
        }
    }

    /// The `[lo, hi]` range of the bucket holding the `q`-quantile
    /// sample (rank `round((count - 1) · q)`, matching the harness's
    /// exact-quantile convention). `None` while empty.
    pub fn quantile_bounds(&self, q: f64) -> Option<(u64, u64)> {
        self.snapshot().quantile_bounds(q)
    }

    /// Conservative point estimate of the `q`-quantile: the upper bound
    /// of [`Self::quantile_bounds`]. 0 while empty.
    pub fn quantile(&self, q: f64) -> u64 {
        self.quantile_bounds(q).map(|(_, hi)| hi).unwrap_or(0)
    }
}

/// The three metric shapes a registry can hold under one name.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics, shared across the stack through an
/// `Arc`.
///
/// Lock discipline: the internal mutex guards only the name → handle
/// map. Components call [`MetricsRegistry::counter`] (or `gauge` /
/// `histogram`) **once at construction** and keep the returned `Arc`;
/// every subsequent record is lock-free on the handle. A scrape
/// ([`MetricsRegistry::snapshot`]) takes the map lock briefly to walk
/// the handles — it never blocks a recording thread.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.metrics.lock().map(|m| m.len()).unwrap_or(0);
        write!(f, "MetricsRegistry({n} metrics)")
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Get-or-create the counter registered under `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric
    /// kind — a programming error, not an operational condition.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.metrics.lock().expect("metrics registry poisoned");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            other => panic!("metric {name:?} already registered as {other:?}, wanted a counter"),
        }
    }

    /// Get-or-create the gauge registered under `name`.
    ///
    /// # Panics
    /// Panics on a kind mismatch, like [`Self::counter`].
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.metrics.lock().expect("metrics registry poisoned");
        match map.entry(name.to_string()).or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => Arc::clone(g),
            other => panic!("metric {name:?} already registered as {other:?}, wanted a gauge"),
        }
    }

    /// Get-or-create the histogram registered under `name`.
    ///
    /// # Panics
    /// Panics on a kind mismatch, like [`Self::counter`].
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.metrics.lock().expect("metrics registry poisoned");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            other => panic!("metric {name:?} already registered as {other:?}, wanted a histogram"),
        }
    }

    /// A point-in-time, diffable copy of every registered metric. Values
    /// are read per metric with relaxed loads; the snapshot is
    /// *per-metric* consistent, not globally atomic (fine for
    /// monitoring, by design — a globally consistent cut would require
    /// stopping the world).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.metrics.lock().expect("metrics registry poisoned");
        let samples = map
            .iter()
            .map(|(name, metric)| Sample {
                name: name.clone(),
                value: match metric {
                    Metric::Counter(c) => SampleValue::Counter(c.get()),
                    Metric::Gauge(g) => SampleValue::Gauge(g.get()),
                    Metric::Histogram(h) => SampleValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        MetricsSnapshot { samples }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_values() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("c");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset(2);
        assert_eq!(reg.counter("c").get(), 2, "same name yields the same handle");
        let g = reg.gauge("g");
        g.set(1.5);
        assert_eq!(reg.gauge("g").get(), 1.5);
    }

    #[test]
    fn histogram_buckets_are_a_partition() {
        // Every u64 lands in exactly one bucket whose bounds contain it,
        // and the bounds tile the range without gaps.
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX / 2, u64::MAX] {
            let i = bucket_index(v);
            assert!(bucket_lower(i) <= v && v <= bucket_upper(i), "value {v} outside bucket {i}");
        }
        for i in 1..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_lower(i), bucket_upper(i - 1).wrapping_add(1), "gap before {i}");
        }
    }

    #[test]
    fn histogram_quantile_brackets_the_exact_value() {
        let h = Histogram::new();
        let values: Vec<u64> = (1..=1000).collect();
        for &v in &values {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), values.iter().sum::<u64>());
        for q in [0.0, 0.5, 0.99, 1.0] {
            let rank = ((values.len() - 1) as f64 * q).round() as usize;
            let exact = values[rank];
            let (lo, hi) = h.quantile_bounds(q).unwrap();
            assert!(lo <= exact && exact <= hi, "q={q}: {exact} outside [{lo}, {hi}]");
        }
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_is_a_panic() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("x");
        let _ = reg.gauge("x");
    }
}
