//! Point-in-time metric snapshots and the strict text exposition codec.
//!
//! [`MetricsSnapshot`] is the diffable scrape artifact: every registered
//! metric's value at one instant, sorted by name. [`MetricsSnapshot::render_text`]
//! seals it in the envelope every artifact shares ([`prosel_core::textio`]:
//! versioned header, byte count + FNV-1a 64 checksum over the body,
//! explicit terminator), and [`MetricsSnapshot::parse_text`] is its
//! exact inverse: truncation, bit rot, trailing garbage and version
//! drift are all rejected with a typed [`ExpositionError`]. Gauges are
//! encoded as `f64` hex bit patterns, so the round trip is bit-exact
//! for every value including infinities and NaN payloads.

use crate::metrics::{bucket_lower, bucket_upper, HISTOGRAM_BUCKETS};
use prosel_core::textio::{decimal, f64_from_hex, f64_to_hex, open, seal};
use std::fmt;

/// A point-in-time copy of one histogram: the per-bucket counts (see
/// [`crate::metrics::Histogram`] for the bucket geometry) and the sum of
/// all recorded samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Count per bucket, [`HISTOGRAM_BUCKETS`] entries.
    pub buckets: Vec<u64>,
    /// Sum of all recorded samples.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// An empty histogram snapshot.
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot { buckets: vec![0; HISTOGRAM_BUCKETS], sum: 0 }
    }

    /// Total samples (sum over buckets).
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The `[lo, hi]` range of the bucket holding the `q`-quantile
    /// sample (rank `round((count - 1) · q)`). `None` while empty.
    pub fn quantile_bounds(&self, q: f64) -> Option<(u64, u64)> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = ((n - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if c > 0 && seen > rank {
                return Some((bucket_lower(i), bucket_upper(i)));
            }
        }
        // Unreachable while counts conserve; be safe anyway.
        Some((0, u64::MAX))
    }

    /// Conservative point estimate of the `q`-quantile (upper bracket
    /// bound; 0 while empty).
    pub fn quantile(&self, q: f64) -> u64 {
        self.quantile_bounds(q).map(|(_, hi)| hi).unwrap_or(0)
    }

    /// Element-wise sum — fold per-shard histograms into one
    /// service-wide view.
    pub fn merged(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().zip(&other.buckets).map(|(a, b)| a + b).collect(),
            sum: self.sum + other.sum,
        }
    }

    /// Bucket-wise difference against an earlier snapshot (saturating,
    /// so a restarted counter never underflows).
    pub fn diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .zip(&earlier.buckets)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }
}

/// The value of one scraped metric.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Monotone counter value.
    Counter(u64),
    /// Last-set gauge value.
    Gauge(f64),
    /// Histogram bucket counts + sum.
    Histogram(HistogramSnapshot),
}

/// One scraped metric: its registered name and value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The registry name.
    pub name: String,
    /// The value at scrape time.
    pub value: SampleValue,
}

/// A scrape: every registered metric's value at one instant, sorted by
/// name. Produced by [`crate::MetricsRegistry::snapshot`]; diffable via
/// [`MetricsSnapshot::diff`]; round-trips through
/// [`MetricsSnapshot::render_text`] / [`MetricsSnapshot::parse_text`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// The scraped samples, ascending by name.
    pub samples: Vec<Sample>,
}

/// Rejection from [`MetricsSnapshot::parse_text`]: the exposition text
/// was truncated, corrupted, version-drifted, malformed, or carried
/// trailing garbage.
#[derive(Debug)]
pub struct ExpositionError(pub String);

impl fmt::Display for ExpositionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "metrics exposition rejected: {}", self.0)
    }
}

impl std::error::Error for ExpositionError {}

const HEADER: &str = "prosel-metrics v1";
const FOOTER: &str = "endmetrics";

impl MetricsSnapshot {
    /// Look up one sample by name.
    pub fn get(&self, name: &str) -> Option<&SampleValue> {
        self.samples
            .binary_search_by(|s| s.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.samples[i].value)
    }

    /// Counter value under `name` (`None` if absent or not a counter).
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            SampleValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value under `name` (`None` if absent or not a gauge).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.get(name)? {
            SampleValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Histogram under `name` (`None` if absent or not a histogram).
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name)? {
            SampleValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Sum of every counter whose name ends with `suffix` — the
    /// conservation-law helper (e.g. fold `monitor_shard<i>_events_ingested`
    /// across shards).
    pub fn sum_counters(&self, suffix: &str) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.name.ends_with(suffix))
            .filter_map(|s| match &s.value {
                SampleValue::Counter(v) => Some(*v),
                _ => None,
            })
            .sum()
    }

    /// Bucket-wise merge of every histogram whose name ends with
    /// `suffix` (e.g. fold per-shard ingest-latency histograms into one
    /// service-wide distribution). `None` when no histogram matches.
    pub fn merge_histograms(&self, suffix: &str) -> Option<HistogramSnapshot> {
        let mut acc: Option<HistogramSnapshot> = None;
        for s in &self.samples {
            if !s.name.ends_with(suffix) {
                continue;
            }
            if let SampleValue::Histogram(h) = &s.value {
                acc = Some(match acc {
                    None => h.clone(),
                    Some(a) => a.merged(h),
                });
            }
        }
        acc
    }

    /// The change since `earlier`: counters and histograms subtract
    /// (saturating), gauges keep their current value. Names absent from
    /// `earlier` pass through unchanged — diffing against an older,
    /// smaller scrape is well-defined.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let samples = self
            .samples
            .iter()
            .map(|s| {
                let value = match (&s.value, earlier.get(&s.name)) {
                    (SampleValue::Counter(v), Some(SampleValue::Counter(e))) => {
                        SampleValue::Counter(v.saturating_sub(*e))
                    }
                    (SampleValue::Histogram(h), Some(SampleValue::Histogram(e))) => {
                        SampleValue::Histogram(h.diff(e))
                    }
                    (v, _) => v.clone(),
                };
                Sample { name: s.name.clone(), value }
            })
            .collect();
        MetricsSnapshot { samples }
    }

    /// Serialize as a versioned, checksummed text artifact (the exact
    /// inverse of [`Self::parse_text`]). One line per metric:
    ///
    /// ```text
    /// counter <name> <u64>
    /// gauge <name> <f64 hex bits> <display value>
    /// hist <name> sum <u64> buckets <idx>:<count> ...
    /// ```
    ///
    /// Histogram lines carry only the non-zero buckets; gauge lines
    /// carry both the bit-exact hex encoding (authoritative) and a
    /// human-readable rendering (ignored by the parser).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut body = String::new();
        for s in &self.samples {
            match &s.value {
                SampleValue::Counter(v) => {
                    let _ = writeln!(body, "counter {} {v}", s.name);
                }
                SampleValue::Gauge(v) => {
                    let _ = writeln!(body, "gauge {} {} {v}", s.name, f64_to_hex(*v));
                }
                SampleValue::Histogram(h) => {
                    let _ = write!(body, "hist {} sum {} buckets", s.name, h.sum);
                    for (i, &c) in h.buckets.iter().enumerate() {
                        if c > 0 {
                            let _ = write!(body, " {i}:{c}");
                        }
                    }
                    body.push('\n');
                }
            }
        }
        seal(HEADER, &body, FOOTER)
    }

    /// Parse [`Self::render_text`] output. Strict: the byte count and
    /// checksum must match, every line must parse under its declared
    /// shape, names must be strictly ascending (the sorted-snapshot
    /// invariant), and nothing may follow the terminator.
    pub fn parse_text(text: &str) -> Result<MetricsSnapshot, ExpositionError> {
        let err = |msg: String| ExpositionError(msg);
        let body = open(text, HEADER, FOOTER).map_err(err)?;

        let mut samples: Vec<Sample> = Vec::new();
        for (lineno, line) in body.lines().enumerate() {
            let bad = |what: &str| err(format!("body line {}: {what}: `{line}`", lineno + 1));
            let mut fields = line.split_whitespace();
            let kind = fields.next().ok_or_else(|| bad("empty line"))?;
            let name = fields.next().ok_or_else(|| bad("missing metric name"))?;
            if let Some(prev) = samples.last() {
                if prev.name.as_str() >= name {
                    return Err(bad("names must be strictly ascending"));
                }
            }
            let value = match kind {
                "counter" => {
                    let v = fields.next().ok_or_else(|| bad("missing counter value"))?;
                    let v: u64 = decimal("counter value", v).map_err(|e| bad(&e))?;
                    SampleValue::Counter(v)
                }
                "gauge" => {
                    let hex = fields.next().ok_or_else(|| bad("missing gauge bits"))?;
                    let v = f64_from_hex(hex).map_err(|e| bad(&format!("gauge bits: {e}")))?;
                    // The display rendering is informational; require it
                    // to be present so truncation mid-line is caught.
                    fields.next().ok_or_else(|| bad("missing gauge display value"))?;
                    SampleValue::Gauge(v)
                }
                "hist" => {
                    if fields.next() != Some("sum") {
                        return Err(bad("expected `sum`"));
                    }
                    let sum = fields.next().ok_or_else(|| bad("missing histogram sum"))?;
                    let sum: u64 = decimal("histogram sum", sum).map_err(|e| bad(&e))?;
                    if fields.next() != Some("buckets") {
                        return Err(bad("expected `buckets`"));
                    }
                    let mut h = HistogramSnapshot::empty();
                    h.sum = sum;
                    for pair in fields.by_ref() {
                        let (i, c) = pair
                            .split_once(':')
                            .ok_or_else(|| bad("bucket entries are `idx:count`"))?;
                        let i: usize = decimal("bucket index", i).map_err(|e| bad(&e))?;
                        if i >= HISTOGRAM_BUCKETS {
                            return Err(bad("bucket index out of range"));
                        }
                        let c: u64 = decimal("bucket count", c).map_err(|e| bad(&e))?;
                        if h.buckets[i] != 0 {
                            return Err(bad("duplicate bucket index"));
                        }
                        h.buckets[i] = c;
                    }
                    SampleValue::Histogram(h)
                }
                other => return Err(bad(&format!("unknown metric kind `{other}`"))),
            };
            if fields.next().is_some() {
                return Err(bad("trailing fields"));
            }
            samples.push(Sample { name: name.to_string(), value });
        }
        Ok(MetricsSnapshot { samples })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> MetricsSnapshot {
        let mut h = HistogramSnapshot::empty();
        h.buckets[0] = 2;
        h.buckets[7] = 5;
        h.buckets[64] = 1;
        h.sum = 12345;
        MetricsSnapshot {
            samples: vec![
                Sample { name: "a_counter".into(), value: SampleValue::Counter(42) },
                Sample { name: "b_gauge".into(), value: SampleValue::Gauge(-0.125) },
                Sample { name: "c_hist".into(), value: SampleValue::Histogram(h) },
            ],
        }
    }

    #[test]
    fn round_trips_bit_identically() {
        let snap = sample_snapshot();
        let text = snap.render_text();
        let back = MetricsSnapshot::parse_text(&text).expect("round trip");
        assert_eq!(back, snap);
        assert_eq!(back.render_text(), text);
    }

    #[test]
    fn nan_and_infinite_gauges_round_trip_by_bits() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0] {
            let snap = MetricsSnapshot {
                samples: vec![Sample { name: "g".into(), value: SampleValue::Gauge(v) }],
            };
            let back = MetricsSnapshot::parse_text(&snap.render_text()).expect("parse");
            let Some(SampleValue::Gauge(got)) = back.get("g") else { panic!("gauge lost") };
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let text = sample_snapshot().render_text();
        for cut in 0..text.len() {
            assert!(
                MetricsSnapshot::parse_text(&text[..cut]).is_err(),
                "prefix of {cut} bytes must be rejected"
            );
        }
    }

    #[test]
    fn corruption_and_garbage_are_rejected() {
        let snap = sample_snapshot();
        let text = snap.render_text();
        // Flip a digit in the body: checksum mismatch.
        let idx = text.find("counter a_counter 42").unwrap() + "counter a_counter ".len();
        let mut corrupt = text.clone();
        corrupt.replace_range(idx..idx + 1, "9");
        assert!(MetricsSnapshot::parse_text(&corrupt)
            .unwrap_err()
            .to_string()
            .contains("checksum"));
        // Trailing garbage and version drift.
        let mut trailing = text.clone();
        trailing.push_str("extra\n");
        assert!(MetricsSnapshot::parse_text(&trailing).is_err());
        assert!(MetricsSnapshot::parse_text(&text.replace("v1", "v9")).is_err());
        assert!(MetricsSnapshot::parse_text("").is_err());
    }

    #[test]
    fn diff_subtracts_counters_and_keeps_gauges() {
        let earlier = sample_snapshot();
        let mut later = earlier.clone();
        later.samples[0].value = SampleValue::Counter(50);
        later.samples[1].value = SampleValue::Gauge(9.0);
        let d = later.diff(&earlier);
        assert_eq!(d.counter("a_counter"), Some(8));
        assert_eq!(d.gauge("b_gauge"), Some(9.0));
        assert_eq!(d.histogram("c_hist").unwrap().count(), 0);
    }

    #[test]
    fn suffix_helpers_fold_across_shards() {
        let snap = MetricsSnapshot {
            samples: vec![
                Sample { name: "monitor_shard0_events".into(), value: SampleValue::Counter(3) },
                Sample { name: "monitor_shard1_events".into(), value: SampleValue::Counter(4) },
                Sample { name: "other_total".into(), value: SampleValue::Counter(100) },
            ],
        };
        assert_eq!(snap.sum_counters("_events"), 7);
    }
}
