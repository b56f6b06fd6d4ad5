//! Table and column statistics.
//!
//! The optimizer stand-in builds equi-depth histograms and distinct-count
//! estimates from a bounded row *sample* of each column — like a real
//! system's `CREATE STATISTICS ... WITH SAMPLE`. Estimates derived from
//! them inherit the classic error sources: uniformity-within-bucket,
//! sampled NDV extrapolation, and (downstream, in
//! [`crate::cardinality`]) attribute-independence and join containment.
//! Those errors are the paper's Section 4.4.1 "cardinality estimation
//! error" factor — they must exist for TGN to have something to be
//! sensitive to.

use prosel_datagen::{Database, Table};
use std::collections::HashMap;

/// Number of histogram buckets.
pub const HISTOGRAM_BUCKETS: usize = 32;
/// Maximum sampled rows per column.
pub const SAMPLE_CAP: usize = 8192;

/// Equi-depth histogram over an `i64` column.
#[derive(Debug, Clone)]
pub struct EquiDepthHistogram {
    /// Bucket boundaries, ascending; bucket `i` covers
    /// `(bounds[i], bounds[i+1]]` (first bucket includes its lower bound).
    bounds: Vec<i64>,
    /// Estimated rows per bucket (scaled up from the sample).
    counts: Vec<f64>,
    /// Estimated distinct values per bucket.
    distincts: Vec<f64>,
}

impl EquiDepthHistogram {
    /// Build from a (sampled) set of values, scaling counts to `total_rows`.
    /// The sample is sorted in place.
    pub fn build(sample: &mut [i64], total_rows: u64) -> Self {
        if sample.is_empty() {
            return EquiDepthHistogram {
                bounds: vec![0, 0],
                counts: vec![0.0],
                distincts: vec![0.0],
            };
        }
        sample.sort_unstable();
        let n = sample.len();
        let buckets = HISTOGRAM_BUCKETS.min(n).max(1);
        let scale = total_rows as f64 / n as f64;
        let mut bounds = Vec::with_capacity(buckets + 1);
        let mut counts = Vec::with_capacity(buckets);
        let mut distincts = Vec::with_capacity(buckets);
        bounds.push(sample[0]);
        let mut start = 0usize;
        for b in 0..buckets {
            let mut end = (n * (b + 1)) / buckets;
            if end <= start {
                continue;
            }
            // Extend so equal values do not straddle buckets.
            while end < n && sample[end] == sample[end - 1] {
                end += 1;
            }
            let slice = &sample[start..end];
            let mut ndv = 1u64;
            for w in slice.windows(2) {
                if w[0] != w[1] {
                    ndv += 1;
                }
            }
            bounds.push(slice[slice.len() - 1]);
            counts.push(slice.len() as f64 * scale);
            distincts.push(ndv as f64);
            start = end;
            if end >= n {
                break;
            }
        }
        EquiDepthHistogram { bounds, counts, distincts }
    }

    /// Total estimated rows.
    pub fn total(&self) -> f64 {
        self.counts.iter().sum()
    }

    /// Estimated number of rows with `value == v` (uniformity within the
    /// containing bucket).
    pub fn estimate_eq(&self, v: i64) -> f64 {
        let nb = self.counts.len();
        for i in 0..nb {
            let lo = self.bounds[i];
            let hi = self.bounds[i + 1];
            let contains = if i == 0 { v >= lo && v <= hi } else { v > lo && v <= hi };
            if contains {
                let ndv = self.distincts[i].max(1.0);
                return self.counts[i] / ndv;
            }
        }
        0.0
    }

    /// Estimated number of rows with `lo <= value <= hi` (linear
    /// interpolation within partially covered buckets).
    pub fn estimate_range(&self, lo: i64, hi: i64) -> f64 {
        if hi < lo {
            return 0.0;
        }
        let mut est = 0.0;
        let nb = self.counts.len();
        for i in 0..nb {
            let blo = if i == 0 { self.bounds[0] } else { self.bounds[i] };
            let bhi = self.bounds[i + 1];
            // Overlap of [lo,hi] with (blo,bhi] (first bucket [blo,bhi]).
            let olo = lo.max(blo);
            let ohi = hi.min(bhi);
            if ohi < olo {
                continue;
            }
            let width = (bhi - blo).max(1) as f64;
            let overlap = (ohi - olo + 1).min(bhi - blo + 1) as f64;
            est += self.counts[i] * (overlap / width).min(1.0);
        }
        est
    }

    /// Value at quantile `q ∈ [0,1]` (used by workload generators to pick
    /// predicate constants with a target selectivity).
    pub fn quantile(&self, q: f64) -> i64 {
        let total = self.total();
        if total <= 0.0 {
            return self.bounds[0];
        }
        let mut acc = 0.0;
        let target = q.clamp(0.0, 1.0) * total;
        for i in 0..self.counts.len() {
            if acc + self.counts[i] >= target {
                let frac = ((target - acc) / self.counts[i]).clamp(0.0, 1.0);
                let lo = self.bounds[i] as f64;
                let hi = self.bounds[i + 1] as f64;
                return (lo + frac * (hi - lo)).round() as i64;
            }
            acc += self.counts[i];
        }
        *self.bounds.last().unwrap()
    }
}

/// Statistics for one column.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    pub min: i64,
    pub max: i64,
    /// Estimated number of distinct values (sample-extrapolated).
    pub ndv: f64,
    pub histogram: EquiDepthHistogram,
}

impl ColumnStats {
    pub fn build(col: &[i64]) -> Self {
        let rows = col.len();
        if rows == 0 {
            return ColumnStats {
                min: 0,
                max: 0,
                ndv: 0.0,
                histogram: EquiDepthHistogram::build(&mut [], 0),
            };
        }
        // Pseudo-random sample, capped. A *systematic* (every k-th row)
        // sample aliases with periodic column layouts, so rows are chosen
        // by a hash of their position instead.
        let step = rows.div_ceil(SAMPLE_CAP) as u64;
        let mut sample: Vec<i64> = if step <= 1 {
            col.to_vec()
        } else {
            col.iter()
                .enumerate()
                .filter(|(i, _)| {
                    let mut z = *i as u64 ^ 0x9E37_79B9_7F4A_7C15;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    (z ^ (z >> 31)).is_multiple_of(step)
                })
                .map(|(_, &v)| v)
                .collect()
        };
        if sample.is_empty() {
            sample.push(col[0]);
        }
        let sample_n = sample.len();
        let histogram = EquiDepthHistogram::build(&mut sample, rows as u64);
        // `sample` is sorted now.
        let mut sample_ndv = 1u64;
        for w in sample.windows(2) {
            if w[0] != w[1] {
                sample_ndv += 1;
            }
        }
        // First-order jackknife-style scale-up: if almost every sampled row
        // is distinct, assume the column scales with the table; otherwise
        // assume the sample saw most values.
        let ndv = if sample_ndv as f64 >= 0.9 * sample_n as f64 {
            sample_ndv as f64 * (rows as f64 / sample_n as f64)
        } else {
            sample_ndv as f64
        };
        let (mut min, mut max) = (col[0], col[0]);
        for &v in col {
            min = min.min(v);
            max = max.max(v);
        }
        ColumnStats { min, max, ndv: ndv.min(rows as f64), histogram }
    }
}

/// Statistics for one table.
#[derive(Debug, Clone)]
pub struct TableStats {
    pub rows: u64,
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    pub fn build(table: &Table) -> Self {
        TableStats {
            rows: table.rows() as u64,
            columns: (0..table.columns.len())
                .map(|c| ColumnStats::build(table.column(c)))
                .collect(),
        }
    }
}

/// Statistics for a whole database.
#[derive(Debug, Clone)]
pub struct DbStats {
    tables: HashMap<String, TableStats>,
}

impl DbStats {
    pub fn build(db: &Database) -> Self {
        DbStats {
            tables: db.tables().map(|t| (t.name().to_string(), TableStats::build(t))).collect(),
        }
    }

    pub fn table(&self, name: &str) -> &TableStats {
        self.tables.get(name).unwrap_or_else(|| panic!("no statistics for table {name}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_eq_on_uniform_column() {
        let col: Vec<i64> = (0..10_000).map(|i| i % 100).collect();
        let stats = ColumnStats::build(&col);
        // Each value appears 100 times.
        let est = stats.histogram.estimate_eq(42);
        assert!((est - 100.0).abs() < 60.0, "est {est}");
        assert!((stats.ndv - 100.0).abs() < 15.0, "ndv {}", stats.ndv);
    }

    #[test]
    fn histogram_range_covers_total() {
        let col: Vec<i64> = (0..5000).collect();
        let stats = ColumnStats::build(&col);
        let all = stats.histogram.estimate_range(0, 4999);
        assert!((all - 5000.0).abs() / 5000.0 < 0.05, "all {all}");
        let half = stats.histogram.estimate_range(0, 2499);
        assert!((half - 2500.0).abs() / 2500.0 < 0.15, "half {half}");
        assert_eq!(stats.histogram.estimate_range(10, 5), 0.0);
    }

    #[test]
    fn skewed_column_misestimated() {
        // 90% of rows are value 1; uniformity-in-bucket must misestimate
        // the cold values (this error is a feature, not a bug).
        let mut col = vec![1i64; 9000];
        col.extend(2..=1001);
        let stats = ColumnStats::build(&col);
        let hot = stats.histogram.estimate_eq(1);
        assert!(hot > 4000.0, "hot value should be seen as frequent: {hot}");
        let cold = stats.histogram.estimate_eq(500);
        // True count is 1; the estimate will be off but bounded by bucket size.
        assert!(cold < 600.0);
    }

    #[test]
    fn quantile_monotone() {
        let col: Vec<i64> = (0..1000).map(|i| i * 3).collect();
        let stats = ColumnStats::build(&col);
        let q1 = stats.histogram.quantile(0.1);
        let q5 = stats.histogram.quantile(0.5);
        let q9 = stats.histogram.quantile(0.9);
        assert!(q1 < q5 && q5 < q9);
        assert!(q5 > 1000 && q5 < 2000, "median {q5}");
    }

    #[test]
    fn empty_column_safe() {
        let stats = ColumnStats::build(&[]);
        assert_eq!(stats.ndv, 0.0);
        assert_eq!(stats.histogram.estimate_eq(5), 0.0);
        assert_eq!(stats.histogram.estimate_range(0, 10), 0.0);
    }

    #[test]
    fn db_stats_lookup() {
        let db = prosel_datagen::tpch::generate(&prosel_datagen::GenConfig {
            scale: 0.2,
            skew: 1.0,
            seed: 5,
        });
        let stats = DbStats::build(&db);
        let li = stats.table("lineitem");
        assert_eq!(li.rows, db.table("lineitem").rows() as u64);
        assert!(li.columns.len() >= 10);
    }
}
