//! Dense training data and feature binning.
//!
//! MART trees split on feature thresholds; for speed, features are
//! quantized once into at most 256 quantile bins ([`BinnedDataset`]) and
//! split search runs over bin histograms — the standard histogram
//! gradient-boosting construction. The bin codes depend on the feature
//! matrix only, so one [`BinnedDataset`] serves every model trained on
//! that matrix, whatever its targets ([`crate::Mart::train_binned`]).

/// A dense row-major feature matrix with regression targets.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    n_features: usize,
    x: Vec<f32>,
    y: Vec<f32>,
}

impl Dataset {
    pub fn new(n_features: usize) -> Self {
        Dataset { n_features, x: Vec::new(), y: Vec::new() }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Append one example.
    ///
    /// # Panics
    /// Panics if `row.len() != n_features`.
    pub fn push(&mut self, row: &[f32], target: f32) {
        assert_eq!(row.len(), self.n_features, "feature arity mismatch");
        self.x.extend_from_slice(row);
        self.y.push(target);
    }

    /// Feature row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.x[i * self.n_features..(i + 1) * self.n_features]
    }

    /// Target of example `i`.
    #[inline]
    pub fn target(&self, i: usize) -> f32 {
        self.y[i]
    }

    pub fn targets(&self) -> &[f32] {
        &self.y
    }
}

/// Maximum number of bins per feature.
pub const MAX_BINS: usize = 256;

/// Quantile-binned view of a dataset's feature matrix.
///
/// Every feature value is replaced by the one-byte code of its bin, and
/// the codes are stored twice, because training reads them two ways:
///
/// * **column-major** ([`Self::column`]) for split search, which walks
///   one feature over a node's rows — a column of a few hundred rows is a
///   few cache lines, where the row-major walk touched one line per row;
/// * **row-major** ([`Self::row`]) for the per-row tree descent that
///   updates the boosting residuals, which reads a few features of one row.
///
/// Cut points are computed over a feature's non-NaN values. NaN has no
/// place in their order, so it is binned where inference puts it: the
/// compiled [`crate::Forest`] sends a row right whenever `x <= threshold`
/// is false, i.e. always for NaN, and a split never has the feature's last
/// bin on its left — so NaN takes the **last bin**, next to the largest
/// values, and a NaN row lands in the same leaf in training and in
/// [`crate::Mart::predict`].
#[derive(Debug, Clone)]
pub struct BinnedDataset {
    n_rows: usize,
    n_features: usize,
    /// Row-major bin codes.
    bins: Vec<u8>,
    /// The same codes, column-major.
    columns: Vec<u8>,
    /// Per feature: ascending cut points; bin `b` holds values in
    /// `(cuts[b-1], cuts[b]]`, bin 0 holds `<= cuts[0]`, the last bin holds
    /// the rest. `cuts.len() <= MAX_BINS - 1`.
    cuts: Vec<Vec<f32>>,
}

impl BinnedDataset {
    /// Quantile-bin `data`'s features; its targets are not read.
    pub fn build(data: &Dataset) -> Self {
        let n_rows = data.len();
        let n_features = data.n_features();
        let mut cuts = Vec::with_capacity(n_features);
        let mut vals: Vec<f32> = Vec::with_capacity(n_rows);
        for f in 0..n_features {
            vals.clear();
            vals.extend((0..n_rows).map(|i| data.row(i)[f]).filter(|v| !v.is_nan()));
            // `total_cmp` puts −0.0 before +0.0; `dedup` (by `==`) folds
            // the two into one value, as the cuts always have.
            vals.sort_unstable_by(f32::total_cmp);
            vals.dedup();
            let c = if vals.len() <= MAX_BINS {
                // Midpoints between consecutive distinct values.
                vals.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect::<Vec<f32>>()
            } else {
                let mut c = Vec::with_capacity(MAX_BINS - 1);
                for b in 1..MAX_BINS {
                    let idx = b * (vals.len() - 1) / MAX_BINS;
                    let cut = vals[idx];
                    if c.last().is_none_or(|&l| cut > l) {
                        c.push(cut);
                    }
                }
                c
            };
            cuts.push(c);
        }
        let mut bins = vec![0u8; n_rows * n_features];
        let mut columns = vec![0u8; n_rows * n_features];
        for i in 0..n_rows {
            let row = data.row(i);
            for f in 0..n_features {
                let b = bin_of(&cuts[f], row[f]);
                bins[i * n_features + f] = b;
                columns[f * n_rows + i] = b;
            }
        }
        BinnedDataset { n_rows, n_features, bins, columns, cuts }
    }

    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Bin code of (row, feature).
    #[cfg(test)]
    pub(crate) fn bin(&self, row: usize, feature: usize) -> u8 {
        self.bins[row * self.n_features + feature]
    }

    /// Bin codes of one row.
    #[inline]
    pub fn row(&self, row: usize) -> &[u8] {
        &self.bins[row * self.n_features..(row + 1) * self.n_features]
    }

    /// Bin codes of one feature, indexed by row.
    #[inline]
    pub fn column(&self, feature: usize) -> &[u8] {
        &self.columns[feature * self.n_rows..(feature + 1) * self.n_rows]
    }

    /// Number of used bins for a feature.
    pub fn n_bins(&self, feature: usize) -> usize {
        self.cuts[feature].len() + 1
    }

    /// Real-valued threshold equivalent to "bin <= b" for a feature
    /// (used to convert a binned split into a raw-feature split).
    pub fn threshold(&self, feature: usize, bin: usize) -> f32 {
        let c = &self.cuts[feature];
        if c.is_empty() {
            return f32::INFINITY;
        }
        c[bin.min(c.len() - 1)]
    }
}

/// The bin of `v`: the number of cut points below it; NaN takes the last
/// bin (see [`BinnedDataset`]).
#[inline]
fn bin_of(cuts: &[f32], v: f32) -> u8 {
    let below = if v.is_nan() { cuts.len() } else { cuts.partition_point(|&c| c < v) };
    below.min(MAX_BINS - 1) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let mut d = Dataset::new(2);
        for i in 0..100 {
            d.push(&[i as f32, (i % 10) as f32], i as f32 * 2.0);
        }
        d
    }

    #[test]
    fn dataset_round_trip() {
        let d = toy();
        assert_eq!(d.len(), 100);
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.row(3), &[3.0, 3.0]);
        assert_eq!(d.target(3), 6.0);
    }

    #[test]
    fn binning_preserves_order() {
        let d = toy();
        let b = BinnedDataset::build(&d);
        // Feature 0 has 100 distinct values -> 100 bins; binning must be
        // monotone in the raw value.
        for i in 1..100 {
            assert!(b.bin(i, 0) >= b.bin(i - 1, 0));
        }
        // Feature 1 has 10 distinct values -> 10 bins.
        assert_eq!(b.n_bins(1), 10);
    }

    #[test]
    fn binning_caps_at_max_bins() {
        let mut d = Dataset::new(1);
        for i in 0..10_000 {
            d.push(&[i as f32], 0.0);
        }
        let b = BinnedDataset::build(&d);
        assert!(b.n_bins(0) <= MAX_BINS);
        assert!(b.n_bins(0) > 200);
    }

    #[test]
    fn thresholds_separate_bins() {
        let d = toy();
        let b = BinnedDataset::build(&d);
        // Splitting feature 1 at bin of value 4 must put 0..=4 left.
        let t = b.threshold(1, b.bin(4, 1) as usize);
        assert!(t > 4.0 && t <= 5.0, "threshold {t}");
    }

    #[test]
    fn constant_feature_single_bin() {
        let mut d = Dataset::new(1);
        for _ in 0..50 {
            d.push(&[7.0], 1.0);
        }
        let b = BinnedDataset::build(&d);
        assert_eq!(b.n_bins(0), 1);
        assert_eq!(b.threshold(0, 0), f32::INFINITY);
    }

    #[test]
    fn both_layouts_hold_the_same_codes() {
        let b = BinnedDataset::build(&toy());
        for f in 0..b.n_features() {
            assert_eq!(b.column(f).len(), b.n_rows());
            for i in 0..b.n_rows() {
                assert_eq!(b.column(f)[i], b.row(i)[f]);
                assert_eq!(b.column(f)[i], b.bin(i, f));
            }
        }
    }

    #[test]
    fn nan_takes_the_last_bin_and_leaves_the_cuts_alone() {
        let values = |with_nan: bool| {
            let mut d = Dataset::new(2);
            for i in 0..600 {
                let nan = with_nan && i % 4 == 0;
                // Feature 0 takes the midpoint path, feature 1 the quantile path.
                let x = [(i % 9) as f32, i as f32 * 0.5];
                d.push(&if nan { [f32::NAN; 2] } else { x }, 0.0);
            }
            d
        };
        let (clean, dirty) = (values(false), values(true));
        let (b_clean, b_dirty) = (BinnedDataset::build(&clean), BinnedDataset::build(&dirty));
        assert_eq!(b_dirty.n_bins(0), 9);
        assert_eq!(b_dirty.n_bins(1), MAX_BINS);
        for f in 0..2 {
            for bin in 0..b_dirty.n_bins(f) - 1 {
                assert!(!b_dirty.threshold(f, bin).is_nan());
            }
            for i in 0..600 {
                if dirty.row(i)[f].is_nan() {
                    assert_eq!(b_dirty.bin(i, f) as usize, b_dirty.n_bins(f) - 1);
                }
            }
        }
        // The nine levels of feature 0 all survive the NaN rows, so its
        // finite values bin exactly as they do without them.
        assert_eq!(b_dirty.cuts[0], b_clean.cuts[0]);
        for i in (0..600).filter(|i| i % 4 != 0) {
            assert_eq!(b_dirty.bin(i, 0), b_clean.bin(i, 0));
        }
        // A feature that is NaN throughout is one bin.
        let mut d = Dataset::new(1);
        d.push(&[f32::NAN], 0.0);
        d.push(&[f32::NAN], 1.0);
        let b = BinnedDataset::build(&d);
        assert_eq!((b.n_bins(0), b.bin(0, 0), b.bin(1, 0)), (1, 0, 0));
    }
}
