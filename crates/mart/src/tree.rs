//! Regression trees with best-first growth and histogram split search.
//!
//! The search is feature-major: for each feature, a node's rows are
//! accumulated — in row order — into a 256-cell `(count, sum)` histogram
//! beside a 256-bit mask of the cells touched, and only those cells are
//! scanned (ascending) and cleared. Deep in a 30-leaf tree a node holds a
//! few dozen rows, so this is what makes a node cost O(rows × features)
//! instead of O(bins × features). The rows of a tree live in one arena
//! that splits partition in place and stably; all of it is
//! [`FitScratch`], allocated once per training.

use crate::dataset::{BinnedDataset, MAX_BINS};

/// One tree node. Leaves have `feature == u32::MAX`.
#[derive(Debug, Clone, Copy)]
pub struct TreeNode {
    /// Split feature, or `u32::MAX` for a leaf.
    pub feature: u32,
    /// Raw-value threshold: rows with `x[feature] <= threshold` go left.
    pub threshold: f32,
    /// Bin-code threshold used during training traversal.
    pub bin_threshold: u8,
    pub left: u32,
    pub right: u32,
    /// Leaf response (undefined for internal nodes).
    pub value: f32,
}

impl TreeNode {
    fn leaf(value: f32) -> Self {
        TreeNode { feature: u32::MAX, threshold: 0.0, bin_threshold: 0, left: 0, right: 0, value }
    }

    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.feature == u32::MAX
    }
}

/// A trained regression tree.
#[derive(Debug, Clone, Default)]
pub struct RegressionTree {
    pub nodes: Vec<TreeNode>,
    /// `(feature, least-squares gain)` of every split made, in expansion
    /// order (gain-based feature importance).
    pub split_gains: Vec<(u32, f64)>,
}

/// Growth parameters.
#[derive(Debug, Clone)]
pub struct TreeParams {
    /// Maximum number of leaves (the paper trains 30-leaf trees).
    pub max_leaves: usize,
    /// Minimum examples per leaf.
    pub min_samples_leaf: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams { max_leaves: 30, min_samples_leaf: 5 }
    }
}

/// A candidate split for one leaf.
#[derive(Debug, Clone, Copy)]
struct Split {
    gain: f64,
    feature: usize,
    bin: u8,
}

/// One histogram cell: how many of the node's rows fell in the bin, and
/// the sum of their targets.
#[derive(Debug, Clone, Copy, Default)]
struct BinStat {
    count: u32,
    sum: f64,
}

/// Features searched side by side. Rows that follow each other into the
/// same bin (or the same mask word) wait on each other's stores; a second,
/// independent feature fills those bubbles (measured: two lanes beat one
/// by a fifth, and three or four are no better than two).
const LANES: usize = 2;

/// The histogram of one `(node, feature)`: 4 KB, L1-resident, all zero
/// between two features.
#[derive(Debug, Clone, Copy)]
struct Lane {
    hist: [BinStat; MAX_BINS],
    /// Bit `b` is set while `hist[b]` is non-zero.
    touched: [u64; MAX_BINS / 64],
}

/// What a node's candidate splits are scored against.
#[derive(Debug, Clone, Copy)]
struct NodeStats {
    n_rows: u32,
    sum: f64,
    /// `sum² / n_rows`: the node's score unsplit.
    base_score: f64,
    min_samples_leaf: usize,
}

/// A leaf still open for splitting: its node, its rows as a range of the
/// row arena, and the best split found for it.
#[derive(Debug)]
struct OpenLeaf {
    node: usize,
    rows: std::ops::Range<usize>,
    split: Option<Split>,
}

/// Working memory for growing trees, allocated once per training and
/// reused by every node of every tree ([`RegressionTree::fit`] allocates
/// nothing per node).
#[derive(Debug)]
pub struct FitScratch {
    /// The row arena: the tree's sample. Every node owns a contiguous
    /// range of it; a split partitions the range in place, keeping the
    /// order of the rows on each side.
    arena: Vec<u32>,
    /// The right-hand rows of the split being applied.
    spill: Vec<u32>,
    /// The tree's features that have more than one bin, in the order given.
    splittable: Vec<u32>,
    /// The targets of the node being searched, in arena order.
    targets: Vec<f64>,
    lanes: [Lane; LANES],
    leaves: Vec<OpenLeaf>,
}

impl Default for FitScratch {
    fn default() -> Self {
        let lane = Lane { hist: [BinStat::default(); MAX_BINS], touched: [0; MAX_BINS / 64] };
        FitScratch {
            arena: Vec::new(),
            spill: Vec::new(),
            splittable: Vec::new(),
            targets: Vec::new(),
            lanes: [lane; LANES],
            leaves: Vec::new(),
        }
    }
}

impl RegressionTree {
    /// Fit a tree to `targets` (one per row of `data`) over the `rows`
    /// sample, best-first, least-squares, splitting on the listed
    /// `features` only (column subsampling for stochastic boosting).
    pub fn fit(
        data: &BinnedDataset,
        targets: &[f32],
        rows: &[u32],
        features: &[u32],
        params: &TreeParams,
        scratch: &mut FitScratch,
    ) -> RegressionTree {
        assert_eq!(targets.len(), data.n_rows());
        let mut tree = RegressionTree::default();
        scratch.start_tree(data, rows, features);

        let root = scratch.open_leaf(&mut tree, 0..rows.len(), data, targets, params);
        scratch.leaves.push(root);
        let mut n_leaves = 1;
        while n_leaves < params.max_leaves {
            // Pick the splittable leaf with the largest gain.
            let Some(best_idx) = scratch
                .leaves
                .iter()
                .enumerate()
                .filter(|(_, l)| l.split.is_some())
                .max_by(|a, b| {
                    let ga = a.1.split.unwrap().gain;
                    let gb = b.1.split.unwrap().gain;
                    ga.partial_cmp(&gb).unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|(i, _)| i)
            else {
                break;
            };
            let leaf = scratch.leaves.swap_remove(best_idx);
            let split = leaf.split.unwrap();

            let mid = scratch.partition(leaf.rows.clone(), data.column(split.feature), split.bin);
            debug_assert!(leaf.rows.start < mid && mid < leaf.rows.end);
            let left = scratch.open_leaf(&mut tree, leaf.rows.start..mid, data, targets, params);
            let right = scratch.open_leaf(&mut tree, mid..leaf.rows.end, data, targets, params);

            tree.split_gains.push((split.feature as u32, split.gain));
            let n = &mut tree.nodes[leaf.node];
            n.feature = split.feature as u32;
            n.bin_threshold = split.bin;
            n.threshold = data.threshold(split.feature, split.bin as usize);
            n.left = left.node as u32;
            n.right = right.node as u32;

            scratch.leaves.push(left);
            scratch.leaves.push(right);
            n_leaves += 1;
        }
        tree
    }

    /// Predict from raw feature values by walking the nodes — the oracle
    /// the compiled [`crate::Forest`] is tested against; inference itself
    /// goes through the forest only.
    #[cfg(test)]
    pub(crate) fn predict(&self, row: &[f32]) -> f32 {
        let mut n = &self.nodes[0];
        while !n.is_leaf() {
            n = if row[n.feature as usize] <= n.threshold {
                &self.nodes[n.left as usize]
            } else {
                &self.nodes[n.right as usize]
            };
        }
        n.value
    }

    /// Predict from bin codes (training-time traversal).
    pub fn predict_binned(&self, bins: &[u8]) -> f32 {
        let mut n = &self.nodes[0];
        while !n.is_leaf() {
            n = if bins[n.feature as usize] <= n.bin_threshold {
                &self.nodes[n.left as usize]
            } else {
                &self.nodes[n.right as usize]
            };
        }
        n.value
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Accumulate least-squares split gains per feature into `out`
    /// (gain-based feature importance).
    pub fn accumulate_gains(&self, out: &mut [f64]) {
        for &(f, g) in &self.split_gains {
            out[f as usize] += g;
        }
    }
}

/// Add a node's rows to the first `N` lanes, lane `i` binning them by
/// `columns[i]`. Rows arrive in arena order — a bin's sum depends on it.
#[inline(always)]
fn accumulate<const N: usize>(
    lanes: &mut [Lane; LANES],
    columns: [&[u8]; N],
    rows: &[u32],
    targets: &[f64],
) {
    for (&r, &t) in rows.iter().zip(targets) {
        for i in 0..N {
            let b = columns[i][r as usize] as usize;
            let lane = &mut lanes[i];
            lane.hist[b].count += 1;
            lane.hist[b].sum += t;
            lane.touched[b / 64] |= 1 << (b % 64);
        }
    }
}

impl Lane {
    /// Score the splits "bin <= b" of `feature` at every touched bin,
    /// ascending, against `best`, and leave the lane all zero. The last
    /// touched bin leaves nothing on the right, so it never qualifies.
    #[inline(always)]
    fn scan(&mut self, feature: usize, node: NodeStats, best: &mut Option<Split>) {
        let mut cnt_l = 0u32;
        let mut sum_l = 0f64;
        for word in 0..self.touched.len() {
            let mut bits = std::mem::take(&mut self.touched[word]);
            while bits != 0 {
                let b = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let bin = std::mem::take(&mut self.hist[b]);
                cnt_l += bin.count;
                sum_l += bin.sum;
                let cnt_r = node.n_rows - cnt_l;
                if (cnt_l as usize) < node.min_samples_leaf
                    || (cnt_r as usize) < node.min_samples_leaf
                {
                    continue;
                }
                let sum_r = node.sum - sum_l;
                let score =
                    sum_l * sum_l / cnt_l as f64 + sum_r * sum_r / cnt_r as f64 - node.base_score;
                if score > 1e-12 && best.is_none_or(|s| score > s.gain) {
                    *best = Some(Split { gain: score, feature, bin: b as u8 });
                }
            }
        }
    }
}

impl FitScratch {
    /// Load the tree's sample into the arena and note which of its
    /// features can split at all.
    fn start_tree(&mut self, data: &BinnedDataset, rows: &[u32], features: &[u32]) {
        self.arena.clear();
        self.arena.extend_from_slice(rows);
        self.splittable.clear();
        self.splittable.extend(features.iter().filter(|&&f| data.n_bins(f as usize) >= 2));
        self.leaves.clear();
    }

    /// Append a leaf node for the arena range `rows` — its value the mean
    /// target — and search its best split.
    fn open_leaf(
        &mut self,
        tree: &mut RegressionTree,
        rows: std::ops::Range<usize>,
        data: &BinnedDataset,
        targets: &[f32],
        params: &TreeParams,
    ) -> OpenLeaf {
        self.targets.clear();
        self.targets.extend(self.arena[rows.clone()].iter().map(|&r| targets[r as usize] as f64));
        let sum = self.targets.iter().sum::<f64>();
        let mean = if rows.is_empty() { 0.0 } else { sum as f32 / rows.len() as f32 };
        tree.nodes.push(TreeNode::leaf(mean));
        let split = self.best_split(data, rows.clone(), sum, params.min_samples_leaf);
        OpenLeaf { node: tree.nodes.len() - 1, rows, split }
    }

    /// The best least-squares split of the arena range `rows`, whose
    /// targets (summing to `sum`) are in `self.targets`.
    ///
    /// Feature-major: per feature, the node's rows are accumulated into a
    /// lane and only the bins they touched are scanned and cleared, so a
    /// node costs O(rows × features) however many bins the features have.
    /// What fixes the result bit for bit: rows are added to a bin's sum in
    /// arena order, bins are visited ascending, features in the order
    /// given, and a candidate replaces the best so far only under a strict
    /// `>`. (A split just left of an untouched bin scores exactly like the
    /// one at the touched bin below it, so skipping untouched bins drops
    /// ties only.)
    fn best_split(
        &mut self,
        data: &BinnedDataset,
        rows: std::ops::Range<usize>,
        sum: f64,
        min_samples_leaf: usize,
    ) -> Option<Split> {
        if rows.len() < 2 * min_samples_leaf {
            return None;
        }
        let rows = &self.arena[rows];
        let n_rows = rows.len() as u32;
        let node =
            NodeStats { n_rows, sum, base_score: sum * sum / n_rows as f64, min_samples_leaf };

        let mut best: Option<Split> = None;
        let mut groups = self.splittable.chunks_exact(LANES);
        for group in groups.by_ref() {
            let columns: [&[u8]; LANES] = std::array::from_fn(|i| data.column(group[i] as usize));
            accumulate(&mut self.lanes, columns, rows, &self.targets);
            for (lane, &f) in self.lanes.iter_mut().zip(group) {
                lane.scan(f as usize, node, &mut best);
            }
        }
        for &f in groups.remainder() {
            accumulate(&mut self.lanes, [data.column(f as usize)], rows, &self.targets);
            self.lanes[0].scan(f as usize, node, &mut best);
        }
        best
    }

    /// Stable in-place partition of the arena range `rows` by
    /// `column[row] <= bin`; returns where the right side starts.
    fn partition(&mut self, rows: std::ops::Range<usize>, column: &[u8], bin: u8) -> usize {
        self.spill.clear();
        let mut mid = rows.start;
        for i in rows {
            let r = self.arena[i];
            if column[r as usize] <= bin {
                self.arena[mid] = r;
                mid += 1;
            } else {
                self.spill.push(r);
            }
        }
        self.arena[mid..mid + self.spill.len()].copy_from_slice(&self.spill);
        mid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The dense row-major split search the feature-major kernel replaced,
    /// kept as its oracle: one `features × bins` histogram per node, every
    /// bin of every feature scanned.
    fn best_split_dense(
        data: &BinnedDataset,
        targets: &[f32],
        rows: &[u32],
        features: &[u32],
        params: &TreeParams,
    ) -> Option<Split> {
        if rows.len() < 2 * params.min_samples_leaf {
            return None;
        }
        let nf = data.n_features();
        // Histograms: per feature per bin, (count, target sum).
        let max_bins = features.iter().map(|&f| data.n_bins(f as usize)).max().unwrap_or(1);
        let mut hist_cnt = vec![0u32; nf * max_bins];
        let mut hist_sum = vec![0f64; nf * max_bins];
        let mut total_sum = 0f64;
        for &r in rows {
            let row_bins = data.row(r as usize);
            let t = targets[r as usize] as f64;
            total_sum += t;
            for &f in features {
                let b = row_bins[f as usize];
                let idx = f as usize * max_bins + b as usize;
                hist_cnt[idx] += 1;
                hist_sum[idx] += t;
            }
        }
        let n_total = rows.len() as f64;
        let base_score = total_sum * total_sum / n_total;

        let mut best: Option<Split> = None;
        for &f in features {
            let f = f as usize;
            let nb = data.n_bins(f);
            if nb < 2 {
                continue;
            }
            let mut cnt_l = 0u32;
            let mut sum_l = 0f64;
            // Split "bin <= b": scan left-to-right, excluding the last bin.
            for b in 0..nb - 1 {
                cnt_l += hist_cnt[f * max_bins + b];
                sum_l += hist_sum[f * max_bins + b];
                let cnt_r = rows.len() as u32 - cnt_l;
                if (cnt_l as usize) < params.min_samples_leaf
                    || (cnt_r as usize) < params.min_samples_leaf
                {
                    continue;
                }
                let sum_r = total_sum - sum_l;
                let score =
                    sum_l * sum_l / cnt_l as f64 + sum_r * sum_r / cnt_r as f64 - base_score;
                if score > 1e-12 && best.is_none_or(|s| score > s.gain) {
                    best = Some(Split { gain: score, feature: f, bin: b as u8 });
                }
            }
        }
        best
    }

    /// Fit over every feature with a fresh scratch; also the prediction
    /// for every row of the dataset.
    fn fit_all(
        data: &BinnedDataset,
        targets: &[f32],
        rows: &[u32],
        params: &TreeParams,
    ) -> (RegressionTree, Vec<f32>) {
        let all: Vec<u32> = (0..data.n_features() as u32).collect();
        let tree =
            RegressionTree::fit(data, targets, rows, &all, params, &mut FitScratch::default());
        let preds = (0..data.n_rows()).map(|i| tree.predict_binned(data.row(i))).collect();
        (tree, preds)
    }

    fn step_data() -> (Dataset, BinnedDataset) {
        // y = 1 when x0 > 50 else 0; x1 is noise.
        let mut d = Dataset::new(2);
        for i in 0..200 {
            let y = if i > 50 { 1.0 } else { 0.0 };
            d.push(&[i as f32, (i * 7 % 13) as f32], y);
        }
        let b = BinnedDataset::build(&d);
        (d, b)
    }

    #[test]
    fn learns_step_function() {
        let (d, b) = step_data();
        let rows: Vec<u32> = (0..d.len() as u32).collect();
        let (tree, preds) = fit_all(&b, d.targets(), &rows, &TreeParams::default());
        assert!(tree.n_leaves() >= 2);
        // Perfectly separable: training MSE should be ~0.
        let mse: f64 =
            (0..d.len()).map(|i| (preds[i] - d.target(i)) as f64).map(|e| e * e).sum::<f64>()
                / d.len() as f64;
        assert!(mse < 1e-6, "mse {mse}");
        // Raw-value prediction agrees with binned prediction.
        for i in [0usize, 10, 51, 199] {
            assert_eq!(tree.predict(d.row(i)), tree.predict_binned(b.row(i)));
        }
    }

    #[test]
    fn respects_max_leaves() {
        let mut d = Dataset::new(1);
        for i in 0..500 {
            d.push(&[i as f32], (i % 17) as f32);
        }
        let b = BinnedDataset::build(&d);
        let rows: Vec<u32> = (0..500).collect();
        let params = TreeParams { max_leaves: 8, min_samples_leaf: 5 };
        let (tree, _) = fit_all(&b, d.targets(), &rows, &params);
        assert!(tree.n_leaves() <= 8);
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let mut d = Dataset::new(2);
        for i in 0..50 {
            d.push(&[i as f32, -(i as f32)], 3.25);
        }
        let b = BinnedDataset::build(&d);
        let rows: Vec<u32> = (0..50).collect();
        let (tree, preds) = fit_all(&b, d.targets(), &rows, &TreeParams::default());
        assert_eq!(tree.n_leaves(), 1);
        assert!(preds.iter().all(|&p| (p - 3.25).abs() < 1e-6));
    }

    #[test]
    fn min_samples_respected() {
        let mut d = Dataset::new(1);
        for i in 0..20 {
            d.push(&[i as f32], if i == 0 { 100.0 } else { 0.0 });
        }
        let b = BinnedDataset::build(&d);
        let rows: Vec<u32> = (0..20).collect();
        let params = TreeParams { max_leaves: 30, min_samples_leaf: 5 };
        let (tree, _) = fit_all(&b, d.targets(), &rows, &params);
        // The outlier cannot be isolated: every leaf must hold >= 5 rows.
        // Count rows per leaf by prediction traversal.
        let mut leaf_counts = std::collections::HashMap::new();
        for i in 0..20 {
            let mut n = &tree.nodes[0];
            let mut id = 0usize;
            while !n.is_leaf() {
                id = if b.bin(i, n.feature as usize) <= n.bin_threshold {
                    n.left as usize
                } else {
                    n.right as usize
                };
                n = &tree.nodes[id];
            }
            *leaf_counts.entry(id).or_insert(0usize) += 1;
        }
        for (_, c) in leaf_counts {
            assert!(c >= 5);
        }
    }

    /// A dataset whose features cover the bin counts the kernel treats
    /// differently: constant (one bin, skipped), two-valued, a few dozen
    /// levels, and continuous (the full 256 bins once there are enough
    /// rows, so all four mask words are in play).
    fn mixed_cardinality(rng: &mut StdRng, n: usize) -> BinnedDataset {
        const LEVELS: [u32; 5] = [1, 2, 40, 300, u32::MAX];
        let mut d = Dataset::new(LEVELS.len());
        for _ in 0..n {
            let row = LEVELS.map(|levels| match levels {
                u32::MAX => rng.random_range(-1.0f32..1.0),
                _ => rng.random_range(0..levels) as f32,
            });
            d.push(&row, 0.0);
        }
        BinnedDataset::build(&d)
    }

    /// The feature-major search against the dense oracle, and the in-place
    /// partition against `Iterator::partition`, over random row samples
    /// (shuffled: bin sums depend on row order), feature subsets, leaf
    /// sizes and targets (coarse ones make exact gain ties across bins and
    /// features, where only the scan order decides).
    #[test]
    fn split_search_equals_the_dense_oracle() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut scratch = FitScratch::default();
        let (mut found, mut none) = (0, 0);
        for case in 0..300 {
            let n = [12, 60, 400, 1200][case % 4];
            let data = mixed_cardinality(&mut rng, n);
            let coarse = rng.random_range(0..3u32) == 0;
            let targets: Vec<f32> = (0..n)
                .map(|_| match coarse {
                    true => rng.random_range(-2..3i32) as f32,
                    false => rng.random_range(-1.0f32..1.0),
                })
                .collect();
            let mut rows: Vec<u32> = (0..n as u32).collect();
            let mut features: Vec<u32> = (0..data.n_features() as u32).collect();
            for i in (1..rows.len()).rev() {
                rows.swap(i, rng.random_range(0..=i));
            }
            for i in (1..features.len()).rev() {
                features.swap(i, rng.random_range(0..=i));
            }
            rows.truncate(rng.random_range(1..=n));
            features.truncate(rng.random_range(1..=features.len()));
            let params = TreeParams { max_leaves: 30, min_samples_leaf: rng.random_range(0..12) };

            scratch.start_tree(&data, &rows, &features);
            let mut tree = RegressionTree::default();
            let all = 0..rows.len();
            let leaf = scratch.open_leaf(&mut tree, all.clone(), &data, &targets, &params);
            let oracle = best_split_dense(&data, &targets, &rows, &features, &params);
            let key = |s: Split| (s.feature, s.bin, s.gain.to_bits());
            assert_eq!(leaf.split.map(key), oracle.map(key), "case {case}");
            for lane in &scratch.lanes {
                assert!(lane.touched.iter().all(|&w| w == 0), "case {case}");
                assert!(lane.hist.iter().all(|b| b.count == 0 && b.sum == 0.0), "case {case}");
            }

            let Some(split) = oracle else {
                none += 1;
                continue;
            };
            found += 1;
            let (left, right): (Vec<u32>, Vec<u32>) =
                rows.iter().partition(|&&r| data.bin(r as usize, split.feature) <= split.bin);
            let mid = scratch.partition(all, data.column(split.feature), split.bin);
            assert_eq!((&scratch.arena[..mid], &scratch.arena[mid..]), (&left[..], &right[..]));
        }
        assert!(found > 100 && none > 10, "{found} splits, {none} unsplittable");
    }
}
