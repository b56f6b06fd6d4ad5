//! Regression trees with best-first growth and histogram split search.

use crate::dataset::BinnedDataset;

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

impl RegressionTree {
    /// Fit a tree to `targets` over the `rows` subset of `data`,
    /// best-first, least-squares. Returns the tree and, for every row of
    /// the *full* dataset, its predicted value (needed to update boosting
    /// residuals for out-of-sample rows too).
    pub fn fit(
        data: &BinnedDataset,
        targets: &[f32],
        rows: &[u32],
        params: &TreeParams,
    ) -> (RegressionTree, Vec<f32>) {
        let all: Vec<u32> = (0..data.n_features() as u32).collect();
        RegressionTree::fit_on_features(data, targets, rows, &all, params)
    }

    /// [`RegressionTree::fit`] restricted to a feature subset (column
    /// subsampling for stochastic boosting).
    pub fn fit_on_features(
        data: &BinnedDataset,
        targets: &[f32],
        rows: &[u32],
        features: &[u32],
        params: &TreeParams,
    ) -> (RegressionTree, Vec<f32>) {
        assert_eq!(targets.len(), data.n_rows());
        let mut tree = RegressionTree { nodes: Vec::new(), split_gains: Vec::new() };
        // Leaf work-list: (node index, rows, candidate split).
        struct Leaf {
            node: usize,
            rows: Vec<u32>,
            split: Option<Split>,
        }

        let mean = |rs: &[u32]| -> f32 {
            if rs.is_empty() {
                0.0
            } else {
                rs.iter().map(|&r| targets[r as usize] as f64).sum::<f64>() as f32 / rs.len() as f32
            }
        };

        tree.nodes.push(TreeNode::leaf(mean(rows)));
        let mut leaves = vec![Leaf {
            node: 0,
            rows: rows.to_vec(),
            split: best_split(data, targets, rows, features, params),
        }];

        let mut n_leaves = 1;
        while n_leaves < params.max_leaves {
            // Pick the splittable leaf with the largest gain.
            let Some(best_idx) = leaves
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
            let leaf = leaves.swap_remove(best_idx);
            let split = leaf.split.unwrap();

            let (left_rows, right_rows): (Vec<u32>, Vec<u32>) =
                leaf.rows.iter().partition(|&&r| data.bin(r as usize, split.feature) <= split.bin);
            debug_assert!(!left_rows.is_empty() && !right_rows.is_empty());

            let left_node = tree.nodes.len();
            tree.nodes.push(TreeNode::leaf(mean(&left_rows)));
            let right_node = tree.nodes.len();
            tree.nodes.push(TreeNode::leaf(mean(&right_rows)));

            tree.split_gains.push((split.feature as u32, split.gain));
            let n = &mut tree.nodes[leaf.node];
            n.feature = split.feature as u32;
            n.bin_threshold = split.bin;
            n.threshold = data.threshold(split.feature, split.bin as usize);
            n.left = left_node as u32;
            n.right = right_node as u32;

            let ls = best_split(data, targets, &left_rows, features, params);
            let rs = best_split(data, targets, &right_rows, features, params);
            leaves.push(Leaf { node: left_node, rows: left_rows, split: ls });
            leaves.push(Leaf { node: right_node, rows: right_rows, split: rs });
            n_leaves += 1;
        }

        // Predictions for every row (binned traversal).
        let mut preds = vec![0.0f32; data.n_rows()];
        for (i, p) in preds.iter_mut().enumerate() {
            *p = tree.predict_binned(data.row(i));
        }
        (tree, preds)
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

/// Find the best least-squares split of `rows` via bin histograms,
/// considering only the listed features.
fn best_split(
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
            let score = sum_l * sum_l / cnt_l as f64 + sum_r * sum_r / cnt_r as f64 - base_score;
            if score > 1e-12 && best.is_none_or(|s| score > s.gain) {
                best = Some(Split { gain: score, feature: f, bin: b as u8 });
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;

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
        let (tree, preds) = RegressionTree::fit(&b, d.targets(), &rows, &TreeParams::default());
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
        let (tree, _) = RegressionTree::fit(&b, d.targets(), &rows, &params);
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
        let (tree, preds) = RegressionTree::fit(&b, d.targets(), &rows, &TreeParams::default());
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
        let (tree, _) = RegressionTree::fit(&b, d.targets(), &rows, &params);
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
}
