//! MART: stochastic gradient boosting of regression trees.
//!
//! Least-squares loss, steepest descent in function space (\[10\]): each
//! iteration fits a regression tree to the current residuals on a random
//! row subsample and adds it with shrinkage. Matches the paper's Section
//! 4.2 description and its training parameters (M = 200 boosting
//! iterations, 30-leaf trees).

use crate::dataset::{BinnedDataset, Dataset};
use crate::forest::Forest;
use crate::tree::{FitScratch, RegressionTree, TreeParams};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Boosting hyper-parameters.
#[derive(Debug, Clone)]
pub struct BoostParams {
    /// Number of boosting iterations M.
    pub iterations: usize,
    /// Shrinkage (learning rate) applied to every tree.
    pub shrinkage: f64,
    /// Row subsample fraction per iteration (stochastic gradient
    /// boosting; 1.0 disables subsampling).
    pub subsample: f64,
    /// Feature (column) subsample fraction per tree; 1.0 disables.
    pub colsample: f64,
    /// Tree growth parameters.
    pub tree: TreeParams,
    pub seed: u64,
}

impl Default for BoostParams {
    fn default() -> Self {
        BoostParams {
            iterations: 200,
            shrinkage: 0.1,
            subsample: 0.7,
            colsample: 1.0,
            tree: TreeParams::default(),
            seed: 0x6001,
        }
    }
}

impl BoostParams {
    /// A cheaper configuration for wrapper-style feature selection and
    /// smoke tests.
    pub fn fast() -> Self {
        BoostParams {
            iterations: 40,
            shrinkage: 0.15,
            subsample: 0.8,
            colsample: 1.0,
            tree: TreeParams { max_leaves: 16, min_samples_leaf: 5 },
            seed: 0x6001,
        }
    }
}

/// A trained MART model.
///
/// The fields are private because `forest` is compiled from the others:
/// every constructor goes through [`Mart::from_parts`], and nothing
/// mutates a model afterwards, so the compiled form cannot go stale.
#[derive(Debug, Clone)]
pub struct Mart {
    base: f32,
    shrinkage: f32,
    trees: Vec<RegressionTree>,
    feature_gain: Vec<f64>,
    forest: Forest,
}

impl Mart {
    /// Assemble a model — `base + Σ shrinkage · tree(row)` over `trees`
    /// in order, on a `feature_gain.len()`-wide feature space — and
    /// compile its inference form. Fails on any tree [`Forest::compile`]
    /// refuses.
    pub fn from_parts(
        base: f32,
        shrinkage: f32,
        trees: Vec<RegressionTree>,
        feature_gain: Vec<f64>,
    ) -> Result<Mart, String> {
        let forest = Forest::compile(base, shrinkage, &trees, feature_gain.len())?;
        Ok(Mart { base, shrinkage, trees, feature_gain, forest })
    }

    /// Train on `data`.
    pub fn train(data: &Dataset, params: &BoostParams) -> Mart {
        Mart::train_binned(&BinnedDataset::build(data), data.targets(), params)
    }

    /// [`Mart::train`] on a feature matrix the caller already binned,
    /// regressing onto `targets` (one per row of `binned`). The binning
    /// does not depend on the targets, so models that share the matrix —
    /// the selector's per-candidate error models — bin it once and each
    /// pass their own targets here. The result is the model
    /// `Mart::train` returns on a dataset of the binned matrix and
    /// `targets`, bit for bit.
    pub fn train_binned(binned: &BinnedDataset, targets: &[f32], params: &BoostParams) -> Mart {
        let n = targets.len();
        assert!(n > 0, "cannot train on an empty dataset");
        assert_eq!(binned.n_rows(), n);
        let base = targets.iter().map(|&t| t as f64).sum::<f64>() as f32 / n as f32;
        let mut grown = Grown {
            shrinkage: params.shrinkage as f32,
            trees: Vec::with_capacity(params.iterations),
            feature_gain: vec![0.0f64; binned.n_features()],
        };
        let mut preds = vec![base; n];
        boost_rounds(&mut grown, binned, targets, params, &mut preds, params.iterations);
        grown.into_model(base)
    }

    /// Continue boosting an existing model: fit up to `extra` additional
    /// trees to the residuals of `base`'s current predictions on `data`,
    /// instead of refitting the whole ensemble from scratch — the
    /// online-feedback warm start (paper §4.4 frames runtime revision
    /// signals as training input; this is the cheap way to absorb them).
    ///
    /// The returned model keeps every tree of `base` plus the new ones.
    /// New trees reuse `base.shrinkage` (a MART applies one shrinkage to
    /// its whole ensemble), so `params.shrinkage` is ignored here;
    /// subsampling, tree growth and the seed come from `params`.
    /// `extra == 0` returns a clone of `base`. Deterministic given
    /// `params.seed`.
    pub fn warm_start(base: &Mart, data: &Dataset, params: &BoostParams, extra: usize) -> Mart {
        let binned = BinnedDataset::build(data);
        Mart::warm_start_binned(base, data, &binned, data.targets(), params, extra)
    }

    /// [`Mart::warm_start`] when the caller already binned the data, under
    /// the same rule as [`Mart::train_binned`]: `binned` is
    /// [`BinnedDataset::build`] of `data`, whose rows `base` is scored on,
    /// and the new trees regress onto `targets` (`data`'s own targets are
    /// not read).
    pub fn warm_start_binned(
        base: &Mart,
        data: &Dataset,
        binned: &BinnedDataset,
        targets: &[f32],
        params: &BoostParams,
        extra: usize,
    ) -> Mart {
        let n = data.len();
        assert!(n > 0, "cannot continue training on an empty dataset");
        assert_eq!(
            data.n_features(),
            base.feature_gain.len(),
            "warm start needs the feature space the base model was trained on"
        );
        assert_eq!(targets.len(), n);
        assert_eq!(binned.n_rows(), n);
        assert_eq!(binned.n_features(), data.n_features());
        if extra == 0 {
            return base.clone();
        }
        let mut preds: Vec<f32> = (0..n).map(|i| base.predict(data.row(i))).collect();
        let mut grown = Grown {
            shrinkage: base.shrinkage,
            trees: base.trees.clone(),
            feature_gain: base.feature_gain.clone(),
        };
        boost_rounds(&mut grown, binned, targets, params, &mut preds, extra);
        grown.into_model(base.base)
    }

    /// Predict one example from raw feature values.
    pub fn predict(&self, row: &[f32]) -> f32 {
        self.forest.predict(row)
    }

    /// Mean squared error over a dataset.
    pub fn mse(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let mut acc = 0.0f64;
        for i in 0..data.len() {
            let e = (self.predict(data.row(i)) - data.target(i)) as f64;
            acc += e * e;
        }
        acc / data.len() as f64
    }

    /// Number of trees actually fit.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The ensemble's trees, in boosting order.
    pub fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }

    /// The constant the ensemble's sum starts from.
    pub fn base(&self) -> f32 {
        self.base
    }

    /// The shrinkage applied to every tree.
    pub fn shrinkage(&self) -> f32 {
        self.shrinkage
    }

    /// Width of the feature space the model was trained on.
    pub fn n_features(&self) -> usize {
        self.feature_gain.len()
    }

    /// Gain-based feature importance accumulated over all trees.
    pub fn feature_gain(&self) -> &[f64] {
        &self.feature_gain
    }
}

/// An ensemble while it is being boosted; [`Grown::into_model`] seals it.
struct Grown {
    shrinkage: f32,
    trees: Vec<RegressionTree>,
    feature_gain: Vec<f64>,
}

impl Grown {
    fn into_model(self, base: f32) -> Mart {
        Mart::from_parts(base, self.shrinkage, self.trees, self.feature_gain)
            .expect("trees grown on this dataset compile")
    }
}

/// The boosting loop shared by fresh training and [`Mart::warm_start`]:
/// fit up to `iterations` trees to the residuals `targets − preds` (`preds`
/// must hold `model`'s current prediction for every row of `binned`), appending
/// to `model.trees` and accumulating `model.feature_gain`. Prediction
/// updates use `model.shrinkage` — for fresh training that equals
/// `params.shrinkage`; for a warm start it is the base ensemble's.
fn boost_rounds(
    model: &mut Grown,
    binned: &BinnedDataset,
    targets: &[f32],
    params: &BoostParams,
    preds: &mut [f32],
    iterations: usize,
) {
    let n = targets.len();
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut residuals = vec![0.0f32; n];
    let sample_n = ((n as f64 * params.subsample).round() as usize).clamp(1, n);
    let nf = binned.n_features();
    let col_n = ((nf as f64 * params.colsample).round() as usize).clamp(1, nf);

    let mut all_rows: Vec<u32> = (0..n as u32).collect();
    let mut all_cols: Vec<u32> = (0..nf as u32).collect();
    let mut scratch = FitScratch::default();
    for _ in 0..iterations {
        for i in 0..n {
            residuals[i] = targets[i] - preds[i];
        }
        // Partial Fisher–Yates for the subsample.
        let rows: &[u32] = if sample_n < n {
            for i in 0..sample_n {
                let j = rng.random_range(i..n);
                all_rows.swap(i, j);
            }
            &all_rows[..sample_n]
        } else {
            &all_rows
        };
        let cols: &[u32] = if col_n < nf {
            for i in 0..col_n {
                let j = rng.random_range(i..nf);
                all_cols.swap(i, j);
            }
            &all_cols[..col_n]
        } else {
            &all_cols
        };
        let tree = RegressionTree::fit(binned, &residuals, rows, cols, &params.tree, &mut scratch);
        if tree.nodes.len() <= 1 {
            // Residuals are flat: converged.
            break;
        }
        tree.accumulate_gains(&mut model.feature_gain);
        let s = model.shrinkage;
        // Every row moves, sampled or not: the next round's residuals
        // cover the whole dataset.
        for (i, p) in preds.iter_mut().enumerate() {
            *p += s * tree.predict_binned(binned.row(i));
        }
        model.trees.push(tree);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// y = 3·x0 − 2·x1 + x2² with mild noise.
    fn synthetic(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new(3);
        for _ in 0..n {
            let x0: f32 = rng.random_range(-1.0..1.0);
            let x1: f32 = rng.random_range(-1.0..1.0);
            let x2: f32 = rng.random_range(-1.0..1.0);
            let noise: f32 = rng.random_range(-0.05..0.05);
            d.push(&[x0, x1, x2], 3.0 * x0 - 2.0 * x1 + x2 * x2 + noise);
        }
        d
    }

    #[test]
    fn fits_nonlinear_function() {
        let train = synthetic(2000, 1);
        let test = synthetic(500, 2);
        let model = Mart::train(&train, &BoostParams::default());
        let mse = model.mse(&test);
        // Target variance is ~ 3²/3 + 2²/3 + … >> 1; MSE must be tiny.
        assert!(mse < 0.05, "test mse {mse}");
        assert!(model.n_trees() > 50);
    }

    #[test]
    fn boosting_reduces_training_error_monotonically_enough() {
        let train = synthetic(1000, 3);
        let small = Mart::train(&train, &BoostParams { iterations: 5, ..BoostParams::default() });
        let large = Mart::train(&train, &BoostParams { iterations: 100, ..BoostParams::default() });
        assert!(large.mse(&train) < small.mse(&train));
    }

    #[test]
    fn constant_targets_converge_immediately() {
        let mut d = Dataset::new(2);
        for i in 0..100 {
            d.push(&[i as f32, 0.0], 5.0);
        }
        let model = Mart::train(&d, &BoostParams::default());
        assert_eq!(model.n_trees(), 0);
        assert!((model.predict(&[3.0, 0.0]) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn deterministic_given_seed() {
        let train = synthetic(500, 4);
        let a = Mart::train(&train, &BoostParams::default());
        let b = Mart::train(&train, &BoostParams::default());
        assert_eq!(a.predict(train.row(17)), b.predict(train.row(17)));
        let c = Mart::train(&train, &BoostParams { seed: 999, ..BoostParams::default() });
        // Different subsampling order — almost surely different model.
        assert_ne!(a.predict(train.row(17)), c.predict(train.row(17)));
    }

    #[test]
    fn feature_importance_finds_signal() {
        // x0 drives the target, x1/x2 are noise.
        let mut rng = StdRng::seed_from_u64(5);
        let mut d = Dataset::new(3);
        for _ in 0..1500 {
            let x0: f32 = rng.random_range(-1.0..1.0);
            let x1: f32 = rng.random_range(-1.0..1.0);
            let x2: f32 = rng.random_range(-1.0..1.0);
            d.push(&[x0, x1, x2], x0.signum());
        }
        let model = Mart::train(&d, &BoostParams::default());
        // Gain importance concentrates on the signal feature even though
        // late trees chase residual noise on the others.
        assert!(model.feature_gain[0] > model.feature_gain[1] * 3.0);
        assert!(model.feature_gain[0] > model.feature_gain[2] * 3.0);
    }

    #[test]
    fn warm_start_reduces_error_and_keeps_the_base_ensemble() {
        let train = synthetic(800, 7);
        let base = Mart::train(&train, &BoostParams { iterations: 20, ..BoostParams::default() });
        let more = Mart::warm_start(
            &base,
            &train,
            &BoostParams { iterations: 0, seed: 11, ..BoostParams::default() },
            60,
        );
        assert!(more.n_trees() > base.n_trees());
        assert_eq!(more.trees.len().min(base.trees.len()), base.trees.len());
        assert!(more.mse(&train) < base.mse(&train), "continued boosting must fit better");
        // The prefix of the ensemble is untouched: warm start only appends.
        for (a, b) in base.trees.iter().zip(&more.trees) {
            assert_eq!(a.nodes.len(), b.nodes.len());
        }
        assert_eq!(more.shrinkage, base.shrinkage);
    }

    #[test]
    fn warm_start_is_deterministic_and_zero_extra_is_identity() {
        let train = synthetic(400, 8);
        let base = Mart::train(&train, &BoostParams { iterations: 15, ..BoostParams::default() });
        let params = BoostParams { seed: 42, ..BoostParams::default() };
        let a = Mart::warm_start(&base, &train, &params, 25);
        let b = Mart::warm_start(&base, &train, &params, 25);
        for i in (0..400).step_by(29) {
            assert_eq!(a.predict(train.row(i)).to_bits(), b.predict(train.row(i)).to_bits());
        }
        let same = Mart::warm_start(&base, &train, &params, 0);
        for i in (0..400).step_by(29) {
            assert_eq!(same.predict(train.row(i)).to_bits(), base.predict(train.row(i)).to_bits());
        }
    }

    #[test]
    fn warm_start_absorbs_a_distribution_shift() {
        // Base learns y = 3x0 − 2x1 + x2²; the feedback data flips the
        // sign of the x0 term. Continued boosting on the new data must
        // track the new regime better than the frozen base.
        let base_data = synthetic(1000, 9);
        let base =
            Mart::train(&base_data, &BoostParams { iterations: 60, ..BoostParams::default() });
        let mut rng = StdRng::seed_from_u64(10);
        let mut shifted = Dataset::new(3);
        for _ in 0..1000 {
            let x0: f32 = rng.random_range(-1.0..1.0);
            let x1: f32 = rng.random_range(-1.0..1.0);
            let x2: f32 = rng.random_range(-1.0..1.0);
            shifted.push(&[x0, x1, x2], -3.0 * x0 - 2.0 * x1 + x2 * x2);
        }
        let adapted = Mart::warm_start(&base, &shifted, &BoostParams::default(), 120);
        assert!(
            adapted.mse(&shifted) < base.mse(&shifted) * 0.5,
            "adapted {} vs base {}",
            adapted.mse(&shifted),
            base.mse(&shifted)
        );
    }

    /// What boosting believes it predicts for a row — the sum it keeps in
    /// `preds`, descending every tree by bin code.
    fn training_time_prediction(model: &Mart, bins: &[u8]) -> f32 {
        let mut p = model.base;
        for tree in &model.trees {
            p += model.shrinkage * tree.predict_binned(bins);
        }
        p
    }

    #[test]
    fn training_and_inference_agree_on_nan_and_infinite_features() {
        // Every 4th row is NaN in feature 0 and carries a target far from
        // the finite rows', so the trees split it off as best they can;
        // ±inf rows sit at the two ends of feature 1.
        let mut d = Dataset::new(2);
        for i in 0..200 {
            let x0 = if i % 4 == 0 { f32::NAN } else { (i % 10) as f32 };
            let x1 = match i % 25 {
                3 => f32::INFINITY,
                7 => f32::NEG_INFINITY,
                _ => (i % 13) as f32,
            };
            let y = if x0.is_nan() { 5.0 } else { 0.1 * x0 }
                + if x1 == f32::INFINITY { 2.0 } else { 0.0 };
            d.push(&[x0, x1], y);
        }
        let binned = BinnedDataset::build(&d);
        let params = BoostParams { iterations: 60, ..BoostParams::default() };
        let model = Mart::train_binned(&binned, d.targets(), &params);
        assert_eq!(model.n_trees(), 60);
        for i in 0..d.len() {
            assert_eq!(
                training_time_prediction(&model, binned.row(i)).to_bits(),
                model.predict(d.row(i)).to_bits(),
                "row {i}: {:?}",
                d.row(i)
            );
        }
    }

    #[test]
    fn binned_entry_points_train_the_same_models() {
        let train = synthetic(300, 12);
        let binned = BinnedDataset::build(&train);
        let params = BoostParams { iterations: 25, ..BoostParams::default() };
        let base = Mart::train(&train, &params);
        let same = Mart::train_binned(&binned, train.targets(), &params);
        assert_eq!(crate::model_io::to_string(&base), crate::model_io::to_string(&same));
        // Other targets over the same matrix reuse the binning.
        let mut flipped = Dataset::new(train.n_features());
        for i in 0..train.len() {
            flipped.push(train.row(i), -train.target(i));
        }
        let more = Mart::warm_start(&base, &flipped, &params, 10);
        let same = Mart::warm_start_binned(&base, &train, &binned, flipped.targets(), &params, 10);
        assert_eq!(more.n_trees(), 35);
        assert_eq!(crate::model_io::to_string(&more), crate::model_io::to_string(&same));
    }

    #[test]
    fn subsample_one_trains_on_everything() {
        let train = synthetic(300, 6);
        let model = Mart::train(&train, &BoostParams { subsample: 1.0, ..BoostParams::default() });
        assert!(model.mse(&train) < 0.05);
    }
}
