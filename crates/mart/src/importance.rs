//! Feature-importance analysis: greedy forward selection (the paper's
//! Section 6.5 methodology) plus split-count ranking.

use crate::boost::{BoostParams, Mart};
use crate::dataset::Dataset;

/// Result of one greedy selection round.
#[derive(Debug, Clone)]
pub struct SelectionStep {
    /// Index of the feature added this round.
    pub feature: usize,
    /// Holdout MSE after adding it.
    pub mse: f64,
}

/// Greedy forward feature selection: repeatedly add the feature that,
/// trained together with the already-selected set, minimizes holdout MSE
/// (paper §6.5). `rounds` features are selected; `params` should be a
/// cheap configuration ([`BoostParams::fast`]) since this trains
/// `O(rounds · n_features)` models.
pub fn greedy_forward_selection(
    train: &Dataset,
    holdout: &Dataset,
    rounds: usize,
    params: &BoostParams,
) -> Vec<SelectionStep> {
    assert_eq!(train.n_features(), holdout.n_features());
    let d = train.n_features();
    let mut selected: Vec<usize> = Vec::new();
    let mut steps = Vec::new();
    for _ in 0..rounds.min(d) {
        let mut best: Option<(usize, f64)> = None;
        for f in 0..d {
            if selected.contains(&f) {
                continue;
            }
            let mut cols = selected.clone();
            cols.push(f);
            let sub_train = project(train, &cols);
            let sub_hold = project(holdout, &cols);
            let model = Mart::train(&sub_train, params);
            let mse = model.mse(&sub_hold);
            if best.is_none_or(|(_, m)| mse < m) {
                best = Some((f, mse));
            }
        }
        let Some((f, mse)) = best else { break };
        selected.push(f);
        steps.push(SelectionStep { feature: f, mse });
    }
    steps
}

/// Restrict a dataset to the given feature columns.
pub fn project(data: &Dataset, cols: &[usize]) -> Dataset {
    let mut out = Dataset::new(cols.len());
    let mut row = vec![0.0f32; cols.len()];
    for i in 0..data.len() {
        let src = data.row(i);
        for (j, &c) in cols.iter().enumerate() {
            row[j] = src[c];
        }
        out.push(&row, data.target(i));
    }
    out
}

/// Rank features by gain importance of a trained model (descending).
/// Returns `(feature, total_gain)` pairs.
pub fn rank_by_gain(model: &Mart) -> Vec<(usize, f64)> {
    let mut ranked: Vec<(usize, f64)> = model.feature_gain().iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Feature 2 fully determines y; 0/1/3 are noise.
    fn data(seed: u64, n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new(4);
        for _ in 0..n {
            let mut row = [0.0f32; 4];
            for v in &mut row {
                *v = rng.random_range(-1.0..1.0);
            }
            d.push(&row, row[2] * 2.0);
        }
        d
    }

    #[test]
    fn greedy_selects_signal_feature_first() {
        let train = data(1, 800);
        let holdout = data(2, 300);
        let steps = greedy_forward_selection(&train, &holdout, 2, &BoostParams::fast());
        assert_eq!(steps[0].feature, 2, "signal feature must be chosen first");
        assert!(steps[0].mse < 0.1);
        // Adding a second (noise) feature cannot help much.
        assert!(steps[1].mse <= steps[0].mse + 0.01);
    }

    #[test]
    fn project_keeps_columns() {
        let d = data(3, 10);
        let p = project(&d, &[2, 0]);
        assert_eq!(p.n_features(), 2);
        for i in 0..10 {
            assert_eq!(p.row(i)[0], d.row(i)[2]);
            assert_eq!(p.row(i)[1], d.row(i)[0]);
            assert_eq!(p.target(i), d.target(i));
        }
    }

    #[test]
    fn rank_by_gain_orders_descending() {
        let train = data(4, 800);
        let model = Mart::train(&train, &BoostParams::fast());
        let ranked = rank_by_gain(&model);
        assert_eq!(ranked[0].0, 2);
        for w in ranked.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }
}
