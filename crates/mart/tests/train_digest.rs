//! Stored reference for MART training.
//!
//! Each constant is the FNV-64 of `model_io::to_string` for one fixed-seed
//! fit, recorded from the dense row-major split search at the commit
//! before the feature-major kernel replaced it. The kernel's contract is
//! bit-identity — per-bin sums in `rows` order, bins ascending, features
//! in `features` order, ties under the same strict `>` — so every digest
//! must hold in debug and release. A digest that moves means a trained
//! model moved; this suite is the check for any change to `tree.rs`,
//! `dataset.rs` binning or the boosting loop.

use prosel_mart::{model_io, BoostParams, Dataset, Mart, TreeParams};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

#[track_caller]
fn assert_digest(model: &Mart, recorded: u64) {
    let got = fnv64(model_io::to_string(model).as_bytes());
    assert!(got == recorded, "digest {got:#018x}, recorded {recorded:#018x}");
}

/// `n` rows over `d` uniform features; the target mixes three of them.
fn synthetic(n: usize, d: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Dataset::new(d);
    let mut row = vec![0.0f32; d];
    for _ in 0..n {
        for v in row.iter_mut() {
            *v = rng.random_range(-1.0..1.0);
        }
        let noise: f32 = rng.random_range(-0.05..0.05);
        data.push(&row, 3.0 * row[0] - 2.0 * row[1] + row[2] * row[2] + noise);
    }
    data
}

/// Fit `trees` rounds (none may converge away) and compare the digest.
#[track_caller]
fn fit(data: &Dataset, params: &BoostParams, trees: usize, recorded: u64) {
    let model = Mart::train(data, params);
    assert_eq!(model.n_trees(), trees);
    assert_digest(&model, recorded);
}

#[test]
fn default_parameters() {
    let data = synthetic(600, 12, 1);
    fit(&data, &BoostParams::default(), 200, 0x604e_fb8e_f748_8d5f);
}

#[test]
fn no_row_subsampling() {
    let data = synthetic(400, 8, 2);
    let params = BoostParams { subsample: 1.0, iterations: 60, ..BoostParams::default() };
    fit(&data, &params, 60, 0xf3fc_802c_8461_aed8);
}

#[test]
fn column_subsampling() {
    let data = synthetic(400, 16, 3);
    let params = BoostParams { colsample: 0.5, iterations: 60, ..BoostParams::default() };
    fit(&data, &params, 60, 0x8ea2_79c5_791e_39d2);
}

/// 3000 distinct values quantise to the full 256 bins, so the touched-bin
/// mask is exercised in all four of its words; the target steps inside
/// the top quarter of the range, so the winning splits sit in word 3.
#[test]
fn feature_with_all_256_bins() {
    let mut rng = StdRng::seed_from_u64(4);
    let mut data = Dataset::new(2);
    for _ in 0..3000 {
        let x: f32 = rng.random_range(0.0..1.0);
        let z: f32 = rng.random_range(0.0..1.0);
        let y = if x > 0.9 {
            2.0
        } else if x > 0.8 {
            -1.0
        } else {
            0.25 * z
        };
        data.push(&[x, z], y);
    }
    let params = BoostParams { iterations: 40, ..BoostParams::default() };
    let model = Mart::train(&data, &params);
    let top_word = model.trees().iter().flat_map(|t| &t.nodes).filter(|n| !n.is_leaf());
    assert!(top_word.clone().any(|n| n.feature == 0 && n.bin_threshold >= 192));
    assert_digest(&model, 0x9844_8132_eeb7_94c0);
}

/// One constant feature (a single bin, never splittable), one two-valued
/// feature (exactly one candidate split) and one continuous feature.
#[test]
fn constant_and_two_valued_features() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut data = Dataset::new(3);
    for i in 0..300 {
        let flag = (i % 3 == 0) as u8 as f32;
        let x: f32 = rng.random_range(-1.0..1.0);
        data.push(&[7.0, flag, x], 2.0 * flag + x * x);
    }
    let params = BoostParams { iterations: 50, ..BoostParams::default() };
    fit(&data, &params, 50, 0x7a2e_7380_ef36_6a4f);
}

/// `min_samples_leaf` edges: a root of exactly `2 × min` rows (one legal
/// cut position), one row fewer (no split at all), and a deeper tree whose
/// leaves keep landing on the limit.
#[test]
fn min_samples_leaf_edges() {
    let ramp = |n: usize| {
        let mut data = Dataset::new(1);
        for i in 0..n {
            data.push(&[i as f32], (i * i) as f32);
        }
        data
    };
    let params = |min: usize| BoostParams {
        subsample: 1.0,
        iterations: 10,
        tree: TreeParams { max_leaves: 30, min_samples_leaf: min },
        ..BoostParams::default()
    };
    let exact = Mart::train(&ramp(10), &params(5));
    assert!(exact.trees().iter().all(|t| t.nodes.len() == 3), "one split, at the midpoint");
    assert_digest(&exact, 0x3d95_d280_dc21_37f3);
    assert_eq!(Mart::train(&ramp(9), &params(5)).n_trees(), 0, "2 × min − 1 rows cannot split");
    fit(&ramp(64), &params(8), 10, 0x93d1_1337_2cac_499d);
}

#[test]
fn warm_start_forty_more() {
    let data = synthetic(500, 10, 6);
    let base = Mart::train(&data, &BoostParams { iterations: 30, ..BoostParams::default() });
    let fresh = synthetic(350, 10, 7);
    let more = Mart::warm_start(
        &base,
        &fresh,
        &BoostParams { seed: 0xFEED, ..BoostParams::default() },
        40,
    );
    assert_eq!(more.n_trees(), 70);
    assert_digest(&more, 0x210c_d5cf_2d95_bcd9);
}
