//! The compiled [`Forest`] is a re-layout, not an approximation: on every
//! model shape and every input — NaN, ±inf and values sitting exactly on a
//! split threshold included — its predictions must equal the per-node
//! pointer walk it replaced **bit for bit**. The walk lives here, as the
//! oracle; the library descends trees through the forest only.

use prosel_mart::{BoostParams, Dataset, Mart, RegressionTree, TreeNode};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const N_FEATURES: usize = 7;
/// Split thresholds come from this grid so that rows drawn from it land
/// exactly on thresholds.
const GRID: [f32; 6] = [-2.5, -1.0, 0.0, 0.125, 1.0, 3.75];

fn walk(tree: &RegressionTree, row: &[f32]) -> f32 {
    let mut n = &tree.nodes[0];
    while !n.is_leaf() {
        let next = if row[n.feature as usize] <= n.threshold { n.left } else { n.right };
        n = &tree.nodes[next as usize];
    }
    n.value
}

fn reference(model: &Mart, row: &[f32]) -> f32 {
    let mut acc = model.base();
    for tree in model.trees() {
        acc += model.shrinkage() * walk(tree, row);
    }
    acc
}

fn leaf(value: f32) -> TreeNode {
    TreeNode { feature: u32::MAX, threshold: 0.0, bin_threshold: 0, left: 0, right: 0, value }
}

/// A random tree of `leaves` leaves. `chain` grows a maximally deep
/// right-leaning chain instead of splitting a random leaf. Node order is
/// shuffled (root stays first), so children are neither adjacent nor
/// forward nor left-before-right.
fn random_tree(rng: &mut StdRng, leaves: usize, chain: bool) -> RegressionTree {
    let mut nodes = vec![leaf(rng.random_range(-1.0f32..1.0))];
    let mut open = vec![0usize];
    while open.len() < leaves {
        let pick = if chain { open.len() - 1 } else { rng.random_range(0..open.len()) };
        let at = open.swap_remove(pick);
        let (l, r) = (nodes.len(), nodes.len() + 1);
        nodes.push(leaf(rng.random_range(-1.0f32..1.0)));
        nodes.push(leaf(rng.random_range(-1.0f32..1.0)));
        nodes[at].feature = rng.random_range(0..N_FEATURES as u32);
        nodes[at].threshold = GRID[rng.random_range(0..GRID.len())];
        nodes[at].left = l as u32;
        nodes[at].right = r as u32;
        open.push(l);
        open.push(r);
    }
    // Shuffle positions 1.. and rewrite the child pointers.
    let mut to: Vec<usize> = (0..nodes.len()).collect();
    for i in (2..to.len()).rev() {
        to.swap(i, rng.random_range(1..=i));
    }
    let mut shuffled = nodes.clone();
    for (from, node) in nodes.iter().enumerate() {
        let mut node = *node;
        if !node.is_leaf() {
            node.left = to[node.left as usize] as u32;
            node.right = to[node.right as usize] as u32;
        }
        shuffled[to[from]] = node;
    }
    RegressionTree { nodes: shuffled, split_gains: Vec::new() }
}

fn random_model(rng: &mut StdRng, trees: usize) -> Mart {
    let trees = (0..trees)
        .map(|_| match rng.random_range(0..10u32) {
            0 => random_tree(rng, 1, false),
            1 => random_tree(rng, 16, true), // depth-15 chain
            _ => {
                let leaves = rng.random_range(2..=30);
                random_tree(rng, leaves, false)
            }
        })
        .collect();
    Mart::from_parts(
        rng.random_range(-1.0f32..1.0),
        rng.random_range(0.01f32..0.5),
        trees,
        vec![0.0; N_FEATURES],
    )
    .expect("random trees are trees")
}

fn random_row(rng: &mut StdRng) -> Vec<f32> {
    (0..N_FEATURES)
        .map(|_| match rng.random_range(0..10u32) {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3..=6 => GRID[rng.random_range(0..GRID.len())],
            _ => rng.random_range(-4.0f32..4.0),
        })
        .collect()
}

fn assert_bit_equal(model: &Mart, rows: &[Vec<f32>]) {
    for row in rows {
        let (got, want) = (model.predict(row), reference(model, row));
        assert_eq!(got.to_bits(), want.to_bits(), "{} trees, row {row:?}", model.n_trees());
    }
}

#[test]
fn random_models_predict_bit_identically_to_the_walk() {
    let mut rng = StdRng::seed_from_u64(0xF0_2E57);
    let rows: Vec<Vec<f32>> = (0..200).map(|_| random_row(&mut rng)).collect();
    // 0 trees, one group, one short group, block boundaries, many blocks.
    for trees in [0, 1, 3, 8, 9, 63, 64, 65, 128, 250] {
        assert_bit_equal(&random_model(&mut rng, trees), &rows);
    }
    for _ in 0..40 {
        let trees = rng.random_range(1..=250);
        assert_bit_equal(&random_model(&mut rng, trees), &rows[..40]);
    }
}

#[test]
fn degenerate_shapes_predict_bit_identically() {
    let mut rng = StdRng::seed_from_u64(0xDE6E);
    let rows: Vec<Vec<f32>> = (0..100).map(|_| random_row(&mut rng)).collect();
    let model = |trees: Vec<RegressionTree>| {
        Mart::from_parts(0.5, 0.1, trees, vec![0.0; N_FEATURES]).expect("trees")
    };
    // Only single leaves: no feature is ever read.
    let stumps = model((0..70).map(|_| random_tree(&mut rng, 1, false)).collect());
    assert_bit_equal(&stumps, &rows);
    assert_eq!(stumps.predict(&[]).to_bits(), reference(&stumps, &[]).to_bits());
    // Only depth-15 chains, and chains grouped with stumps (a group runs
    // to its deepest member's depth; the stumps must sit still).
    assert_bit_equal(&model((0..20).map(|_| random_tree(&mut rng, 16, true)).collect()), &rows);
    let mixed = (0..24).map(|i| random_tree(&mut rng, if i % 3 == 0 { 16 } else { 1 }, true));
    assert_bit_equal(&model(mixed.collect()), &rows);
}

fn training_data(rng: &mut StdRng, n: usize) -> Dataset {
    let mut data = Dataset::new(N_FEATURES);
    for _ in 0..n {
        let row: Vec<f32> = (0..N_FEATURES).map(|_| rng.random_range(-2.0f32..2.0)).collect();
        let y = 3.0 * row[0] - row[1] * row[2] + (row[3] * 2.0).sin();
        data.push(&row, y);
    }
    data
}

#[test]
fn trained_and_warm_started_models_predict_bit_identically() {
    let mut rng = StdRng::seed_from_u64(0x7EA1);
    let data = training_data(&mut rng, 400);
    let mut rows: Vec<Vec<f32>> = (0..60).map(|_| random_row(&mut rng)).collect();
    rows.extend((0..data.len()).step_by(7).map(|i| data.row(i).to_vec()));
    let mut sixty = None;
    for rounds in [1, 60, 250] {
        let model = Mart::train(&data, &BoostParams { iterations: rounds, ..Default::default() });
        assert_eq!(model.n_trees(), rounds);
        // A row sitting exactly on the model's own thresholds.
        let on_threshold: Vec<f32> = (0..N_FEATURES as u32)
            .map(|f| {
                let mut splits = model.trees().iter().flat_map(|t| &t.nodes);
                splits.find(|n| n.feature == f).map_or(0.0, |n| n.threshold)
            })
            .collect();
        rows.push(on_threshold);
        assert_bit_equal(&model, &rows);
        if rounds == 60 {
            sixty = Some(model);
        }
    }
    let warm = Mart::warm_start(&sixty.expect("trained"), &data, &BoostParams::default(), 40);
    assert_eq!(warm.n_trees(), 100);
    assert_bit_equal(&warm, &rows);
}

#[test]
fn text_round_trip_recompiles_to_the_same_predictions() {
    let mut rng = StdRng::seed_from_u64(0x10_7E87);
    let rows: Vec<Vec<f32>> = (0..50).map(|_| random_row(&mut rng)).collect();
    let data = training_data(&mut rng, 300);
    let model = Mart::train(&data, &BoostParams::fast());
    let text = prosel_mart::model_io::to_string(&model);
    let mut r = prosel_mart::textio::LineReader::new(&text);
    let back = prosel_mart::model_io::read(&mut r).expect("parse");
    r.finish().expect("nothing after the model");
    assert_eq!(prosel_mart::model_io::to_string(&back), text);
    for row in &rows {
        assert_eq!(back.predict(row).to_bits(), reference(&model, row).to_bits());
    }
}
