//! Plain-text (de)serialization of trained models.
//!
//! A deliberately simple line-oriented format, parsed through the shared
//! [`crate::textio::LineReader`] grammar:
//!
//! ```text
//! mart v1
//! base <f32> shrinkage <f32> trees <n> features <d>
//! tree <n_nodes>
//! node <feature|-1> <threshold> <bin_threshold> <left> <right> <value>
//! ...
//! ```
//!
//! Floats are `Display`-printed; a declared count is bounded by the input
//! left before anything is sized by it. A selector embeds one model per
//! candidate and reads each with [`read`].

use crate::boost::Mart;
use crate::textio::{decimal, parse, LineReader};
use crate::tree::{RegressionTree, TreeNode};
use std::fmt::Write as _;

/// The widest model a text may declare: every feature index a compiled
/// node's `u16` field can address.
const MAX_FEATURES: usize = u16::MAX as usize + 1;

/// Serialize a model to a string.
pub fn to_string(model: &Mart) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "mart v1");
    let _ = writeln!(
        out,
        "base {} shrinkage {} trees {} features {}",
        model.base(),
        model.shrinkage(),
        model.n_trees(),
        model.n_features()
    );
    for tree in model.trees() {
        let _ = writeln!(out, "tree {}", tree.nodes.len());
        for n in &tree.nodes {
            let f = if n.is_leaf() { -1i64 } else { n.feature as i64 };
            let _ = writeln!(
                out,
                "node {} {} {} {} {} {}",
                f, n.threshold, n.bin_threshold, n.left, n.right, n.value
            );
        }
    }
    out
}

/// Parse one model from `r`, leaving it on the line after the model's
/// last node.
pub fn read(r: &mut LineReader<'_>) -> Result<Mart, String> {
    r.expect("mart v1")?;
    let [base, shrinkage, trees, features] = r.shape("base _ shrinkage _ trees _ features _")?;
    let base: f32 = parse("base", base)?;
    let shrinkage: f32 = parse("shrinkage", shrinkage)?;
    let n_features: usize = decimal("features", features)?;
    // The feature count is a width, not a count of lines, so the input's
    // length does not bound it; a compiled node's 16-bit feature field does.
    if n_features > MAX_FEATURES {
        return Err(format!(
            "features {n_features}: a compiled node addresses at most {MAX_FEATURES}"
        ));
    }
    let n_trees = r.count("trees", trees)?;
    let mut trees = Vec::with_capacity(n_trees);
    for _ in 0..n_trees {
        let [size] = r.shape("tree _")?;
        let n_nodes = r.count("tree", size)?;
        if n_nodes == 0 {
            // Every prediction starts at node 0.
            return Err(format!("tree {} has no nodes", trees.len()));
        }
        let mut nodes = Vec::with_capacity(n_nodes);
        for i in 0..n_nodes {
            let [feature, threshold, bin, left, right, value] = r.shape("node _ _ _ _ _ _")?;
            let feature = match feature {
                "-1" => u32::MAX,
                f => match decimal::<u32>("feature", f)? {
                    f if f as usize >= n_features => {
                        return Err(format!(
                            "node feature {f} out of range (features {n_features})"
                        ))
                    }
                    f => f,
                },
            };
            let node = TreeNode {
                feature,
                threshold: parse("threshold", threshold)?,
                bin_threshold: decimal("bin", bin)?,
                left: decimal("left", left)?,
                right: decimal("right", right)?,
                value: parse("value", value)?,
            };
            // Trees are serialized in construction order, so children
            // always come *after* their parent. Requiring strictly
            // forward references both bounds the indices and makes cycles
            // (a corrupted node pointing at itself or an ancestor)
            // unrepresentable, with the offending line named.
            if !node.is_leaf()
                && (node.left as usize >= n_nodes
                    || node.right as usize >= n_nodes
                    || node.left as usize <= i
                    || node.right as usize <= i)
            {
                return Err(format!(
                    "node {i} children ({}, {}) must point forward within the {n_nodes}-node tree",
                    node.left, node.right
                ));
            }
            nodes.push(node);
        }
        trees.push(RegressionTree { nodes, split_gains: Vec::new() });
    }
    let feature_gain = vec![0.0; n_features];
    // Compiles the inference form: anything the parse above let through
    // that a compiled node cannot hold (a shared child, a feature index or
    // node count too wide for its fields) is refused here, not truncated.
    Mart::from_parts(base, shrinkage, trees, feature_gain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boost::BoostParams;
    use crate::dataset::Dataset;

    /// Parse a model from [`to_string`] output. Strict: nothing but
    /// trailing whitespace may follow the declared trees, so a torn or
    /// concatenated file can never parse as a *different* model.
    fn from_str(s: &str) -> Result<Mart, String> {
        let mut r = LineReader::new(s);
        let model = read(&mut r)?;
        r.finish()?;
        Ok(model)
    }

    #[test]
    fn round_trip_preserves_predictions() {
        let mut d = Dataset::new(2);
        for i in 0..300 {
            let x = i as f32 / 10.0;
            d.push(&[x, -x], (x * 1.7).sin());
        }
        let model = Mart::train(&d, &BoostParams::fast());
        let text = to_string(&model);
        let back = from_str(&text).expect("parse");
        for i in (0..300).step_by(17) {
            assert_eq!(model.predict(d.row(i)), back.predict(d.row(i)), "row {i}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str("").is_err());
        assert!(from_str("not a model").is_err());
        assert!(from_str("mart v1\nbase x shrinkage y trees 0 features 0").is_err());
        // Meta keywords must be the expected ones, in order.
        assert!(from_str("mart v1\nbase 0 shrink 0.1 trees 0 features 0").is_err());
        assert!(from_str("mart v1\nbase 0 shrinkage 0.1 leaves 0 features 0").is_err());
        // Counts no input of this size could hold — up to `usize::MAX`,
        // which used to panic sizing a `Vec` — are errors, not allocations.
        for n in ["18446744073709551615", "1000000000000"] {
            let err = from_str(&format!("mart v1\nbase 0 shrinkage 0.1 trees {n} features 2\n"))
                .expect_err("trees");
            assert!(err.starts_with(&format!("trees {n}: more than")), "{err}");
            let err = from_str(&format!(
                "mart v1\nbase 0 shrinkage 0.1 trees 1 features 2\ntree {n}\nnode -1 0 0 0 0 1\n"
            ))
            .expect_err("tree");
            assert!(err.starts_with(&format!("tree {n}: more than")), "{err}");
        }
        let err = from_str("mart v1\nbase 0 shrinkage 0.1 trees 0 features 18446744073709551615\n")
            .expect_err("features");
        assert!(err.starts_with("features 18446744073709551615:"), "{err}");
        // A width is refused before anything is sized by it: one past what
        // a compiled node's 16-bit field addresses fails, the widest it
        // addresses parses.
        let err = from_str("mart v1\nbase 0 shrinkage 0.1 trees 0 features 65537\n")
            .expect_err("features 65537");
        assert!(err.starts_with("features 65537:"), "{err}");
        let model = from_str("mart v1\nbase 0 shrinkage 0.1 trees 0 features 65536\n")
            .expect("features 65536");
        assert_eq!(model.n_features(), 65_536);
    }

    #[test]
    fn rejects_trailing_garbage_and_concatenated_models() {
        let mut d = Dataset::new(2);
        for i in 0..200 {
            let x = i as f32 / 10.0;
            d.push(&[x, -x], x.cos());
        }
        let model = Mart::train(&d, &BoostParams::fast());
        let text = to_string(&model);
        // Trailing whitespace is tolerated; anything else is not.
        assert!(from_str(&format!("{text}\n\n")).is_ok());
        assert!(from_str(&format!("{text}junk\n")).is_err());
        assert!(from_str(&format!("{text}{text}")).is_err(), "two concatenated models");
        // A node line referencing an out-of-range child or feature fails.
        assert!(from_str(
            "mart v1\nbase 0 shrinkage 0.1 trees 1 features 2\ntree 1\nnode 0 0.5 1 7 8 0.0\n"
        )
        .is_err());
        assert!(from_str(
            "mart v1\nbase 0 shrinkage 0.1 trees 1 features 2\ntree 1\nnode 9 0.5 1 0 0 0.0\n"
        )
        .is_err());
        // Backward/self child references are cycles, not trees — they
        // must fail at parse time.
        assert!(from_str(
            "mart v1\nbase 0 shrinkage 0.1 trees 1 features 2\ntree 1\nnode 0 0.5 1 0 0 0.0\n"
        )
        .is_err());
        assert!(from_str(
            "mart v1\nbase 0 shrinkage 0.1 trees 3 features 2\ntree 3\nnode 0 0.5 1 1 2 0.0\n\
             node 0 0.5 1 0 2 0.0\nnode -1 0 0 0 0 1.0\n"
        )
        .is_err());
    }

    #[test]
    fn rejects_trees_the_compiled_form_cannot_hold() {
        let parse = |trees: usize, features: usize, body: &str| {
            from_str(&format!(
                "mart v1\nbase 0 shrinkage 0.1 trees {trees} features {features}\n{body}"
            ))
        };
        // An empty node list used to parse and panic on `nodes[0]` at the
        // first prediction.
        let err = parse(2, 2, "tree 1\nnode -1 0 0 0 0 1\ntree 0\n").expect_err("tree 0");
        assert_eq!(err, "tree 1 has no nodes");
        // A feature index wider than the compiled node's 16-bit field is
        // an error, not a truncation to feature 464: the width that would
        // admit it is refused first.
        let err = parse(
            1,
            70_000,
            "tree 3\nnode 66000 0.5 0 1 2 0\nnode -1 0 0 0 0 1\nnode -1 0 0 0 0 2\n",
        )
        .expect_err("wide feature");
        assert!(err.starts_with("features 70000:"), "{err}");
        // So is a tree with a level wider than a node's 16-bit step to its
        // children spans: a complete tree of 2^15 splits on its last inner
        // level.
        let splits = (1usize << 16) - 1;
        let mut body = format!("tree {}\n", 2 * splits + 1);
        for i in 0..splits {
            body.push_str(&format!("node 0 0 0 {} {} 0\n", 2 * i + 1, 2 * i + 2));
        }
        for i in 0..=splits {
            body.push_str(&format!("node -1 0 0 0 0 {i}\n"));
        }
        let err = parse(1, 1, &body).expect_err("wide tree");
        assert!(err.contains("tree 0") && err.contains("a compiled node reaches 32767"), "{err}");
        // A child shared by two parents is forward-pointing but not a tree.
        let err = parse(1, 1, "tree 2\nnode 0 0.5 0 1 1 0\nnode -1 0 0 0 0 1\n")
            .expect_err("shared child");
        assert!(err.contains("two paths"), "{err}");
    }

    #[test]
    fn forward_but_scattered_children_compile_and_predict_as_written() {
        // Children forward but not adjacent, right before left, and a
        // node nothing points at: the compiled copy is re-laid, the text
        // re-encodes unchanged.
        let text = "mart v1\nbase 1 shrinkage 0.5 trees 1 features 2\ntree 6\n\
                    node 0 0.5 3 4 2 0\nnode -1 0 0 0 0 99\nnode 1 -1 7 5 3 0\n\
                    node -1 0 0 0 0 3\nnode -1 0 0 0 0 1\nnode -1 0 0 0 0 2\n";
        let model = from_str(text).expect("parse");
        assert_eq!(to_string(&model), text);
        let tree = &model.trees()[0];
        for row in [[0.5, 0.0], [0.6, -1.0], [0.6, -0.5], [f32::NAN, f32::NAN]] {
            let want = 1.0 + 0.5 * tree.predict(&row);
            assert_eq!(model.predict(&row).to_bits(), want.to_bits(), "{row:?}");
        }
        assert_eq!(model.predict(&[0.0, 0.0]), 1.5);
        assert_eq!(model.predict(&[1.0, -2.0]), 2.0);
        assert_eq!(model.predict(&[1.0, 0.0]), 2.5);
    }
}
