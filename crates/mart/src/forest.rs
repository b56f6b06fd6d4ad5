//! The compiled inference form of a boosted ensemble — the one place in
//! the library where a tree is descended on raw feature values.
//!
//! Every [`crate::Mart`] compiles its trees into a [`Forest`] when it is
//! built (training, warm start, parsing), and every prediction the
//! library makes runs [`Forest::predict`].
//!
//! # Node layout
//!
//! Eight bytes per node — `threshold: f32`, `step: i16`, `feature: u16` —
//! plus one `f32` leaf value in a parallel array that is read once per
//! tree. Every tree is re-laid in level order with the two children of a
//! node adjacent; `step` is the distance from a node to its left child,
//! so one descent step is
//!
//! ```text
//! at += step + !(row[feature] <= threshold)
//! ```
//!
//! with no branch on the comparison. A leaf stores a NaN threshold (the
//! comparison is false for every input, NaN included) and `step = −1`, so
//! it moves onto itself: a tree can be walked for more steps than it is
//! deep and stays on its leaf. The `!(x <= t)` form — not `x > t` — keeps
//! the semantics that a NaN feature goes right.
//!
//! # Execution order and summation order
//!
//! Trees are descended eight at a time in lock-step, so eight dependent
//! load chains overlap in the core instead of serialising on mispredicted
//! branches. Each group runs as many steps as its deepest tree; to keep
//! that close to every member's own depth, the trees of a block of 64
//! consecutive boosting rounds are grouped by depth. Floating-point
//! addition is not associative, so the leaf values are **not** summed in
//! execution order: each lands in its tree's slot of a 64-entry stack
//! buffer and the buffer is folded front to back, `acc += shrinkage *
//! leaf`, starting from the ensemble's base — the exact operation
//! sequence of a tree-by-tree walk in boosting order, hence bit-identical
//! to it (pinned by `tests/forest_equivalence.rs`).

use crate::tree::RegressionTree;
use std::collections::VecDeque;
use std::ops::Range;

/// Trees descended in lock-step.
const LANES: usize = 8;
/// Consecutive trees whose leaf values are buffered (in boosting order)
/// before being summed; depth grouping happens within a block.
const BLOCK: usize = 64;

#[derive(Debug, Clone, Copy)]
struct Node {
    /// Rows with `row[feature] <= threshold` move `step` positions on,
    /// all others (NaN included) `step + 1`. NaN on a leaf.
    threshold: f32,
    /// Distance from this node to its left child; −1 on a leaf, so the
    /// always-right move lands on the leaf itself.
    step: i16,
    feature: u16,
}

impl Node {
    /// A leaf, and the placeholder of a node whose turn in the
    /// level-order queue has not come.
    const LEAF: Node = Node { threshold: f32::NAN, step: -1, feature: 0 };
}

/// Does a feature holding `x` send a row to the right child of a split at
/// `threshold`? Not `x > threshold`: NaN must go right.
#[inline(always)]
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn goes_right(x: f32, threshold: f32) -> bool {
    !(x <= threshold)
}

/// Up to [`LANES`] trees of one block, walked together. A short group is
/// padded by repeating its first tree (the repeated lanes rewrite the
/// same slot with the same value).
#[derive(Debug, Clone)]
struct Group {
    /// Position of each lane's root in `Forest::nodes`.
    root: [usize; LANES],
    /// Each lane's position within its block, in boosting order.
    slot: [u8; LANES],
    /// Steps to run: the depth of the group's deepest tree.
    depth: u32,
}

#[derive(Debug, Clone)]
struct Block {
    groups: Range<usize>,
    /// Trees in the block (≤ [`BLOCK`]).
    len: usize,
}

/// A boosted ensemble compiled for inference: `base + Σ shrinkage ·
/// tree(row)` over the trees in boosting order. See the module docs for
/// the layout and the bit-identity argument.
///
/// Immutable once built; [`Forest::compile`] applies every width and
/// shape check, so a forest that exists can be scored without panicking
/// on any row at least as long as the feature space it was compiled for.
#[derive(Debug, Clone)]
pub struct Forest {
    base: f32,
    shrinkage: f32,
    nodes: Vec<Node>,
    /// Leaf value per node position (0 on internal nodes).
    values: Vec<f32>,
    groups: Vec<Group>,
    blocks: Vec<Block>,
}

impl Forest {
    /// Compile `trees` (boosting order), splitting on features
    /// `0..n_features`.
    ///
    /// Fails — never truncates — when a tree cannot be represented: no
    /// nodes, a child index outside the tree, a node reachable along two
    /// paths (shared child or cycle: not a tree, and a cycle would never
    /// reach a leaf), a split feature `>= n_features` or wider than the
    /// node's 16-bit field, or children further from their parent than
    /// its 16-bit step reaches (65 535 nodes always fit). Nodes the root
    /// does not reach are dropped. Children need not be adjacent or in
    /// any order in the source; the compiled copy is re-laid.
    pub fn compile(
        base: f32,
        shrinkage: f32,
        trees: &[RegressionTree],
        n_features: usize,
    ) -> Result<Forest, String> {
        let mut forest = Forest {
            base,
            shrinkage,
            nodes: Vec::new(),
            values: Vec::new(),
            groups: Vec::new(),
            blocks: Vec::new(),
        };
        // (root position, depth) per tree.
        let mut shape = Vec::with_capacity(trees.len());
        for (t, tree) in trees.iter().enumerate() {
            let root = forest.nodes.len();
            let depth = forest.push_tree(tree, n_features).map_err(|e| format!("tree {t}: {e}"))?;
            shape.push((root, depth));
        }
        for block in shape.chunks(BLOCK) {
            // Stable sort: trees of equal depth keep boosting order.
            let mut by_depth: Vec<usize> = (0..block.len()).collect();
            by_depth.sort_by_key(|&slot| block[slot].1);
            let first_group = forest.groups.len();
            for lanes in by_depth.chunks(LANES) {
                let lane = |k: usize| lanes.get(k).copied().unwrap_or(lanes[0]);
                forest.groups.push(Group {
                    root: std::array::from_fn(|k| block[lane(k)].0),
                    slot: std::array::from_fn(|k| lane(k) as u8),
                    depth: lanes.iter().map(|&slot| block[slot].1).max().unwrap_or(0),
                });
            }
            forest
                .blocks
                .push(Block { groups: first_group..forest.groups.len(), len: block.len() });
        }
        Ok(forest)
    }

    /// Append `tree`, re-laid in level order with siblings adjacent;
    /// returns its depth (steps from the root to its deepest leaf).
    fn push_tree(&mut self, tree: &RegressionTree, n_features: usize) -> Result<u32, String> {
        let src = &tree.nodes;
        if src.is_empty() {
            return Err("has no nodes".into());
        }
        let root = self.nodes.len();
        let mut seen = vec![false; src.len()];
        // Claim `node` for the compiled tree; a node claimed twice is a
        // shared child or on a cycle.
        let mut claim = |parent: usize, node: usize| -> Result<usize, String> {
            match seen.get_mut(node) {
                None => Err(format!("node {parent} points at child {node} of {} nodes", src.len())),
                Some(s) if *s => Err(format!("node {node} is reachable along two paths")),
                Some(s) => {
                    *s = true;
                    Ok(node)
                }
            }
        };
        // (source index, compiled root-relative index, depth)
        let mut queue = VecDeque::from([(claim(0, 0)?, 0usize, 0u32)]);
        let mut placed = 1usize;
        let mut tree_depth = 0;
        self.nodes.push(Node::LEAF);
        self.values.push(0.0);
        while let Some((from, to, depth)) = queue.pop_front() {
            let n = &src[from];
            if n.is_leaf() {
                self.values[root + to] = n.value;
                tree_depth = tree_depth.max(depth);
                continue;
            }
            let feature = n.feature as usize;
            if feature >= n_features {
                return Err(format!("node {from} splits on feature {feature} of {n_features}"));
            }
            let Ok(feature) = u16::try_from(feature) else {
                return Err(format!(
                    "node {from} splits on feature {feature}; a compiled node addresses \
                     features up to {}",
                    u16::MAX
                ));
            };
            let Ok(step) = i16::try_from(placed - to) else {
                return Err(format!(
                    "node {from}'s children land {} positions after it; a compiled node \
                     reaches {}",
                    placed - to,
                    i16::MAX
                ));
            };
            for (child, to) in [(n.left as usize, placed), (n.right as usize, placed + 1)] {
                queue.push_back((claim(from, child)?, to, depth + 1));
                self.nodes.push(Node::LEAF);
                self.values.push(0.0);
            }
            self.nodes[root + to] = Node { threshold: n.threshold, step, feature };
            placed += 2;
        }
        Ok(tree_depth)
    }

    /// Score one row. Allocation-free.
    ///
    /// # Panics
    /// If `row` is shorter than a feature index a visited node splits on
    /// (never, for rows as long as the compiled feature space).
    pub fn predict(&self, row: &[f32]) -> f32 {
        let mut acc = self.base;
        for block in &self.blocks {
            let mut leaves = [0.0f32; BLOCK];
            for group in &self.groups[block.groups.clone()] {
                let mut at = group.root;
                for _ in 0..group.depth {
                    for at in &mut at {
                        let node = self.nodes[*at];
                        let right = goes_right(row[node.feature as usize], node.threshold);
                        *at = at.wrapping_add_signed(node.step as isize + right as isize);
                    }
                }
                for k in 0..LANES {
                    leaves[group.slot[k] as usize] = self.values[at[k]];
                }
            }
            for &leaf in &leaves[..block.len] {
                acc += self.shrinkage * leaf;
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeNode;

    fn leaf(value: f32) -> TreeNode {
        TreeNode { feature: u32::MAX, threshold: 0.0, bin_threshold: 0, left: 0, right: 0, value }
    }

    fn split(feature: u32, threshold: f32, left: u32, right: u32) -> TreeNode {
        TreeNode { feature, threshold, bin_threshold: 0, left, right, value: 0.0 }
    }

    fn tree(nodes: Vec<TreeNode>) -> RegressionTree {
        RegressionTree { nodes, split_gains: Vec::new() }
    }

    #[test]
    fn scattered_children_are_relaid_and_nan_goes_right() {
        // Children forward but neither adjacent nor left-before-right,
        // with an unreachable node in between.
        let t = tree(vec![
            split(0, 0.5, 4, 2),
            leaf(99.0),
            split(1, -1.0, 5, 3),
            leaf(3.0),
            leaf(1.0),
            leaf(2.0),
        ]);
        let oracle = t.clone();
        let f = Forest::compile(10.0, 0.5, &[t], 2).expect("compiles");
        for row in [
            [0.5, 0.0],
            [0.6, -1.0],
            [0.6, -0.5],
            [f32::NAN, f32::NAN],
            [f32::INFINITY, f32::NEG_INFINITY],
        ] {
            let want = 10.0 + 0.5 * oracle.predict(&row);
            assert_eq!(f.predict(&row).to_bits(), want.to_bits(), "{row:?}");
        }
    }

    #[test]
    fn empty_ensembles_and_single_leaves_need_no_features() {
        let none = Forest::compile(1.25, 0.1, &[], 0).expect("compiles");
        assert_eq!(none.predict(&[]), 1.25);
        let stump = Forest::compile(1.0, 0.5, &[tree(vec![leaf(4.0)])], 0).expect("compiles");
        assert_eq!(stump.predict(&[]), 3.0);
    }

    #[test]
    fn rejects_what_a_compiled_node_cannot_hold() {
        let err = |trees: &[RegressionTree], n_features| {
            Forest::compile(0.0, 1.0, trees, n_features).expect_err("must not compile")
        };
        assert!(err(&[tree(vec![])], 1).contains("no nodes"));
        assert!(err(&[tree(vec![split(0, 0.0, 1, 7), leaf(0.0)])], 1).contains("child 7"));
        assert!(err(&[tree(vec![split(3, 0.0, 1, 2), leaf(0.0), leaf(0.0)])], 3)
            .contains("feature 3 of 3"));
        // Shared child and self-cycle: reachable along two paths.
        assert!(err(&[tree(vec![split(0, 0.0, 1, 1), leaf(0.0)])], 1).contains("two paths"));
        assert!(err(&[tree(vec![split(0, 0.0, 0, 1), leaf(0.0)])], 1).contains("two paths"));
        // A feature index past the 16-bit field.
        let wide = 1usize << 16;
        assert!(err(&[tree(vec![split(wide as u32, 0.0, 1, 2), leaf(0.0), leaf(0.0)])], wide + 1)
            .contains("features up to 65535"));
    }

    /// A complete tree of `depth` levels of splits on feature 0, in level
    /// order; leaf `i` (left to right) holds `i`.
    fn complete_tree(depth: u32) -> RegressionTree {
        let splits = (1u32 << depth) - 1;
        let mut nodes: Vec<TreeNode> =
            (0..splits).map(|i| split(0, 0.0, 2 * i + 1, 2 * i + 2)).collect();
        nodes.extend((0..=splits).map(|i| leaf(i as f32)));
        tree(nodes)
    }

    #[test]
    fn a_level_too_wide_for_the_step_field_is_an_error() {
        // 2^15 splits on the last inner level: the last of them sits
        // 32 768 positions before its children.
        assert!(Forest::compile(0.0, 1.0, &[complete_tree(16)], 1)
            .expect_err("must not compile")
            .contains("a compiled node reaches 32767"));
        // One level less fits, and so does the deepest tree of 65 535
        // nodes: a chain, whose children are always the next two nodes.
        let wide = Forest::compile(0.0, 1.0, &[complete_tree(15)], 1).expect("fits");
        assert_eq!(wide.predict(&[0.0]), 0.0);
        assert_eq!(wide.predict(&[1.0]), ((1u32 << 15) - 1) as f32);
        let splits = (u16::MAX / 2) as u32;
        let mut chain = Vec::new();
        for i in 0..splits {
            chain.push(split(0, i as f32, 2 * i + 1, 2 * i + 2));
            chain.push(leaf(i as f32));
        }
        chain.push(leaf(-1.0));
        let deep = Forest::compile(0.0, 1.0, &[tree(chain)], 1).expect("65535 nodes fit");
        assert_eq!(deep.predict(&[f32::INFINITY]), -1.0);
        assert_eq!(deep.predict(&[0.0]), 0.0);
    }
}
