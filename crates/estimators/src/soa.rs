//! Vectorized (struct-of-arrays) forms of the per-snapshot hot paths.
//!
//! The per-snapshot work of estimator evaluation — live ingest and
//! post-hoc replay alike — is two walks: the refinement-bound pass
//! ([`crate::refine::bounds`]) over the whole plan, and the per-pipeline
//! aggregate walk inside [`crate::incremental::IncrementalObs`]. Written
//! as per-node *scalar* traversals over `Vec`-of-struct state, each step
//! re-derives the topological order, matches on [`OperatorKind`] (whose
//! variants carry heap payloads — table names, predicate trees — so every
//! dispatch chases pointers), and probes driver-set membership per node.
//!
//! This module compiles those walks once per plan / per pipeline into
//! flat columns — `Vec<u64>` / `Vec<f64>` slabs indexed by position — so
//! the per-snapshot passes become tight, branch-light loops over
//! contiguous slices that LLVM auto-vectorizes:
//!
//! * [`BoundsKernel`]: the bound pass with the topological order, a dense
//!   payload-free opcode, child indices, and the per-node cap constants
//!   (base cardinalities, seek slack caps, TOP limits) pre-extracted into
//!   columns. [`BoundsKernel::eval_into`] writes into caller-provided
//!   scratch — zero allocation per snapshot.
//! * `PipeCols`: the per-pipeline node walk with estimates and the
//!   bytes-read membership test precompiled into gather indices and a
//!   0/1 mask column, and the chained driver-family index lists laid out
//!   flat in their exact accumulation order.
//!
//! **Bit-identity guarantee.** Every column stores exactly the operand
//! the scalar walk would have loaded, and every consuming loop performs
//! the same floating-point operations in the same order (f64 addition is
//! order-sensitive; the 0/1 byte mask is exact because adding `+0.0` to a
//! non-negative accumulator is the identity). The scalar walks are kept
//! as each kernel's one independent reference ([`crate::refine::bounds`],
//! [`crate::incremental::IncrementalObs::offer_shared_scalar`]), off every
//! serving and collection path; the property nets pin the kernels to them.

use prosel_engine::plan::{OperatorKind, PhysicalPlan, SeekKind};

/// Dense, payload-free opcode of the bound pass — one per
/// [`OperatorKind`] *shape* rather than per variant, with the per-node
/// constants (cap, child ids) hoisted into [`BoundsKernel`] columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BoundsOp {
    /// Scans and seeks: `(K, cap.max(K))` with the cap precomputed (base
    /// cardinality for scans, slack cap for seeks).
    Leaf,
    /// Filter / compute / project / stream- and hash-aggregate:
    /// `(K, K + remaining(child))`.
    Passthrough,
    /// TOP n: passthrough capped at `n` (the cap column).
    Top,
    /// Sorts emit exactly their input.
    Sort,
    /// Hash / nested-loop join: cross-product worst case.
    Join,
    /// Merge join: `max(rem_l · rem_r, rem_l + rem_r)`.
    MergeJoin,
}

/// The refinement-bound pass of [`crate::refine::bounds`] compiled to
/// struct-of-arrays columns for one plan. Build once per query
/// ([`BoundsKernel::new`]), evaluate per snapshot
/// ([`BoundsKernel::eval_into`]) with zero allocation and no
/// [`OperatorKind`] payload access. Output is bit-identical to the
/// scalar reference (see the module docs).
#[derive(Debug, Clone)]
pub struct BoundsKernel {
    /// Node id at each topological position (evaluation order).
    node: Vec<u32>,
    /// Opcode per position.
    op: Vec<BoundsOp>,
    /// First child id per position (0 when unused).
    child0: Vec<u32>,
    /// Second child id per position (joins only; 0 when unused).
    child1: Vec<u32>,
    /// Per-position cap constant: base cardinality (scans), slack cap
    /// (seeks), `n` (TOP); 0 when unused.
    cap: Vec<f64>,
    /// Topological position of each node id (0 — forcing a full
    /// re-evaluation — for nodes outside the evaluation order).
    pos: Vec<u32>,
    /// Plan width (number of nodes).
    width: usize,
}

impl BoundsKernel {
    /// Compile the bound pass for `plan`.
    pub fn new(plan: &PhysicalPlan) -> BoundsKernel {
        let order = plan.topo_order();
        let n = order.len();
        let mut kernel = BoundsKernel {
            node: Vec::with_capacity(n),
            op: Vec::with_capacity(n),
            child0: Vec::with_capacity(n),
            child1: Vec::with_capacity(n),
            cap: Vec::with_capacity(n),
            pos: vec![0; plan.len()],
            width: plan.len(),
        };
        for (position, id) in order.iter().copied().enumerate() {
            kernel.pos[id] = position as u32;
        }
        for id in order {
            let node = plan.node(id);
            let (op, cap) = match &node.op {
                OperatorKind::TableScan { .. } | OperatorKind::IndexScan { .. } => {
                    (BoundsOp::Leaf, node.est_rows)
                }
                OperatorKind::IndexSeek { seek, .. } => {
                    let cap = match seek {
                        SeekKind::StaticRange { .. } => node.est_rows * 4.0 + 100.0,
                        SeekKind::BoundParam => node.est_rows * 8.0 + 100.0,
                    };
                    (BoundsOp::Leaf, cap)
                }
                OperatorKind::Filter { .. }
                | OperatorKind::ComputeScalar { .. }
                | OperatorKind::Project { .. }
                | OperatorKind::StreamAggregate { .. }
                | OperatorKind::HashAggregate { .. } => (BoundsOp::Passthrough, 0.0),
                OperatorKind::Top { n } => (BoundsOp::Top, *n as f64),
                OperatorKind::Sort { .. } | OperatorKind::BatchSort { .. } => (BoundsOp::Sort, 0.0),
                OperatorKind::HashJoin { .. } | OperatorKind::NestedLoopJoin { .. } => {
                    (BoundsOp::Join, 0.0)
                }
                OperatorKind::MergeJoin { .. } => (BoundsOp::MergeJoin, 0.0),
            };
            kernel.node.push(id as u32);
            kernel.op.push(op);
            kernel.child0.push(node.children.first().map_or(0, |&c| c as u32));
            kernel.child1.push(node.children.get(1).map_or(0, |&c| c as u32));
            kernel.cap.push(cap);
        }
        kernel
    }

    /// Number of plan nodes the kernel was compiled for.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Topological (evaluation-order) position of `node`. Together with
    /// [`Self::eval_from`] this turns a sparse counter delta into an
    /// incremental bound refresh: a node's bounds depend only on its own
    /// counter and the bounds of earlier positions, so re-evaluating from
    /// the *smallest* position among the changed `GetNext` counters leaves
    /// every earlier slot holding exactly the value a full pass would
    /// produce. Nodes outside the evaluation order report position 0,
    /// which degrades to a full re-evaluation.
    pub fn position_of(&self, node: usize) -> usize {
        self.pos[node] as usize
    }

    /// Evaluate the bound pass for counter vector `k`, writing the
    /// per-node lower/upper bounds into `lb`/`ub` (resized to the plan
    /// width and fully overwritten — no allocation once the scratch has
    /// reached capacity). Bit-identical to
    /// [`crate::refine::bounds`]`(plan, k)`.
    pub fn eval_into(&self, k: &[u64], lb: &mut Vec<f64>, ub: &mut Vec<f64>) {
        lb.clear();
        lb.resize(self.width, 0.0);
        ub.clear();
        ub.resize(self.width, 0.0);
        self.eval_from(k, lb, ub, 0);
    }

    /// Re-evaluate the bound pass from topological position `from` onward,
    /// assuming `lb`/`ub` hold a previous evaluation whose inputs at
    /// positions before `from` are unchanged (see [`Self::position_of`]).
    /// With `from = 0` this is a full pass. A `from` at or beyond the
    /// evaluation length is a no-op (nothing dirty).
    pub fn eval_from(&self, k: &[u64], lb: &mut [f64], ub: &mut [f64], from: usize) {
        debug_assert_eq!(k.len(), self.width, "counter vector width mismatch");
        debug_assert_eq!(lb.len(), self.width, "lb scratch width mismatch");
        debug_assert_eq!(ub.len(), self.width, "ub scratch width mismatch");
        for i in from..self.node.len() {
            let id = self.node[i] as usize;
            let kid = k[id] as f64;
            let (l, u) = match self.op[i] {
                BoundsOp::Leaf => (kid, self.cap[i].max(kid)),
                BoundsOp::Passthrough => {
                    let c = self.child0[i] as usize;
                    let remaining = (ub[c] - k[c] as f64).max(0.0);
                    (kid, kid + remaining)
                }
                BoundsOp::Top => {
                    let c = self.child0[i] as usize;
                    let remaining = (ub[c] - k[c] as f64).max(0.0);
                    (kid, (kid + remaining).min(self.cap[i]).max(kid))
                }
                BoundsOp::Sort => {
                    let c = self.child0[i] as usize;
                    ((k[c] as f64).min(kid).max(kid.min(lb[c])).max(kid), ub[c].max(kid))
                }
                BoundsOp::Join => {
                    let outer = self.child0[i] as usize;
                    let inner = self.child1[i] as usize;
                    let remaining_outer = (ub[outer] - k[outer] as f64).max(0.0);
                    let inner_size = ub[inner].max(1.0);
                    (kid, kid + remaining_outer * inner_size)
                }
                BoundsOp::MergeJoin => {
                    let l = self.child0[i] as usize;
                    let r = self.child1[i] as usize;
                    let rem_l = (ub[l] - k[l] as f64).max(0.0);
                    let rem_r = (ub[r] - k[r] as f64).max(0.0);
                    (kid, kid + (rem_l * rem_r).max(rem_l + rem_r))
                }
            };
            lb[id] = l;
            ub[id] = u.max(l);
        }
    }
}

/// Per-pipeline struct-of-arrays columns for the aggregate walk of
/// [`crate::incremental::IncrementalObs`], compiled once when the
/// pipeline's driver sets resolve. Each column is indexed by pipeline
/// position (not node id); node-id gather indices are a column of their
/// own.
#[derive(Debug, Clone)]
pub(crate) struct PipeCols {
    /// Node id per pipeline position (gather index into the counters).
    pub(crate) node: Vec<u32>,
    /// Optimizer row estimate per position (`est_rows`).
    pub(crate) est_rows: Vec<f64>,
    /// 1.0 where this position's `bytes_read` counts toward processed
    /// bytes (driver nodes and non-leaf operators), 0.0 otherwise — the
    /// compiled form of the scalar walk's per-node
    /// `driver_set.contains(n) || !is_leaf_read(n)` test. Adding
    /// `mask · bytes` is bit-identical to the branch because the
    /// accumulator is non-negative and `x + 0.0 == x` there.
    pub(crate) read_mask: Vec<f64>,
    /// Driver node ids (gather order = accumulation order).
    pub(crate) driver_node: Vec<u32>,
    /// Known driver totals, aligned with `driver_node`.
    pub(crate) driver_total: Vec<f64>,
    /// Drivers ++ batch-sort extras, in the exact chained-sum order of
    /// the BATCHDNE numerator.
    pub(crate) batch_node: Vec<u32>,
    /// Drivers ++ index-seek extras (DNESEEK numerator order).
    pub(crate) seek_node: Vec<u32>,
}

impl PipeCols {
    /// Compile the columns for `nodes` (one pipeline) of `plan`, given
    /// the resolved driver family: `drivers` with their known totals,
    /// plus the batch-sort / index-seek extensions (chained after the
    /// drivers, in order).
    pub(crate) fn build(
        plan: &PhysicalPlan,
        nodes: &[usize],
        drivers: &[(usize, f64)],
        batch_extra: &[(usize, f64)],
        seek_extra: &[(usize, f64)],
    ) -> PipeCols {
        let driver_set: Vec<usize> = drivers.iter().map(|&(d, _)| d).collect();
        let is_leaf_read = |id: usize| {
            matches!(
                plan.node(id).op,
                OperatorKind::TableScan { .. }
                    | OperatorKind::IndexScan { .. }
                    | OperatorKind::IndexSeek { .. }
            )
        };
        let chain = |extra: &[(usize, f64)]| -> Vec<u32> {
            drivers.iter().chain(extra).map(|&(n, _)| n as u32).collect()
        };
        PipeCols {
            node: nodes.iter().map(|&n| n as u32).collect(),
            est_rows: nodes.iter().map(|&n| plan.node(n).est_rows).collect(),
            read_mask: nodes
                .iter()
                .map(|&n| if driver_set.contains(&n) || !is_leaf_read(n) { 1.0 } else { 0.0 })
                .collect(),
            driver_node: drivers.iter().map(|&(d, _)| d as u32).collect(),
            driver_total: drivers.iter().map(|&(_, t)| t).collect(),
            batch_node: chain(batch_extra),
            seek_node: chain(seek_extra),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refine::bounds;
    use prosel_engine::plan::{CmpOp, PlanNode, Predicate};

    fn node(op: OperatorKind, children: Vec<usize>, est: f64) -> PlanNode {
        PlanNode { op, children, est_rows: est, est_row_bytes: 8.0, out_cols: 1 }
    }

    fn join_plan() -> PhysicalPlan {
        PhysicalPlan {
            nodes: vec![
                node(OperatorKind::TableScan { table: "a".into(), cols: vec![0] }, vec![], 10.0),
                node(OperatorKind::TableScan { table: "b".into(), cols: vec![0] }, vec![], 20.0),
                node(OperatorKind::HashJoin { probe_key: 0, build_key: 0 }, vec![0, 1], 15.0),
                node(
                    OperatorKind::Filter {
                        pred: Predicate::ColCmp { col: 0, op: CmpOp::Gt, val: 0 },
                    },
                    vec![2],
                    7.0,
                ),
                node(OperatorKind::Top { n: 5 }, vec![3], 5.0),
            ],
            root: 4,
        }
    }

    #[test]
    fn kernel_matches_scalar_bounds_bitwise() {
        let plan = join_plan();
        let kernel = BoundsKernel::new(&plan);
        assert_eq!(kernel.width(), plan.len());
        let mut lb = Vec::new();
        let mut ub = Vec::new();
        for k in [[0u64, 0, 0, 0, 0], [4, 20, 3, 1, 0], [10, 20, 200, 150, 5]] {
            let (slb, sub) = bounds(&plan, &k);
            kernel.eval_into(&k, &mut lb, &mut ub);
            assert_eq!(lb, slb);
            assert_eq!(ub, sub);
        }
    }

    #[test]
    fn scratch_is_reused_across_evaluations() {
        let plan = join_plan();
        let kernel = BoundsKernel::new(&plan);
        let mut lb = Vec::new();
        let mut ub = Vec::new();
        kernel.eval_into(&[0, 0, 0, 0, 0], &mut lb, &mut ub);
        let cap = (lb.capacity(), ub.capacity());
        kernel.eval_into(&[9, 9, 9, 9, 5], &mut lb, &mut ub);
        assert_eq!((lb.capacity(), ub.capacity()), cap, "no reallocation on re-eval");
    }

    #[test]
    fn suffix_eval_matches_a_full_pass_bitwise() {
        let plan = join_plan();
        let kernel = BoundsKernel::new(&plan);
        let base = [4u64, 20, 3, 1, 0];
        let mut lb = Vec::new();
        let mut ub = Vec::new();
        kernel.eval_into(&base, &mut lb, &mut ub);
        // Bump one node's counter, resume from its topo position, and
        // demand bitwise agreement with a from-scratch evaluation — the
        // contract the shard's delta-driven dirty-suffix refresh relies
        // on. `from == len` (usize::MAX clamp upstream) must be a no-op.
        for dirty in 0..plan.len() {
            let mut k = base;
            k[dirty] += 7;
            let (flb, fub) = bounds(&plan, &k);
            let mut slb = lb.clone();
            let mut sub = ub.clone();
            kernel.eval_from(&k, &mut slb, &mut sub, kernel.position_of(dirty));
            assert_eq!(slb, flb, "suffix lb from node {dirty}");
            assert_eq!(sub, fub, "suffix ub from node {dirty}");
        }
        let (snap_lb, snap_ub) = (lb.clone(), ub.clone());
        kernel.eval_from(&base, &mut lb, &mut ub, plan.len());
        assert_eq!((lb, ub), (snap_lb, snap_ub), "from == len is a no-op");
    }

    #[test]
    fn read_mask_compiles_the_membership_test() {
        let plan = join_plan();
        // Drivers: the outer scan (node 0). Scan 1 is a leaf non-driver =>
        // excluded; the join and filter are non-leaf => included.
        let cols = PipeCols::build(&plan, &[0, 1, 2, 3, 4], &[(0, 10.0)], &[], &[(1, 20.0)]);
        assert_eq!(cols.read_mask, vec![1.0, 0.0, 1.0, 1.0, 1.0]);
        assert_eq!(cols.batch_node, vec![0]);
        assert_eq!(cols.seek_node, vec![0, 1]);
    }
}
