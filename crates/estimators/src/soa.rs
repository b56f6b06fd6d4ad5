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
//!   scratch — zero allocation per snapshot. It also knows who depends on
//!   what (see *Dependency masks* below), so a consumer that is told which
//!   counters moved re-evaluates only what they reach.
//! * `PipeCols`: the per-pipeline node walk with estimates and the
//!   bytes-read membership test precompiled into gather indices and a
//!   0/1 mask column, and the chained driver-family index lists laid out
//!   flat in their exact accumulation order.
//!
//! **Bit-identity guarantee.** Every column stores exactly the operand
//! the scalar walk would have loaded, and every consuming loop performs
//! the same floating-point operations in the same order (f64 addition is
//! order-sensitive; the 0/1 byte mask is exact because adding `+0.0` to a
//! non-negative accumulator is the identity). Each kernel is pinned to
//! one independent scalar walk, off every serving and collection path:
//! the bound pass to [`crate::refine::bounds`] (the `soa_equivalence`
//! test), the aggregate walk to a per-node walk that exists only in
//! `incremental`'s tests.
//!
//! # Dependency masks
//!
//! Between two observations of a running query most of the plan stands
//! still: pipelines run (mostly) one after another, so only the active
//! pipeline's counters move. What a moved counter can reach is a static
//! property of the plan, compiled here into two `u64` masks per node:
//!
//! * [`BoundsKernel::dependents`]: the topological *positions* whose
//!   bounds read the node's `GetNext` counter. The bounds of a node are a
//!   function of its own counter and of its children's counters and
//!   bounds, so by induction of everything in its **subtree** and of
//!   nothing else: a counter reaches its own position and every
//!   ancestor's. [`BoundsKernel::eval_dirty`] re-evaluates exactly the
//!   positions of a mask, in order; [`BoundsKernel::eval_from`] is the
//!   special case of a contiguous suffix.
//! * [`BoundsKernel::pipeline_readers`]: the *pipelines* whose
//!   per-observation aggregates read a counter of the node. A pipeline
//!   sums `GetNext`, bytes read and bytes written over its own nodes
//!   (a change to any of the three counter columns is a change to its
//!   aggregates — LUO's processed bytes move when no row does) and it
//!   clamps its estimates by the bounds of its own nodes, hence, by the
//!   subtree argument, depends on the `GetNext` counters of every node
//!   *below* them too — nodes that belong to other pipelines. So a node
//!   is read by its own pipeline and by the pipeline of each ancestor.
//!   Dropping the ancestors would miss, for example, a hash join whose
//!   upper bound still moves while its build side, another pipeline, runs.
//!   (Our engine runs the pipelines of a query one after another, so by
//!   the time a pipeline has started its subtree stands still and its own
//!   streams never show the difference; the monitor takes any stream, and
//!   `crates/monitor/tests/dirty_set_equivalence.rs` drives it with ones
//!   that do.)
//!   (`materialized` sizes are read once, when a pipeline's driver totals
//!   resolve at its first observation, and never again.)
//!
//! Plans with more than 64 nodes do not fit a mask: every query on them
//! reports "everything", which degrades to the full passes.

use prosel_engine::plan::{OperatorKind, PhysicalPlan, SeekKind};
use prosel_engine::Pipeline;

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
    /// Per node id: the positions whose bounds read the node's `GetNext`
    /// counter — its own and its ancestors' (see the module docs).
    /// `u64::MAX` throughout when the plan does not fit a mask; 0 for
    /// nodes outside the evaluation order, which nothing reads.
    above: Vec<u64>,
    /// Plan width (number of nodes).
    width: usize,
}

/// The positions a mask can name.
const MASK_BITS: usize = u64::BITS as usize;

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
            above: vec![if n > MASK_BITS { u64::MAX } else { 0 }; plan.len()],
            width: plan.len(),
        };
        for (position, id) in order.iter().copied().enumerate() {
            kernel.pos[id] = position as u32;
        }
        if n <= MASK_BITS {
            // Parents sit at later positions than their children, so a walk
            // from the root down finds each node's mask complete before it
            // is handed on.
            for (position, &id) in order.iter().enumerate().rev() {
                kernel.above[id] |= 1 << position;
                for &c in &plan.node(id).children {
                    kernel.above[c] |= kernel.above[id];
                }
            }
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

    /// The topological positions whose bounds read `node`'s `GetNext`
    /// counter, one bit each: its own and its ancestors' (why: the module
    /// docs). OR these over the counters that moved and hand the result to
    /// [`Self::eval_dirty`]. All ones on a plan of more than 64 nodes.
    pub fn dependents(&self, node: usize) -> u64 {
        self.above[node]
    }

    /// Per node id, the pipelines whose per-observation aggregates read
    /// one of the node's counters — `GetNext`, bytes read or bytes
    /// written — one bit per pipeline id: the pipeline the node belongs
    /// to and the pipeline of each of its ancestors (why: the module
    /// docs). `pipelines` is the decomposition of the kernel's plan. A
    /// pipeline none of whose bits was raised by the counters that moved
    /// since its previous observation has unchanged aggregates
    /// ([`IncrementalObs::offer_unchanged`](crate::incremental::IncrementalObs::offer_unchanged)).
    /// All ones on a plan of more than 64 nodes.
    pub fn pipeline_readers(&self, pipelines: &[Pipeline]) -> Vec<u64> {
        if self.node.len() > MASK_BITS {
            return vec![u64::MAX; self.width];
        }
        let mut owner = [0u64; MASK_BITS];
        for p in pipelines {
            for &n in &p.nodes {
                owner[self.pos[n] as usize] = 1 << p.id;
            }
        }
        self.above
            .iter()
            .map(|&positions| set_bits(positions).fold(0, |readers, p| readers | owner[p]))
            .collect()
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
        for i in from..self.node.len() {
            self.eval_at(i, k, lb, ub);
        }
    }

    /// Re-evaluate the bound pass at exactly the topological positions
    /// set in `dirty`, ascending, assuming `lb`/`ub` hold a previous
    /// evaluation and `dirty` covers [`Self::dependents`] of every node
    /// whose `GetNext` counter moved since. Every position outside the
    /// mask reads only unchanged inputs, so leaving it alone is
    /// bit-identical to a full pass. On a plan of more than 64 nodes any
    /// non-empty mask is a full pass.
    pub fn eval_dirty(&self, k: &[u64], lb: &mut [f64], ub: &mut [f64], dirty: u64) {
        if self.node.len() > MASK_BITS {
            if dirty != 0 {
                self.eval_from(k, lb, ub, 0);
            }
            return;
        }
        for i in set_bits(dirty) {
            self.eval_at(i, k, lb, ub);
        }
    }

    /// The bounds of the node at topological position `i` from its own
    /// counter and its children's counters and bounds — the one loop body
    /// of every pass above.
    #[inline]
    fn eval_at(&self, i: usize, k: &[u64], lb: &mut [f64], ub: &mut [f64]) {
        debug_assert_eq!(k.len(), self.width, "counter vector width mismatch");
        debug_assert_eq!(lb.len(), self.width, "lb scratch width mismatch");
        debug_assert_eq!(ub.len(), self.width, "ub scratch width mismatch");
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

/// The positions of the set bits of `mask`, ascending.
fn set_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            bit
        })
    })
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

    /// A tiny deterministic generator for the random cases below.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *state >> 33
    }

    /// Move `moved`'s counters from `base` and refresh through the
    /// dependency masks; the result must equal a from-scratch pass bit
    /// for bit.
    fn assert_mask_refresh_is_a_full_pass(
        plan: &PhysicalPlan,
        kernel: &BoundsKernel,
        base: &[u64],
        moved: &[usize],
    ) {
        let (mut lb, mut ub) = (Vec::new(), Vec::new());
        kernel.eval_into(base, &mut lb, &mut ub);
        let mut k = base.to_vec();
        let mut dirty = 0u64;
        for &node in moved {
            k[node] += 7 + node as u64;
            dirty |= kernel.dependents(node);
        }
        kernel.eval_dirty(&k, &mut lb, &mut ub, dirty);
        let (flb, fub) = bounds(plan, &k);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&lb), bits(&flb), "lb after moving {moved:?}");
        assert_eq!(bits(&ub), bits(&fub), "ub after moving {moved:?}");
    }

    #[test]
    fn mask_refresh_matches_a_full_pass_bitwise() {
        let plan = join_plan();
        let kernel = BoundsKernel::new(&plan);
        let base = [4u64, 20, 3, 1, 0];
        // A leaf reaches itself and the spine above it, not its sibling.
        let positions =
            |nodes: &[usize]| nodes.iter().fold(0u64, |m, &n| m | 1 << kernel.position_of(n));
        assert_eq!(kernel.dependents(0), positions(&[0, 2, 3, 4]));
        assert_eq!(kernel.dependents(1), positions(&[1, 2, 3, 4]));
        assert_eq!(kernel.dependents(4), positions(&[4]));
        for node in 0..plan.len() {
            assert_mask_refresh_is_a_full_pass(&plan, &kernel, &base, &[node]);
        }
        let mut rng = 0x5EED;
        for _ in 0..200 {
            let moved: Vec<usize> =
                (0..plan.len()).filter(|_| next(&mut rng).is_multiple_of(3)).collect();
            let base: Vec<u64> = (0..plan.len()).map(|_| next(&mut rng) % 40).collect();
            assert_mask_refresh_is_a_full_pass(&plan, &kernel, &base, &moved);
        }
        // Nothing moved: nothing evaluated.
        let (mut lb, mut ub) = (Vec::new(), Vec::new());
        kernel.eval_into(&base, &mut lb, &mut ub);
        let before = (lb.clone(), ub.clone());
        kernel.eval_dirty(&[9, 9, 9, 9, 9], &mut lb, &mut ub, 0);
        assert_eq!((lb, ub), before, "an empty mask is a no-op");
    }

    #[test]
    fn plans_wider_than_a_mask_fall_back_to_full_passes() {
        // A scan under 69 filters: 70 positions do not fit 64 bits.
        let mut nodes =
            vec![node(OperatorKind::TableScan { table: "t".into(), cols: vec![0] }, vec![], 500.0)];
        for i in 1..70 {
            let pred = Predicate::ColCmp { col: 0, op: CmpOp::Gt, val: 0 };
            nodes.push(node(OperatorKind::Filter { pred }, vec![i - 1], 400.0));
        }
        let plan = PhysicalPlan { root: nodes.len() - 1, nodes };
        let kernel = BoundsKernel::new(&plan);
        assert!((0..plan.len()).all(|n| kernel.dependents(n) == u64::MAX));
        let pipelines = prosel_engine::decompose(&plan);
        assert!(kernel.pipeline_readers(&pipelines).iter().all(|&m| m == u64::MAX));
        let base: Vec<u64> = (0..plan.len() as u64).map(|i| 300 - 3 * i).collect();
        let mut rng = 0xC4A1;
        for node in [0, 1, 35, 63, 64, 69] {
            assert_mask_refresh_is_a_full_pass(&plan, &kernel, &base, &[node]);
        }
        for _ in 0..20 {
            let moved: Vec<usize> =
                (0..plan.len()).filter(|_| next(&mut rng).is_multiple_of(5)).collect();
            assert_mask_refresh_is_a_full_pass(&plan, &kernel, &base, &moved);
        }
    }

    #[test]
    fn pipeline_readers_follow_the_subtree() {
        // join_plan: the build scan (node 1) is a pipeline of its own under
        // the hash join's breaker edge; everything else is the probe
        // pipeline, which starts second.
        let plan = join_plan();
        let pipelines = prosel_engine::decompose(&plan);
        assert_eq!(pipelines.len(), 2);
        assert_eq!(pipelines[0].nodes, vec![1]);
        let readers = BoundsKernel::new(&plan).pipeline_readers(&pipelines);
        // The build scan's counter moves the join's upper bound, which the
        // probe pipeline clamps its estimates by: both pipelines read it.
        assert_eq!(readers[1], 0b11);
        // Nothing of the build pipeline looks up.
        for probe_node in [0, 2, 3, 4] {
            assert_eq!(readers[probe_node], 0b10, "node {probe_node}");
        }
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
