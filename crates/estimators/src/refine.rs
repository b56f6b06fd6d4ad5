//! Online refinement of cardinality estimates: worst-case bounds (\[6\])
//! and interpolation (\[13\], eqs. (1)–(2) of the paper).
//!
//! Bounds are computed bottom-up over the plan from the counters observed
//! so far. Leaves are capped by their (known) base-table cardinality —
//! exact for scans; for index seeks, whose result size is not knowable
//! without index lookups, a documented slack factor stands in. Join upper
//! bounds use the cross-product worst case, which is why the worst-case
//! estimators built on them (PMAX/SAFE) are so conservative in practice
//! (paper §6.2 rules them out with L1 errors of 0.40–0.50).

use prosel_engine::plan::{OperatorKind, PhysicalPlan, SeekKind};

/// Per-node lower/upper bounds on the total GetNext calls N_i, given the
/// counters `k` observed so far.
///
/// This is the *scalar reference* walk: it re-derives the topological
/// order and matches on [`OperatorKind`] per node, allocating the two
/// result vectors per call. The monitor hot path uses the compiled
/// struct-of-arrays form ([`crate::soa::BoundsKernel`]) instead, which is
/// pinned bit-identical to this function by the equivalence property nets.
pub fn bounds(plan: &PhysicalPlan, k: &[u64]) -> (Vec<f64>, Vec<f64>) {
    let n = plan.len();
    let mut lb = vec![0.0f64; n];
    let mut ub = vec![0.0f64; n];
    bounds_into(plan, k, &mut lb, &mut ub);
    (lb, ub)
}

/// [`bounds`] writing into caller-provided scratch instead of allocating.
/// `lb`/`ub` are resized to the plan width and fully overwritten.
pub fn bounds_into(plan: &PhysicalPlan, k: &[u64], lb: &mut Vec<f64>, ub: &mut Vec<f64>) {
    let n = plan.len();
    lb.clear();
    lb.resize(n, 0.0);
    ub.clear();
    ub.resize(n, 0.0);
    for id in plan.topo_order() {
        let node = plan.node(id);
        let kid = k[id] as f64;
        let (l, u) = match &node.op {
            // Scans know their total input exactly (but may stop early
            // under TOP, hence LB = K).
            OperatorKind::TableScan { .. } | OperatorKind::IndexScan { .. } => {
                (kid, node.est_rows.max(kid))
            }
            // Seek result sizes are not exactly knowable up-front; allow a
            // slack factor above the estimate.
            OperatorKind::IndexSeek { seek, .. } => {
                let cap = match seek {
                    SeekKind::StaticRange { .. } => node.est_rows * 4.0 + 100.0,
                    // Bound-param totals depend on the (unknown) join size.
                    SeekKind::BoundParam => node.est_rows * 8.0 + 100.0,
                };
                (kid, cap.max(kid))
            }
            OperatorKind::Filter { .. }
            | OperatorKind::ComputeScalar { .. }
            | OperatorKind::Project { .. }
            | OperatorKind::StreamAggregate { .. } => {
                let c = node.children[0];
                let remaining = (ub[c] - k[c] as f64).max(0.0);
                (kid, kid + remaining)
            }
            OperatorKind::Top { n } => {
                let c = node.children[0];
                let remaining = (ub[c] - k[c] as f64).max(0.0);
                (kid, (kid + remaining).min(*n as f64).max(kid))
            }
            OperatorKind::Sort { .. } | OperatorKind::BatchSort { .. } => {
                let c = node.children[0];
                // Sorts emit exactly their input.
                ((k[c] as f64).min(kid).max(kid.min(lb[c])).max(kid), ub[c].max(kid))
            }
            OperatorKind::HashAggregate { .. } => {
                let c = node.children[0];
                let remaining = (ub[c] - k[c] as f64).max(0.0);
                (kid, kid + remaining)
            }
            OperatorKind::HashJoin { .. } | OperatorKind::NestedLoopJoin { .. } => {
                let outer = node.children[0];
                let inner = node.children[1];
                let remaining_outer = (ub[outer] - k[outer] as f64).max(0.0);
                // Worst case: every remaining outer row matches the whole
                // inner side.
                let inner_size = ub[inner].max(1.0);
                (kid, kid + remaining_outer * inner_size)
            }
            OperatorKind::MergeJoin { .. } => {
                let l = node.children[0];
                let r = node.children[1];
                let rem_l = (ub[l] - k[l] as f64).max(0.0);
                let rem_r = (ub[r] - k[r] as f64).max(0.0);
                (kid, kid + (rem_l * rem_r).max(rem_l + rem_r))
            }
        };
        lb[id] = l;
        ub[id] = u.max(l);
    }
}

/// Clamp an estimate into `[lb, ub]` (the refinement of \[6\]).
#[inline]
pub fn clamp_estimate(e: f64, lb: f64, ub: f64) -> f64 {
    e.clamp(lb, ub.max(lb))
}

/// Fraction of the driver-node input consumed (eq. (1)): Σ K / Σ D over
/// the driver nodes, clamped to [0, 1].
pub fn alpha(sum_k_driver: f64, sum_d_driver: f64) -> f64 {
    if sum_d_driver <= 0.0 {
        return 0.0;
    }
    (sum_k_driver / sum_d_driver).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prosel_engine::plan::{CmpOp, PlanNode, Predicate};

    fn node(op: OperatorKind, children: Vec<usize>, est: f64, out_cols: usize) -> PlanNode {
        PlanNode { op, children, est_rows: est, est_row_bytes: 8.0, out_cols }
    }

    fn scan_filter() -> PhysicalPlan {
        PhysicalPlan {
            nodes: vec![
                node(
                    OperatorKind::TableScan { table: "t".into(), cols: vec![0] },
                    vec![],
                    100.0,
                    1,
                ),
                node(
                    OperatorKind::Filter {
                        pred: Predicate::ColCmp { col: 0, op: CmpOp::Gt, val: 0 },
                    },
                    vec![0],
                    40.0,
                    1,
                ),
            ],
            root: 1,
        }
    }

    #[test]
    fn filter_bounds_track_remaining_input() {
        let plan = scan_filter();
        // Halfway: scan emitted 50, filter 10.
        let (lb, ub) = bounds(&plan, &[50, 10]);
        assert_eq!(lb[1], 10.0);
        assert_eq!(ub[1], 10.0 + 50.0); // 50 input rows remain
        assert_eq!(ub[0], 100.0);
        // Finished: scan 100, filter 37 => filter bounds collapse to truth.
        let (lb, ub) = bounds(&plan, &[100, 37]);
        assert_eq!(lb[1], 37.0);
        assert_eq!(ub[1], 37.0);
    }

    #[test]
    fn clamping_pulls_bad_estimates_in() {
        let plan = scan_filter();
        let (lb, ub) = bounds(&plan, &[100, 37]);
        // Optimizer said 40; truth is 37; bounds force it.
        assert_eq!(clamp_estimate(40.0, lb[1], ub[1]), 37.0);
        // Estimate below observed K gets raised.
        let (lb2, ub2) = bounds(&plan, &[50, 45]);
        assert_eq!(clamp_estimate(40.0, lb2[1], ub2[1]), 45.0);
    }

    #[test]
    fn join_upper_bound_is_cross_product() {
        let plan = PhysicalPlan {
            nodes: vec![
                node(OperatorKind::TableScan { table: "a".into(), cols: vec![0] }, vec![], 10.0, 1),
                node(OperatorKind::TableScan { table: "b".into(), cols: vec![0] }, vec![], 20.0, 1),
                node(OperatorKind::HashJoin { probe_key: 0, build_key: 0 }, vec![0, 1], 15.0, 2),
            ],
            root: 2,
        };
        let (_, ub) = bounds(&plan, &[4, 20, 3]);
        // 6 outer rows remain; each could match all 20 build rows.
        assert_eq!(ub[2], 3.0 + 6.0 * 20.0);
    }

    #[test]
    fn alpha_is_the_clamped_driver_fraction() {
        assert_eq!(alpha(50.0, 100.0), 0.5);
        assert_eq!(alpha(10.0, 0.0), 0.0);
        assert_eq!(alpha(200.0, 100.0), 1.0);
    }

    #[test]
    fn top_bound_caps_at_n() {
        let plan = PhysicalPlan {
            nodes: vec![
                node(
                    OperatorKind::TableScan { table: "t".into(), cols: vec![0] },
                    vec![],
                    100.0,
                    1,
                ),
                node(OperatorKind::Top { n: 5 }, vec![0], 5.0, 1),
            ],
            root: 1,
        };
        let (_, ub) = bounds(&plan, &[10, 2]);
        assert_eq!(ub[1], 5.0);
    }
}
