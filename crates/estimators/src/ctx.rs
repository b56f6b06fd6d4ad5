//! Shared per-snapshot evaluation context.
//!
//! The worst-case bound refinement of \[6\] ([`crate::refine::bounds`]) is
//! a bottom-up pass over the *whole plan* — it depends only on the plan and
//! the counter vector of one snapshot, never on which pipeline is being
//! estimated. [`SnapshotCtx`] therefore holds it **once per query per
//! snapshot**, and every pipeline's
//! [`IncrementalObs::offer_view`](crate::incremental::IncrementalObs::offer_view)
//! reads the same `(lb, ub)` arrays — O(plan) per snapshot instead of
//! O(pipelines × plan). The live monitor keeps one context per query and
//! refreshes it in place from a compiled [`BoundsKernel`]; post-hoc
//! evaluation builds a [`TraceCtx`] — the run's plan plus the context of
//! every recorded snapshot, through the same kernel — and replays each
//! pipeline against it.

use crate::soa::BoundsKernel;
use prosel_engine::plan::PhysicalPlan;
use prosel_engine::trace::QueryRun;
use std::sync::Arc;

/// Per-snapshot derived state shared by every pipeline of a query: the
/// refinement bounds `(lb, ub)` on each node's total GetNext calls, given
/// the counters observed at this snapshot.
#[derive(Debug, Clone)]
pub struct SnapshotCtx {
    /// Per-node lower bounds on N_i.
    pub lb: Vec<f64>,
    /// Per-node upper bounds on N_i (`lb[i] <= ub[i]` for every node).
    pub ub: Vec<f64>,
}

impl SnapshotCtx {
    /// Compute the context for one snapshot with the scalar reference
    /// pass ([`crate::refine::bounds`]) — what the compiled kernel is
    /// pinned against. Production consumers refresh a context in place
    /// with [`Self::recompute`] / [`Self::refresh_from`].
    #[cfg(test)]
    pub(crate) fn new(plan: &PhysicalPlan, snap: &prosel_engine::trace::Snapshot) -> SnapshotCtx {
        let (lb, ub) = crate::refine::bounds(plan, &snap.k);
        SnapshotCtx { lb, ub }
    }

    /// An empty context to be filled by [`Self::recompute`].
    pub fn empty() -> SnapshotCtx {
        SnapshotCtx { lb: Vec::new(), ub: Vec::new() }
    }

    /// Refresh the bounds in place from a compiled kernel — the
    /// allocation-free per-snapshot path. Bit-identical to
    /// [`crate::refine::bounds`] on the kernel's plan (see [`crate::soa`]).
    pub fn recompute(&mut self, kernel: &BoundsKernel, k: &[u64]) {
        kernel.eval_into(k, &mut self.lb, &mut self.ub);
    }

    /// Refresh only the bounds at topological positions `from` and later —
    /// the delta-driven path: a sparse counter delta names exactly which
    /// `GetNext` counters moved, and bounds at earlier positions are pure
    /// functions of unchanged inputs, so leaving them in place is
    /// bit-identical to a full pass (see
    /// [`BoundsKernel::position_of`][crate::soa::BoundsKernel::position_of]).
    /// Falls back to a full evaluation when the context has not been
    /// sized for this kernel yet.
    pub fn refresh_from(&mut self, kernel: &BoundsKernel, k: &[u64], from: usize) {
        if self.lb.len() != kernel.width() {
            kernel.eval_into(k, &mut self.lb, &mut self.ub);
        } else {
            kernel.eval_from(k, &mut self.lb, &mut self.ub, from);
        }
    }

    /// Refresh only the bounds at the topological positions set in
    /// `dirty` — [`Self::refresh_from`] for a consumer that knows which
    /// `GetNext` counters moved and ORs their
    /// [`BoundsKernel::dependents`][crate::soa::BoundsKernel::dependents]:
    /// one early node moving no longer re-evaluates every later position,
    /// only its ancestors. Bit-identical to a full pass (see
    /// [`BoundsKernel::eval_dirty`][crate::soa::BoundsKernel::eval_dirty]);
    /// falls back to one when the context has not been sized for this
    /// kernel yet.
    pub fn refresh_dirty(&mut self, kernel: &BoundsKernel, k: &[u64], dirty: u64) {
        if self.lb.len() != kernel.width() {
            kernel.eval_into(k, &mut self.lb, &mut self.ub);
        } else {
            kernel.eval_dirty(k, &mut self.lb, &mut self.ub, dirty);
        }
    }

    /// Number of plan nodes covered.
    pub fn len(&self) -> usize {
        self.lb.len()
    }

    pub fn is_empty(&self) -> bool {
        self.lb.is_empty()
    }
}

/// Per-run state of post-hoc evaluation, built once and shared by every
/// pipeline replayed from the run
/// ([`IncrementalObs::replay_shared`](crate::incremental::IncrementalObs::replay_shared)):
/// the plan behind one `Arc`, and the [`SnapshotCtx`] of every snapshot
/// in the trace.
#[derive(Debug, Clone)]
pub struct TraceCtx {
    plan: Arc<PhysicalPlan>,
    snapshots: Vec<SnapshotCtx>,
}

impl TraceCtx {
    /// Compile the run's bound kernel once and evaluate it on every
    /// snapshot of the trace.
    pub fn new(run: &QueryRun) -> TraceCtx {
        let kernel = BoundsKernel::new(&run.plan);
        let snapshots = run
            .trace
            .snapshots
            .iter()
            .map(|s| {
                let mut ctx = SnapshotCtx::empty();
                ctx.recompute(&kernel, &s.k);
                ctx
            })
            .collect();
        TraceCtx { plan: Arc::new(run.plan.clone()), snapshots }
    }

    /// The run's plan, shared by every pipeline replayed against this
    /// context.
    pub(crate) fn plan(&self) -> &Arc<PhysicalPlan> {
        &self.plan
    }

    /// The shared context of snapshot `j` (trace index).
    pub fn snapshot(&self, j: usize) -> &SnapshotCtx {
        &self.snapshots[j]
    }

    /// Number of snapshots covered.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refine::bounds;
    use prosel_engine::plan::{OperatorKind, PlanNode};
    use prosel_engine::trace::Snapshot;

    fn scan_plan() -> PhysicalPlan {
        PhysicalPlan {
            nodes: vec![PlanNode {
                op: OperatorKind::TableScan { table: "t".into(), cols: vec![0] },
                children: vec![],
                est_rows: 100.0,
                est_row_bytes: 8.0,
                out_cols: 1,
            }],
            root: 0,
        }
    }

    #[test]
    fn ctx_matches_direct_bounds() {
        let plan = scan_plan();
        let snap = Snapshot {
            time: 10.0,
            k: vec![40].into_boxed_slice(),
            bytes_read: vec![320].into_boxed_slice(),
            bytes_written: vec![0].into_boxed_slice(),
            materialized: vec![0].into_boxed_slice(),
        };
        let ctx = SnapshotCtx::new(&plan, &snap);
        let (lb, ub) = bounds(&plan, &snap.k);
        assert_eq!(ctx.lb, lb);
        assert_eq!(ctx.ub, ub);
        assert_eq!(ctx.len(), 1);
    }
}
