//! Volcano-model operator executors.
//!
//! Each physical operator implements [`Executor`]: `open` prepares state
//! (and, for blocking operators, consumes the input — that is where child
//! pipelines run), `next` produces one output row, and `reopen` rebinds a
//! correlated nested-loop parameter and rewinds.
//!
//! Every produced row is charged to the [`ExecContext`] as a GetNext call
//! (K_i), and consuming/auxiliary work (predicate evaluation, hash
//! inserts, sort passes, spill I/O) is charged as CPU or byte costs so the
//! virtual clock reflects realistic per-operator work.

mod aggregate;
mod concurrent;
mod filter;
mod hash_join;
mod merge_join;
mod nl_join;
mod scan;
mod sort;

pub use aggregate::{HashAggregateExec, StreamAggregateExec};
pub(crate) use concurrent::TurnScheduler;
pub use concurrent::{run_concurrent, run_concurrent_tapped};
pub use filter::{ComputeScalarExec, FilterExec, ProjectExec, TopExec};
pub use hash_join::HashJoinExec;
pub use merge_join::MergeJoinExec;
pub use nl_join::NestedLoopJoinExec;
pub use scan::{IndexScanExec, IndexSeekExec, TableScanExec};
pub use sort::{BatchSortExec, SortExec};

use crate::catalog::Catalog;
use crate::context::{ExecConfig, ExecContext};
use crate::pipeline::{decompose, pipeline_of};
use crate::plan::{NodeId, OperatorKind, PhysicalPlan};
use crate::trace::{QueryRun, TraceTap};
use crate::tuple::Tuple;
use std::sync::Arc;

/// A physical operator instance.
pub trait Executor {
    /// Prepare for execution. Blocking operators consume their input here.
    fn open(&mut self, ctx: &mut ExecContext);
    /// Rewind with a new correlated binding (nested-loop inner side).
    fn reopen(&mut self, ctx: &mut ExecContext, binding: i64);
    /// Produce the next output row, or `None` when exhausted.
    fn next(&mut self, ctx: &mut ExecContext) -> Option<Tuple>;
}

/// Recursively instantiate the executor tree for `node`.
pub fn build_executor<'a>(
    plan: &'a PhysicalPlan,
    node: NodeId,
    catalog: &'a Catalog<'a>,
) -> Box<dyn Executor + 'a> {
    let pn = plan.node(node);
    let child = |i: usize| build_executor(plan, pn.children[i], catalog);
    match &pn.op {
        OperatorKind::TableScan { table, cols } => {
            Box::new(TableScanExec::new(node, catalog.table(table), cols.clone()))
        }
        OperatorKind::IndexScan { table, key_col, cols } => Box::new(IndexScanExec::new(
            node,
            catalog.table(table),
            catalog.index_required(table, *key_col),
            cols.clone(),
        )),
        OperatorKind::IndexSeek { table, key_col, cols, seek } => Box::new(IndexSeekExec::new(
            node,
            catalog.table(table),
            catalog.index_required(table, *key_col),
            cols.clone(),
            seek.clone(),
        )),
        OperatorKind::Filter { pred } => Box::new(FilterExec::new(node, pred.clone(), child(0))),
        OperatorKind::HashJoin { probe_key, build_key } => Box::new(HashJoinExec::new(
            node,
            pn.children[1],
            *probe_key,
            *build_key,
            child(0),
            child(1),
        )),
        OperatorKind::MergeJoin { left_key, right_key } => {
            Box::new(MergeJoinExec::new(node, *left_key, *right_key, child(0), child(1)))
        }
        OperatorKind::NestedLoopJoin { outer_key } => {
            Box::new(NestedLoopJoinExec::new(node, *outer_key, child(0), child(1)))
        }
        OperatorKind::HashAggregate { group_cols, aggs } => Box::new(HashAggregateExec::new(
            node,
            pn.children[0],
            group_cols.clone(),
            aggs.clone(),
            child(0),
        )),
        OperatorKind::StreamAggregate { group_cols, aggs } => {
            Box::new(StreamAggregateExec::new(node, group_cols.clone(), aggs.clone(), child(0)))
        }
        OperatorKind::Sort { key_cols } => {
            Box::new(SortExec::new(node, pn.children[0], key_cols.clone(), child(0)))
        }
        OperatorKind::BatchSort { key_col, batch } => {
            Box::new(BatchSortExec::new(node, *key_col, *batch, child(0)))
        }
        OperatorKind::Top { n } => Box::new(TopExec::new(node, *n, child(0))),
        OperatorKind::ComputeScalar { added_cols } => {
            Box::new(ComputeScalarExec::new(node, *added_cols, child(0)))
        }
        OperatorKind::Project { cols } => Box::new(ProjectExec::new(node, cols.clone(), child(0))),
    }
}

/// Execute a plan to completion, producing its observation trace.
///
/// # Panics
/// Panics if the plan fails [`PhysicalPlan::validate`] or references an
/// index missing from the catalog's physical design.
pub fn run_plan(catalog: &Catalog<'_>, plan: &PhysicalPlan, cfg: &ExecConfig) -> QueryRun {
    run_plan_inner(catalog, plan, cfg, None)
}

/// [`run_plan`] with a live observation stream: every retained snapshot
/// (plus thinning and termination events) is sent to `tap` as execution
/// proceeds, tagged with `query`. Tapping does not alter execution — the
/// returned [`QueryRun`] is identical to an untapped run.
///
/// `tap` accepts anything convertible into a [`TraceTap`]: a plain
/// `std::sync::mpsc::Sender<TraceEvent>`, or a routed sink (e.g. a
/// sharded monitor service's tap).
pub fn run_plan_tapped(
    catalog: &Catalog<'_>,
    plan: &PhysicalPlan,
    cfg: &ExecConfig,
    query: usize,
    tap: impl Into<TraceTap>,
) -> QueryRun {
    run_plan_inner(catalog, plan, cfg, Some((tap.into(), query)))
}

fn run_plan_inner(
    catalog: &Catalog<'_>,
    plan: &PhysicalPlan,
    cfg: &ExecConfig,
    tap: Option<(TraceTap, usize)>,
) -> QueryRun {
    if let Err(e) = plan.validate() {
        panic!("invalid plan: {e}\n{}", plan.render());
    }
    execute(catalog, plan, cfg, tap, None)
}

/// The one execution loop behind [`run_plan`] and
/// [`run_concurrent`](concurrent::run_concurrent): runs an already
/// validated `plan` to completion. With `turn = Some((scheduler, id))` the
/// query runs only on its turns, starting at the shared clock, and hands
/// the machine on once its trace is finished.
fn execute(
    catalog: &Catalog<'_>,
    plan: &PhysicalPlan,
    cfg: &ExecConfig,
    tap: Option<(TraceTap, usize)>,
    turn: Option<(Arc<TurnScheduler>, usize)>,
) -> QueryRun {
    let pipelines = decompose(plan);
    let pmap = pipeline_of(plan, &pipelines);
    let mut ctx = ExecContext::new(cfg, plan.len(), pmap, pipelines.len());
    if let Some((tap, query)) = tap {
        ctx.attach_tap(tap, query);
    }
    if let Some((sched, id)) = &turn {
        ctx.attach_scheduler(Arc::clone(sched), *id);
        ctx.fast_forward(sched.wait_turn(*id));
    }
    let mut exec = build_executor(plan, plan.root, catalog);
    exec.open(&mut ctx);
    let mut result_rows = 0u64;
    while let Some(t) = exec.next(&mut ctx) {
        result_rows += 1;
        // Results are written to the client / result spool.
        ctx.write_bytes(plan.root, t.width_bytes());
    }
    drop(exec);
    // Finish the trace (which emits the terminal tap events) *before*
    // handing the turn away: once the scheduler's `finish` runs, the next
    // query starts emitting, and terminal events racing it would make the
    // stream order nondeterministic.
    let clock = ctx.now();
    let trace = ctx.finish();
    if let Some((sched, id)) = turn {
        sched.finish(id, clock);
    }
    QueryRun { plan: plan.clone(), pipelines, trace, result_rows }
}
