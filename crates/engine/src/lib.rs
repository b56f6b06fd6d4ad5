//! # prosel-engine
//!
//! A Volcano-model (iterator) query-execution **simulator** that stands in
//! for the instrumented SQL Server 2008 engine of the paper. Plans are
//! *actually executed* over in-memory tables — hash tables get built,
//! index seeks hit real sorted indexes, nested loops re-open their inner
//! side per outer row — while every GetNext call and logical I/O is
//! charged against a deterministic virtual clock.
//!
//! What progress estimation consumes from this crate:
//!
//! * [`plan::PhysicalPlan`] — operator trees with optimizer estimates E_i;
//! * [`pipeline`] — pipelines/segments and driver nodes per the paper §3.2;
//! * [`trace::ObservationTrace`] — per-node counters K_i, bytes read and
//!   written, sampled at (approximately) even virtual-time intervals, plus
//!   the post-hoc truth (N_i, total time, pipeline activity windows);
//! * [`exec::run_plan`] — executes a plan and returns a
//!   [`trace::QueryRun`].
//!
//! The cost model ([`cost::CostModel`]) is tuned so the idealized GetNext
//! model of progress correlates strongly but imperfectly with virtual
//! time, reproducing the paper's Section 6.7 observation.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod clock;
pub mod context;
pub mod cost;
pub mod exec;
pub mod pipeline;
pub mod plan;
pub mod trace;
pub mod tuple;

pub use catalog::{Catalog, SortedIndex};
pub use clock::{Clock, ManualClock, SystemClock};
pub use context::{ExecConfig, ExecContext};
pub use cost::{CostModel, SplitMix64};
pub use exec::{
    build_executor, run_concurrent, run_concurrent_tapped, run_plan, run_plan_tapped, Executor,
};
pub use pipeline::{decompose, pipeline_of, pipeline_weight, Pipeline};
pub use plan::{
    AggFunc, CmpOp, NodeId, OperatorKind, PhysicalPlan, PlanNode, Predicate, SeekKind,
    OP_TYPE_COUNT, OP_TYPE_NAMES,
};
pub use trace::{thin_half, ObservationTrace, QueryRun, Snapshot, TapSink, TraceEvent, TraceTap};
pub use tuple::{Tuple, MAX_COLS};
