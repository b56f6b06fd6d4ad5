//! # prosel-planner
//!
//! The query-optimizer stand-in: statistics ([`stats`]), System-R-style
//! cardinality estimation ([`cardinality`]), physical plan construction
//! steered by the physical design ([`builder`]), and parameterized
//! workload generation for the paper's six evaluation workloads
//! ([`workload`]).
//!
//! Cardinality estimates carry realistic error (histogram uniformity,
//! sampled NDV, attribute independence, join containment) — the paper's
//! estimator-selection framework exists precisely because such errors make
//! E_i-based progress estimators unreliable in data- and query-dependent
//! ways.

#![forbid(unsafe_code)]

pub mod builder;
pub mod cardinality;
pub mod query;
pub mod stats;
pub mod workload;

pub use builder::{PlanBuilder, PlannerConfig};
pub use query::{AggKind, AggSpec, FilterSpec, JoinSpec, OrderTarget, QuerySpec, TableRef};
pub use stats::{ColumnStats, DbStats, EquiDepthHistogram, TableStats};
pub use workload::{
    build_database, generate_queries, materialize, Workload, WorkloadKind, WorkloadSpec,
};
