//! # prosel-datagen
//!
//! Synthetic benchmark databases for progress-estimation experiments.
//!
//! The paper evaluates on TPC-H (generated with Microsoft's skewed `dbgen`,
//! Zipf factor Z ∈ {0,1,2}), TPC-DS, and two proprietary real-world
//! decision-support databases. None of those artifacts are redistributable,
//! so this crate generates *shape-faithful* substitutes:
//!
//! * [`tpch`] — the 8-table TPC-H schema with configurable scale factor and
//!   Zipfian skew applied to foreign keys and value columns;
//! * [`tpcds`] — a star-schema TPC-DS subset (one fact table, five
//!   dimensions);
//! * [`realworld`] — two "real-life" style databases: `real1` (a sales /
//!   reporting schema with correlated columns, queried with 5–8-way joins)
//!   and `real2` (a wide snowflake queried with ~12-way joins).
//!
//! Row counts are scaled down roughly 1000× relative to the paper's
//! multi-GB databases: the execution substrate is a simulator, and what
//! matters for estimator behaviour is the *distributional* shape (skew,
//! fan-out variance, correlation, operator mix), which is preserved.
//!
//! All generation is deterministic given a seed.

#![forbid(unsafe_code)]

pub mod physical;
pub mod realworld;
pub mod schema;
pub mod table;
pub mod tpcds;
pub mod tpch;
pub mod zipf;

pub use physical::{IndexDef, PhysicalDesign, TuningLevel};
pub use schema::{ColumnMeta, TableMeta};
pub use table::{Column, Database, Table};
pub use zipf::Zipf;

/// Configuration of every generator: [`tpch::generate`],
/// [`tpcds::generate`], [`realworld::generate_real1`] and
/// [`realworld::generate_real2`].
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Scale factor. At `1.0`: ~6k TPC-H lineitem rows (a 1000×
    /// scaled-down SF1), ~3k TPC-DS fact rows, ~4k Real-1 and ~5k Real-2
    /// fact rows.
    pub scale: f64,
    /// Zipf skew Z of foreign keys (TPC-H: and of value columns);
    /// 0 = uniform.
    pub skew: f64,
    /// RNG seed; generation is fully deterministic.
    pub seed: u64,
}
