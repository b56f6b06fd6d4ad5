//! # prosel-bench
//!
//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation section against the simulator substrate. Each
//! experiment lives in [`experiments`] and is driven by the `experiments`
//! binary (`cargo run -p prosel-bench --bin experiments --release -- all`).
//!
//! Absolute numbers are not expected to match the paper (different
//! hardware, a simulated engine, scaled-down data); the *shape* — which
//! estimator wins where, how selection compares to individual estimators,
//! where generalization degrades — is the reproduction target. The
//! `--scale quick` output of every experiment but `table7` is pinned in
//! `golden/experiments_quick.txt`.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod report;
pub mod suite;

pub use report::Table;
pub use suite::{paper_workloads, ExpScale, Suite};
