//! # prosel-estimators
//!
//! The SQL progress estimators of the paper and its predecessors:
//!
//! * **DNE** — DriverNode estimator (\[6\], eq. (4)): progress = fraction of
//!   driver-node input consumed. Robust to cardinality errors (driver
//!   sizes are known), fails when per-tuple work varies (nested
//!   iterations, batch sorts).
//! * **TGN** — Total GetNext (\[6\], eq. (3)) with bound-clamped E_i:
//!   accounts for work at every node but inherits optimizer estimation
//!   errors.
//! * **LUO** — the bytes-processed / speed model of Luo et al. (\[13\]):
//!   driver input bytes + output/spill bytes, converted to remaining time
//!   via the recent processing speed.
//! * **PMAX / SAFE** — the worst-case estimators of \[5\], built on
//!   worst-case progress bounds ([`refine::bounds`]).
//! * **BATCHDNE / DNESEEK / TGNINT** — the paper's novel special-purpose
//!   estimators (Section 5).
//! * **GetNextOracle / BytesOracle** — the idealized models of Section 6.7
//!   (true totals) used to validate the underlying progress models.
//!
//! [`incremental::IncrementalObs`] is the one place these are evaluated:
//! it builds every curve *online*, one snapshot at a time, in O(1)
//! amortized per snapshot. Post-hoc evaluation of a finished run
//! ([`PipelineObs::with_ctx`]) is replay of its trace through the same
//! protocol; [`eval`] scores curves against true (time-fraction)
//! progress.
//!
//! The refinement-bound pass ([`refine::bounds`]) depends only on the plan
//! and one snapshot's counters, so [`ctx::SnapshotCtx`] /
//! [`ctx::TraceCtx`] hold it **once per query per snapshot**, shared by
//! every pipeline consumer ([`IncrementalObs::offer_view`]).
//!
//! The per-snapshot hot paths — the bound pass and the per-pipeline
//! aggregate walk — run in compiled struct-of-arrays form
//! ([`soa::BoundsKernel`] and the columns behind
//! [`IncrementalObs::offer_view`]), allocation-free per snapshot and
//! bit-identical to scalar walks: [`refine::bounds`] for the bound pass,
//! and for the aggregate walk a reference that exists only in the
//! crate's tests; see [`soa`].

#![forbid(unsafe_code)]

pub mod ctx;
pub mod eval;
pub mod incremental;
pub mod kinds;
pub mod pipeline_obs;
pub mod refine;
pub mod soa;

pub use ctx::{SnapshotCtx, TraceCtx};
pub use eval::{
    combine_pipeline_curves, evaluate_pipeline_shared, l1_error, l2_error, query_progress_curve,
    EstimatorError,
};
pub use incremental::{Column, IncrementalObs, ONLINE_KINDS};
pub use kinds::EstimatorKind;
pub use pipeline_obs::PipelineObs;
