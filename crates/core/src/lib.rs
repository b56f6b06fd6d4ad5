//! # prosel-core
//!
//! The paper's primary contribution: **statistical estimator selection**
//! for robust SQL progress estimation.
//!
//! No single progress estimator is robust across queries, plans and data
//! distributions. Instead of hand-writing a decision function, this crate
//! trains — for every candidate estimator — a MART regression model that
//! predicts the estimator's error on a pipeline from cheap features, and
//! selects the candidate with the smallest predicted error:
//!
//! * [`features`] — static plan features (§4.3) and dynamic runtime
//!   features (§4.4) with a stable named schema;
//! * [`pipeline_runs`] — executing workloads into labelled per-pipeline
//!   records (features + per-estimator errors);
//! * [`training`] — training-set assembly, feature modes, splits;
//! * [`selection`] — the per-estimator error models and the selection /
//!   evaluation logic (% optimal, error ratios, oracle floor);
//! * [`textio`] — the one envelope and line grammar every persisted
//!   artifact is sealed and parsed through (defined in `prosel-mart`, the
//!   lowest crate that persists one, and re-exported here).

#![forbid(unsafe_code)]

pub mod features;
pub mod pipeline_runs;
pub mod selection;
pub mod training;

pub use prosel_mart::textio;

pub use features::FeatureSchema;
pub use pipeline_runs::{
    collect_from_workload, collect_workload_records, records_from_run, CollectConfig,
    PipelineRecord,
};
pub use selection::{EstimatorSelector, SelectionReport, SelectorConfig};
pub use training::{FeatureMode, TrainingSet};
