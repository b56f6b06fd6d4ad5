//! Feature extraction for estimator selection.
//!
//! Two families, following the paper's Sections 4.3 and 4.4:
//!
//! * [`static_features`] — computable from the plan and optimizer
//!   estimates before execution starts;
//! * [`dynamic_features`] — computed from execution feedback observed up
//!   to the 20%-of-driver-input marker, allowing the initial choice to be
//!   revised online.
//!
//! The combined vector has ~210 entries ("about 200 double values",
//! paper §6.4); [`schema::FeatureSchema`] names every position.

pub mod dynamic_features;
pub mod schema;
pub mod static_features;

use prosel_engine::plan::PhysicalPlan;
use prosel_estimators::IncrementalObs;

pub use schema::FeatureSchema;

/// Extract the full feature vector (static ++ dynamic) of `obs`'s pipeline.
/// `statics` is the pipeline's static prefix when the caller already holds
/// it (it must be what [`static_features::extract_pipeline`] returns);
/// `None` extracts it from `plan`.
pub fn extract(plan: &PhysicalPlan, statics: Option<&[f32]>, obs: &IncrementalObs) -> Vec<f32> {
    let mut v = match statics {
        Some(prefix) => {
            let mut v = Vec::with_capacity(FeatureSchema::get().len());
            v.extend_from_slice(prefix);
            v
        }
        None => static_features::extract_pipeline(plan, obs.pipeline()),
    };
    debug_assert_eq!(v.len(), FeatureSchema::get().static_len());
    dynamic_features::extract_into(obs, &mut v);
    debug_assert_eq!(v.len(), FeatureSchema::get().len());
    debug_assert!(v.iter().all(|x| x.is_finite()), "non-finite feature");
    v
}
