//! What admission derives from a plan alone, compiled once per shard.
//!
//! Everything a registration computes before the first event — the
//! pipeline decomposition, the eq. (5) weights and their total, each
//! pipeline's static-feature prefix (§4.3: a function of the plan and the
//! optimizer estimates) and initial estimator choice, and the compiled
//! bound pass with its pipeline-reader masks — depends only on the plan
//! and the shard's current policy. A [`CompiledPlan`] holds it once, and
//! every query registered against the same `Arc<PhysicalPlan>` shares it;
//! what a registration still builds per query is only live state
//! (observation state, counter decoder, bound scratch, ETA tracker, cell).
//!
//! [`PlanCache`] keys the records by the plan `Arc`'s address. Serving
//! traffic recurs over plan templates, and a caller that holds one `Arc`
//! per template (all four benchmark workloads register from 24) compiles
//! each once; a caller passing `&PhysicalPlan` gets a fresh `Arc` per
//! call and compiles every time, at the cost of a per-query derivation
//! plus one map insert.

use super::Policy;
use prosel_core::features::schema::STATIC_LEN;
use prosel_core::features::static_features;
use prosel_core::selection::EstimatorSelector;
use prosel_engine::plan::PhysicalPlan;
use prosel_engine::{decompose, pipeline_weight, Pipeline};
use prosel_estimators::soa::BoundsKernel;
use prosel_estimators::EstimatorKind;
use std::collections::HashMap;
use std::sync::{Arc, Weak};

/// The admission record of one plan under one policy. Every value is the
/// one a per-query derivation computes, so sharing it changes no read,
/// switch or harvest.
pub(super) struct CompiledPlan {
    pub(super) pipelines: Vec<Pipeline>,
    /// Eq. (5) weight per pipeline …
    pub(super) weights: Vec<f64>,
    /// … and the sum of the positive ones.
    pub(super) total_weight: f64,
    /// The selector the record was scored with — what every query
    /// admitted from it captures for its re-selections (`None` under a
    /// fixed policy).
    pub(super) selector: Option<Arc<EstimatorSelector>>,
    /// The pipelines' static-feature prefixes, [`STATIC_LEN`] each, back
    /// to back (empty under a fixed policy; see [`Self::statics`]).
    statics: Vec<f32>,
    /// Per pipeline, the estimator chosen before any execution feedback.
    pub(super) initial: Vec<EstimatorKind>,
    /// The plan's bound pass ([`BoundsKernel::new`]) …
    pub(super) kernel: BoundsKernel,
    /// … and its per-node pipeline masks
    /// ([`BoundsKernel::pipeline_readers`]).
    pub(super) readers: Vec<u64>,
}

impl CompiledPlan {
    /// The one admission compile path.
    fn compile(plan: &PhysicalPlan, policy: &Policy) -> CompiledPlan {
        let pipelines: Vec<Pipeline> = decompose(plan);
        let weights: Vec<f64> = pipelines.iter().map(|p| pipeline_weight(plan, p)).collect();
        let total_weight: f64 = weights.iter().filter(|&&w| w > 0.0).sum();
        let (selector, statics, initial) = match policy {
            Policy::Fixed(kind) => (None, Vec::new(), vec![*kind; pipelines.len()]),
            Policy::Selector(sel) => {
                let mut statics = Vec::with_capacity(pipelines.len() * STATIC_LEN);
                for pid in 0..pipelines.len() {
                    let feats = static_features::extract_parts(plan, &pipelines, pid);
                    assert_eq!(feats.len(), STATIC_LEN, "a static prefix per pipeline");
                    statics.extend_from_slice(&feats);
                }
                // Static selection scores the prefix followed by zeros.
                let initial = statics
                    .chunks_exact(STATIC_LEN)
                    .map(|feats| sel.select_static(feats))
                    .collect();
                (Some(Arc::clone(sel)), statics, initial)
            }
        };
        let kernel = BoundsKernel::new(plan);
        let readers = kernel.pipeline_readers(&pipelines);
        CompiledPlan {
            pipelines,
            weights,
            total_weight,
            selector,
            statics,
            initial,
            kernel,
            readers,
        }
    }

    /// Pipeline `pid`'s static-feature prefix (selector policy only).
    pub(super) fn statics(&self, pid: usize) -> &[f32] {
        &self.statics[pid * STATIC_LEN..(pid + 1) * STATIC_LEN]
    }

    /// Every field but the selector, as text: `{:?}` prints each float in
    /// its shortest round-trip form, and the weights and features are
    /// spelled as bits, so equal text is an equal record.
    fn digest(&self) -> String {
        let weights: Vec<u64> = self.weights.iter().map(|w| w.to_bits()).collect();
        let statics: Vec<u32> = self.statics.iter().map(|x| x.to_bits()).collect();
        format!(
            "{:?}\n{weights:?} {}\n{statics:?}\n{:?}\n{:?}\n{:?}",
            self.pipelines,
            self.total_weight.to_bits(),
            self.initial,
            self.kernel,
            self.readers
        )
    }

    /// Is this the record [`Self::compile`] makes of `plan` under
    /// `policy`, bit for bit?
    fn matches(&self, plan: &PhysicalPlan, policy: &Policy) -> bool {
        let fresh = CompiledPlan::compile(plan, policy);
        let same_selector = match (&self.selector, &fresh.selector) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (a, b) => a.is_none() && b.is_none(),
        };
        same_selector && self.digest() == fresh.digest()
    }
}

/// Dead entries are pruned once the map reaches this size at the least.
const PRUNE_FLOOR: usize = 32;

/// A shard's compiled plans, keyed by the address of the registering
/// `Arc<PhysicalPlan>`. An entry keeps a [`Weak`] to its plan: while it
/// exists the allocation cannot be reused, so an address names one plan
/// for the entry's lifetime, and a hit must still upgrade it and be
/// [`Arc::ptr_eq`] to the caller's plan. Dead entries (every query and
/// caller dropped the plan) are pruned whenever the map has doubled since
/// the last pruning, so it stays within twice the plans alive at that
/// pruning (or [`PRUNE_FLOOR`]) with no setting.
#[derive(Default)]
pub(super) struct PlanCache {
    entries: HashMap<usize, (Weak<PhysicalPlan>, Arc<CompiledPlan>)>,
    prune_at: usize,
}

impl PlanCache {
    /// The record of `plan` under `policy`: shared on a hit, compiled and
    /// inserted on a miss. Builds with debug assertions recompile on
    /// every hit and assert the shared record is bit-equal.
    pub(super) fn get_or_compile(
        &mut self,
        plan: &Arc<PhysicalPlan>,
        policy: &Policy,
    ) -> Arc<CompiledPlan> {
        let key = Arc::as_ptr(plan) as usize;
        if let Some((weak, compiled)) = self.entries.get(&key) {
            if weak.upgrade().is_some_and(|live| Arc::ptr_eq(&live, plan)) {
                debug_assert!(
                    compiled.matches(plan, policy),
                    "a shared admission record differs from a fresh compile"
                );
                return Arc::clone(compiled);
            }
        }
        if self.entries.len() >= self.prune_at {
            self.entries.retain(|_, (weak, _)| weak.strong_count() > 0);
            self.prune_at = (2 * self.entries.len()).max(PRUNE_FLOOR);
        }
        let compiled = Arc::new(CompiledPlan::compile(plan, policy));
        self.entries.insert(key, (Arc::downgrade(plan), Arc::clone(&compiled)));
        compiled
    }

    /// Forget every record: they were scored under the previous policy.
    pub(super) fn clear(&mut self) {
        self.entries.clear();
        self.prune_at = 0;
    }

    #[cfg(test)]
    pub(super) fn len(&self) -> usize {
        self.entries.len()
    }
}
