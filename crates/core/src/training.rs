//! Training-set assembly and splitting utilities.

use crate::features::FeatureSchema;
use crate::pipeline_runs::PipelineRecord;
use prosel_estimators::EstimatorKind;
use prosel_mart::Dataset;

/// Which feature prefix the models may see.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureMode {
    /// Plan-time features only.
    Static,
    /// Plan-time plus runtime features (the paper's full setting).
    StaticDynamic,
}

impl FeatureMode {
    /// Number of leading features visible in this mode.
    pub fn dims(&self) -> usize {
        match self {
            FeatureMode::Static => FeatureSchema::get().static_len(),
            FeatureMode::StaticDynamic => FeatureSchema::get().len(),
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            FeatureMode::Static => "static",
            FeatureMode::StaticDynamic => "dynamic",
        }
    }
}

/// A set of labelled pipeline examples.
#[derive(Debug, Clone, Default)]
pub struct TrainingSet {
    pub records: Vec<PipelineRecord>,
}

impl TrainingSet {
    pub fn from_records(records: &[PipelineRecord]) -> Self {
        TrainingSet { records: records.to_vec() }
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The regression dataset for one estimator's error model: features
    /// (restricted by `mode`) → observed L1 error of `kind`.
    pub fn dataset_for(&self, kind: EstimatorKind, mode: FeatureMode) -> Dataset {
        let dims = mode.dims();
        let mut d = Dataset::new(dims);
        for (r, target) in self.records.iter().zip(self.targets_for(kind)) {
            d.push(&r.features[..dims], target);
        }
        d
    }

    /// The targets of [`Self::dataset_for`] alone: the observed L1 error
    /// of `kind` per record. The feature matrix is the same for every
    /// estimator, so the selector builds it once and swaps these in.
    pub fn targets_for(&self, kind: EstimatorKind) -> Vec<f32> {
        let idx = kind.candidate_index().expect("selectable estimator");
        self.records.iter().map(|r| r.errors_l1[idx]).collect()
    }

    /// Split by predicate into (matching, rest).
    pub fn split_by(&self, pred: impl Fn(&PipelineRecord) -> bool) -> (TrainingSet, TrainingSet) {
        let (a, b): (Vec<_>, Vec<_>) = self.records.iter().cloned().partition(|r| pred(r));
        (TrainingSet { records: a }, TrainingSet { records: b })
    }

    /// Mean L1 error of always using one estimator.
    pub fn mean_l1(&self, kind: EstimatorKind) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let idx = kind.candidate_index().expect("candidate");
        self.records.iter().map(|r| r.errors_l1[idx] as f64).sum::<f64>()
            / self.records.len() as f64
    }

    /// Mean L2 error of always using one estimator.
    pub fn mean_l2(&self, kind: EstimatorKind) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let idx = kind.candidate_index().expect("candidate");
        self.records.iter().map(|r| r.errors_l2[idx] as f64).sum::<f64>()
            / self.records.len() as f64
    }

    /// Mean of the per-record minimum error over `kinds` (the "oracle
    /// selection" lower bound of paper §6.2).
    pub fn oracle_l1(&self, kinds: &[EstimatorKind]) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let idxs: Vec<usize> =
            kinds.iter().map(|k| k.candidate_index().expect("candidate")).collect();
        self.records
            .iter()
            .map(|r| idxs.iter().map(|&i| r.errors_l1[i] as f64).fold(f64::INFINITY, f64::min))
            .sum::<f64>()
            / self.records.len() as f64
    }

    /// Fraction of records for which `kind` is optimal among `kinds`
    /// (within `tol` of the minimum).
    pub fn pct_optimal(&self, kind: EstimatorKind, kinds: &[EstimatorKind], tol: f32) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let idx = kind.candidate_index().expect("candidate");
        let idxs: Vec<usize> =
            kinds.iter().map(|k| k.candidate_index().expect("candidate")).collect();
        let hits = self
            .records
            .iter()
            .filter(|r| {
                let min = idxs.iter().map(|&i| r.errors_l1[i]).fold(f32::INFINITY, f32::min);
                r.errors_l1[idx] <= min + tol
            })
            .count();
        hits as f64 / self.records.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, errors: &[f32]) -> PipelineRecord {
        let dims = FeatureSchema::get().len();
        PipelineRecord {
            workload: workload.into(),
            query_idx: 0,
            pipeline_id: 0,
            features: vec![0.5; dims],
            errors_l1: errors.to_vec(),
            errors_l2: errors.to_vec(),
            total_getnext: 100,
            weight: 1.0,
            n_obs: 10,
            fingerprint: "scan|t".into(),
            oracle_l1: [0.0; 2],
            oracle_l2: [0.0; 2],
        }
    }

    #[test]
    fn dataset_shapes_follow_mode() {
        let r = record("a", &[0.1; 8]);
        let ts = TrainingSet::from_records(&[r]);
        let d_static = ts.dataset_for(EstimatorKind::Dne, FeatureMode::Static);
        let d_full = ts.dataset_for(EstimatorKind::Dne, FeatureMode::StaticDynamic);
        assert_eq!(d_static.n_features(), FeatureSchema::get().static_len());
        assert_eq!(d_full.n_features(), FeatureSchema::get().len());
        assert_eq!(d_static.len(), 1);
    }

    #[test]
    fn metrics_and_splits() {
        let mut e1 = vec![0.5; 8];
        e1[0] = 0.1; // DNE best
        let mut e2 = vec![0.5; 8];
        e2[1] = 0.2; // TGN best
        let ts = TrainingSet::from_records(&[record("a", &e1), record("b", &e2)]);
        assert!((ts.mean_l1(EstimatorKind::Dne) - 0.3).abs() < 1e-6);
        assert!((ts.oracle_l1(&EstimatorKind::CANDIDATES) - 0.15).abs() < 1e-6);
        assert!(
            (ts.pct_optimal(EstimatorKind::Dne, &EstimatorKind::CANDIDATES, 1e-6) - 0.5).abs()
                < 1e-9
        );
        let (a, b) = ts.split_by(|r| r.workload == "a");
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
    }
}
