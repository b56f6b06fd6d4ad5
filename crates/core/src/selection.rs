//! The estimator-selection module (paper §4.1–4.2).
//!
//! Not classification: for each candidate estimator a MART *regression*
//! model predicts the estimation error that estimator would incur on a
//! pipeline; selection picks the candidate with the smallest predicted
//! error. Modelling error magnitudes (rather than a class label) lets
//! selection avoid the catastrophic choices — being "wrong" between two
//! near-identical estimators costs nothing, picking an estimator that is
//! 10× off costs a lot.

use crate::features::schema::STATIC_LEN;
use crate::training::{FeatureMode, TrainingSet};
use prosel_estimators::EstimatorKind;
use prosel_mart::{BinnedDataset, BoostParams, Dataset, Forest, Mart};

/// Selector configuration.
#[derive(Debug, Clone)]
pub struct SelectorConfig {
    /// Candidate estimators (default: the paper's six-estimator set).
    pub candidates: Vec<EstimatorKind>,
    /// Feature visibility.
    pub mode: FeatureMode,
    /// MART hyper-parameters (paper defaults: M=200, 30 leaves).
    pub boost: BoostParams,
}

impl Default for SelectorConfig {
    fn default() -> Self {
        SelectorConfig {
            candidates: EstimatorKind::EXTENDED.to_vec(),
            mode: FeatureMode::StaticDynamic,
            boost: BoostParams::default(),
        }
    }
}

impl SelectorConfig {
    pub fn with_mode(mut self, mode: FeatureMode) -> Self {
        self.mode = mode;
        self
    }

    pub fn with_boost(mut self, boost: BoostParams) -> Self {
        self.boost = boost;
        self
    }
}

/// A trained estimator selector: one error-regression model per candidate.
pub struct EstimatorSelector {
    config: SelectorConfig,
    models: Vec<(EstimatorKind, Mart)>,
    /// In [`FeatureMode::StaticDynamic`], each model as seen by a vector
    /// whose dynamic suffix is zero — what static selection scores. The
    /// models split mostly on dynamic features, so these are a small
    /// fraction of the full forests. Empty in [`FeatureMode::Static`].
    static_forests: Vec<Forest>,
}

impl EstimatorSelector {
    fn new(config: SelectorConfig, models: Vec<(EstimatorKind, Mart)>) -> EstimatorSelector {
        let static_forests = match config.mode {
            FeatureMode::Static => Vec::new(),
            FeatureMode::StaticDynamic => {
                models.iter().map(|(_, m)| m.pinned_forest(STATIC_LEN, 0.0)).collect()
            }
        };
        EstimatorSelector { config, models, static_forests }
    }

    /// The candidate with the smallest of `errors` (one per candidate, in
    /// order), under the tie rule documented on [`Self::select`].
    fn least(&self, errors: impl Iterator<Item = f32>) -> EstimatorKind {
        let mut best: Option<(usize, f32)> = None;
        for (candidate, error) in errors.enumerate() {
            if best.is_none_or(|(_, least)| least > error) {
                best = Some((candidate, error));
            }
        }
        self.models[best.expect("at least one candidate").0].0
    }

    /// Train the per-estimator error models.
    pub fn train(train: &TrainingSet, config: &SelectorConfig) -> EstimatorSelector {
        assert!(!train.is_empty(), "cannot train a selector on zero pipelines");
        let models = fit_models(train, config.mode, &config.candidates, |_, kind, data, binned| {
            let params =
                BoostParams { seed: model_seed(config.boost.seed, kind), ..config.boost.clone() };
            Mart::train_binned(data, binned, &params)
        });
        EstimatorSelector::new(config.clone(), models)
    }

    /// Warm-start retraining — the online-feedback path. Continues
    /// boosting each candidate's error model on `train` (up to `extra`
    /// additional trees fit to the existing ensemble's residuals via
    /// [`Mart::warm_start`]) instead of refitting from scratch, so a
    /// feedback round costs `extra` trees per model rather than a full
    /// `M`-iteration rebuild, and the knowledge already distilled into the
    /// base ensemble is kept. `seed` varies the subsample stream per
    /// feedback round; per-model seeds are derived from it the same way
    /// [`EstimatorSelector::train`] derives them from the config seed.
    pub fn retrain_from(
        base: &EstimatorSelector,
        train: &TrainingSet,
        extra: usize,
        seed: u64,
    ) -> EstimatorSelector {
        assert!(!train.is_empty(), "cannot retrain a selector on zero pipelines");
        let config = base.config.clone();
        let kinds: Vec<EstimatorKind> = base.models.iter().map(|(kind, _)| *kind).collect();
        let models = fit_models(train, config.mode, &kinds, |i, kind, data, binned| {
            let params = BoostParams { seed: model_seed(seed, kind), ..config.boost.clone() };
            Mart::warm_start_binned(&base.models[i].1, data, binned, &params, extra)
        });
        EstimatorSelector::new(config, models)
    }

    pub fn config(&self) -> &SelectorConfig {
        &self.config
    }

    /// Re-seat the retraining boost parameters. [`Self::from_text`]
    /// returns defaults (the text codec ships models, not training
    /// recipes); a checkpoint restore that recorded the real parameters
    /// re-attaches them here so post-restore retrains replay exactly.
    pub fn set_boost(&mut self, boost: BoostParams) {
        self.config.boost = boost;
    }

    /// Predicted error per candidate for one feature vector, written to
    /// `out` in candidate order (`out.len()` must equal the number of
    /// candidates). Allocation-free.
    pub fn predict_into(&self, features: &[f32], out: &mut [f32]) {
        let dims = self.config.mode.dims();
        assert!(features.len() >= dims, "feature vector too short");
        assert_eq!(out.len(), self.models.len(), "one output per candidate");
        for ((_, model), out) in self.models.iter().zip(out) {
            *out = model.predict(&features[..dims]);
        }
    }

    /// Predicted error per candidate for one feature vector.
    pub fn predicted_errors(&self, features: &[f32]) -> Vec<(EstimatorKind, f32)> {
        let mut errors = vec![0.0f32; self.models.len()];
        self.predict_into(features, &mut errors);
        self.models.iter().map(|(k, _)| *k).zip(errors).collect()
    }

    /// Choose the estimator with the smallest predicted error. Among
    /// equal minima the first candidate wins, and a NaN prediction
    /// compares equal to everything: it neither displaces an earlier
    /// candidate nor is displaced by a later one.
    pub fn select(&self, features: &[f32]) -> EstimatorKind {
        let dims = self.config.mode.dims();
        assert!(features.len() >= dims, "feature vector too short");
        self.least(self.models.iter().map(|(_, m)| m.predict(&features[..dims])))
    }

    /// Choose from *static features only* — the information available at
    /// pipeline registration, before any execution feedback exists.
    /// `features` may be the static prefix alone or a full vector; any
    /// dynamic suffix is taken as zero (the convention the monitor and the
    /// Figure 3 replay both use for the pre-20%-marker phase). Same answer
    /// as [`Self::select`] on the prefix followed by zeros, from the
    /// forests compiled for exactly that case.
    pub fn select_static(&self, features: &[f32]) -> EstimatorKind {
        assert!(features.len() >= STATIC_LEN, "need at least the static feature prefix");
        match self.config.mode {
            FeatureMode::Static => self.select(&features[..STATIC_LEN]),
            FeatureMode::StaticDynamic => {
                self.least(self.static_forests.iter().map(|f| f.predict(&features[..STATIC_LEN])))
            }
        }
    }

    /// The model trained for a given candidate (for inspection).
    pub fn model(&self, kind: EstimatorKind) -> Option<&Mart> {
        self.models.iter().find(|(k, _)| *k == kind).map(|(_, m)| m)
    }

    /// Serialize the trained selector to a plain-text blob (candidates,
    /// feature mode, and one MART model per candidate). The paper's
    /// deployment story depends on models being cheap to ship and retrain.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("prosel-selector v1\n");
        out.push_str(&format!(
            "mode {}\ncandidates {}\n",
            self.config.mode.name(),
            self.config.candidates.iter().map(|k| k.name()).collect::<Vec<_>>().join(",")
        ));
        for (kind, model) in &self.models {
            out.push_str(&format!("model {}\n", kind.name()));
            out.push_str(&prosel_mart::model_io::to_string(model));
            out.push_str("endmodel\n");
        }
        out
    }

    /// Parse a selector from [`EstimatorSelector::to_text`] output.
    /// The boost parameters of the returned config are defaults (they only
    /// matter for retraining).
    pub fn from_text(s: &str) -> Result<EstimatorSelector, String> {
        let mut lines = s.lines().peekable();
        if lines.next().map(str::trim) != Some("prosel-selector v1") {
            return Err("bad selector header".into());
        }
        let mode_line = lines.next().ok_or("missing mode line")?;
        let mode = match mode_line.strip_prefix("mode ").map(str::trim) {
            Some("static") => FeatureMode::Static,
            Some("dynamic") => FeatureMode::StaticDynamic,
            other => return Err(format!("bad mode line: {other:?}")),
        };
        let cand_line = lines.next().ok_or("missing candidates line")?;
        let names = cand_line.strip_prefix("candidates ").ok_or("bad candidates line")?;
        let kind_by_name = |n: &str| -> Result<EstimatorKind, String> {
            EstimatorKind::CANDIDATES
                .into_iter()
                .find(|k| k.name() == n)
                .ok_or_else(|| format!("unknown estimator {n}"))
        };
        let candidates: Vec<EstimatorKind> =
            names.split(',').map(kind_by_name).collect::<Result<_, _>>()?;
        for (i, k) in candidates.iter().enumerate() {
            if candidates[..i].contains(k) {
                return Err(format!("duplicate candidate {k}"));
            }
        }

        // Strict section parsing: the trainer persists and reloads
        // selectors, so a torn, concatenated or duplicated blob must fail
        // loudly instead of silently yielding a model that scores with
        // whichever section happened to parse first.
        let mut models: Vec<(EstimatorKind, prosel_mart::Mart)> = Vec::new();
        while let Some(line) = lines.next() {
            let Some(name) = line.strip_prefix("model ") else {
                if line.trim().is_empty() {
                    continue;
                }
                return Err(format!("unexpected line: {line}"));
            };
            let kind = kind_by_name(name.trim())?;
            if !candidates.contains(&kind) {
                return Err(format!("model {kind} is not in the candidates list"));
            }
            if models.iter().any(|(k, _)| *k == kind) {
                return Err(format!("duplicate model section for {kind}"));
            }
            let mut blob = String::new();
            let mut terminated = false;
            for l in lines.by_ref() {
                if l.trim() == "endmodel" {
                    terminated = true;
                    break;
                }
                blob.push_str(l);
                blob.push('\n');
            }
            if !terminated {
                return Err(format!("model {kind} is missing its endmodel terminator"));
            }
            let model = prosel_mart::model_io::from_str(&blob)?;
            if model.n_features() > mode.dims() {
                // Scoring slices the feature vector to `mode.dims()`; a
                // split past that would index out of bounds mid-ingest.
                return Err(format!(
                    "model {kind} is over {} features, mode {} has {}",
                    model.n_features(),
                    mode.name(),
                    mode.dims()
                ));
            }
            models.push((kind, model));
        }
        if models.len() != candidates.len() {
            return Err(format!("expected {} models, found {}", candidates.len(), models.len()));
        }
        Ok(EstimatorSelector::new(
            SelectorConfig { candidates, mode, boost: BoostParams::default() },
            models,
        ))
    }

    /// Evaluate on a held-out set.
    pub fn evaluate(&self, test: &TrainingSet) -> SelectionReport {
        let kinds = &self.config.candidates;
        let idxs: Vec<usize> =
            kinds.iter().map(|k| k.candidate_index().expect("candidate")).collect();
        let mut chosen_l1 = 0.0f64;
        let mut chosen_l2 = 0.0f64;
        let mut optimal = 0usize;
        let mut ratios = Vec::with_capacity(test.len());
        for r in &test.records {
            let kind = self.select(&r.features);
            let ci = kind.candidate_index().expect("candidate");
            let e = r.errors_l1[ci] as f64;
            chosen_l1 += e;
            chosen_l2 += r.errors_l2[ci] as f64;
            let min = idxs.iter().map(|&i| r.errors_l1[i]).fold(f32::INFINITY, f32::min) as f64;
            if e <= min + 1e-4 {
                optimal += 1;
            }
            ratios.push(if min > 1e-9 { e / min } else { 1.0 });
        }
        let n = test.len().max(1) as f64;
        SelectionReport {
            n: test.len(),
            chosen_l1: chosen_l1 / n,
            chosen_l2: chosen_l2 / n,
            pct_optimal: optimal as f64 / n,
            ratio_over_2x: ratios.iter().filter(|&&r| r > 2.0).count() as f64 / n,
            ratio_over_5x: ratios.iter().filter(|&&r| r > 5.0).count() as f64 / n,
            ratio_over_10x: ratios.iter().filter(|&&r| r > 10.0).count() as f64 / n,
            oracle_l1: test.oracle_l1(kinds),
        }
    }
}

/// A per-model boosting seed, so the candidates' subsample streams differ
/// deterministically.
fn model_seed(seed: u64, kind: EstimatorKind) -> u64 {
    seed ^ (kind.candidate_index().unwrap_or(0) as u64 + 1)
}

/// One error model per entry of `kinds`, in order. Every candidate's
/// model regresses over the same feature matrix, so it is assembled and
/// binned once; each candidate swaps its own targets in before `fit`
/// (given the candidate's position and kind) trains on it.
fn fit_models(
    train: &TrainingSet,
    mode: FeatureMode,
    kinds: &[EstimatorKind],
    fit: impl Fn(usize, EstimatorKind, &Dataset, &BinnedDataset) -> Mart,
) -> Vec<(EstimatorKind, Mart)> {
    let Some(&first) = kinds.first() else {
        return Vec::new();
    };
    let mut data = train.dataset_for(first, mode);
    let binned = BinnedDataset::build(&data);
    kinds
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            data.set_targets(&train.targets_for(kind));
            (kind, fit(i, kind, &data, &binned))
        })
        .collect()
}

/// Held-out evaluation summary.
#[derive(Debug, Clone)]
pub struct SelectionReport {
    pub n: usize,
    /// Mean L1 error of the *chosen* estimator per pipeline.
    pub chosen_l1: f64,
    pub chosen_l2: f64,
    /// Fraction of pipelines where the chosen estimator is optimal.
    pub pct_optimal: f64,
    /// Fractions of pipelines whose chosen-vs-minimum error ratio exceeds
    /// 2×/5×/10× (paper Table 6).
    pub ratio_over_2x: f64,
    pub ratio_over_5x: f64,
    pub ratio_over_10x: f64,
    /// Mean of the per-pipeline minimum error (oracle selection).
    pub oracle_l1: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureSchema;
    use crate::pipeline_runs::PipelineRecord;

    /// Synthetic records where feature 0 perfectly determines which of
    /// DNE/TGN is better; everything else is terrible.
    fn synthetic_records(n: usize) -> Vec<PipelineRecord> {
        let dims = FeatureSchema::get().len();
        (0..n)
            .map(|i| {
                let x = (i % 2) as f32; // 0 => DNE good, 1 => TGN good
                let mut features = vec![0.0f32; dims];
                features[0] = x;
                features[1] = (i % 7) as f32; // noise
                let mut errors = vec![0.9f32; 8];
                errors[0] = if x == 0.0 { 0.01 } else { 0.5 };
                errors[1] = if x == 0.0 { 0.5 } else { 0.01 };
                PipelineRecord {
                    workload: "syn".into(),
                    query_idx: i,
                    pipeline_id: 0,
                    features,
                    errors_l1: errors.clone(),
                    errors_l2: errors,
                    total_getnext: 10,
                    weight: 1.0,
                    n_obs: 10,
                    fingerprint: "syn".into(),
                    oracle_l1: [0.0; 2],
                    oracle_l2: [0.0; 2],
                }
            })
            .collect()
    }

    #[test]
    fn selector_learns_separable_rule() {
        let records = synthetic_records(400);
        let train = TrainingSet::from_records(&records[..300]);
        let test = TrainingSet::from_records(&records[300..]);
        let cfg = SelectorConfig {
            candidates: vec![EstimatorKind::Dne, EstimatorKind::Tgn],
            mode: FeatureMode::StaticDynamic,
            boost: BoostParams::fast(),
        };
        let sel = EstimatorSelector::train(&train, &cfg);
        let report = sel.evaluate(&test);
        assert!(report.pct_optimal > 0.95, "pct_optimal {}", report.pct_optimal);
        assert!(report.chosen_l1 < 0.05, "chosen_l1 {}", report.chosen_l1);
        assert!((report.oracle_l1 - 0.01).abs() < 1e-3);
    }

    #[test]
    fn static_mode_restricts_features() {
        let records = synthetic_records(100);
        let train = TrainingSet::from_records(&records);
        let cfg = SelectorConfig {
            candidates: vec![EstimatorKind::Dne, EstimatorKind::Tgn],
            mode: FeatureMode::Static,
            boost: BoostParams::fast(),
        };
        let sel = EstimatorSelector::train(&train, &cfg);
        // Feature 0 is static, so static mode can still learn the rule.
        let k0 = sel.select(&records[0].features);
        let k1 = sel.select(&records[1].features);
        assert_eq!(k0, EstimatorKind::Dne);
        assert_eq!(k1, EstimatorKind::Tgn);
    }

    #[test]
    fn selector_text_round_trip() {
        let records = synthetic_records(120);
        let ts = TrainingSet::from_records(&records);
        let cfg = SelectorConfig {
            candidates: vec![EstimatorKind::Dne, EstimatorKind::Tgn],
            mode: FeatureMode::StaticDynamic,
            boost: BoostParams::fast(),
        };
        let sel = EstimatorSelector::train(&ts, &cfg);
        let text = sel.to_text();
        let back = EstimatorSelector::from_text(&text).expect("parse");
        for r in records.iter().take(20) {
            assert_eq!(sel.select(&r.features), back.select(&r.features));
        }
        assert!(EstimatorSelector::from_text("junk").is_err());
    }

    /// A selector of tree-less models: candidate `i` predicts `errors[i]`
    /// for every input.
    fn constant_selector(errors: &[(&str, f32)]) -> EstimatorSelector {
        let dims = FeatureSchema::get().len();
        let names: Vec<&str> = errors.iter().map(|(n, _)| *n).collect();
        let mut text =
            format!("prosel-selector v1\nmode dynamic\ncandidates {}\n", names.join(","));
        for (name, error) in errors {
            text.push_str(&format!(
                "model {name}\nmart v1\nbase {error} shrinkage 0.1 trees 0 features {dims}\nendmodel\n"
            ));
        }
        EstimatorSelector::from_text(&text).expect("parse")
    }

    #[test]
    fn first_minimal_candidate_wins_and_nan_compares_equal() {
        let row = vec![0.0f32; FeatureSchema::get().len()];
        let pick = |errors: &[(&str, f32)]| constant_selector(errors).select(&row);
        assert_eq!(pick(&[("DNE", 0.5), ("TGN", 0.25), ("LUO", 0.25)]), EstimatorKind::Tgn);
        assert_eq!(pick(&[("DNE", 0.25), ("TGN", 0.25), ("LUO", 0.5)]), EstimatorKind::Dne);
        // A NaN in front is never displaced; a NaN behind never displaces.
        assert_eq!(pick(&[("DNE", f32::NAN), ("TGN", 0.1), ("LUO", 0.05)]), EstimatorKind::Dne);
        assert_eq!(pick(&[("DNE", 0.3), ("TGN", f32::NAN), ("LUO", 0.2)]), EstimatorKind::Luo);
        assert_eq!(pick(&[("DNE", 0.3), ("TGN", f32::NAN), ("LUO", 0.3)]), EstimatorKind::Dne);
        // The static entry point shares the rule, and `predicted_errors`
        // reports the same numbers in candidate order.
        let sel = constant_selector(&[("DNE", 0.5), ("TGN", 0.25), ("LUO", 0.25)]);
        assert_eq!(sel.select_static(&row), EstimatorKind::Tgn);
        assert_eq!(
            sel.predicted_errors(&row),
            vec![(EstimatorKind::Dne, 0.5), (EstimatorKind::Tgn, 0.25), (EstimatorKind::Luo, 0.25)]
        );
    }

    #[test]
    fn static_selection_equals_selection_on_a_zeroed_dynamic_suffix() {
        use crate::pipeline_runs::collect_workload_records;
        use prosel_planner::workload::{WorkloadKind, WorkloadSpec};
        let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 8).with_queries(24).with_scale(0.4);
        let records = collect_workload_records(&spec).expect("records");
        let cfg = SelectorConfig::default()
            .with_boost(BoostParams { iterations: 70, ..BoostParams::default() });
        let sel = EstimatorSelector::train(&TrainingSet::from_records(&records), &cfg);
        let splits_on_dynamic = sel.models.iter().any(|(_, m)| {
            m.trees()
                .iter()
                .flat_map(|t| &t.nodes)
                .any(|n| !n.is_leaf() && n.feature as usize >= STATIC_LEN)
        });
        assert!(splits_on_dynamic, "the models must split on dynamic features for this to bite");
        for r in &records {
            let mut zeroed = r.features.clone();
            zeroed[STATIC_LEN..].fill(0.0);
            for ((_, model), pinned) in sel.models.iter().zip(&sel.static_forests) {
                assert_eq!(
                    pinned.predict(&r.features[..STATIC_LEN]).to_bits(),
                    model.predict(&zeroed).to_bits()
                );
            }
            assert_eq!(sel.select_static(&r.features), sel.select(&zeroed));
            assert_eq!(sel.select_static(&r.features[..STATIC_LEN]), sel.select(&zeroed));
        }
        // A static-mode selector has nothing to pin.
        let static_sel = EstimatorSelector::train(
            &TrainingSet::from_records(&records),
            &cfg.clone().with_mode(FeatureMode::Static),
        );
        assert!(static_sel.static_forests.is_empty());
        for r in records.iter().take(20) {
            assert_eq!(static_sel.select_static(&r.features), static_sel.select(&r.features));
        }
    }

    #[test]
    fn from_text_rejects_malformed_blobs() {
        let records = synthetic_records(80);
        let ts = TrainingSet::from_records(&records);
        let cfg = SelectorConfig {
            candidates: vec![EstimatorKind::Dne, EstimatorKind::Tgn],
            mode: FeatureMode::StaticDynamic,
            boost: BoostParams::fast(),
        };
        let sel = EstimatorSelector::train(&ts, &cfg);
        let text = sel.to_text();

        // Trailing garbage after the last model must not parse.
        assert!(EstimatorSelector::from_text(&format!("{text}stray line\n")).is_err());
        // Two selectors concatenated must not parse as the first one.
        assert!(EstimatorSelector::from_text(&format!("{text}{text}")).is_err());
        // A duplicated model section must be rejected, not shadowed.
        let first_model = {
            let start = text.find("model ").unwrap();
            let end = text[start..].find("endmodel\n").unwrap() + start + "endmodel\n".len();
            text[start..end].to_string()
        };
        assert!(EstimatorSelector::from_text(&format!("{text}{first_model}")).is_err());
        // A model for an estimator outside the candidates list is refused.
        let alien = first_model.replacen("model DNE", "model LUO", 1);
        let swapped = text.replacen(&first_model, &alien, 1);
        assert!(EstimatorSelector::from_text(&swapped).is_err());
        // Truncation (missing endmodel) is refused.
        let truncated = text.rfind("endmodel").map(|i| &text[..i]).unwrap();
        assert!(EstimatorSelector::from_text(truncated).is_err());
        // Duplicate candidates are refused.
        let dup = text.replacen("candidates DNE,TGN", "candidates DNE,DNE", 1);
        assert!(EstimatorSelector::from_text(&dup).is_err());
    }

    #[test]
    fn warm_retrain_improves_on_fresh_evidence_deterministically() {
        // Base selector trained on a slice where feature 0 separates
        // DNE/TGN; feedback re-teaches the same rule with more data.
        let records = synthetic_records(400);
        let base_set = TrainingSet::from_records(&records[..40]);
        let cfg = SelectorConfig {
            candidates: vec![EstimatorKind::Dne, EstimatorKind::Tgn],
            mode: FeatureMode::StaticDynamic,
            boost: BoostParams { iterations: 10, ..BoostParams::fast() },
        };
        let base = EstimatorSelector::train(&base_set, &cfg);
        let feedback = TrainingSet::from_records(&records[40..320]);
        let held = TrainingSet::from_records(&records[320..]);
        let a = EstimatorSelector::retrain_from(&base, &feedback, 40, 0xFEED);
        let b = EstimatorSelector::retrain_from(&base, &feedback, 40, 0xFEED);
        for r in held.records.iter().take(20) {
            assert_eq!(a.select(&r.features), b.select(&r.features), "determinism");
        }
        assert!(
            a.evaluate(&held).chosen_l1 <= base.evaluate(&held).chosen_l1,
            "warm retrain must not be worse on held-out data here"
        );
    }

    #[test]
    fn report_ratios_consistent() {
        let records = synthetic_records(100);
        let ts = TrainingSet::from_records(&records);
        let cfg = SelectorConfig {
            candidates: vec![EstimatorKind::Dne, EstimatorKind::Tgn],
            mode: FeatureMode::StaticDynamic,
            boost: BoostParams::fast(),
        };
        let sel = EstimatorSelector::train(&ts, &cfg);
        let report = sel.evaluate(&ts);
        assert!(report.ratio_over_10x <= report.ratio_over_5x);
        assert!(report.ratio_over_5x <= report.ratio_over_2x);
        assert_eq!(report.n, 100);
    }
}
