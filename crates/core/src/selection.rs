//! The estimator-selection module (paper §4.1–4.2).
//!
//! Not classification: for each candidate estimator a MART *regression*
//! model predicts the estimation error that estimator would incur on a
//! pipeline; selection picks the candidate with the smallest predicted
//! error. Modelling error magnitudes (rather than a class label) lets
//! selection avoid the catastrophic choices — being "wrong" between two
//! near-identical estimators costs nothing, picking an estimator that is
//! 10× off costs a lot.

use crate::features::schema::{DYNAMIC_LEN, STATIC_LEN};
use crate::textio::LineReader;
use crate::training::{FeatureMode, TrainingSet};
use prosel_estimators::EstimatorKind;
use prosel_mart::{BinnedDataset, BoostParams, Dataset, Mart};

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
}

impl EstimatorSelector {
    /// Train the per-estimator error models.
    ///
    /// The candidates' models are fit side by side on
    /// `min(available_parallelism, candidates)` scoped threads (inline
    /// when that is 1). Each model depends only on the shared feature
    /// matrix, its candidate's targets and its own seed, so the selector
    /// is the same, bit for bit, whatever the width.
    pub fn train(train: &TrainingSet, config: &SelectorConfig) -> EstimatorSelector {
        assert!(!train.is_empty(), "cannot train a selector on zero pipelines");
        let models = fit_models(train, config.mode, &config.candidates, |_, kind, _, binned, y| {
            let params =
                BoostParams { seed: model_seed(config.boost.seed, kind), ..config.boost.clone() };
            Mart::train_binned(binned, y, &params)
        });
        EstimatorSelector { config: config.clone(), models }
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
    /// The candidates are retrained side by side under the same width rule
    /// as [`EstimatorSelector::train`], with the same width-independent
    /// result.
    pub fn retrain_from(
        base: &EstimatorSelector,
        train: &TrainingSet,
        extra: usize,
        seed: u64,
    ) -> EstimatorSelector {
        assert!(!train.is_empty(), "cannot retrain a selector on zero pipelines");
        let config = base.config.clone();
        let kinds: Vec<EstimatorKind> = base.models.iter().map(|(kind, _)| *kind).collect();
        let models = fit_models(train, config.mode, &kinds, |i, kind, data, binned, y| {
            let params = BoostParams { seed: model_seed(seed, kind), ..config.boost.clone() };
            Mart::warm_start_binned(&base.models[i].1, data, binned, y, &params, extra)
        });
        EstimatorSelector { config, models }
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
        let mut best: Option<(EstimatorKind, f32)> = None;
        for (kind, model) in &self.models {
            let error = model.predict(&features[..dims]);
            if best.is_none_or(|(_, least)| least > error) {
                best = Some((*kind, error));
            }
        }
        best.expect("at least one candidate").0
    }

    /// Choose from *static features only* — the information available at
    /// pipeline registration, before any execution feedback exists.
    /// `features` may be the static prefix alone or a full vector; any
    /// dynamic suffix is taken as zero (the convention the monitor and the
    /// Figure 3 replay both use for the pre-20%-marker phase): this is
    /// [`Self::select`] on the prefix followed by zeros.
    pub fn select_static(&self, features: &[f32]) -> EstimatorKind {
        assert!(features.len() >= STATIC_LEN, "need at least the static feature prefix");
        let mut row = [0.0f32; STATIC_LEN + DYNAMIC_LEN];
        row[..STATIC_LEN].copy_from_slice(&features[..STATIC_LEN]);
        self.select(&row)
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
        let mut r = LineReader::new(s);
        let selector = EstimatorSelector::read(&mut r)?;
        r.finish()?;
        Ok(selector)
    }

    /// Parse one selector from `r`, as embedded in a frame or checkpoint.
    /// Strict: one model section per candidate, in candidate order, so a
    /// torn, concatenated or duplicated blob fails loudly instead of
    /// scoring with whichever section parsed.
    pub fn read(r: &mut LineReader<'_>) -> Result<EstimatorSelector, String> {
        r.expect("prosel-selector v1")?;
        let mode = match r.shape("mode _")? {
            ["static"] => FeatureMode::Static,
            ["dynamic"] => FeatureMode::StaticDynamic,
            [other] => return Err(format!("line {}: bad mode {other:?}", r.line_no())),
        };
        let [names] = r.shape("candidates _")?;
        let candidates: Vec<EstimatorKind> = names
            .split(',')
            .map(|n| EstimatorKind::CANDIDATES.into_iter().find(|k| k.name() == n).ok_or(n))
            .collect::<Result<_, _>>()
            .map_err(|n| format!("unknown estimator {n}"))?;
        for (i, k) in candidates.iter().enumerate() {
            if candidates[..i].contains(k) {
                return Err(format!("duplicate candidate {k}"));
            }
        }
        let mut models = Vec::with_capacity(candidates.len());
        for &kind in &candidates {
            let [name] = r.shape("model _")?;
            if name != kind.name() {
                return Err(format!(
                    "line {}: expected the model section of {kind}, got `model {name}`",
                    r.line_no()
                ));
            }
            let model = prosel_mart::model_io::read(r)?;
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
            r.expect("endmodel")?;
            models.push((kind, model));
        }
        Ok(EstimatorSelector {
            config: SelectorConfig { candidates, mode, boost: BoostParams::default() },
            models,
        })
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
/// binned once and shared read-only; `fit` gets a candidate's position,
/// kind, the matrix (whose own targets are the first candidate's), its
/// binning and the candidate's targets. The candidates are fit across
/// `min(available_parallelism, candidates)` threads — the rule the
/// monitor's shard runtime sizes its pool by.
fn fit_models(
    train: &TrainingSet,
    mode: FeatureMode,
    kinds: &[EstimatorKind],
    fit: impl Fn(usize, EstimatorKind, &Dataset, &BinnedDataset, &[f32]) -> Mart + Sync,
) -> Vec<(EstimatorKind, Mart)> {
    let Some(&first) = kinds.first() else {
        return Vec::new();
    };
    let data = train.dataset_for(first, mode);
    let binned = BinnedDataset::build(&data);
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let models = fan_out(kinds.len(), cores.min(kinds.len()), |i| {
        fit(i, kinds[i], &data, &binned, &train.targets_for(kinds[i]))
    });
    kinds.iter().copied().zip(models).collect()
}

/// `[f(0), f(1), …, f(n − 1)]`, computed in contiguous shares of
/// `⌈n / width⌉` indices, one share per scoped thread (the calling thread
/// takes the first), and returned in index order, so the result does not
/// depend on `width` as long as `f` does not. A width of 1 (or one item)
/// runs inline. A panic in any share reaches the caller with its own
/// payload, after every other share has finished.
fn fan_out<R: Send>(n: usize, width: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let share = n.div_ceil(width.max(1)).max(1);
    if share >= n {
        return (0..n).map(f).collect();
    }
    let f = &f;
    std::thread::scope(|s| {
        let rest: Vec<_> = (share..n)
            .step_by(share)
            .map(|start| s.spawn(move || (start..n.min(start + share)).map(f).collect::<Vec<R>>()))
            .collect();
        let mut out: Vec<R> = (0..share).map(f).collect();
        for handle in rest {
            out.extend(handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        out
    })
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
            assert_eq!(sel.select_static(&r.features), sel.select(&zeroed));
            assert_eq!(sel.select_static(&r.features[..STATIC_LEN]), sel.select(&zeroed));
        }
        // A static-mode selector reads the prefix alone.
        let static_sel = EstimatorSelector::train(
            &TrainingSet::from_records(&records),
            &cfg.clone().with_mode(FeatureMode::Static),
        );
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
    fn side_by_side_fits_equal_each_candidate_fit_alone() {
        use crate::pipeline_runs::collect_workload_records;
        use prosel_mart::model_io::to_string;
        use prosel_planner::workload::{WorkloadKind, WorkloadSpec};
        let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 8).with_queries(24).with_scale(0.4);
        let records = collect_workload_records(&spec).expect("records");
        let (first, second) = records.split_at(records.len() / 2);
        let (bootstrap, feedback) =
            (TrainingSet::from_records(first), TrainingSet::from_records(second));
        let cfg = SelectorConfig::default()
            .with_boost(BoostParams { iterations: 20, ..BoostParams::default() });
        let trained = EstimatorSelector::train(&bootstrap, &cfg);
        let retrained = EstimatorSelector::retrain_from(&trained, &feedback, 10, 0xFEED);
        for sel in [&trained, &retrained] {
            let kinds: Vec<EstimatorKind> = sel.models.iter().map(|(k, _)| *k).collect();
            assert_eq!(kinds, cfg.candidates, "models come back in candidate order");
        }
        for &kind in &cfg.candidates {
            let params =
                BoostParams { seed: model_seed(cfg.boost.seed, kind), ..cfg.boost.clone() };
            let alone = Mart::train(&bootstrap.dataset_for(kind, cfg.mode), &params);
            assert!(alone.n_trees() > 0, "{kind}: the oracle must fit trees for this to bite");
            assert_eq!(to_string(trained.model(kind).unwrap()), to_string(&alone), "train {kind}");
            let params = BoostParams { seed: model_seed(0xFEED, kind), ..cfg.boost.clone() };
            let warm = Mart::warm_start(&alone, &feedback.dataset_for(kind, cfg.mode), &params, 10);
            assert!(warm.n_trees() > alone.n_trees(), "{kind}: the warm start must add trees");
            let got = to_string(retrained.model(kind).unwrap());
            assert_eq!(got, to_string(&warm), "retrain_from {kind}");
        }
    }

    #[test]
    fn fan_out_returns_input_order_and_passes_panics_on() {
        for width in [1, 2, 3, 7] {
            for n in [1, 6, 7] {
                let got = fan_out(n, width, |i| (i, std::thread::current().id()));
                let order: Vec<usize> = got.iter().map(|(i, _)| *i).collect();
                assert_eq!(order, (0..n).collect::<Vec<_>>(), "width {width}, {n} items");
                let mut threads: Vec<String> = got.iter().map(|(_, t)| format!("{t:?}")).collect();
                threads.dedup();
                let shares = n.div_ceil(n.div_ceil(width));
                assert_eq!(threads.len(), shares, "width {width}, {n} items");
                // A panic in the calling thread's share and one in the
                // last (spawned, when there is more than one) share both
                // reach the caller with their own message.
                for bad in [0, n - 1] {
                    let caught = std::panic::catch_unwind(|| {
                        fan_out(n, width, |i| if i == bad { panic!("item {i}") } else { i })
                    });
                    let payload = caught.expect_err("the panic reaches the caller");
                    let message = payload.downcast_ref::<String>().map(String::as_str);
                    assert_eq!(message, Some(format!("item {bad}").as_str()));
                }
            }
        }
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
