//! Property tests for selector persistence: the text codec the online
//! trainer relies on must round-trip exactly and reject every torn or
//! polluted blob (truncations, injected lines, concatenations).

use proptest::prelude::*;
use prosel_core::features::FeatureSchema;
use prosel_core::pipeline_runs::PipelineRecord;
use prosel_core::selection::{EstimatorSelector, SelectorConfig};
use prosel_core::training::TrainingSet;
use prosel_estimators::EstimatorKind;
use prosel_mart::BoostParams;

fn synthetic_records(n: usize, seed: u64) -> Vec<PipelineRecord> {
    let dims = FeatureSchema::get().len();
    (0..n)
        .map(|i| {
            let x = ((i as u64).wrapping_mul(seed | 1) % 7) as f32;
            let mut features = vec![0.0f32; dims];
            features[0] = x;
            features[1] = (i % 5) as f32;
            let mut errors = vec![0.6f32; 8];
            errors[0] = if x < 3.5 { 0.05 } else { 0.4 };
            errors[1] = if x < 3.5 { 0.4 } else { 0.05 };
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

fn tiny_selector(seed: u64) -> EstimatorSelector {
    let records = synthetic_records(40, seed);
    let cfg = SelectorConfig {
        candidates: vec![EstimatorKind::Dne, EstimatorKind::Tgn, EstimatorKind::Luo],
        boost: BoostParams { iterations: 4, seed, ..BoostParams::fast() },
        ..SelectorConfig::default()
    };
    EstimatorSelector::train(&TrainingSet::from_records(&records), &cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Serialize → parse → serialize is the identity on the text, and the
    /// parsed selector scores identically.
    #[test]
    fn round_trip_is_exact(seed in 1u64..500) {
        let sel = tiny_selector(seed);
        let text = sel.to_text();
        let back = EstimatorSelector::from_text(&text).expect("own output must parse");
        prop_assert_eq!(back.to_text(), text.clone());
        for r in synthetic_records(12, seed ^ 0xABCD) {
            prop_assert_eq!(sel.select(&r.features), back.select(&r.features));
        }
    }

    /// Every strict line-prefix of a valid blob is rejected: a torn write
    /// can never load as a (different) model.
    #[test]
    fn truncations_are_rejected(seed in 1u64..500, frac in 0.0f64..1.0) {
        let text = tiny_selector(seed).to_text();
        let lines: Vec<&str> = text.lines().collect();
        let keep = ((lines.len() - 1) as f64 * frac) as usize; // < lines.len()
        let truncated = lines[..keep].join("\n");
        prop_assert!(
            EstimatorSelector::from_text(&truncated).is_err(),
            "prefix of {} of {} lines must not parse", keep, lines.len()
        );
    }

    /// A foreign line injected anywhere in the blob is rejected.
    #[test]
    fn injected_garbage_is_rejected(seed in 1u64..500, frac in 0.0f64..1.0) {
        let text = tiny_selector(seed).to_text();
        let mut lines: Vec<&str> = text.lines().collect();
        let pos = ((lines.len()) as f64 * frac) as usize;
        lines.insert(pos.min(lines.len()), "garbage 0.5 xyz");
        let polluted = lines.join("\n");
        prop_assert!(
            EstimatorSelector::from_text(&polluted).is_err(),
            "garbage at line {} must not parse", pos
        );
    }
}

/// A selector blob around one hand-written DNE model section.
fn selector_text(model: &str) -> String {
    format!("prosel-selector v1\nmode dynamic\ncandidates DNE\nmodel DNE\n{model}endmodel\n")
}

/// Models that parse line by line but could not be scored — an empty
/// tree, a split past the feature vector, a split the compiled node
/// cannot address — are refused when the selector is loaded, not when a
/// shard first scores with them.
#[test]
fn unscoreable_models_are_rejected_at_load() {
    let dims = FeatureSchema::get().len();
    let ok = selector_text(&format!(
        "mart v1\nbase 0.5 shrinkage 0.1 trees 1 features {dims}\ntree 3\n\
         node 2 0.5 0 1 2 0\nnode -1 0 0 0 0 0.25\nnode -1 0 0 0 0 0.75\n"
    ));
    let sel = EstimatorSelector::from_text(&ok).expect("well-formed");
    assert_eq!(sel.to_text(), ok);
    assert_eq!(sel.predicted_errors(&vec![0.0; dims]), vec![(EstimatorKind::Dne, 0.525)]);

    let err = |model: String| {
        EstimatorSelector::from_text(&selector_text(&model)).err().expect("must not load")
    };
    let empty_tree = format!("mart v1\nbase 0.5 shrinkage 0.1 trees 1 features {dims}\ntree 0\n");
    assert_eq!(err(empty_tree), "tree 0 has no nodes");
    let past_the_vector = format!(
        "mart v1\nbase 0.5 shrinkage 0.1 trees 1 features {}\ntree 3\n\
         node {dims} 0.5 0 1 2 0\nnode -1 0 0 0 0 0.25\nnode -1 0 0 0 0 0.75\n",
        dims + 1
    );
    assert!(err(past_the_vector).contains(&format!("over {} features", dims + 1)));
    let too_wide = "mart v1\nbase 0.5 shrinkage 0.1 trees 1 features 70000\ntree 3\n\
                    node 66000 0.5 0 1 2 0\nnode -1 0 0 0 0 0.25\nnode -1 0 0 0 0 0.75\n";
    // Refused at the declared width, before anything is sized by it.
    assert!(err(too_wide.into()).contains("features 70000: a compiled node addresses at most"));
}
