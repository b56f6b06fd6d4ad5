//! Stored reference for selector training.
//!
//! FNV-64 of `EstimatorSelector::to_text` after `train` and after
//! `retrain_from` on a quick TPC-H-like corpus, recorded when each of the
//! six candidates still copied and re-binned its own feature matrix. They
//! now share one matrix and one `BinnedDataset`; these digests hold that
//! sharing (and the MART kernel underneath, see `prosel-mart`'s
//! `train_digest`) to the models the per-candidate path produced.

use prosel_core::pipeline_runs::collect_workload_records;
use prosel_core::selection::{EstimatorSelector, SelectorConfig};
use prosel_core::textio::fnv64;
use prosel_core::training::{FeatureMode, TrainingSet};
use prosel_mart::BoostParams;
use prosel_planner::workload::{WorkloadKind, WorkloadSpec};

fn corpus(seed: u64, queries: usize) -> TrainingSet {
    let spec =
        WorkloadSpec::new(WorkloadKind::TpchLike, seed).with_queries(queries).with_scale(0.4);
    TrainingSet::from_records(&collect_workload_records(&spec).expect("records"))
}

#[track_caller]
fn assert_digest(selector: &EstimatorSelector, recorded: u64) {
    let got = fnv64(selector.to_text().as_bytes());
    assert!(got == recorded, "digest {got:#018x}, recorded {recorded:#018x}");
}

#[test]
fn train_and_retrain_reproduce_the_recorded_selectors() {
    let bootstrap = corpus(8, 200);
    assert!(bootstrap.len() > 150, "only {} pipelines", bootstrap.len());
    let boost = BoostParams { iterations: 40, ..BoostParams::default() };
    let cfg = SelectorConfig::default().with_boost(boost);
    let base = EstimatorSelector::train(&bootstrap, &cfg);
    assert_digest(&base, 0x62e0_fe05_a178_b0d1);

    let feedback = corpus(9, 120);
    let retrained = EstimatorSelector::retrain_from(&base, &feedback, 15, 0xFEED);
    assert_digest(&retrained, 0xa8f6_b9eb_b9dd_5575);

    // Static mode trains on the static prefix of the same records.
    let static_sel = EstimatorSelector::train(&bootstrap, &cfg.with_mode(FeatureMode::Static));
    assert_digest(&static_sel, 0x6877_e120_075c_dbee);
}
