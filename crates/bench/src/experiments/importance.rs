//! Section 6.5: feature importance via greedy forward selection, plus
//! the gain ranking of the trained error models.
//!
//! Paper findings: the first selected feature is `SelBelow_NL Join`
//! (relative input volume of nested-loop operators), the second a
//! time-correlation feature of DNESEEK, the third `SelAtDN`; of the next
//! ten, seven are dynamic (six of them time-correlations).

use crate::report::Table;
use crate::suite::{paper_workloads, ExpScale, Suite};
use prosel_core::features::FeatureSchema;
use prosel_core::selection::{EstimatorSelector, SelectorConfig};
use prosel_core::training::{FeatureMode, TrainingSet};
use prosel_estimators::EstimatorKind;
use prosel_mart::{greedy_forward_selection, BoostParams, Dataset};

pub fn run(suite: &mut Suite, scale: ExpScale) -> String {
    let records = suite.records_all(&paper_workloads(match scale {
        ExpScale::Full => ExpScale::Quick, // greedy selection is O(rounds·d) trainings
        s => s,
    }));
    let ts = TrainingSet::from_records(&records);
    let schema = FeatureSchema::get();

    // ---- Greedy forward selection over the mean-of-candidates error ----
    // (the paper runs selection for the regression models; we target the
    // error of the overall best-candidate choice signal: the minimum
    // candidate error, which captures "what makes pipelines hard").
    // We also run it for the DNE-error model specifically.
    let cap = match scale {
        ExpScale::Smoke => 400,
        _ => 1200,
    };
    let rounds = match scale {
        ExpScale::Smoke => 5,
        _ => 8,
    };
    let full = ts.dataset_for(EstimatorKind::Dne, FeatureMode::StaticDynamic);
    let mut train = Dataset::new(full.n_features());
    let mut hold = Dataset::new(full.n_features());
    for i in 0..full.len().min(cap) {
        if i % 4 == 0 {
            hold.push(full.row(i), full.target(i));
        } else {
            train.push(full.row(i), full.target(i));
        }
    }
    let steps = greedy_forward_selection(&train, &hold, rounds, &BoostParams::fast());

    let mut out = String::new();
    let mut t = Table::new(
        "§6.5 — greedy forward feature selection (DNE-error model)",
        &["round", "feature", "holdout MSE"],
    );
    for (i, s) in steps.iter().enumerate() {
        t.row(&[format!("{}", i + 1), schema.name(s.feature).to_string(), format!("{:.5}", s.mse)]);
    }
    out.push_str(&t.render());

    // ---- Gain importance of the full six-model selector ----------------
    let cfg = SelectorConfig::default();
    let selector = EstimatorSelector::train(&ts, &cfg);
    let mut gains = vec![0.0f64; schema.len()];
    for kind in EstimatorKind::EXTENDED {
        if let Some(m) = selector.model(kind) {
            for (f, g) in m.feature_gain().iter().enumerate() {
                gains[f] += g;
            }
        }
    }
    let mut ranked: Vec<(usize, f64)> = gains.into_iter().enumerate().collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    let total: f64 = ranked.iter().map(|(_, g)| g).sum();
    let mut t2 = Table::new(
        "§6.5 — top features by MART split gain (all six error models)",
        &["rank", "feature", "gain share", "dynamic?"],
    );
    let static_len = schema.static_len();
    for (rank, (f, g)) in ranked.iter().take(15).enumerate() {
        t2.row(&[
            format!("{}", rank + 1),
            schema.name(*f).to_string(),
            format!("{:.1}%", g / total * 100.0),
            if *f >= static_len { "yes".into() } else { "no".into() },
        ]);
    }
    out.push_str(&t2.render());
    let dyn_in_top10 = ranked.iter().take(10).filter(|(f, _)| *f >= static_len).count();
    out.push_str(&format!(
        "dynamic features in gain top-10: {dyn_in_top10}\n\
         paper: SelBelow_NLJoin first, then Cor_DNESEEK, then SelAtDN; 7 of the\n\
         next 10 are dynamic (6 time-correlations).\n",
    ));
    println!("{out}");
    out
}
