//! Figure 4, Table 6 and Figure 5: estimator selection for "ad-hoc"
//! queries — leave-one-workload-out over the six workloads. Only three
//! folds (TPC-DS, Real-1, Real-2) test on a database never seen in
//! training. The other three each hold out one TPC-H physical design,
//! and their training folds hold the other two designs, which run the
//! same seed-11 queries over the same database: many test records'
//! feature vectors equal training ones bit for bit (ROADMAP item 16).
//!
//! Reports:
//! * Fig. 4 — % of pipelines for which each approach picks/is the optimal
//!   estimator (paper: DNE 31%, TGN 44%, LUO 25%; selection 55% static,
//!   64% dynamic);
//! * Table 6 — fraction of pipelines with error ratio over 2×/5×/10×;
//! * Fig. 5 — average L1/L2 progress error for the three estimators and
//!   for selection over {3, 6} candidates × {static, dynamic} features,
//!   plus the oracle-selection floor and the PMAX/SAFE worst-case
//!   estimators (§6.2 text).

use crate::report::Table;
use crate::suite::{paper_workloads, ExpScale, Suite};
use prosel_core::selection::{EstimatorSelector, SelectorConfig};
use prosel_core::training::{FeatureMode, TrainingSet};
use prosel_estimators::EstimatorKind;

struct Agg {
    l1: f64,
    l2: f64,
    opt: f64,
    r2: f64,
    r5: f64,
    r10: f64,
    n: f64,
}

impl Agg {
    fn new() -> Self {
        Agg { l1: 0.0, l2: 0.0, opt: 0.0, r2: 0.0, r5: 0.0, r10: 0.0, n: 0.0 }
    }

    fn add(&mut self, rep: &prosel_core::selection::SelectionReport) {
        let n = rep.n as f64;
        self.l1 += rep.chosen_l1 * n;
        self.l2 += rep.chosen_l2 * n;
        self.opt += rep.pct_optimal * n;
        self.r2 += rep.ratio_over_2x * n;
        self.r5 += rep.ratio_over_5x * n;
        self.r10 += rep.ratio_over_10x * n;
        self.n += n;
    }
}

pub fn run(suite: &mut Suite, scale: ExpScale) -> String {
    let specs = paper_workloads(scale);
    let all_records = suite.records_all(&specs);
    let full = TrainingSet::from_records(&all_records);
    let labels: Vec<String> = specs.iter().map(|s| s.label()).collect();

    // The four selection variants: candidates × feature mode.
    let variants: [(&str, Vec<EstimatorKind>, FeatureMode); 4] = [
        ("SEL3 (static)", EstimatorKind::ORIGINAL.to_vec(), FeatureMode::Static),
        ("SEL3 (dynamic)", EstimatorKind::ORIGINAL.to_vec(), FeatureMode::StaticDynamic),
        ("SEL6 (static)", EstimatorKind::EXTENDED.to_vec(), FeatureMode::Static),
        ("SEL6 (dynamic)", EstimatorKind::EXTENDED.to_vec(), FeatureMode::StaticDynamic),
    ];
    let mut aggs: Vec<Agg> = variants.iter().map(|_| Agg::new()).collect();

    for label in &labels {
        let (test, train) = full.split_by(|r| &r.workload == label);
        for (vi, (_, candidates, mode)) in variants.iter().enumerate() {
            let cfg = SelectorConfig {
                candidates: candidates.clone(),
                mode: *mode,
                boost: crate::suite::harness_boost(),
            };
            let sel = EstimatorSelector::train(&train, &cfg);
            let rep = sel.evaluate(&test);
            aggs[vi].add(&rep);
        }
    }

    let mut out = String::new();

    // ---- Figure 4: % optimal ----------------------------------------
    let three = EstimatorKind::ORIGINAL;
    let mut fig4 = Table::new(
        "Figure 4 — % of pipelines where the approach is/picks the optimal of {DNE,TGN,LUO}",
        &["approach", "% optimal"],
    );
    for k in three {
        fig4.row_pct(k.name(), &[full.pct_optimal(k, &three, 1e-4)]);
    }
    fig4.row_pct("EST. SEL. (static)", &[aggs[0].opt / aggs[0].n]);
    fig4.row_pct("EST. SEL. (dynamic)", &[aggs[1].opt / aggs[1].n]);
    out.push_str(&fig4.render());
    out.push_str("paper: DNE 31%, TGN 44%, LUO 25%; selection 55% (static), 64% (dynamic).\n\n");

    // ---- Table 6: ratio tails ----------------------------------------
    let mut t6 = Table::new(
        "Table 6 — % pipelines with (error / best-of-candidates) above 2x / 5x / 10x",
        &["approach", ">2x", ">5x", ">10x"],
    );
    // Fixed estimators, ratio vs best of the three.
    for k in three.iter() {
        let mut over = [0usize; 3];
        for r in &full.records {
            let min = three
                .iter()
                .map(|kk| r.errors_l1[kk.candidate_index().unwrap()])
                .fold(f32::INFINITY, f32::min)
                .max(1e-9);
            let ratio = r.errors_l1[k.candidate_index().unwrap()] / min;
            if ratio > 2.0 {
                over[0] += 1;
            }
            if ratio > 5.0 {
                over[1] += 1;
            }
            if ratio > 10.0 {
                over[2] += 1;
            }
        }
        let n = full.len() as f64;
        t6.row_pct(k.name(), &[over[0] as f64 / n, over[1] as f64 / n, over[2] as f64 / n]);
    }
    t6.row_pct(
        "EST. SEL. (ST)",
        &[aggs[0].r2 / aggs[0].n, aggs[0].r5 / aggs[0].n, aggs[0].r10 / aggs[0].n],
    );
    t6.row_pct(
        "EST. SEL. (DY)",
        &[aggs[1].r2 / aggs[1].n, aggs[1].r5 / aggs[1].n, aggs[1].r10 / aggs[1].n],
    );
    out.push_str(&t6.render());
    out.push_str(
        "paper: DNE 23.6/7.8/1.6, TGN 26.7/14.5/8.9, LUO 27.3/11.4/5.0,\n\
         SEL(ST) 13.2/3.7/1.0, SEL(DY) 6.3/0.8/0.3 (percent).\n\n",
    );

    // ---- Figure 5: average L1/L2 --------------------------------------
    let mut fig5 = Table::new(
        "Figure 5 — average progress-estimation error (leave-one-workload-out)",
        &["approach", "avg L1", "avg L2"],
    );
    for k in three {
        fig5.row_f(k.name(), &[full.mean_l1(k), full.mean_l2(k)], 4);
    }
    for (vi, (name, _, _)) in variants.iter().enumerate() {
        fig5.row_f(name, &[aggs[vi].l1 / aggs[vi].n, aggs[vi].l2 / aggs[vi].n], 4);
    }
    fig5.row_f("oracle over 3", &[full.oracle_l1(&EstimatorKind::ORIGINAL), f64::NAN], 4);
    fig5.row_f("oracle over 6", &[full.oracle_l1(&EstimatorKind::EXTENDED), f64::NAN], 4);
    // §6.2 text: worst-case estimators are impractical.
    fig5.row_f("PMAX", &[full.mean_l1(EstimatorKind::Pmax), full.mean_l2(EstimatorKind::Pmax)], 4);
    fig5.row_f("SAFE", &[full.mean_l1(EstimatorKind::Safe), full.mean_l2(EstimatorKind::Safe)], 4);
    out.push_str(&fig5.render());
    out.push_str(
        "paper L1: DNE .1748 TGN .1463 LUO .1616 | SEL3 .1410(st)/.1294(dy)\n\
         | SEL6 .1275(st)/.1271(dy); PMAX 0.50, SAFE 0.40; oracle 0.109/0.099.\n",
    );

    println!("{out}");
    out
}
