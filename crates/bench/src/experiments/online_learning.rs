//! Extension experiment: the **closed online-learning loop** (ISSUE 5 /
//! ROADMAP "feeding the switch history back as a training signal").
//!
//! The realistic cold-start situation: a selector bootstrapped on one
//! distribution (a small TPC-H-like slice) serves traffic from another
//! (TPC-DS-like). Each feedback round executes a batch of production
//! queries *tapped* through a harvesting [`prosel_monitor::ProgressMonitor`], the
//! harvested records feed the [`OnlineLearner`] (bounded reservoir
//! buffer, deterministic holdout, guarded promotion), the promoted model is
//! hot-swapped into the monitor ([`prosel_monitor::ProgressMonitor::swap_selector`] — new
//! registrations only), and the held-out selection L1 of the currently
//! served model is scored against a *batch-collected* held-out workload
//! the loop never trains on.
//!
//! What to expect: held-out selection L1 falls (or, in the worst round,
//! stays flat — guarded promotion turns "the feedback round produced a
//! worse model" into "no change") from the bootstrap baseline towards the
//! in-distribution ceiling; the whole run is deterministic under the
//! fixed seeds.

use crate::report::Table;
use crate::suite::{ExpScale, Suite};
use prosel_core::selection::{EstimatorSelector, SelectorConfig};
use prosel_core::training::TrainingSet;
use prosel_engine::{run_plan_tapped, Catalog, ExecConfig};
use prosel_learn::{BufferConfig, LearnConfig, OnlineLearner};
use prosel_mart::BoostParams;
use prosel_monitor::{HarvestConfig, MonitorBuilder};
use prosel_planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel_planner::PlanBuilder;
use std::sync::Arc;

pub fn run(suite: &mut Suite, scale: ExpScale) -> String {
    let (rounds, queries_per_round, bootstrap_q, heldout_q) = match scale {
        ExpScale::Smoke => (3usize, 24usize, 8usize, 32usize),
        ExpScale::Quick => (4, 40, 10, 48),
        ExpScale::Full => (6, 80, 16, 96),
    };
    // A deliberately shallow bootstrap: few out-of-distribution records,
    // few boosting rounds — the cold-start model the loop exists to fix.
    let boost = BoostParams { iterations: 8, ..BoostParams::fast() };

    // Bootstrap distribution: TPC-H-like. Production + held-out: TPC-DS-
    // like (different seeds for feedback vs held-out — the loop never
    // sees the held-out queries).
    let bootstrap = WorkloadSpec::new(WorkloadKind::TpchLike, 0x0B00).with_queries(bootstrap_q);
    let heldout = WorkloadSpec::new(WorkloadKind::TpcdsLike, 0x0D05).with_queries(heldout_q);
    let baseline = Arc::new(EstimatorSelector::train(
        &TrainingSet::from_records(suite.records(&bootstrap)),
        &SelectorConfig { boost: boost.clone(), ..SelectorConfig::default() },
    ));
    let held = TrainingSet::from_records(suite.records(&heldout));
    let baseline_l1 = baseline.evaluate(&held).chosen_l1;

    let mut learner = OnlineLearner::new(
        Arc::clone(&baseline),
        LearnConfig {
            buffer: BufferConfig { capacity: 2048, group_quota: 32, ..BufferConfig::default() },
            retrain_every: 0, // one explicit retrain per feedback round
            holdout_every: 3,
            min_records: 16,
            warm_trees: 32,
            ..LearnConfig::default()
        },
    );

    // One long-lived harvesting monitor; each round's registrations pick
    // up whatever the loop promoted last (the hot-swap path).
    let (sink, harvest_rx) = std::sync::mpsc::channel();
    let mut monitor = MonitorBuilder::with_selector(Arc::clone(&baseline))
        .harvester(Arc::new(sink), HarvestConfig { label: "prod".into(), min_observations: 5 })
        .build_monitor()
        .expect("selector-policy monitors always build");

    let mut table = Table::new(
        "Extension — online-learning loop: held-out selection L1 per feedback round",
        &["round", "harvested", "buffer", "epoch", "promoted", "val L1", "held-out L1"],
    );
    table.row(&[
        "boot".into(),
        "-".into(),
        "0".into(),
        "0".into(),
        "-".into(),
        "-".into(),
        format!("{baseline_l1:.4}"),
    ]);

    let mut epoch = 0u64;
    for round in 0..rounds {
        let spec = WorkloadSpec::new(WorkloadKind::TpcdsLike, 0x0D10 + round as u64)
            .with_queries(queries_per_round);
        let w = materialize(&spec);
        let catalog = Catalog::new(&w.db, &w.design);
        let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
        for (qi, q) in w.queries.iter().enumerate() {
            let query_id = round * 100_000 + qi;
            let plan = builder.build(q).expect("plan");
            let (tap, events) = std::sync::mpsc::channel();
            monitor.register(query_id, &plan);
            let cfg = ExecConfig { seed: 0x0D0 ^ query_id as u64, ..ExecConfig::default() };
            let _run = run_plan_tapped(&catalog, &plan, &cfg, query_id, tap);
            monitor.drain(&events);
            // Result consumed; free the state.
            monitor.unregister(query_id).expect("query was registered above");
        }
        let mut harvested = 0usize;
        for h in harvest_rx.try_iter() {
            harvested += h.records.len();
            learner.absorb(&h);
        }
        let outcome = learner.retrain();
        if outcome.promoted {
            epoch = monitor.swap_selector(learner.current());
        }
        let current_l1 = learner.current().evaluate(&held).chosen_l1;
        table.row(&[
            round.to_string(),
            harvested.to_string(),
            learner.buffer().len().to_string(),
            epoch.to_string(),
            if outcome.promoted { "yes".into() } else { "no".into() },
            if outcome.validation > 0 {
                format!("{:.4}", outcome.candidate_l1)
            } else {
                "-".into()
            },
            format!("{current_l1:.4}"),
        ]);
    }

    let final_l1 = learner.current().evaluate(&held).chosen_l1;
    let stats = learner.stats();
    let mut out = table.render();
    out.push_str(&format!(
        "bootstrap {} on {}; feedback+held-out on {} (disjoint seeds). Guarded promotion:\n\
         {} retrains, {} promoted, {} rejected. Held-out selection L1 {:.4} -> {:.4}\n\
         ({}; the guard makes 'worse than baseline' impossible on the validation slice,\n\
         and the whole loop is deterministic under the fixed seeds).\n",
        bootstrap.label(),
        "tpch-like bootstrap records",
        heldout.label(),
        stats.retrains,
        stats.promotions,
        stats.rejections,
        baseline_l1,
        final_l1,
        if final_l1 <= baseline_l1 { "improved or equal" } else { "regressed" },
    ));
    println!("{out}");
    out
}
