//! The closed online-learning loop, end to end on the sharded service:
//!
//! engine tap → MonitorService (harvest on every Finished) → background
//! Trainer (bounded reservoir buffer, warm-start retraining, guarded
//! promotion) → SelectorHub → hot-swap back into the service, where the
//! *next* round's registrations pick the new model up.
//!
//! ```text
//! cargo run --release --example online_learning
//! ```

use prosel::core::pipeline_runs::collect_workload_records;
use prosel::core::selection::{EstimatorSelector, SelectorConfig};
use prosel::core::training::TrainingSet;
use prosel::engine::{run_concurrent_tapped, Catalog, ExecConfig};
use prosel::learn::{BufferConfig, LearnConfig, OnlineLearner, SelectorHub, Trainer};
use prosel::mart::BoostParams;
use prosel::monitor::{HarvestConfig, MonitorBuilder};
use prosel::planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel::planner::PlanBuilder;
use std::sync::Arc;

fn main() {
    // 1. Cold start: a shallow selector trained on a small slice of a
    //    *different* distribution than production will serve.
    let bootstrap = WorkloadSpec::new(WorkloadKind::TpchLike, 0xB00).with_queries(8);
    let records = collect_workload_records(&bootstrap).expect("bootstrap workload");
    let baseline = Arc::new(EstimatorSelector::train(
        &TrainingSet::from_records(&records),
        &SelectorConfig {
            boost: BoostParams { iterations: 4, ..BoostParams::fast() },
            ..SelectorConfig::default()
        },
    ));
    println!("bootstrap: {} records from {}", records.len(), bootstrap.label());

    // 2. The serving side: a sharded service whose shards all harvest
    //    every finished query into the learning loop's channel.
    let (harvest_sink, harvest_rx) = std::sync::mpsc::channel();
    let service = Arc::new(
        MonitorBuilder::with_selector(Arc::clone(&baseline))
            .harvester(
                Arc::new(harvest_sink),
                HarvestConfig { label: "prod".into(), min_observations: 5 },
            )
            .shards(4)
            .build_service()
            .expect("selector-policy services always build"),
    );

    // 3. The learning side: a background trainer that publishes every
    //    promoted model to the hub *and* hot-swaps it into the service.
    let hub = Arc::new(SelectorHub::new(Arc::clone(&baseline)));
    let learner = OnlineLearner::new(
        Arc::clone(&baseline),
        LearnConfig {
            buffer: BufferConfig { capacity: 2048, group_quota: 32, ..BufferConfig::default() },
            retrain_every: 32, // retrain once per 32-query round
            holdout_every: 3,
            min_records: 16,
            warm_trees: 32,
            promote_margin: 0.004, // damp noise-promotions on the reused holdout
            ..LearnConfig::default()
        },
    );
    let trainer = {
        let hub = Arc::clone(&hub);
        // A weak handle: the trainer must not keep the service alive past
        // its shutdown (a promotion landing after shutdown only reaches
        // the hub).
        let service = Arc::downgrade(&service);
        Trainer::spawn(learner, harvest_rx, move |sel| {
            let epoch = hub.publish(Arc::clone(sel));
            if let Some(service) = service.upgrade() {
                if let Ok(swapped) = service.swap_selector(Arc::clone(sel)) {
                    println!(
                        "  >> promoted model published (hub epoch {epoch}, service epoch {swapped})"
                    );
                }
            }
        })
    };

    // 4. Production traffic: rounds of concurrent TPC-DS-like batches.
    //    Every round registers fresh query ids, so each round picks up
    //    whatever the trainer promoted while the previous one ran.
    for round in 0..6usize {
        let spec =
            WorkloadSpec::new(WorkloadKind::TpcdsLike, 0xD10 + round as u64).with_queries(32);
        let w = materialize(&spec);
        let catalog = Catalog::new(&w.db, &w.design);
        let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
        let plans: Vec<_> = w.queries.iter().map(|q| builder.build(q).expect("plan")).collect();
        // The engine numbers a concurrent batch 0..n, so each round reuses
        // ids 0..n — legal because the previous round unregistered them.
        for (qi, plan) in plans.iter().enumerate() {
            service.register(qi, plan);
        }
        let cfg = ExecConfig { seed: 0xD10 ^ round as u64, ..ExecConfig::default() };
        run_concurrent_tapped(&catalog, &plans, &cfg, service.tap());
        // Let the shards finish ingesting and the trainer absorb the
        // round before the next one registers (purely cosmetic for the
        // demo — the loop is correct at any interleaving).
        while (0..plans.len()).any(|qi| service.is_finished(qi) != Ok(true)) {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(150));
        let epoch = service.query_selector_epoch(0).expect("registered");
        println!(
            "round {round}: {} queries ({}), registered under selector epoch {epoch}",
            plans.len(),
            spec.label(),
        );
        for qi in 0..plans.len() {
            service.unregister(qi).expect("registered above");
        }
    }

    // 5. Shutdown order: drain the service (flushes pending harvests),
    //    which drops the harvest sink and lets the trainer flush its tail.
    //    The trainer's publish closure may hold a transient strong ref
    //    (its Weak::upgrade during a swap), so spin until we are sole
    //    owner rather than racing it.
    let mut service = service;
    let service = loop {
        match Arc::try_unwrap(service) {
            Ok(service) => break service,
            Err(shared) => {
                service = shared;
                std::thread::yield_now();
            }
        }
    };
    service.shutdown();
    let learner = trainer.join();
    let stats = learner.stats();
    println!(
        "learning loop: {} queries harvested, {} records ({} buffered, {} held out), \
         {} retrains, {} promoted, {} rejected",
        stats.harvested_queries,
        stats.harvested_records,
        learner.buffer().len(),
        learner.validation_len(),
        stats.retrains,
        stats.promotions,
        stats.rejections,
    );

    // 6. Score the loop's output against a held-out workload neither the
    //    bootstrap nor the feedback rounds ever saw.
    let heldout = WorkloadSpec::new(WorkloadKind::TpcdsLike, 0xD05).with_queries(64);
    let held = TrainingSet::from_records(&collect_workload_records(&heldout).expect("held-out"));
    let base_l1 = baseline.evaluate(&held).chosen_l1;
    let final_l1 = hub.selector().evaluate(&held).chosen_l1;
    println!(
        "held-out selection L1 on {}: baseline {base_l1:.4} -> after feedback {final_l1:.4} \
         (hub epoch {})",
        heldout.label(),
        hub.epoch(),
    );
}
