//! The online-learning loop end to end, at the workspace level:
//!
//! * a hot swap mid-workload never changes anything for queries that were
//!   already registered (bit-equality against a swap-free monitor), while
//!   new registrations pick up the swapped model and epoch;
//! * a selector retrained from harvested feedback serves held-out
//!   selection L1 no worse than the statically-trained baseline —
//!   deterministically, under fixed seeds;
//! * ETA reads (`remaining_time` / `progress_at_deadline`) served by a
//!   sharded service stay well-formed while selectors hot-swap under
//!   concurrent ingest, and the post-load state is bit-identical to a
//!   swap-free reference monitor fed the same per-query streams.

use prosel::core::pipeline_runs::collect_workload_records;
use prosel::core::selection::{EstimatorSelector, SelectorConfig};
use prosel::core::training::TrainingSet;
use prosel::engine::{run_concurrent_tapped, run_plan_tapped, Catalog, ExecConfig, TraceEvent};
use prosel::estimators::EstimatorKind;
use prosel::learn::{BufferConfig, LearnConfig, OnlineLearner};
use prosel::mart::BoostParams;
use prosel::monitor::{HarvestConfig, MonitorBuilder, ProgressMonitor};
use prosel::planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel::planner::PlanBuilder;
use std::sync::Arc;

/// The estimator `status` names for each pipeline of `query`.
fn estimators(monitor: &ProgressMonitor, query: usize) -> Vec<EstimatorKind> {
    let status = monitor.status(query).expect("registered");
    status.pipelines.iter().map(|p| p.estimator).collect()
}

fn selector_on(spec: &WorkloadSpec, boost_iters: usize) -> EstimatorSelector {
    let records = collect_workload_records(spec).expect("workload");
    EstimatorSelector::train(
        &TrainingSet::from_records(&records),
        &SelectorConfig {
            boost: BoostParams { iterations: boost_iters, ..BoostParams::fast() },
            ..SelectorConfig::default()
        },
    )
}

#[test]
fn hot_swap_mid_workload_is_invisible_to_registered_queries() {
    let s1 = Arc::new(selector_on(
        &WorkloadSpec::new(WorkloadKind::TpchLike, 0x51).with_queries(8).with_scale(0.4),
        10,
    ));
    let s2 = Arc::new(selector_on(
        &WorkloadSpec::new(WorkloadKind::TpcdsLike, 0x52).with_queries(8).with_scale(0.4),
        10,
    ));

    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 0x53).with_queries(6);
    let w = materialize(&spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let plans: Vec<_> = w.queries.iter().map(|q| builder.build(q).expect("plan")).collect();

    // One interleaved event stream, collected up front so both monitors
    // see byte-identical input.
    let (tap, rx) = std::sync::mpsc::channel();
    let cfg = ExecConfig { seed: 0x53, ..ExecConfig::default() };
    run_concurrent_tapped(&catalog, &plans, &cfg, tap);
    let events: Vec<TraceEvent> = rx.try_iter().collect();
    assert!(events.len() > 20);

    let mut plain = MonitorBuilder::with_selector(Arc::clone(&s1)).build_monitor().expect("build");
    let mut swapped =
        MonitorBuilder::with_selector(Arc::clone(&s1)).build_monitor().expect("build");
    for (qi, plan) in plans.iter().enumerate() {
        plain.register(qi, plan);
        swapped.register(qi, plan);
    }

    let mid = events.len() / 2;
    for (i, ev) in events.iter().enumerate() {
        if i == mid {
            // Swap mid-stream on one monitor only.
            assert_eq!(swapped.swap_selector(Arc::clone(&s2)), 1);
        }
        plain.ingest(ev.clone());
        swapped.ingest(ev.clone());
        // Served answers must stay bit-identical for every in-flight
        // query, before and after the swap.
        for qi in 0..plans.len() {
            let a = plain.query_progress(qi).expect("registered");
            let b = swapped.query_progress(qi).expect("registered");
            assert_eq!(a.to_bits(), b.to_bits(), "q{qi} diverged after event {i}");
        }
    }
    for qi in 0..plans.len() {
        assert_eq!(
            plain.switch_history(qi),
            swapped.switch_history(qi),
            "q{qi}: switch history must be unaffected by the swap"
        );
        assert_eq!(estimators(&plain, qi), estimators(&swapped, qi), "q{qi} current choices");
        assert_eq!(swapped.query_selector_epoch(qi), Some(0), "registered pre-swap");
    }

    // New registrations land on the swapped model and epoch: they must
    // match a reference monitor built on s2 directly.
    let mut reference =
        MonitorBuilder::with_selector(Arc::clone(&s2)).build_monitor().expect("build");
    let q_new = 100usize;
    swapped.register(q_new, &plans[0]);
    reference.register(q_new, &plans[0]);
    assert_eq!(swapped.query_selector_epoch(q_new), Some(1));
    // Before its first event a query serves its static choices.
    assert_eq!(
        estimators(&swapped, q_new),
        estimators(&reference, q_new),
        "post-swap registration must score with s2"
    );
}

#[test]
fn feedback_retrained_selector_is_no_worse_than_the_static_baseline() {
    // Mirrors the `online-learning` bench experiment (same seeds and
    // sizing as its smoke scale): bootstrap on TPC-H-like, feed back
    // TPC-DS-like rounds, score on a disjoint held-out TPC-DS-like set.
    let bootstrap = WorkloadSpec::new(WorkloadKind::TpchLike, 0x0B00).with_queries(8);
    let heldout = WorkloadSpec::new(WorkloadKind::TpcdsLike, 0x0D05).with_queries(32);
    let baseline = Arc::new(selector_on(&bootstrap, 8));
    let held = TrainingSet::from_records(&collect_workload_records(&heldout).expect("held-out"));
    let baseline_l1 = baseline.evaluate(&held).chosen_l1;

    let mut learner = OnlineLearner::new(
        Arc::clone(&baseline),
        LearnConfig {
            buffer: BufferConfig { capacity: 2048, group_quota: 32, ..BufferConfig::default() },
            retrain_every: 0,
            holdout_every: 3,
            min_records: 16,
            warm_trees: 32,
            ..LearnConfig::default()
        },
    );
    let (sink, harvest_rx) = std::sync::mpsc::channel();
    let mut monitor = MonitorBuilder::with_selector(Arc::clone(&baseline))
        .harvester(Arc::new(sink), HarvestConfig { label: "prod".into(), min_observations: 5 })
        .build_monitor()
        .expect("build");

    let mut epoch = 0;
    for round in 0..3usize {
        let spec =
            WorkloadSpec::new(WorkloadKind::TpcdsLike, 0x0D10 + round as u64).with_queries(24);
        let w = materialize(&spec);
        let catalog = Catalog::new(&w.db, &w.design);
        let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
        for (qi, q) in w.queries.iter().enumerate() {
            let query_id = round * 100_000 + qi;
            let plan = builder.build(q).expect("plan");
            let (tap, events) = std::sync::mpsc::channel();
            monitor.register(query_id, &plan);
            let cfg = ExecConfig { seed: 0x0D0 ^ query_id as u64, ..ExecConfig::default() };
            run_plan_tapped(&catalog, &plan, &cfg, query_id, tap);
            monitor.drain(&events);
            monitor.unregister(query_id).expect("registered above");
        }
        for h in harvest_rx.try_iter() {
            learner.absorb(&h);
        }
        let outcome = learner.retrain();
        if outcome.promoted {
            epoch = monitor.swap_selector(learner.current());
        }
    }

    let stats = learner.stats();
    assert!(stats.harvested_records > 50, "harvested {}", stats.harvested_records);
    assert!(stats.retrains == 3);
    assert!(stats.promotions >= 1, "the loop must actually learn something here");
    assert_eq!(epoch, stats.promotions as u64);

    let final_l1 = learner.current().evaluate(&held).chosen_l1;
    assert!(
        final_l1 <= baseline_l1 + 1e-12,
        "feedback-retrained selector must serve held-out L1 <= baseline: {final_l1} vs {baseline_l1}"
    );
}

#[test]
fn eta_reads_stay_served_and_sane_during_hot_swaps_under_load() {
    use prosel::engine::plan::{OperatorKind, PhysicalPlan, PlanNode};
    use prosel::engine::trace::Snapshot;

    fn scan_plan() -> PhysicalPlan {
        PhysicalPlan {
            nodes: vec![PlanNode {
                op: OperatorKind::TableScan { table: "t".into(), cols: vec![0] },
                children: vec![],
                est_rows: 100.0,
                est_row_bytes: 8.0,
                out_cols: 1,
            }],
            root: 0,
        }
    }

    fn snapshot_event(query: usize, seq: u64, time: f64, k: u64) -> TraceEvent {
        TraceEvent::Snapshot {
            query,
            seq,
            wall: time, // wall stamped on the virtual timeline
            snapshot: Snapshot {
                time,
                k: vec![k].into_boxed_slice(),
                bytes_read: vec![k * 8].into_boxed_slice(),
                bytes_written: vec![0].into_boxed_slice(),
                materialized: vec![0].into_boxed_slice(),
            },
            windows: vec![(1.0, time)].into_boxed_slice(),
        }
    }

    let s1_arc = Arc::new(selector_on(
        &WorkloadSpec::new(WorkloadKind::TpchLike, 0x61).with_queries(8).with_scale(0.4),
        8,
    ));
    let s2 = Arc::new(selector_on(
        &WorkloadSpec::new(WorkloadKind::TpcdsLike, 0x62).with_queries(8).with_scale(0.4),
        8,
    ));

    let plan = scan_plan();
    let n_queries = 32usize;
    let n_snaps = 60u64;
    let service = MonitorBuilder::with_selector(Arc::clone(&s1_arc))
        .shards(4)
        .build_service()
        .expect("build");
    for q in 0..n_queries {
        service.register(q, &plan);
    }

    // Writer streams every query's snapshots through the routed tap while
    // readers hammer the ETA surface and the main thread hot-swaps the
    // selector. Every read of a registered query must come back Ok and
    // well-formed — a swap must never make a serve fail or go insane.
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let tap = service.tap();
            for seq in 0..n_snaps {
                for q in 0..n_queries {
                    tap.send(snapshot_event(q, seq, (seq + 1) as f64, seq + 1)).unwrap();
                }
            }
        });
        for reader in 0..3usize {
            let service = &service;
            scope.spawn(move || {
                for i in 0..300usize {
                    let q = (i * 7 + reader) % n_queries;
                    let eta = service.remaining_time(q).expect("registered query must serve");
                    assert!(!eta.remaining.is_nan() && eta.remaining >= 0.0);
                    assert!(
                        eta.remaining_lo <= eta.remaining && eta.remaining <= eta.remaining_hi,
                        "interval must bracket the point estimate"
                    );
                    let p = service
                        .progress_at_deadline(q, 30.0 + i as f64)
                        .expect("registered query must serve");
                    assert!((0.0..=1.0).contains(&p), "q{q} deadline progress {p}");
                }
            });
        }
        let mut last_epoch = 0u64;
        for swap in 0..6usize {
            let payload = if swap % 2 == 0 { Arc::clone(&s2) } else { Arc::clone(&s1_arc) };
            let epoch = service.swap_selector(payload).expect("all shards up");
            assert!(epoch > last_epoch, "swap epochs must be strictly monotone");
            last_epoch = epoch;
        }
        writer.join().unwrap();
    });

    // Reads are snapshots: drain everything the writer enqueued
    // before comparing final state.
    service.quiesce();

    // Every query registered before the swaps: post-load answers must be
    // bit-identical to a swap-free reference monitor fed the same
    // per-query stream. Compare the at-last-event ETA — the pure function
    // of the ingested stream; the default `remaining_time` additionally
    // folds wall-clock staleness and so differs between two services read
    // at different instants by design.
    let mut reference =
        MonitorBuilder::with_selector(Arc::clone(&s1_arc)).build_monitor().expect("build");
    for q in 0..n_queries {
        reference.register(q, &plan);
        for seq in 0..n_snaps {
            reference.ingest(snapshot_event(q, seq, (seq + 1) as f64, seq + 1));
        }
    }
    for q in 0..n_queries {
        let served = service.remaining_time_at_last_event(q).expect("registered");
        let expect = reference.remaining_time_at_last_event(q).expect("registered");
        assert_eq!(
            served.remaining.to_bits(),
            expect.remaining.to_bits(),
            "q{q}: swaps under load must be bit-invisible to in-flight ETAs"
        );
        assert_eq!(served.as_of.to_bits(), expect.as_of.to_bits(), "q{q} as_of");
        assert_eq!(served.speed.to_bits(), expect.speed.to_bits(), "q{q} speed");
        let sp = service.query_progress(q).expect("registered");
        let rp = reference.query_progress(q).expect("registered");
        assert_eq!(sp.to_bits(), rp.to_bits(), "q{q} progress");
    }
    service.shutdown();
}
