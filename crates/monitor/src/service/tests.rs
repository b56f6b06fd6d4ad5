//! Unit tests of the sharded service: routing, admission, the read
//! surface's typed errors, quiesce wake-ups and the dead-shard paths.

use super::*;
use crate::test_support::{dne, scan_plan, selector_favoring, snapshot_event};
use crate::{HarvestConfig, HarvestedQuery, MonitorConfig, RuntimeConfig};
use prosel_estimators::EstimatorKind;

#[test]
fn routes_registration_ingest_and_reads_by_query_id() {
    let plan = scan_plan();
    let service = dne().shards(4).build_service().unwrap();
    assert_eq!(service.n_shards(), 4);
    assert!(service.n_workers() >= 1);
    // Query ids chosen to land on distinct shards (mod 4).
    for q in [0usize, 1, 2, 3, 7] {
        service.register(q, &plan);
    }
    let tap = service.tap();
    for q in [0usize, 1, 2, 3, 7] {
        tap.send(snapshot_event(q, 0, 10.0, 25 * (q as u64 % 4 + 1))).unwrap();
    }
    // Reads are snapshots: quiesce is the read-your-writes
    // barrier after tap sends (ingest() below needs none).
    service.quiesce();
    assert!((service.query_progress(0).unwrap() - 0.25).abs() < 1e-12);
    assert!((service.query_progress(3).unwrap() - 1.0).abs() < 1e-12);
    // Shard of query 7 (7 % 4 == 3) holds both 3 and 7.
    assert_eq!(service.registered_queries(), vec![0, 1, 2, 3, 7]);
    let st = service.status(7).expect("registered");
    assert!(!st.finished);
    assert_eq!(st.pipelines.len(), 1);
    service.ingest(TraceEvent::Finished {
        query: 7,
        wall: 40.0,
        windows: vec![(1.0, 40.0)].into_boxed_slice(),
        total_time: 40.0,
    });
    assert_eq!(service.query_progress(7), Ok(1.0));
    assert_eq!(service.is_finished(7), Ok(true));
    // Staleness folding keeps a finished query's ETA all-zero, so the
    // exact comparison survives the default read path.
    assert_eq!(service.remaining_time(7), Ok(Eta::finished(40.0)));
    service.unregister(7).unwrap();
    assert_eq!(service.query_progress(7), Err(QueryError::QueryUnknown(7)));
    assert_eq!(service.remaining_time(7), Err(QueryError::QueryUnknown(7)));
    // Every read counts, whichever of the nine it is and whether or not it
    // finds its query.
    let reads = || service.metrics().counter("service_reads_total").expect("registered");
    let before = reads();
    let _ = service.query_progress(3);
    let _ = service.pipeline_progress(3, 0);
    let _ = service.status(3);
    let _ = service.is_finished(3);
    let _ = service.switch_history(3);
    let _ = service.remaining_time(3);
    let _ = service.remaining_time_at_last_event(3);
    let _ = service.query_selector_epoch(3);
    let _ = service.progress_at_deadline(3, 50.0);
    assert_eq!(reads() - before, 9, "one tick per read, for each of the nine reads");
    service.shutdown();
}

#[test]
fn delta_events_route_and_advance_progress_like_snapshots() {
    use prosel_engine::trace::{CounterKind, CounterUpdate};
    let plan = scan_plan();
    let service = dne().shards(2).build_service().unwrap();
    service.register(6, &plan);
    // Full baseline, then a sparse delta standing for snapshot seq 1.
    service.ingest(snapshot_event(6, 0, 10.0, 25));
    service.ingest(TraceEvent::Delta {
        query: 6,
        seq: 1,
        wall: 20.0,
        time: 20.0,
        changes: Box::new([
            CounterUpdate { node: 0, counter: CounterKind::GetNext, value: 50 },
            CounterUpdate { node: 0, counter: CounterKind::BytesRead, value: 400 },
        ]),
        window_updates: Box::new([(0, (1.0, 20.0))]),
    });
    assert!((service.query_progress(6).unwrap() - 0.5).abs() < 1e-12);
    service.shutdown();
}

#[test]
fn duplicate_registration_is_an_error_not_an_abort() {
    let plan = scan_plan();
    let service = dne().shards(2).build_service().unwrap();
    assert_eq!(service.try_register(5, &plan), Ok(()));
    assert_eq!(service.try_register(5, &plan), Err(RegisterError::DuplicateQuery(5)));
    // The shard survives and still serves the original registration.
    service.ingest(snapshot_event(5, 0, 10.0, 50));
    assert!((service.query_progress(5).unwrap() - 0.5).abs() < 1e-12);
}

#[test]
fn batch_registration_covers_all_shards_and_reports_duplicates() {
    let plan = scan_plan();
    let service = dne().shards(3).build_service().unwrap();
    service.register(4, &plan);
    let queries: Vec<usize> = (0..10).collect();
    let admissions =
        || service.metrics().histogram("service_register_ns").expect("registered").count();
    let before = admissions();
    let mut results = service.try_register_batch(&queries, &plan);
    assert_eq!(admissions() - before, 3, "one admission sample per shard the batch reached");
    results.sort_by_key(|&(q, _)| q);
    for (q, r) in &results {
        match q {
            4 => assert_eq!(*r, Err(RegisterError::DuplicateQuery(4))),
            _ => assert_eq!(*r, Ok(()), "q{q}"),
        }
    }
    assert_eq!(service.registered_queries(), (0..10).collect::<Vec<_>>());
}

#[test]
fn eta_reads_are_routed_and_typed() {
    let plan = scan_plan();
    let service = dne().shards(2).build_service().unwrap();
    service.register(6, &plan);
    assert!(!service.remaining_time(6).expect("registered").is_known());
    service.ingest(snapshot_event(6, 0, 10.0, 25));
    service.ingest(snapshot_event(6, 1, 20.0, 50));
    // The raw at-last-event variant is the bit-exact one.
    let eta = service.remaining_time_at_last_event(6).expect("registered");
    assert!(eta.is_known());
    // 0.25 progress per 10 s => 0.025/s; 0.5 left => 20 s, and one
    // speed sample => interval degenerates onto the point.
    assert!((eta.remaining - 20.0).abs() < 1e-9);
    assert_eq!(eta.remaining_lo.to_bits(), eta.remaining.to_bits());
    assert_eq!(eta.remaining_hi.to_bits(), eta.remaining.to_bits());
    // The default path folds staleness: never larger than raw, same
    // provenance.
    let folded = service.remaining_time(6).expect("registered");
    assert!(folded.remaining <= eta.remaining);
    assert_eq!(folded.as_of, eta.as_of);
    let p = service.progress_at_deadline(6, 30.0).expect("registered");
    assert!((p - 0.75).abs() < 1e-9);
    assert_eq!(service.progress_at_deadline(99, 1.0), Err(QueryError::QueryUnknown(99)));
    assert_eq!(service.remaining_time(99), Err(QueryError::QueryUnknown(99)));
    service.shutdown();
}

#[test]
fn swap_selector_broadcasts_and_epochs_stay_aligned() {
    let favoring = selector_favoring;
    let plan = scan_plan();
    let service = crate::MonitorBuilder::with_selector(favoring(EstimatorKind::Dne))
        .shards(3)
        .build_service()
        .unwrap();
    // One query per shard registered under epoch 0.
    for q in 0..3usize {
        service.register(q, &plan);
    }
    let epoch = service.swap_selector(Arc::new(favoring(EstimatorKind::Tgn))).expect("up");
    assert_eq!(epoch, 1);
    // Registrations after the swap land on epoch 1 on every shard;
    // pre-swap queries keep epoch 0.
    for q in 3..6usize {
        service.register(q, &plan);
    }
    for q in 0..3usize {
        assert_eq!(service.query_selector_epoch(q), Ok(0), "q{q}");
        assert_eq!(service.query_selector_epoch(q + 3), Ok(1), "q{}", q + 3);
        let st = service.status(q + 3).expect("registered");
        assert_eq!(st.pipelines[0].estimator, EstimatorKind::Tgn);
    }
    assert_eq!(service.query_selector_epoch(99), Err(QueryError::QueryUnknown(99)));
    // A second swap bumps every shard again.
    assert_eq!(service.swap_selector(Arc::new(favoring(EstimatorKind::Dne))), Ok(2));
    service.shutdown();
}

#[test]
fn staleness_reads_are_routed() {
    use prosel_engine::clock::{Clock, ManualClock};
    let plan = scan_plan();
    let clock = Arc::new(ManualClock::new(0.0));
    let config =
        MonitorConfig { clock: Arc::clone(&clock) as Arc<dyn Clock>, ..Default::default() };
    let service = dne().config(config).shards(2).build_service().unwrap();
    service.register(4, &plan);
    service.ingest(snapshot_event(4, 0, 10.0, 25));
    service.ingest(snapshot_event(4, 1, 20.0, 50));
    clock.set(26.0);
    // 0.025 progress/s, 0.5 left => 20 s from as_of 20.0; age 6.
    let raw = service.remaining_time_at_last_event(4).expect("registered");
    assert!((raw.remaining - 20.0).abs() < 1e-9);
    // The default remaining_time folds the staleness in — the
    // stalled-query countdown keeps shrinking instead of freezing.
    let folded = service.remaining_time(4).expect("registered");
    assert!((folded.remaining - 14.0).abs() < 1e-9);
    assert!((folded.remaining_lo - (raw.remaining_lo - 6.0).max(0.0)).abs() < 1e-9);
    assert_eq!(folded.as_of, raw.as_of, "aging keeps the sample provenance");
    clock.set(1000.0);
    assert_eq!(service.remaining_time(4).unwrap().remaining, 0.0, "pins to zero");
    assert!(
        service.remaining_time_at_last_event(4).unwrap().remaining > 0.0,
        "raw variant stays frozen at the last event by design"
    );
    assert_eq!(service.remaining_time(99), Err(QueryError::QueryUnknown(99)));
    service.shutdown();
}

#[test]
fn harvests_flow_from_all_shards_to_one_sink() {
    let plan = scan_plan();
    let (sink, harvested) = std::sync::mpsc::channel::<HarvestedQuery>();
    let service = dne()
        .harvester(Arc::new(sink), HarvestConfig { label: "svc".into(), min_observations: 2 })
        .shards(3)
        .build_service()
        .unwrap();
    for q in 0..6usize {
        service.register(q, &plan);
        for seq in 0..3u64 {
            service.ingest(snapshot_event(q, seq, (seq + 1) as f64 * 10.0, 25 * (seq + 1)));
        }
        service.ingest(TraceEvent::Finished {
            query: q,
            wall: 40.0,
            windows: vec![(1.0, 40.0)].into_boxed_slice(),
            total_time: 40.0,
        });
    }
    service.shutdown(); // drains queues, so every harvest is delivered
    let mut got: Vec<usize> = harvested.try_iter().map(|h| h.query).collect();
    got.sort_unstable();
    assert_eq!(got, (0..6).collect::<Vec<_>>());
}

#[test]
fn saturated_shards_refuse_admission_with_typed_errors_not_panics() {
    let plan = scan_plan();
    // 2 shards × cap 2 = 4 admission slots service-wide.
    let config = MonitorConfig { max_queries: 2, ..Default::default() };
    let service = dne().config(config).shards(2).build_service().unwrap();
    // Flood well past the cap through both admission paths: every
    // over-cap registration must come back as a typed Saturated value
    // and no shard task may die.
    let queries: Vec<usize> = (0..16).collect();
    let results = service.try_register_batch(&queries, &plan);
    let admitted: Vec<usize> = results.iter().filter(|(_, r)| r.is_ok()).map(|&(q, _)| q).collect();
    let saturated = results
        .iter()
        .filter(|(_, r)| matches!(r, Err(RegisterError::Saturated { limit: 2 })))
        .count();
    assert_eq!(admitted.len(), 4);
    assert_eq!(saturated, 12);
    assert_eq!(service.try_register(17, &plan), Err(RegisterError::Saturated { limit: 2 }));
    // The shards survived the flood and still serve admitted queries.
    for &q in &admitted {
        service.ingest(snapshot_event(q, 0, 10.0, 50));
        assert!((service.query_progress(q).unwrap() - 0.5).abs() < 1e-12, "q{q}");
    }
    // Draining a query frees its slot on the owning shard only.
    let freed = admitted[0];
    service.unregister(freed).unwrap();
    assert_eq!(service.try_register(freed + 2 * service.n_shards(), &plan), Ok(()));
    let stats = service.stats().expect("stats are always served");
    assert_eq!(stats.registered, 4);
    assert_eq!(stats.admitted, 5);
    assert_eq!(stats.refused, 13);
    service.shutdown();
}

#[test]
fn stats_fold_per_shard_counters_after_the_queues_drain() {
    let plan = scan_plan();
    let service = dne().shards(3).build_service().unwrap();
    for q in 0..6usize {
        service.register(q, &plan);
    }
    let tap = service.tap();
    for q in 0..6usize {
        tap.send(snapshot_event(q, 0, 10.0, 25)).unwrap();
    }
    // An event for a query nobody registered: dropped and counted.
    tap.send(snapshot_event(42, 0, 10.0, 25)).unwrap();
    // Stats are wait-free snapshots; quiesce is the explicit barrier
    // that makes the conservation law exact at readout time.
    service.quiesce();
    let per_shard = service.shard_stats().expect("stats are always served");
    assert_eq!(per_shard.len(), 3);
    let total = service.stats().expect("stats are always served");
    assert_eq!(total.events_ingested + total.events_unroutable, 7);
    assert_eq!(total.events_unroutable, 1);
    assert_eq!(total.events_rejected, 0, "no dead shards, nothing rejected");
    assert_eq!((total.registered, total.admitted), (6, 6));
    assert_eq!(total.queries_dropped, 0);
    service.shutdown();
}

#[test]
fn oracle_kinds_are_refused() {
    let err =
        crate::MonitorBuilder::fixed(EstimatorKind::BytesOracle).shards(2).build_service().err();
    assert!(
        matches!(
            err,
            Some(crate::MonitorError::Register(RegisterError::OracleKind(
                EstimatorKind::BytesOracle
            )))
        ),
        "{err:?}"
    );
}

#[test]
fn batched_tap_sends_are_equivalent_to_singles() {
    let plan = scan_plan();
    let service = dne().shards(3).build_service().unwrap();
    for q in 0..6usize {
        service.register(q, &plan);
    }
    let tap = service.tap();
    let batch: Vec<TraceEvent> = (0..6usize).map(|q| snapshot_event(q, 0, 10.0, 25)).collect();
    tap.send_batch(batch).unwrap();
    service.quiesce();
    for q in 0..6usize {
        assert!((service.query_progress(q).unwrap() - 0.25).abs() < 1e-12, "q{q}");
    }
    let total = service.stats().expect("stats are always served");
    assert_eq!(total.events_ingested, 6);
    service.shutdown();
}

/// A [`QueryStatus`] bit for bit, less its query id.
type StatusBits = (u64, u64, bool, Vec<(usize, EstimatorKind, u64, usize)>);

fn status_bits(st: &QueryStatus) -> StatusBits {
    let rows = st
        .pipelines
        .iter()
        .map(|p| (p.pipeline, p.estimator, p.progress.to_bits(), p.observations))
        .collect();
    (st.progress.to_bits(), st.time.to_bits(), st.finished, rows)
}

fn eta_bits(eta: &Eta) -> [u64; 7] {
    [
        eta.as_of.to_bits(),
        eta.progress.to_bits(),
        eta.samples as u64,
        eta.speed.to_bits(),
        eta.remaining.to_bits(),
        eta.remaining_lo.to_bits(),
        eta.remaining_hi.to_bits(),
    ]
}

#[test]
fn reads_are_concurrent_with_ingest() {
    // Hammer one service from parallel reader threads while a writer
    // streams events. Every read must equal, bit for bit, what a
    // single-threaded monitor serves after the event it is stamped with —
    // a read that mixes two events matches no reference row — and the
    // final state must be exact.
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    let plan = scan_plan();
    let event = |q: usize, seq: u64| snapshot_event(q, seq, (seq + 1) as f64, seq + 1);
    // What the stream serves after each event, by `time` (status) and by
    // `as_of` (ETA; tests stamp wall == time), registration included.
    let mut want_status: HashMap<u64, StatusBits> = HashMap::new();
    let mut want_eta: HashMap<u64, [u64; 7]> = HashMap::new();
    let mut reference = dne().build_monitor().unwrap();
    reference.register(0, &plan);
    for seq in 0..=100u64 {
        if seq > 0 {
            reference.ingest(event(0, seq - 1));
        }
        let st = status_bits(&reference.status(0).unwrap());
        want_status.insert(st.1, st);
        let eta = eta_bits(&reference.remaining_time_at_last_event(0).unwrap());
        assert_eq!(*want_eta.entry(eta[0]).or_insert(eta), eta, "ETA moved without a sample");
    }
    let service = std::sync::Arc::new(dne().shards(4).build_service().unwrap());
    let n_queries = 32usize;
    for q in 0..n_queries {
        service.register(q, &plan);
    }
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let tap = service.tap();
            for seq in 0..100u64 {
                for q in 0..n_queries {
                    // 1% of the 100-row scan per event.
                    tap.send(event(q, seq)).unwrap();
                }
            }
            // Readers keep going until every event is visible.
            service.quiesce();
            done.store(true, Ordering::Release);
        });
        for reader in 0..3usize {
            let (service, want_status, want_eta, done) = (&service, &want_status, &want_eta, &done);
            scope.spawn(move || {
                let mut i = 0usize;
                while i < 200 || !done.load(Ordering::Acquire) {
                    // Stride across all queries (and thus all shards).
                    let q = (i * 7 + reader) % n_queries;
                    let p = service.query_progress(q).unwrap();
                    assert!((0.0..=1.0).contains(&p));
                    let st = service.status(q).unwrap();
                    assert_eq!(st.query, q);
                    let got = status_bits(&st);
                    assert_eq!(Some(&got), want_status.get(&got.1), "q{q}: torn status");
                    let eta = eta_bits(&service.remaining_time_at_last_event(q).unwrap());
                    assert_eq!(Some(&eta), want_eta.get(&eta[0]), "q{q}: torn ETA");
                    i += 1;
                }
            });
        }
    });
    for q in 0..n_queries {
        let p = service.query_progress(q).expect("registered");
        assert!((p - 1.0).abs() < 1e-12, "q{q} final progress {p}");
    }
}

#[test]
fn short_counter_column_drops_the_query_and_spares_the_shard() {
    use prosel_engine::trace::{CounterKind, CounterUpdate};
    // The header check used to look at `k` alone: a snapshot whose
    // `k` has the plan's width and another counter column does not
    // went on to index that column — in the evaluation, or in the
    // patch of the next delta — and the panic took every query of the
    // shard with it.
    let plan = scan_plan();
    let columns = [CounterKind::BytesRead, CounterKind::BytesWritten, CounterKind::Materialized];
    for (corrupt, bystander, column) in
        [(0usize, 2usize, columns[0]), (4, 6, columns[1]), (8, 10, columns[2])]
    {
        let service = dne().shards(2).build_service().unwrap();
        service.register(corrupt, &plan);
        service.register(bystander, &plan);
        let TraceEvent::Snapshot { mut snapshot, windows, .. } =
            snapshot_event(corrupt, 0, 10.0, 25)
        else {
            unreachable!("snapshot_event builds a snapshot")
        };
        match column {
            CounterKind::BytesRead => snapshot.bytes_read = Box::new([]),
            CounterKind::BytesWritten => snapshot.bytes_written = Box::new([]),
            _ => snapshot.materialized = Box::new([]),
        }
        service.ingest(TraceEvent::Snapshot {
            query: corrupt,
            seq: 0,
            wall: 10.0,
            snapshot,
            windows,
        });
        service.ingest(TraceEvent::Delta {
            query: corrupt,
            seq: 1,
            wall: 20.0,
            time: 20.0,
            changes: Box::new([CounterUpdate { node: 0, counter: column, value: 7 }]),
            window_updates: Box::new([]),
        });
        assert_eq!(
            service.query_progress(corrupt),
            Err(QueryError::QueryUnknown(corrupt)),
            "{column:?}: the corrupt stream's query is dropped"
        );
        // Same shard, still alive, still serving.
        service.ingest(snapshot_event(bystander, 0, 10.0, 25));
        assert!((service.query_progress(bystander).unwrap() - 0.25).abs() < 1e-12, "{column:?}");
        let stats = service.stats().expect("stats are always served");
        assert_eq!((stats.queries_dropped, stats.events_rejected), (1, 0), "{column:?}");
        assert_eq!(stats.events_unroutable, 1, "{column:?}: the delta found no query");
        service.shutdown();
    }
}

#[test]
fn quiesce_waiters_wake_at_their_own_targets_and_rarely() {
    use std::sync::Barrier;
    // One shard, a tap streaming batches into it, and waiters parked
    // at different points of the stream: each must come back, none
    // before the shard has processed what it waits for, and the shard
    // must not pay a notify per batch for them.
    let plan = scan_plan();
    let service = dne().shards(1).build_service().unwrap();
    const QUERIES: usize = 32;
    const SNAPSHOTS: u64 = 1000;
    for q in 0..QUERIES {
        service.register(q, &plan);
    }
    let total = QUERIES as u64 * SNAPSHOTS;
    let targets = [total / 7, total / 3, total / 2, total / 2, total - 1, total];
    let slot = &service.inner.shards[0];
    let start = Barrier::new(targets.len() + 1);
    std::thread::scope(|scope| {
        for &target in &targets {
            let start = &start;
            scope.spawn(move || {
                start.wait();
                slot.wait_processed(target);
                let processed = slot.lock_queue().processed;
                assert!(processed >= target, "woke at {processed}, waiting for {target}");
            });
        }
        let tap = service.tap();
        start.wait();
        for seq in 0..SNAPSHOTS {
            let batch: Vec<TraceEvent> =
                (0..QUERIES).map(|q| snapshot_event(q, seq, (seq + 1) as f64, 1)).collect();
            tap.send_batch(batch).unwrap();
        }
    });
    // `quiesce` still means: everything accepted is visible.
    service.quiesce();
    assert_eq!(slot.lock_queue().processed, total);
    let metrics = service.metrics();
    let wakes = metrics.counter("monitor_shard0_quiesce_wakes_total").expect("registered");
    let batches = metrics.histogram("service_ingest_batch_len").expect("registered").count();
    assert!(wakes >= 1, "the waiters were woken, not timed out of every wait");
    assert!(wakes * 1000 < total, "{wakes} wakes for {total} events");
    assert!(wakes * 4 < batches, "{wakes} wakes for {batches} batches");
    service.shutdown();
}

/// A service whose shards share one worker.
fn one_worker(shards: usize) -> MonitorService {
    let runtime = RuntimeConfig { worker_threads: 1, ..RuntimeConfig::default() };
    dne()
        .config(MonitorConfig { runtime, ..Default::default() })
        .shards(shards)
        .build_service()
        .unwrap()
}

/// Wait until the worker has taken shard `si`'s queued events into a
/// batch. With the shard's core mutex held by the test thread, the worker
/// then stays parked mid-batch.
fn wait_until_taken(service: &MonitorService, si: usize) {
    while !service.inner.shards[si].lock_queue().events.is_empty() {
        std::thread::yield_now();
    }
}

fn run_queue_depth(service: &MonitorService) -> f64 {
    service.metrics().gauge("runtime_queue_depth").expect("registered")
}

#[test]
fn sends_to_a_queued_shard_leave_one_run_queue_entry() {
    let plan = scan_plan();
    let service = one_worker(2);
    service.register(0, &plan);
    service.register(1, &plan);
    let tap = service.tap();
    let core = service.inner.shards[0].core.lock().unwrap();
    tap.send(snapshot_event(0, 0, 1.0, 1)).unwrap();
    wait_until_taken(&service, 0);
    // The only worker is parked in shard 0's batch: shard 1 goes on the
    // run queue with its first event and stays there, however many more
    // events follow.
    for seq in 0..200u64 {
        tap.send(snapshot_event(1, seq, (seq + 1) as f64, 1)).unwrap();
        assert_eq!(run_queue_depth(&service), 1.0, "after send {seq}");
    }
    drop(core);
    service.quiesce();
    assert_eq!(service.stats().unwrap().events_ingested, 201);
    service.shutdown();
}

#[test]
fn events_pushed_mid_drain_are_drained_after_the_pass() {
    let plan = scan_plan();
    let service = one_worker(1);
    service.register(0, &plan);
    let tap = service.tap();
    let core = service.inner.shards[0].core.lock().unwrap();
    tap.send(snapshot_event(0, 0, 1.0, 1)).unwrap();
    wait_until_taken(&service, 0);
    // Shard 0 is still scheduled while its task runs: these sends queue
    // events without putting it on the run queue again ...
    for seq in 1..=200u64 {
        tap.send(snapshot_event(0, seq, (seq + 1) as f64, 1)).unwrap();
    }
    assert_eq!(run_queue_depth(&service), 0.0);
    assert_eq!(service.inner.shards[0].lock_queue().enqueued, 201);
    // ... and the pass that ends finds them and keeps the shard running
    // until they are drained, with no further send.
    drop(core);
    service.quiesce();
    assert_eq!(service.stats().unwrap().events_ingested, 201);
    service.shutdown();
}

#[test]
fn dead_shard_reads_swaps_and_router_degrade_cleanly() {
    let favoring = selector_favoring;
    let plan = scan_plan();
    let service = crate::MonitorBuilder::with_selector(favoring(EstimatorKind::Dne))
        .shards(3)
        .build_service()
        .unwrap();
    for q in 0..6usize {
        service.register(q, &plan);
    }
    let tap = service.tap();
    tap.send(snapshot_event(1, 0, 1.0, 10)).unwrap();
    service.quiesce();
    // Kill shard 1 (owns queries 1 and 4) through the real panic path.
    service.inject_shard_panic(1);
    // Reads on the dead shard: typed error, never a hang or panic.
    assert_eq!(service.query_progress(1), Err(QueryError::ShardDown));
    assert_eq!(service.remaining_time(4), Err(QueryError::ShardDown));
    assert_eq!(service.status(4).err(), Some(QueryError::ShardDown));
    // Live shards keep serving.
    assert_eq!(service.query_progress(0), Ok(0.0));
    // The router refuses the dead shard's events cleanly — Err returns
    // the event, and the drop is counted (conservation law).
    let ev = snapshot_event(4, 0, 1.0, 10);
    let back = tap.send(ev.clone());
    assert_eq!(back, Err(ev));
    assert!(tap.send(snapshot_event(0, 1, 2.0, 20)).is_ok(), "live shards accept");
    service.quiesce();
    let stats = service.stats().expect("stats are always served");
    assert_eq!(stats.events_rejected, 1);
    // A swap reports the dead shard by id and still applies to the
    // survivors (visible via the epoch on a fresh registration).
    let err = service.swap_selector(Arc::new(favoring(EstimatorKind::Tgn))).unwrap_err();
    assert_eq!(err.shards, vec![1]);
    assert_eq!(err.epoch, Some(1));
    service.register(6, &plan); // 6 % 3 == 0: a surviving shard
    assert_eq!(service.query_selector_epoch(6), Ok(1));
    // Registration on the dead shard is refused as a value.
    assert_eq!(service.try_register(7, &plan), Err(RegisterError::ShardDown));
    service.shutdown();
}
