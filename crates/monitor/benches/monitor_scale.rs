//! Scaling of the monitor layer along its two new axes.
//!
//! **Pipelines** (`ingest_by_pipelines`): plans of a *fixed node count*
//! whose pipeline count varies (sorts are pipeline breakers, filters are
//! not). With the shared [`prosel_estimators::SnapshotCtx`] the
//! refinement-bound pass runs once per query per snapshot, so the
//! per-event ingest cost must stay (roughly) flat as the pipeline count
//! grows — before the hoist it grew linearly with it (O(pipelines × plan)
//! per snapshot).
//!
//! **Shards** (`service_ingest_by_shards`): a 1000-query workload is
//! streamed through a [`MonitorService`] tap by four producer threads
//! while N shard workers ingest. Events per second must scale with the
//! shard count (the acceptance bar: > 2× at 4 shards vs. 1).
//!
//! Both groups report element throughput (events), so the per-element
//! time printed per size is directly comparable within a group.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use prosel_datagen::schema::{ColumnMeta, ColumnRole, TableMeta};
use prosel_datagen::{Column, Database, PhysicalDesign, Table, TuningLevel};
use prosel_engine::plan::{CmpOp, OperatorKind, PhysicalPlan, PlanNode, Predicate};
use prosel_engine::trace::TraceEvent;
use prosel_engine::{decompose, run_plan_tapped, Catalog, CostModel, ExecConfig};
use prosel_estimators::{EstimatorKind, IncrementalObs};
use prosel_monitor::MonitorBuilder;
use std::sync::Arc;

const ROWS: usize = 2000;
/// Non-scan operators per plan: constant across the pipeline-count sweep.
const CHAIN_OPS: usize = 15;

fn db() -> Database {
    let mut db = Database::new("scale");
    let meta = TableMeta::new(
        "t",
        64,
        vec![
            ColumnMeta::new("id", ColumnRole::PrimaryKey),
            ColumnMeta::new("v", ColumnRole::Value { min: 0, max: 9 }),
        ],
    );
    db.add(Table::new(
        meta,
        vec![
            Column { name: "id".into(), data: (1..=ROWS as i64).collect() },
            Column { name: "v".into(), data: (0..ROWS as i64).map(|i| i % 10).collect() },
        ],
    ));
    db
}

/// A scan under a chain of `CHAIN_OPS` operators, `n_sorts` of which are
/// sorts (pipeline breakers) spread evenly through the chain and the rest
/// pass-all filters — node count is constant, pipeline count is
/// `n_sorts + 1`.
fn chain_plan(n_sorts: usize) -> PhysicalPlan {
    assert!(n_sorts <= CHAIN_OPS);
    let mut nodes = vec![PlanNode {
        op: OperatorKind::TableScan { table: "t".into(), cols: vec![0, 1] },
        children: vec![],
        est_rows: ROWS as f64,
        est_row_bytes: 16.0,
        out_cols: 2,
    }];
    let mut placed_sorts = 0usize;
    for i in 0..CHAIN_OPS {
        let want_sorts = n_sorts * (i + 1) / CHAIN_OPS;
        let op = if placed_sorts < want_sorts {
            placed_sorts += 1;
            OperatorKind::Sort { key_cols: vec![0] }
        } else {
            OperatorKind::Filter { pred: Predicate::ColCmp { col: 1, op: CmpOp::Lt, val: 100 } }
        };
        nodes.push(PlanNode {
            op,
            children: vec![i],
            est_rows: ROWS as f64,
            est_row_bytes: 16.0,
            out_cols: 2,
        });
    }
    let root = nodes.len() - 1;
    PhysicalPlan { nodes, root }
}

/// Execute `plan` once, recording its live event stream.
fn record_events(catalog: &Catalog<'_>, plan: &PhysicalPlan) -> Vec<TraceEvent> {
    let (tap, rx) = std::sync::mpsc::channel();
    let cfg = ExecConfig {
        cost: CostModel::deterministic(),
        initial_snapshot_interval: 300.0,
        ..ExecConfig::default()
    };
    run_plan_tapped(catalog, plan, &cfg, 0, tap);
    rx.try_iter().collect()
}

/// The recorded event, re-addressed to `query` (the stream itself is
/// identical for every query running the same plan deterministically).
fn retag(ev: &TraceEvent, query: usize) -> TraceEvent {
    match ev {
        TraceEvent::Snapshot { seq, wall, snapshot, windows, .. } => TraceEvent::Snapshot {
            query,
            seq: *seq,
            wall: *wall,
            snapshot: snapshot.clone(),
            windows: windows.clone(),
        },
        TraceEvent::Delta { seq, wall, time, changes, window_updates, .. } => TraceEvent::Delta {
            query,
            seq: *seq,
            wall: *wall,
            time: *time,
            changes: changes.clone(),
            window_updates: window_updates.clone(),
        },
        TraceEvent::Thinned { .. } => TraceEvent::Thinned { query },
        TraceEvent::Finished { wall, windows, total_time, .. } => TraceEvent::Finished {
            query,
            wall: *wall,
            windows: windows.clone(),
            total_time: *total_time,
        },
    }
}

/// Per-event ingest cost vs. pipeline count at a fixed plan size: flat ⇒
/// the per-snapshot bound pass is shared, not per-pipeline.
fn bench_ingest_by_pipelines(c: &mut Criterion) {
    let database = db();
    let design = PhysicalDesign::derive(&database, TuningLevel::Untuned);
    let catalog = Catalog::new(&database, &design);
    let mut group = c.benchmark_group("ingest_by_pipelines");
    group.sample_size(10);
    for n_sorts in [0usize, 3, 7, 15] {
        let plan = chain_plan(n_sorts);
        let n_pipelines = decompose(&plan).len();
        let events = record_events(&catalog, &plan);
        group.throughput(Throughput::Elements(events.len() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{n_pipelines}_pipelines")),
            &events,
            |b, events| {
                b.iter(|| {
                    let mut monitor =
                        MonitorBuilder::fixed(EstimatorKind::Dne).build_monitor().expect("build");
                    monitor.register(0, &plan);
                    for ev in events {
                        monitor.ingest(ev.clone());
                    }
                    monitor.query_progress(0)
                })
            },
        );
        // A/B reference at each size: the pre-hoist path — every pipeline
        // computes the refinement bounds itself (`offer` instead of
        // `offer_view`), O(pipelines × plan) per snapshot. The gap to
        // the entry above is the shared-bounds win.
        let plan_arc = Arc::new(plan.clone());
        let pipelines = decompose(&plan_arc);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{n_pipelines}_pipelines_unshared")),
            &events,
            |b, events| {
                b.iter(|| {
                    let mut obs: Vec<IncrementalObs> = pipelines
                        .iter()
                        .map(|p| IncrementalObs::new(Arc::clone(&plan_arc), p))
                        .collect();
                    for ev in events {
                        if let TraceEvent::Snapshot { seq, snapshot, windows, .. } = ev {
                            for o in &mut obs {
                                let pid = o.pipeline_id();
                                o.offer(*seq, snapshot, windows[pid]);
                            }
                        }
                    }
                    obs.last().and_then(|o| o.value(EstimatorKind::Dne))
                })
            },
        );
    }
    group.finish();
}

/// Service ingest throughput vs. shard count on a 1000-query workload
/// (four producer threads streaming through the routed tap).
///
/// Shard workers are real OS threads, so the speedup is bounded by the
/// host's core count: on ≥ 4 cores expect > 2× at 4 shards vs. 1; on a
/// single-core host (e.g. a pinned CI container) the expected result is
/// *parity* — which still verifies that sharding adds no overhead. The
/// group prints the detected parallelism so results read unambiguously.
fn bench_service_ingest_by_shards(c: &mut Criterion) {
    const N_QUERIES: usize = 1000;
    const N_PRODUCERS: usize = 4;
    println!(
        "service_ingest_by_shards: host parallelism = {} (speedup is bounded by cores)",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let database = db();
    let design = PhysicalDesign::derive(&database, TuningLevel::Untuned);
    let catalog = Catalog::new(&database, &design);
    let plan = chain_plan(7);
    let events = record_events(&catalog, &plan);
    let mut group = c.benchmark_group("service_ingest_by_shards");
    group.sample_size(10);
    for n_shards in [1usize, 2, 4, 8] {
        group.throughput(Throughput::Elements((N_QUERIES * events.len()) as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{n_shards}_shards")),
            &events,
            |b, events| {
                b.iter(|| {
                    let service = MonitorBuilder::fixed(EstimatorKind::Dne)
                        .shards(n_shards)
                        .build_service()
                        .expect("build");
                    // Bulk admission: one round-trip per shard, not per
                    // query (blocking per-query registration would be
                    // latency-bound and mask the ingest scaling).
                    let queries: Vec<usize> = (0..N_QUERIES).collect();
                    for (q, r) in service.try_register_batch(&queries, &plan) {
                        r.unwrap_or_else(|e| panic!("q{q}: {e}"));
                    }
                    std::thread::scope(|scope| {
                        for p in 0..N_PRODUCERS {
                            let service = &service;
                            scope.spawn(move || {
                                let tap = service.tap();
                                // Interleave queries (outer loop = event
                                // index) to mimic concurrent execution.
                                for ev in events {
                                    for q in (p..N_QUERIES).step_by(N_PRODUCERS) {
                                        tap.send(retag(ev, q)).expect("shard alive");
                                    }
                                }
                            });
                        }
                    });
                    // Barrier: reads are wait-free snapshots, so proving
                    // every queued event was ingested takes an explicit
                    // drain.
                    service.quiesce();
                    let done = service.query_progress(0);
                    service.shutdown();
                    done
                })
            },
        );
    }
    group.finish();
}

/// Read-tail latency under saturated ingest — the wait-free-read
/// acceptance bar: with > 10k queries registered **per pool worker** and
/// writer threads saturating the tap continuously, the p99 of a service
/// read must stay flat (a snapshot load, not a queue round-trip). The
/// measured p99 is appended to `$PROSEL_BENCH_JSON` as
/// `read_p99_under_saturated_ingest` in the criterion-shim JSONL format,
/// so `bench_report` folds it into `BENCH_<sha>.json` alongside the
/// criterion groups.
///
/// The saturating stream uses *unroutable* query ids (≥ the registered
/// count): it exercises the full enqueue → drain → stats-publish path on
/// every shard without growing per-query state, so the measurement window
/// is stationary.
fn bench_read_tail_under_saturated_ingest(_c: &mut Criterion) {
    use prosel_engine::trace::Snapshot;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Instant;

    const N_SHARDS: usize = 2;
    const N_QUERIES: usize = 24_576; // > 10k per worker even on 2 cores
    const N_WRITERS: usize = 2;
    const WRITE_BATCH: usize = 256;
    let reads: usize = match std::env::var("PROSEL_BENCH_QUICK") {
        Ok(_) => 10_000,
        Err(_) => 100_000,
    };

    let plan = PhysicalPlan {
        nodes: vec![PlanNode {
            op: OperatorKind::TableScan { table: "t".into(), cols: vec![0] },
            children: vec![],
            est_rows: 100.0,
            est_row_bytes: 8.0,
            out_cols: 1,
        }],
        root: 0,
    };
    let snapshot_event = |query: usize, seq: u64, time: f64, k: u64| TraceEvent::Snapshot {
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
    };

    let service =
        MonitorBuilder::fixed(EstimatorKind::Dne).shards(N_SHARDS).build_service().expect("build");
    let queries: Vec<usize> = (0..N_QUERIES).collect();
    for (q, r) in service.try_register_batch(&queries, &plan) {
        r.unwrap_or_else(|e| panic!("q{q}: {e}"));
    }
    // Pre-feed three snapshots per query so every read path (progress,
    // ETA, deadline prediction) serves real values, then drain.
    let tap = service.tap();
    for seq in 0..3u64 {
        for q in 0..N_QUERIES {
            tap.send(snapshot_event(q, seq, (seq + 1) as f64 * 10.0, 25 * (seq + 1)))
                .expect("shard alive");
        }
    }
    service.quiesce();

    // Saturate: writer threads stream unroutable batches at full tilt for
    // the whole measurement window.
    let stop = AtomicBool::new(false);
    let p99_ns = std::thread::scope(|scope| {
        for w in 0..N_WRITERS {
            let service = &service;
            let stop = &stop;
            scope.spawn(move || {
                let tap = service.tap();
                let mut seq = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let batch: Vec<TraceEvent> = (0..WRITE_BATCH)
                        .map(|i| {
                            seq += 1;
                            snapshot_event(N_QUERIES + w * WRITE_BATCH + i, seq, 1.0, 1)
                        })
                        .collect();
                    tap.send_batch(batch).expect("shards alive");
                }
            });
        }
        let mut samples_ns: Vec<u64> = Vec::with_capacity(reads);
        for i in 0..reads {
            let q = (i * 7919) % N_QUERIES; // prime stride across shards
            let t = Instant::now();
            let ok = match i % 3 {
                0 => service.query_progress(q).is_ok(),
                1 => service.remaining_time(q).is_ok(),
                _ => service.progress_at_deadline(q, 60.0).is_ok(),
            };
            samples_ns.push(t.elapsed().as_nanos() as u64);
            assert!(ok, "read of registered q{q} failed under load");
        }
        stop.store(true, Ordering::Release);
        samples_ns.sort_unstable();
        samples_ns[(samples_ns.len() * 99) / 100]
    });
    let stats = service.stats().expect("stats are always served");
    println!(
        "read_p99_under_saturated_ingest: {N_QUERIES} queries on {} worker(s), \
         p99 = {p99_ns} ns over {reads} reads ({} events ingested during the window)",
        service.n_workers(),
        stats.events_ingested + stats.events_unroutable,
    );
    service.shutdown();

    // Same JSONL shape the criterion shim appends, so bench_report folds
    // this metric in with no special casing.
    if let Ok(path) = std::env::var("PROSEL_BENCH_JSON") {
        use std::io::Write;
        let line = format!(
            "{{\"name\":\"read_p99_under_saturated_ingest\",\"mean_ns\":{p99_ns},\"iters\":{reads}}}\n"
        );
        let write = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(line.as_bytes()));
        if let Err(e) = write {
            eprintln!("monitor_scale: cannot append to {path}: {e}");
        }
    }
}

criterion_group!(
    benches,
    bench_ingest_by_pipelines,
    bench_service_ingest_by_shards,
    bench_read_tail_under_saturated_ingest
);
criterion_main!(benches);
