//! Per-snapshot overhead of the online monitor.
//!
//! The claim under test: `IncrementalObs::append` (and the full
//! `ProgressMonitor::ingest` path around it) costs O(1) amortized per
//! snapshot — the time to ingest N snapshots grows linearly in N, i.e.
//! the *per-element* cost stays flat as the trace gets longer. The batch
//! path, by contrast, recomputes every curve from scratch, so polling it
//! per tick would be quadratic. Each group below is parameterized by the
//! trace length with element throughput reported, so a flat per-element
//! time across the sizes is the pass criterion.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use prosel_engine::plan::{CmpOp, OperatorKind, PhysicalPlan, PlanNode, Predicate};
use prosel_engine::trace::{CounterKind, CounterUpdate, DeltaEncoder, Snapshot, TraceEvent};
use prosel_engine::{decompose, Pipeline};
use prosel_estimators::soa::BoundsKernel;
use prosel_estimators::{EstimatorKind, IncrementalObs, SnapshotCtx};
use prosel_monitor::MonitorBuilder;
use std::sync::Arc;

fn scan_filter_plan(rows: f64) -> PhysicalPlan {
    PhysicalPlan {
        nodes: vec![
            PlanNode {
                op: OperatorKind::TableScan { table: "t".into(), cols: vec![0, 1] },
                children: vec![],
                est_rows: rows,
                est_row_bytes: 16.0,
                out_cols: 2,
            },
            PlanNode {
                op: OperatorKind::Filter {
                    pred: Predicate::ColCmp { col: 1, op: CmpOp::Lt, val: 5 },
                },
                children: vec![0],
                est_rows: rows / 2.0,
                est_row_bytes: 16.0,
                out_cols: 2,
            },
        ],
        root: 1,
    }
}

/// A synthetic live trace of `n` evenly spaced snapshots over a scan +
/// filter pipeline that consumes `rows` driver rows in total.
fn synthetic_snapshots(n: usize, rows: u64) -> Vec<Snapshot> {
    (0..n)
        .map(|i| {
            let k0 = rows * (i as u64 + 1) / n as u64;
            let k1 = k0 / 2;
            Snapshot {
                time: (i + 1) as f64,
                k: vec![k0, k1].into_boxed_slice(),
                bytes_read: vec![k0 * 16, 0].into_boxed_slice(),
                bytes_written: vec![0, k1 * 16].into_boxed_slice(),
                materialized: vec![0, 0].into_boxed_slice(),
            }
        })
        .collect()
}

fn bench_incremental_append(c: &mut Criterion) {
    let plan = Arc::new(scan_filter_plan(1_000_000.0));
    let pipelines: Vec<Pipeline> = decompose(&plan);
    let mut group = c.benchmark_group("incremental_append");
    group.sample_size(10);
    for n in [512usize, 2048, 8192] {
        let snaps = synthetic_snapshots(n, 1_000_000);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &snaps, |b, snaps| {
            b.iter(|| {
                let mut obs = IncrementalObs::new(Arc::clone(&plan), &pipelines[0]);
                for (i, s) in snaps.iter().enumerate() {
                    obs.offer(i as u64, s, (0.5, s.time));
                }
                obs.value(EstimatorKind::Dne)
            })
        });
    }
    group.finish();
}

fn bench_monitor_ingest(c: &mut Criterion) {
    let plan = scan_filter_plan(1_000_000.0);
    let mut group = c.benchmark_group("monitor_ingest");
    group.sample_size(10);
    for n in [512usize, 2048, 8192] {
        let snaps = synthetic_snapshots(n, 1_000_000);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &snaps, |b, snaps| {
            b.iter(|| {
                let mut monitor =
                    MonitorBuilder::fixed(EstimatorKind::Dne).build_monitor().expect("build");
                monitor.register(0, &plan);
                for (seq, s) in snaps.iter().enumerate() {
                    monitor.ingest(TraceEvent::Snapshot {
                        query: 0,
                        seq: seq as u64,
                        wall: s.time,
                        snapshot: s.clone(),
                        windows: vec![(0.5, s.time)].into_boxed_slice(),
                    });
                }
                monitor.query_progress(0)
            })
        });
    }
    group.finish();
}

fn bench_serving(c: &mut Criterion) {
    let plan = scan_filter_plan(1_000_000.0);
    let snaps = synthetic_snapshots(4096, 1_000_000);
    let mut monitor = MonitorBuilder::fixed(EstimatorKind::Dne).build_monitor().expect("build");
    monitor.register(0, &plan);
    for (seq, s) in snaps.iter().enumerate() {
        monitor.ingest(TraceEvent::Snapshot {
            query: 0,
            seq: seq as u64,
            wall: s.time,
            snapshot: s.clone(),
            windows: vec![(0.5, s.time)].into_boxed_slice(),
        });
    }
    c.bench_function("serve_query_progress", |b| b.iter(|| monitor.query_progress(0)));
}

/// A scan + filter chain cut by 15 sorts: each sort starts a fresh 4-node
/// segment (the sort plus three streaming filters; the leaf segment is
/// scan plus two filters), so the plan decomposes into exactly 16
/// pipelines of realistic node width — the shape the SoA acceptance bar
/// is stated at.
fn chain16_plan(rows: f64) -> PhysicalPlan {
    let filter = |child: usize| PlanNode {
        op: OperatorKind::Filter { pred: Predicate::ColCmp { col: 1, op: CmpOp::Lt, val: 5 } },
        children: vec![child],
        est_rows: rows,
        est_row_bytes: 16.0,
        out_cols: 2,
    };
    let mut nodes = vec![PlanNode {
        op: OperatorKind::TableScan { table: "t".into(), cols: vec![0, 1] },
        children: vec![],
        est_rows: rows,
        est_row_bytes: 16.0,
        out_cols: 2,
    }];
    nodes.push(filter(0));
    nodes.push(filter(1));
    for _ in 0..15 {
        nodes.push(PlanNode {
            op: OperatorKind::Sort { key_cols: vec![0] },
            children: vec![nodes.len() - 1],
            est_rows: rows,
            est_row_bytes: 16.0,
            out_cols: 2,
        });
        for _ in 0..3 {
            nodes.push(filter(nodes.len() - 1));
        }
    }
    let root = nodes.len() - 1;
    PhysicalPlan { nodes, root }
}

/// A phased synthetic stream over the 16-pipeline chain: snapshots split
/// into 16 phases, and in phase `p` only pipeline `p`'s node counters
/// advance while its activity window extends — the sparsity profile of a
/// real chain of blocking sorts (one active pipeline at a time), which is
/// what makes delta compression representative.
/// One full-snapshot tap emission: counters plus per-pipeline windows.
type SnapEvent = (Snapshot, Box<[(f64, f64)]>);

fn phased_stream(n: usize, rows: u64, pipelines: &[Pipeline], width: usize) -> Vec<SnapEvent> {
    let phases = pipelines.len();
    let mut k = vec![0u64; width];
    let mut br = vec![0u64; width];
    let mut bw = vec![0u64; width];
    let mut win = vec![(f64::INFINITY, f64::NEG_INFINITY); phases];
    let mut out = Vec::with_capacity(n);
    let per_phase = n / phases;
    for i in 0..n {
        let time = (i + 1) as f64;
        let phase = (i / per_phase).min(phases - 1);
        let step = rows / per_phase as u64;
        let active = &pipelines[phase].nodes;
        for &node in active {
            k[node] += step;
        }
        let source = active[0];
        if phase == 0 {
            br[source] += step * 16;
        } else {
            bw[source] += step * 16;
        }
        if !win[phase].0.is_finite() {
            win[phase] = (time, time);
        } else {
            win[phase].1 = time;
        }
        out.push((
            Snapshot {
                time,
                k: k.clone().into_boxed_slice(),
                bytes_read: br.clone().into_boxed_slice(),
                bytes_written: bw.clone().into_boxed_slice(),
                materialized: vec![0; width].into_boxed_slice(),
            },
            win.clone().into_boxed_slice(),
        ));
    }
    out
}

/// One pre-encoded wire event of the delta-compressed tap, as it arrives
/// at the monitor: the full baseline first, sparse diffs after. Emission
/// happens engine-side on both paths, so the A/B times only what the
/// monitor pays per *delivered* event.
enum WireEvent {
    Full(Snapshot, Box<[(f64, f64)]>),
    Delta { time: f64, changes: Box<[CounterUpdate]>, window_updates: Box<[(u32, (f64, f64))]> },
}

/// Per-snapshot monitor ingest cost at 16 pipelines, new stack vs. the
/// pinned pre-PR reference — the PR's A/B. Each side pays what its shard
/// consumption actually costs per delivered event:
///
/// * **soa** — the per-query scratch decoder patches its reusable
///   counter vectors with the sparse delta, the compiled [`BoundsKernel`]
///   refreshes the shared bounds in place from the first dirty
///   topological position, and every pipeline runs the columnar walk over
///   the reconstructed view (`offer_view`). No owned [`Snapshot`] is ever
///   materialized and nothing is allocated per event.
/// * **scalar_reference** — the pre-PR path: the delivered event carries
///   a full owned snapshot, `SnapshotCtx::new` allocates fresh bound
///   vectors (and the topological order) for it, and every pipeline runs
///   the per-node scalar walk (`offer_shared_scalar`).
///
/// Curves are bit-identical between the two sides (the equivalence
/// property nets pin this), so the ratio is pure overhead. Also prints
/// `tap_bytes_per_snapshot`: mean wire bytes per snapshot-bearing event
/// with delta compression on (full baseline + sparse diffs) against a
/// full snapshot.
fn bench_snapshot_cost_16p(c: &mut Criterion) {
    use std::time::Instant;

    let plan = Arc::new(chain16_plan(100_000.0));
    let pipelines: Vec<Pipeline> = decompose(&plan);
    assert_eq!(pipelines.len(), 16, "chain16_plan must decompose into 16 pipelines");
    let n = 2048usize;
    let stream = phased_stream(n, 100_000, &pipelines, plan.len());
    // Pre-encode the delta wire stream (the engine tap's emission work).
    let wire: Vec<WireEvent> = {
        let mut enc = DeltaEncoder::new();
        stream
            .iter()
            .map(|(snap, windows)| match enc.encode(snap, windows) {
                None => WireEvent::Full(snap.clone(), windows.clone()),
                Some((changes, window_updates)) => {
                    WireEvent::Delta { time: snap.time, changes, window_updates }
                }
            })
            .collect()
    };

    let run_soa = |wire: &[WireEvent]| {
        use prosel_engine::trace::DeltaDecoder;
        let mut dec = DeltaDecoder::new();
        let kernel = BoundsKernel::new(&plan);
        let mut ctx = SnapshotCtx::empty();
        let mut obs: Vec<IncrementalObs> =
            pipelines.iter().map(|p| IncrementalObs::new(Arc::clone(&plan), p)).collect();
        for (i, ev) in wire.iter().enumerate() {
            // Patch the per-query scratch and refresh the bounds from the
            // first dirty topological position, then evaluate every
            // pipeline: the always-evaluate path of replay and of the
            // benchmark's shadow (the shard itself narrows both steps to
            // what the moved counters reach).
            let dirty_from = match ev {
                WireEvent::Full(snap, windows) => {
                    dec.apply_full(snap, windows);
                    0
                }
                WireEvent::Delta { time, changes, window_updates } => {
                    assert!(dec.apply_delta(*time, changes, window_updates));
                    changes
                        .iter()
                        .filter(|u| matches!(u.counter, CounterKind::GetNext))
                        .map(|u| kernel.position_of(u.node as usize))
                        .min()
                        .unwrap_or(usize::MAX)
                }
            };
            ctx.refresh_from(&kernel, dec.view().k, dirty_from);
            let view = dec.view();
            let windows = dec.windows();
            for o in &mut obs {
                let pid = o.pipeline_id();
                o.offer_view(i as u64, view, windows[pid], &ctx);
            }
        }
        obs.last().and_then(|o| o.value(EstimatorKind::Dne))
    };
    let run_scalar = |stream: &[SnapEvent]| {
        let mut obs: Vec<IncrementalObs> =
            pipelines.iter().map(|p| IncrementalObs::new(Arc::clone(&plan), p)).collect();
        for (i, (snap, windows)) in stream.iter().enumerate() {
            // Fresh bound vectors per event + scalar walks.
            let ctx = SnapshotCtx::new(&plan, snap);
            for o in &mut obs {
                let pid = o.pipeline_id();
                o.offer_shared_scalar(i as u64, snap, windows[pid], &ctx);
            }
        }
        obs.last().and_then(|o| o.value(EstimatorKind::Dne))
    };
    assert_eq!(
        run_soa(&wire).map(f64::to_bits),
        run_scalar(&stream).map(f64::to_bits),
        "A/B sides must produce bit-identical curves"
    );

    let mut group = c.benchmark_group("snapshot_cost_16p");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("soa", |b| b.iter(|| run_soa(&wire)));
    group.bench_function("scalar_reference", |b| b.iter(|| run_scalar(&stream)));
    group.finish();

    // Direct measurement of the A/B: the two paths are timed in
    // interleaved pairs so clock-frequency and thermal drift over the run
    // hits both sides equally; best-of keeps the ratio a property of the
    // code, not the machine's mood.
    let reps: usize = if std::env::var("PROSEL_BENCH_QUICK").is_ok() { 3 } else { 12 };
    let (mut soa_best, mut scalar_best) = (u64::MAX, u64::MAX);
    for rep in 0..=reps {
        let t = Instant::now();
        std::hint::black_box(run_soa(&wire));
        let soa = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        std::hint::black_box(run_scalar(&stream));
        let scalar = t.elapsed().as_nanos() as u64;
        if rep > 0 {
            // rep 0 is warmup
            soa_best = soa_best.min(soa);
            scalar_best = scalar_best.min(scalar);
        }
    }
    let soa_ns = soa_best / n as u64;
    let scalar_ns = scalar_best / n as u64;
    println!(
        "snapshot_cost_16p: soa {soa_ns} ns/snapshot, scalar reference {scalar_ns} ns/snapshot \
         ({:.2}x)",
        scalar_ns as f64 / soa_ns.max(1) as f64
    );

    // Wire cost with delta compression on: full baseline + sparse diffs.
    let mut enc = DeltaEncoder::new();
    let mut bytes = 0usize;
    for (snap, windows) in &stream {
        bytes += match enc.encode(snap, windows) {
            None => TraceEvent::Snapshot {
                query: 0,
                seq: 0,
                wall: snap.time,
                snapshot: snap.clone(),
                windows: windows.clone(),
            }
            .payload_bytes(),
            Some((changes, window_updates)) => TraceEvent::Delta {
                query: 0,
                seq: 0,
                wall: snap.time,
                time: snap.time,
                changes,
                window_updates,
            }
            .payload_bytes(),
        };
    }
    let delta_bytes = bytes / n;
    let full_bytes = TraceEvent::Snapshot {
        query: 0,
        seq: 0,
        wall: 0.0,
        snapshot: stream[0].0.clone(),
        windows: stream[0].1.clone(),
    }
    .payload_bytes();
    println!(
        "tap_bytes_per_snapshot: {delta_bytes} B with deltas vs {full_bytes} B full ({:.2}x)",
        full_bytes as f64 / delta_bytes.max(1) as f64
    );
}

criterion_group!(
    benches,
    bench_incremental_append,
    bench_monitor_ingest,
    bench_serving,
    bench_snapshot_cost_16p
);
criterion_main!(benches);
