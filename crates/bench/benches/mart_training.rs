//! MART training throughput (Table 7's companion): time per model as a
//! function of example count at the paper's M=200 / 30 leaves, and the
//! selector's six error models over one shared feature matrix at the
//! shape the benchmark's `learn_cycle` bootstraps (`selector_train/
//! six_candidates_m120`, mean seconds per `EstimatorSelector::train`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use prosel_core::pipeline_runs::collect_workload_records;
use prosel_core::selection::{EstimatorSelector, SelectorConfig};
use prosel_core::training::TrainingSet;
use prosel_datagen::TuningLevel;
use prosel_mart::{BoostParams, Dataset, Mart};
use prosel_planner::workload::{WorkloadKind, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

fn synthetic(n: usize, d: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Dataset::new(d);
    let mut row = vec![0.0f32; d];
    for _ in 0..n {
        for v in row.iter_mut() {
            *v = rng.random_range(-1.0..1.0);
        }
        let y = row[0] * 2.0 - row[1] + row[2] * row[2];
        data.push(&row, y);
    }
    data
}

fn bench_mart(c: &mut Criterion) {
    let mut group = c.benchmark_group("mart_train");
    group.sample_size(10);
    for &n in &[500usize, 3000] {
        let data = synthetic(n, 200, 7);
        group.bench_with_input(BenchmarkId::new("m200_leaves30", n), &data, |b, data| {
            b.iter(|| black_box(Mart::train(data, &BoostParams::default())))
        });
    }
    // Prediction latency (selection-time inference).
    let data = synthetic(3000, 200, 7);
    let model = Mart::train(&data, &BoostParams::default());
    group.bench_function("predict_one", |b| b.iter(|| black_box(model.predict(data.row(3)))));
    group.finish();
}

/// `learn_cycle`'s bootstrap set: 150 untuned TPC-H-like plus 150
/// partially tuned Real-1 queries at scale 0.25 — about 470 pipelines
/// over the full static-plus-dynamic feature vector.
fn bootstrap_set() -> TrainingSet {
    let corpus = |kind, seed, tuning| {
        let spec =
            WorkloadSpec::new(kind, seed).with_queries(150).with_scale(0.25).with_tuning(tuning);
        collect_workload_records(&spec).expect("records")
    };
    let mut records = corpus(WorkloadKind::TpchLike, 22, TuningLevel::Untuned);
    records.extend(corpus(WorkloadKind::Real1, 23, TuningLevel::PartiallyTuned));
    TrainingSet::from_records(&records)
}

fn bench_selector_train(_c: &mut Criterion) {
    let train = bootstrap_set();
    let cfg = SelectorConfig::default()
        .with_boost(BoostParams { iterations: 120, ..BoostParams::fast() });
    let quick = std::env::var("PROSEL_BENCH_QUICK").is_ok();
    let reps = if quick { 2 } else { 6 };
    black_box(EstimatorSelector::train(&train, &cfg));
    let start = Instant::now();
    for _ in 0..reps {
        black_box(EstimatorSelector::train(black_box(&train), &cfg));
    }
    let seconds = start.elapsed().as_secs_f64() / reps as f64;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "selector_train/six_candidates_m120: {} candidates x 120 rounds over {} x {}: \
         {seconds:.3} s per train [{cores} core(s), single-threaded]",
        cfg.candidates.len(),
        train.len(),
        cfg.mode.dims()
    );
}

criterion_group!(benches, bench_selector_train, bench_mart);
criterion_main!(benches);
