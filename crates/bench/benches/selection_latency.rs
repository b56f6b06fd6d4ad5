//! End-to-end selection latency: predicted-error evaluation across all
//! candidate models for one pipeline's features (what happens each time a
//! pipeline starts / revises its estimator choice).
//!
//! Besides criterion's view of `select`, two interleaved A/Bs (paired
//! runs, order alternated per rep, best-of, rep 0 as warm-up) are printed:
//!
//! * walk vs forest — scoring all six candidates by the per-node pointer
//!   walk (kept here as the reference; the library no longer has one)
//!   against the compiled forest, at 60 and 200 boosting rounds, over the
//!   held-out rows in rotation so the walk's branches see fresh data;
//! * `extract` vs `extract_into` — the allocating dynamic-feature wrapper
//!   against extraction into a reused buffer, on the live
//!   `IncrementalObs` view.

use criterion::{criterion_group, criterion_main, Criterion};
use prosel_core::features::dynamic_features;
use prosel_core::pipeline_runs::collect_workload_records;
use prosel_core::selection::{EstimatorSelector, SelectorConfig};
use prosel_core::training::TrainingSet;
use prosel_engine::{run_plan, Catalog, ExecConfig};
use prosel_estimators::soa::BoundsKernel;
use prosel_estimators::{EstimatorKind, IncrementalObs, SnapshotCtx};
use prosel_mart::{BoostParams, Mart, RegressionTree};
use prosel_planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel_planner::PlanBuilder;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The per-node pointer walk the compiled forest replaced.
fn walk(tree: &RegressionTree, row: &[f32]) -> f32 {
    let mut n = &tree.nodes[0];
    while !n.is_leaf() {
        let next = if row[n.feature as usize] <= n.threshold { n.left } else { n.right };
        n = &tree.nodes[next as usize];
    }
    n.value
}

fn walk_predict(model: &Mart, row: &[f32]) -> f32 {
    let mut acc = model.base();
    for tree in model.trees() {
        acc += model.shrinkage() * walk(tree, row);
    }
    acc
}

/// Mean nanoseconds per call of `f` over `calls` calls.
fn per_call(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..calls {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / calls as f64
}

/// Interleaved best-of A/B of two closures; returns `(a_ns, b_ns)`.
fn interleaved(
    reps: usize,
    calls: usize,
    mut a: impl FnMut(usize),
    mut b: impl FnMut(usize),
) -> (f64, f64) {
    let (mut best_a, mut best_b) = (f64::MAX, f64::MAX);
    for rep in 0..=reps {
        let (ns_a, ns_b) = if rep % 2 == 0 {
            let ns_a = per_call(calls, &mut a);
            (ns_a, per_call(calls, &mut b))
        } else {
            let ns_b = per_call(calls, &mut b);
            (per_call(calls, &mut a), ns_b)
        };
        if rep > 0 {
            best_a = best_a.min(ns_a);
            best_b = best_b.min(ns_b);
        }
    }
    (best_a, best_b)
}

/// A mid-run live observation state with the most observations the
/// workload's first queries offer.
fn live_observation() -> IncrementalObs {
    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 5).with_queries(4);
    let w = materialize(&spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let mut best: Option<IncrementalObs> = None;
    for q in &w.queries {
        let plan = builder.build(q).expect("plan");
        let run = run_plan(&catalog, &plan, &ExecConfig::default());
        let plan = Arc::new(run.plan.clone());
        let kernel = BoundsKernel::new(&plan);
        let mut ctx = SnapshotCtx::empty();
        for (pid, pipeline) in run.pipelines.iter().enumerate() {
            let mut obs = IncrementalObs::new(Arc::clone(&plan), pipeline);
            let (start, end) = run.trace.pipeline_windows[pid];
            for (j, snap) in run.trace.snapshots.iter().enumerate() {
                ctx.recompute(&kernel, &snap.k);
                obs.offer_view(j as u64, snap.as_view(), (start, end.min(snap.time)), &ctx);
            }
            if best.as_ref().is_none_or(|b| obs.len() > b.len()) {
                best = Some(obs);
            }
        }
    }
    best.expect("at least one pipeline")
}

fn bench_selection(c: &mut Criterion) {
    let quick = std::env::var("PROSEL_BENCH_QUICK").is_ok();
    let (reps, calls) = if quick { (3, 2_000) } else { (10, 20_000) };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 5).with_queries(60);
    let records = collect_workload_records(&spec).expect("records");
    let train = TrainingSet::from_records(&records);
    let rows: Vec<&[f32]> = records.iter().map(|r| &r.features[..]).collect();

    for rounds in [60usize, 200] {
        let cfg = SelectorConfig::default()
            .with_boost(BoostParams { iterations: rounds, ..BoostParams::default() });
        let selector = EstimatorSelector::train(&train, &cfg);
        let models: Vec<&Mart> =
            EstimatorKind::EXTENDED.iter().map(|&k| selector.model(k).expect("model")).collect();
        for row in &rows {
            for (model, (_, got)) in models.iter().zip(selector.predicted_errors(row)) {
                assert_eq!(got.to_bits(), walk_predict(model, row).to_bits());
            }
        }
        if rounds == 200 {
            c.bench_function("selector_select_one_pipeline", |b| {
                b.iter(|| black_box(selector.select(rows[0])))
            });
        }
        let mut errors = [0.0f32; EstimatorKind::EXTENDED.len()];
        let (walk_ns, forest_ns) = interleaved(
            reps,
            calls,
            |i| {
                for model in &models {
                    black_box(walk_predict(model, black_box(rows[i % rows.len()])));
                }
            },
            |i| {
                selector.predict_into(black_box(rows[i % rows.len()]), &mut errors);
                black_box(&errors);
            },
        );
        println!(
            "selection_latency: {rounds} rounds x {} candidates: walk {walk_ns:.0} ns, \
             compiled forest {forest_ns:.0} ns ({:.2}x) [{cores} core(s)]",
            models.len(),
            walk_ns / forest_ns
        );
    }

    let obs = live_observation();
    let mut buf = Vec::new();
    let (extract_ns, into_ns) = interleaved(
        reps,
        calls,
        |_| {
            black_box(dynamic_features::extract(black_box(&obs)));
        },
        |_| {
            buf.clear();
            dynamic_features::extract_into(black_box(&obs), &mut buf);
            black_box(&buf);
        },
    );
    println!(
        "selection_latency: dynamic features over {} observations: extract {extract_ns:.0} ns, \
         extract_into {into_ns:.0} ns [{cores} core(s)]",
        obs.len()
    );
}

criterion_group!(benches, bench_selection);
criterion_main!(benches);
