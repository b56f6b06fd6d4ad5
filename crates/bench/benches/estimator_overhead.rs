//! Per-observation cost of computing every candidate estimator — the
//! paper's "low overhead" requirement: all estimators derive from the
//! same few counters, so tracking all of them costs barely more than one.

use criterion::{criterion_group, criterion_main, Criterion};
use prosel_engine::{run_plan, Catalog, ExecConfig};
use prosel_estimators::{EstimatorKind, PipelineObs, TraceCtx};
use prosel_planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel_planner::PlanBuilder;
use std::hint::black_box;

fn bench_estimators(c: &mut Criterion) {
    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 5).with_queries(4);
    let w = materialize(&spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let plan = builder.build(&w.queries[1]).expect("plan");
    let run = run_plan(&catalog, &plan, &ExecConfig::default());
    let ctx = TraceCtx::new(&run);
    let pid = (0..run.pipelines.len())
        .max_by_key(|&p| PipelineObs::with_ctx(&run, p, &ctx).map_or(0, |o| o.len()))
        .unwrap();

    let mut group = c.benchmark_group("estimators");
    // Building the per-pipeline observation state (bounds, aggregates).
    group.bench_function("pipeline_obs_build", |b| {
        b.iter(|| black_box(PipelineObs::with_ctx(&run, pid, &TraceCtx::new(&run)).unwrap()))
    });
    // Rendering one estimator curve from the prepared state.
    let obs = PipelineObs::with_ctx(&run, pid, &ctx).unwrap();
    for kind in [EstimatorKind::Dne, EstimatorKind::Tgn, EstimatorKind::Luo] {
        group.bench_function(format!("curve_{}", kind.name()), |b| {
            b.iter(|| black_box(obs.curve(kind)))
        });
    }
    // All eight candidates together (what a training pass does).
    group.bench_function("curve_all8", |b| {
        b.iter(|| {
            for kind in EstimatorKind::CANDIDATES {
                black_box(obs.curve(kind));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_estimators);
criterion_main!(benches);
