//! Cost of extracting the ~210-dimensional feature vector for a pipeline
//! (the paper: "about 200 double values" written per query — must be
//! negligible next to execution).

use criterion::{criterion_group, criterion_main, Criterion};
use prosel_core::features;
use prosel_engine::{run_plan, Catalog, ExecConfig};
use prosel_estimators::PipelineObs;
use prosel_planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel_planner::PlanBuilder;
use std::hint::black_box;

fn bench_features(c: &mut Criterion) {
    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 5).with_queries(4);
    let w = materialize(&spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let plan = builder.build(&w.queries[1]).expect("plan");
    let run = run_plan(&catalog, &plan, &ExecConfig::default());
    let ctx = prosel_estimators::TraceCtx::new(&run);
    let pid = (0..run.pipelines.len())
        .max_by_key(|&p| PipelineObs::with_ctx(&run, p, &ctx).map_or(0, |o| o.len()))
        .unwrap();
    let obs = PipelineObs::with_ctx(&run, pid, &ctx).unwrap();

    c.bench_function("feature_extract_full", |b| {
        b.iter(|| black_box(features::extract(&run.plan, &obs)))
    });
}

criterion_group!(benches, bench_features);
criterion_main!(benches);
