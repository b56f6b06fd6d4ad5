//! Quickstart: train an estimator selector and monitor a query with it.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use prosel::core::pipeline_runs::collect_workload_records;
use prosel::core::selection::{EstimatorSelector, SelectorConfig};
use prosel::core::training::TrainingSet;
use prosel::engine::{run_plan_tapped, Catalog, ExecConfig, TraceEvent};
use prosel::monitor::MonitorBuilder;
use prosel::planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel::planner::PlanBuilder;

fn main() {
    // 1. Build a TPC-H-shaped database + workload and execute it, gathering
    //    one labelled record per pipeline (features + per-estimator errors).
    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 0x5eed).with_queries(120);
    println!("collecting training data from {} ...", spec.label());
    let records = collect_workload_records(&spec).expect("workload runs");
    println!("  {} pipeline records", records.len());

    // 2. Train the selector: one MART error model per candidate estimator.
    let train = TrainingSet::from_records(&records);
    let selector = EstimatorSelector::train(&train, &SelectorConfig::default());
    println!("selector trained ({} candidates)", selector.config().candidates.len());

    // 3. Use it on a fresh query (different template parameters): register
    //    the plan with a monitor before it runs, tap the execution into it.
    let fresh = WorkloadSpec::new(WorkloadKind::TpchLike, 0xD1FF).with_queries(3);
    let w = materialize(&fresh);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let plan = builder.build(&w.queries[0]).expect("plan");
    println!("\nfresh query plan:\n{}", plan.render());

    let mut monitor = MonitorBuilder::with_selector(selector).build_monitor().expect("build");
    monitor.register(0, &plan);
    println!("per-pipeline estimator choices from static features:");
    for p in &monitor.status(0).expect("registered").pipelines {
        println!("  pipeline {}: start with {}", p.pipeline, p.estimator.name());
    }

    let (tap, events) = std::sync::mpsc::channel();
    let run = run_plan_tapped(&catalog, &plan, &ExecConfig::default(), 0, tap);
    // The served curve: what the monitor reported after each snapshot, as
    // (virtual time, estimate), against the elapsed-time fraction.
    let mut points = Vec::new();
    for ev in events.try_iter() {
        let observed = matches!(ev, TraceEvent::Snapshot { .. } | TraceEvent::Delta { .. });
        monitor.ingest(ev);
        if observed {
            let status = monitor.status(0).expect("registered");
            points.push((status.time, status.progress));
        }
    }
    assert_eq!(monitor.query_progress(0), Some(1.0), "a finished query reads exactly 1");
    println!("revisions from dynamic features while it ran:");
    for s in monitor.switch_history(0).expect("registered") {
        println!(
            "  pipeline {}: revised {} -> {} at t={:.0}",
            s.pipeline,
            s.from.name(),
            s.to.name(),
            s.time
        );
    }

    println!("\nprogress report (true vs estimated):");
    let truth = |time: f64| (time / run.trace.total_time).clamp(0.0, 1.0);
    let step = (points.len() / 12).max(1);
    for &(time, estimate) in points.iter().step_by(step) {
        let bar = "#".repeat((estimate * 30.0) as usize);
        println!(
            "  t={time:9.0}  true {:5.1}%  est {:5.1}%  {bar}",
            truth(time) * 100.0,
            estimate * 100.0
        );
    }
    let l1 = points.iter().map(|&(time, estimate)| (estimate - truth(time)).abs()).sum::<f64>()
        / points.len().max(1) as f64;
    println!("\nmean |estimate - truth| over the run: {l1:.4}");
}
