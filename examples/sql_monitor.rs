//! Live, online progress monitoring of N concurrent queries.
//!
//! The production-shaped path: queries are registered with the
//! long-lived monitor before they execute, the engine streams snapshots
//! over a channel while the workload runs on a worker thread, and the
//! main thread serves live progress readouts from prefix-only
//! observations — re-selecting estimators as dynamic features arrive.
//!
//! ```text
//! cargo run --example sql_monitor --release
//! cargo run --example sql_monitor --release -- 6   # six concurrent queries
//! ```

use prosel::core::pipeline_runs::collect_workload_records;
use prosel::core::selection::{EstimatorSelector, SelectorConfig};
use prosel::core::training::TrainingSet;
use prosel::engine::{run_concurrent_tapped, Catalog, ConcurrentConfig};
use prosel::mart::BoostParams;
use prosel::monitor::MonitorBuilder;
use prosel::planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel::planner::PlanBuilder;

fn bar(p: f64) -> String {
    let filled = (p * 24.0).round() as usize;
    format!("[{}{}]", "#".repeat(filled), "-".repeat(24 - filled))
}

fn main() {
    let n_queries: usize =
        std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(4).clamp(1, 12);

    // One TPC-H-shaped database: training workload + the live batch.
    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 0xCAFE).with_queries(60);
    let w = materialize(&spec);
    println!("training selector on {} ...", spec.label());
    let records = collect_workload_records(&spec).expect("training workload");
    let selector = EstimatorSelector::train(
        &TrainingSet::from_records(&records),
        &SelectorConfig::default().with_boost(BoostParams::fast()),
    );

    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let plans: Vec<_> =
        w.queries.iter().take(n_queries).map(|q| builder.build(q).expect("plan")).collect();

    // Register every query with the monitor *before* execution: static
    // features, pipeline weights and the initial estimator choices all
    // come from the plans alone.
    let mut monitor = MonitorBuilder::with_selector(selector).build_monitor().expect("build");
    for (qi, plan) in plans.iter().enumerate() {
        monitor.register(qi, plan);
        println!(
            "registered q{qi}: {} nodes, {} pipelines, initial choice(s): {}",
            plan.len(),
            monitor.status(qi).expect("registered").pipelines.len(),
            monitor
                .status(qi)
                .expect("registered")
                .pipelines
                .iter()
                .map(|p| p.estimator.name())
                .collect::<Vec<_>>()
                .join(",")
        );
    }

    // The engine runs the batch on a worker thread, streaming snapshots
    // over the channel; the main thread plays the role of the monitoring
    // service, draining events and printing a live readout.
    let (tap, rx) = std::sync::mpsc::channel();
    let catalog = Catalog::new(&w.db, &w.design);
    println!("\nrunning {n_queries} queries concurrently ...\n");
    std::thread::scope(|scope| {
        let plans_ref = &plans;
        let catalog_ref = &catalog;
        let worker = scope.spawn(move || {
            run_concurrent_tapped(catalog_ref, plans_ref, &ConcurrentConfig::default(), tap)
        });

        let mut events = 0usize;
        let mut next_report = 50usize;
        // Block on the stream until every sender hangs up (workload done).
        while let Ok(ev) = rx.recv() {
            monitor.ingest(ev);
            events += 1;
            if events >= next_report {
                next_report += 50;
                let line: Vec<String> = (0..n_queries)
                    .map(|qi| {
                        let p = monitor.query_progress(qi).unwrap_or(0.0);
                        // Wall-clock ETA from the trailing speed window
                        // (SystemClock stamps, so real milliseconds here).
                        let eta = match monitor.remaining_time(qi) {
                            Some(e) if e.is_known() => format!("{:5.1}ms", e.remaining * 1e3),
                            _ => "    ?ms".to_string(),
                        };
                        format!("q{qi} {} {:3.0}% eta{eta}", bar(p), p * 100.0)
                    })
                    .collect();
                println!(
                    "t={:9.0}  {}",
                    monitor.status(0).map_or(0.0, |s| s.time),
                    line.join("  ")
                );
            }
        }
        let runs = worker.join().expect("worker");

        println!("\nall queries finished:");
        for (qi, run) in runs.iter().enumerate() {
            let st = monitor.status(qi).expect("registered");
            assert!(st.finished && st.progress == 1.0);
            let eta = monitor.remaining_time(qi).expect("registered");
            assert!(eta.is_known() && eta.remaining == 0.0, "terminal ETA pins to zero");
            let switches = monitor.switch_history(qi).expect("registered");
            println!(
                "  q{qi}: {} rows, {} pipelines, {} estimator switch(es){}",
                run.result_rows,
                run.pipelines.len(),
                switches.len(),
                if switches.is_empty() {
                    String::new()
                } else {
                    format!(
                        " [{}]",
                        switches
                            .iter()
                            .map(|s| format!(
                                "p{}@t{:.0} {}->{}",
                                s.pipeline,
                                s.time,
                                s.from.name(),
                                s.to.name()
                            ))
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                }
            );
        }
    });
}
