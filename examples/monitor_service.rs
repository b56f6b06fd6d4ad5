//! Sharded, concurrent-safe progress monitoring of N live queries.
//!
//! Where `sql_monitor` drains a channel on one thread, this example runs
//! the production-shaped service: a [`MonitorService`] owns several shard
//! workers, the engine's tapped run routes every event straight to the
//! shard owning its query (no broadcast, no shared locks), and the main
//! thread — or any number of threads — reads live progress *while ingest
//! is running* via round-trips to shard-owned state.
//!
//! ```text
//! cargo run --example monitor_service --release
//! cargo run --example monitor_service --release -- 8 4   # 8 queries, 4 shards
//! ```

use prosel::engine::{run_concurrent_tapped, Catalog, ExecConfig};
use prosel::estimators::EstimatorKind;
use prosel::monitor::MonitorBuilder;
use prosel::planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel::planner::PlanBuilder;
use std::time::Duration;

fn bar(p: f64) -> String {
    let filled = (p * 24.0).round() as usize;
    format!("[{}{}]", "#".repeat(filled), "-".repeat(24 - filled))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n_queries: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(6).clamp(1, 12);
    let n_shards: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4).clamp(1, 16);

    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 0xFEED).with_queries(n_queries);
    let w = materialize(&spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let plans: Vec<_> =
        w.queries.iter().take(n_queries).map(|q| builder.build(q).expect("plan")).collect();

    // The service owns its shard workers; registration is routed to the
    // shard that will own each query (query % n_shards).
    let service =
        MonitorBuilder::fixed(EstimatorKind::Dne).shards(n_shards).build_service().expect("build");
    for (qi, plan) in plans.iter().enumerate() {
        service.register(qi, plan);
        println!(
            "registered q{qi} on shard {}: {} nodes, {} pipelines",
            qi % n_shards,
            plan.len(),
            service.status(qi).expect("registered").pipelines.len()
        );
    }

    println!("\nrunning {n_queries} queries concurrently across {n_shards} monitor shards ...\n");
    std::thread::scope(|scope| {
        // The engine streams into the service's routed tap: each event
        // goes to exactly one shard worker, never through the main thread.
        let worker = {
            let tap = service.tap();
            let plans = &plans;
            let catalog = &catalog;
            scope.spawn(move || run_concurrent_tapped(catalog, plans, &ExecConfig::default(), tap))
        };

        // Main thread = one of arbitrarily many concurrent readers.
        loop {
            std::thread::sleep(Duration::from_millis(40));
            let line: Vec<String> = (0..n_queries)
                .map(|qi| {
                    let p = service.query_progress(qi).unwrap_or(0.0);
                    // Remaining-time answers ride the same routed reads;
                    // the interval is the min/max trailing speed.
                    let eta = match service.remaining_time(qi) {
                        Ok(e) if e.is_known() => format!(
                            "{:4.0}ms [{:.0},{:.0}]",
                            e.remaining * 1e3,
                            e.remaining_lo * 1e3,
                            e.remaining_hi * 1e3
                        ),
                        _ => "   ?ms".to_string(),
                    };
                    format!("q{qi} {} {:3.0}% eta{eta}", bar(p), p * 100.0)
                })
                .collect();
            println!("{}", line.join("  "));
            if (0..n_queries).all(|qi| service.is_finished(qi) == Ok(true)) {
                break;
            }
        }

        let runs = worker.join().expect("worker");
        println!("\nall queries finished:");
        for (qi, run) in runs.iter().enumerate() {
            let st = service.status(qi).expect("registered");
            assert!(st.finished && st.progress == 1.0);
            println!(
                "  q{qi} (shard {}): {} rows, {} pipelines, served progress {:.2}",
                qi % n_shards,
                run.result_rows,
                run.pipelines.len(),
                st.progress
            );
        }
    });
    service.shutdown();
}
