//! Scraping a live monitor: wait-free metrics, the trace ring, and the
//! text exposition codec, end to end.
//!
//! A sharded [`MonitorService`] serves a concurrent engine run while this
//! thread scrapes its [`MetricsRegistry`] on a cadence — event and read
//! counters, tap volume — then hot-swaps a selector so
//! the trace ring has structured events to show, and finally round-trips
//! the whole scrape through the checksummed text exposition.
//!
//! Everything the hot paths pay for this is a few relaxed atomic adds:
//! the scrape side (this thread) does all the locking and allocation.
//!
//! ```text
//! cargo run --example observability --release
//! ```

use prosel::core::pipeline_runs::collect_workload_records;
use prosel::core::selection::{EstimatorSelector, SelectorConfig};
use prosel::core::training::TrainingSet;
use prosel::engine::{run_concurrent_tapped, Catalog, ExecConfig};
use prosel::estimators::EstimatorKind;
use prosel::mart::BoostParams;
use prosel::monitor::MonitorBuilder;
use prosel::obs::{MetricsRegistry, MetricsSnapshot};
use prosel::planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel::planner::PlanBuilder;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let n_queries = 8;
    let n_shards = 3;

    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 0x0B5).with_queries(n_queries);
    let w = materialize(&spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let plans: Vec<_> =
        w.queries.iter().take(n_queries).map(|q| builder.build(q).expect("plan")).collect();

    // Inject the registry so this thread can scrape it directly; a
    // service built without `.metrics(...)` still creates a private one
    // behind `service.metrics()`.
    let registry = Arc::new(MetricsRegistry::new());
    let service = MonitorBuilder::fixed(EstimatorKind::Dne)
        .shards(n_shards)
        .metrics(Arc::clone(&registry))
        .build_service()
        .expect("DNE is an online kind");
    for (qi, plan) in plans.iter().enumerate() {
        service.register(qi, plan);
    }

    println!("serving {n_queries} queries over {n_shards} shards, scraping every 10ms ...\n");
    std::thread::scope(|scope| {
        let worker = {
            let tap = service.tap();
            let plans = &plans;
            let catalog = &catalog;
            scope.spawn(move || run_concurrent_tapped(catalog, plans, &ExecConfig::default(), tap))
        };

        // The scrape loop: each snapshot is a consistent point-in-time
        // map; `diff` against the previous one turns the monotone
        // counters into per-interval rates.
        let mut prev: Option<MetricsSnapshot> = None;
        loop {
            std::thread::sleep(Duration::from_millis(10));
            // Reads never queue behind ingest and are themselves counted
            // (`service_reads_total`); 1 in `prosel::obs::SAMPLE_EVERY` is
            // timed into `service_read_ns`.
            let progress: f64 =
                (0..n_queries).map(|qi| service.query_progress(qi).unwrap_or(0.0)).sum::<f64>()
                    / n_queries as f64;
            let snap = service.metrics();
            let ingested = snap.sum_counters("_events_ingested_total");
            let delta = prev
                .as_ref()
                .map(|p| snap.diff(p).sum_counters("_events_ingested_total"))
                .unwrap_or(ingested);
            let reads = snap.counter("service_reads_total").unwrap_or(0);
            let tap_bytes = snap.counter("tap_bytes_total").unwrap_or(0);
            println!(
                "scrape: progress {:3.0}% | {ingested:>6} events ingested (+{delta:<5}) | \
                 {reads:>4} reads | {tap_bytes:>8} tap bytes",
                progress * 100.0,
            );
            prev = Some(snap);
            let done = (0..n_queries).all(|qi| service.is_finished(qi) == Ok(true));
            if done {
                break;
            }
        }
        worker.join().expect("worker");
    });

    // Give the ring something structured to report: train a small
    // selector offline and hot-swap it in.
    let bootstrap = WorkloadSpec::new(WorkloadKind::TpchLike, 0xB00).with_queries(4);
    let records = collect_workload_records(&bootstrap).expect("bootstrap workload");
    let selector = Arc::new(EstimatorSelector::train(
        &TrainingSet::from_records(&records),
        &SelectorConfig {
            boost: BoostParams { iterations: 4, ..BoostParams::fast() },
            ..SelectorConfig::default()
        },
    ));
    let epoch = service.swap_selector(selector).expect("all shards alive");
    println!("\nhot-swapped a trained selector: epoch {epoch}");
    for rec in service.trace_ring().recent() {
        println!("  trace ring @{:.3}: {:?}", rec.at, rec.event);
    }

    // The scrape artifact round-trips bit-identically through the strict
    // checksummed text exposition — what a sidecar collector would parse.
    let snap = service.metrics();
    let text = snap.render_text();
    let parsed = MetricsSnapshot::parse_text(&text).expect("own exposition parses");
    assert_eq!(parsed, snap, "exposition must round-trip");
    println!("\nfinal exposition ({} bytes, {} series):", text.len(), snap.samples.len());
    print!("{text}");

    service.shutdown();
}
