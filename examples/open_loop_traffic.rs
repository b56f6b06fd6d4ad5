//! Open-loop traffic against a live monitor service, end to end:
//!
//! 1. describe a scenario as a [`TrafficSpec`];
//! 2. capture plan templates once ([`TemplateSet::build`] — the only
//!    queries that really execute);
//! 3. replay the Zipf-skewed schedule against a sharded
//!    `MonitorService`, with progress/ETA reads and selector hot-swaps
//!    issued while events stream.
//!
//! Run with: `cargo run --release --example open_loop_traffic`

use prosel_bench::traffic::{drive, schedule, TemplateSet, TrafficSpec};

fn main() {
    // The smoke profile: 800 queries over all six paper workloads in a
    // couple of seconds. Swap in TrafficSpec::quick()/full() for the
    // bigger scenarios.
    let spec = TrafficSpec::smoke();
    println!("spec: {spec:#?}");

    let arrivals = schedule(&spec);
    let horizon = arrivals.last().map_or(0.0, |a| a.at);
    println!(
        "schedule: {} arrivals over {horizon:.2} virtual seconds, first {{q{} w{} t{}}}",
        arrivals.len(),
        arrivals[0].query,
        arrivals[0].workload,
        arrivals[0].template,
    );

    let templates = TemplateSet::build(&spec);
    println!("captured {} plan templates\n", templates.len());

    let out = drive(&spec, &templates);
    let c = &out.metrics.counters;
    println!("drive: {} finished / {} arrivals", c.finished, c.arrivals);
    println!("  ingest        {} events ({} B)", c.events_sent, c.event_bytes);
    println!("  reads         {}", c.reads);
    println!("  swaps         {}", c.swaps);
    println!("  admission     peak queue {} / max in flight {}", c.queue_peak, c.max_in_flight);
    println!(
        "  conservation  ingested {} unroutable {} dropped {}",
        out.stats.events_ingested, out.stats.events_unroutable, out.stats.queries_dropped
    );
    match out.metrics.violations.len() {
        0 => println!("  invariants    all clean"),
        n => {
            println!("  invariants    {n} VIOLATIONS");
            for v in &out.metrics.violations {
                println!("    - {v}");
            }
        }
    }
    println!(
        "\ndeterministic digests: schedule {:016x}, reads {:016x}",
        out.schedule_digest, out.reads_digest
    );
}
