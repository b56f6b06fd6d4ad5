//! Extension experiment: the open-loop traffic soak as a reported
//! scenario (ISSUE 6 / ROADMAP "millions of queries as a first-class
//! scenario").
//!
//! Two drives of the same [`TrafficSpec`] over one captured
//! [`TemplateSet`]:
//!
//! 1. **serve-only** — the deterministic baseline: registrations, skewed
//!    event replay, progress/ETA reads and driver-issued hot-swaps, no
//!    background work;
//! 2. **serve+retrain** — the same schedule with a harvest sink and a
//!    background [`prosel_learn::Trainer`] retraining on finished queries
//!    and hot-swapping promoted models concurrently.
//!
//! The table reports what both drives count — finished queries, wire
//! bytes per event, admission queue peak, invariant violations — and
//! prints the same on every run. How fast the service serves is the
//! benchmark's to measure (`benchmark/`).

use crate::report::Table;
use crate::suite::{ExpScale, Suite};
use crate::traffic::{drive_with, DriveOptions, TemplateSet, TrafficOutcome, TrafficSpec};

/// The spec driven at each scale.
pub fn spec_for(scale: ExpScale) -> TrafficSpec {
    match scale {
        ExpScale::Smoke => TrafficSpec::smoke(),
        ExpScale::Quick => TrafficSpec::quick(),
        ExpScale::Full => TrafficSpec::full(),
    }
}

fn row_of(label: &str, out: &TrafficOutcome) -> Vec<String> {
    let c = &out.metrics.counters;
    vec![
        label.into(),
        c.finished.to_string(),
        format!("{:.0}", out.metrics.bytes_per_event()),
        c.queue_peak.to_string(),
        out.metrics.violations.len().to_string(),
    ]
}

pub fn run(_suite: &mut Suite, scale: ExpScale) -> String {
    let spec = spec_for(scale);
    let templates = TemplateSet::build(&spec);
    let serve = drive_with(&spec, &templates, DriveOptions::default());
    let retrain = drive_with(&spec, &templates, DriveOptions { retrain: true });

    let mut table = Table::new(
        "Extension — open-loop traffic soak: serving with and without background retraining",
        &["mode", "finished", "B/event", "queue peak", "violations"],
    );
    table.row(&row_of("serve", &serve));
    table.row(&row_of("serve+retrain", &retrain));

    let mut out = table.render();
    out.push_str(&format!(
        "{} arrivals ({} shards, window {}), schedule digest {:016x}; \
         serve-only reads digest {:016x} (deterministic per spec).\n\
         retrain drive: {} harvests absorbed by the background trainer.\n",
        serve.metrics.counters.arrivals,
        spec.n_shards,
        spec.max_concurrency,
        serve.schedule_digest,
        serve.reads_digest,
        retrain.stats.harvests,
    ));
    for (v, mode) in serve
        .metrics
        .violations
        .iter()
        .map(|v| (v, "serve"))
        .chain(retrain.metrics.violations.iter().map(|v| (v, "serve+retrain")))
    {
        out.push_str(&format!("VIOLATION [{mode}]: {v}\n"));
    }

    println!("{out}");
    out
}
