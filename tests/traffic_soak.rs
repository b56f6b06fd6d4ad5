//! The open-loop traffic soak: [`TrafficSpec::quick`] drives ≥ 10k
//! queries through a multi-shard [`prosel_monitor::MonitorService`] and
//! every scenario invariant must hold with zero violations:
//!
//! * no arrival is dropped or duplicated — every scheduled query is
//!   registered exactly once and reaches `Finished`;
//! * progress/ETA reads of a registered query never fail;
//! * selector-swap epochs are strictly monotone;
//! * the shard counters obey the event conservation law (every sent
//!   event was ingested by exactly one shard, none unroutable, none
//!   defensively dropped) and no query state leaks past the drain;
//! * the whole run is deterministic: two drives of one spec produce
//!   byte-identical schedules, identical read-value digests and
//!   identical invariant reports. Wall-clock latencies are the only
//!   run-to-run variation, and they are reported, never asserted.

use prosel_bench::traffic::{
    drive, schedule, schedule_text, ArrivalProcess, TemplateSet, TrafficSpec,
};

#[test]
fn quick_soak_is_clean_and_deterministic_at_ten_thousand_queries() {
    let spec = TrafficSpec::quick();
    assert!(spec.num_queries >= 10_000, "the quick soak must drive >= 10k queries");
    assert!(spec.n_shards > 1, "the soak must exercise a multi-shard service");

    // The schedule alone is already byte-reproducible.
    let text = schedule_text(&schedule(&spec));
    assert_eq!(text, schedule_text(&schedule(&spec)));
    assert_eq!(text.lines().count(), spec.num_queries);

    let templates = TemplateSet::build(&spec);
    let a = drive(&spec, &templates);

    assert_eq!(a.metrics.violations, Vec::<String>::new(), "soak invariants violated");
    let c = &a.metrics.counters;
    assert_eq!(c.arrivals as usize, spec.num_queries);
    assert_eq!(c.registered, c.arrivals, "every arrival admitted exactly once");
    assert_eq!(c.finished, c.arrivals, "every registered query reached Finished");
    assert!(c.max_in_flight <= spec.max_concurrency as u64);
    assert!(c.reads > 0 && c.swaps > 0, "the scenario must read and swap under load");

    // Shard-side conservation, service-wide.
    assert_eq!(a.stats.events_ingested, c.events_sent);
    assert_eq!(a.stats.events_unroutable, 0);
    assert_eq!(a.stats.queries_dropped, 0);
    assert_eq!(a.stats.queries_finished, c.finished);
    assert_eq!(a.stats.registered, 0, "no query state may leak past the drain");

    // The same conservation law, asserted from the metrics registry:
    // `ShardStats` is a view over the per-shard counters, so summing the
    // registry series must reproduce both the stats readout and the
    // driver's own counts — one increment site per event, no drift.
    let obs = &a.obs;
    assert_eq!(obs.sum_counters("_events_ingested_total"), c.events_sent);
    assert_eq!(obs.sum_counters("_events_ingested_total"), a.stats.events_ingested);
    assert_eq!(obs.sum_counters("_events_unroutable_total"), 0);
    assert_eq!(obs.sum_counters("_events_rejected_total"), 0);
    assert_eq!(obs.sum_counters("_queries_dropped_total"), 0);
    assert_eq!(obs.sum_counters("_queries_finished_total"), c.finished);
    assert_eq!(obs.sum_counters("_admitted_total"), c.registered);
    assert_eq!(obs.counter("tap_events_total"), Some(c.events_sent), "tap counted every send");
    assert_eq!(obs.counter("tap_bytes_total"), Some(c.event_bytes), "tap counted every byte");
    // Every read the driver issued is counted: the timed ones and the one
    // `is_finished` check per finished query.
    assert_eq!(obs.counter("service_reads_total"), Some(c.reads + c.finished));
    // The driver scrapes on the spec cadence; the final scrape is the
    // registry's whole-run view and must dominate every earlier one.
    assert_eq!(a.obs_scrapes.len() as u64, c.finished / spec.scrape_every as u64);
    for earlier in &a.obs_scrapes {
        assert!(
            earlier.sum_counters("_events_ingested_total")
                <= obs.sum_counters("_events_ingested_total"),
            "scrapes of monotone counters must be monotone"
        );
    }
    // The exposition codec round-trips the final scrape bit-identically.
    let text = obs.render_text();
    let parsed = prosel_obs::MetricsSnapshot::parse_text(&text).expect("own exposition parses");
    assert_eq!(parsed.render_text(), text, "exposition must round-trip bit-identically");

    // The full deterministic transcript — counters, digests, shard stats —
    // must repeat exactly on a second drive of the same spec.
    let b = drive(&spec, &templates);
    assert_eq!(a.invariant_report(), b.invariant_report());
    assert_eq!(a.reads_digest, b.reads_digest, "read values must be deterministic");
    assert_eq!(a.schedule_digest, b.schedule_digest);
}

#[test]
fn bursty_traffic_drains_cleanly_through_a_tight_admission_window() {
    let mut spec = TrafficSpec {
        num_queries: 2_000,
        max_concurrency: 16,
        arrivals: ArrivalProcess::Bursty { rate: 2_000.0, burst: 64, gap: 0.05 },
        templates_per_workload: 2,
        n_shards: 3,
        read_every: 8,
        swap_every: 256,
        ..TrafficSpec::default()
    };
    // Two workloads keep template capture cheap; the pressure comes from
    // the bursts, not the mix breadth.
    spec.mix = [0.0, 1.0, 0.0, 0.0, 1.0, 0.0];
    let templates = TemplateSet::build(&spec);
    let out = drive(&spec, &templates);
    assert_eq!(out.metrics.violations, Vec::<String>::new());
    assert_eq!(out.metrics.counters.finished, 2_000);
    assert!(out.metrics.counters.max_in_flight <= 16);
    assert!(
        out.metrics.counters.queue_peak > 0,
        "64-wide bursts against a 16-wide window must queue"
    );
    assert_eq!(out.stats.registered, 0);
}
