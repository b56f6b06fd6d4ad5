//! End-to-end ETA serving: real tapped executions, wall-stamped by an
//! injected [`ManualClock`], served as remaining-time answers by both the
//! single-threaded [`ProgressMonitor`] and the sharded [`MonitorService`].
//!
//! The acceptance bar (ISSUE 4): `remaining_time` / `progress_at_deadline`
//! are served by both deployment shapes, and the answers are
//! **bit-deterministic** under a manual clock — byte-identical between the
//! shard and the service, and byte-identical across independent runs.

use prosel::engine::{run_concurrent_tapped, Catalog, ExecConfig, ManualClock, TraceEvent};
use prosel::estimators::EstimatorKind;
use prosel::monitor::{Eta, MonitorBuilder, QueryError};
use prosel::planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel::planner::PlanBuilder;
use std::sync::Arc;

/// An [`Eta`]'s wall quantities as raw bits, for byte-identity assertions.
fn eta_bits(e: &Eta) -> [u64; 6] {
    [
        e.as_of.to_bits(),
        e.progress.to_bits(),
        e.speed.to_bits(),
        e.remaining.to_bits(),
        e.remaining_lo.to_bits(),
        e.remaining_hi.to_bits(),
    ]
}

/// Run a small concurrent workload tapped into a channel, wall-stamped by
/// a fresh stepping manual clock, and return the recorded event stream.
fn recorded_events(seed: u64, n_queries: usize) -> Vec<TraceEvent> {
    let spec =
        WorkloadSpec::new(WorkloadKind::TpchLike, seed).with_queries(n_queries * 2).with_scale(0.4);
    let w = materialize(&spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let plans: Vec<_> =
        w.queries.iter().take(n_queries).map(|q| builder.build(q).expect("plan")).collect();
    let cfg = ExecConfig {
        // 50 ms of wall time per emitted event: deterministic stamps,
        // strictly increasing, shared across the whole batch.
        wall_clock: Arc::new(ManualClock::stepping(0.0, 0.05)),
        ..ExecConfig::default()
    };
    let (tap, rx) = std::sync::mpsc::channel();
    run_concurrent_tapped(&catalog, &plans, &cfg, tap);
    rx.try_iter().collect()
}

#[test]
fn shard_and_service_serve_identical_deterministic_etas() {
    let n_queries = 4usize;
    let events = recorded_events(0xE7A, n_queries);
    assert!(events.len() > n_queries, "expected a non-trivial event stream");

    // Wall stamps come from one shared stepping clock: strictly
    // increasing across the interleaved stream.
    let mut prev = f64::NEG_INFINITY;
    for ev in &events {
        if let TraceEvent::Snapshot { wall, .. }
        | TraceEvent::Delta { wall, .. }
        | TraceEvent::Finished { wall, .. } = ev
        {
            assert!(*wall > prev, "wall stamps must increase along the stream");
            prev = *wall;
        }
    }

    // The plans are needed for registration; rebuild them exactly as the
    // recording run did.
    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 0xE7A)
        .with_queries(n_queries * 2)
        .with_scale(0.4);
    let w = materialize(&spec);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let plans: Vec<_> =
        w.queries.iter().take(n_queries).map(|q| builder.build(q).expect("plan")).collect();

    // One deterministic probe deadline per query, past the stream's end.
    let horizon = prev + 10.0;

    let run_shard = || {
        let mut monitor = MonitorBuilder::fixed(EstimatorKind::Dne).build_monitor().expect("build");
        for (qi, plan) in plans.iter().enumerate() {
            monitor.register(qi, plan);
        }
        let mut etas: Vec<[u64; 6]> = Vec::new();
        let mut predictions: Vec<u64> = Vec::new();
        for ev in &events {
            let q = ev.query();
            monitor.ingest(ev.clone());
            // The at-last-event ETA is the pure function of the stream
            // (the default `remaining_time` additionally folds wall-clock
            // staleness in, which is deliberately not bit-stable across
            // independent wall clocks).
            let eta = monitor.remaining_time_at_last_event(q).expect("registered");
            etas.push(eta_bits(&eta));
            let p = monitor.progress_at_deadline(q, horizon).expect("registered");
            predictions.push(p.to_bits());
        }
        (etas, predictions)
    };

    let (etas_a, pred_a) = run_shard();
    let (etas_b, pred_b) = run_shard();
    assert_eq!(etas_a, etas_b, "ETA streams must be byte-identical across runs");
    assert_eq!(pred_a, pred_b, "deadline predictions must be byte-identical across runs");

    // The sharded service, fed the same stream, must serve byte-identical
    // answers. `MonitorService::ingest` blocks until the owning shard has
    // drained the event (read-your-writes), so each read below
    // observes exactly the prefix the single-threaded shard observed.
    let service =
        MonitorBuilder::fixed(EstimatorKind::Dne).shards(3).build_service().expect("build");
    for (qi, plan) in plans.iter().enumerate() {
        service.register(qi, plan);
    }
    let mut etas_s: Vec<[u64; 6]> = Vec::new();
    let mut pred_s: Vec<u64> = Vec::new();
    for ev in &events {
        let q = ev.query();
        service.ingest(ev.clone());
        let eta = service.remaining_time_at_last_event(q).expect("registered");
        etas_s.push(eta_bits(&eta));
        let p = service.progress_at_deadline(q, horizon).expect("registered");
        pred_s.push(p.to_bits());
    }
    assert_eq!(etas_a, etas_s, "service ETAs must match the single-threaded shard bit-for-bit");
    assert_eq!(pred_a, pred_s, "service predictions must match the shard bit-for-bit");

    // Terminal answers: every query pinned to remaining 0 / progress 1.
    for qi in 0..n_queries {
        let eta = service.remaining_time(qi).expect("registered");
        assert!(eta.is_known());
        assert_eq!((eta.remaining, eta.progress), (0.0, 1.0), "q{qi} terminal ETA");
        assert_eq!(service.progress_at_deadline(qi, 0.0), Ok(1.0), "q{qi} past deadline");
    }
    assert_eq!(service.remaining_time(99), Err(QueryError::QueryUnknown(99)));
    service.shutdown();
}

#[test]
fn eta_converges_on_a_live_run() {
    // Sanity on the answers themselves (not just determinism): along a
    // run, ETAs become known, stay non-negative, the interval brackets the
    // point, and as_of tracks the stream's wall stamps.
    let n_queries = 2usize;
    let events = recorded_events(0xBEA7, n_queries);
    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 0xBEA7)
        .with_queries(n_queries * 2)
        .with_scale(0.4);
    let w = materialize(&spec);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let plans: Vec<_> =
        w.queries.iter().take(n_queries).map(|q| builder.build(q).expect("plan")).collect();
    let mut monitor = MonitorBuilder::fixed(EstimatorKind::Dne).build_monitor().expect("build");
    for (qi, plan) in plans.iter().enumerate() {
        monitor.register(qi, plan);
    }
    let mut known = 0usize;
    for ev in &events {
        let q = ev.query();
        monitor.ingest(ev.clone());
        let eta = monitor.remaining_time(q).expect("registered");
        assert!(eta.remaining >= 0.0 && !eta.remaining.is_nan());
        assert!(eta.remaining_lo <= eta.remaining && eta.remaining <= eta.remaining_hi);
        if eta.is_known() {
            known += 1;
            if let TraceEvent::Snapshot { wall, .. }
            | TraceEvent::Delta { wall, .. }
            | TraceEvent::Finished { wall, .. } = ev
            {
                assert!(eta.as_of <= wall + 1e-12, "as_of cannot outrun the stream");
            }
        }
    }
    assert!(known > n_queries, "ETAs must become known during the run (got {known})");
    for qi in 0..n_queries {
        assert_eq!(monitor.remaining_time(qi).map(|e| e.remaining), Some(0.0));
    }
}
