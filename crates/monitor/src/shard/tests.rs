//! Unit tests of the shard core ([`ProgressMonitor`] and its ingest
//! funnel).

use super::*;
use crate::test_support::{dne, raw_snapshot, scan_plan, selector_favoring, snapshot_event};
use crate::{MonitorBuilder, MonitorError};
use prosel_core::features::FeatureSchema;
use prosel_engine::clock::{Clock, ManualClock};
use prosel_engine::trace::CounterUpdate;

/// The estimator in charge of each pipeline of `query`, as the core holds
/// it, after checking that [`ProgressMonitor::status`] serves the same.
fn choices(monitor: &ProgressMonitor, query: usize) -> Vec<EstimatorKind> {
    let held: Vec<EstimatorKind> = monitor.queries[&query].pipes.iter().map(|p| p.choice).collect();
    let status = monitor.status(query).expect("registered");
    let served: Vec<EstimatorKind> = status.pipelines.iter().map(|p| p.estimator).collect();
    assert_eq!(served, held, "q{query}: status serves the held choices");
    held
}

#[test]
fn delta_stream_matches_full_snapshot_stream_bitwise() {
    use prosel_engine::trace::DeltaEncoder;
    let plan = scan_plan();
    let mut full = dne().build_monitor().unwrap();
    let mut delta = dne().build_monitor().unwrap();
    full.register(7, &plan);
    delta.register(7, &plan);
    let mut enc = DeltaEncoder::new();
    for (seq, (time, k)) in [(10.0, 10u64), (20.0, 25), (30.0, 60)].into_iter().enumerate() {
        let snapshot = raw_snapshot(time, k);
        let windows: Box<[(f64, f64)]> = vec![(1.0, time)].into_boxed_slice();
        full.ingest(TraceEvent::Snapshot {
            query: 7,
            seq: seq as u64,
            wall: time,
            snapshot: snapshot.clone(),
            windows: windows.clone(),
        });
        // Mirror the engine tap: first emission is the full baseline,
        // every later one a sparse delta.
        let ev = match enc.encode(&snapshot, &windows) {
            None => {
                TraceEvent::Snapshot { query: 7, seq: seq as u64, wall: time, snapshot, windows }
            }
            Some((changes, window_updates)) => TraceEvent::Delta {
                query: 7,
                seq: seq as u64,
                wall: time,
                time,
                changes,
                window_updates,
            },
        };
        delta.ingest(ev);
        let (pf, pd) = (full.query_progress(7).unwrap(), delta.query_progress(7).unwrap());
        assert_eq!(pf.to_bits(), pd.to_bits(), "divergence at seq {seq}");
        assert_eq!(
            full.remaining_time_at_last_event(7).map(|e| e.remaining.to_bits()),
            delta.remaining_time_at_last_event(7).map(|e| e.remaining.to_bits()),
        );
    }
}

#[test]
fn delta_without_baseline_drops_the_query() {
    // The engine always emits a full snapshot first; a delta arriving
    // at seq 0 means the baseline was lost — state is untrustworthy.
    let plan = scan_plan();
    let mut monitor = dne().build_monitor().unwrap();
    monitor.register(3, &plan);
    monitor.ingest(TraceEvent::Delta {
        query: 3,
        seq: 0,
        wall: 10.0,
        time: 10.0,
        changes: Box::new([CounterUpdate {
            node: 0,
            counter: prosel_engine::trace::CounterKind::GetNext,
            value: 5,
        }]),
        window_updates: Box::new([(0, (1.0, 10.0))]),
    });
    assert_eq!(monitor.query_progress(3), None, "unprimed delta must drop the query");
    assert_eq!(monitor.shard_stats().queries_dropped, 1);
}

#[test]
fn malformed_delta_drops_the_query() {
    let plan = scan_plan();
    // Out-of-range node index: the engine is running a different plan
    // under this id. The scratch must stay untouched and the query
    // dropped, not a panic or a silent partial patch.
    let mut monitor = dne().build_monitor().unwrap();
    monitor.register(5, &plan);
    monitor.ingest(snapshot_event(5, 0, 10.0, 25));
    monitor.ingest(TraceEvent::Delta {
        query: 5,
        seq: 1,
        wall: 20.0,
        time: 20.0,
        changes: Box::new([CounterUpdate {
            node: 9,
            counter: prosel_engine::trace::CounterKind::GetNext,
            value: 50,
        }]),
        window_updates: Box::new([]),
    });
    assert_eq!(monitor.query_progress(5), None, "out-of-range node must drop the query");
    // A seq gap on the delta path is refused like on the snapshot path.
    let mut monitor = dne().build_monitor().unwrap();
    monitor.register(6, &plan);
    monitor.ingest(snapshot_event(6, 0, 10.0, 25));
    monitor.ingest(TraceEvent::Delta {
        query: 6,
        seq: 2,
        wall: 20.0,
        time: 20.0,
        changes: Box::new([]),
        window_updates: Box::new([]),
    });
    assert_eq!(monitor.query_progress(6), None, "seq gap on delta must drop the query");
}

#[test]
fn late_registration_is_refused_not_corrupted() {
    let plan = scan_plan();
    let mut monitor = dne().build_monitor().unwrap();
    // Registered only after the engine already emitted snapshot 0:
    // the buffer mirror is unreconstructable, so the first ingested
    // snapshot (seq 1 != expected 0) must drop the query.
    monitor.register(7, &plan);
    monitor.ingest(snapshot_event(7, 1, 20.0, 40));
    assert_eq!(monitor.query_progress(7), None, "late-joined query must be dropped");
    assert_eq!(monitor.shard_stats().registered, 0);
}

#[test]
fn timely_registration_serves_progress() {
    let plan = scan_plan();
    let mut monitor = dne().build_monitor().unwrap();
    monitor.register(7, &plan);
    monitor.ingest(snapshot_event(7, 0, 10.0, 25));
    assert!((monitor.query_progress(7).unwrap() - 0.25).abs() < 1e-12);
    monitor.ingest(TraceEvent::Finished {
        query: 7,
        wall: 40.0,
        windows: vec![(1.0, 40.0)].into_boxed_slice(),
        total_time: 40.0,
    });
    assert_eq!(monitor.query_progress(7), Some(1.0));
}

#[test]
fn snapshot_after_finished_drops_the_query_instead_of_panicking() {
    // A query can terminate before its first snapshot interval, so its
    // Finished event arrives with serial_next still 0. If a new stream
    // then reuses the id, its seq-0 snapshot would pass the header
    // check against finalized pipes — it must drop the stale state,
    // not panic (a panic would kill a whole service shard).
    let plan = scan_plan();
    let mut monitor = dne().build_monitor().unwrap();
    monitor.register(9, &plan);
    monitor.ingest(TraceEvent::Finished {
        query: 9,
        wall: 5.0,
        windows: vec![(1.0, 5.0)].into_boxed_slice(),
        total_time: 5.0,
    });
    assert_eq!(monitor.query_progress(9), Some(1.0));
    monitor.ingest(snapshot_event(9, 0, 10.0, 25));
    assert_eq!(monitor.query_progress(9), None, "stale finished state must be dropped");
    // Same for a thinning event reaching a finished query.
    monitor.register(9, &plan);
    monitor.ingest(TraceEvent::Finished {
        query: 9,
        wall: 5.0,
        windows: vec![(1.0, 5.0)].into_boxed_slice(),
        total_time: 5.0,
    });
    monitor.ingest(TraceEvent::Thinned { query: 9 });
    assert_eq!(monitor.query_progress(9), None);
}

#[test]
fn corrupt_or_repeated_finished_drops_the_query_instead_of_panicking() {
    let plan = scan_plan();
    // A Finished event whose window arity does not match the
    // registered plan means a different plan ran under this id — it
    // must drop the state, not index out of bounds (which would kill
    // a whole service shard).
    let mut monitor = dne().build_monitor().unwrap();
    monitor.register(4, &plan);
    monitor.ingest(TraceEvent::Finished {
        query: 4,
        wall: 5.0,
        windows: Box::new([]),
        total_time: 5.0,
    });
    assert_eq!(monitor.query_progress(4), None, "mismatched plan must be dropped");
    // A second Finished for an already-finished query is a new stream
    // reusing the id against finalized state: drop, like the
    // snapshot/thinning paths.
    monitor.register(4, &plan);
    let finished = TraceEvent::Finished {
        query: 4,
        wall: 5.0,
        windows: vec![(1.0, 5.0)].into_boxed_slice(),
        total_time: 5.0,
    };
    monitor.ingest(finished.clone());
    assert_eq!(monitor.query_progress(4), Some(1.0));
    monitor.ingest(finished);
    assert_eq!(monitor.query_progress(4), None, "stale finished state must be dropped");
}

#[test]
fn remaining_time_converges_and_pins_to_zero() {
    let plan = scan_plan();
    // A manual clock held at 0.0 keeps the default staleness fold a
    // no-op (age clamps at 0), so the raw convergence is what's served.
    let config = MonitorConfig {
        clock: Arc::new(ManualClock::new(0.0)) as Arc<dyn Clock>,
        ..Default::default()
    };
    let mut monitor = dne().config(config).build_monitor().unwrap();
    assert_eq!(monitor.remaining_time(0), None, "unregistered");
    monitor.register(0, &plan);
    let eta = monitor.remaining_time(0).expect("registered");
    assert!(!eta.is_known(), "no samples yet");
    assert_eq!(monitor.progress_at_deadline(0, 50.0), Some(0.0));
    // 10 rows of the 100-row scan per time unit, wall == virtual time.
    monitor.ingest(snapshot_event(0, 0, 1.0, 10));
    monitor.ingest(snapshot_event(0, 1, 2.0, 20));
    let eta = monitor.remaining_time(0).expect("registered");
    assert!(eta.is_known());
    // Speed 0.1/s, 0.8 left => 8 s from as_of == 2.0.
    assert!((eta.remaining - 8.0).abs() < 1e-9, "got {}", eta.remaining);
    assert!(eta.remaining_lo <= eta.remaining && eta.remaining <= eta.remaining_hi);
    assert!((monitor.progress_at_deadline(0, 7.0).unwrap() - 0.7).abs() < 1e-9);
    assert_eq!(monitor.progress_at_deadline(0, 1000.0), Some(1.0));
    monitor.ingest(TraceEvent::Finished {
        query: 0,
        wall: 10.0,
        windows: vec![(1.0, 10.0)].into_boxed_slice(),
        total_time: 10.0,
    });
    let eta = monitor.remaining_time(0).expect("registered");
    assert_eq!((eta.remaining, eta.progress, eta.as_of), (0.0, 1.0, 10.0));
    assert_eq!(monitor.progress_at_deadline(0, 0.0), Some(1.0));
}

#[test]
fn try_register_reports_duplicates_as_values() {
    let plan = scan_plan();
    let mut monitor = dne().build_monitor().unwrap();
    assert_eq!(monitor.try_register(3, &plan), Ok(()));
    assert_eq!(monitor.try_register(3, &plan), Err(RegisterError::DuplicateQuery(3)));
    // The original registration survives the refused duplicate.
    monitor.ingest(snapshot_event(3, 0, 10.0, 50));
    assert!((monitor.query_progress(3).unwrap() - 0.5).abs() < 1e-12);
    assert_eq!(monitor.shard_stats().registered, 1);
}

#[test]
fn try_fixed_refuses_oracle_kinds() {
    for kind in [EstimatorKind::GetNextOracle, EstimatorKind::BytesOracle] {
        let err = MonitorBuilder::fixed(kind).build_monitor().err();
        assert!(
            matches!(err, Some(MonitorError::Register(RegisterError::OracleKind(k))) if k == kind),
            "{err:?}"
        );
    }
    assert!(dne().build_monitor().is_ok());
}

#[test]
fn staleness_age_is_served_under_a_manual_clock() {
    let plan = scan_plan();
    let clock = Arc::new(ManualClock::new(0.0));
    let config =
        MonitorConfig { clock: Arc::clone(&clock) as Arc<dyn Clock>, ..Default::default() };
    let mut monitor = dne().config(config).build_monitor().unwrap();
    monitor.register(2, &plan);
    monitor.ingest(snapshot_event(2, 0, 1.0, 10));
    monitor.ingest(snapshot_event(2, 1, 2.0, 20));
    // The latest accepted sample is as_of == 2.0; the serving clock
    // has moved on to 5.5 => age 3.5, countdown 8 − 3.5.
    clock.set(5.5);
    let raw = monitor.remaining_time_at_last_event(2).unwrap();
    assert_eq!(raw.as_of, 2.0);
    assert!((raw.remaining - 8.0).abs() < 1e-9, "raw {}", raw.remaining);
    // The default read path folds the staleness in directly.
    let folded = monitor.remaining_time(2).unwrap();
    assert_eq!(folded, raw.aged(5.5));
    assert!((folded.remaining - (8.0 - 3.5)).abs() < 1e-9);
    assert_eq!(folded.as_of, raw.as_of, "aging keeps the sample provenance");
    // A clock that has burned past the estimate floors at zero.
    clock.set(100.0);
    assert_eq!(monitor.remaining_time(2).unwrap().remaining, 0.0);
    assert!(
        monitor.remaining_time_at_last_event(2).unwrap().remaining > 0.0,
        "the raw variant stays frozen at the last event by design"
    );
    assert_eq!(monitor.remaining_time(99), None, "unregistered");
}

#[test]
fn swap_selector_affects_future_registrations_only() {
    let plan = scan_plan();
    let favor_dne = Arc::new(selector_favoring(EstimatorKind::Dne));
    let favor_tgn = Arc::new(selector_favoring(EstimatorKind::Tgn));
    let mut monitor =
        MonitorBuilder::with_selector(Arc::clone(&favor_dne)).build_monitor().unwrap();
    monitor.register(0, &plan);
    assert_eq!(monitor.query_selector_epoch(0), Some(0));
    assert_eq!(choices(&monitor, 0), [EstimatorKind::Dne]);
    // Feed the in-flight query half its stream, then swap.
    monitor.ingest(snapshot_event(0, 0, 1.0, 10));
    assert_eq!(monitor.swap_selector(Arc::clone(&favor_tgn)), 1);
    monitor.register(1, &plan);
    // New registration scores with the new model; the in-flight query
    // keeps its registration-time choice and epoch.
    assert_eq!(choices(&monitor, 1), [EstimatorKind::Tgn]);
    assert_eq!(monitor.query_selector_epoch(0), Some(0));
    assert_eq!(monitor.query_selector_epoch(1), Some(1));
    // Re-selection on query 0 keeps using the DNE-favoring selector
    // even after many post-swap observations.
    for seq in 1..9 {
        monitor.ingest(snapshot_event(0, seq, 1.0 + seq as f64, 10 * (seq + 1)));
    }
    assert_eq!(choices(&monitor, 0), [EstimatorKind::Dne]);
    assert_eq!(monitor.switch_history(0), Some(vec![]), "no switch forced by the swap");
}

/// Two selectors trained on TPC-H-like records, the second a
/// warm-started retrain of the first, trained once per test binary.
/// Serving them TPC-DS-like queries — another family — revises the
/// initial choices.
fn cross_family_selectors() -> (Arc<EstimatorSelector>, Arc<EstimatorSelector>) {
    use prosel_core::pipeline_runs::collect_workload_records;
    use prosel_core::selection::SelectorConfig;
    use prosel_core::training::TrainingSet;
    use prosel_mart::BoostParams;
    use prosel_planner::workload::{WorkloadKind, WorkloadSpec};
    use std::sync::OnceLock;

    static PAIR: OnceLock<(Arc<EstimatorSelector>, Arc<EstimatorSelector>)> = OnceLock::new();
    let (first, second) = PAIR.get_or_init(|| {
        let trained_on =
            WorkloadSpec::new(WorkloadKind::TpchLike, 21).with_queries(16).with_scale(0.4);
        let records = collect_workload_records(&trained_on).expect("records");
        let train = TrainingSet::from_records(&records);
        let cfg = SelectorConfig::default()
            .with_boost(BoostParams { iterations: 40, ..BoostParams::default() });
        let first = Arc::new(EstimatorSelector::train(&train, &cfg));
        let second = Arc::new(EstimatorSelector::retrain_from(&first, &train, 20, 0x5EC0));
        (first, second)
    });
    (Arc::clone(first), Arc::clone(second))
}

/// The settled skip is an identity, not an approximation: a monitor that
/// keeps a settled pipeline's choice (every marker reached, so its
/// features are final) and one forced to re-score every due re-selection
/// must agree on every choice, switch and served progress bit after every
/// event — across buffer thinning and a selector hot swap.
#[test]
fn settled_reselection_equals_rescoring_every_time() {
    use prosel_engine::{run_plan_tapped, Catalog, ExecConfig};
    use prosel_planner::workload::{materialize, WorkloadKind, WorkloadSpec};
    use prosel_planner::PlanBuilder;

    let (first, second) = cross_family_selectors();
    let spec = WorkloadSpec::new(WorkloadKind::TpcdsLike, 12).with_queries(10).with_scale(0.4);
    let w = materialize(&spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let config = MonitorConfig { reselect_every: 2, ..MonitorConfig::default() };
    let build = || {
        MonitorBuilder::with_selector(Arc::clone(&first))
            .config(config.clone())
            .build_monitor()
            .unwrap()
    };
    let (mut settling, mut rescoring) = (build(), build());
    let (mut thinned, mut switched) = (0usize, 0usize);
    for (qi, q) in w.queries.iter().enumerate() {
        let plan = Arc::new(builder.build(q).expect("plan"));
        settling.register(qi, Arc::clone(&plan));
        rescoring.register(qi, Arc::clone(&plan));
        let (tap, rx) = std::sync::mpsc::channel();
        let exec = ExecConfig {
            max_snapshots: 32,
            initial_snapshot_interval: 5.0,
            seed: qi as u64,
            ..ExecConfig::default()
        };
        run_plan_tapped(&catalog, &plan, &exec, qi, tap);
        let mut ingested = 0;
        while let Ok(ev) = rx.try_recv() {
            // The swap lands while a query is in flight: it keeps the
            // selector it registered under, later ones get the new.
            ingested += 1;
            if qi == w.queries.len() / 2 && ingested == 10 {
                assert_eq!(settling.swap_selector(Arc::clone(&second)), 1);
                assert_eq!(rescoring.swap_selector(Arc::clone(&second)), 1);
            }
            thinned += matches!(ev, TraceEvent::Thinned { .. }) as usize;
            // An unsettled pipeline is re-extracted and re-scored: the
            // rescoring monitor never skips.
            for pipe in &mut rescoring.queries.get_mut(&qi).expect("registered").pipes {
                pipe.settled = false;
            }
            settling.ingest(ev.clone());
            rescoring.ingest(ev);
            assert_eq!(choices(&settling, qi), choices(&rescoring, qi));
            assert_eq!(settling.switch_history(qi), rescoring.switch_history(qi));
            assert_eq!(
                settling.query_progress(qi).map(f64::to_bits),
                rescoring.query_progress(qi).map(f64::to_bits)
            );
        }
        assert_eq!(settling.is_finished(qi), Some(true));
        switched += settling.switch_history(qi).expect("registered").len();
    }
    assert!(thinned > 0 && switched > 0, "{thinned} thinnings, {switched} switches");
    let last = w.queries.len() - 1;
    assert_eq!(settling.query_selector_epoch(last), Some(1), "the swap happened");
    let (due, hits) = (&settling.counters.reselect, &settling.counters.reselect_memo_hits);
    assert_eq!(due.get(), rescoring.counters.reselect.get());
    assert!(hits.get() > 0 && hits.get() < due.get(), "{} of {}", hits.get(), due.get());
    assert_eq!(rescoring.counters.reselect_memo_hits.get(), 0);
}

/// A shared admission record is an identity too: a monitor whose
/// queries register one `Arc` per plan template (sharing one compiled
/// record per template) and one registering a fresh `Arc` per query
/// (compiling every time) serve the same tapped streams — several queries
/// of each template in flight at once, a selector hot swap mid-stream —
/// with identical choices, switch histories, progress bits and harvests.
#[test]
fn shared_admission_records_serve_what_fresh_ones_do() {
    use prosel_engine::{run_plan_tapped, Catalog, ExecConfig};
    use prosel_planner::workload::{materialize, WorkloadKind, WorkloadSpec};
    use prosel_planner::PlanBuilder;

    let (first, second) = cross_family_selectors();
    let spec = WorkloadSpec::new(WorkloadKind::TpcdsLike, 12).with_queries(3).with_scale(0.4);
    let w = materialize(&spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let templates: Vec<Arc<PhysicalPlan>> =
        w.queries.iter().map(|q| Arc::new(builder.build(q).expect("plan"))).collect();
    let config = MonitorConfig { reselect_every: 2, ..MonitorConfig::default() };
    let build = || {
        let (sink, harvested) = std::sync::mpsc::channel();
        let monitor = MonitorBuilder::with_selector(Arc::clone(&first))
            .config(config.clone())
            .harvester(Arc::new(sink), HarvestConfig { label: "live".into(), min_observations: 2 })
            .build_monitor()
            .unwrap();
        (monitor, harvested)
    };
    let ((mut shared, shared_harvest), (mut fresh, fresh_harvest)) = (build(), build());
    let (mut switched, mut harvested, mut epoch) = (0usize, 0usize, 0u64);
    // Three rounds of four in-flight queries over three templates.
    for round in 0..3 {
        let ids: Vec<usize> = (4 * round..4 * round + 4).collect();
        let mut streams = Vec::new();
        for &qi in &ids {
            let plan = &templates[qi % templates.len()];
            shared.register(qi, Arc::clone(plan));
            fresh.register(qi, Arc::new(PhysicalPlan::clone(plan)));
            assert_eq!(choices(&shared, qi), choices(&fresh, qi));
            let (tap, rx) = std::sync::mpsc::channel();
            let exec = ExecConfig {
                max_snapshots: 32,
                initial_snapshot_interval: 5.0,
                seed: qi as u64,
                ..ExecConfig::default()
            };
            run_plan_tapped(&catalog, plan, &exec, qi, tap);
            streams.push(rx.try_iter().collect::<Vec<_>>().into_iter());
        }
        let (q0, q3) = (&shared.queries[&ids[0]].compiled, &shared.queries[&ids[3]].compiled);
        assert!(Arc::ptr_eq(q0, q3), "same template, same record");
        let (q0, q3) = (&fresh.queries[&ids[0]].compiled, &fresh.queries[&ids[3]].compiled);
        assert!(!Arc::ptr_eq(q0, q3), "fresh Arcs compile anew");
        // Round-robin over the in-flight streams.
        let mut ingested = 0;
        while streams.iter().any(|s| s.len() > 0) {
            for (stream, &qi) in streams.iter_mut().zip(&ids) {
                let Some(ev) = stream.next() else { continue };
                ingested += 1;
                if round == 1 && ingested == 25 {
                    epoch = shared.swap_selector(Arc::clone(&second));
                    assert_eq!(epoch, 1);
                    assert_eq!(fresh.swap_selector(Arc::clone(&second)), 1);
                }
                shared.ingest(ev.clone());
                fresh.ingest(ev);
                assert_eq!(choices(&shared, qi), choices(&fresh, qi));
                assert_eq!(shared.switch_history(qi), fresh.switch_history(qi));
                assert_eq!(
                    shared.query_progress(qi).map(f64::to_bits),
                    fresh.query_progress(qi).map(f64::to_bits)
                );
            }
        }
        for &qi in &ids {
            assert_eq!(shared.is_finished(qi), Some(true));
            switched += shared.switch_history(qi).expect("registered").len();
            shared.unregister(qi).unwrap();
            fresh.unregister(qi).unwrap();
        }
        for (a, b) in shared_harvest.try_iter().zip(fresh_harvest.try_iter()) {
            // `{:?}` prints every float in round-trip form: equal text is
            // equal bits.
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            harvested += a.records.len();
        }
    }
    assert!(switched > 0 && harvested > 0, "{switched} switches, {harvested} records");
    assert_eq!(epoch, 1, "the swap happened");
    assert_eq!(shared.counters.reselect.get(), fresh.counters.reselect.get());
    assert_eq!(shared.plans.len(), templates.len(), "one record per template since the swap");
}

/// Under a selector policy the harvest takes each pipeline's static
/// prefix from the query's admission record instead of extracting it
/// again; the records are still the batch extraction's over the same run.
#[test]
fn selector_policy_harvest_equals_batch_extraction() {
    use prosel_core::pipeline_runs::records_from_run;
    use prosel_engine::{run_plan_tapped, Catalog, ExecConfig};
    use prosel_planner::workload::{materialize, WorkloadKind, WorkloadSpec};
    use prosel_planner::PlanBuilder;

    let (first, _) = cross_family_selectors();
    let spec = WorkloadSpec::new(WorkloadKind::TpcdsLike, 12).with_queries(6).with_scale(0.4);
    let w = materialize(&spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let (sink, harvested) = std::sync::mpsc::channel();
    let mut monitor = MonitorBuilder::with_selector(first)
        .harvester(Arc::new(sink), HarvestConfig { label: "live".into(), min_observations: 2 })
        .build_monitor()
        .unwrap();
    let mut batch = Vec::new();
    for (qi, q) in w.queries.iter().enumerate() {
        let plan = builder.build(q).expect("plan");
        monitor.register(qi, &plan);
        let (tap, rx) = std::sync::mpsc::channel();
        let run = run_plan_tapped(&catalog, &plan, &ExecConfig::default(), qi, tap);
        monitor.drain(&rx);
        records_from_run(&run, "live", qi, 2, &mut batch);
    }
    let online: Vec<PipelineRecord> = harvested.try_iter().flat_map(|h| h.records).collect();
    assert!(batch.iter().any(|r| r.pipeline_id > 0), "multi-pipeline plans");
    assert_eq!(online.len(), batch.len());
    for (a, b) in online.iter().zip(&batch) {
        // `{:?}` prints every float in round-trip form: equal text is
        // equal bits.
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}

#[test]
fn re_registering_a_plan_after_a_swap_scores_with_the_new_selector() {
    let plan = Arc::new(scan_plan());
    let mut monitor =
        MonitorBuilder::with_selector(Arc::new(selector_favoring(EstimatorKind::Dne)))
            .build_monitor()
            .unwrap();
    monitor.register(0, Arc::clone(&plan));
    monitor.register(1, Arc::clone(&plan));
    assert!(Arc::ptr_eq(&monitor.queries[&0].compiled, &monitor.queries[&1].compiled));
    monitor.swap_selector(Arc::new(selector_favoring(EstimatorKind::Tgn)));
    monitor.register(2, Arc::clone(&plan));
    assert_eq!(choices(&monitor, 0), [EstimatorKind::Dne]);
    assert_eq!(choices(&monitor, 2), [EstimatorKind::Tgn]);
    assert!(!Arc::ptr_eq(&monitor.queries[&0].compiled, &monitor.queries[&2].compiled));
    assert_eq!(monitor.plans.len(), 1);
}

/// `admit` seeds the cell from the compiled plan's initial choices, so a
/// `status` read after `register` and before the first event names each
/// pipeline's static choice: the read the integration tests take the
/// initial choice from.
#[test]
fn status_before_the_first_event_names_the_static_choices() {
    use prosel_planner::workload::{materialize, WorkloadKind, WorkloadSpec};
    use prosel_planner::PlanBuilder;

    let spec = WorkloadSpec::new(WorkloadKind::TpcdsLike, 12).with_queries(10).with_scale(0.4);
    let w = materialize(&spec);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let plans: Vec<PhysicalPlan> =
        w.queries.iter().map(|q| builder.build(q).expect("plan")).collect();
    let (trained, _) = cross_family_selectors();
    let favoring = |kind| (Arc::new(selector_favoring(kind)), Some(kind));
    // The two one-sided selectors pin what the static choice is, so a
    // cell seeded from anything else fails one of them.
    for (selector, favored) in
        [(trained, None), favoring(EstimatorKind::Dne), favoring(EstimatorKind::Tgn)]
    {
        let mut monitor = MonitorBuilder::with_selector(selector).build_monitor().unwrap();
        for (qi, plan) in plans.iter().enumerate() {
            monitor.register(qi, plan);
            let status = monitor.status(qi).expect("registered");
            let served: Vec<EstimatorKind> = status.pipelines.iter().map(|p| p.estimator).collect();
            assert_eq!(served, monitor.queries[&qi].compiled.initial, "q{qi}");
            if let Some(kind) = favored {
                assert!(served.iter().all(|&k| k == kind), "q{qi}: {served:?}, not all {kind:?}");
            }
        }
    }
}

/// Records of plans nobody holds any more are pruned: fresh `Arc`s
/// registered and retired one after another keep the map small.
#[test]
fn compiled_plans_are_bounded_by_live_plans() {
    let mut monitor = dne().build_monitor().unwrap();
    let held = Arc::new(scan_plan());
    monitor.register(usize::MAX, Arc::clone(&held));
    let mut largest = 0;
    for q in 0..10_000 {
        monitor.register(q, Arc::new(scan_plan()));
        monitor.unregister(q).unwrap();
        largest = largest.max(monitor.plans.len());
    }
    assert!(largest <= 128, "{largest} records for at most 2 live plans");
    // The plan still held still shares its record.
    monitor.register(10_000, Arc::clone(&held));
    let (a, b) = (&monitor.queries[&usize::MAX].compiled, &monitor.queries[&10_000].compiled);
    assert!(Arc::ptr_eq(a, b));
}

#[test]
fn finished_queries_are_harvested_with_batch_equivalent_shape() {
    let plan = scan_plan();
    let (sink, harvested) = std::sync::mpsc::channel();
    let mut monitor = dne()
        .harvester(Arc::new(sink), HarvestConfig { label: "live".into(), min_observations: 3 })
        .build_monitor()
        .unwrap();
    monitor.register(7, &plan);
    for seq in 0..5u64 {
        monitor.ingest(snapshot_event(7, seq, (seq + 1) as f64 * 8.0, 20 * (seq + 1)));
    }
    monitor.ingest(TraceEvent::Finished {
        query: 7,
        wall: 40.0,
        windows: vec![(1.0, 40.0)].into_boxed_slice(),
        total_time: 40.0,
    });
    let h = harvested.try_recv().expect("one harvest per finished query");
    assert_eq!(h.query, 7);
    assert_eq!(h.records.len(), 1);
    let r = &h.records[0];
    assert_eq!((r.workload.as_str(), r.query_idx, r.pipeline_id), ("live", 7, 0));
    assert_eq!(r.n_obs, 5);
    assert_eq!(r.total_getnext, 100);
    assert_eq!(r.features.len(), FeatureSchema::get().len());
    assert!(r.errors_l1.iter().all(|e| e.is_finite() && *e >= 0.0));
    assert!(harvested.try_recv().is_err(), "exactly one harvest");

    // A query below the observation floor harvests an empty record
    // set (the envelope still announces the finish).
    monitor.register(8, &plan);
    monitor.ingest(snapshot_event(8, 0, 10.0, 50));
    monitor.ingest(TraceEvent::Finished {
        query: 8,
        wall: 20.0,
        windows: vec![(1.0, 20.0)].into_boxed_slice(),
        total_time: 20.0,
    });
    let h = harvested.try_recv().expect("envelope for the short query");
    assert_eq!(h.query, 8);
    assert!(h.records.is_empty(), "1 observation < min_observations 3");
}

#[test]
fn admission_cap_refuses_with_typed_saturation_and_recovers() {
    let plan = scan_plan();
    let config = MonitorConfig { max_queries: 2, ..Default::default() };
    let mut monitor = dne().config(config).build_monitor().unwrap();
    assert_eq!(monitor.try_register(0, &plan), Ok(()));
    assert_eq!(monitor.try_register(1, &plan), Ok(()));
    // At the cap: a typed refusal, never a panic, and the duplicate
    // check still wins for ids that are already in (no double count).
    assert_eq!(monitor.try_register(2, &plan), Err(RegisterError::Saturated { limit: 2 }));
    assert_eq!(monitor.try_register(0, &plan), Err(RegisterError::DuplicateQuery(0)));
    // Admitted queries are still served while saturated.
    monitor.ingest(snapshot_event(0, 0, 10.0, 50));
    assert!((monitor.query_progress(0).unwrap() - 0.5).abs() < 1e-12);
    // Draining a query frees a slot; admission resumes.
    monitor.unregister(1).unwrap();
    assert_eq!(monitor.try_register(2, &plan), Ok(()));
    let stats = monitor.shard_stats();
    assert_eq!((stats.admitted, stats.refused, stats.registered), (3, 2, 2));
}

#[test]
fn shard_stats_obey_the_event_conservation_law() {
    let plan = scan_plan();
    let (sink, harvested) = std::sync::mpsc::channel();
    let mut monitor = dne()
        .harvester(Arc::new(sink), HarvestConfig { label: "cnt".into(), min_observations: 1 })
        .build_monitor()
        .unwrap();
    monitor.register(0, &plan);
    monitor.ingest(snapshot_event(0, 0, 10.0, 25));
    monitor.ingest(snapshot_event(99, 0, 10.0, 25)); // untracked query
    monitor.ingest(TraceEvent::Finished {
        query: 0,
        wall: 40.0,
        windows: vec![(1.0, 40.0)].into_boxed_slice(),
        total_time: 40.0,
    });
    // A post-termination snapshot drops the stale state defensively;
    // the event still counts as ingested (it reached known state).
    monitor.ingest(snapshot_event(0, 1, 50.0, 99));
    let stats = monitor.shard_stats();
    assert_eq!(stats.events_ingested + stats.events_unroutable, 4, "every event counted once");
    assert_eq!(stats.events_unroutable, 1);
    assert_eq!(stats.queries_finished, 1);
    assert_eq!(stats.queries_dropped, 1);
    assert_eq!(stats.harvests, 1);
    assert_eq!(stats.registered, 0);
    assert_eq!(harvested.try_iter().count(), 1);
    // merged() folds per-shard readouts element-wise.
    let sum = stats.merged(&stats);
    assert_eq!(sum.events_ingested, 2 * stats.events_ingested);
    assert_eq!(sum.queries_finished, 2);
}

#[test]
#[should_panic(expected = "already registered")]
fn register_still_panics_on_duplicates() {
    let plan = scan_plan();
    let mut monitor = dne().build_monitor().unwrap();
    monitor.register(1, &plan);
    monitor.register(1, &plan);
}
