//! Per-layer measurements on an otherwise idle process: every layer's
//! public functions, called and timed from the benchmark thread over the
//! same templates the workloads serve. Means over templates are weighted
//! by the templates' popularity, so a per-event or per-query cost here is
//! the cost an average event or query of the traffic pays.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Instant;

use prosel::core::features::static_features;
use prosel::core::pipeline_runs::{record_from_online, records_from_run};
use prosel::core::selection::EstimatorSelector;
use prosel::engine::trace::{DeltaDecoder, DeltaEncoder, TapSink, TraceEvent, TraceTap};
use prosel::engine::{decompose, pipeline_weight, run_plan, run_plan_tapped, Catalog, QueryRun};
use prosel::estimators::soa::BoundsKernel;
use prosel::estimators::{EstimatorKind, IncrementalObs, PipelineObs, TraceCtx};
use prosel::learn::{SelectorHub, SelectorSubscriber};
use prosel::mart::Mart;
use prosel::monitor::{HarvestConfig, MonitorBuilder};
use prosel::obs::{Histogram, MetricsSnapshot};

use crate::fixtures::{popularity, Fixtures};
use crate::serve::build_service;
use crate::spans::{Tracer, NO_QUERY};
use crate::stats::median;

pub type Metrics = BTreeMap<&'static str, f64>;

/// Every estimator a batch evaluation can ask a curve of.
const ALL_KINDS: [EstimatorKind; 11] = [
    EstimatorKind::Dne,
    EstimatorKind::Tgn,
    EstimatorKind::Luo,
    EstimatorKind::Pmax,
    EstimatorKind::Safe,
    EstimatorKind::BatchDne,
    EstimatorKind::DneSeek,
    EstimatorKind::TgnInt,
    EstimatorKind::TgnRaw,
    EstimatorKind::GetNextOracle,
    EstimatorKind::BytesOracle,
];

/// Mean nanoseconds per call of `f` over `iters` calls.
fn per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn weighted(values: &[f64], weights: &[f64]) -> f64 {
    values.iter().zip(weights).map(|(v, w)| v * w).sum::<f64>() / weights.iter().sum::<f64>()
}

struct CountingSink(AtomicU64);

impl TapSink for CountingSink {
    fn send(&self, ev: TraceEvent) -> Result<(), TraceEvent> {
        self.0.fetch_add(1, Ordering::Relaxed);
        black_box(&ev);
        Ok(())
    }
}

/// Engine, estimator and core costs over the templates' own executions.
pub fn execution_layers(fx: &Fixtures, tracer: &mut Tracer, m: &mut Metrics) {
    let pop = popularity(fx);
    let catalogs: Vec<Catalog<'_>> =
        fx.workloads.iter().map(|w| Catalog::new(&w.db, &w.design)).collect();
    const REPS: usize = 3;

    let mut runs: Vec<QueryRun> = Vec::new();
    let mut exec_us = Vec::new();
    let mut tapped_us = Vec::new();
    let sink = Arc::new(CountingSink(AtomicU64::new(0)));
    let tap = TraceTap::from_sink(sink.clone());
    tracer.call("engine.run_plan", NO_QUERY, || {
        for tpl in &fx.templates {
            let catalog = &catalogs[tpl.corpus];
            exec_us.push(
                per_call(REPS, || {
                    black_box(run_plan(catalog, &tpl.plan, &tpl.exec));
                }) / 1e3,
            );
            tapped_us.push(
                per_call(REPS, || {
                    black_box(run_plan_tapped(catalog, &tpl.plan, &tpl.exec, 0, tap.clone()));
                }) / 1e3,
            );
            runs.push(run_plan(catalog, &tpl.plan, &tpl.exec));
        }
    });
    m.insert("engine.exec_us_per_query", weighted(&exec_us, &pop));
    m.insert("engine.tapped_exec_us_per_query", weighted(&tapped_us, &pop));

    // The wire format: encode the retained snapshots, decode the captured
    // streams (full snapshots and deltas timed apart).
    let (mut enc_ns, mut enc_n) = (0.0, 0usize);
    let (mut full_ns, mut full_n, mut delta_ns, mut delta_n) = (0.0, 0usize, 0.0, 0usize);
    tracer.call("engine.delta_codec", NO_QUERY, || {
        for (tpl, run) in fx.templates.iter().zip(&runs) {
            let windows = &run.trace.pipeline_windows;
            enc_ns += per_call(8, || {
                let mut enc = DeltaEncoder::new();
                for snap in &run.trace.snapshots {
                    black_box(enc.encode(snap, windows));
                }
            });
            enc_n += run.trace.snapshots.len();
            for _ in 0..8 {
                let mut dec = DeltaDecoder::new();
                for ev in &tpl.events {
                    match ev {
                        TraceEvent::Snapshot { snapshot, windows, .. } => {
                            let t = Instant::now();
                            dec.apply_full(snapshot, windows);
                            full_ns += t.elapsed().as_nanos() as f64;
                            full_n += 1;
                        }
                        TraceEvent::Delta { time, changes, window_updates, .. } => {
                            let t = Instant::now();
                            black_box(dec.apply_delta(*time, changes, window_updates));
                            delta_ns += t.elapsed().as_nanos() as f64;
                            delta_n += 1;
                        }
                        _ => {}
                    }
                }
            }
        }
    });
    m.insert("engine.delta_encode_ns", enc_ns / enc_n.max(1) as f64);
    m.insert("engine.full_decode_ns", full_ns / full_n.max(1) as f64);
    m.insert("engine.delta_decode_ns", delta_ns / delta_n.max(1) as f64);

    let events: Vec<f64> = fx.templates.iter().map(|t| t.events.len() as f64).collect();
    let bytes: Vec<f64> = fx
        .templates
        .iter()
        .map(|t| t.events.iter().map(|e| e.payload_bytes() as f64).sum::<f64>())
        .collect();
    let deltas: Vec<f64> = fx
        .templates
        .iter()
        .map(|t| t.events.iter().filter(|e| matches!(e, TraceEvent::Delta { .. })).count() as f64)
        .collect();
    let events_per_query = weighted(&events, &pop);
    m.insert("engine.events_per_query", events_per_query);
    m.insert("engine.tap_bytes_per_event", weighted(&bytes, &pop) / events_per_query);
    m.insert("engine.delta_event_share", weighted(&deltas, &pop) / events_per_query);

    // Registration-time work: the compiled bound kernel, one incremental
    // observation state per pipeline, and the static features.
    let mut compile_us = Vec::new();
    let (mut static_ns, mut static_n) = (0.0, 0usize);
    tracer.call("estimators.kernel_compile", NO_QUERY, || {
        for tpl in &fx.templates {
            let pipelines = decompose(&tpl.plan);
            compile_us.push(
                per_call(32, || {
                    black_box(BoundsKernel::new(&tpl.plan));
                    for p in &pipelines {
                        black_box(IncrementalObs::new(Arc::clone(&tpl.plan), p));
                    }
                }) / 1e3,
            );
        }
    });
    tracer.call("core.static_features", NO_QUERY, || {
        for tpl in &fx.templates {
            let pipelines = decompose(&tpl.plan);
            for p in &pipelines {
                static_ns += per_call(32, || {
                    black_box(static_features::extract_pipeline(&tpl.plan, p));
                });
                static_n += 1;
            }
        }
    });
    m.insert("estimators.kernel_compile_us", weighted(&compile_us, &pop));
    m.insert("core.static_features_us", static_ns / static_n.max(1) as f64 / 1e3);

    // The twin evaluation paths over a finished run: batch `PipelineObs`
    // against replay through `IncrementalObs`, every curve drawn.
    let mut batch_us = Vec::new();
    let mut replay_us = Vec::new();
    let mut records_us = Vec::new();
    let (mut online_ns, mut online_n) = (0.0, 0usize);
    tracer.call("estimators.batch_eval", NO_QUERY, || {
        for run in &runs {
            batch_us.push(
                per_call(REPS, || {
                    let ctx = TraceCtx::new(run);
                    for pid in 0..run.pipelines.len() {
                        if let Some(obs) = PipelineObs::with_ctx(run, pid, &ctx) {
                            for kind in ALL_KINDS {
                                black_box(obs.curve(kind));
                            }
                        }
                    }
                }) / 1e3,
            );
        }
    });
    tracer.call("estimators.replay_eval", NO_QUERY, || {
        for run in &runs {
            replay_us.push(
                per_call(REPS, || {
                    let ctx = TraceCtx::new(run);
                    for pid in 0..run.pipelines.len() {
                        if let Some(obs) = IncrementalObs::replay_shared(run, pid, &ctx) {
                            for kind in ALL_KINDS {
                                black_box(obs.curve(kind));
                            }
                        }
                    }
                }) / 1e3,
            );
        }
    });
    tracer.call("core.records", NO_QUERY, || {
        for run in &runs {
            records_us.push(
                per_call(REPS, || {
                    let mut out = Vec::new();
                    records_from_run(run, "bench", 0, 5, &mut out);
                    black_box(out);
                }) / 1e3,
            );
            let ctx = TraceCtx::new(run);
            for pid in 0..run.pipelines.len() {
                let Some(obs) = IncrementalObs::replay_shared(run, pid, &ctx) else { continue };
                let weight = pipeline_weight(&run.plan, &run.pipelines[pid]);
                online_ns += per_call(REPS, || {
                    black_box(record_from_online(&run.plan, &obs, "bench", 0, weight, 5));
                });
                online_n += 1;
            }
        }
    });
    m.insert("estimators.batch_eval_us_per_run", weighted(&batch_us, &pop));
    m.insert("estimators.replay_us_per_run", weighted(&replay_us, &pop));
    m.insert("core.records_us_per_run", weighted(&records_us, &pop));
    m.insert("core.record_online_us", online_ns / online_n.max(1) as f64 / 1e3);
}

/// The selector's codec and the boosted trees behind it.
pub fn model_layers(fx: &Fixtures, tracer: &mut Tracer, m: &mut Metrics) {
    let selector: &EstimatorSelector = &fx.selector;
    let (text, enc_ns) = tracer.timed("core.selector_to_text", NO_QUERY, || selector.to_text());
    let (back, dec_ns) =
        tracer.timed("core.selector_from_text", NO_QUERY, || EstimatorSelector::from_text(&text));
    black_box(back.expect("a selector's own text parses"));
    m.insert("core.selector_encode_ms", enc_ns as f64 / 1e6);
    m.insert("core.selector_decode_ms", dec_ns as f64 / 1e6);
    m.insert("core.selector_text_bytes", text.len() as f64);

    let cfg = selector.config();
    let data = fx.bootstrap_records.dataset_for(EstimatorKind::Dne, cfg.mode);
    let (model, train_ns) = tracer.timed("mart.train", NO_QUERY, || Mart::train(&data, &cfg.boost));
    let (warm, warm_ns) = tracer
        .timed("mart.warm_start", NO_QUERY, || Mart::warm_start(&model, &data, &cfg.boost, 40));
    black_box(warm);
    let rows = data.len().max(1);
    let mut row = 0usize;
    let predict_ns = tracer.call("mart.predict", NO_QUERY, || {
        per_call(20_000, || {
            black_box(model.predict(data.row(row % rows)));
            row += 1;
        })
    });
    m.insert("mart.train_ms_per_model", train_ns as f64 / 1e6);
    m.insert("mart.warm_start_ms", warm_ns as f64 / 1e6);
    m.insert("mart.predict_ns", predict_ns);
    m.insert("mart.trees", selector.model(EstimatorKind::Dne).map_or(0, Mart::n_trees) as f64);

    let hub = SelectorHub::new(Arc::clone(&fx.selector));
    let mut frame = Vec::new();
    let (_, frame_enc_ns) =
        tracer.timed("learn.frame_encode", NO_QUERY, || hub.publish_to(&mut frame));
    let mut subscriber = SelectorSubscriber::new();
    let mut reader = std::io::Cursor::new(frame);
    let (got, frame_dec_ns) =
        tracer.timed("learn.frame_decode", NO_QUERY, || subscriber.recv_from(&mut reader));
    assert!(matches!(got, Ok(Some(_))), "a hub's own frame installs");
    m.insert("learn.frame_encode_us", frame_enc_ns as f64 / 1e3);
    m.insert("learn.frame_decode_us", frame_dec_ns as f64 / 1e3);
}

/// The monitor's client surface on an idle (parked) service.
pub fn service_layers(fx: &Fixtures, tracer: &mut Tracer, m: &mut Metrics) {
    let svc = build_service(&fx.selector);
    let tap = svc.tap();
    let n_templates = fx.templates.len();
    let tpl_of = |q: usize| &fx.templates[q % n_templates];

    // Admission, one query at a time and batched.
    let (mut reg_ns, mut unreg_ns) = (Vec::new(), Vec::new());
    tracer.call("monitor.register", NO_QUERY, || {
        for q in 0..256 {
            let t = Instant::now();
            svc.try_register(q, Arc::clone(&tpl_of(q).plan)).expect("fresh id registers");
            reg_ns.push(t.elapsed().as_nanos() as f64);
        }
        for q in 0..256 {
            let t = Instant::now();
            svc.unregister(q).expect("registered id unregisters");
            unreg_ns.push(t.elapsed().as_nanos() as f64);
        }
    });
    let ids: Vec<usize> = (1000..1256).collect();
    let (results, batch_ns) = tracer.timed("monitor.register_batch", NO_QUERY, || {
        svc.try_register_batch(&ids, &fx.templates[0].plan)
    });
    assert!(results.iter().all(|(_, r)| r.is_ok()), "fresh ids register in a batch");
    for &q in &ids {
        svc.unregister(q).expect("registered id unregisters");
    }
    m.insert("monitor.register_us", median(&reg_ns) / 1e3);
    m.insert("monitor.unregister_us", median(&unreg_ns) / 1e3);
    m.insert("monitor.register_batch_us_per_query", batch_ns as f64 / 1e3 / ids.len() as f64);

    // Delivery: one event at a time, batched, read-your-writes, and the
    // drain of a 1 024-event burst.
    let stream = |base: usize, queries: usize| -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for q in base..base + queries {
            let tpl = tpl_of(q);
            out.extend((0..tpl.events.len()).map(|i| tpl.event(i, q, i as f64 * 1e-3)));
        }
        out
    };
    let register_all = |base: usize, queries: usize| {
        for q in base..base + queries {
            svc.try_register(q, Arc::clone(&tpl_of(q).plan)).expect("fresh id registers");
        }
    };
    let unregister_all = |base: usize, queries: usize| {
        svc.quiesce();
        for q in base..base + queries {
            svc.unregister(q).expect("registered id unregisters");
        }
    };

    register_all(2000, 64);
    let events = stream(2000, 64);
    let n = events.len();
    let (_, send_ns) = tracer.timed("monitor.tap_send", NO_QUERY, || {
        for ev in events {
            tap.send(ev).expect("service accepts events");
        }
    });
    unregister_all(2000, 64);
    m.insert("monitor.tap_send_ns", send_ns as f64 / n as f64);

    register_all(3000, 64);
    let mut events = stream(3000, 64).into_iter();
    let (_, batch_send_ns) = tracer.timed("monitor.tap_send_batch", NO_QUERY, || loop {
        let chunk: Vec<TraceEvent> = events.by_ref().take(64).collect();
        if chunk.is_empty() {
            break;
        }
        tap.send_batch(chunk).expect("service accepts batches");
    });
    unregister_all(3000, 64);
    m.insert("monitor.tap_send_batch_ns_per_event", batch_send_ns as f64 / n as f64);

    register_all(4000, 8);
    let mut rtt_ns = Vec::new();
    tracer.call("monitor.ingest", NO_QUERY, || {
        for ev in stream(4000, 8) {
            let t = Instant::now();
            svc.ingest(ev);
            rtt_ns.push(t.elapsed().as_nanos() as f64);
        }
    });
    unregister_all(4000, 8);
    m.insert("monitor.ingest_rtt_idle_us", median(&rtt_ns) / 1e3);

    let mut drain_us = Vec::new();
    tracer.call("monitor.quiesce", NO_QUERY, || {
        for round in 0..8 {
            let base = 5000 + round * 100;
            register_all(base, 24);
            let burst: Vec<TraceEvent> = stream(base, 24).into_iter().take(1024).collect();
            let sent = burst.len() as f64;
            let t = Instant::now();
            for ev in burst {
                tap.send(ev).expect("service accepts events");
            }
            svc.quiesce();
            drain_us.push(t.elapsed().as_nanos() as f64 / 1e3 / (sent / 1024.0));
            unregister_all(base, 24);
        }
    });
    m.insert("monitor.quiesce_us_per_kevent", median(&drain_us));

    // Reads, with 1 000 and with 24 000 queries registered.
    let plan0 = &fx.templates[0].plan;
    let ids: Vec<usize> = (10_000..11_000).collect();
    svc.try_register_batch(&ids, plan0);
    for (i, &q) in ids.iter().enumerate().take(200) {
        // Give some of them state worth reading.
        svc.ingest(fx.templates[0].event(0, q, i as f64));
    }
    let mut k = 0usize;
    let mut next = || {
        k += 1;
        10_000 + (k * 7919) % 1000
    };
    tracer.call("monitor.read", NO_QUERY, || {
        m.insert(
            "monitor.read_progress_ns",
            per_call(50_000, || {
                black_box(svc.query_progress(next()).is_ok());
            }),
        );
        m.insert(
            "monitor.read_eta_ns",
            per_call(50_000, || {
                black_box(svc.remaining_time(next()).is_ok());
            }),
        );
        m.insert(
            "monitor.read_deadline_ns",
            per_call(50_000, || {
                black_box(svc.progress_at_deadline(next(), 5.0).is_ok());
            }),
        );
        m.insert(
            "monitor.read_status_ns",
            per_call(50_000, || {
                black_box(svc.status(next()).is_ok());
            }),
        );
    });
    let more: Vec<usize> = (11_000..34_000).collect();
    svc.try_register_batch(&more, plan0);
    let mut k = 0usize;
    let read_24k = tracer.call("monitor.read", NO_QUERY, || {
        per_call(50_000, || {
            k += 1;
            black_box(svc.query_progress(10_000 + (k * 7919) % 24_000).is_ok());
        })
    });
    m.insert("monitor.read_progress_24k_ns", read_24k);

    let (swapped, swap_ns) = tracer
        .timed("monitor.swap_selector", NO_QUERY, || svc.swap_selector(Arc::clone(&fx.selector)));
    assert!(swapped.is_ok(), "a live service accepts a swap");
    m.insert("monitor.swap_us", swap_ns as f64 / 1e3);
    let (snapshot, scrape_ns) = tracer.timed("monitor.metrics_scrape", NO_QUERY, || svc.metrics());
    m.insert("monitor.metrics_scrape_us", scrape_ns as f64 / 1e3);
    svc.shutdown();

    obs_layer(&snapshot, tracer, m);

    // What harvesting adds to a query's last event.
    let (sink, harvests) = channel();
    let mut monitor = MonitorBuilder::with_selector(Arc::clone(&fx.selector))
        .harvester(Arc::new(sink), HarvestConfig { label: "bench".into(), min_observations: 5 })
        .build_monitor()
        .expect("selector-policy monitors always build");
    let mut finish_ns = Vec::new();
    tracer.call("monitor.harvest", NO_QUERY, || {
        for q in 0..4 * n_templates {
            let tpl = tpl_of(q);
            monitor.register(q, Arc::clone(&tpl.plan));
            let last = tpl.events.len() - 1;
            for i in 0..last {
                monitor.ingest(tpl.event(i, q, i as f64 * 1e-3));
            }
            let ev = tpl.event(last, q, last as f64 * 1e-3);
            let t = Instant::now();
            monitor.ingest(ev);
            finish_ns.push(t.elapsed().as_nanos() as f64);
        }
    });
    black_box(harvests.try_iter().count());
    m.insert("monitor.harvest_us_per_query", median(&finish_ns) / 1e3);
}

/// The metrics registry's own primitives and its text exposition.
fn obs_layer(snapshot: &MetricsSnapshot, tracer: &mut Tracer, m: &mut Metrics) {
    let registry = prosel::obs::MetricsRegistry::new();
    let counter = registry.counter("bench_counter");
    let histogram: Arc<Histogram> = registry.histogram("bench_histogram");
    for i in 0..64 {
        registry.counter(&format!("bench_series_{i}")).inc();
    }
    tracer.call("obs.primitives", NO_QUERY, || {
        m.insert("obs.counter_inc_ns", per_call(1_000_000, || counter.inc()));
        let mut v = 1u64;
        m.insert(
            "obs.histogram_record_ns",
            per_call(1_000_000, || {
                v = v.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                histogram.record(v >> 40);
            }),
        );
        m.insert(
            "obs.snapshot_us",
            per_call(200, || {
                black_box(registry.snapshot());
            }) / 1e3,
        );
    });
    // The exposition of a real scrape (the service's, after the run above).
    let (text, render_ns) = tracer.timed("obs.render_text", NO_QUERY, || snapshot.render_text());
    let (parsed, parse_ns) =
        tracer.timed("obs.parse_text", NO_QUERY, || MetricsSnapshot::parse_text(&text));
    assert!(parsed.is_ok(), "a scrape's own exposition parses");
    m.insert("obs.render_us", render_ns as f64 / 1e3);
    m.insert("obs.parse_us", parse_ns as f64 / 1e3);
}

/// What the benchmark's own instruments cost.
pub fn bench_layer(fx: &Fixtures, m: &mut Metrics) {
    m.insert(
        "bench.timer_ns",
        per_call(1_000_000, || {
            black_box(Instant::now().elapsed());
        }),
    );
    let retag: Vec<f64> = fx
        .templates
        .iter()
        .map(|tpl| {
            let mut i = 0usize;
            per_call(4 * tpl.events.len(), || {
                black_box(tpl.event(i % tpl.events.len(), i, 0.5));
                i += 1;
            })
        })
        .collect();
    let events: Vec<f64> = fx.templates.iter().map(|t| t.events.len() as f64).collect();
    let by_events: Vec<f64> = popularity(fx).iter().zip(&events).map(|(p, e)| p * e).collect();
    m.insert("bench.retag_ns", weighted(&retag, &by_events));
}
