//! The traced run (`--trace 1`): every per-layer metric of
//! `BENCHMARK.json`, the span file and the self-time table.
//!
//! It measures each layer on an idle process ([`crate::layers`]), drives
//! one segment of the workload untraced and one with a span around every
//! call into a layer (the difference is the tracing overhead; tails and
//! scrape-derived counts come from the untraced one), and replays a prefix
//! of the workload's traffic through the shard core taken apart
//! ([`crate::shadow`]). End-to-end metrics never come from this run.

use std::path::Path;
use std::sync::Arc;

use prosel::core::selection::EstimatorSelector;

use crate::catalogue::Outcome;
use crate::fixtures::{popularity, setup, Fixtures, Template};
use crate::layers::{bench_layer, execution_layers, model_layers, service_layers, Metrics};
use crate::learn::{feedback_round, quality, Source, FEEDBACK_QUERIES};
use crate::schedule::expected_mix;
use crate::serve::{build_service, Timing};
use crate::shadow::{replay, Op};
use crate::spans::{render_table, Tracer};
use crate::workloads::{
    feedback_corpus, learn_once, learn_slice, learned_traffic, serve, serve_learned, traffic,
    Learned, Served, Shape, Traffic, LIVE_PREFIX,
};

/// Events of the workload's own traffic the shadow replay covers.
const REPLAY_EVENTS: usize = 20_000;
/// Spans written to the trace file (the table always covers all of them).
const TRACE_FILE_SPANS: usize = 200_000;

/// The first deliveries of a workload's traffic, in the order its driver
/// makes them.
fn replay_ops(traffic: &Traffic<'_>) -> Vec<Op> {
    let len_of = |template: u16| traffic.templates[template as usize].events.len();
    let mut ops = Vec::new();
    match traffic.shape {
        Shape::OpenLoop { .. } => {
            ops.extend(traffic.sends.iter().take(REPLAY_EVENTS).map(|s| Op {
                query: s.query,
                template: s.template,
                idx: s.idx,
            }))
        }
        Shape::Live => {
            for (query, &template) in traffic.draws.iter().take(LIVE_PREFIX).enumerate() {
                ops.extend((0..len_of(template)).map(|idx| Op {
                    query: query as u32,
                    template,
                    idx: idx as u16,
                }));
            }
        }
        Shape::Cycles { cycle } => {
            let members = &traffic.draws[..cycle.min(traffic.draws.len())];
            let longest = members.iter().map(|&t| len_of(t)).max().unwrap_or(0);
            for idx in 0..longest {
                for (query, &template) in members.iter().enumerate() {
                    if idx < len_of(template) {
                        ops.push(Op { query: query as u32, template, idx: idx as u16 });
                    }
                }
            }
        }
    }
    // Any cut is fine: the replay needs each query's events from index 0 in
    // order, not whole queries.
    ops.truncate(REPLAY_EVENTS);
    ops
}

pub fn run_traced(name: &str, seed: u64, seconds: f64, out_dir: &Path) -> Outcome {
    let mut tracer = Tracer::on();
    let mut m = Metrics::new();
    let mut notes = Vec::new();
    let fx: Fixtures = setup(&mut tracer);
    m.insert("datagen.build_db_ms", fx.times.build_db_ms);
    m.insert("planner.stats_ms", fx.times.stats_ms);
    m.insert("planner.plan_build_us", fx.times.plan_build_us);
    m.insert("core.selector_train_s", fx.times.train_call_s);

    execution_layers(&fx, &mut tracer, &mut m);
    model_layers(&fx, &mut tracer, &mut m);
    service_layers(&fx, &mut tracer, &mut m);
    bench_layer(&fx, &mut m);

    let q = quality(&fx.selector, &fx.holdout, &mut tracer);
    m.insert("core.selector_eval_ms", q.eval_ms);
    m.insert("core.best_fixed_l1", q.best_fixed_l1);
    m.insert("core.oracle_l1", q.oracle_l1);
    m.insert("core.selection_l1_vs_best_fixed", q.selection_l1 / q.best_fixed_l1);

    // One segment untraced, the same segment traced.
    let (plain, spanned, feedback, ops, replay_selector): (
        Served,
        Served,
        _,
        Vec<Op>,
        Arc<EstimatorSelector>,
    );
    let mut learned_streams: Option<Vec<Template>> = None;
    if name == "learn_cycle" {
        let slice = learn_slice(seconds);
        let corpus = feedback_corpus(&mut tracer);
        let Learned { selector, feedback: mut fb, .. } = learn_once(&corpus, &mut tracer);
        let streams = std::mem::take(&mut fb.captured);
        let order = learned_traffic(&streams, seed, slice);
        plain = serve_learned(&fx, &selector, &fb.selector, &order, &mut Tracer::off());
        spanned = serve_learned(&fx, &selector, &fb.selector, &order, &mut tracer);
        ops = replay_ops(&order);
        replay_selector = Arc::clone(&fb.selector);
        learned_streams = Some(streams);
        feedback = fb;
    } else {
        // A fifth of the run, in four segments, after the full warm-up.
        let segment = Timing { warm_ns: (seconds * 1e8) as u64, ..Timing::new(seconds / 5.0, 4) };
        let tr = traffic(name, &fx, seed, segment);
        let fresh = || build_service(&fx.selector);
        plain = serve(&fx, &tr, fresh(), &fx.selector, &mut Tracer::off(), &mut || {});
        spanned = serve(&fx, &tr, fresh(), &fx.selector, &mut tracer, &mut || {});
        ops = replay_ops(&tr);
        feedback = feedback_round(
            &fx.selector,
            Source::Streams {
                templates: &fx.templates,
                draws: &expected_mix(&popularity(&fx), FEEDBACK_QUERIES),
            },
            &mut tracer,
        );
        replay_selector = Arc::clone(&fx.selector);
    }
    let templates: &[Template] = learned_streams.as_deref().unwrap_or(&fx.templates);
    let mismatches = replay(&ops, templates, &replay_selector, &mut tracer, &mut m);

    let s = &plain.summary;
    m.insert("read_p99_ns", s.read_p99_ns);
    m.insert("tail.emit_to_visible_p90_us", s.visible_p90_us);
    m.insert("tail.emit_to_visible_p99_us", s.visible_p99_us);
    m.insert("tail.read_p999_ns", s.read_p999_ns);
    m.insert("tail.register_p99_us", s.register_p99_us);
    m.insert("tail.visible_samples", s.visible_samples);
    m.insert("tail.read_samples", s.read_samples);
    m.insert("tail.register_samples", s.register_samples);
    m.insert("bench.gen_lag_p50_us", s.gen_lag_p50_us);
    m.insert("bench.gen_lag_p99_us", s.gen_lag_p99_us);
    m.insert("bench.invalid_segments", s.invalid_segments);
    m.insert("bench.host_slowdown", s.slowdown);
    m.insert("monitor.batch_len_p50", plain.scrape.batch_len_p50);
    m.insert("monitor.parks_per_kevent", plain.scrape.parks_per_kevent);
    m.insert("monitor.steals_per_kevent", plain.scrape.steals_per_kevent);
    m.insert("monitor.delta_decodes", plain.scrape.delta_decodes);
    m.insert("monitor.sampled_ingest_p50_ns", plain.scrape.sampled_ingest_p50_ns);
    m.insert("monitor.sampled_snapshot_eval_p50_ns", plain.scrape.sampled_snapshot_eval_p50_ns);
    m.insert("monitor.queue_depth_max", plain.depth_max);
    // Tracing overhead on the number the workload is about: freshness for
    // the paced workloads, throughput for the closed loops.
    let t = &spanned.summary;
    let overhead = if name == "serve_burst" {
        (t.visible_p50_us - s.visible_p50_us) / s.visible_p50_us
    } else {
        (s.events_per_s - t.events_per_s) / s.events_per_s
    };
    m.insert("bench.trace_overhead_pct", overhead * 100.0);
    m.insert("learn.absorb_us", feedback.absorb_us);
    m.insert("learn.retrain_ms", feedback.retrain_ms);
    m.insert("learn.checkpoint_ms", feedback.checkpoint_ms);
    m.insert("learn.restore_ms", feedback.restore_ms);

    let recorder = tracer.recorder().expect("tracing is on");
    m.insert("bench.spans", recorder.len() as f64);
    let path = out_dir.join(format!("trace_{name}.jsonl"));
    let written = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| recorder.write_jsonl(&mut std::io::BufWriter::new(f), TRACE_FILE_SPANS));
    match written {
        Ok(n) => {
            notes.push(format!("{n} of {} spans written to {}", recorder.len(), path.display()))
        }
        Err(e) => notes.push(format!("could not write {}: {e}", path.display())),
    }

    let mut failed = plain.log.failed + spanned.log.failed + mismatches;
    if mismatches > 0 {
        notes
            .push(format!("shadow replay disagreed with ProgressMonitor on {mismatches} event(s)"));
    }
    if !feedback.checkpoint_identical {
        failed += 1;
        notes.push("restore(checkpoint(learner)) did not re-encode identically".into());
    }
    notes.extend(plain.log.failures.iter().chain(&spanned.log.failures).cloned());
    // The interaction table's prediction for bursts, as a fact: nearly all
    // of a burst's freshness wait is the shard computing.
    let ingest_ns = m["monitor.shard_ingest_ns"];
    if name == "serve_burst" {
        let events = crate::serve::BURST as f64;
        // The drive's p50 is stated at reference speed; the layer is not.
        let visible_us = s.visible_p50_us * s.slowdown;
        notes.push(format!(
            "compute share of emit_to_visible_p50_us: {:.1} % ({events} events x {ingest_ns:.0} ns shard ingest = {:.1} us of {visible_us:.1} us as measured)",
            0.1 * ingest_ns * events / visible_us.max(1e-9),
            ingest_ns * events / 1e3,
        ));
    }
    Outcome {
        attempted: plain.log.attempted + spanned.log.attempted + ops.len() as u64,
        failed,
        correct: failed == 0 && spanned.digest_ok,
        notes,
        table: render_table(recorder.spans()),
        metrics: m,
    }
}
