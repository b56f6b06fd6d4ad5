//! The five workloads: what traffic each offers, and the end-to-end run
//! of each (set-up, timed drive, verification, feedback round, scores).
//!
//! Every workload is one life of the service — bootstrap a selector,
//! serve traffic, learn from what finished — and reports every end-to-end
//! metric; they differ in the traffic shape, which decides which layers
//! the time goes to (see the README's interaction table).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use prosel::core::selection::EstimatorSelector;
use prosel::datagen::TuningLevel;
use prosel::monitor::MonitorService;
use prosel::planner::workload::{Workload, WorkloadKind};

use crate::calib::Meter;
use crate::catalogue::Outcome;
use crate::fixtures::{bootstrap, popularity, setup, side_corpus, Fixtures, Template};
use crate::learn::{feedback_round, quality, Feedback, Quality, Source, FEEDBACK_QUERIES};
use crate::schedule::{
    closed_loop, digest_draws, digest_sends, expected_mix, open_loop, permutation, Send,
};
use crate::serve::{
    build_reference, build_service, check_conservation, drive_cycles, drive_live, drive_open_loop,
    scrape, served_l1, summarize, Interleaved, Plan, RunLog, Scrape, ServiceSut, Summary, Sut,
    Timing, BURST, CYCLE, RATE, SEGMENTS,
};
use crate::spans::Tracer;
use crate::stats::median;

pub const WORKLOADS: [&str; 4] = ["serve_burst", "ingest_saturate", "live_tapped", "learn_cycle"];

/// A serving drive pauses after every 4th of its 20 segments for one more
/// repetition of set-up and feedback round: five of each per run, seconds
/// apart, reported as medians.
const PAUSE_EVERY: usize = 4;
/// Queries per closed-loop cycle of `learn_cycle`'s serving slices.
pub const LEARN_CYCLE: usize = 50;
/// `learn_cycle` repetitions; its times are medians, its L1s must agree.
const LEARN_REPEATS: usize = 3;
/// Sends of an open-loop run the single-threaded reference re-checks.
const OPEN_LOOP_PREFIX: usize = 96 * BURST;
pub const CYCLE_PREFIX: usize = 2;
pub const LIVE_PREFIX: usize = 256;
const CLOSED_LOOP_DRAWS: usize = 1 << 18;

/// One timed drive of a serving workload against a fresh service.
pub struct Served {
    pub summary: Summary,
    pub scrape: Scrape,
    pub log: RunLog,
    pub digest_ok: bool,
    pub schedule_digest: u64,
    pub depth_max: f64,
}

/// Which driver serves a workload's traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `burst` events per due instant.
    OpenLoop { burst: usize },
    /// Closed-loop cycles of `cycle` queries.
    Cycles { cycle: usize },
    /// The engine executes the plans, tapped.
    Live,
}

/// The traffic `--seed` generates for one serving drive.
pub struct Traffic<'a> {
    pub shape: Shape,
    /// The plans and captured streams the traffic draws from.
    pub templates: &'a [Template],
    /// Open loop: the full send list.
    pub sends: Vec<Send>,
    /// Closed loops: the template of each successive query.
    pub draws: Vec<u16>,
    pub digest: u64,
    /// The warm-up and segments the traffic was sized for.
    pub timing: Timing,
    /// Sends, cycles or queries the single-threaded reference re-checks.
    pub prefix: usize,
}

pub fn traffic<'a>(name: &str, fx: &'a Fixtures, seed: u64, timing: Timing) -> Traffic<'a> {
    let (shape, prefix) = match name {
        "serve_burst" => (Shape::OpenLoop { burst: BURST }, OPEN_LOOP_PREFIX),
        "ingest_saturate" => (Shape::Cycles { cycle: CYCLE }, CYCLE_PREFIX),
        "live_tapped" => (Shape::Live, LIVE_PREFIX),
        _ => panic!("{name} draws no traffic over the fixtures"),
    };
    let (sends, draws) = match shape {
        Shape::OpenLoop { burst } => {
            let lens: Vec<usize> = fx.templates.iter().map(|t| t.events.len()).collect();
            let planned = (RATE * timing.total_ns() as f64 / 1e9) as usize;
            (open_loop(seed, &fx.popularity, &lens, planned / burst * burst), Vec::new())
        }
        _ => (Vec::new(), closed_loop(seed, &fx.popularity, CLOSED_LOOP_DRAWS)),
    };
    let digest = if draws.is_empty() { digest_sends(&sends) } else { digest_draws(&draws) };
    Traffic { shape, templates: &fx.templates, sends, draws, digest, timing, prefix }
}

/// `learn_cycle`'s serving traffic: every query of the feedback corpus,
/// in seeded order, in closed-loop cycles of [`LEARN_CYCLE`].
pub fn learned_traffic(streams: &[Template], seed: u64, timing: Timing) -> Traffic<'_> {
    let draws = permutation(seed, streams.len());
    Traffic {
        shape: Shape::Cycles { cycle: LEARN_CYCLE },
        templates: streams,
        sends: Vec::new(),
        digest: digest_draws(&draws),
        draws,
        timing,
        prefix: 1,
    }
}

fn drive<S: Sut>(sut: &mut S, fx: &Fixtures, traffic: &Traffic<'_>, plan: Plan<'_>) -> RunLog {
    match traffic.shape {
        Shape::OpenLoop { burst } => {
            drive_open_loop(sut, traffic.templates, &traffic.sends, burst, plan)
        }
        Shape::Cycles { cycle } => {
            drive_cycles(sut, traffic.templates, &traffic.draws, cycle, plan)
        }
        Shape::Live => drive_live(sut, fx, &traffic.draws, plan),
    }
}

/// Drive `traffic` against `svc` (which serves new registrations with
/// `selector`), check the conservation law, then replay the verified
/// prefix on a single-threaded reference under `selector` and compare
/// value digests. Consumes the service.
pub fn serve(
    fx: &Fixtures,
    traffic: &Traffic<'_>,
    svc: MonitorService,
    selector: &Arc<EstimatorSelector>,
    tracer: &mut Tracer,
    between: Interleaved<'_>,
) -> Served {
    let (timing, prefix) = (traffic.timing, traffic.prefix);
    let mut sut = ServiceSut::new(&svc, tracer);
    let mut log = drive(&mut sut, fx, traffic, Plan::timed(timing, prefix, between));
    let depth_max = sut.depth_max;
    check_conservation(&svc, &mut log);
    let scraped = scrape(&svc.metrics());
    svc.shutdown();

    let rlog = drive(&mut build_reference(selector), fx, traffic, Plan::verify(timing, prefix));
    let digest_ok = log.digest_at_prefix.is_some() && log.digest_at_prefix == rlog.digest_at_prefix;
    log.attempted += 1;
    let (got, want) = (log.digest_at_prefix, rlog.digest_at_prefix);
    log.fail(!digest_ok as u64, || {
        format!("value digest {got:x?} differs from the single-threaded reference {want:x?}")
    });
    log.fail(rlog.failed, || format!("reference run failed: {:?}", rlog.failures));
    let summary = summarize(&mut log, matches!(traffic.shape, Shape::OpenLoop { .. }));
    Served { summary, scrape: scraped, log, digest_ok, schedule_digest: traffic.digest, depth_max }
}

/// `learn_cycle`'s serving slice: the freshly learned selector goes live
/// by hot swap, then serves the feedback corpus's queries closed-loop.
pub fn serve_learned(
    fx: &Fixtures,
    before: &Arc<EstimatorSelector>,
    after: &Arc<EstimatorSelector>,
    traffic: &Traffic<'_>,
    tracer: &mut Tracer,
) -> Served {
    let svc = build_service(before);
    let swapped = svc.swap_selector(Arc::clone(after));
    let mut served = serve(fx, traffic, svc, after, tracer, &mut || {});
    served.log.attempted += 1;
    served.log.fail(swapped.is_err() as u64, || "hot swap of the learned selector refused".into());
    served
}

/// The median of repeated batch timings, each `(seconds, host slowdown
/// while it ran)`, stated at reference speed ([`crate::calib`]).
pub fn at_reference(timings: &[(f64, f64)]) -> f64 {
    median(&timings.iter().map(|(seconds, slowdown)| seconds / slowdown).collect::<Vec<_>>())
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `learn_cycle`'s serving slice: a fifth of the run's seconds, in four
/// segments, after a short warm-up.
pub fn learn_slice(seconds: f64) -> Timing {
    Timing {
        warm_ns: (seconds * 2e7) as u64,
        seg_ns: (seconds * 5e7) as u64,
        segments: 4,
        pause_every: 0,
    }
}

/// The untraced run of `name`: everything `BENCHMARK.json` lists under
/// `end_to_end`.
pub fn run_end_to_end(name: &str, seed: u64, seconds: f64) -> Outcome {
    let mut tracer = Tracer::off();
    let fx = setup(&mut tracer);
    let mut setups = vec![(fx.times.total_s, fx.times.slowdown)];
    let mut notes = Vec::new();
    let mut correct = fx.codec_identical;
    if !correct {
        notes.push("from_text(to_text(selector)) did not re-encode identically".into());
    }

    let (served, train_s, feedback, before, after, l1_served);
    if name == "learn_cycle" {
        let out = learn_cycle(&fx, seed, seconds, &mut tracer, &mut setups);
        correct &= out.consistent;
        notes.extend(out.notes);
        (served, train_s, feedback, before, after, l1_served) =
            (out.served, out.train_s, out.feedback, out.before, out.after, out.served_l1);
    } else {
        let timing = Timing::new(seconds, SEGMENTS).pausing_every(PAUSE_EVERY);
        let tr = traffic(name, &fx, seed, timing);
        let svc = build_service(&fx.selector);
        let pop = popularity(&fx);
        let mix = expected_mix(&pop, FEEDBACK_QUERIES);
        let round = |fx: &Fixtures| {
            feedback_round(
                &fx.selector,
                Source::Streams { templates: &fx.templates, draws: &mix },
                &mut Tracer::off(),
            )
        };
        let mut fb = round(&fx);
        let mut trains = vec![(fx.times.train_s, fx.times.train_slowdown)];
        let mut rounds = vec![(fb.seconds, fb.slowdown)];
        let mut repetition = || {
            let again = setup(&mut Tracer::off());
            setups.push((again.times.total_s, again.times.slowdown));
            trains.push((again.times.train_s, again.times.train_slowdown));
            let fb = round(&again);
            rounds.push((fb.seconds, fb.slowdown));
        };
        let s = serve(&fx, &tr, svc, &fx.selector, &mut tracer, &mut repetition);
        notes.push(format!("cal trains {trains:?}"));
        notes.push(format!("cal rounds {rounds:?}"));
        fb.seconds = at_reference(&rounds);
        before = quality(&fx.selector, &fx.holdout, &mut tracer);
        after = quality(&fb.selector, &fx.holdout, &mut tracer);
        l1_served = served_l1(&fx.templates, &fx.selector, &pop);
        (served, train_s, feedback) = (s, at_reference(&trains), fb);
    }
    notes.push(format!("cal setups {setups:?}"));
    let setup_s = at_reference(&setups);
    if !feedback.checkpoint_identical {
        correct = false;
        notes.push("restore(checkpoint(learner)) did not re-encode identically".into());
    }
    if feedback.harvested < FEEDBACK_QUERIES {
        correct = false;
        notes
            .push(format!("feedback round harvested {} of {FEEDBACK_QUERIES}", feedback.harvested));
    }
    notes.push(format!("schedule digest {:016x}", served.schedule_digest));
    notes.push(format!(
        "value digest {} the single-threaded reference; {} invalid segment(s); gen lag p50 {:.2} us",
        if served.digest_ok { "equals" } else { "DIFFERS FROM" },
        served.summary.invalid_segments,
        served.summary.gen_lag_p50_us
    ));
    notes.push(format!(
        "feedback round: {} harvested, promoted: {}, best fixed L1 {:.6}, oracle L1 {:.6}",
        feedback.harvested, feedback.promoted, before.best_fixed_l1, before.oracle_l1
    ));
    notes.extend(served.log.failures.iter().cloned());
    correct &= served.log.failed == 0;

    let s = &served.summary;
    let metrics = BTreeMap::from([
        ("setup_s", setup_s),
        ("peak_rss_mb", peak_rss_mb()),
        ("emit_to_visible_p50_us", s.visible_p50_us),
        ("read_p50_ns", s.read_p50_ns),
        ("events_per_s", s.events_per_s),
        ("register_p50_us", s.register_p50_us),
        ("queries_per_s", s.queries_per_s),
        ("train_s", train_s),
        ("feedback_round_s", feedback.seconds),
        ("selection_l1", before.selection_l1),
        ("selection_l1_after_feedback", after.selection_l1),
        ("served_l1", l1_served),
    ]);
    Outcome {
        metrics,
        attempted: served.log.attempted,
        failed: served.log.failed,
        correct,
        notes,
        table: served.summary.table,
    }
}

/// The learning half of one `learn_cycle` repetition: bootstrap a selector
/// from 150 `tpch-untuned` + 150 `real1` queries (120 boosting rounds, text
/// round trip), then one feedback round over `feedback_corpus`.
pub struct Learned {
    /// The bootstrap selector.
    pub selector: Arc<EstimatorSelector>,
    /// Materialise + collect + train + text round trip.
    pub train_s: f64,
    /// The host's slowdown over `train_s`.
    pub train_slowdown: f64,
    pub codec_identical: bool,
    pub feedback: Feedback,
}

/// 150 fresh `tpcds` queries for `learn_cycle`'s feedback rounds (not the
/// hold-out's).
pub fn feedback_corpus(tracer: &mut Tracer) -> Workload {
    side_corpus(WorkloadKind::TpcdsLike, 33, TuningLevel::PartiallyTuned, FEEDBACK_QUERIES, tracer)
}

pub fn learn_once(feedback_corpus: &Workload, tracer: &mut Tracer) -> Learned {
    let start = Instant::now();
    let mut meter = Meter::start();
    let tpch = side_corpus(WorkloadKind::TpchLike, 22, TuningLevel::Untuned, 150, tracer);
    meter.lap();
    let real1 = side_corpus(WorkloadKind::Real1, 23, TuningLevel::PartiallyTuned, 150, tracer);
    let corpora_slowdown = meter.finish();
    let corpora_s = start.elapsed().as_secs_f64();
    let boot = bootstrap(&[&tpch, &real1], 120, tracer);
    let train_s = corpora_s + boot.seconds;
    // Each part weighs in with its own share of the time.
    let train_slowdown = (corpora_s * corpora_slowdown + boot.seconds * boot.slowdown) / train_s;
    let selector = Arc::new(boot.selector);
    let feedback = feedback_round(&selector, Source::Corpus(feedback_corpus), tracer);
    Learned { selector, train_s, train_slowdown, codec_identical: boot.codec_identical, feedback }
}

pub struct LearnCycle {
    /// The serving slices of all repetitions, summarised as segments.
    pub served: Served,
    pub train_s: f64,
    /// The last repetition's round, `seconds` replaced by the median.
    pub feedback: Feedback,
    pub before: Quality,
    pub after: Quality,
    pub served_l1: f64,
    /// L1s agreed across repetitions and both codecs were identities.
    pub consistent: bool,
    pub notes: Vec<String>,
}

/// The paper's own pipeline plus the learning loop, [`LEARN_REPEATS`]
/// times: [`learn_once`], then put the learned selector to work for a
/// serving slice of `seconds / 5`.
pub fn learn_cycle(
    fx: &Fixtures,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    setups: &mut Vec<(f64, f64)>,
) -> LearnCycle {
    let feedback_corpus = feedback_corpus(tracer);
    let slice = learn_slice(seconds);
    let mut trains = Vec::new();
    let mut rounds = Vec::new();
    let mut l1s: Vec<(u64, u64, u64)> = Vec::new();
    let mut consistent = true;
    let mut notes = Vec::new();
    let mut merged: Option<Served> = None;
    let mut last = None;
    for rep in 0..LEARN_REPEATS {
        if rep > 0 {
            // One more set-up between repetitions, seconds after the last.
            let again = setup(tracer).times;
            setups.push((again.total_s, again.slowdown));
        }
        let Learned { selector, train_s, train_slowdown, codec_identical, feedback: fb } =
            learn_once(&feedback_corpus, tracer);
        trains.push((train_s, train_slowdown));
        rounds.push((fb.seconds, fb.slowdown));
        consistent &= codec_identical;
        let before = quality(&selector, &fx.holdout, tracer);
        let after = quality(&fb.selector, &fx.holdout, tracer);

        let slice_traffic = learned_traffic(&fb.captured, seed, slice);
        let served = serve_learned(fx, &selector, &fb.selector, &slice_traffic, tracer);
        let weights = vec![1.0; fb.captured.len()];
        let l1_served = served_l1(&fb.captured, &fb.selector, &weights);
        l1s.push((
            before.selection_l1.to_bits(),
            after.selection_l1.to_bits(),
            l1_served.to_bits(),
        ));
        merged = Some(match merged.take() {
            None => served,
            Some(mut all) => {
                all.log.segments.extend(served.log.segments);
                all.log.cal_ns.extend(served.log.cal_ns);
                all.log.attempted += served.log.attempted;
                all.log.failed += served.log.failed;
                all.log.failures.extend(served.log.failures);
                all.digest_ok &= served.digest_ok;
                all.scrape = served.scrape;
                all
            }
        });
        last = Some((fb, before, after, l1_served));
    }
    if l1s.iter().any(|l| *l != l1s[0]) {
        consistent = false;
        notes.push(format!("L1s differ across repetitions: {l1s:x?}"));
    }
    let mut served = merged.expect("at least one repetition");
    served.summary = summarize(&mut served.log, false);
    let (mut feedback, before, after, l1_served) = last.expect("at least one repetition");
    notes.push(format!("cal trains {trains:?}"));
    notes.push(format!("cal rounds {rounds:?}"));
    feedback.seconds = at_reference(&rounds);
    LearnCycle {
        served,
        train_s: at_reference(&trains),
        feedback,
        before,
        after,
        served_l1: l1_served,
        consistent,
        notes,
    }
}
