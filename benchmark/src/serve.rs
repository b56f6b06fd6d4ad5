//! The serving drivers: one generator thread offering traffic to a
//! [`MonitorService`], and the checks on what the service answered.
//!
//! Every driver is generic over [`Sut`], the handful of operations a
//! client of the monitor performs. The timed run drives the sharded
//! service; the verification pass drives a single-threaded
//! [`ProgressMonitor`] through the *same driver code* with pacing off, so
//! the two see the same operations in the same order and their digests of
//! the values read at synchronisation points must be equal.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use prosel::core::selection::EstimatorSelector;
use prosel::engine::plan::PhysicalPlan;
use prosel::engine::trace::{TraceEvent, TraceTap};
use prosel::engine::{run_plan_tapped, Catalog, ExecConfig};
use prosel::monitor::{
    MonitorBuilder, MonitorConfig, MonitorService, ProgressMonitor, RuntimeConfig,
};
use prosel::obs::{Gauge, MetricsRegistry, MetricsSnapshot};

use crate::calib;
use crate::fixtures::{Fixtures, Template};
use crate::schedule::{due_ns, Send, FIRST, LAST, PROBE, READ};
use crate::spans::Tracer;
use crate::stats::{fnv_fold, median_of_segments, percentiles, FNV_OFFSET};

pub const SHARDS: usize = 4;
/// Segments of a serving drive. Many short ones: a host hiccup spoils the
/// few segments it overlaps, and the median over segments ignores them.
pub const SEGMENTS: usize = 20;
/// Open-loop offered load, events per second.
pub const RATE: f64 = 50_000.0;
/// Events sharing one due instant in `serve_burst` (one burst every
/// 20.48 ms keeps the average at [`RATE`]).
pub const BURST: usize = 1024;
/// Queries registered per closed-loop cycle of `ingest_saturate`.
pub const CYCLE: usize = 256;
/// `live_tapped` keeps this many executed queries registered behind the
/// engine, so the engine never waits on a shard to unregister.
pub const LIVE_LAG: usize = 4;
/// Closed-loop cycles hand the tap buffered batches of this many events —
/// a saturating producer buffers — so the generator is always well ahead
/// of the shards and the cycle measures their capacity, not a race
/// between two threads of similar speed. One timed read follows each
/// batch; every 32nd event's query is flagged for the value digest.
pub const CYCLE_BATCH: usize = 64;
pub const CYCLE_FLAG_EVERY: u64 = 32;

/// One generator thread plus the service's workers never exceed the
/// host's cores.
pub fn worker_threads() -> usize {
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    cores.saturating_sub(1).max(1)
}

/// What a client of the monitor does.
pub trait Sut {
    /// Register, returning success and the call's wall time.
    fn register(&mut self, query: usize, plan: &Arc<PhysicalPlan>) -> (bool, u64);
    /// Fire-and-forget delivery (the engine tap's path).
    fn send(&mut self, ev: TraceEvent) -> bool;
    /// Fire-and-forget delivery of a buffered batch (one queue lock and
    /// one wake-up per shard instead of one per event).
    fn send_batch(&mut self, events: Vec<TraceEvent>) -> bool;
    /// Wait until everything sent so far is visible to readers.
    fn quiesce(&mut self);
    /// Execute `plan` with the engine tapped straight into the monitor.
    fn run_tapped(
        &mut self,
        catalog: &Catalog<'_>,
        plan: &PhysicalPlan,
        exec: &ExecConfig,
        query: usize,
    );
    fn progress(&mut self, query: usize) -> Option<f64>;
    /// Point ETA as of the last ingested event (a pure function of the
    /// stream, unlike the staleness-folded `remaining_time`).
    fn eta(&mut self, query: usize) -> Option<f64>;
    fn finished(&mut self, query: usize) -> Option<bool>;
    fn unregister(&mut self, query: usize) -> bool;
    /// One timed read, returning success and the call's wall time; `kind`
    /// rotates progress / remaining time / progress at deadline.
    fn timed_read(&mut self, kind: u64, query: usize, deadline: f64) -> (bool, u64);
}

/// The sharded service, driven through its public client surface.
pub struct ServiceSut<'a> {
    pub svc: &'a MonitorService,
    pub tap: TraceTap,
    pub tracer: &'a mut Tracer,
    /// The runtime's queue-depth gauge, sampled at every read (a gauge
    /// keeps no maximum of its own).
    depth: Arc<Gauge>,
    pub depth_max: f64,
}

impl<'a> ServiceSut<'a> {
    pub fn new(svc: &'a MonitorService, tracer: &'a mut Tracer) -> ServiceSut<'a> {
        let depth = svc.metrics_registry().gauge("runtime_queue_depth");
        ServiceSut { svc, tap: svc.tap(), tracer, depth, depth_max: 0.0 }
    }
}

impl Sut for ServiceSut<'_> {
    fn register(&mut self, query: usize, plan: &Arc<PhysicalPlan>) -> (bool, u64) {
        let svc = self.svc;
        let (res, ns) = self
            .tracer
            .timed("monitor.register", query as u32, || svc.try_register(query, Arc::clone(plan)));
        (res.is_ok(), ns)
    }

    fn send(&mut self, ev: TraceEvent) -> bool {
        let tap = &self.tap;
        self.tracer.call("monitor.tap_send", ev.query() as u32, || tap.send(ev)).is_ok()
    }

    fn send_batch(&mut self, events: Vec<TraceEvent>) -> bool {
        let tap = &self.tap;
        self.tracer
            .call("monitor.tap_send_batch", crate::spans::NO_QUERY, || tap.send_batch(events))
            .is_ok()
    }

    fn quiesce(&mut self) {
        let svc = self.svc;
        self.tracer.call("monitor.quiesce", crate::spans::NO_QUERY, || svc.quiesce());
    }

    fn run_tapped(
        &mut self,
        catalog: &Catalog<'_>,
        plan: &PhysicalPlan,
        exec: &ExecConfig,
        query: usize,
    ) {
        let tap = self.tap.clone();
        self.tracer.call("engine.run_plan_tapped", query as u32, || {
            run_plan_tapped(catalog, plan, exec, query, tap)
        });
    }

    fn progress(&mut self, query: usize) -> Option<f64> {
        self.svc.query_progress(query).ok()
    }

    fn eta(&mut self, query: usize) -> Option<f64> {
        self.svc.remaining_time_at_last_event(query).ok().map(|eta| eta.remaining)
    }

    fn finished(&mut self, query: usize) -> Option<bool> {
        self.svc.is_finished(query).ok()
    }

    fn unregister(&mut self, query: usize) -> bool {
        let svc = self.svc;
        self.tracer.call("monitor.unregister", query as u32, || svc.unregister(query)).is_ok()
    }

    fn timed_read(&mut self, kind: u64, query: usize, deadline: f64) -> (bool, u64) {
        let svc = self.svc;
        let read = match kind % 3 {
            0 => self
                .tracer
                .timed("monitor.read_progress", query as u32, || svc.query_progress(query).is_ok()),
            1 => self
                .tracer
                .timed("monitor.read_eta", query as u32, || svc.remaining_time(query).is_ok()),
            _ => self.tracer.timed("monitor.read_deadline", query as u32, || {
                svc.progress_at_deadline(query, deadline).is_ok()
            }),
        };
        self.depth_max = self.depth_max.max(self.depth.get());
        read
    }
}

/// The single-threaded core: the reference the service must agree with,
/// and the one-thread baseline of the per-layer table.
pub struct MonitorSut {
    pub mon: ProgressMonitor,
}

impl Sut for MonitorSut {
    fn register(&mut self, query: usize, plan: &Arc<PhysicalPlan>) -> (bool, u64) {
        (self.mon.try_register(query, Arc::clone(plan)).is_ok(), 0)
    }

    fn send(&mut self, ev: TraceEvent) -> bool {
        self.mon.ingest(ev);
        true
    }

    fn send_batch(&mut self, events: Vec<TraceEvent>) -> bool {
        for ev in events {
            self.mon.ingest(ev);
        }
        true
    }

    fn quiesce(&mut self) {}

    fn run_tapped(
        &mut self,
        catalog: &Catalog<'_>,
        plan: &PhysicalPlan,
        exec: &ExecConfig,
        query: usize,
    ) {
        let (tap, rx) = std::sync::mpsc::channel();
        run_plan_tapped(catalog, plan, exec, query, tap);
        self.mon.drain(&rx);
    }

    fn progress(&mut self, query: usize) -> Option<f64> {
        self.mon.query_progress(query)
    }

    fn eta(&mut self, query: usize) -> Option<f64> {
        self.mon.remaining_time_at_last_event(query).map(|eta| eta.remaining)
    }

    fn finished(&mut self, query: usize) -> Option<bool> {
        self.mon.is_finished(query)
    }

    fn unregister(&mut self, query: usize) -> bool {
        self.mon.unregister(query).is_ok()
    }

    fn timed_read(&mut self, _kind: u64, _query: usize, _deadline: f64) -> (bool, u64) {
        (true, 0)
    }
}

/// A service shaped like every serving workload's: [`SHARDS`] shards on
/// `nproc − 1` workers, its own metrics registry.
pub fn build_service(selector: &Arc<EstimatorSelector>) -> MonitorService {
    let config = MonitorConfig {
        runtime: RuntimeConfig { worker_threads: worker_threads(), ..RuntimeConfig::default() },
        metrics: Some(Arc::new(MetricsRegistry::new())),
        ..MonitorConfig::default()
    };
    MonitorBuilder::with_selector(Arc::clone(selector))
        .config(config)
        .shards(SHARDS)
        .build_service()
        .expect("selector-policy services always build")
}

pub fn build_reference(selector: &Arc<EstimatorSelector>) -> MonitorSut {
    let mon = MonitorBuilder::with_selector(Arc::clone(selector))
        .build_monitor()
        .expect("selector-policy monitors always build");
    MonitorSut { mon }
}

/// Raw samples of one timed segment.
#[derive(Default)]
pub struct Segment {
    pub visible_ns: Vec<u64>,
    pub read_ns: Vec<u64>,
    pub register_ns: Vec<u64>,
    pub lag_ns: Vec<u64>,
    pub events: u64,
    pub queries: u64,
    pub wall_ns: u64,
    /// Calibration samples taken at this segment's boundaries
    /// ([`crate::calib`]): how fast the host was while it ran.
    pub cal_ns: Vec<f64>,
}

/// Everything a drive produced.
pub struct RunLog {
    pub segments: Vec<Segment>,
    /// Samples taken before the first segment (caches warm, window full).
    pub warm: Segment,
    /// Every calibration sample of the drive, one per segment boundary.
    pub cal_ns: Vec<f64>,
    /// Running FNV-64 over `(query, progress bits[, eta bits])` at
    /// synchronisation points.
    pub digest: u64,
    /// `digest` as of the end of the verified prefix.
    pub digest_at_prefix: Option<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub events_sent: u64,
    pub retired: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
}

impl RunLog {
    pub fn new(segments: usize) -> RunLog {
        RunLog {
            segments: (0..segments).map(|_| Segment::default()).collect(),
            warm: Segment::default(),
            cal_ns: Vec::new(),
            digest: FNV_OFFSET,
            digest_at_prefix: None,
            attempted: 0,
            failed: 0,
            events_sent: 0,
            retired: 0,
            failures: Vec::new(),
        }
    }

    pub fn fail(&mut self, n: u64, what: impl FnOnce() -> String) {
        if n > 0 {
            self.failed += n;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        self.fail(!ok as u64, what);
    }

    fn seg(&mut self, at: Option<usize>) -> &mut Segment {
        match at {
            Some(i) => &mut self.segments[i],
            None => &mut self.warm,
        }
    }

    /// Fold the value a reader sees for `query` into the digest.
    fn fold_read<S: Sut>(&mut self, sut: &mut S, query: usize, with_eta: bool) {
        self.attempted += 1;
        match sut.progress(query) {
            Some(p) => {
                fnv_fold(&mut self.digest, query as u64);
                fnv_fold(&mut self.digest, p.to_bits());
            }
            None => self.fail(1, || format!("digest read of registered q{query} failed")),
        }
        if with_eta {
            if let Some(eta) = sut.eta(query) {
                fnv_fold(&mut self.digest, eta.to_bits());
            }
        }
    }

    /// A finished query leaves: it must read finished with progress
    /// exactly 1.0, and unregister cleanly.
    fn retire<S: Sut>(&mut self, sut: &mut S, query: usize, at: Option<usize>) {
        let done = sut.finished(query) == Some(true) && sut.progress(query) == Some(1.0);
        self.check(done, || format!("q{query} not finished with progress 1.0 when retired"));
        let gone = sut.unregister(query);
        self.check(gone, || format!("unregister q{query} failed"));
        self.retired += 1;
        self.seg(at).queries += 1;
    }

    fn register<S: Sut>(
        &mut self,
        sut: &mut S,
        query: usize,
        plan: &Arc<PhysicalPlan>,
        at: Option<usize>,
    ) {
        let (ok, ns) = sut.register(query, plan);
        self.check(ok, || format!("register q{query} refused"));
        self.seg(at).register_ns.push(ns);
    }

    fn read<S: Sut>(
        &mut self,
        sut: &mut S,
        kind: u64,
        query: usize,
        deadline: f64,
        at: Option<usize>,
    ) {
        let (ok, ns) = sut.timed_read(kind, query, deadline);
        self.check(ok, || format!("read of registered q{query} failed"));
        self.seg(at).read_ns.push(ns);
    }
}

/// How a drive is split into warm-up and measured segments.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub warm_ns: u64,
    pub seg_ns: u64,
    pub segments: usize,
    /// Pause the drive after every this many segments (0: never) to run
    /// the caller's interleaved work — see [`Interleaved`].
    pub pause_every: usize,
}

/// Samples of the first 50 ms after a pause are not recorded: the paused
/// work evicted the drive's caches.
const REWARM_NS: u64 = 50_000_000;

impl Timing {
    /// `seconds` of measurement in `segments` equal parts, after a warm-up
    /// of a tenth of that.
    pub fn new(seconds: f64, segments: usize) -> Timing {
        let seg_ns = (seconds * 1e9 / segments as f64) as u64;
        Timing { warm_ns: (seconds * 1e8) as u64, seg_ns, segments, pause_every: 0 }
    }

    pub fn pausing_every(self, pause_every: usize) -> Timing {
        Timing { pause_every, ..self }
    }

    pub fn total_ns(&self) -> u64 {
        self.warm_ns + self.seg_ns * self.segments as u64
    }

    /// The segment instant `now_ns` falls in; `None` during warm-up. Past
    /// the planned end (a generator that fell behind) stays in the last.
    fn segment_of(&self, now_ns: u64) -> Option<usize> {
        (now_ns >= self.warm_ns)
            .then(|| (((now_ns - self.warm_ns) / self.seg_ns) as usize).min(self.segments - 1))
    }
}

/// Work the caller wants run *during* a drive, at segment boundaries with
/// the service drained and idle. The host this was built on slows by
/// 20–40 % for a second or two every ten or so; repetitions of a short
/// batch measurement (set-up, a feedback round) are only independent of
/// each other when they are seconds apart, so they ride along here rather
/// than back to back before or after the drive. The drive's clock stops
/// while they run.
pub type Interleaved<'a> = &'a mut dyn FnMut();

/// How one call of a driver runs: timed against the service, or as the
/// verification pass over the same traffic's prefix.
pub struct Plan<'a> {
    pub timing: Timing,
    /// Sends (open loop), cycles or queries after which the value digest
    /// is snapshotted — the part the verification pass re-runs.
    pub prefix: usize,
    /// `Some`: the timed run (pacing on, pauses honoured). `None`: the
    /// verification pass (no waiting, stops at `prefix`).
    pub between: Option<Interleaved<'a>>,
}

impl<'a> Plan<'a> {
    pub fn timed(timing: Timing, prefix: usize, between: Interleaved<'a>) -> Plan<'a> {
        Plan { timing, prefix, between: Some(between) }
    }

    pub fn verify(timing: Timing, prefix: usize) -> Plan<'static> {
        Plan { timing, prefix, between: None }
    }
}

/// The drive's clock: run time excluding pauses, and where in the
/// warm-up/segment plan that puts us.
struct Pacer {
    t0: Instant,
    paused_ns: u64,
    timing: Timing,
    next_pause: usize,
    rewarm_until: u64,
    /// The segment the last calibration sample opened.
    cal_seg: Option<usize>,
}

impl Pacer {
    fn start(timing: Timing) -> Pacer {
        let next_pause = if timing.pause_every == 0 { usize::MAX } else { timing.pause_every };
        Pacer {
            t0: Instant::now(),
            paused_ns: 0,
            timing,
            next_pause,
            rewarm_until: 0,
            cal_seg: None,
        }
    }

    /// At a segment boundary: one calibration sample off the clock, which
    /// closes the segment that ended and opens the one that starts.
    fn calibrate<S: Sut>(&mut self, now: u64, sut: &mut S, log: &mut RunLog) {
        let seg = self.timing.segment_of(now);
        if seg != self.cal_seg {
            self.sample_into(sut, log, seg);
        }
    }

    /// The closing sample of the last segment.
    fn finish<S: Sut>(&mut self, sut: &mut S, log: &mut RunLog) {
        self.sample_into(sut, log, None);
    }

    fn sample_into<S: Sut>(&mut self, sut: &mut S, log: &mut RunLog, opens: Option<usize>) {
        let pause = Instant::now();
        // Drained, so the worker is parked and the probe has both vCPUs.
        sut.quiesce();
        let cal = calib::sample_both();
        log.cal_ns.push(cal);
        for seg in [self.cal_seg, opens].into_iter().flatten() {
            log.segments[seg].cal_ns.push(cal);
        }
        self.cal_seg = opens;
        self.paused_ns += pause.elapsed().as_nanos() as u64;
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64 - self.paused_ns
    }

    /// Where samples taken at `now` are recorded; `None` for warm-up and
    /// for the re-warm window after a pause.
    fn segment(&self, now: u64) -> Option<usize> {
        if now < self.rewarm_until {
            return None;
        }
        self.timing.segment_of(now)
    }

    /// At a segment boundary that is due a pause: drain the service, run
    /// the interleaved work off the clock.
    fn maybe_pause<S: Sut>(&mut self, now: u64, sut: &mut S, between: &mut dyn FnMut()) {
        let Some(seg) = self.timing.segment_of(now) else { return };
        if seg < self.next_pause {
            return;
        }
        self.next_pause += self.timing.pause_every;
        sut.quiesce();
        let pause = Instant::now();
        between();
        self.paused_ns += pause.elapsed().as_nanos() as u64;
        self.rewarm_until = self.now() + REWARM_NS;
    }
}

/// Open-loop drive in bursts (`serve_burst`): the `burst` sends from `k`
/// on are all due at [`due_ns`]`(k)`, whatever happened to the bursts
/// before; each burst is timed from its due instant through `quiesce`. The
/// verification pass stops after `plan.prefix` sends.
pub fn drive_open_loop<S: Sut>(
    sut: &mut S,
    templates: &[Template],
    sends: &[Send],
    burst: usize,
    mut plan: Plan<'_>,
) -> RunLog {
    let (timing, prefix, paced) = (plan.timing, plan.prefix, plan.between.is_some());
    let mut log = RunLog::new(timing.segments);
    let n = if paced { sends.len() } else { prefix.min(sends.len()) };
    let mut retire_queue: VecDeque<(usize, Option<usize>)> = VecDeque::new();
    let mut flagged: Vec<usize> = Vec::new();
    // Registered queries whose stream has not ended (abandoned at the end).
    let mut open: BTreeSet<usize> = BTreeSet::new();
    let mut reads = 0u64;
    // A burst's queries are admitted in the idle gap before it is due —
    // a query registers before it runs — so a burst measures queue wait
    // and compute, not admission.
    let admit = |log: &mut RunLog, sut: &mut S, open: &mut BTreeSet<usize>, range: &[Send], at| {
        for s in range.iter().filter(|s| s.flags & FIRST != 0) {
            log.register(sut, s.query as usize, &templates[s.template as usize].plan, at);
            open.insert(s.query as usize);
        }
    };
    admit(&mut log, sut, &mut open, &sends[..burst.min(n)], None);
    let mut pacer = Pacer::start(timing);
    let mut last: Option<(u64, Option<usize>)> = None;
    let mut k = 0usize;
    while k < n {
        let end = (k + burst).min(n);
        let due = due_ns(k, RATE, burst);
        let mut at = None;
        if let Some(between) = plan.between.as_mut() {
            let mut now = pacer.now();
            pacer.maybe_pause(now, sut, between);
            pacer.calibrate(now, sut, &mut log);
            now = pacer.now();
            while now < due {
                std::hint::spin_loop();
                now = pacer.now();
            }
            at = pacer.segment(now);
            log.seg(at).lag_ns.push(now - due);
            if let Some((then, seg)) = last {
                log.seg(seg).wall_ns += now - then;
            }
            last = Some((now, at));
        }
        let wall = due as f64 / 1e9;
        for s in &sends[k..end] {
            let query = s.query as usize;
            let ev = templates[s.template as usize].event(s.idx as usize, query, wall);
            log.attempted += 1;
            let ok = sut.send(ev);
            log.fail(!ok as u64, || format!("tap refused an event of q{query}"));
            if s.flags & PROBE != 0 {
                flagged.push(query);
            }
            log.events_sent += 1;
            log.seg(at).events += 1;
            if s.flags & READ != 0 {
                log.read(sut, reads, s.read_query as usize, wall + 1.0, at);
                reads += 1;
            }
            if s.flags & LAST != 0 {
                open.remove(&query);
                retire_queue.push_back((query, at));
            }
        }
        k = end;
        sut.quiesce();
        if paced {
            log.seg(at).visible_ns.push(pacer.now().saturating_sub(due));
        }
        for query in flagged.drain(..) {
            log.fold_read(sut, query, true);
        }
        while let Some((query, at)) = retire_queue.pop_front() {
            log.retire(sut, query, at);
        }
        admit(&mut log, sut, &mut open, &sends[k..(k + burst).min(n)], at);
        if k == prefix {
            log.digest_at_prefix = Some(log.digest);
        }
    }
    if paced {
        pacer.finish(sut, &mut log);
    }
    sut.quiesce();
    while let Some((query, at)) = retire_queue.pop_front() {
        log.retire(sut, query, at);
    }
    // The traffic ends mid-stream for the queries still in the window.
    for query in open {
        let gone = sut.unregister(query);
        log.check(gone, || format!("unregister of unfinished q{query} failed"));
    }
    log
}

/// Closed-loop drive in cycles: register `cycle` queries (each timed),
/// send all their events round-robin in batches of [`CYCLE_BATCH`], `quiesce`
/// (timed from the last send: how far behind the newest event the readers
/// are), check every query finished, unregister. `draws[i]` is the
/// template of the `i`-th query. The verification pass runs exactly
/// `plan.prefix` cycles.
pub fn drive_cycles<S: Sut>(
    sut: &mut S,
    templates: &[Template],
    draws: &[u16],
    cycle: usize,
    mut plan: Plan<'_>,
) -> RunLog {
    let (timing, prefix_cycles, paced) = (plan.timing, plan.prefix, plan.between.is_some());
    let mut log = RunLog::new(timing.segments);
    let mut flagged: Vec<usize> = Vec::new();
    let mut members: Vec<(usize, &Template)> = Vec::with_capacity(cycle);
    let mut next_query = 0usize;
    let mut reads = 0u64;
    let mut cycles = 0usize;
    let mut pacer = Pacer::start(timing);
    loop {
        let mut now = pacer.now();
        if (paced && now >= timing.total_ns()) || (!paced && cycles == prefix_cycles) {
            break;
        }
        let mut at = None;
        if let Some(between) = plan.between.as_mut() {
            pacer.maybe_pause(now, sut, between);
            pacer.calibrate(now, sut, &mut log);
            now = pacer.now();
            at = pacer.segment(now);
        }
        members.clear();
        for _ in 0..cycle {
            let tpl = &templates[draws[next_query % draws.len()] as usize];
            log.register(sut, next_query, &tpl.plan, at);
            members.push((next_query, tpl));
            next_query += 1;
        }
        let longest = members.iter().map(|(_, t)| t.events.len()).max().unwrap_or(0);
        let mut batch = Vec::with_capacity(CYCLE_BATCH);
        let mut flush = |log: &mut RunLog, sut: &mut S, batch: &mut Vec<TraceEvent>, wall: f64| {
            let n = batch.len() as u64;
            let ok = sut.send_batch(std::mem::replace(batch, Vec::with_capacity(CYCLE_BATCH)));
            log.attempted += n;
            log.fail(if ok { 0 } else { n }, || "tap refused a batch".into());
            let target = members[(reads as usize * 31) % members.len()].0;
            log.read(sut, reads, target, wall + 1.0, at);
            reads += 1;
        };
        for idx in 0..longest {
            for &(query, tpl) in &members {
                if idx >= tpl.events.len() {
                    continue;
                }
                // A synthetic 100 000 events/s timeline: wall stamps (and
                // so the ETAs in the digest) are a function of the traffic.
                let wall = log.events_sent as f64 * 1e-5;
                batch.push(tpl.event(idx, query, wall));
                log.events_sent += 1;
                if log.events_sent.is_multiple_of(CYCLE_FLAG_EVERY) {
                    flagged.push(query);
                }
                if batch.len() == CYCLE_BATCH {
                    flush(&mut log, sut, &mut batch, wall);
                }
            }
        }
        if !batch.is_empty() {
            let wall = log.events_sent as f64 * 1e-5;
            flush(&mut log, sut, &mut batch, wall);
        }
        let sent_at = Instant::now();
        sut.quiesce();
        if paced {
            log.seg(at).visible_ns.push(sent_at.elapsed().as_nanos() as u64);
        }
        for query in flagged.drain(..) {
            log.fold_read(sut, query, true);
        }
        let events: usize = members.iter().map(|(_, t)| t.events.len()).sum();
        log.seg(at).events += events as u64;
        for &(query, _) in &members {
            log.retire(sut, query, at);
        }
        cycles += 1;
        if paced {
            log.seg(at).wall_ns += pacer.now() - now;
        }
        if cycles == prefix_cycles {
            log.digest_at_prefix = Some(log.digest);
        }
    }
    if paced {
        pacer.finish(sut, &mut log);
    }
    log
}

/// Closed-loop drive with the engine on the timed path: the generator
/// thread executes template plans tapped straight into the monitor, one
/// after another. Each query is registered (timed) before it runs and
/// retired [`LIVE_LAG`] queries later; every 8th query is followed by a
/// timed `quiesce` (how far the monitor trails the engine at query end)
/// and the digest reads; every query by one timed read per query still
/// registered. The verification pass runs `plan.prefix` queries.
pub fn drive_live<S: Sut>(sut: &mut S, fx: &Fixtures, draws: &[u16], mut plan: Plan<'_>) -> RunLog {
    let (timing, prefix_queries, paced) = (plan.timing, plan.prefix, plan.between.is_some());
    let catalogs: Vec<Catalog<'_>> =
        fx.workloads.iter().map(|w| Catalog::new(&w.db, &w.design)).collect();
    let mut log = RunLog::new(timing.segments);
    let mut in_flight: VecDeque<usize> = VecDeque::new();
    let mut reads = 0u64;
    let mut pacer = Pacer::start(timing);
    let mut query = 0usize;
    loop {
        let mut now = pacer.now();
        if (paced && now >= timing.total_ns()) || (!paced && query == prefix_queries) {
            break;
        }
        let mut at = None;
        if let Some(between) = plan.between.as_mut() {
            pacer.maybe_pause(now, sut, between);
            pacer.calibrate(now, sut, &mut log);
            now = pacer.now();
            at = pacer.segment(now);
        }
        let tpl = &fx.templates[draws[query % draws.len()] as usize];
        log.register(sut, query, &tpl.plan, at);
        sut.run_tapped(&catalogs[tpl.corpus], &tpl.plan, &tpl.exec, query);
        let events = tpl.events.len() as u64;
        log.attempted += events;
        log.events_sent += events;
        log.seg(at).events += events;
        in_flight.push_back(query);
        if (query + 1).is_multiple_of(8) {
            let done_at = Instant::now();
            sut.quiesce();
            if paced {
                log.seg(at).visible_ns.push(done_at.elapsed().as_nanos() as u64);
            }
            for &registered in &in_flight {
                // Engine wall stamps are real time, so only progress is a
                // function of the traffic here.
                log.fold_read(sut, registered, false);
            }
        }
        for &registered in &in_flight {
            log.read(sut, reads, registered, now as f64 / 1e9 + 1.0, at);
            reads += 1;
        }
        if in_flight.len() > LIVE_LAG {
            let old = in_flight.pop_front().expect("non-empty");
            log.retire(sut, old, at);
        }
        query += 1;
        if paced {
            log.seg(at).wall_ns += pacer.now() - now;
        }
        if query == prefix_queries {
            log.digest_at_prefix = Some(log.digest);
        }
    }
    if paced {
        pacer.finish(sut, &mut log);
    }
    sut.quiesce();
    while let Some(old) = in_flight.pop_front() {
        log.retire(sut, old, None);
    }
    log
}

/// The conservation law, checked against the service's own counters once
/// everything has drained: every event sent was ingested, none was
/// unroutable, rejected or dropped, every retired query was counted
/// finished, and nothing stays registered.
pub fn check_conservation(svc: &MonitorService, log: &mut RunLog) {
    svc.quiesce();
    let Ok(stats) = svc.stats() else {
        log.attempted += 1;
        log.fail(1, || "stats readout failed".into());
        return;
    };
    log.attempted += 1;
    let missing = log.events_sent.abs_diff(stats.events_ingested)
        + stats.events_unroutable
        + stats.events_rejected
        + stats.queries_dropped;
    let (sent, retired) = (log.events_sent, log.retired);
    log.fail(missing, || {
        format!(
            "conservation: sent {sent} ingested {} unroutable {} rejected {} dropped {}",
            stats.events_ingested,
            stats.events_unroutable,
            stats.events_rejected,
            stats.queries_dropped
        )
    });
    let unfinished = retired.abs_diff(stats.queries_finished) + stats.registered as u64;
    log.fail(unfinished, || {
        format!(
            "drain: retired {retired} finished {} still registered {}",
            stats.queries_finished, stats.registered
        )
    });
}

/// Per-run statistics: per-segment statistics, then the median over the
/// valid segments, stated at reference speed: times divided by the drive's
/// [`Summary::slowdown`], closed-loop rates multiplied by it (an open
/// loop's rates are the offered ones, whatever the host's speed).
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// The host's slowdown over the drive ([`crate::calib`]).
    pub slowdown: f64,
    pub visible_p50_us: f64,
    pub read_p50_ns: f64,
    pub read_p99_ns: f64,
    pub events_per_s: f64,
    pub register_p50_us: f64,
    pub queries_per_s: f64,
    // Reported, not gated.
    pub visible_p90_us: f64,
    pub visible_p99_us: f64,
    pub read_p999_ns: f64,
    pub register_p99_us: f64,
    pub gen_lag_p50_us: f64,
    pub gen_lag_p99_us: f64,
    pub visible_samples: f64,
    pub read_samples: f64,
    pub register_samples: f64,
    pub invalid_segments: f64,
    /// The per-segment statistics behind the medians, one line each.
    pub table: String,
}

/// Summarise a timed drive. For open-loop drives a segment whose
/// generator ran late by more than a tenth of the latency it was
/// measuring (`gen_lag_p50 > 0.1 × visible_p50`) measured the generator,
/// not the system: it is marked invalid and left out of the medians.
pub fn summarize(log: &mut RunLog, open_loop: bool) -> Summary {
    let n = log.segments.len();
    let mut cols: [Vec<f64>; 12] = Default::default();
    let mut valid = vec![true; n];
    let mut samples = [0f64; 3];
    let mut table = String::new();
    for (i, seg) in log.segments.iter_mut().enumerate() {
        let secs = seg.wall_ns.max(1) as f64 / 1e9;
        let [v50, v90, v99] = percentiles(&mut seg.visible_ns, [50.0, 90.0, 99.0]);
        let [r50, r99, r999] = percentiles(&mut seg.read_ns, [50.0, 99.0, 99.9]);
        let [g50, g99] = percentiles(&mut seg.register_ns, [50.0, 99.0]);
        let [l50, l99] = percentiles(&mut seg.lag_ns, [50.0, 99.0]);
        let row = [
            v50 / 1e3,
            r50,
            r99,
            seg.events as f64 / secs,
            g50 / 1e3,
            seg.queries as f64 / secs,
            v90 / 1e3,
            v99 / 1e3,
            r999,
            g99 / 1e3,
            l50 / 1e3,
            l99 / 1e3,
        ];
        for (col, v) in cols.iter_mut().zip(row) {
            col.push(v);
        }
        valid[i] = !(open_loop && l50 > 0.1 * v50);
        table.push_str(&format!(
            "segment {i}: slowdown {:.3}  visible p50 {:.2} us ({} samples)  read p50 {r50} ns p99 {r99} ns ({})  \
             register p50 {:.2} us ({})  {:.0} events/s  {:.1} queries/s  gen lag p50 {:.2} us{}\n",
            calib::slowdown(&seg.cal_ns),
            v50 / 1e3,
            seg.visible_ns.len(),
            seg.read_ns.len(),
            g50 / 1e3,
            seg.register_ns.len(),
            seg.events as f64 / secs,
            seg.queries as f64 / secs,
            l50 / 1e3,
            if valid[i] { "" } else { "  INVALID (generator late)" },
        ));
        samples[0] += seg.visible_ns.len() as f64;
        samples[1] += seg.read_ns.len() as f64;
        samples[2] += seg.register_ns.len() as f64;
    }
    let slowdown = calib::slowdown(&log.cal_ns);
    table.push_str(&format!(
        "drive slowdown {slowdown:.3} (median of {} boundary samples); the segment lines above are as measured\n",
        log.cal_ns.len()
    ));
    let m = |i: usize| median_of_segments(&cols[i], &valid);
    let time = |i: usize| m(i) / slowdown;
    let rate = |i: usize| if open_loop { m(i) } else { m(i) * slowdown };
    Summary {
        slowdown,
        visible_p50_us: time(0),
        read_p50_ns: time(1),
        read_p99_ns: time(2),
        events_per_s: rate(3),
        register_p50_us: time(4),
        queries_per_s: rate(5),
        visible_p90_us: time(6),
        visible_p99_us: time(7),
        read_p999_ns: time(8),
        register_p99_us: time(9),
        gen_lag_p50_us: m(10),
        gen_lag_p99_us: m(11),
        visible_samples: samples[0],
        read_samples: samples[1],
        register_samples: samples[2],
        invalid_segments: valid.iter().filter(|&&ok| !ok).count() as f64,
        table,
    }
}

/// What the service's own scrape says about how a drive used the runtime.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scrape {
    pub batch_len_p50: f64,
    pub parks_per_kevent: f64,
    pub steals_per_kevent: f64,
    pub delta_decodes: f64,
    pub sampled_ingest_p50_ns: f64,
    pub sampled_snapshot_eval_p50_ns: f64,
}

pub fn scrape(snap: &MetricsSnapshot) -> Scrape {
    let kevents = (snap.sum_counters("events_ingested_total") as f64 / 1e3).max(1e-9);
    let p50 = |h: Option<prosel::obs::HistogramSnapshot>| h.map_or(0.0, |h| h.quantile(0.5) as f64);
    Scrape {
        batch_len_p50: p50(snap.histogram("service_ingest_batch_len").cloned()),
        parks_per_kevent: snap.counter("runtime_parks_total").unwrap_or(0) as f64 / kevents,
        steals_per_kevent: snap.counter("runtime_steals_total").unwrap_or(0) as f64 / kevents,
        delta_decodes: snap.sum_counters("delta_decodes_total") as f64,
        sampled_ingest_p50_ns: p50(snap.merge_histograms("_ingest_ns")),
        sampled_snapshot_eval_p50_ns: p50(snap.merge_histograms("snapshot_eval_ns")),
    }
}

/// The paper's metric for the curve the service actually serves: for each
/// template, the mean over its snapshot events of |progress the service
/// reports right after the event − true progress (event time over total
/// time)|; then the mean over templates, weighted by their popularity in the
/// traffic. Untimed; every event goes in read-your-writes.
pub fn served_l1(
    templates: &[Template],
    selector: &Arc<EstimatorSelector>,
    weights: &[f64],
) -> f64 {
    let svc = build_service(selector);
    let mut acc = 0.0;
    let mut total_weight = 0.0;
    for (query, (tpl, &weight)) in templates.iter().zip(weights).enumerate() {
        svc.register(query, Arc::clone(&tpl.plan));
        let (mut err, mut n) = (0.0f64, 0usize);
        for idx in 0..tpl.events.len() {
            let ev = tpl.event(idx, query, idx as f64 * 1e-3);
            let time = match &ev {
                TraceEvent::Snapshot { snapshot, .. } => Some(snapshot.time),
                TraceEvent::Delta { time, .. } => Some(*time),
                _ => None,
            };
            svc.ingest(ev);
            if let (Some(time), Ok(est)) = (time, svc.query_progress(query)) {
                let truth = if tpl.total_time > 0.0 {
                    (time / tpl.total_time).clamp(0.0, 1.0)
                } else {
                    1.0
                };
                err += (est - truth).abs();
                n += 1;
            }
        }
        let _ = svc.unregister(query);
        if n > 0 {
            acc += weight * err / n as f64;
            total_weight += weight;
        }
    }
    svc.shutdown();
    acc / total_weight.max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_split_the_run_after_the_warm_up() {
        let t = Timing::new(10.0, 5);
        assert_eq!(
            (t.warm_ns, t.seg_ns, t.total_ns()),
            (1_000_000_000, 2_000_000_000, 11_000_000_000)
        );
        assert_eq!(t.segment_of(0), None);
        assert_eq!(t.segment_of(999_999_999), None);
        assert_eq!(t.segment_of(1_000_000_000), Some(0));
        assert_eq!(t.segment_of(2_999_999_999), Some(0));
        assert_eq!(t.segment_of(3_000_000_000), Some(1));
        assert_eq!(t.segment_of(10_999_999_999), Some(4));
        // A generator that fell behind keeps filling the last segment.
        assert_eq!(t.segment_of(12_000_000_000), Some(4));
    }

    #[test]
    fn a_late_generator_invalidates_only_its_own_segment() {
        let mut log = RunLog::new(3);
        for (i, seg) in log.segments.iter_mut().enumerate() {
            seg.wall_ns = 1_000_000_000;
            seg.events = 1000;
            seg.visible_ns = vec![40_000 + 2_000 * i as u64; 50];
            seg.lag_ns = vec![100; 50];
        }
        // Segment 1: generator late by 20 µs against a 500 µs "latency".
        log.segments[1].visible_ns = vec![500_000; 50];
        log.segments[1].lag_ns = vec![60_000; 50];
        let s = summarize(&mut log, true);
        assert_eq!(s.invalid_segments, 1.0);
        assert_eq!(s.visible_p50_us, 42.0, "median of segments 0 and 2");
        assert_eq!(s.events_per_s, 1000.0);
        // Closed-loop drives have no due instants, so no segment is late.
        assert_eq!(summarize(&mut log, false).invalid_segments, 0.0);
    }
}
