//! Execution context: counters, virtual clock, snapshots.
//!
//! Every operator charges its work here. The context advances the virtual
//! clock (with seeded jitter and occasional stalls), maintains per-node
//! GetNext and byte counters, tracks per-pipeline activity windows, and
//! takes bounded-memory snapshots at (approximately) even time intervals —
//! when the snapshot buffer fills, every other snapshot is dropped and the
//! sampling interval doubles, so long queries keep an evenly spaced
//! history of at most `max_snapshots` observations.

use crate::clock::{Clock, SystemClock};
use crate::cost::{CostModel, SplitMix64};
use crate::exec::TurnScheduler;
use crate::trace::{DeltaEncoder, ObservationTrace, Snapshot, TraceEvent, TraceTap};
use std::sync::Arc;

/// Configuration for one execution.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Seed for the jitter/stall generator (execution is deterministic
    /// given the seed).
    pub seed: u64,
    /// Memory budget in bytes for hash tables and sorts before spilling.
    pub memory_budget_bytes: u64,
    /// Cost model for the virtual clock.
    pub cost: CostModel,
    /// Maximum number of retained snapshots (≥ 16).
    pub max_snapshots: usize,
    /// Initial snapshot interval in virtual time units.
    pub initial_snapshot_interval: f64,
    /// Wall-clock source stamping tapped events ([`TraceEvent`]'s `wall`
    /// fields). Defaults to [`SystemClock`]; inject a
    /// [`crate::clock::ManualClock`] for deterministic stamp sequences.
    /// Never read on untapped runs and never affects execution itself.
    pub wall_clock: Arc<dyn Clock>,
    /// Snapshot-delta tap compression: plans with at least this many nodes
    /// emit [`TraceEvent::Delta`] events (sparse changed-counter diffs)
    /// instead of full snapshots after the first, baseline
    /// [`TraceEvent::Snapshot`]. `0` disables deltas entirely. Narrow
    /// plans gain little from the sparse encoding, so the knob keeps them
    /// on the simple full-snapshot path. Like tapping itself, the setting
    /// never affects execution — only the wire encoding of the stream.
    pub delta_threshold: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            seed: 0x9e3779b9,
            memory_budget_bytes: 24 * 1024,
            cost: CostModel::default(),
            max_snapshots: 512,
            initial_snapshot_interval: 50.0,
            wall_clock: Arc::new(SystemClock::new()),
            delta_threshold: 0,
        }
    }
}

/// Mutable execution state shared by all operators of one query.
#[derive(Debug)]
pub struct ExecContext {
    cost: CostModel,
    memory_budget_bytes: u64,
    clock: f64,
    k: Vec<u64>,
    bytes_read: Vec<u64>,
    bytes_written: Vec<u64>,
    materialized: Vec<u64>,
    rng: SplitMix64,
    snapshots: Vec<Snapshot>,
    next_snap: f64,
    snap_interval: f64,
    max_snapshots: usize,
    pipeline_of: Vec<usize>,
    pipe_first: Vec<f64>,
    pipe_last: Vec<f64>,
    /// Concurrent-execution hook: (scheduler, my id, quantum).
    sched: Option<(Arc<TurnScheduler>, usize, u32)>,
    ticks_left: u32,
    /// Live observation stream: (sender, query id). Dropped on send error.
    tap: Option<(TraceTap, usize)>,
    /// Delta tap compression state: `Some` when the plan is at least
    /// [`ExecConfig::delta_threshold`] nodes wide (and the threshold is
    /// nonzero). Tracks the last-emitted counters so snapshots past the
    /// baseline go out as sparse [`TraceEvent::Delta`] diffs.
    delta_enc: Option<DeltaEncoder>,
    /// Snapshots emitted so far (tap event sequence number).
    snap_seq: u64,
    /// Wall-clock source for tap event stamps (read only when tapped).
    wall_clock: Arc<dyn Clock>,
}

impl ExecContext {
    /// Create a context for a plan with `n_nodes` nodes whose node→pipeline
    /// mapping is `pipeline_of` (see [`crate::pipeline::pipeline_of`]).
    pub fn new(
        cfg: &ExecConfig,
        n_nodes: usize,
        pipeline_of: Vec<usize>,
        n_pipelines: usize,
    ) -> Self {
        assert_eq!(pipeline_of.len(), n_nodes);
        let max_snapshots = cfg.max_snapshots.max(16);
        ExecContext {
            cost: cfg.cost.clone(),
            memory_budget_bytes: cfg.memory_budget_bytes,
            clock: 0.0,
            k: vec![0; n_nodes],
            bytes_read: vec![0; n_nodes],
            bytes_written: vec![0; n_nodes],
            materialized: vec![0; n_nodes],
            rng: SplitMix64::new(cfg.seed),
            snapshots: Vec::with_capacity(max_snapshots + 1),
            next_snap: cfg.initial_snapshot_interval,
            snap_interval: cfg.initial_snapshot_interval,
            max_snapshots,
            pipeline_of,
            pipe_first: vec![f64::INFINITY; n_pipelines],
            pipe_last: vec![f64::NEG_INFINITY; n_pipelines],
            sched: None,
            ticks_left: u32::MAX,
            tap: None,
            delta_enc: (cfg.delta_threshold > 0 && n_nodes >= cfg.delta_threshold)
                .then(DeltaEncoder::new),
            snap_seq: 0,
            wall_clock: Arc::clone(&cfg.wall_clock),
        }
    }

    /// Attach a concurrent-execution scheduler: after every `quantum`
    /// charged operations this context yields the virtual machine and
    /// fast-forwards over the time other queries consumed.
    pub fn attach_scheduler(&mut self, sched: Arc<TurnScheduler>, id: usize, quantum: u32) {
        self.sched = Some((sched, id, quantum.max(1)));
        self.ticks_left = quantum.max(1);
    }

    /// Attach a live observation stream: every retained snapshot (and the
    /// thinning/termination events that keep a mirror aligned with the
    /// final trace) is sent to `tap` as it happens, tagged with `query`.
    /// Tapping never alters execution — counters, clock and snapshot
    /// cadence are identical with and without a tap attached.
    pub fn attach_tap(&mut self, tap: TraceTap, query: usize) {
        self.tap = Some((tap, query));
    }

    fn emit(&mut self, ev: TraceEvent) {
        if let Some((tx, _)) = &self.tap {
            if tx.send(ev).is_err() {
                // Receiver gone: stop paying for event construction.
                self.tap = None;
            }
        }
    }

    fn emit_snapshot(&mut self) {
        if let Some((_, query)) = self.tap {
            let seq = self.snap_seq;
            self.snap_seq += 1;
            let wall = self.wall_clock.now();
            let windows = self.windows();
            let snap = self.snapshots.last().expect("snapshot just pushed");
            let ev = match self.delta_enc.as_mut().and_then(|enc| enc.encode(snap, &windows)) {
                Some((changes, window_updates)) => {
                    TraceEvent::Delta { query, seq, wall, time: snap.time, changes, window_updates }
                }
                // Either deltas are off for this plan or this is the
                // encoder's baseline emission: ship the full snapshot.
                None => TraceEvent::Snapshot { query, seq, wall, snapshot: snap.clone(), windows },
            };
            self.emit(ev);
        }
    }

    fn windows(&self) -> Box<[(f64, f64)]> {
        self.pipe_first.iter().zip(&self.pipe_last).map(|(&a, &b)| (a, b)).collect()
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Fast-forward the clock to `t` (no-op when `t` is in the past).
    ///
    /// Used by the concurrent scheduler: while another query holds the
    /// (virtual) machine, this query's time passes without any of its
    /// counters advancing. Snapshot points crossed during the gap are
    /// taken immediately, so the trace records the stall.
    pub fn fast_forward(&mut self, t: f64) {
        if t <= self.clock {
            return;
        }
        self.clock = t;
        if self.clock >= self.next_snap {
            // One snapshot records the stall endpoint; snapshot points
            // that fell inside the gap are skipped (nothing changed).
            self.take_snapshot();
            if self.next_snap <= self.clock {
                let missed = ((self.clock - self.next_snap) / self.snap_interval).floor() + 1.0;
                self.next_snap += missed * self.snap_interval;
            }
        }
    }

    /// Memory budget for blocking operators.
    #[inline]
    pub fn memory_budget(&self) -> u64 {
        self.memory_budget_bytes
    }

    /// GetNext count so far at `node`.
    #[cfg(test)]
    pub(crate) fn k(&self, node: usize) -> u64 {
        self.k[node]
    }

    #[inline]
    fn advance(&mut self, node: usize, base: f64) {
        let mut cost = base;
        if self.cost.jitter > 0.0 {
            cost *= 1.0 + self.cost.jitter * (self.rng.next_f64() - 0.5) * 2.0;
            if self.rng.next_f64() < self.cost.stall_prob {
                cost += self.cost.stall_cost * (0.5 + self.rng.next_f64());
            }
        }
        self.clock += cost;
        let p = self.pipeline_of[node];
        if self.clock < self.pipe_first[p] {
            self.pipe_first[p] = self.clock;
        }
        if self.clock > self.pipe_last[p] {
            self.pipe_last[p] = self.clock;
        }
        if self.clock >= self.next_snap {
            self.take_snapshot();
        }
        if let Some((sched, id, quantum)) = &self.sched {
            self.ticks_left -= 1;
            if self.ticks_left == 0 {
                self.ticks_left = *quantum;
                let (sched, id) = (Arc::clone(sched), *id);
                let resume = sched.yield_turn(id, self.clock);
                self.fast_forward(resume);
            }
        }
    }

    /// One GetNext call at `node` with operator type code `tc`: increments
    /// K and charges the per-row CPU cost.
    #[inline]
    pub fn tick(&mut self, node: usize, tc: usize) {
        self.k[node] += 1;
        self.advance(node, self.cost.cpu_per_row[tc]);
    }

    /// Charge the per-*input*-row cost of a consuming operator (filter
    /// evaluation, hash probe, aggregation update) without counting a
    /// GetNext.
    #[inline]
    pub fn charge_input(&mut self, node: usize, tc: usize) {
        let c = self.cost.cpu_per_input[tc];
        if c > 0.0 {
            self.advance(node, c);
        }
    }

    /// Charge an arbitrary CPU cost.
    #[inline]
    pub fn charge_cpu(&mut self, node: usize, cost: f64) {
        self.advance(node, cost);
    }

    /// Logical sequential read of `bytes` at `node`.
    #[inline]
    pub fn read_bytes(&mut self, node: usize, bytes: u64) {
        self.bytes_read[node] += bytes;
        self.advance(node, bytes as f64 * self.cost.seq_read_per_byte);
    }

    /// Logical write of `bytes` at `node` (spills, result output).
    #[inline]
    pub fn write_bytes(&mut self, node: usize, bytes: u64) {
        self.bytes_written[node] += bytes;
        self.advance(node, bytes as f64 * self.cost.write_per_byte);
    }

    /// Report the materialized output size of a blocking operator (sort
    /// buffer length, hash-aggregate group count) when its build phase
    /// completes. This is the paper's §3.4 driver-node total: exactly
    /// known *before* the pipeline the operator drives starts, and the
    /// only driver denominator an online consumer may legitimately use.
    #[inline]
    pub fn report_materialized(&mut self, node: usize, rows: u64) {
        self.materialized[node] = rows;
    }

    /// Charge a seek: `local` seeks (close to the previous position in the
    /// index) are much cheaper than random I/Os.
    #[inline]
    pub fn charge_seek(&mut self, node: usize, local: bool) {
        let c = if local { self.cost.local_seek } else { self.cost.random_io };
        self.advance(node, c);
    }

    /// Locality window (rows) used by index seeks.
    #[inline]
    pub fn seek_locality_window(&self) -> i64 {
        self.cost.seek_locality_window
    }

    /// Tables at most this large (bytes) count as buffer-pool resident.
    #[inline]
    pub fn cached_table_bytes(&self) -> u64 {
        self.cost.cached_table_bytes
    }

    fn push_snapshot(&mut self) {
        self.snapshots.push(Snapshot {
            time: self.clock,
            k: self.k.clone().into_boxed_slice(),
            bytes_read: self.bytes_read.clone().into_boxed_slice(),
            bytes_written: self.bytes_written.clone().into_boxed_slice(),
            materialized: self.materialized.clone().into_boxed_slice(),
        });
        self.emit_snapshot();
    }

    fn take_snapshot(&mut self) {
        self.push_snapshot();
        self.next_snap += self.snap_interval;
        if self.snapshots.len() >= self.max_snapshots {
            // Thin: keep every other snapshot, double the interval.
            crate::trace::thin_half(&mut self.snapshots);
            self.snap_interval *= 2.0;
            self.next_snap =
                self.snapshots.last().map_or(self.snap_interval, |s| s.time + self.snap_interval);
            if let Some((_, query)) = self.tap {
                self.emit(TraceEvent::Thinned { query });
            }
        }
    }

    /// Finish execution and produce the observation trace.
    pub fn finish(mut self) -> ObservationTrace {
        // Always record the terminal state.
        self.push_snapshot();
        let windows: Vec<(f64, f64)> =
            self.pipe_first.iter().zip(&self.pipe_last).map(|(&a, &b)| (a, b)).collect();
        if let Some((_, query)) = self.tap {
            let wall = self.wall_clock.now();
            self.emit(TraceEvent::Finished {
                query,
                wall,
                windows: windows.clone().into_boxed_slice(),
                total_time: self.clock,
            });
        }
        ObservationTrace {
            snapshots: self.snapshots,
            final_k: self.k,
            final_bytes_read: self.bytes_read,
            final_bytes_written: self.bytes_written,
            final_materialized: self.materialized,
            total_time: self.clock,
            pipeline_windows: windows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_one_node() -> ExecContext {
        let cfg = ExecConfig {
            cost: CostModel::deterministic(),
            initial_snapshot_interval: 10.0,
            max_snapshots: 16,
            ..ExecConfig::default()
        };
        ExecContext::new(&cfg, 1, vec![0], 1)
    }

    #[test]
    fn ticks_count_and_advance_clock() {
        let mut ctx = ctx_one_node();
        for _ in 0..5 {
            ctx.tick(0, 0); // TableScan rows at 0.6 each
        }
        assert_eq!(ctx.k(0), 5);
        assert!((ctx.now() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn snapshots_taken_at_intervals() {
        let mut ctx = ctx_one_node();
        for _ in 0..100 {
            ctx.tick(0, 0); // 0.6 each => 60 time units total
        }
        let trace = ctx.finish();
        // Interval 10 => ~6 interior snapshots + final.
        assert!(trace.snapshots.len() >= 6);
        assert_eq!(trace.final_k[0], 100);
        // Times strictly increasing.
        for w in trace.snapshots.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }

    #[test]
    fn thinning_bounds_snapshot_count() {
        let cfg = ExecConfig {
            cost: CostModel::deterministic(),
            initial_snapshot_interval: 1.0,
            max_snapshots: 16,
            ..ExecConfig::default()
        };
        let mut ctx = ExecContext::new(&cfg, 1, vec![0], 1);
        for _ in 0..10_000 {
            ctx.tick(0, 0);
        }
        let trace = ctx.finish();
        assert!(trace.snapshots.len() <= 17, "got {}", trace.snapshots.len());
        assert!(trace.snapshots.len() >= 8);
    }

    #[test]
    fn pipeline_windows_track_activity() {
        let cfg = ExecConfig { cost: CostModel::deterministic(), ..ExecConfig::default() };
        let mut ctx = ExecContext::new(&cfg, 2, vec![0, 1], 2);
        ctx.tick(0, 0);
        ctx.tick(0, 0);
        let mid = ctx.now();
        ctx.tick(1, 0);
        let trace = ctx.finish();
        let (a0, b0) = trace.pipeline_windows[0];
        let (a1, b1) = trace.pipeline_windows[1];
        assert!(a0 > 0.0 && b0 <= mid + 1e-9);
        assert!(a1 > mid - 1e-9 && b1 >= a1);
    }

    #[test]
    fn byte_charges_accumulate() {
        let mut ctx = ctx_one_node();
        ctx.read_bytes(0, 100);
        ctx.write_bytes(0, 50);
        let trace = ctx.finish();
        assert_eq!(trace.final_bytes_read[0], 100);
        assert_eq!(trace.final_bytes_written[0], 50);
        assert!(trace.total_time > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = ExecConfig::default();
        let run = |seed: u64| {
            let mut ctx = ExecContext::new(&ExecConfig { seed, ..cfg.clone() }, 1, vec![0], 1);
            for _ in 0..1000 {
                ctx.tick(0, 4);
            }
            ctx.finish().total_time
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }
}
