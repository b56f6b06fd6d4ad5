//! The one place an estimator is evaluated: estimator curves over an
//! observation stream, live or replayed.
//!
//! [`IncrementalObs`] ingests snapshots one at a time and maintains every
//! estimator curve plus the refinement-bound aggregates in O(1) amortized
//! per snapshot (each append costs O(pipeline), constant in trace length).
//! The monitor feeds it the engine's live [`TraceEvent`] stream; post-hoc
//! evaluation of a finished [`QueryRun`] is [`IncrementalObs::replay_shared`]
//! — the same protocol driven from the recorded trace — so training labels
//! and dynamic features come from the very code that serves. The numbers
//! are pinned by stored digests (`tests/curve_digest.rs`, recorded from the
//! batch implementation this path replaced). The compiled aggregate walk
//! is pinned bit for bit to a per-node scalar walk that exists only in
//! this module's tests; the monotone LUO window pointer shares its point
//! formula with the backward walk that rebuilds LUO after thinning
//! (`rebuild_luo`).
//!
//! [`TraceEvent`]: prosel_engine::trace::TraceEvent
//! [`QueryRun`]: prosel_engine::QueryRun
//!
//! # Streaming protocol
//!
//! The engine's [`prosel_engine::trace::TraceEvent`] stream drives three
//! entry points:
//!
//! * [`IncrementalObs::offer_view`] for every snapshot, with the
//!   pipeline's *currently known* activity window and the query's shared
//!   [`SnapshotCtx`] ([`IncrementalObs::offer_unchanged`] when the caller
//!   knows none of the pipeline's inputs moved). Snapshots before the
//!   pipeline's first tick are skipped; snapshots provably inside the
//!   window commit immediately; snapshots past the last tick seen so far
//!   stay *pending* until a later tick (or finalization) proves whether
//!   they fall inside the final window — the
//!   [`prosel_engine::trace::ObservationTrace::pipeline_observations`]
//!   rule (all in-window snapshots plus the first one past the end).
//! * [`IncrementalObs::thin`] when the engine thins its bounded snapshot
//!   buffer, so the mirror keeps tracking the final trace.
//! * [`IncrementalObs::finalize`] when the query terminates, which
//!   resolves the trailing pendings and unlocks the oracle curves.
//!
//! Driver-node denominators follow the paper's §3.4 information regime:
//! scan totals and optimizer estimates are known statically; sort /
//! hash-aggregate output sizes are read from the snapshot's
//! `materialized` counters, which blocking operators report when their
//! build phase completes — strictly before the pipeline they drive takes
//! its first observation.
//!
//! # Storage: one row per observation
//!
//! Everything a committed observation leaves behind — its serial and
//! time, the aggregates later reads still need (Σ K for the GetNext
//! oracle and the harvest totals, processed and remaining bytes for the
//! LUO window and the bytes oracle, the driver fraction) and the value
//! of each of the nine [`ONLINE_KINDS`] — is one 128-byte `Row` of one
//! `Vec`. A commit is one push onto one tail, an engine thinning event
//! one in-place compaction, the served value one load from the last row,
//! and no quantity is held twice. Readers that want a *column* (a curve,
//! the observation times, the driver fractions) get a [`Column`]: a
//! strided, non-allocating view over the rows, so record extraction and
//! evaluation read the layout in place. Both live in `incremental/column.rs`.

mod column;

pub use column::Column;

use crate::ctx::{SnapshotCtx, TraceCtx};
use crate::kinds::EstimatorKind;
use crate::pipeline_obs::{
    clamp01, driver_node_total, expected_output_bytes, luo_point, luo_window_start, pipeline_top,
};
use crate::refine::{alpha, clamp_estimate};
use crate::soa::PipeCols;
use column::{Row, Scale, F_ALPHA, F_DONE_BYTES, F_LUO, F_LUO_REMAINING, F_SUM_K, F_TIME};
use column::{F_VALUES, ROW_F64S};
use prosel_engine::plan::{NodeId, OperatorKind, PhysicalPlan};
use prosel_engine::trace::{QueryRun, SnapshotView};
use prosel_engine::Pipeline;
use std::collections::VecDeque;
use std::sync::Arc;

/// The estimator kinds whose curves are maintained online (everything
/// except the two oracle models, which need post-hoc totals).
pub const ONLINE_KINDS: [EstimatorKind; 9] = [
    EstimatorKind::Dne,
    EstimatorKind::Tgn,
    EstimatorKind::Luo,
    EstimatorKind::Pmax,
    EstimatorKind::Safe,
    EstimatorKind::BatchDne,
    EstimatorKind::DneSeek,
    EstimatorKind::TgnInt,
    EstimatorKind::TgnRaw,
];

fn online_index(kind: EstimatorKind) -> Option<usize> {
    ONLINE_KINDS.iter().position(|&k| k == kind)
}

/// Per-observation aggregates computed once when a snapshot is offered.
#[derive(Debug, Clone, Copy)]
struct ObsEntry {
    serial: u64,
    time: f64,
    sum_k: f64,
    /// Σ K over the pipeline's nodes in integer precision (the harvest
    /// path's `total_getnext`; `sum_k` is its f64 shadow).
    k_u64: u64,
    sum_e_clamped: f64,
    work_lb: f64,
    work_ub: f64,
    alpha: f64,
    done_bytes: f64,
    pending_spill: f64,
    /// Σ K over drivers / drivers∪batch / drivers∪seek (chained order).
    k_dne: f64,
    k_batch: f64,
    k_seek: f64,
    /// Σ bytes_read over the driver nodes (LUO's consumed-input signal).
    driver_read: f64,
}

impl ObsEntry {
    /// Every field as its bit pattern — equality of aggregates is
    /// equality of these.
    fn bits(&self) -> [u64; 14] {
        [
            self.serial,
            self.time.to_bits(),
            self.sum_k.to_bits(),
            self.k_u64,
            self.sum_e_clamped.to_bits(),
            self.work_lb.to_bits(),
            self.work_ub.to_bits(),
            self.alpha.to_bits(),
            self.done_bytes.to_bits(),
            self.pending_spill.to_bits(),
            self.k_dne.to_bits(),
            self.k_batch.to_bits(),
            self.k_seek.to_bits(),
            self.driver_read.to_bits(),
        ]
    }
}

/// Where [`IncrementalObs::offer_impl`] takes an offered snapshot's
/// aggregates from.
#[derive(Clone, Copy)]
enum Aggregates {
    /// The compiled struct-of-arrays walk (`entry_for`).
    Compiled,
    /// The previous offer's, re-stamped: the caller knows nothing moved.
    Unchanged,
}

/// Driver-set state resolved at the pipeline's first observation.
#[derive(Debug, Clone)]
struct DriverState {
    /// Chained totals for the three DNE-family estimators.
    total_dne: f64,
    total_batch: f64,
    total_seek: f64,
    sum_d: f64,
    driver_total_bytes: f64,
    /// `(join node, build-side spill bytes)` — final once the build
    /// pipeline completed, i.e. before this pipeline starts.
    hash_joins: Vec<(NodeId, u64)>,
    /// Struct-of-arrays columns compiled from the driver family — what
    /// the aggregate walk reads (see [`crate::soa`]).
    cols: PipeCols,
}

/// A pipeline's driver family as of its first in-window snapshot: the
/// driver nodes with their known totals, then the batch-sort and the
/// index-seek nodes outside the driver set with their optimizer
/// estimates, which BATCHDNE and DNESEEK chain after the drivers.
fn driver_family(
    plan: &PhysicalPlan,
    pipeline: &Pipeline,
    materialized: &[u64],
) -> [Vec<(NodeId, f64)>; 3] {
    let drivers: Vec<(NodeId, f64)> = pipeline
        .driver_nodes
        .iter()
        .map(|&d| (d, driver_node_total(plan, d, materialized).max(1.0)))
        .collect();
    let extra = |nodes: &[NodeId]| -> Vec<(NodeId, f64)> {
        nodes
            .iter()
            .filter(|d| !drivers.iter().any(|&(n, _)| n == **d))
            .map(|&d| (d, plan.node(d).est_rows.max(1.0)))
            .collect()
    };
    let batch_extra = extra(&pipeline.batch_sort_nodes);
    let seek_extra = extra(&pipeline.index_seek_nodes);
    [drivers, batch_extra, seek_extra]
}

/// Incrementally built estimator state for one pipeline of a running
/// query. See the module docs for the streaming protocol.
pub struct IncrementalObs {
    plan: Arc<PhysicalPlan>,
    pipeline: Pipeline,
    sum_e_raw: f64,
    e_out_total: f64,
    window_start: f64,
    window_end: f64,
    state: Option<DriverState>,
    /// The aggregates of the snapshot offered last, committed or not —
    /// what [`Self::offer_unchanged`] re-stamps. `Some` once started.
    latest: Option<ObsEntry>,
    /// Committed observations (the trace's `pipeline_observations` set),
    /// one row each.
    rows: Vec<Row>,
    /// LUO speed-window pointer (monotone) and last-estimate fallback.
    luo_w: usize,
    luo_prev: f64,
    pending: VecDeque<ObsEntry>,
    finalized: bool,
}

impl IncrementalObs {
    /// Create the (empty) incremental state for `pipeline` of `plan`.
    pub fn new(plan: Arc<PhysicalPlan>, pipeline: &Pipeline) -> Self {
        let sum_e_raw: f64 = pipeline.nodes.iter().map(|&n| plan.node(n).est_rows).sum();
        let e_out_total = expected_output_bytes(&plan, pipeline_top(&plan, pipeline));
        IncrementalObs {
            pipeline: pipeline.clone(),
            sum_e_raw: sum_e_raw.max(1.0),
            e_out_total,
            window_start: f64::INFINITY,
            window_end: f64::NEG_INFINITY,
            state: None,
            latest: None,
            rows: Vec::new(),
            luo_w: 0,
            luo_prev: 0.0,
            pending: VecDeque::new(),
            finalized: false,
            plan,
        }
    }

    /// Pipeline id.
    pub fn pipeline_id(&self) -> usize {
        self.pipeline.id
    }

    /// The pipeline this state observes (the clone captured at
    /// construction — what the harvest path feeds to static-feature and
    /// fingerprint extraction).
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Number of *committed* observations.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Has the pipeline produced its first observation?
    pub fn started(&self) -> bool {
        self.state.is_some()
    }

    pub fn finalized(&self) -> bool {
        self.finalized
    }

    /// Activity window as known so far (final after [`Self::finalize`]).
    pub fn window(&self) -> (f64, f64) {
        (self.window_start, self.window_end)
    }

    fn column(&self, field: usize, scale: Scale) -> Column<'_> {
        Column { rows: &self.rows, field, scale }
    }

    /// Times of the committed observations.
    pub fn times(&self) -> Column<'_> {
        self.column(F_TIME, Scale::Stored)
    }

    /// Fraction of driver input consumed at each committed observation.
    pub fn driver_fraction(&self) -> Column<'_> {
        self.column(F_ALPHA, Scale::Stored)
    }

    /// Total true GetNext calls of this pipeline's nodes (Σ `final_k`),
    /// recovered online: the last committed observation lies at or past
    /// the pipeline's activity-window end, where the pipeline's counters
    /// are frozen at their final values (the same argument that makes the
    /// committed GetNextOracle curve exact). Summed in integer precision.
    ///
    /// # Panics
    /// Panics before [`Self::finalize`]: mid-run the totals are the
    /// unknowable quantity progress estimation exists to avoid.
    pub fn total_getnext(&self) -> u64 {
        assert!(self.finalized, "total_getnext needs post-hoc totals: only after finalize()");
        self.rows.last().map_or(0, |r| r.k_u64)
    }

    /// True pipeline progress at each committed observation — the
    /// elapsed-time fraction of the final activity window (the formula and
    /// clamping of `ObservationTrace::true_pipeline_progress`).
    ///
    /// # Panics
    /// Panics before [`Self::finalize`]: truth needs the final window.
    pub fn truth(&self) -> Vec<f64> {
        assert!(self.finalized, "truth needs the final activity window: only after finalize()");
        let (start, end) = (self.window_start, self.window_end);
        self.times()
            .iter()
            .map(|t| {
                if !start.is_finite() || end <= start {
                    1.0
                } else {
                    ((t - start) / (end - start)).clamp(0.0, 1.0)
                }
            })
            .collect()
    }

    /// Resolve the driver sets and their totals from the first in-window
    /// snapshot. All sources are final at this point: scan totals and
    /// optimizer estimates are static, sort / hash-aggregate sizes were
    /// reported when their build phase (a *previous* pipeline) completed,
    /// and build-side spill bytes stopped moving when the build pipeline
    /// finished.
    fn resolve(&mut self, snap: SnapshotView<'_>) {
        let plan = &self.plan;
        let [drivers, batch_extra, seek_extra] =
            driver_family(plan, &self.pipeline, snap.materialized);
        // Chained sums over drivers ++ extras, front to back — the order
        // the per-observation numerators use, and the one the recorded
        // digests pin (f64 addition is order-sensitive).
        let chained =
            |extra: &[(NodeId, f64)]| -> f64 { drivers.iter().chain(extra).map(|&(_, d)| d).sum() };
        let total_dne = chained(&[]);
        let total_batch = chained(&batch_extra);
        let total_seek = chained(&seek_extra);
        let sum_d: f64 = drivers.iter().map(|&(_, d)| d).sum();
        let driver_total_bytes: f64 =
            drivers.iter().map(|&(d, total)| total * plan.node(d).est_row_bytes).sum();
        let hash_joins: Vec<(NodeId, u64)> = self
            .pipeline
            .nodes
            .iter()
            .copied()
            .filter(|&n| matches!(plan.node(n).op, OperatorKind::HashJoin { .. }))
            .map(|n| (n, snap.bytes_written[plan.node(n).children[1]]))
            .collect();
        let cols = PipeCols::build(plan, &self.pipeline.nodes, &drivers, &batch_extra, &seek_extra);
        self.state = Some(DriverState {
            total_dne,
            total_batch,
            total_seek,
            sum_d,
            driver_total_bytes,
            hash_joins,
            cols,
        });
    }

    /// Compute the per-observation aggregates for one snapshot — the
    /// struct-of-arrays hot path: every operand was hoisted into the
    /// [`PipeCols`] columns when the driver sets resolved, so the walk is
    /// a branch-light pass over contiguous slices (gathers into the
    /// counter vectors, no plan-node access, no membership tests). Same
    /// floating-point operations in the same accumulation order as the
    /// per-node scalar walk in this module's tests, hence bit-identical
    /// output — those tests pin this on real workloads.
    fn entry_for(&self, serial: u64, snap: SnapshotView<'_>, ctx: &SnapshotCtx) -> ObsEntry {
        let state = self.state.as_ref().expect("drivers resolved");
        let cols = &state.cols;
        let (lb, ub) = (&ctx.lb[..], &ctx.ub[..]);
        let (ks, br, bw) = (snap.k, snap.bytes_read, snap.bytes_written);
        let mut k_total = 0.0;
        let mut k_u64 = 0u64;
        let mut e_clamped = 0.0;
        let mut wl = 0.0;
        let mut wu = 0.0;
        let mut bytes = 0.0;
        for ((&n, &est), &mask) in cols.node.iter().zip(&cols.est_rows).zip(&cols.read_mask) {
            let n = n as usize;
            let kk = ks[n];
            let k = kk as f64;
            k_total += k;
            k_u64 += kk;
            e_clamped += clamp_estimate(est, lb[n], ub[n]);
            wu += ub[n];
            wl += k;
            // 0/1 mask instead of the membership branch: bit-identical
            // because the accumulator is non-negative (see PipeCols docs).
            bytes += mask * br[n] as f64;
            bytes += bw[n] as f64;
        }
        // One pass over the driver columns serves all three per-driver
        // sums. Each accumulator's additions stay in driver order, so
        // every value is bitwise equal to the scalar walk's separate
        // walks (f64 addition is order-sensitive, not pass-sensitive).
        let mut k_driver = 0.0;
        let mut driver_read = 0.0;
        for (&d, &total) in cols.driver_node.iter().zip(&cols.driver_total) {
            let d = d as usize;
            let kd = ks[d] as f64;
            wl += (total - kd).max(0.0);
            k_driver += kd;
            driver_read += br[d] as f64;
        }
        let mut pending_spill = 0.0;
        for &(j_node, build_spill) in &state.hash_joins {
            let expected = build_spill as f64 + bw[j_node] as f64;
            pending_spill += (expected - br[j_node] as f64).max(0.0);
        }
        // `batch_node`/`seek_node` are drivers ++ extras, so their chained
        // sums share the driver prefix: resuming the fold from `k_driver`
        // replays the exact op sequence of a full front-to-back gather.
        let tail = cols.driver_node.len();
        let gather_from = |acc: f64, idx: &[u32]| -> f64 {
            idx.iter().fold(acc, |a, &n| a + ks[n as usize] as f64)
        };
        ObsEntry {
            serial,
            time: snap.time,
            sum_k: k_total,
            k_u64,
            sum_e_clamped: e_clamped.max(1.0),
            work_lb: wl.max(1.0),
            work_ub: wu.max(1.0),
            alpha: alpha(k_driver, state.sum_d),
            done_bytes: bytes,
            pending_spill,
            k_dne: k_driver,
            k_batch: gather_from(k_driver, &cols.batch_node[tail..]),
            k_seek: gather_from(k_driver, &cols.seek_node[tail..]),
            driver_read,
        }
    }

    /// Offer one snapshot together with the pipeline's *currently known*
    /// activity window (from the live `TraceEvent`) and the snapshot's
    /// refinement bounds, computed once per query per snapshot and shared
    /// across pipelines. Returns the number of observations committed by
    /// this call. The snapshot is a borrowed [`SnapshotView`]: consumers
    /// that reconstruct counter state from delta events (the monitor
    /// shard's per-query scratch) never materialize an owned `Snapshot`.
    /// Always evaluates the aggregates: the entry point of replay and
    /// training.
    pub fn offer_view(
        &mut self,
        serial: u64,
        snap: SnapshotView<'_>,
        window: (f64, f64),
        ctx: &SnapshotCtx,
    ) -> usize {
        self.offer_impl(serial, snap, window, ctx, Aggregates::Compiled)
    }

    /// [`Self::offer_view`] for a snapshot in which nothing this pipeline's
    /// aggregates read has moved since the previous offer — no `GetNext`
    /// or byte counter of its own nodes, no refinement bound of them (see
    /// [`BoundsKernel::pipeline_readers`](crate::soa::BoundsKernel::pipeline_readers)
    /// for how a caller knows). The aggregates are then the previous
    /// ones, so a started pipeline re-stamps them with the new `serial`
    /// and time in O(1) and runs the same pending/commit protocol; a
    /// pipeline that has not started is evaluated as usual. Same return
    /// value and same state as [`Self::offer_view`] — builds with debug
    /// assertions recompute the aggregates and check bit-equality on
    /// every call.
    pub fn offer_unchanged(
        &mut self,
        serial: u64,
        snap: SnapshotView<'_>,
        window: (f64, f64),
        ctx: &SnapshotCtx,
    ) -> usize {
        self.offer_impl(serial, snap, window, ctx, Aggregates::Unchanged)
    }

    fn offer_impl(
        &mut self,
        serial: u64,
        snap: SnapshotView<'_>,
        window: (f64, f64),
        ctx: &SnapshotCtx,
        aggregates: Aggregates,
    ) -> usize {
        assert!(!self.finalized, "offer after finalize");
        debug_assert_eq!(ctx.len(), self.plan.len(), "SnapshotCtx built for a different plan");
        let (start, last) = window;
        if !start.is_finite() || snap.time < start {
            return 0; // pipeline not started, or pre-window snapshot
        }
        if self.state.is_none() {
            self.window_start = start;
            self.resolve(snap);
        }
        self.window_end = self.window_end.max(last);
        let entry = match (aggregates, self.latest) {
            (Aggregates::Unchanged, Some(previous)) => {
                let entry = ObsEntry { serial, time: snap.time, ..previous };
                debug_assert_eq!(
                    entry.bits(),
                    self.entry_for(serial, snap, ctx).bits(),
                    "pipeline {} offered as unchanged, but its aggregates moved",
                    self.pipeline.id
                );
                entry
            }
            _ => self.entry_for(serial, snap, ctx),
        };
        self.latest = Some(entry);
        // Snapshots at or before the last tick seen so far are provably
        // inside the final window (the final end can only grow). Common
        // case — nothing queued and this entry already committable —
        // bypasses the deque entirely (same commit order either way).
        if self.pending.is_empty() && entry.time <= self.window_end {
            self.commit(entry);
            return 1;
        }
        self.pending.push_back(entry);
        let mut committed = 0;
        while let Some(front) = self.pending.front() {
            if front.time <= self.window_end {
                let e = self.pending.pop_front().expect("front exists");
                self.commit(e);
                committed += 1;
            } else {
                break;
            }
        }
        committed
    }

    /// Append one committed observation: one row, every online value in
    /// it.
    fn commit(&mut self, e: ObsEntry) {
        let state = self.state.as_ref().expect("drivers resolved");
        let dne = |k: f64, total: f64| if total <= 0.0 { 0.0 } else { clamp01(k / total) };
        let remaining_out = ((1.0 - e.alpha) * self.e_out_total).clamp(0.0, self.e_out_total);
        let luo_remaining =
            (state.driver_total_bytes - e.driver_read).max(0.0) + remaining_out + e.pending_spill;
        let values = [
            dne(e.k_dne, state.total_dne),
            clamp01(e.sum_k / e.sum_e_clamped),
            0.0, // LUO looks back over the rows: filled in below
            clamp01(e.sum_k / e.work_ub),
            {
                let l = clamp01(e.sum_k / e.work_ub);
                let u = clamp01(e.sum_k / e.work_lb);
                (l * u).sqrt()
            },
            dne(e.k_batch, state.total_batch),
            dne(e.k_seek, state.total_seek),
            {
                // TGNINT: eq. (2), K + (1 - α)·E, summed over the pipeline.
                let denom = e.sum_k + (1.0 - e.alpha) * self.sum_e_raw;
                clamp01(e.sum_k / denom.max(1.0))
            },
            clamp01(e.sum_k / self.sum_e_raw),
        ];
        let mut f = [0.0; ROW_F64S];
        f[F_TIME] = e.time;
        f[F_ALPHA] = e.alpha;
        f[F_SUM_K] = e.sum_k;
        f[F_DONE_BYTES] = e.done_bytes;
        f[F_LUO_REMAINING] = luo_remaining;
        f[F_VALUES..].copy_from_slice(&values);
        self.rows.push(Row { serial: e.serial, k_u64: e.k_u64, f });
        let luo = self.luo_next();
        self.rows.last_mut().expect("just pushed").f[F_LUO] = luo;
    }

    /// LUO estimate of observation `i` from its row, the row opening its
    /// speed window and the previous estimate — the part the forward
    /// pointer ([`Self::luo_next`]) and the backward reference walk
    /// ([`Self::rebuild_luo`]) share.
    fn luo_at(&self, i: usize, w: usize, prev: f64) -> f64 {
        let (row, opening) = (&self.rows[i].f, &self.rows[w].f);
        let elapsed = (row[F_TIME] - self.window_start).max(1e-9);
        let dt = row[F_TIME] - opening[F_TIME];
        let db = row[F_DONE_BYTES] - opening[F_DONE_BYTES];
        luo_point(i == 0, elapsed, dt, db, row[F_DONE_BYTES], row[F_LUO_REMAINING], prev)
    }

    /// Width of the LUO speed window at time `t`: a tenth of the elapsed
    /// window time.
    fn luo_window(&self, t: f64) -> f64 {
        ((t - self.window_start).max(1e-9) * 0.1).max(1e-9)
    }

    /// LUO estimate for the observation being committed (the last row).
    /// Uses a monotone pointer for the speed window: the reference
    /// backward walk selects the largest `j ≤ i-1` with
    /// `times[j] ≤ t - win`, and that threshold is non-decreasing in `i`
    /// (d(t - 0.1·(t-start))/dt = 0.9 > 0), so the pointer only ever moves
    /// forward — O(1) amortized instead of O(window) per observation.
    fn luo_next(&mut self) -> f64 {
        let i = self.rows.len() - 1;
        let t = self.rows[i].f[F_TIME];
        let win = self.luo_window(t);
        while self.luo_w + 1 < i && t - self.rows[self.luo_w + 1].f[F_TIME] >= win {
            self.luo_w += 1;
        }
        let w = if i == 0 { 0 } else { self.luo_w };
        let est = self.luo_at(i, w, self.luo_prev);
        self.luo_prev = est;
        est
    }

    /// Recompute the LUO curve from scratch (after thinning changed the
    /// committed index space) using the reference backward walk
    /// ([`luo_window_start`]): one field written per row.
    fn rebuild_luo(&mut self) {
        let mut prev = 0.0f64;
        let mut last_w = 0usize;
        for i in 0..self.rows.len() {
            let t = self.rows[i].f[F_TIME];
            let w = luo_window_start(|j| self.rows[j].f[F_TIME], i, t, self.luo_window(t));
            last_w = w;
            let est = self.luo_at(i, w, prev);
            prev = est;
            self.rows[i].f[F_LUO] = est;
        }
        self.luo_w = last_w;
        self.luo_prev = prev;
    }

    /// Apply an engine thinning event: retain only the observations whose
    /// serial survives in `live` (the engine's post-thinning buffer,
    /// ascending) — one in-place compaction of the rows. Amortized O(1)
    /// per offered snapshot: thinning halves the buffer, so each
    /// observation is touched O(log) times total.
    pub fn thin(&mut self, live: &[u64]) {
        let before = self.rows.len();
        let mut li = 0usize;
        self.rows.retain(|row| {
            while li < live.len() && live[li] < row.serial {
                li += 1;
            }
            li < live.len() && live[li] == row.serial
        });
        if self.rows.len() != before {
            // The LUO window lookback is defined over the observation index
            // space, which just changed: rebuild it (the other values are
            // pointwise and survive in their rows untouched).
            self.rebuild_luo();
        }
        self.pending.retain(|e| live.binary_search(&e.serial).is_ok());
    }

    /// The query terminated: resolve the trailing pendings against the
    /// final activity window — everything inside commits, plus the first
    /// observation past the end (the `pipeline_observations` rule) — and
    /// unlock the oracle curves.
    pub fn finalize(&mut self, final_window: (f64, f64)) {
        if self.finalized {
            return;
        }
        self.finalized = true;
        if self.state.is_none() {
            return; // pipeline never observed
        }
        self.window_start = final_window.0;
        self.window_end = final_window.1;
        let mut past_end = false;
        while let Some(e) = self.pending.pop_front() {
            if e.time <= self.window_end {
                self.commit(e);
            } else if !past_end {
                self.commit(e);
                past_end = true;
            }
        }
        self.pending.clear();
    }

    /// The committed curve of one estimator, copied out. Online kinds are
    /// available at any point; the two oracle models (which need post-hoc
    /// totals) only after [`Self::finalize`].
    ///
    /// # Panics
    /// Panics when an oracle curve is requested before finalization.
    pub fn curve(&self, kind: EstimatorKind) -> Vec<f64> {
        self.curve_view(kind).to_vec()
    }

    /// [`Self::curve`] read in place: re-selection looks at a few marker
    /// points and record extraction scores every curve once, so a copy
    /// per curve would dominate both.
    pub fn curve_view(&self, kind: EstimatorKind) -> Column<'_> {
        if let Some(idx) = online_index(kind) {
            return self.column(F_VALUES + idx, Scale::Stored);
        }
        assert!(self.finalized, "{kind} needs post-hoc totals: only available after finalize()");
        let last = self.rows.last();
        match kind {
            EstimatorKind::GetNextOracle => {
                // Counters of this pipeline's nodes are frozen by its last
                // observation, so the final Σ K equals the true Σ N_i.
                let total = last.map_or(0.0, |r| r.f[F_SUM_K]);
                self.column(F_SUM_K, Scale::Over(total.max(1.0)))
            }
            EstimatorKind::BytesOracle => {
                let total = last.map_or(0.0, |r| r.f[F_DONE_BYTES]);
                let scale = if total <= 0.0 { Scale::Ones } else { Scale::Over(total) };
                self.column(F_DONE_BYTES, scale)
            }
            _ => unreachable!("non-oracle kinds are online"),
        }
    }

    /// Latest committed value of one online estimator — the O(1) serving
    /// path: one load from the last row. `None` until the first
    /// observation commits.
    pub fn value(&self, kind: EstimatorKind) -> Option<f64> {
        let idx = online_index(kind)?;
        self.rows.last().map(|r| r.f[F_VALUES + idx])
    }

    /// Post-hoc evaluation: replay pipeline `pid` of a completed run
    /// through the incremental protocol (serials are trace indices; no
    /// thinning — the trace is already thinned). `ctx` carries the run's
    /// plan and per-snapshot bounds, built once and shared by every
    /// pipeline of the run. `None` when the pipeline produced no
    /// observations (it never ran, or ran entirely between snapshots).
    pub fn replay_shared(run: &QueryRun, pid: usize, ctx: &TraceCtx) -> Option<IncrementalObs> {
        assert_eq!(
            ctx.len(),
            run.trace.snapshots.len(),
            "TraceCtx built for a different trace ({} snapshots vs {})",
            ctx.len(),
            run.trace.snapshots.len()
        );
        let mut inc = IncrementalObs::new(Arc::clone(ctx.plan()), &run.pipelines[pid]);
        let (start, end) = run.trace.pipeline_windows[pid];
        for (j, snap) in run.trace.snapshots.iter().enumerate() {
            // The live window's `last` is the last tick at or before this
            // snapshot; any value in [that, snap.time] commits the same
            // observation set, so the conservative `min(end, time)` works.
            let window = (start, end.min(snap.time));
            inc.offer_view(j as u64, snap.as_view(), window, ctx.snapshot(j));
            if snap.time > end {
                break; // finalize keeps only the first observation past the end
            }
        }
        inc.finalize((start, end));
        if inc.is_empty() {
            return None;
        }
        Some(inc)
    }
}

#[cfg(test)]
mod tests;
