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
//! batch implementation this path replaced); the compiled aggregate walk
//! and the monotone LUO window pointer each keep one independent scalar
//! reference (`entry_for_scalar`, `rebuild_luo`).
//!
//! [`TraceEvent`]: prosel_engine::trace::TraceEvent
//! [`QueryRun`]: prosel_engine::QueryRun
//!
//! # Streaming protocol
//!
//! The engine's [`prosel_engine::trace::TraceEvent`] stream drives three
//! entry points:
//!
//! * [`IncrementalObs::offer`] for every snapshot, with the pipeline's
//!   *currently known* activity window. Snapshots before the pipeline's
//!   first tick are skipped; snapshots provably inside the window commit
//!   immediately; snapshots past the last tick seen so far stay *pending*
//!   until a later tick (or finalization) proves whether they fall inside
//!   the final window — the
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
//! evaluation read the layout in place.

use crate::ctx::{SnapshotCtx, TraceCtx};
use crate::kinds::EstimatorKind;
use crate::pipeline_obs::{
    clamp01, driver_node_total, expected_output_bytes, luo_point, luo_window_start, pipeline_top,
};
use crate::refine::{alpha, clamp_estimate};
use crate::soa::PipeCols;
use prosel_engine::plan::{NodeId, OperatorKind, PhysicalPlan};
use prosel_engine::trace::{QueryRun, Snapshot, SnapshotView};
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

/// Positions of the `f64` fields of a [`Row`]: the aggregates retained
/// past the commit, then one value per [`ONLINE_KINDS`] entry.
const F_TIME: usize = 0;
const F_ALPHA: usize = 1;
const F_SUM_K: usize = 2;
const F_DONE_BYTES: usize = 3;
/// Bytes LUO still expects (driver input left + output left + pending
/// spill) — a function of the observation alone, so the window rebuild
/// after a thinning event reads it back instead of re-deriving it.
const F_LUO_REMAINING: usize = 4;
const F_VALUES: usize = 5;
const F_LUO: usize = F_VALUES + 2;
const ROW_F64S: usize = F_VALUES + ONLINE_KINDS.len();
const _: () = assert!(matches!(ONLINE_KINDS[F_LUO - F_VALUES], EstimatorKind::Luo));

/// One committed observation: all that is kept of it, contiguous (see the
/// module docs). The `f64` fields sit in one array so that a [`Column`]
/// is a field index and a stride.
#[derive(Debug, Clone, Copy)]
struct Row {
    serial: u64,
    /// Σ K over the pipeline's nodes in integer precision (the harvest
    /// path's `total_getnext`; `f[F_SUM_K]` is its f64 shadow).
    k_u64: u64,
    f: [f64; ROW_F64S],
}

/// How a [`Column`] turns the stored field into the served value.
#[derive(Debug, Clone, Copy)]
enum Scale {
    /// The field as stored.
    Stored,
    /// An oracle curve: the field over its post-hoc total, clamped.
    Over(f64),
    /// An oracle curve whose total is zero: complete throughout.
    Ones,
}

/// One column of the committed observations — a curve, the observation
/// times, the driver fractions — read in place: a strided view over the
/// rows that allocates nothing. Index with [`Column::get`], walk with
/// [`Column::iter`], score against a truth curve with
/// [`Column::l1_error`] and friends, copy out with [`Column::to_vec`].
#[derive(Clone, Copy)]
pub struct Column<'a> {
    rows: &'a [Row],
    field: usize,
    scale: Scale,
}

impl<'a> Column<'a> {
    /// Number of observations.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    // `inline(always)`: re-selection reads a few marker points per curve
    // through `get`, from another crate; left to the inliner's judgement
    // both stayed calls.
    #[inline(always)]
    fn value_of(&self, row: &Row) -> f64 {
        let v = row.f[self.field];
        match self.scale {
            Scale::Stored => v,
            Scale::Over(total) => clamp01(v / total),
            Scale::Ones => 1.0,
        }
    }

    /// The value at observation `j`.
    ///
    /// # Panics
    /// Panics when `j` is out of range, like slice indexing.
    #[inline(always)]
    pub fn get(&self, j: usize) -> f64 {
        self.value_of(&self.rows[j])
    }

    /// The value at the latest observation.
    pub fn last(&self) -> Option<f64> {
        self.rows.last().map(|r| self.value_of(r))
    }

    /// The values in observation order.
    #[inline]
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = f64> + ExactSizeIterator + 'a {
        let column = *self;
        self.rows.iter().map(move |r| column.value_of(r))
    }

    /// Copy the column out.
    pub fn to_vec(&self) -> Vec<f64> {
        self.iter().collect()
    }
}

/// Columns compare like the slices they stand for.
impl PartialEq for Column<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl std::fmt::Debug for Column<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
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
    /// The scalar reference walk (`entry_for_scalar`).
    Scalar,
    /// The previous offer's, re-stamped: the caller knows nothing moved.
    Unchanged,
}

/// Driver-set state resolved at the pipeline's first observation.
#[derive(Debug, Clone)]
struct DriverState {
    drivers: Vec<(NodeId, f64)>,
    /// The driver node ids alone (hot-path membership test).
    driver_set: Vec<NodeId>,
    batch_extra: Vec<(NodeId, f64)>,
    seek_extra: Vec<(NodeId, f64)>,
    /// Chained totals for the three DNE-family estimators.
    total_dne: f64,
    total_batch: f64,
    total_seek: f64,
    sum_d: f64,
    driver_total_bytes: f64,
    /// `(join node, build-side spill bytes)` — final once the build
    /// pipeline completed, i.e. before this pipeline starts.
    hash_joins: Vec<(NodeId, u64)>,
    /// Struct-of-arrays columns compiled from the fields above — what the
    /// hot-path aggregate walk actually reads (see [`crate::soa`]).
    cols: PipeCols,
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
        let drivers: Vec<(NodeId, f64)> = self
            .pipeline
            .driver_nodes
            .iter()
            .map(|&d| (d, driver_node_total(plan, d, snap.materialized).max(1.0)))
            .collect();
        let driver_set: Vec<NodeId> = drivers.iter().map(|&(d, _)| d).collect();
        let batch_extra: Vec<(NodeId, f64)> = self
            .pipeline
            .batch_sort_nodes
            .iter()
            .filter(|d| !driver_set.contains(d))
            .map(|&d| (d, plan.node(d).est_rows.max(1.0)))
            .collect();
        let seek_extra: Vec<(NodeId, f64)> = self
            .pipeline
            .index_seek_nodes
            .iter()
            .filter(|d| !driver_set.contains(d))
            .map(|&d| (d, plan.node(d).est_rows.max(1.0)))
            .collect();
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
            drivers,
            driver_set,
            batch_extra,
            seek_extra,
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
    /// scalar reference (`entry_for_scalar`), hence bit-identical
    /// output — the property nets pin this.
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
        // every value is bitwise equal to the scalar reference's separate
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

    /// The original per-node *scalar* walk: per-node plan access,
    /// [`OperatorKind`] dispatch and driver-set membership tests. Kept as
    /// the reference implementation the compiled [`PipeCols`] path is
    /// pinned against (bit-identity property nets, and the scalar side of
    /// the `monitor_overhead` A/B group); not used on any hot path.
    fn entry_for_scalar(&self, serial: u64, snap: SnapshotView<'_>, ctx: &SnapshotCtx) -> ObsEntry {
        let plan = &self.plan;
        let state = self.state.as_ref().expect("drivers resolved");
        let (lb, ub) = (&ctx.lb, &ctx.ub);
        let is_leaf_read = |id: NodeId| {
            matches!(
                plan.node(id).op,
                OperatorKind::TableScan { .. }
                    | OperatorKind::IndexScan { .. }
                    | OperatorKind::IndexSeek { .. }
            )
        };
        let mut k_total = 0.0;
        let mut k_u64 = 0u64;
        let mut e_clamped = 0.0;
        let mut wl = 0.0;
        let mut wu = 0.0;
        let mut bytes = 0.0;
        for &n in &self.pipeline.nodes {
            let k = snap.k[n] as f64;
            k_total += k;
            k_u64 += snap.k[n];
            e_clamped += clamp_estimate(plan.node(n).est_rows, lb[n], ub[n]);
            wu += ub[n];
            wl += k;
            if state.driver_set.contains(&n) || !is_leaf_read(n) {
                bytes += snap.bytes_read[n] as f64;
            }
            bytes += snap.bytes_written[n] as f64;
        }
        for &(d, total) in &state.drivers {
            wl += (total - snap.k[d] as f64).max(0.0);
        }
        let k_driver: f64 = state.drivers.iter().map(|&(d, _)| snap.k[d] as f64).sum();
        let mut pending_spill = 0.0;
        for &(j_node, build_spill) in &state.hash_joins {
            let expected = build_spill as f64 + snap.bytes_written[j_node] as f64;
            pending_spill += (expected - snap.bytes_read[j_node] as f64).max(0.0);
        }
        let k_of = |extra: &[(NodeId, f64)]| -> f64 {
            state.drivers.iter().chain(extra).map(|&(n, _)| snap.k[n] as f64).sum()
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
            k_dne: k_of(&[]),
            k_batch: k_of(&state.batch_extra),
            k_seek: k_of(&state.seek_extra),
            driver_read: state.drivers.iter().map(|&(d, _)| snap.bytes_read[d] as f64).sum(),
        }
    }

    /// Offer one snapshot together with the pipeline's *currently known*
    /// activity window (from the live `TraceEvent`). Returns the number of
    /// observations committed by this call.
    ///
    /// Computes the per-snapshot refinement bounds itself. When several
    /// pipelines of the same query consume the same snapshot, build one
    /// [`SnapshotCtx`] and call [`Self::offer_view`] instead, so the
    /// O(plan) bound pass runs once per snapshot rather than once per
    /// pipeline.
    pub fn offer(&mut self, serial: u64, snap: &Snapshot, window: (f64, f64)) -> usize {
        assert!(!self.finalized, "offer after finalize");
        let (start, _) = window;
        if !start.is_finite() || snap.time < start {
            return 0; // pipeline not started, or pre-window snapshot
        }
        let ctx = SnapshotCtx::new(&self.plan, snap);
        self.offer_view(serial, snap.as_view(), window, &ctx)
    }

    /// [`Self::offer`] with the refinement bounds precomputed once per
    /// query per snapshot and shared across pipelines, over a borrowed
    /// [`SnapshotView`] — consumers that reconstruct counter state from
    /// delta events (the monitor shard's per-query scratch) never
    /// materialize an owned [`Snapshot`]. Always evaluates the aggregates:
    /// the entry point of replay, training and every reference.
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

    /// [`Self::offer_view`] computing the per-observation aggregates via
    /// the original scalar walk (`entry_for_scalar`) instead of
    /// the compiled struct-of-arrays columns. Identical protocol,
    /// bit-identical curves — this is the reference side of the
    /// scalar-vs-SoA A/B comparison in the `monitor_overhead` bench and
    /// the equivalence property nets. Not a hot path.
    pub fn offer_shared_scalar(
        &mut self,
        serial: u64,
        snap: &Snapshot,
        window: (f64, f64),
        ctx: &SnapshotCtx,
    ) -> usize {
        self.offer_impl(serial, snap.as_view(), window, ctx, Aggregates::Scalar)
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
            (Aggregates::Scalar, _) => self.entry_for_scalar(serial, snap, ctx),
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
mod tests {
    use super::*;
    use prosel_engine::plan::{CmpOp, PlanNode, Predicate};
    use prosel_engine::{decompose, OperatorKind};

    fn scan_filter_plan() -> Arc<PhysicalPlan> {
        Arc::new(PhysicalPlan {
            nodes: vec![
                PlanNode {
                    op: OperatorKind::TableScan { table: "t".into(), cols: vec![0] },
                    children: vec![],
                    est_rows: 100.0,
                    est_row_bytes: 8.0,
                    out_cols: 1,
                },
                PlanNode {
                    op: OperatorKind::Filter {
                        pred: Predicate::ColCmp { col: 0, op: CmpOp::Gt, val: 0 },
                    },
                    children: vec![0],
                    est_rows: 50.0,
                    est_row_bytes: 8.0,
                    out_cols: 1,
                },
            ],
            root: 1,
        })
    }

    fn snap(time: f64, k0: u64, k1: u64) -> Snapshot {
        Snapshot {
            time,
            k: vec![k0, k1].into_boxed_slice(),
            bytes_read: vec![k0 * 8, 0].into_boxed_slice(),
            bytes_written: vec![0, 0].into_boxed_slice(),
            materialized: vec![0, 0].into_boxed_slice(),
        }
    }

    #[test]
    fn skips_snapshots_before_the_window() {
        let plan = scan_filter_plan();
        let pipelines = decompose(&plan);
        let mut obs = IncrementalObs::new(plan, &pipelines[0]);
        // Pipeline not started yet: window is (inf, -inf).
        assert_eq!(obs.offer(0, &snap(5.0, 0, 0), (f64::INFINITY, f64::NEG_INFINITY)), 0);
        assert!(!obs.started());
        // Started at t=10; a snapshot inside the known window commits.
        assert_eq!(obs.offer(1, &snap(12.0, 20, 10), (10.0, 12.0)), 1);
        assert!(obs.started());
        assert_eq!(obs.len(), 1);
        assert!((obs.value(EstimatorKind::Dne).unwrap() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn pendings_commit_when_proven_in_window() {
        let plan = scan_filter_plan();
        let pipelines = decompose(&plan);
        let mut obs = IncrementalObs::new(plan, &pipelines[0]);
        obs.offer(0, &snap(12.0, 20, 10), (10.0, 12.0));
        // Snapshot past the last known tick: cannot commit yet (it might
        // land past the final window end).
        assert_eq!(obs.offer(1, &snap(30.0, 20, 10), (10.0, 12.0)), 0);
        assert_eq!(obs.len(), 1);
        // A later tick at t=40 proves the pending was inside the window;
        // both it and the new snapshot commit.
        assert_eq!(obs.offer(2, &snap(40.0, 80, 40), (10.0, 40.0)), 2);
        assert_eq!(obs.len(), 3);
        // Finalize: the first trailing pending commits (the
        // one-past-end rule), later ones are dropped.
        obs.offer(3, &snap(45.0, 100, 50), (10.0, 41.0));
        obs.offer(4, &snap(50.0, 100, 50), (10.0, 41.0));
        obs.finalize((10.0, 41.0));
        assert_eq!(obs.len(), 4, "exactly one past-end observation");
        assert_eq!(obs.times().last(), Some(45.0));
        let dne = obs.curve(EstimatorKind::Dne);
        assert!((dne.last().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "after finalize")]
    fn oracle_curves_require_finalization() {
        let plan = scan_filter_plan();
        let pipelines = decompose(&plan);
        let mut obs = IncrementalObs::new(plan, &pipelines[0]);
        obs.offer(0, &snap(12.0, 20, 10), (10.0, 12.0));
        let _ = obs.curve(EstimatorKind::GetNextOracle);
    }

    #[test]
    fn truth_and_total_getnext_unlock_at_finalize() {
        let plan = scan_filter_plan();
        let pipelines = decompose(&plan);
        let mut obs = IncrementalObs::new(plan, &pipelines[0]);
        obs.offer(0, &snap(12.0, 20, 10), (10.0, 12.0));
        obs.offer(1, &snap(40.0, 80, 40), (10.0, 40.0));
        obs.finalize((10.0, 40.0));
        // Elapsed-time fractions of the final [10, 40] window.
        let truth = obs.truth();
        assert_eq!(truth.len(), 2);
        assert!((truth[0] - 2.0 / 30.0).abs() < 1e-12);
        assert!((truth[1] - 1.0).abs() < 1e-12);
        // Counters frozen at the window end: Σ K of the last observation.
        assert_eq!(obs.total_getnext(), 120);
    }

    #[test]
    #[should_panic(expected = "after finalize")]
    fn truth_requires_finalization() {
        let plan = scan_filter_plan();
        let pipelines = decompose(&plan);
        let mut obs = IncrementalObs::new(plan, &pipelines[0]);
        obs.offer(0, &snap(12.0, 20, 10), (10.0, 12.0));
        let _ = obs.truth();
    }

    #[test]
    fn online_values_track_curves() {
        let plan = scan_filter_plan();
        let pipelines = decompose(&plan);
        let mut obs = IncrementalObs::new(plan, &pipelines[0]);
        assert_eq!(obs.value(EstimatorKind::Tgn), None);
        for (i, t) in [12.0, 20.0, 28.0].iter().enumerate() {
            let k = 20 * (i as u64 + 1);
            obs.offer(i as u64, &snap(*t, k, k / 2), (10.0, *t));
        }
        for kind in ONLINE_KINDS {
            let c = obs.curve(kind);
            assert_eq!(c.len(), 3);
            assert_eq!(obs.value(kind), c.last().copied());
            assert!(c.iter().all(|v| (0.0..=1.0).contains(v)), "{kind} out of range");
        }
    }
}
