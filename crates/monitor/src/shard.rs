//! The single-threaded monitor core: one shard's worth of state.
//!
//! [`ProgressMonitor`] is both the standalone single-threaded monitor
//! (embed it directly when one ingest thread suffices) and the per-shard
//! core of the multi-threaded [`crate::MonitorService`], which owns N of
//! them behind worker threads and routes queries by id.
//!
//! Lifecycle per query: [`ProgressMonitor::register`] (plan only, before
//! execution) creates the query's cell ([`crate::cell`]) →
//! [`ProgressMonitor::ingest`] for every [`TraceEvent`] advances the state
//! and stores what it now serves into the cell (the funnel is in
//! `shard/ingest.rs`) → every read is answered from the cell → the
//! `Finished` event pins the query to exactly 1.0 and finalizes every
//! pipeline's observation state (unlocking oracle curves and exact
//! post-hoc equivalence).

mod compiled;
mod ingest;

use crate::cell::{PipelineStatus, QueryCell, QueryStatus, Served, SwitchEvent};
use crate::config::{HarvestConfig, MonitorConfig};
use crate::error::{QueryError, RegisterError};
use crate::eta::{Eta, SpeedTracker};
use crate::stats::{ShardCounters, ShardStats};
use compiled::{CompiledPlan, PlanCache};
use ingest::IngestScratch;
pub(crate) use ingest::Ingested;
use prosel_core::features::dynamic_features;
use prosel_core::features::schema::{DYNAMIC_LEN, STATIC_LEN};
use prosel_core::pipeline_runs::PipelineRecord;
use prosel_core::selection::EstimatorSelector;
use prosel_engine::plan::PhysicalPlan;
use prosel_engine::trace::TraceEvent;
use prosel_estimators::{EstimatorKind, IncrementalObs};
use std::collections::BTreeMap;
use std::sync::mpsc::Receiver;
use std::sync::Arc;

/// Everything one finished query yields for the learning loop: its
/// labelled records (bit-identical to post-hoc extraction over the same
/// trace), the estimator-switch history (§4.4's revision points) and the
/// selector epoch the query was registered under.
#[derive(Debug, Clone)]
pub struct HarvestedQuery {
    pub query: usize,
    /// Selector epoch captured at this query's registration.
    pub selector_epoch: u64,
    /// Total virtual execution time reported by the engine.
    pub total_time: f64,
    /// One record per pipeline that met the observation floor.
    pub records: Vec<PipelineRecord>,
    /// Estimator switches logged while the query ran.
    pub switches: Vec<SwitchEvent>,
}

/// Consumer of harvested queries. Implementations must be cheap and
/// non-blocking: the monitor calls [`HarvestSink::deliver`] inline while
/// processing the `Finished` event (a channel sender is the typical
/// impl — the heavy lifting happens on the trainer's thread).
pub trait HarvestSink: Send + Sync {
    fn deliver(&self, harvest: HarvestedQuery);
}

/// A plain mpsc sender is a harvest sink; a hung-up receiver silently
/// drops the harvest (monitoring must outlive any one learner).
impl HarvestSink for std::sync::mpsc::Sender<HarvestedQuery> {
    fn deliver(&self, harvest: HarvestedQuery) {
        let _ = self.send(harvest);
    }
}

/// Which selection policy a monitor serves.
#[derive(Clone)]
pub(crate) enum Policy {
    Fixed(EstimatorKind),
    Selector(Arc<EstimatorSelector>),
}

struct PipeState {
    obs: IncrementalObs,
    choice: EstimatorKind,
    /// The last extraction reached every dynamic-feature marker, so the
    /// features `choice` was scored on are final until the next thinning
    /// (see [`dynamic_features::extract_into`]): re-selections keep
    /// `choice` without extracting.
    settled: bool,
    since_select: usize,
}

impl PipeState {
    /// A due re-selection: extract the dynamic features behind `statics`
    /// into `scratch` and score them — unless the pipeline is settled, in
    /// which case the same input to the query's captured selector gives
    /// the choice already held.
    fn rescore(
        &mut self,
        statics: &[f32],
        sel: &EstimatorSelector,
        scratch: &mut Vec<f32>,
        counters: &ShardCounters,
    ) -> EstimatorKind {
        counters.reselect.inc();
        if self.settled {
            debug_assert_eq!(
                score(&self.obs, statics, sel, scratch),
                (true, self.choice),
                "pipeline {}: a settled pipeline's choice moved",
                self.obs.pipeline_id()
            );
            counters.reselect_memo_hits.inc();
            return self.choice;
        }
        let (settled, choice) = score(&self.obs, statics, sel, scratch);
        self.settled = settled;
        choice
    }
}

/// Assemble `statics` and the dynamic features of `obs` in `scratch` and
/// score them: whether every marker was reached, and the choice.
fn score(
    obs: &IncrementalObs,
    statics: &[f32],
    sel: &EstimatorSelector,
    scratch: &mut Vec<f32>,
) -> (bool, EstimatorKind) {
    scratch.clear();
    scratch.extend_from_slice(statics);
    let settled = dynamic_features::extract_into(obs, scratch);
    (settled, sel.select(scratch))
}

/// The pipeline rows a query serves: each pipeline's progress under the
/// estimator in charge of it, 0.0 before its first observation and 1.0
/// once the query finished.
fn served_rows(pipes: &[PipeState], finished: bool) -> impl Iterator<Item = PipelineStatus> + '_ {
    pipes.iter().map(move |pipe| PipelineStatus {
        pipeline: pipe.obs.pipeline_id(),
        estimator: pipe.choice,
        progress: if finished { 1.0 } else { pipe.obs.value(pipe.choice).unwrap_or(0.0) },
        observations: pipe.obs.len(),
    })
}

struct QueryState {
    /// The registered plan (shared with every pipeline's observation
    /// state); the per-snapshot bound context is computed against it.
    plan: Arc<PhysicalPlan>,
    /// What admission derived from the plan alone, shared by every query
    /// registered against the same `Arc` on this shard. Its selector is
    /// the one captured at registration — in-flight queries keep scoring
    /// with their registration-time model even when
    /// [`ProgressMonitor::swap_selector`] installs a newer one.
    compiled: Arc<CompiledPlan>,
    /// Reusable counter/bound scratch (see [`IngestScratch`]).
    scratch: IngestScratch,
    pipes: Vec<PipeState>,
    /// Serials of the engine's currently retained snapshots (mirrors the
    /// bounded trace buffer across thinning events).
    live: Vec<u64>,
    serial_next: u64,
    /// Wall-clock speed over the trailing window (ETA serving).
    eta: SpeedTracker,
    /// Wall stamp of the latest stamped event seen for this query.
    last_wall: f64,
    /// What the query serves, kept current by every event that can move
    /// it (snapshot/delta, `Thinned`, `Finished`) …
    served: Served,
    /// … and where readers see it: [`Self::publish`] is the last step of
    /// the ingest funnel. The switch history lives only here.
    cell: Arc<QueryCell>,
}

impl QueryState {
    /// Eq. (5)-weighted progress of an unfinished query under each
    /// pipeline's current estimator.
    fn weighted_progress(&self) -> f64 {
        let CompiledPlan { weights, total_weight, .. } = &*self.compiled;
        if *total_weight <= 0.0 {
            return 0.0;
        }
        let mut acc = 0.0f64;
        for (pipe, &w) in self.pipes.iter().zip(weights) {
            if w <= 0.0 {
                continue;
            }
            if let Some(v) = pipe.obs.value(pipe.choice) {
                acc += w * v;
            }
        }
        (acc / total_weight).clamp(0.0, 1.0)
    }

    fn publish(&self) {
        self.cell.store(&self.served, served_rows(&self.pipes, self.served.finished));
    }
}

/// Long-lived online progress monitor (single-threaded core / one shard of
/// the [`crate::MonitorService`]). See the crate docs for the model.
pub struct ProgressMonitor {
    policy: Policy,
    config: MonitorConfig,
    queries: BTreeMap<usize, QueryState>,
    /// Bumped by every [`Self::swap_selector`]; queries remember the epoch
    /// they registered under.
    epoch: u64,
    harvester: Option<(Arc<dyn HarvestSink>, HarvestConfig)>,
    /// Monotone operation counters and latency histograms — shared
    /// wait-free atomics; [`Self::shard_stats`] is a view over them.
    counters: ShardCounters,
    /// Admission records of the plans registered here under `policy`.
    plans: PlanCache,
    /// Scratch a due re-selection assembles its feature vector in (static
    /// prefix, then the freshly extracted dynamic suffix).
    dynamic_feats: Vec<f32>,
    /// Rolling event tick for 1-in-N latency sampling.
    obs_tick: u32,
}

impl ProgressMonitor {
    /// The one constructor, behind [`crate::MonitorBuilder`]. A fixed
    /// policy serves every pipeline with one estimator (no selection); a
    /// selector policy selects statically at registration and re-selects
    /// at the configured observation cadence (the `Arc` is how N shards
    /// score with one model instance). With a harvest sink, every
    /// `Finished` event additionally mines the query's finalized
    /// observation state into labelled [`PipelineRecord`]s (bit-identical
    /// to post-hoc extraction over the same trace) and delivers them,
    /// together with the switch history, as one [`HarvestedQuery`].
    ///
    /// A service builds one per shard, all sharing the policy's selector
    /// instance and the harvest sink (so one learning loop is fed from
    /// every shard); `shard` names the counters `monitor_shard<i>_*`
    /// instead of `monitor_*`.
    ///
    /// Refuses a fixed oracle kind (`GetNextOracle`, `BytesOracle`) with
    /// [`RegisterError::OracleKind`]: they need post-hoc totals and
    /// cannot serve live progress.
    pub(crate) fn new(
        policy: Policy,
        config: MonitorConfig,
        harvester: Option<(Arc<dyn HarvestSink>, HarvestConfig)>,
        shard: Option<usize>,
    ) -> Result<ProgressMonitor, RegisterError> {
        if let Policy::Fixed(kind) = policy {
            if !prosel_estimators::ONLINE_KINDS.contains(&kind) {
                return Err(RegisterError::OracleKind(kind));
            }
        }
        let counters = ShardCounters::from_config(&config, shard);
        Ok(ProgressMonitor {
            policy,
            config,
            queries: BTreeMap::new(),
            epoch: 0,
            harvester,
            counters,
            plans: PlanCache::default(),
            dynamic_feats: Vec::with_capacity(STATIC_LEN + DYNAMIC_LEN),
            obs_tick: 0,
        })
    }

    /// Install `selector` for **future registrations** and bump the
    /// selector epoch (returned). In-flight queries keep the selector
    /// captured at their registration — a swap mid-query never changes
    /// answers already being served (bit-equality pinned by
    /// `tests/online_learning.rs`) — while every later
    /// [`Self::register`] scores with the new model. Swapping onto a
    /// fixed-policy monitor upgrades it to selector mode (existing
    /// fixed-policy queries keep their fixed estimator). The shard's
    /// compiled plans were scored under the old policy and are dropped.
    pub fn swap_selector(&mut self, selector: Arc<EstimatorSelector>) -> u64 {
        self.policy = Policy::Selector(selector);
        self.plans.clear();
        self.epoch += 1;
        self.epoch
    }

    /// Register a query **before it runs**. Everything derivable without
    /// execution happens here: pipeline decomposition, eq. (5) weights,
    /// static features and the initial estimator choice — once per plan
    /// per shard: queries registered against the same `Arc<PhysicalPlan>`
    /// share that record until the next [`Self::swap_selector`].
    ///
    /// Registration must precede the query's first snapshot: once the
    /// engine has emitted (and possibly thinned) snapshots this monitor
    /// never saw, its bounded-buffer mirror is unreconstructable, so a
    /// query whose stream is joined mid-way is dropped again on its first
    /// ingested snapshot (progress queries then return `None`) rather
    /// than served from silently corrupted state.
    ///
    /// # Panics
    /// Panics if `query` is already registered. Use [`Self::try_register`]
    /// to handle the duplicate as a value.
    pub fn register(&mut self, query: usize, plan: impl Into<Arc<PhysicalPlan>>) {
        self.try_register(query, plan).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Non-panicking [`Self::register`]: refuses duplicate query ids with
    /// [`RegisterError::DuplicateQuery`] and a full shard with
    /// [`RegisterError::Saturated`] instead of aborting.
    ///
    /// Accepts `&PhysicalPlan`, an owned plan, or `Arc<PhysicalPlan>` —
    /// the `Arc` form avoids a deep clone when the caller (e.g. the
    /// sharded service) already holds a shared plan, and lets every
    /// registration of that `Arc` share one compiled admission record;
    /// the other forms make a fresh `Arc`, compiled anew each call.
    pub fn try_register(
        &mut self,
        query: usize,
        plan: impl Into<Arc<PhysicalPlan>>,
    ) -> Result<(), RegisterError> {
        self.admit(query, plan.into()).map(drop)
    }

    /// The one admission path: [`Self::try_register`], handing back the
    /// cell the query will be read from (the service files it in the
    /// owning shard's registry).
    pub(crate) fn admit(
        &mut self,
        query: usize,
        plan: Arc<PhysicalPlan>,
    ) -> Result<Arc<QueryCell>, RegisterError> {
        if self.queries.contains_key(&query) {
            self.counters.refused.inc();
            return Err(RegisterError::DuplicateQuery(query));
        }
        let cap = self.config.max_queries;
        if cap > 0 && self.queries.len() >= cap {
            self.counters.refused.inc();
            return Err(RegisterError::Saturated { limit: cap });
        }
        let compiled = self.plans.get_or_compile(&plan, &self.policy);
        let pipes: Vec<PipeState> = compiled
            .pipelines
            .iter()
            .zip(&compiled.initial)
            .map(|(p, &choice)| PipeState {
                obs: IncrementalObs::new(Arc::clone(&plan), p),
                choice,
                settled: false,
                since_select: 0,
            })
            .collect();
        let eta = SpeedTracker::new(self.config.eta_window);
        // No pipeline has an observation yet: the weighted sum is 0.
        let served = Served { progress: 0.0, time: 0.0, finished: false, eta: eta.estimate() };
        let cell = Arc::new(QueryCell::new(self.epoch, &served, served_rows(&pipes, false)));
        let qs = QueryState {
            plan,
            compiled,
            scratch: IngestScratch::new(),
            pipes,
            live: Vec::new(),
            serial_next: 0,
            eta,
            last_wall: 0.0,
            served,
            cell: Arc::clone(&cell),
        };
        self.queries.insert(query, qs);
        self.counters.admitted.inc();
        self.counters.registered.reset(self.queries.len() as u64);
        Ok(cell)
    }

    /// Ingest one trace event. Events for unregistered queries are
    /// silently dropped (the tap may carry queries this monitor does not
    /// track).
    pub fn ingest(&mut self, ev: TraceEvent) {
        self.ingest_outcome(ev);
    }

    /// Drain every event currently queued on `rx` (non-blocking). Returns
    /// the number of events ingested.
    pub fn drain(&mut self, rx: &Receiver<TraceEvent>) -> usize {
        let mut n = 0;
        while let Ok(ev) = rx.try_recv() {
            self.ingest(ev);
            n += 1;
        }
        n
    }

    /// Answer a per-query read from the query's cell; `None` for
    /// unregistered queries.
    fn read<R>(&self, query: usize, f: impl FnOnce(&QueryCell) -> R) -> Option<R> {
        self.queries.get(&query).map(|qs| f(&qs.cell))
    }

    /// Estimated progress of `query` in [0, 1]: the eq. (5)-weighted sum
    /// of the per-pipeline estimates under each pipeline's current
    /// estimator, pinned to exactly 1.0 once the engine reported
    /// termination. `None` for unregistered queries.
    pub fn query_progress(&self, query: usize) -> Option<f64> {
        self.read(query, QueryCell::progress)
    }

    /// Wall-clock remaining-time answer for `query` — point + interval ETA
    /// from the trailing speed window (see [`crate::eta`] for semantics),
    /// **with staleness folded in**: the countdowns are aged by the
    /// configured [`MonitorConfig::clock`]'s reading past [`Eta::as_of`]
    /// and floored at 0 ([`Eta::aged`]). Without aging, a stalled query's
    /// point ETA would freeze at the last accepted speed sample forever —
    /// [`SpeedTracker::offer`] correctly rejects non-advancing samples —
    /// which is exactly the wrong answer to "how much longer?". The
    /// event-stream-pure raw answer stays available as
    /// [`Self::remaining_time_at_last_event`].
    ///
    /// `None` for unregistered queries; an [`Eta`] with
    /// [`Eta::is_known`]` == false` while fewer than two speed samples
    /// exist; the all-zero [`Eta`] once the engine reported termination.
    /// The aging is exactly meaningful when the monitor's clock shares the
    /// epoch of the clock stamping the trace events (the
    /// [`MonitorConfig::clock`] contract); the clamp at 0 keeps a
    /// mismatched clock from ever serving a negative countdown.
    pub fn remaining_time(&self, query: usize) -> Option<Eta> {
        self.read(query, |cell| cell.remaining_time(&*self.config.clock))
    }

    /// [`Self::remaining_time`] without the staleness fold: the answer as
    /// of the latest accepted event, a pure function of the ingested
    /// stream (bit-deterministic under a manual clock).
    pub fn remaining_time_at_last_event(&self, query: usize) -> Option<Eta> {
        self.read(query, QueryCell::eta)
    }

    /// Bounded-staleness progress: the progress fraction this query is
    /// predicted to have reached at wall instant `deadline` (same clock
    /// epoch as the trace events), extrapolating the latest sample forward
    /// at the trailing-window speed, clamped to [0, 1]
    /// ([`Eta::progress_at`]). `None` for unregistered queries; exactly
    /// 1.0 once finished.
    pub fn progress_at_deadline(&self, query: usize, deadline: f64) -> Option<f64> {
        self.read(query, |cell| cell.progress_at_deadline(deadline))
    }

    /// Latest progress estimate of one pipeline (1.0 once the query
    /// finished, 0.0 before the pipeline's first observation).
    pub fn pipeline_progress(&self, query: usize, pipeline: usize) -> Option<f64> {
        self.read(query, |cell| cell.pipeline_progress(pipeline))?
    }

    /// Full live status of one query.
    pub fn status(&self, query: usize) -> Option<QueryStatus> {
        self.read(query, |cell| cell.status(query))
    }

    /// The estimator-switch history of a query (owned copy; empty under a
    /// fixed policy or when re-selection never changed its mind).
    pub fn switch_history(&self, query: usize) -> Option<Vec<SwitchEvent>> {
        self.read(query, QueryCell::switch_history)
    }

    /// Has the engine reported this query's termination?
    pub fn is_finished(&self, query: usize) -> Option<bool> {
        self.read(query, QueryCell::is_finished)
    }

    /// The selector epoch `query` was registered under (`None` for
    /// unregistered queries).
    pub fn query_selector_epoch(&self, query: usize) -> Option<u64> {
        self.read(query, QueryCell::epoch)
    }

    /// The incremental observation state of one pipeline — curves,
    /// windows, driver fractions (read access for analysis and tests).
    pub fn observation(&self, query: usize, pipeline: usize) -> Option<&IncrementalObs> {
        self.queries.get(&query)?.pipes.get(pipeline).map(|p| &p.obs)
    }

    /// This monitor's monotone operation counters (plus the current
    /// registration count). Deterministic: a pure function of the
    /// register/ingest/unregister call sequence, so a deterministic driver
    /// observes byte-identical readouts across runs.
    pub fn shard_stats(&self) -> ShardStats {
        ShardStats { registered: self.queries.len(), ..self.counters.load() }
    }

    /// Drop a query's state (e.g. after its result was consumed).
    /// Refuses ids that are not registered with
    /// [`QueryError::QueryUnknown`], so a caller tearing down by id learns
    /// about double-frees instead of silently absorbing them.
    pub fn unregister(&mut self, query: usize) -> Result<(), QueryError> {
        match self.queries.remove(&query) {
            Some(_) => {
                self.counters.registered.reset(self.queries.len() as u64);
                Ok(())
            }
            None => Err(QueryError::QueryUnknown(query)),
        }
    }

    /// The monitor's configuration (the service consults the shared clock
    /// and runtime knobs).
    pub(crate) fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// The monitor's counter handles, cloned — the service's slot keeps a
    /// set so its read path can load stats without the core's lock.
    pub(crate) fn counters(&self) -> ShardCounters {
        self.counters.clone()
    }
}

#[cfg(test)]
mod tests;
