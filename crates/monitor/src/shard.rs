//! The single-threaded monitor core: one shard's worth of state.
//!
//! [`ProgressMonitor`] is both the standalone single-threaded monitor
//! (embed it directly when one ingest thread suffices) and the per-shard
//! core of the multi-threaded [`crate::service::MonitorService`], which
//! owns N of them behind worker threads and routes queries by id.
//!
//! Lifecycle per query: [`ProgressMonitor::register`] (plan only, before
//! execution) → [`ProgressMonitor::ingest`] for every
//! [`TraceEvent`] → progress served on demand → the `Finished` event pins
//! the query to exactly 1.0 and finalizes every pipeline's observation
//! state (unlocking oracle curves and exact post-hoc equivalence).
//!
//! Per snapshot, the refinement-bound pass is computed **once per query**
//! as a [`SnapshotCtx`] and shared across all of the query's pipelines
//! ([`IncrementalObs::offer_view`]) — O(plan) per snapshot instead of
//! O(pipelines × plan) — and only where counters moved: the event's
//! changed counters (a delta lists them, a full snapshot is diffed
//! against the scratch it overwrites) are folded through the plan's
//! dependency masks ([`prosel_estimators::soa`]) into the bound positions
//! to refresh and the pipelines whose aggregates to recompute; every
//! other started pipeline re-stamps its previous aggregates in O(1)
//! ([`IncrementalObs::offer_unchanged`]).

use crate::eta::{Eta, SpeedTracker, StaleEta};
use crate::runtime::RuntimeConfig;
use crate::state::HarvestState;
use prosel_core::features::schema::{DYNAMIC_LEN, STATIC_LEN};
use prosel_core::features::{dynamic_features, static_features};
use prosel_core::pipeline_runs::{record_from_online, PipelineRecord};
use prosel_core::selection::EstimatorSelector;
use prosel_engine::clock::{Clock, SystemClock};
use prosel_engine::plan::PhysicalPlan;
use prosel_engine::trace::{
    thin_half, CounterKind, CounterUpdate, DeltaDecoder, Snapshot, TraceEvent,
};
use prosel_engine::{decompose, pipeline_weight, Pipeline};
use prosel_estimators::soa::BoundsKernel;
use prosel_estimators::{EstimatorKind, IncrementalObs, SnapshotCtx};
use prosel_obs::{Counter, Histogram, MetricsRegistry, ObsOptions};
use std::collections::btree_map::{Entry, OccupiedEntry};
use std::collections::BTreeMap;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Instant;

/// Monitor configuration.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// With a selector attached: re-score the estimator choice of a
    /// pipeline every this many *committed* observations (paper §4.4's
    /// dynamic revision, generalized from the single 20%-marker revisit to
    /// a recurring cadence). 0 disables re-selection after registration.
    pub reselect_every: usize,
    /// Trailing-window size (samples) of the per-query
    /// [`SpeedTracker`] behind [`ProgressMonitor::remaining_time`] /
    /// [`ProgressMonitor::progress_at_deadline`]. Clamped to ≥ 2.
    pub eta_window: usize,
    /// Clock consulted by [`ProgressMonitor::remaining_time_with_age`] to
    /// convert the event-stream-pure [`Eta::as_of`] into a staleness age.
    /// Must share the epoch of the clock stamping the ingested trace
    /// events ([`prosel_engine::context::ExecConfig::wall_clock`]) for the
    /// age to be meaningful — inject the same `Arc` in both places. A
    /// [`prosel_engine::clock::ManualClock`] makes the readouts fully
    /// deterministic; the default is a fresh [`SystemClock`].
    pub clock: Arc<dyn Clock>,
    /// Admission cap: the maximum number of concurrently registered
    /// queries this monitor (each shard, in service mode) will accept; 0
    /// (the default) leaves admission unbounded. Registration beyond the
    /// cap is refused with [`RegisterError::Saturated`] — a typed value,
    /// never a panic — so an open-loop traffic spike degrades into
    /// rejected admissions instead of unbounded shard state.
    pub max_queries: usize,
    /// Shard-runtime knobs (worker pool size, core affinity, ingest batch)
    /// — service mode only; a plain [`ProgressMonitor`] ignores them.
    pub runtime: RuntimeConfig,
    /// Metrics registry the monitor publishes its counters and latency
    /// histograms into (`monitor_*` names standalone, `monitor_shard<i>_*`
    /// per service shard — see the README's metric inventory). `None`
    /// (the default) keeps the same counters on detached atomics: every
    /// readout still works, nothing is scrapeable. Give each
    /// monitor/service its **own** registry — two services sharing one
    /// would silently share (and double-count on) the same handles.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// The timing-instrumentation knob (the latency histograms' sampling
    /// stride). Counters are unaffected — they are the stats bookkeeping
    /// itself.
    pub obs: ObsOptions,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            reselect_every: 4,
            eta_window: 32,
            clock: Arc::new(SystemClock::new()),
            max_queries: 0,
            runtime: RuntimeConfig::default(),
            metrics: None,
            obs: ObsOptions::default(),
        }
    }
}

/// Why a registration (or monitor construction) was refused.
///
/// A service fronting thousands of queries must not abort on a duplicate
/// id or a misconfigured estimator — these are recoverable caller errors,
/// surfaced as values via [`ProgressMonitor::try_register`] and the
/// [`crate::MonitorBuilder`] build methods (the panicking `register`
/// routes through the same checks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegisterError {
    /// The query id is already registered on this monitor/shard.
    DuplicateQuery(usize),
    /// The estimator kind needs post-hoc totals and cannot serve live
    /// progress (the oracle kinds).
    OracleKind(EstimatorKind),
    /// The monitor (or the owning shard) is at its configured admission
    /// cap ([`MonitorConfig::max_queries`] concurrently registered
    /// queries): the registration was refused to keep shard state bounded
    /// under open-loop admission pressure. Retry after earlier queries
    /// finish or are unregistered.
    Saturated {
        /// The cap that was hit.
        limit: usize,
    },
    /// The shard worker that owns this query is no longer running
    /// (service mode only).
    ShardDown,
}

impl std::fmt::Display for RegisterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegisterError::DuplicateQuery(q) => write!(f, "query {q} already registered"),
            RegisterError::OracleKind(k) => {
                write!(f, "{k} needs post-hoc totals and cannot serve progress online")
            }
            RegisterError::Saturated { limit } => {
                write!(f, "monitor saturated: admission cap of {limit} registered queries reached")
            }
            RegisterError::ShardDown => write!(f, "owning shard worker is gone"),
        }
    }
}

impl std::error::Error for RegisterError {}

/// Harvesting configuration: how finished queries are mined into
/// training records (the online-learning feedback path).
#[derive(Debug, Clone)]
pub struct HarvestConfig {
    /// Label stamped into the harvested records' `workload` field
    /// (batch collection uses the workload spec's label; a service uses
    /// whatever partitions its traffic — tenant, priority class, …).
    pub label: String,
    /// Pipelines with fewer committed observations are skipped — the
    /// same rule as batch collection's
    /// [`prosel_core::pipeline_runs::CollectConfig::min_observations`].
    pub min_observations: usize,
}

impl Default for HarvestConfig {
    fn default() -> Self {
        HarvestConfig { label: "online".into(), min_observations: 5 }
    }
}

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

/// Monotone operation counters of one monitor (one shard, in service
/// mode) — the observability hook behind the traffic harness's
/// no-drop invariants and harvest/retrain interference measurements
/// (read via [`ProgressMonitor::shard_stats`] /
/// [`crate::service::MonitorService::shard_stats`]).
///
/// Conservation law: every call to [`ProgressMonitor::ingest`] increments
/// exactly one of `events_ingested` (the query was registered when the
/// event arrived — including events that triggered a defensive state
/// drop) or `events_unroutable` (it was not). In service mode a third
/// bucket exists: `events_rejected` counts events a **dead** shard could
/// not ingest (refused at the router, or drained from the shard queue
/// after the shard panicked). A driver that sent `N` events to a drained
/// shard set must observe
/// `Σ events_ingested + Σ events_unroutable + Σ events_rejected == N` —
/// a dead shard degrades the service but never breaks the count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Queries registered right now.
    pub registered: usize,
    /// Registrations accepted since construction.
    pub admitted: u64,
    /// Registrations refused (duplicate id or [`RegisterError::Saturated`]).
    pub refused: u64,
    /// Events ingested into a registered query's state.
    pub events_ingested: u64,
    /// Events that arrived for queries this monitor does not track
    /// (silently dropped, per the [`ProgressMonitor::ingest`] contract).
    pub events_unroutable: u64,
    /// Queries whose state was dropped defensively (corrupt, late-joined
    /// or id-reusing streams) instead of being served.
    pub queries_dropped: u64,
    /// `Finished` events accepted: queries that reached the terminal
    /// pinned-to-1.0 state.
    pub queries_finished: u64,
    /// Harvest envelopes delivered to the attached sink.
    pub harvests: u64,
    /// Events dropped because the owning shard was dead (service mode
    /// only; always 0 on a plain [`ProgressMonitor`]). Counted at the
    /// router when a send is refused, and when a panicking shard's queue
    /// is drained — the third leg of the conservation law above.
    pub events_rejected: u64,
}

impl ShardStats {
    /// Element-wise sum (`registered` included) — fold the per-shard
    /// readouts of a service into one service-wide view.
    pub fn merged(&self, other: &ShardStats) -> ShardStats {
        ShardStats {
            registered: self.registered + other.registered,
            admitted: self.admitted + other.admitted,
            refused: self.refused + other.refused,
            events_ingested: self.events_ingested + other.events_ingested,
            events_unroutable: self.events_unroutable + other.events_unroutable,
            queries_dropped: self.queries_dropped + other.queries_dropped,
            queries_finished: self.queries_finished + other.queries_finished,
            harvests: self.harvests + other.harvests,
            events_rejected: self.events_rejected + other.events_rejected,
        }
    }
}

/// The live atomics behind [`ShardStats`]: one monitor's (one shard's,
/// in service mode) operation counters plus its latency histograms, held
/// as shared [`prosel_obs`] handles. There is exactly **one increment
/// site per event**, here in the shard core — [`ShardStats`] readouts
/// are point-in-time loads of these same atomics (single source of
/// truth), which is what lets the service's read path fold per-shard
/// stats wait-free without touching the shard core's lock, and lets a
/// scrape of the registry see the identical numbers.
#[derive(Debug, Clone)]
pub(crate) struct ShardCounters {
    /// Gauge-like: kept in sync with the live query-map size at every
    /// mutation site (reset, not incremented).
    pub(crate) registered: Arc<Counter>,
    pub(crate) admitted: Arc<Counter>,
    pub(crate) refused: Arc<Counter>,
    pub(crate) events_ingested: Arc<Counter>,
    pub(crate) events_unroutable: Arc<Counter>,
    pub(crate) queries_dropped: Arc<Counter>,
    pub(crate) queries_finished: Arc<Counter>,
    pub(crate) harvests: Arc<Counter>,
    pub(crate) events_rejected: Arc<Counter>,
    /// `TraceEvent::Delta` events whose sparse patch applied cleanly.
    pub(crate) delta_decodes: Arc<Counter>,
    /// Re-selections that came due (a pipeline reached its
    /// `reselect_every` cadence) …
    pub(crate) reselect: Arc<Counter>,
    /// … and those of them answered from the memo: the feature vector was
    /// bit-equal to the one last scored, so the forest was not touched.
    pub(crate) reselect_memo_hits: Arc<Counter>,
    /// Sampled per-event ingest latency (see [`ObsOptions`]).
    pub(crate) ingest_ns: Arc<Histogram>,
    /// Sampled full-snapshot / delta evaluation time (the
    /// `advance_query` tail: bound refresh + per-pipeline offers).
    pub(crate) snapshot_eval_ns: Arc<Histogram>,
    pub(crate) stride: u32,
}

impl ShardCounters {
    /// Handles for one monitor. With a registry in the config the
    /// counters register under `monitor_*` (standalone) or
    /// `monitor_shard<i>_*` (service shard `i`); without one they live on
    /// detached atomics — same behavior, nothing scrapeable.
    pub(crate) fn from_config(config: &MonitorConfig, shard: Option<usize>) -> ShardCounters {
        let stride = config.obs.stride();
        match &config.metrics {
            Some(registry) => {
                let prefix = match shard {
                    Some(i) => format!("monitor_shard{i}_"),
                    None => "monitor_".to_string(),
                };
                let c = |name: &str| registry.counter(&format!("{prefix}{name}"));
                ShardCounters {
                    registered: c("registered"),
                    admitted: c("admitted_total"),
                    refused: c("refused_total"),
                    events_ingested: c("events_ingested_total"),
                    events_unroutable: c("events_unroutable_total"),
                    queries_dropped: c("queries_dropped_total"),
                    queries_finished: c("queries_finished_total"),
                    harvests: c("harvests_total"),
                    events_rejected: c("events_rejected_total"),
                    delta_decodes: c("delta_decodes_total"),
                    reselect: c("reselect_total"),
                    reselect_memo_hits: c("reselect_memo_hits_total"),
                    ingest_ns: registry.histogram(&format!("{prefix}ingest_ns")),
                    snapshot_eval_ns: registry.histogram(&format!("{prefix}snapshot_eval_ns")),
                    stride,
                }
            }
            None => ShardCounters {
                registered: Arc::new(Counter::new()),
                admitted: Arc::new(Counter::new()),
                refused: Arc::new(Counter::new()),
                events_ingested: Arc::new(Counter::new()),
                events_unroutable: Arc::new(Counter::new()),
                queries_dropped: Arc::new(Counter::new()),
                queries_finished: Arc::new(Counter::new()),
                harvests: Arc::new(Counter::new()),
                events_rejected: Arc::new(Counter::new()),
                delta_decodes: Arc::new(Counter::new()),
                reselect: Arc::new(Counter::new()),
                reselect_memo_hits: Arc::new(Counter::new()),
                ingest_ns: Arc::new(Histogram::new()),
                snapshot_eval_ns: Arc::new(Histogram::new()),
                stride,
            },
        }
    }

    /// Point-in-time [`ShardStats`] view over the atomics (`registered`
    /// included — the service reads it without locking the shard core).
    pub(crate) fn load(&self) -> ShardStats {
        ShardStats {
            registered: self.registered.get() as usize,
            admitted: self.admitted.get(),
            refused: self.refused.get(),
            events_ingested: self.events_ingested.get(),
            events_unroutable: self.events_unroutable.get(),
            queries_dropped: self.queries_dropped.get(),
            queries_finished: self.queries_finished.get(),
            harvests: self.harvests.get(),
            events_rejected: self.events_rejected.get(),
        }
    }

    /// Re-seat checkpointed monotone counters (restore path).
    /// `registered` is live state, not a checkpointed value — it stays
    /// synced to the query map.
    pub(crate) fn reset_to(&self, stats: &ShardStats) {
        self.admitted.reset(stats.admitted);
        self.refused.reset(stats.refused);
        self.events_ingested.reset(stats.events_ingested);
        self.events_unroutable.reset(stats.events_unroutable);
        self.queries_dropped.reset(stats.queries_dropped);
        self.queries_finished.reset(stats.queries_finished);
        self.harvests.reset(stats.harvests);
        self.events_rejected.reset(stats.events_rejected);
    }
}

/// One estimator switch, logged when online re-selection changes its mind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchEvent {
    pub pipeline: usize,
    /// Virtual time of the observation that triggered the switch.
    pub time: f64,
    pub from: EstimatorKind,
    pub to: EstimatorKind,
}

/// Progress of one pipeline, as served live.
#[derive(Debug, Clone, Copy)]
pub struct PipelineStatus {
    pub pipeline: usize,
    /// Estimator currently in charge of this pipeline.
    pub estimator: EstimatorKind,
    /// Latest progress estimate in [0, 1]; 0 before the first observation.
    pub progress: f64,
    /// Number of committed observations so far.
    pub observations: usize,
}

/// Progress of one registered query, as served live.
#[derive(Debug, Clone)]
pub struct QueryStatus {
    pub query: usize,
    /// Estimated query progress in [0, 1] (eq. (5) weighting); exactly 1.0
    /// once the engine reported termination.
    pub progress: f64,
    /// Virtual time of the latest event seen for this query.
    pub time: f64,
    pub finished: bool,
    pub pipelines: Vec<PipelineStatus>,
}

/// Which selection policy a monitor serves.
#[derive(Clone)]
pub(crate) enum Policy {
    Fixed(EstimatorKind),
    Selector(Arc<EstimatorSelector>),
}

pub(crate) struct PipeState {
    pub(crate) obs: IncrementalObs,
    pub(crate) choice: EstimatorKind,
    initial: EstimatorKind,
    /// The full feature vector `choice` was last scored on (selector mode
    /// only; empty under a fixed policy): the static prefix, extracted at
    /// registration, and the dynamic suffix of the latest re-selection —
    /// zeros until the first one, the static-selection convention. Scoring
    /// is a pure function of this vector and the query's captured
    /// selector, so a re-selection whose vector is bit-equal to it keeps
    /// `choice` without consulting the forest.
    feats: Vec<f32>,
    since_select: usize,
}

impl PipeState {
    /// A due re-selection: extract the dynamic features into `scratch`
    /// and score — unless they are bit-equal to the ones scored last
    /// time, in which case the same input to the same pure function gives
    /// the choice already held.
    fn rescore(
        &mut self,
        sel: &EstimatorSelector,
        scratch: &mut Vec<f32>,
        counters: &ShardCounters,
    ) -> EstimatorKind {
        counters.reselect.inc();
        scratch.clear();
        dynamic_features::extract_into(&self.obs, scratch);
        let scored = &mut self.feats[STATIC_LEN..];
        if scored.iter().zip(&*scratch).all(|(a, b)| a.to_bits() == b.to_bits()) {
            counters.reselect_memo_hits.inc();
            return self.choice;
        }
        scored.copy_from_slice(scratch);
        sel.select(&self.feats)
    }
}

/// Per-query reusable ingest scratch. One allocation set per query for
/// its whole lifetime: the [`DeltaDecoder`] holds the current counter
/// vectors and windows (full snapshots are copied into it in place,
/// [`TraceEvent::Delta`] events patch it sparsely), the [`SnapshotCtx`]
/// is the refinement-bound scratch refreshed per event, the
/// [`BoundsKernel`] is the bound pass compiled once at registration, and
/// `readers` its per-node pipeline masks
/// ([`BoundsKernel::pipeline_readers`]).
/// Before this existed, every ingested snapshot allocated a fresh
/// `SnapshotCtx` (two `Vec<f64>` plus the topological order) — visible
/// under the 24k-query saturated-ingest bench.
struct IngestScratch {
    decoder: DeltaDecoder,
    ctx: SnapshotCtx,
    kernel: BoundsKernel,
    readers: Vec<u64>,
}

impl IngestScratch {
    fn new(plan: &PhysicalPlan, pipelines: &[Pipeline]) -> IngestScratch {
        let kernel = BoundsKernel::new(plan);
        IngestScratch {
            decoder: DeltaDecoder::new(),
            ctx: SnapshotCtx::empty(),
            readers: kernel.pipeline_readers(pipelines),
            kernel,
        }
    }
}

/// What the counters one event moved can reach: the bound positions to
/// re-evaluate and the pipelines whose aggregates to recompute (one bit
/// each — see the dependency masks of [`prosel_estimators::soa`]).
#[derive(Debug, Clone, Copy, Default)]
struct Dirty {
    positions: u64,
    pipes: u64,
}

impl Dirty {
    /// Fold in one moved counter of `node`.
    fn mark(&mut self, kernel: &BoundsKernel, readers: &[u64], node: usize, counter: CounterKind) {
        match counter {
            CounterKind::GetNext => {
                self.positions |= kernel.dependents(node);
                self.pipes |= readers[node];
            }
            CounterKind::BytesRead | CounterKind::BytesWritten => self.pipes |= readers[node],
            // Read once, when a pipeline's driver totals resolve at its
            // first observation; no started pipeline looks at it again.
            CounterKind::Materialized => {}
        }
    }

    /// Must pipeline `pid` recompute its aggregates? (Pipelines a mask
    /// cannot name always do.)
    fn reaches(&self, pid: usize) -> bool {
        pid >= u64::BITS as usize || self.pipes >> pid & 1 == 1
    }
}

struct QueryState {
    /// The registered plan (shared with every pipeline's observation
    /// state); the per-snapshot [`SnapshotCtx`] is computed against it.
    plan: Arc<PhysicalPlan>,
    /// Reusable counter/bound scratch (see [`IngestScratch`]).
    scratch: IngestScratch,
    weights: Vec<f64>,
    total_weight: f64,
    /// The selector captured at registration — in-flight queries keep
    /// scoring with their registration-time model even when
    /// [`ProgressMonitor::swap_selector`] installs a newer one (`None`
    /// under a fixed policy).
    selector: Option<Arc<EstimatorSelector>>,
    /// Selector epoch at registration (see
    /// [`ProgressMonitor::selector_epoch`]).
    epoch: u64,
    pipes: Vec<PipeState>,
    /// Serials of the engine's currently retained snapshots (mirrors the
    /// bounded trace buffer across thinning events).
    live: Vec<u64>,
    serial_next: u64,
    last_time: f64,
    finished: bool,
    switches: Vec<SwitchEvent>,
    /// Wall-clock speed over the trailing window (ETA serving).
    eta: SpeedTracker,
    /// Wall stamp of the latest stamped event seen for this query.
    last_wall: f64,
    /// The served query-level progress and raw at-last-event ETA, kept
    /// current by every event that can move them (snapshot/delta,
    /// `Thinned`, `Finished`) so that reads and the service's publish
    /// step take them as computed instead of re-deriving them.
    progress: f64,
    served_eta: Eta,
}

/// One query's state, projected for the service's read-snapshot publish
/// (see [`ProgressMonitor::query_view`]).
pub(crate) struct QueryView<'a> {
    pub(crate) progress: f64,
    pub(crate) time: f64,
    pub(crate) finished: bool,
    /// Raw at-last-event ETA ([`ProgressMonitor::remaining_time_at_last_event`]).
    pub(crate) eta: Eta,
    pub(crate) epoch: u64,
    pub(crate) pipes: &'a [PipeState],
    pub(crate) switches: &'a [SwitchEvent],
}

impl<'a> QueryView<'a> {
    fn of(qs: &'a QueryState) -> QueryView<'a> {
        QueryView {
            progress: qs.progress,
            time: qs.last_time,
            finished: qs.finished,
            eta: qs.served_eta,
            epoch: qs.epoch,
            pipes: &qs.pipes,
            switches: &qs.switches,
        }
    }
}

/// What ingesting an event needs of the monitor besides the query map,
/// borrowed field by field: the state the event leaves behind is handed
/// back borrowing the map alone ([`ProgressMonitor::ingest_view`]).
struct IngestEnv<'a> {
    counters: &'a ShardCounters,
    reselect_every: usize,
    harvester: Option<&'a (Arc<dyn HarvestSink>, HarvestConfig)>,
    dynamic_feats: &'a mut Vec<f32>,
    /// Is this event a sampled (timed) one?
    timed: bool,
}

/// Long-lived online progress monitor (single-threaded core / one shard of
/// the [`crate::service::MonitorService`]). See the crate docs for the
/// model.
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
    /// Scratch the dynamic features of a due re-selection are extracted
    /// into before being compared with the pipeline's last-scored vector.
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
    /// Refuses a fixed oracle kind (`GetNextOracle`, `BytesOracle`) with
    /// [`RegisterError::OracleKind`]: they need post-hoc totals and
    /// cannot serve live progress.
    pub(crate) fn new(
        policy: Policy,
        config: MonitorConfig,
        harvester: Option<(Arc<dyn HarvestSink>, HarvestConfig)>,
    ) -> Result<ProgressMonitor, RegisterError> {
        if let Policy::Fixed(kind) = policy {
            if !prosel_estimators::ONLINE_KINDS.contains(&kind) {
                return Err(RegisterError::OracleKind(kind));
            }
        }
        let counters = ShardCounters::from_config(&config, None);
        Ok(ProgressMonitor {
            policy,
            config,
            queries: BTreeMap::new(),
            epoch: 0,
            harvester,
            counters,
            dynamic_feats: Vec::with_capacity(DYNAMIC_LEN),
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
    /// fixed-policy queries keep their fixed estimator).
    pub fn swap_selector(&mut self, selector: Arc<EstimatorSelector>) -> u64 {
        self.policy = Policy::Selector(selector);
        self.epoch += 1;
        self.epoch
    }

    /// The current selector epoch: 0 until the first
    /// [`Self::swap_selector`], incremented by each swap.
    pub fn selector_epoch(&self) -> u64 {
        self.epoch
    }

    /// The selector epoch `query` was registered under (`None` for
    /// unregistered queries).
    pub fn query_selector_epoch(&self, query: usize) -> Option<u64> {
        self.queries.get(&query).map(|qs| qs.epoch)
    }

    /// Register a query **before it runs**. Everything derivable without
    /// execution happens here: pipeline decomposition, eq. (5) weights,
    /// static features and the initial estimator choice.
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
    /// sharded service) already holds a shared plan.
    pub fn try_register(
        &mut self,
        query: usize,
        plan: impl Into<Arc<PhysicalPlan>>,
    ) -> Result<(), RegisterError> {
        let plan: Arc<PhysicalPlan> = plan.into();
        if self.queries.contains_key(&query) {
            self.counters.refused.inc();
            return Err(RegisterError::DuplicateQuery(query));
        }
        let cap = self.config.max_queries;
        if cap > 0 && self.queries.len() >= cap {
            self.counters.refused.inc();
            return Err(RegisterError::Saturated { limit: cap });
        }
        let pipelines: Vec<Pipeline> = decompose(&plan);
        let weights: Vec<f64> = pipelines.iter().map(|p| pipeline_weight(&plan, p)).collect();
        let total_weight: f64 = weights.iter().filter(|&&w| w > 0.0).sum();
        let pipes = pipelines
            .iter()
            .map(|p| {
                let (feats, choice) = match &self.policy {
                    Policy::Fixed(kind) => (Vec::new(), *kind),
                    Policy::Selector(sel) => {
                        // Static selection scores the prefix followed by
                        // zeros; that is the vector to remember.
                        let mut feats = static_features::extract_parts(&plan, &pipelines, p.id);
                        feats.resize(STATIC_LEN + DYNAMIC_LEN, 0.0);
                        let choice = sel.select_static(&feats);
                        (feats, choice)
                    }
                };
                PipeState {
                    obs: IncrementalObs::new(Arc::clone(&plan), p),
                    choice,
                    initial: choice,
                    feats,
                    since_select: 0,
                }
            })
            .collect();
        // Capture the selector behind this registration: re-selection for
        // this query stays on it even across later swaps.
        let selector = match &self.policy {
            Policy::Fixed(_) => None,
            Policy::Selector(sel) => Some(Arc::clone(sel)),
        };
        let scratch = IngestScratch::new(&plan, &pipelines);
        let eta = SpeedTracker::new(self.config.eta_window);
        let mut qs = QueryState {
            plan,
            scratch,
            weights,
            total_weight,
            selector,
            epoch: self.epoch,
            pipes,
            live: Vec::new(),
            serial_next: 0,
            last_time: 0.0,
            finished: false,
            switches: Vec::new(),
            served_eta: eta.estimate(),
            eta,
            last_wall: 0.0,
            progress: 0.0,
        };
        qs.progress = Self::progress_of(&qs);
        self.queries.insert(query, qs);
        self.counters.admitted.inc();
        self.counters.registered.reset(self.queries.len() as u64);
        Ok(())
    }

    /// Ingest one trace event. Events for unregistered queries are
    /// silently dropped (the tap may carry queries this monitor does not
    /// track).
    pub fn ingest(&mut self, ev: TraceEvent) {
        self.ingest_view(ev);
    }

    /// [`Self::ingest`], handing back the state the event left its query
    /// in — what the service publishes, taken from the hands that just
    /// computed it instead of looked up and re-derived. `None` when the
    /// query is not (or, after a defensive drop, no longer) registered.
    pub(crate) fn ingest_view(&mut self, ev: TraceEvent) -> Option<QueryView<'_>> {
        self.obs_tick = self.obs_tick.wrapping_add(1);
        let timed = self.obs_tick.is_multiple_of(self.counters.stride);
        let env = IngestEnv {
            counters: &self.counters,
            reselect_every: self.config.reselect_every,
            harvester: self.harvester.as_ref(),
            dynamic_feats: &mut self.dynamic_feats,
            timed,
        };
        let start = timed.then(Instant::now);
        let qs = Self::ingest_inner(&mut self.queries, env, ev);
        if let Some(start) = start {
            self.counters.ingest_ns.record(start.elapsed().as_nanos() as u64);
        }
        qs.map(QueryView::of)
    }

    fn ingest_inner<'q>(
        queries: &'q mut BTreeMap<usize, QueryState>,
        mut env: IngestEnv<'_>,
        ev: TraceEvent,
    ) -> Option<&'q QueryState> {
        // The map's size before this event: what a defensive drop, which
        // holds the entry and not the map, re-seats the gauge from.
        let registered = queries.len();
        let Entry::Occupied(mut entry) = queries.entry(ev.query()) else {
            env.counters.events_unroutable.inc();
            return None;
        };
        env.counters.events_ingested.inc();
        let qs = entry.get_mut();
        // One contract for every event kind: state that can no longer be
        // trusted is dropped — never served, never a panic (which would
        // kill a whole service shard).
        let trusted = match ev {
            TraceEvent::Snapshot { seq, wall, snapshot, windows, .. } => {
                Self::on_snapshot(qs, &mut env, seq, wall, &snapshot, &windows)
            }
            TraceEvent::Delta { seq, wall, time, changes, window_updates, .. } => {
                Self::on_delta(qs, &mut env, seq, wall, time, &changes, &window_updates)
            }
            // `finished`: a new stream reusing the id (see on_snapshot).
            TraceEvent::Thinned { .. } => {
                !qs.finished && {
                    // Mirror the engine: odd positions survive, interval
                    // doubles (the interval is the engine's business).
                    thin_half(&mut qs.live);
                    for pipe in &mut qs.pipes {
                        pipe.obs.thin(&qs.live);
                    }
                    // Thinning rebuilds the LUO window: a served value moved.
                    qs.progress = Self::progress_of(qs);
                    true
                }
            }
            TraceEvent::Finished { query, wall, windows, total_time } => {
                // Same contract as the snapshot path: a second
                // termination means a new stream is reusing this id
                // against finalized state, and a window-arity mismatch
                // means the engine ran a different plan under it.
                !qs.finished && windows.len() == qs.pipes.len() && {
                    Self::on_finished(qs, &env, query, wall, &windows, total_time);
                    true
                }
            }
        };
        if !trusted {
            Self::drop_entry(entry, registered, env.counters);
            return None;
        }
        Some(entry.into_mut())
    }

    fn on_finished(
        qs: &mut QueryState,
        env: &IngestEnv<'_>,
        query: usize,
        wall: f64,
        windows: &[(f64, f64)],
        total_time: f64,
    ) {
        qs.finished = true;
        qs.last_time = total_time;
        qs.last_wall = qs.last_wall.max(wall);
        qs.progress = 1.0;
        qs.served_eta = Eta::finished(qs.last_wall);
        env.counters.queries_finished.inc();
        for pipe in &mut qs.pipes {
            let pid = pipe.obs.pipeline_id();
            pipe.obs.finalize(windows[pid]);
        }
        // Harvest hook: the pipes are finalized, so their committed
        // curves, truth and totals now match what post-hoc replay would
        // compute over this trace.
        if let Some((sink, hcfg)) = env.harvester {
            let records = qs
                .pipes
                .iter()
                .filter_map(|pipe| {
                    record_from_online(
                        &qs.plan,
                        &pipe.obs,
                        &hcfg.label,
                        query,
                        qs.weights[pipe.obs.pipeline_id()],
                        hcfg.min_observations,
                    )
                })
                .collect();
            sink.deliver(HarvestedQuery {
                query,
                selector_epoch: qs.epoch,
                total_time,
                records,
                switches: qs.switches.clone(),
            });
            env.counters.harvests.inc();
        }
    }

    /// Defensive drop of one query's state (corrupt, late-joined or
    /// id-reusing stream): one call site funnel so the drop counter and
    /// the `registered` gauge can never drift from the map, which held
    /// `registered` queries with this one in it.
    fn drop_entry(
        entry: OccupiedEntry<'_, usize, QueryState>,
        registered: usize,
        counters: &ShardCounters,
    ) {
        entry.remove();
        counters.queries_dropped.inc();
        counters.registered.reset(registered as u64 - 1);
    }

    /// Ingest a full snapshot; `false` when the stream can no longer be
    /// trusted.
    fn on_snapshot(
        qs: &mut QueryState,
        env: &mut IngestEnv<'_>,
        seq: u64,
        wall: f64,
        snapshot: &Snapshot,
        windows: &[(f64, f64)],
    ) -> bool {
        let width = qs.plan.len();
        if qs.finished
            || seq != qs.serial_next
            || [&snapshot.k, &snapshot.bytes_read, &snapshot.bytes_written, &snapshot.materialized]
                .iter()
                .any(|column| column.len() != width)
            || windows.len() != qs.pipes.len()
        {
            // `finished` first: a snapshot after termination means a new
            // stream is reusing this query id against finalized state (a
            // seq-0 stream would otherwise pass the header check when the
            // finished run emitted no snapshots, and panic the pipes).
            // The stream was joined mid-way, events were lost, or the
            // engine is executing a different plan under this query id —
            // any one counter column of the wrong width says so, and every
            // later index into it (this snapshot's evaluation, the next
            // delta's patch) relies on the width checked here: state can
            // no longer be trusted, so refuse to serve corrupted estimates
            // rather than panic or misalign.
            return false;
        }
        // Copy the full counter vectors into the per-query scratch (no
        // allocation once the scratch is warm), noting which of them
        // differ from what it held, and run the shared tail.
        let IngestScratch { decoder, kernel, readers, .. } = &mut qs.scratch;
        let mut dirty = Dirty::default();
        decoder.apply_full_diff(snapshot, windows, |node, counter| {
            dirty.mark(kernel, readers, node, counter)
        });
        Self::advance_query(qs, env, wall, dirty);
        true
    }

    /// Ingest a [`TraceEvent::Delta`]: patch the per-query counter
    /// scratch with the changed `(node, counter)` pairs and advance the
    /// pipelines exactly as a full snapshot would. `false` when the
    /// stream can no longer be trusted.
    fn on_delta(
        qs: &mut QueryState,
        env: &mut IngestEnv<'_>,
        seq: u64,
        wall: f64,
        time: f64,
        changes: &[CounterUpdate],
        window_updates: &[(u32, (f64, f64))],
    ) -> bool {
        // Same contract as the snapshot path, plus: a delta is only
        // meaningful against a primed baseline (the engine always emits a
        // full snapshot first), and its node/pipeline indices must land
        // inside that baseline. `apply_delta` refuses (leaving the scratch
        // untouched) on either violation — treat that exactly like a
        // seq gap: the stream can no longer be trusted.
        let ok = !qs.finished
            && seq == qs.serial_next
            && qs.scratch.decoder.apply_delta(time, changes, window_updates);
        if !ok {
            return false;
        }
        env.counters.delta_decodes.inc();
        // The delta names exactly which counters moved.
        let IngestScratch { kernel, readers, .. } = &qs.scratch;
        let mut dirty = Dirty::default();
        for u in changes {
            dirty.mark(kernel, readers, u.node as usize, u.counter);
        }
        Self::advance_query(qs, env, wall, dirty);
        true
    }

    /// The shared per-event tail of [`Self::on_snapshot`] /
    /// [`Self::on_delta`]: the query's counter scratch holds the current
    /// snapshot and `dirty` what its moved counters reach; do the serial
    /// bookkeeping, refresh the shared bound context at the dirty
    /// positions, recompute the aggregates of the dirty pipelines and
    /// re-stamp the others.
    fn advance_query(qs: &mut QueryState, env: &mut IngestEnv<'_>, wall: f64, dirty: Dirty) {
        let eval_start = env.timed.then(Instant::now);
        let serial = qs.serial_next;
        qs.serial_next += 1;
        qs.live.push(serial);
        // Destructure so the pipe loop can borrow the scratch (view +
        // ctx) and the pipes mutably at the same time.
        let QueryState { scratch, pipes, selector, switches, last_time, .. } = qs;
        let IngestScratch { decoder, ctx, kernel, .. } = scratch;
        let view = decoder.view();
        let windows = decoder.windows();
        ctx.refresh_dirty(kernel, view.k, dirty.positions);
        *last_time = view.time;
        for pipe in pipes.iter_mut() {
            let pid = pipe.obs.pipeline_id();
            let committed = if dirty.reaches(pid) {
                pipe.obs.offer_view(serial, view, windows[pid], ctx)
            } else {
                pipe.obs.offer_unchanged(serial, view, windows[pid], ctx)
            };
            if committed == 0 {
                continue;
            }
            // Re-selection scores with the selector captured at this
            // query's registration, not the monitor's current policy: a
            // hot swap must never change an in-flight query's behavior.
            if let Some(sel) = selector {
                pipe.since_select += committed;
                if env.reselect_every > 0
                    && pipe.since_select >= env.reselect_every
                    && !pipe.obs.is_empty()
                {
                    pipe.since_select = 0;
                    let next = pipe.rescore(sel, env.dynamic_feats, env.counters);
                    if next != pipe.choice {
                        switches.push(SwitchEvent {
                            pipeline: pid,
                            time: view.time,
                            from: pipe.choice,
                            to: next,
                        });
                        pipe.choice = next;
                    }
                }
            }
        }
        // One speed sample per snapshot: the wall stamp against the served
        // query-level progress. Regressions and frozen clocks are rejected
        // inside the tracker, so the sample can be offered unconditionally;
        // the served ETA moves only when one is accepted.
        qs.last_wall = qs.last_wall.max(wall);
        qs.progress = Self::progress_of(qs);
        if qs.eta.offer(wall, qs.progress) {
            qs.served_eta = qs.eta.estimate();
        }
        if let Some(start) = eval_start {
            env.counters.snapshot_eval_ns.record(start.elapsed().as_nanos() as u64);
        }
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

    /// Estimated progress of `query` in [0, 1]: the eq. (5)-weighted sum
    /// of the per-pipeline estimates under each pipeline's current
    /// estimator, pinned to exactly 1.0 once the engine reported
    /// termination. `None` for unregistered queries.
    pub fn query_progress(&self, query: usize) -> Option<f64> {
        self.queries.get(&query).map(|qs| qs.progress)
    }

    fn progress_of(qs: &QueryState) -> f64 {
        if qs.finished {
            return 1.0;
        }
        if qs.total_weight <= 0.0 {
            return 0.0;
        }
        let mut acc = 0.0f64;
        for (pipe, &w) in qs.pipes.iter().zip(&qs.weights) {
            if w <= 0.0 {
                continue;
            }
            if let Some(v) = pipe.obs.value(pipe.choice) {
                acc += w * v;
            }
        }
        (acc / qs.total_weight).clamp(0.0, 1.0)
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
        Some(self.remaining_time_at_last_event(query)?.aged(self.config.clock.now()))
    }

    /// [`Self::remaining_time`] without the staleness fold: the answer as
    /// of the latest accepted event, a pure function of the ingested
    /// stream (bit-deterministic under a manual clock — the equivalence
    /// suites pin on this variant).
    pub fn remaining_time_at_last_event(&self, query: usize) -> Option<Eta> {
        self.queries.get(&query).map(|qs| qs.served_eta)
    }

    /// [`Self::remaining_time_at_last_event`] plus its staleness: how many
    /// wall seconds the configured [`MonitorConfig::clock`] has advanced
    /// past the answer's [`Eta::as_of`]. The [`Eta`] inside is the **raw**
    /// variant — a pure function of the ingested event stream
    /// (bit-deterministic under a manual clock); only the `age` reads the
    /// serving clock. [`StaleEta::remaining_now`] folds the two, which is
    /// what [`Self::remaining_time`] serves directly.
    pub fn remaining_time_with_age(&self, query: usize) -> Option<StaleEta> {
        let eta = self.remaining_time_at_last_event(query)?;
        Some(StaleEta::at(eta, self.config.clock.now()))
    }

    /// Bounded-staleness progress: the progress fraction this query is
    /// predicted to have reached at wall instant `deadline` (same clock
    /// epoch as the trace events), extrapolating the latest sample forward
    /// at the trailing-window speed, clamped to [0, 1]. `None` for
    /// unregistered queries; exactly 1.0 once finished.
    pub fn progress_at_deadline(&self, query: usize, deadline: f64) -> Option<f64> {
        let qs = self.queries.get(&query)?;
        if qs.finished {
            return Some(1.0);
        }
        Some(qs.eta.progress_at(deadline))
    }

    /// Latest progress estimate of one pipeline (1.0 once the query
    /// finished, 0.0 before the pipeline's first observation).
    pub fn pipeline_progress(&self, query: usize, pipeline: usize) -> Option<f64> {
        let qs = self.queries.get(&query)?;
        let pipe = qs.pipes.get(pipeline)?;
        if qs.finished {
            return Some(1.0);
        }
        Some(pipe.obs.value(pipe.choice).unwrap_or(0.0))
    }

    /// Full live status of one query.
    pub fn status(&self, query: usize) -> Option<QueryStatus> {
        let qs = self.queries.get(&query)?;
        let pipelines = qs
            .pipes
            .iter()
            .map(|pipe| PipelineStatus {
                pipeline: pipe.obs.pipeline_id(),
                estimator: pipe.choice,
                progress: if qs.finished {
                    1.0
                } else {
                    pipe.obs.value(pipe.choice).unwrap_or(0.0)
                },
                observations: pipe.obs.len(),
            })
            .collect();
        Some(QueryStatus {
            query,
            progress: qs.progress,
            time: qs.last_time,
            finished: qs.finished,
            pipelines,
        })
    }

    /// The estimator-switch history of a query (empty under a fixed
    /// policy or when re-selection never changed its mind).
    pub fn switch_history(&self, query: usize) -> Option<&[SwitchEvent]> {
        self.queries.get(&query).map(|qs| qs.switches.as_slice())
    }

    /// The estimator chosen from static features at registration.
    pub fn initial_choice(&self, query: usize, pipeline: usize) -> Option<EstimatorKind> {
        self.queries.get(&query)?.pipes.get(pipeline).map(|p| p.initial)
    }

    /// The estimator currently in charge of a pipeline.
    pub fn current_choice(&self, query: usize, pipeline: usize) -> Option<EstimatorKind> {
        self.queries.get(&query)?.pipes.get(pipeline).map(|p| p.choice)
    }

    /// The incremental observation state of one pipeline — curves,
    /// windows, driver fractions (read access for analysis and tests).
    pub fn observation(&self, query: usize, pipeline: usize) -> Option<&IncrementalObs> {
        self.queries.get(&query)?.pipes.get(pipeline).map(|p| &p.obs)
    }

    /// Has the engine reported this query's termination?
    pub fn is_finished(&self, query: usize) -> Option<bool> {
        self.queries.get(&query).map(|qs| qs.finished)
    }

    /// Queries currently registered, ascending.
    pub fn registered_queries(&self) -> Vec<usize> {
        self.queries.keys().copied().collect()
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
    /// [`QueryError::QueryUnknown`](crate::QueryError::QueryUnknown), so a
    /// caller tearing down by id learns about double-frees instead of
    /// silently absorbing them.
    pub fn unregister(&mut self, query: usize) -> Result<(), crate::service::QueryError> {
        match self.queries.remove(&query) {
            Some(_) => {
                self.counters.registered.reset(self.queries.len() as u64);
                Ok(())
            }
            None => Err(crate::service::QueryError::QueryUnknown(query)),
        }
    }

    /// Export the harvest-relevant shard state — the selector epoch and
    /// the monotone counters — for checkpointing. See [`HarvestState`].
    pub fn harvest_state(&self) -> HarvestState {
        HarvestState { epoch: self.epoch, stats: self.shard_stats() }
    }

    /// Re-seat a checkpointed [`HarvestState`]: the selector epoch resumes
    /// (future swaps keep increasing monotonically across the restart) and
    /// the monotone counters continue from their checkpointed values. Used
    /// by [`crate::MonitorBuilder::restore`]; only meaningful on a monitor
    /// with no registered queries.
    pub(crate) fn restore_harvest_state(&mut self, state: &HarvestState) {
        self.epoch = state.epoch;
        // `registered` is derived from the live query map on read; only
        // the monotone counters are carried across the restart.
        self.counters.reset_to(&state.stats);
    }

    /// The monitor's configuration (the service consults the shared clock
    /// and runtime knobs).
    pub(crate) fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// Service construction: make sure the config carries a metrics
    /// registry (creating a fresh one when the caller supplied none), so
    /// shard forks, the service instrumentation and the runtime counters
    /// all land somewhere scrapeable. Returns the registry handle.
    pub(crate) fn ensure_metrics(&mut self) -> Arc<MetricsRegistry> {
        if self.config.metrics.is_none() {
            self.config.metrics = Some(Arc::new(MetricsRegistry::new()));
        }
        Arc::clone(self.config.metrics.as_ref().expect("just ensured"))
    }

    /// Service construction: put `registry` in the config **without**
    /// rebuilding this monitor's own counter handles. A service
    /// prototype never serves traffic itself — only its forks do — so
    /// registering its `monitor_*` series would leave a dead, all-zero
    /// copy of every shard series in each scrape. The forks read the
    /// registry out of the config and register `monitor_shard<i>_*`.
    pub(crate) fn attach_metrics(&mut self, registry: Arc<MetricsRegistry>) {
        self.config.metrics = Some(registry);
    }

    /// Everything the service's snapshot-publish path needs about one
    /// query, borrowed in a single lookup: the served progress, the raw
    /// at-last-event [`Eta`], and the per-pipeline observation state. The
    /// service copies these into its seqlocked read snapshot — at
    /// registration from here, after every ingested event from
    /// [`Self::ingest_view`].
    pub(crate) fn query_view(&self, query: usize) -> Option<QueryView<'_>> {
        self.queries.get(&query).map(QueryView::of)
    }

    /// The per-shard policy, cloned — how the service stamps out N shards
    /// sharing one selector instance. The fork's metric handles register
    /// under the shard-indexed `monitor_shard<i>_*` names.
    pub(crate) fn fork(&self, shard: usize) -> ProgressMonitor {
        ProgressMonitor {
            policy: self.policy.clone(),
            config: self.config.clone(),
            queries: BTreeMap::new(),
            epoch: self.epoch,
            harvester: self.harvester.clone(),
            // Counters are per-instance: forks start their own tallies.
            counters: ShardCounters::from_config(&self.config, Some(shard)),
            dynamic_feats: Vec::with_capacity(DYNAMIC_LEN),
            obs_tick: 0,
        }
    }

    /// The fork's counter handles, cloned — the service's slot keeps a
    /// set so its read path can load stats without the core's lock.
    pub(crate) fn counters(&self) -> ShardCounters {
        self.counters.clone()
    }
}

/// Fixtures shared by the shard and service test modules.
#[cfg(test)]
pub(crate) mod test_support {
    use prosel_core::features::FeatureSchema;
    use prosel_core::pipeline_runs::PipelineRecord;
    use prosel_core::selection::{EstimatorSelector, SelectorConfig};
    use prosel_core::training::TrainingSet;
    use prosel_estimators::EstimatorKind;
    use prosel_mart::BoostParams;

    /// Builder over the fixed DNE policy most tests monitor with.
    pub(crate) fn dne() -> crate::MonitorBuilder {
        crate::MonitorBuilder::fixed(EstimatorKind::Dne)
    }

    /// A selector whose constant error models make it always pick `kind`
    /// (features are irrelevant — every record reports `kind` as the
    /// cheapest estimator).
    pub(crate) fn selector_favoring(kind: EstimatorKind) -> EstimatorSelector {
        let dims = FeatureSchema::get().len();
        let idx = kind.candidate_index().expect("candidate");
        let records: Vec<PipelineRecord> = (0..24)
            .map(|i| {
                let mut errors = vec![0.9f32; 8];
                errors[idx] = 0.05;
                PipelineRecord {
                    workload: "syn".into(),
                    query_idx: i,
                    pipeline_id: 0,
                    features: vec![0.0; dims],
                    errors_l1: errors.clone(),
                    errors_l2: errors,
                    total_getnext: 10,
                    weight: 1.0,
                    n_obs: 10,
                    fingerprint: "syn".into(),
                    oracle_l1: [0.0; 2],
                    oracle_l2: [0.0; 2],
                }
            })
            .collect();
        let cfg = SelectorConfig {
            candidates: vec![EstimatorKind::Dne, EstimatorKind::Tgn],
            boost: BoostParams { iterations: 4, ..BoostParams::fast() },
            ..SelectorConfig::default()
        };
        EstimatorSelector::train(&TrainingSet::from_records(&records), &cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::{dne, selector_favoring};
    use super::*;
    use crate::{MonitorBuilder, MonitorError};
    use prosel_core::features::FeatureSchema;
    use prosel_engine::clock::ManualClock;
    use prosel_engine::plan::{OperatorKind, PlanNode};

    fn scan_plan() -> PhysicalPlan {
        PhysicalPlan {
            nodes: vec![PlanNode {
                op: OperatorKind::TableScan { table: "t".into(), cols: vec![0] },
                children: vec![],
                est_rows: 100.0,
                est_row_bytes: 8.0,
                out_cols: 1,
            }],
            root: 0,
        }
    }

    fn snapshot_event(query: usize, seq: u64, time: f64, k: u64) -> TraceEvent {
        TraceEvent::Snapshot {
            query,
            seq,
            // Tests stamp wall == virtual time (one tick per second).
            wall: time,
            snapshot: Snapshot {
                time,
                k: vec![k].into_boxed_slice(),
                bytes_read: vec![k * 8].into_boxed_slice(),
                bytes_written: vec![0].into_boxed_slice(),
                materialized: vec![0].into_boxed_slice(),
            },
            windows: vec![(1.0, time)].into_boxed_slice(),
        }
    }

    fn raw_snapshot(time: f64, k: u64) -> Snapshot {
        Snapshot {
            time,
            k: vec![k].into_boxed_slice(),
            bytes_read: vec![k * 8].into_boxed_slice(),
            bytes_written: vec![0].into_boxed_slice(),
            materialized: vec![0].into_boxed_slice(),
        }
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
                None => TraceEvent::Snapshot {
                    query: 7,
                    seq: seq as u64,
                    wall: time,
                    snapshot,
                    windows,
                },
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
        assert!(monitor.registered_queries().is_empty());
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
        assert_eq!(monitor.registered_queries(), vec![3]);
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
        let stale = monitor.remaining_time_with_age(2).expect("registered");
        assert_eq!(
            stale.eta,
            monitor.remaining_time_at_last_event(2).unwrap(),
            "the StaleEta carries the raw at-last-event answer"
        );
        assert!((stale.age - 3.5).abs() < 1e-12, "age {}", stale.age);
        assert!((stale.remaining_now() - (8.0 - 3.5)).abs() < 1e-9);
        // The default read path folds the same staleness in directly.
        let folded = monitor.remaining_time(2).unwrap();
        assert!((folded.remaining - stale.remaining_now()).abs() < 1e-12);
        assert_eq!(folded.as_of, stale.eta.as_of, "aging keeps the sample provenance");
        // A clock that has burned past the estimate floors at zero — on
        // both the StaleEta fold and the default read path.
        clock.set(100.0);
        assert_eq!(monitor.remaining_time_with_age(2).unwrap().remaining_now(), 0.0);
        assert_eq!(monitor.remaining_time(2).unwrap().remaining, 0.0);
        assert!(
            monitor.remaining_time_at_last_event(2).unwrap().remaining > 0.0,
            "the raw variant stays frozen at the last event by design"
        );
        assert_eq!(monitor.remaining_time_with_age(99), None, "unregistered");
    }

    #[test]
    fn swap_selector_affects_future_registrations_only() {
        let plan = scan_plan();
        let favor_dne = Arc::new(selector_favoring(EstimatorKind::Dne));
        let favor_tgn = Arc::new(selector_favoring(EstimatorKind::Tgn));
        let mut monitor =
            MonitorBuilder::with_selector(Arc::clone(&favor_dne)).build_monitor().unwrap();
        assert_eq!(monitor.selector_epoch(), 0);
        monitor.register(0, &plan);
        assert_eq!(monitor.initial_choice(0, 0), Some(EstimatorKind::Dne));
        // Feed the in-flight query half its stream, then swap.
        monitor.ingest(snapshot_event(0, 0, 1.0, 10));
        assert_eq!(monitor.swap_selector(Arc::clone(&favor_tgn)), 1);
        monitor.register(1, &plan);
        // New registration scores with the new model; the in-flight query
        // keeps its registration-time choice and epoch.
        assert_eq!(monitor.initial_choice(1, 0), Some(EstimatorKind::Tgn));
        assert_eq!(monitor.query_selector_epoch(0), Some(0));
        assert_eq!(monitor.query_selector_epoch(1), Some(1));
        // Re-selection on query 0 keeps using the DNE-favoring selector
        // even after many post-swap observations.
        for seq in 1..9 {
            monitor.ingest(snapshot_event(0, seq, 1.0 + seq as f64, 10 * (seq + 1)));
        }
        assert_eq!(monitor.current_choice(0, 0), Some(EstimatorKind::Dne));
        assert_eq!(monitor.switch_history(0), Some(&[][..]), "no switch forced by the swap");
    }

    /// The re-selection memo is an identity, not an approximation: a
    /// monitor that answers bit-equal feature vectors from the memo and
    /// one forced to re-score every due re-selection must agree on every
    /// choice, switch and served progress bit after every event — across
    /// buffer thinning and a selector hot swap.
    #[test]
    fn memoised_reselection_equals_rescoring_every_time() {
        use prosel_core::pipeline_runs::collect_workload_records;
        use prosel_core::selection::{EstimatorSelector, SelectorConfig};
        use prosel_core::training::TrainingSet;
        use prosel_engine::{run_plan_tapped, Catalog, ExecConfig};
        use prosel_mart::BoostParams;
        use prosel_planner::workload::{materialize, WorkloadKind, WorkloadSpec};
        use prosel_planner::PlanBuilder;

        // Trained on one workload family, serving another: the initial
        // choices get revised.
        let trained_on =
            WorkloadSpec::new(WorkloadKind::TpchLike, 21).with_queries(16).with_scale(0.4);
        let records = collect_workload_records(&trained_on).expect("records");
        let spec = WorkloadSpec::new(WorkloadKind::TpcdsLike, 12).with_queries(10).with_scale(0.4);
        let train = TrainingSet::from_records(&records);
        let cfg = SelectorConfig::default()
            .with_boost(BoostParams { iterations: 40, ..BoostParams::default() });
        let first = Arc::new(EstimatorSelector::train(&train, &cfg));
        let second = Arc::new(EstimatorSelector::retrain_from(&first, &train, 20, 0x5EC0));

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
        let (mut memo, mut rescoring) = (build(), build());
        let (mut thinned, mut switched) = (0usize, 0usize);
        for (qi, q) in w.queries.iter().enumerate() {
            let plan = Arc::new(builder.build(q).expect("plan"));
            memo.register(qi, Arc::clone(&plan));
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
                    assert_eq!(memo.swap_selector(Arc::clone(&second)), 1);
                    assert_eq!(rescoring.swap_selector(Arc::clone(&second)), 1);
                }
                thinned += matches!(ev, TraceEvent::Thinned { .. }) as usize;
                // No finite feature is bit-equal to NaN: the memo of the
                // rescoring monitor never hits.
                for pipe in &mut rescoring.queries.get_mut(&qi).expect("registered").pipes {
                    pipe.feats[STATIC_LEN..].fill(f32::NAN);
                }
                memo.ingest(ev.clone());
                rescoring.ingest(ev);
                for pid in 0..plan.len() {
                    assert_eq!(memo.current_choice(qi, pid), rescoring.current_choice(qi, pid));
                }
                assert_eq!(memo.switch_history(qi), rescoring.switch_history(qi));
                assert_eq!(
                    memo.query_progress(qi).map(f64::to_bits),
                    rescoring.query_progress(qi).map(f64::to_bits)
                );
            }
            assert_eq!(memo.is_finished(qi), Some(true));
            switched += memo.switch_history(qi).expect("registered").len();
        }
        assert!(thinned > 0 && switched > 0, "{thinned} thinnings, {switched} switches");
        assert_eq!(memo.selector_epoch(), 1, "the swap happened");
        let (due, hits) = (&memo.counters.reselect, &memo.counters.reselect_memo_hits);
        assert_eq!(due.get(), rescoring.counters.reselect.get());
        assert!(hits.get() > 0 && hits.get() < due.get(), "{} of {}", hits.get(), due.get());
        assert_eq!(rescoring.counters.reselect_memo_hits.get(), 0);
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
        assert_eq!((h.query, h.selector_epoch), (7, 0));
        assert_eq!(h.total_time, 40.0);
        assert!(h.switches.is_empty());
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
        // Forks start fresh tallies (service shards own their counters).
        assert_eq!(monitor.fork(0).shard_stats(), ShardStats::default());
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
}
