//! One monitor's operation counters: the [`ShardStats`] readout and the
//! shared atomics behind it.

use crate::config::MonitorConfig;
use prosel_obs::{Counter, Histogram};
use std::sync::Arc;

/// Monotone operation counters of one monitor (one shard, in service
/// mode) — the observability hook behind the traffic soak's no-drop
/// invariants
/// (read via [`crate::ProgressMonitor::shard_stats`] /
/// [`crate::MonitorService::shard_stats`]).
///
/// Conservation law: every call to [`crate::ProgressMonitor::ingest`] increments
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
    /// Registrations refused (duplicate id or [`crate::RegisterError::Saturated`]).
    pub refused: u64,
    /// Events ingested into a registered query's state.
    pub events_ingested: u64,
    /// Events that arrived for queries this monitor does not track
    /// (silently dropped, per the [`crate::ProgressMonitor::ingest`] contract).
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
    /// only; always 0 on a plain [`crate::ProgressMonitor`]). Counted at the
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
    /// … and those of them skipped because the pipeline was settled: its
    /// features were final, so the choice held was kept unscored.
    pub(crate) reselect_memo_hits: Arc<Counter>,
    /// Sampled per-event ingest latency (see [`prosel_obs::SAMPLE_EVERY`]).
    pub(crate) ingest_ns: Arc<Histogram>,
    /// Sampled full-snapshot / delta evaluation time (the
    /// `advance_query` tail: bound refresh + per-pipeline offers).
    pub(crate) snapshot_eval_ns: Arc<Histogram>,
}

impl ShardCounters {
    /// Handles for one monitor. With a registry in the config the
    /// counters register under `monitor_*` (standalone) or
    /// `monitor_shard<i>_*` (service shard `i`); without one they register
    /// in a private registry dropped on return — same handles, nothing
    /// scrapeable.
    pub(crate) fn from_config(config: &MonitorConfig, shard: Option<usize>) -> ShardCounters {
        let registry = config.metrics.clone().unwrap_or_default();
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
        }
    }

    /// [`ShardStats`] view over the atomics, each loaded on its own — not
    /// a point-in-time snapshot (`registered` included — the service reads
    /// it without locking the shard core).
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
}
