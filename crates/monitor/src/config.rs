//! What a monitor is configured with: [`MonitorConfig`] and the harvest
//! hook's [`HarvestConfig`].

use crate::runtime::RuntimeConfig;
use prosel_engine::clock::{Clock, SystemClock};
use prosel_obs::MetricsRegistry;
use std::sync::Arc;

/// Monitor configuration.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// With a selector attached: re-score the estimator choice of a
    /// pipeline every this many *committed* observations (paper §4.4's
    /// dynamic revision, generalized from the single 20%-marker revisit to
    /// a recurring cadence). 0 disables re-selection after registration.
    pub reselect_every: usize,
    /// Trailing-window size (samples) of the per-query
    /// [`crate::SpeedTracker`] behind [`crate::ProgressMonitor::remaining_time`] /
    /// [`crate::ProgressMonitor::progress_at_deadline`]. Clamped to ≥ 2.
    pub eta_window: usize,
    /// Clock consulted by [`crate::ProgressMonitor::remaining_time`] to
    /// age the event-stream-pure [`crate::Eta::as_of`] answer by its
    /// staleness ([`crate::Eta::aged`]). Must share the epoch of the
    /// clock stamping the ingested trace events
    /// ([`prosel_engine::context::ExecConfig::wall_clock`]) for the age
    /// to be meaningful — inject the same `Arc` in both places. A
    /// [`prosel_engine::clock::ManualClock`] makes the readouts fully
    /// deterministic; the default is a fresh [`SystemClock`].
    pub clock: Arc<dyn Clock>,
    /// Admission cap: the maximum number of concurrently registered
    /// queries this monitor (each shard, in service mode) will accept; 0
    /// (the default) leaves admission unbounded. Registration beyond the
    /// cap is refused with [`crate::RegisterError::Saturated`] — a typed
    /// value, never a panic — so an open-loop traffic spike degrades into
    /// rejected admissions instead of unbounded shard state.
    pub max_queries: usize,
    /// Shard-runtime knobs (worker pool size) — service
    /// mode only; a plain [`crate::ProgressMonitor`] ignores them.
    pub runtime: RuntimeConfig,
    /// Metrics registry the monitor publishes its counters and latency
    /// histograms into (`monitor_*` names standalone, `monitor_shard<i>_*`
    /// per service shard — see the README's metric inventory). `None`
    /// (the default) keeps the same counters out of any scrape: every
    /// readout still works, nothing is scrapeable. Give each
    /// monitor/service its **own** registry — two services sharing one
    /// would silently share (and double-count on) the same handles.
    pub metrics: Option<Arc<MetricsRegistry>>,
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
        }
    }
}

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
