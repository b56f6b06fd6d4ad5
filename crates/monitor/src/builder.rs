//! The one construction surface for both monitor shapes.
//!
//! [`MonitorBuilder`] is the only way to obtain a [`ProgressMonitor`] or
//! a [`MonitorService`]: pick a policy, chain the knobs you care about
//! (config, harvest sink, checkpoint restore, shard count), and build
//! either shape.
//!
//! ```
//! use prosel_estimators::EstimatorKind;
//! use prosel_monitor::MonitorBuilder;
//!
//! let monitor = MonitorBuilder::fixed(EstimatorKind::Dne)
//!     .reselect_every(8)
//!     .build_monitor()
//!     .expect("DNE is an online kind");
//! let service = MonitorBuilder::fixed(EstimatorKind::Dne)
//!     .shards(4)
//!     .max_queries(1024)
//!     .build_service()
//!     .expect("DNE is an online kind");
//! service.shutdown();
//! # drop(monitor);
//! ```

use crate::config::{HarvestConfig, MonitorConfig};
use crate::error::MonitorError;
use crate::runtime::RuntimeConfig;
use crate::service::MonitorService;
use crate::shard::{HarvestSink, Policy, ProgressMonitor};
use crate::state::HarvestState;
use prosel_core::selection::EstimatorSelector;
use prosel_engine::clock::Clock;
use prosel_estimators::EstimatorKind;
use std::sync::Arc;

/// Builder over every construction concern of [`ProgressMonitor`] and
/// [`MonitorService`]: policy, config knobs, shard count, harvest sink,
/// and checkpoint restore. See the module docs for the one-glance form.
pub struct MonitorBuilder {
    policy: Policy,
    config: MonitorConfig,
    shards: usize,
    harvester: Option<(Arc<dyn HarvestSink>, HarvestConfig)>,
    restore: Vec<HarvestState>,
}

impl MonitorBuilder {
    /// Monitor every pipeline with one fixed estimator (no selection).
    /// Oracle kinds are rejected at build time with
    /// [`MonitorError::Register`].
    pub fn fixed(kind: EstimatorKind) -> MonitorBuilder {
        MonitorBuilder::with_policy(Policy::Fixed(kind))
    }

    /// Monitor with a trained selector: static selection at registration,
    /// dynamic re-selection at the configured cadence. Accepts an owned
    /// [`EstimatorSelector`] or an `Arc` shared with a learning loop.
    pub fn with_selector(selector: impl Into<Arc<EstimatorSelector>>) -> MonitorBuilder {
        MonitorBuilder::with_policy(Policy::Selector(selector.into()))
    }

    fn with_policy(policy: Policy) -> MonitorBuilder {
        MonitorBuilder {
            policy,
            config: MonitorConfig::default(),
            shards: 1,
            harvester: None,
            restore: Vec::new(),
        }
    }

    /// Replace the whole [`MonitorConfig`] at once (the per-knob methods
    /// below then refine it).
    pub fn config(mut self, config: MonitorConfig) -> MonitorBuilder {
        self.config = config;
        self
    }

    /// Dynamic re-selection cadence, in observations per pipeline
    /// (0 disables re-selection).
    pub fn reselect_every(mut self, every: usize) -> MonitorBuilder {
        self.config.reselect_every = every;
        self
    }

    /// Speed-window length for the ETA tracker.
    pub fn eta_window(mut self, window: usize) -> MonitorBuilder {
        self.config.eta_window = window;
        self
    }

    /// Wall-clock source (tests inject a manual clock here).
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> MonitorBuilder {
        self.config.clock = clock;
        self
    }

    /// Admission cap per shard (0 = unbounded): registrations past it are
    /// refused with `RegisterError::Saturated`.
    pub fn max_queries(mut self, cap: usize) -> MonitorBuilder {
        self.config.max_queries = cap;
        self
    }

    /// Worker-pool shape for the service form (ignored by
    /// [`Self::build_monitor`]).
    pub fn runtime(mut self, runtime: RuntimeConfig) -> MonitorBuilder {
        self.config.runtime = runtime;
        self
    }

    /// Publish the monitor's counters and latency histograms into
    /// `registry` (scrape it with
    /// [`MonitorService::metrics`](crate::MonitorService::metrics) or
    /// [`prosel_obs::MetricsRegistry::snapshot`]). Give each built
    /// monitor/service its own registry; without this call a service
    /// still creates a private, scrapeable one.
    pub fn metrics(mut self, registry: Arc<prosel_obs::MetricsRegistry>) -> MonitorBuilder {
        self.config.metrics = Some(registry);
        self
    }

    /// Shard-task count for the service form, clamped to ≥ 1 (ignored by
    /// [`Self::build_monitor`]).
    pub fn shards(mut self, n: usize) -> MonitorBuilder {
        self.shards = n.max(1);
        self
    }

    /// Attach a harvest sink: every finished query is mined into labelled
    /// training records and delivered to `sink` — the feed of the
    /// online-learning loop.
    pub fn harvester(
        mut self,
        sink: Arc<dyn HarvestSink>,
        config: HarvestConfig,
    ) -> MonitorBuilder {
        self.harvester = Some((sink, config));
        self
    }

    /// Resume from checkpointed [`HarvestState`]s (selector epoch +
    /// monotone counters), one per shard in shard order —
    /// [`Self::build_monitor`] requires exactly one,
    /// [`Self::build_service`] exactly `shards(n)` many, and both reject
    /// a mismatch with [`MonitorError::Restore`].
    pub fn restore(mut self, states: Vec<HarvestState>) -> MonitorBuilder {
        self.restore = states;
        self
    }

    /// Build the prototype monitor both build paths share.
    fn prototype(&self) -> Result<ProgressMonitor, MonitorError> {
        Ok(ProgressMonitor::new(self.policy.clone(), self.config.clone(), self.harvester.clone())?)
    }

    /// Build the single-threaded, deterministic [`ProgressMonitor`] form.
    pub fn build_monitor(self) -> Result<ProgressMonitor, MonitorError> {
        let mut monitor = self.prototype()?;
        match self.restore.len() {
            0 => {}
            1 => monitor.restore_harvest_state(&self.restore[0]),
            n => {
                return Err(MonitorError::Restore(format!(
                    "{n} checkpointed shard state(s) for a single-shard monitor"
                )))
            }
        }
        Ok(monitor)
    }

    /// Build the sharded, concurrent [`MonitorService`] form.
    pub fn build_service(mut self) -> Result<MonitorService, MonitorError> {
        // The prototype never serves traffic in a service, so construct
        // it without the registry (its counters stay detached — no dead
        // all-zero `monitor_*` series in scrapes) and re-attach for the
        // shard forks, which register under `monitor_shard<i>_*`.
        let metrics = self.config.metrics.take();
        let mut prototype = self.prototype()?;
        if let Some(registry) = metrics {
            prototype.attach_metrics(registry);
        }
        let service = MonitorService::spawn(prototype, self.shards);
        if !self.restore.is_empty() {
            if let Err(e) = service.restore_harvest_states(&self.restore) {
                service.shutdown();
                return Err(e);
            }
        }
        Ok(service)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ShardStats;

    #[test]
    fn fixed_oracle_kinds_are_rejected_at_build_time() {
        let err =
            MonitorBuilder::fixed(EstimatorKind::GetNextOracle).build_monitor().err().unwrap();
        assert!(matches!(err, MonitorError::Register(_)), "{err}");
        let err = MonitorBuilder::fixed(EstimatorKind::BytesOracle)
            .shards(2)
            .build_service()
            .err()
            .unwrap();
        assert!(matches!(err, MonitorError::Register(_)), "{err}");
    }

    #[test]
    fn restore_reseeds_epoch_and_counters() {
        let state = HarvestState {
            epoch: 5,
            stats: ShardStats { queries_finished: 12, harvests: 11, ..ShardStats::default() },
        };
        let monitor =
            MonitorBuilder::fixed(EstimatorKind::Dne).restore(vec![state]).build_monitor().unwrap();
        assert_eq!(monitor.selector_epoch(), 5);
        assert_eq!(monitor.shard_stats().queries_finished, 12);
        assert_eq!(monitor.shard_stats().registered, 0, "no phantom registrations");
    }

    #[test]
    fn restore_count_must_match_the_shard_count() {
        let err = MonitorBuilder::fixed(EstimatorKind::Dne)
            .restore(vec![HarvestState::default(); 2])
            .build_monitor()
            .err()
            .unwrap();
        assert!(matches!(err, MonitorError::Restore(_)), "{err}");

        let err = MonitorBuilder::fixed(EstimatorKind::Dne)
            .shards(3)
            .restore(vec![HarvestState::default(); 2])
            .build_service()
            .err()
            .unwrap();
        assert!(matches!(err, MonitorError::Restore(_)), "{err}");
    }

    #[test]
    fn service_restore_round_trips_through_harvest_states() {
        let states = vec![
            HarvestState { epoch: 3, stats: ShardStats { admitted: 7, ..ShardStats::default() } },
            HarvestState { epoch: 3, stats: ShardStats { admitted: 9, ..ShardStats::default() } },
        ];
        let service = MonitorBuilder::fixed(EstimatorKind::Dne)
            .shards(2)
            .restore(states.clone())
            .build_service()
            .unwrap();
        assert_eq!(service.harvest_states(), states);
        service.shutdown();
    }
}
