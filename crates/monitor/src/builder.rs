//! The one construction surface for both monitor shapes.
//!
//! [`MonitorBuilder`] is the only way to obtain a [`ProgressMonitor`] or
//! a [`MonitorService`]: pick a policy, chain what you care about (the
//! [`MonitorConfig`] knobs, metrics registry, harvest sink, shard count),
//! and build either shape.
//!
//! ```
//! use prosel_estimators::EstimatorKind;
//! use prosel_monitor::{MonitorBuilder, MonitorConfig};
//!
//! let monitor = MonitorBuilder::fixed(EstimatorKind::Dne)
//!     .config(MonitorConfig { reselect_every: 8, ..MonitorConfig::default() })
//!     .build_monitor()
//!     .expect("DNE is an online kind");
//! let service = MonitorBuilder::fixed(EstimatorKind::Dne)
//!     .config(MonitorConfig { max_queries: 1024, ..MonitorConfig::default() })
//!     .shards(4)
//!     .build_service()
//!     .expect("DNE is an online kind");
//! service.shutdown();
//! # drop(monitor);
//! ```

use crate::config::{HarvestConfig, MonitorConfig};
use crate::error::MonitorError;
use crate::service::MonitorService;
use crate::shard::{HarvestSink, Policy, ProgressMonitor};
use prosel_core::selection::EstimatorSelector;
use prosel_estimators::EstimatorKind;
use std::sync::Arc;

/// Builder over every construction concern of [`ProgressMonitor`] and
/// [`MonitorService`]: policy, config knobs, shard count and harvest
/// sink. See the module docs for the one-glance form.
pub struct MonitorBuilder {
    policy: Policy,
    config: MonitorConfig,
    shards: usize,
    harvester: Option<(Arc<dyn HarvestSink>, HarvestConfig)>,
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
        MonitorBuilder { policy, config: MonitorConfig::default(), shards: 1, harvester: None }
    }

    /// Set every [`MonitorConfig`] knob at once: re-selection cadence, ETA
    /// window, clock, admission cap, worker pool, metrics registry.
    pub fn config(mut self, config: MonitorConfig) -> MonitorBuilder {
        self.config = config;
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

    /// Build the single-threaded, deterministic [`ProgressMonitor`] form.
    pub fn build_monitor(self) -> Result<ProgressMonitor, MonitorError> {
        Ok(ProgressMonitor::new(self.policy, self.config, self.harvester, None)?)
    }

    /// Build the sharded, concurrent [`MonitorService`] form: one core
    /// per shard, each registering its counters as `monitor_shard<i>_*`
    /// in the service's registry.
    pub fn build_service(self) -> Result<MonitorService, MonitorError> {
        // Every service has a scrapeable registry: the configured one, or
        // a private one when the caller supplied none.
        let metrics = self.config.metrics.clone().unwrap_or_default();
        let config = MonitorConfig { metrics: Some(Arc::clone(&metrics)), ..self.config };
        let cores = (0..self.shards)
            .map(|si| {
                ProgressMonitor::new(
                    self.policy.clone(),
                    config.clone(),
                    self.harvester.clone(),
                    Some(si),
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(MonitorService::spawn(cores, metrics))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
