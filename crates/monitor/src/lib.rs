//! # prosel-monitor
//!
//! The **online** progress monitor: the paper's §4.3 architecture as a
//! long-lived service over *running* queries, closing the loop that the
//! rest of the workspace treats post-hoc.
//!
//! König et al. frame progress estimation as an online quantity — counters
//! stream in, estimates are revised as dynamic features become observable —
//! and Shepperd & MacDonell's critique of estimation studies applies
//! directly: an estimator is only validated under the information regime
//! it will face in production, i.e. prefix-only observations. This crate
//! provides exactly that regime:
//!
//! * [`ProgressMonitor`] registers queries *before* they run (static
//!   features, eq. (5) pipeline weights and the initial estimator choice
//!   all come from the plan alone, so each shard derives them once per
//!   plan `Arc` and shares them across that plan's queries), ingests
//!   [`prosel_engine::trace::TraceEvent`]s one at a time, and serves
//!   per-query / per-pipeline progress on demand in O(1);
//! * per pipeline it maintains a
//!   [`prosel_estimators::incremental::IncrementalObs`] — the state
//!   post-hoc evaluation ([`prosel_estimators::PipelineObs`]) obtains by
//!   replaying the finished run through the same code — and the
//!   refinement-bound pass is computed **once per query per snapshot**
//!   ([`prosel_estimators::SnapshotCtx`]) and shared across pipelines;
//! * with a trained selector attached, the choice made from static
//!   features at registration (paper §4.3's "static selection") is
//!   re-scored at a configurable observation cadence as dynamic features
//!   accumulate (§4.4), and every estimator switch is logged.
//!
//! Two deployment shapes, one read model:
//!
//! * [`ProgressMonitor`] ([`shard`]) — the single-threaded core. Embed it
//!   when one ingest thread suffices (one receiver draining a channel).
//!   Every accepted event goes through one ingest funnel whose last step
//!   stores what the query now serves into the query's cell ([`cell`],
//!   one mutex per query), and every per-query read (`query_progress`,
//!   `remaining_time`, `status`, …) is answered from a copy out of that
//!   cell.
//! * [`MonitorService`] ([`service`]) — N such cores as cooperatively
//!   scheduled tasks on a small worker pool with one run queue
//!   ([`runtime`]; sized via [`RuntimeConfig`]). Its
//!   [`MonitorService::tap`] routes each engine event to the shard owning
//!   `query % n_shards` (one push body, no broadcast), which drains its
//!   queue in batches into the core. Reads are the *same* cell methods
//!   behind a per-shard registry lookup. They never take the core or
//!   queue lock and never enqueue behind ingest; a read can wait behind
//!   one writer's copy of about a hundred bytes into the cell. So read
//!   tail latency stays flat under saturated ingest, and
//!   service-vs-monitor agreement holds by construction.
//!
//! Feed either from [`prosel_engine::run_plan_tapped`] or
//! [`prosel_engine::run_concurrent_tapped`]:
//!
//! Both shapes are constructed through one surface, [`MonitorBuilder`]
//! ([`builder`]) — policy, config knobs, shard count and harvest sink in
//! a single chain:
//!
//! ```no_run
//! use prosel_engine::{run_plan_tapped, Catalog, ExecConfig};
//! use prosel_monitor::MonitorBuilder;
//! use prosel_estimators::EstimatorKind;
//! # fn demo(catalog: &Catalog<'_>, plan: &prosel_engine::PhysicalPlan) {
//! let (tap, rx) = std::sync::mpsc::channel();
//! let mut monitor = MonitorBuilder::fixed(EstimatorKind::Dne).build_monitor().unwrap();
//! monitor.register(0, plan);
//! let run = run_plan_tapped(catalog, plan, &ExecConfig::default(), 0, tap);
//! monitor.drain(&rx);
//! assert_eq!(monitor.query_progress(0), Some(1.0));
//! # let _ = run;
//! # }
//! ```
//!
//! The sharded service is the same chain with a shard count:
//!
//! ```no_run
//! use prosel_engine::{run_plan_tapped, Catalog, ExecConfig};
//! use prosel_monitor::MonitorBuilder;
//! use prosel_estimators::EstimatorKind;
//! # fn demo(catalog: &Catalog<'_>, plan: &prosel_engine::PhysicalPlan) {
//! let service = MonitorBuilder::fixed(EstimatorKind::Dne).shards(4).build_service().unwrap();
//! service.register(0, plan);
//! let run = run_plan_tapped(catalog, plan, &ExecConfig::default(), 0, service.tap());
//! assert_eq!(service.query_progress(0), Ok(1.0));
//! # let _ = run;
//! # }
//! ```
//!
//! Both shapes additionally answer the DBA's actual question — *"how much
//! longer?"* — via [`ProgressMonitor::remaining_time`] /
//! [`MonitorService::remaining_time`]: tap events carry wall-clock stamps
//! (from the injectable [`prosel_engine::clock::Clock`]), a per-query
//! [`SpeedTracker`] measures progress-per-second over a trailing window,
//! and the served [`Eta`] carries a point estimate plus an
//! optimistic/conservative interval; [`ProgressMonitor::progress_at_deadline`]
//! answers the dual bounded-staleness question, and the served ETA is
//! aged against the serving clock ([`MonitorConfig::clock`]) so a stalled
//! query's countdown keeps shrinking. See [`eta`] for semantics.
//!
//! Finally, both shapes plug into the **online-learning loop** (the
//! `prosel-learn` crate): a [`HarvestSink`] attached via
//! [`MonitorBuilder::harvester`] receives every finished query as a
//! [`HarvestedQuery`] — labelled training records mined from the
//! finalized incremental state (bit-identical to post-hoc extraction
//! over the same trace) — and retrained selectors hot-swap back in via
//! [`ProgressMonitor::swap_selector`] / [`MonitorService::swap_selector`]:
//! new registrations score with the new model (epoch bumped), in-flight
//! queries keep the selector captured at their registration.
//!
//! [`MonitorError`] ([`error`]) is the `?`-friendly umbrella over every
//! typed failure the crate produces.
//!
//! Every layer is instrumented through [`prosel_obs`]: the shard cores
//! keep their operation counters and sampled ingest/eval latency
//! histograms as registry metrics ([`ShardStats`] is a view over the
//! same atomics), the service adds read/registration/swap latency, tap
//! volume and a control-plane [`prosel_obs::TraceRing`], and the runtime
//! counts parks and run-queue depth. Pass a
//! registry via [`MonitorConfig::metrics`] /
//! [`MonitorBuilder::metrics`], scrape with
//! [`MonitorService::metrics`] and render the strict text exposition
//! with [`MetricsSnapshot::render_text`].

#![forbid(unsafe_code)]

pub mod builder;
pub mod cell;
pub mod config;
pub mod error;
pub mod eta;
pub mod runtime;
pub mod service;
pub mod shard;
pub mod stats;

pub use builder::MonitorBuilder;
pub use cell::{PipelineStatus, QueryStatus, SwitchEvent};
pub use config::{HarvestConfig, MonitorConfig};
pub use error::{MonitorError, QueryError, RegisterError, SwapError};
pub use eta::{Eta, SpeedTracker};
pub use runtime::RuntimeConfig;
pub use service::MonitorService;
pub use shard::{HarvestSink, HarvestedQuery, ProgressMonitor};
pub use stats::ShardStats;

// Observability surface, re-exported so embedders need no direct
// `prosel-obs` dependency for the common wiring.
pub use prosel_obs::{MetricsRegistry, MetricsSnapshot, ObsEvent, TraceRing};

#[cfg(test)]
mod test_support;
