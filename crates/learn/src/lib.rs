//! # prosel-learn
//!
//! The **online-learning loop**: turn the monitor's finished queries back
//! into training signal, retrain the estimator selector in the
//! background, and hot-swap versioned models into the live service.
//!
//! The paper trains its selector offline, but §4.4 frames the runtime
//! revision points — the logged estimator switches — as exactly the
//! signal a deployed system should learn from; and the estimation
//! literature (Shepperd & MacDonell 2012; "Impacts of Bad ESP" in
//! PAPERS.md) shows that prediction systems drift badly when early models
//! are never revised against observed error. This crate closes that loop
//! over the `prosel-monitor` service:
//!
//! ```text
//!  engine tap ─▶ ProgressMonitor / MonitorService
//!                   │  Finished ⇒ harvest: IncrementalObs ─▶ PipelineRecord
//!                   ▼
//!            HarvestedQuery (labelled records)
//!                   │
//!                   ▼
//!          TrainingBuffer  — bounded, seeded reservoir with per-group
//!                   │        quotas (heavy traffic cannot evict rare
//!                   │        workloads / plan shapes)
//!                   ▼
//!           OnlineLearner  — deterministic retraining core: warm-start
//!                   │        boosting + guarded promotion against a
//!                   │        held-out validation slice
//!                   ▼
//!        publish ─▶ SelectorHub (epoch n+1) ─▶ swap_selector(…) into the
//!                   monitor/service: **new registrations** pick up the
//!                   new model, in-flight queries keep the selector
//!                   captured at their registration
//! ```
//!
//! Determinism: every stage is a pure function of the harvested-record
//! sequence and the configured seeds — the buffer's reservoir draws, the
//! holdout split, warm-start subsampling and the promotion decision all
//! replay bit-identically. The harvested records themselves are
//! bit-identical to what post-hoc [`prosel_core::pipeline_runs`] extraction
//! would produce over the same traces (pinned by
//! `tests/harvest_equivalence.rs` at the workspace root). [`Trainer`]
//! wraps the deterministic [`OnlineLearner`] core in a background thread
//! for deployments where retraining must not block ingest.
//!
//! ## Fleet operation
//!
//! Three pieces turn the single-process loop into something you can run
//! as a fleet of monitor processes following one trainer:
//!
//! * **Publication protocol** ([`hub`] + [`subscriber`]):
//!   [`SelectorHub::publish_to`] frames `(epoch, checksum, selector)`
//!   onto any byte stream; a [`SelectorSubscriber`] on each follower
//!   decodes and installs frames, rejecting torn, corrupted or stale
//!   (epoch ≤ installed) publications with typed [`SubscribeError`]s — a
//!   follower can never be rolled back or fed a half-written model.
//! * **Checkpoints** ([`checkpoint`]): [`OnlineLearner::checkpoint`] /
//!   [`OnlineLearner::restore`] round-trip the entire learning state —
//!   reservoir records *with their admission stamps and RNG position* —
//!   through a strict checksummed text codec, so a restarted learner
//!   resumes bit-identically (same buffer, same next promoted selector)
//!   without losing rare-group samples.
//! * **Decay** ([`buffer::DecayPolicy`]): a max-age bound (measured in
//!   offered records, so replay stays deterministic) ages stale traffic
//!   out of the buffer — after a workload shift the old distribution
//!   drains instead of anchoring the selector forever. The `drift` bench
//!   experiment scores exactly this against a no-decay twin.
//!
//! ## Observability
//!
//! The whole loop publishes into the [`prosel_obs`] layer when asked:
//! [`OnlineLearner::observe`] binds the `learn_*` gauges/counters and the
//! retrain-latency histogram to a [`prosel_obs::MetricsRegistry`] and
//! routes every retrain decision into a [`prosel_obs::TraceRing`]
//! ([`prosel_obs::ObsEvent::RetrainPromoted`] / `RetrainHeld`);
//! [`SelectorSubscriber::observe`] does the same for the follower side,
//! emitting one [`prosel_obs::ObsEvent::FrameRejected`] — with the typed
//! [`prosel_obs::FrameRejectReason`] — per refused publication frame.
//! The hub itself keeps no metrics: its epoch is the publication count.
//! Share the monitor service's registry and ring
//! ([`prosel_monitor::MonitorService::metrics_registry`] /
//! [`prosel_monitor::MonitorService::trace_ring`]) to scrape serving and
//! learning through one exposition.

#![forbid(unsafe_code)]

pub mod buffer;
pub mod checkpoint;
pub mod hub;
pub mod learner;
pub mod subscriber;
pub mod trainer;

pub use buffer::{BufferConfig, DecayPolicy, TrainingBuffer};
pub use checkpoint::CheckpointError;
pub use hub::SelectorHub;
pub use learner::{LearnConfig, LearnStats, OnlineLearner, RetrainOutcome};
pub use subscriber::{Publication, SelectorSubscriber, SubscribeError};
pub use trainer::Trainer;
