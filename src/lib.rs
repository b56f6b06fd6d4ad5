//! # prosel — robust SQL progress estimation via statistical estimator selection
//!
//! A from-scratch Rust reproduction of König, Ding, Chaudhuri & Narasayya,
//! *"A Statistical Approach Towards Robust Progress Estimation"* (VLDB 2011).
//!
//! No single SQL progress estimator is robust across the variety of queries,
//! plans and data distributions seen in practice. This library implements
//! the paper's remedy: per-pipeline *estimator selection* driven by MART
//! (gradient-boosted regression tree) models that predict each candidate
//! estimator's error from cheap static plan features and dynamic runtime
//! features, then pick the estimator with the smallest predicted error.
//!
//! This facade crate re-exports the entire workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`datagen`] | `prosel-datagen` | synthetic skewed TPC-H/TPC-DS-shaped and "real-world" databases |
//! | [`engine`] | `prosel-engine` | Volcano-model execution simulator, GetNext counters, virtual clock, pipelines, observation traces |
//! | [`planner`] | `prosel-planner` | histogram statistics, cardinality estimation, physical plan construction, workload generators |
//! | [`estimators`] | `prosel-estimators` | DNE, TGN, LUO, PMAX, SAFE, BATCHDNE, DNESEEK, TGNINT + oracle models |
//! | [`mart`] | `prosel-mart` | stochastic gradient-boosted regression trees |
//! | [`core`] | `prosel-core` | feature extraction, estimator-selection models |
//! | [`monitor`] | `prosel-monitor` | **online** monitor: live traces in, incremental estimation + dynamic re-selection out, wall-clock ETA (`remaining_time` / `progress_at_deadline`) |
//! | [`learn`] | `prosel-learn` | **online learning**: harvested-run training buffer, background retraining, versioned selector hot-swap |
//! | [`obs`] | `prosel-obs` | **observability**: wait-free metrics registry, typed trace ring, checksummed text exposition — scraped live off the monitor/learn stack |
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`; in short:
//!
//! ```no_run
//! use prosel::core::pipeline_runs::collect_workload_records;
//! use prosel::core::selection::{EstimatorSelector, SelectorConfig};
//! use prosel::core::training::TrainingSet;
//! use prosel::planner::workload::{self, WorkloadKind};
//!
//! // 1. Build a database + workload, execute it, and gather per-pipeline
//! //    training records (features + per-estimator errors).
//! let spec = workload::WorkloadSpec::new(WorkloadKind::TpchLike, 0x5eed).with_queries(50);
//! let records = collect_workload_records(&spec).expect("workload runs");
//!
//! // 2. Train the selector.
//! let train = TrainingSet::from_records(&records);
//! let selector = EstimatorSelector::train(&train, &SelectorConfig::default());
//!
//! // 3. Use it: pick the best estimator for a new pipeline's features.
//! let choice = selector.select(&records[0].features);
//! println!("selected estimator: {choice:?}");
//! ```

#![forbid(unsafe_code)]

pub use prosel_core as core;
pub use prosel_datagen as datagen;
pub use prosel_engine as engine;
pub use prosel_estimators as estimators;
pub use prosel_learn as learn;
pub use prosel_mart as mart;
pub use prosel_monitor as monitor;
pub use prosel_obs as obs;
pub use prosel_planner as planner;
