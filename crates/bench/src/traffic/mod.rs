//! Open-loop skewed-traffic harness: millions of queries as a
//! first-class scenario.
//!
//! Everything else in this crate evaluates estimators *post-hoc*; this
//! module evaluates the serving stack — [`prosel_monitor::MonitorService`]
//! plus the online-learning loop — under the load shape it would face in
//! production: an **open-loop** arrival process (arrivals never slow down
//! for the service; queueing is visible, not hidden), Zipf-skewed over a
//! few hot plan templates drawn from the paper's six workloads, with
//! progress/ETA reads and selector hot-swaps issued while events stream.
//!
//! The pieces:
//!
//! * [`config`] — [`TrafficSpec`], the single reviewable description of a
//!   scenario (TOML-subset files under `crates/bench/specs/`);
//! * [`arrivals`] — [`schedule`], the pure spec → arrival-list expansion
//!   (Poisson or bursty instants, mix and template draws);
//! * [`driver`] — [`TemplateSet::build`] captures real engine event
//!   streams once, [`drive`] replays them against a live service in
//!   virtual time ([`prosel_engine::clock::ManualClock`] pacing);
//! * [`metrics`] — deterministic counters vs. wall-clock latency
//!   reservoirs.
//!
//! The determinism contract, relied on by `tests/traffic_soak.rs`: for a
//! fixed spec (without [`DriveOptions::retrain`]), two runs produce
//! byte-identical schedules, identical read-value digests and identical
//! [`TrafficOutcome::invariant_report`]s. Only the measured latencies
//! differ run to run.

pub mod arrivals;
pub mod config;
pub mod driver;
pub mod metrics;

pub use arrivals::{digest64, schedule, schedule_text, Arrival};
pub use config::{ArrivalProcess, TrafficSpec, MIX_LABELS};
pub use driver::{
    drive, drive_with, synthetic_selector, DriveOptions, TemplateSet, TrafficOutcome,
};
pub use metrics::{LatencyStats, TrafficCounters, TrafficMetrics};
