//! The traffic spec: everything that determines a workload schedule.
//!
//! A [`TrafficSpec`] is the single source of truth for one open-loop run:
//! the arrival process, the per-workload mix over the paper's six
//! workloads, the Zipf skew concentrating traffic on a few plan
//! templates, the service shape (shards, admission) and the driver's
//! read/swap cadences. Two specs that compare equal produce byte-identical
//! schedules ([`crate::traffic::arrivals::schedule`] is a pure function of
//! the spec).

/// How arrival instants are generated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless open-loop traffic: exponential inter-arrival times with
    /// mean `1/rate` (arrivals per virtual second).
    Poisson {
        /// Mean arrival rate λ, queries per virtual second.
        rate: f64,
    },
    /// On/off traffic: `burst` back-to-back arrivals spaced `1/rate`
    /// apart, then a silent gap of `gap` virtual seconds, repeated. Total
    /// arrival count is preserved exactly — bursts only reshape *when*
    /// the same queries arrive.
    Bursty {
        /// In-burst arrival rate, queries per virtual second.
        rate: f64,
        /// Arrivals per burst (clamped to ≥ 1).
        burst: usize,
        /// Silent seconds between bursts.
        gap: f64,
    },
}

/// Labels of the six paper workloads, in the order of
/// [`crate::suite::paper_workloads`] — the mix axis of a [`TrafficSpec`].
pub const MIX_LABELS: [&str; 6] =
    ["tpcds", "tpch-untuned", "tpch-partial", "tpch-tuned", "real1", "real2"];

/// One open-loop traffic scenario, fully determining the schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSpec {
    /// Master seed: arrivals, mix draws, template draws and the driver's
    /// read-target choices all derive from it.
    pub seed: u64,
    /// Total queries to arrive (the schedule length, unless `duration`
    /// trims it).
    pub num_queries: usize,
    /// Driver-side admission window: at most this many queries in flight;
    /// excess arrivals wait in FIFO order (open-loop — arrivals never
    /// slow down).
    pub max_concurrency: usize,
    /// Zipf exponent θ over template ranks: θ = 0 spreads traffic
    /// uniformly, θ ≥ 1 concentrates it on a few hot templates.
    pub zipf_exponent: f64,
    /// The arrival process.
    pub arrivals: ArrivalProcess,
    /// Relative weights over [`MIX_LABELS`]; zero removes a workload from
    /// the mix (its templates are never built).
    pub mix: [f64; 6],
    /// Distinct plan templates captured per workload in the mix.
    pub templates_per_workload: usize,
    /// Data scale of the template workloads (small: templates only shape
    /// the event streams, not a full evaluation).
    pub workload_scale: f64,
    /// Monitor service shards.
    pub n_shards: usize,
    /// Issue one progress/ETA read per this many sent events (0 = no
    /// reads).
    pub read_every: usize,
    /// Hot-swap the selector every this many finished queries (0 = never
    /// swap).
    pub swap_every: usize,
    /// Scrape the service's metrics registry into a
    /// [`prosel_obs::MetricsSnapshot`] every this many finished queries
    /// (0 = only the final post-drain scrape). The scrapes are returned
    /// in [`crate::traffic::TrafficOutcome::obs_scrapes`]; they are
    /// excluded from the deterministic digests because they carry
    /// wall-clock latency histograms.
    pub scrape_every: usize,
    /// Tap delta compression during template capture, forwarded to
    /// [`prosel_engine::ExecConfig::delta_threshold`]: plans at least this
    /// many nodes wide emit sparse [`prosel_engine::trace::TraceEvent::Delta`]
    /// events past the full-snapshot baseline (0 = always emit full
    /// snapshots).
    pub delta_threshold: usize,
    /// Optional virtual-time horizon in seconds: arrivals scheduled past
    /// it are trimmed from the schedule.
    pub duration: Option<f64>,
}

impl Default for TrafficSpec {
    fn default() -> Self {
        TrafficSpec {
            seed: 0x007A_FF1C,
            num_queries: 10_000,
            max_concurrency: 64,
            zipf_exponent: 1.1,
            arrivals: ArrivalProcess::Poisson { rate: 500.0 },
            mix: [1.0; 6],
            templates_per_workload: 4,
            workload_scale: 0.25,
            n_shards: 4,
            read_every: 16,
            swap_every: 512,
            scrape_every: 1024,
            delta_threshold: 0,
            duration: None,
        }
    }
}

impl TrafficSpec {
    /// The CI soak profile — what `tests/traffic_soak.rs` and
    /// `experiments --scale quick traffic-soak` both drive: ≥ 10k queries
    /// over all six workloads, small template scale, a few seconds of
    /// driver wall time, and plans of ≥ 8 nodes tapping deltas after a full
    /// baseline so the soak exercises the delta tap.
    pub fn quick() -> TrafficSpec {
        TrafficSpec { delta_threshold: 8, ..TrafficSpec::default() }
    }

    /// A seconds-scale profile for smoke tests and examples.
    pub fn smoke() -> TrafficSpec {
        TrafficSpec {
            num_queries: 800,
            max_concurrency: 32,
            templates_per_workload: 2,
            swap_every: 128,
            ..TrafficSpec::default()
        }
    }

    /// The stress profile: an order of magnitude more queries, bursty
    /// arrivals.
    pub fn full() -> TrafficSpec {
        TrafficSpec {
            num_queries: 100_000,
            max_concurrency: 256,
            arrivals: ArrivalProcess::Bursty { rate: 5000.0, burst: 128, gap: 0.02 },
            templates_per_workload: 6,
            n_shards: 8,
            ..TrafficSpec::default()
        }
    }

    /// Reject specs that cannot drive anything
    /// ([`crate::traffic::arrivals::schedule`] refuses them).
    pub fn validate(&self) -> Result<(), String> {
        if self.num_queries == 0 {
            return Err("num-queries must be > 0".into());
        }
        if self.max_concurrency == 0 {
            return Err("max-concurrency must be > 0".into());
        }
        if !self.zipf_exponent.is_finite() || self.zipf_exponent < 0.0 {
            return Err("zipf-exponent must be finite and >= 0".into());
        }
        let (rate_ok, shape_ok) = match self.arrivals {
            ArrivalProcess::Poisson { rate } => (rate.is_finite() && rate > 0.0, true),
            ArrivalProcess::Bursty { rate, gap, .. } => {
                (rate.is_finite() && rate > 0.0, gap.is_finite() && gap >= 0.0)
            }
        };
        if !rate_ok {
            return Err("arrival rate must be finite and > 0".into());
        }
        if !shape_ok {
            return Err("burst gap must be finite and >= 0".into());
        }
        if self.mix.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err("mix weights must be finite and >= 0".into());
        }
        if self.mix.iter().sum::<f64>() <= 0.0 {
            return Err("at least one mix weight must be > 0".into());
        }
        if self.templates_per_workload == 0 {
            return Err("templates-per-workload must be > 0".into());
        }
        if !(self.workload_scale.is_finite() && self.workload_scale > 0.0) {
            return Err("workload-scale must be finite and > 0".into());
        }
        if self.n_shards == 0 {
            return Err("shards must be > 0".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_the_profiles_and_rejects_specs_that_cannot_drive() {
        for spec in [TrafficSpec::smoke(), TrafficSpec::quick(), TrafficSpec::full()] {
            assert_eq!(spec.validate(), Ok(()));
        }
        assert!(TrafficSpec::quick().delta_threshold > 0, "the quick soak exercises the delta tap");
        let bad = [
            TrafficSpec { num_queries: 0, ..TrafficSpec::default() },
            TrafficSpec { max_concurrency: 0, ..TrafficSpec::default() },
            TrafficSpec { zipf_exponent: f64::NAN, ..TrafficSpec::default() },
            TrafficSpec {
                arrivals: ArrivalProcess::Poisson { rate: 0.0 },
                ..TrafficSpec::default()
            },
            TrafficSpec { mix: [0.0; 6], ..TrafficSpec::default() },
            TrafficSpec { n_shards: 0, ..TrafficSpec::default() },
        ];
        for spec in bad {
            assert!(spec.validate().is_err(), "{spec:?}");
        }
    }
}
