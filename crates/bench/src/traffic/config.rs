//! The traffic spec: everything that determines a workload schedule.
//!
//! A [`TrafficSpec`] is the single source of truth for one open-loop run:
//! the arrival process, the per-workload mix over the paper's six
//! workloads, the Zipf skew concentrating traffic on a few plan
//! templates, the service shape (shards, admission) and the driver's
//! read/swap cadences. Two specs that compare equal produce byte-identical
//! schedules ([`crate::traffic::arrivals::schedule`] is a pure function of
//! the spec).
//!
//! Specs are expressed in a small TOML subset (`key = value` lines plus
//! one optional `[mix]` section) so they can live next to the repo as
//! reviewable files — see `crates/bench/specs/traffic_quick.toml` — and be
//! loaded via [`TrafficSpec::from_toml`]. No external TOML crate is
//! needed for this grammar.

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
    /// The CI soak profile: ≥ 10k queries over all six workloads, small
    /// template scale, a few seconds of driver wall time.
    pub fn quick() -> TrafficSpec {
        TrafficSpec::default()
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

    /// Parse the TOML subset described in the module docs. Unknown keys
    /// are errors (a typo must not silently fall back to a default);
    /// omitted keys keep their [`TrafficSpec::default`] value.
    pub fn from_toml(text: &str) -> Result<TrafficSpec, String> {
        let mut spec = TrafficSpec::default();
        // The arrival process is assembled from up to four scalar keys.
        let mut arrival_kind: Option<String> = None;
        let (mut rate, mut burst, mut gap) = (None::<f64>, None::<usize>, None::<f64>);
        let mut in_mix = false;
        for (lineno, raw) in text.lines().enumerate() {
            let line = match raw.find('#') {
                Some(i) => &raw[..i],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            if let Some(section) = line.strip_prefix('[') {
                let name = section.strip_suffix(']').unwrap_or("").trim();
                match name {
                    "mix" => in_mix = true,
                    other => return Err(format!("line {}: unknown section [{other}]", lineno + 1)),
                }
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected key = value", lineno + 1))?;
            // Accept both kebab-case (the documented spelling) and
            // snake_case keys.
            let key = key.trim().replace('_', "-");
            let value = value.trim().trim_matches('"');
            let err = |what: &str| format!("line {}: {what} (got {value:?})", lineno + 1);
            if in_mix {
                let slot = MIX_LABELS
                    .iter()
                    .position(|&l| l == key)
                    .ok_or_else(|| err("unknown workload in [mix]"))?;
                let w: f64 = value.parse().map_err(|_| err("mix weight must be a number"))?;
                if !w.is_finite() || w < 0.0 {
                    return Err(err("mix weight must be finite and >= 0"));
                }
                spec.mix[slot] = w;
                continue;
            }
            match key.as_str() {
                "seed" => spec.seed = value.parse().map_err(|_| err("seed must be a u64"))?,
                "num-queries" => {
                    spec.num_queries =
                        value.parse().map_err(|_| err("num-queries must be a usize"))?;
                }
                "max-concurrency" => {
                    spec.max_concurrency =
                        value.parse().map_err(|_| err("max-concurrency must be a usize"))?;
                }
                "zipf-exponent" => {
                    spec.zipf_exponent =
                        value.parse().map_err(|_| err("zipf-exponent must be a number"))?;
                }
                "arrival" => arrival_kind = Some(value.to_string()),
                "rate" => rate = Some(value.parse().map_err(|_| err("rate must be a number"))?),
                "burst" => burst = Some(value.parse().map_err(|_| err("burst must be a usize"))?),
                "gap" => gap = Some(value.parse().map_err(|_| err("gap must be a number"))?),
                "templates-per-workload" => {
                    spec.templates_per_workload =
                        value.parse().map_err(|_| err("templates-per-workload must be a usize"))?;
                }
                "workload-scale" => {
                    spec.workload_scale =
                        value.parse().map_err(|_| err("workload-scale must be a number"))?;
                }
                "shards" => {
                    spec.n_shards = value.parse().map_err(|_| err("shards must be a usize"))?;
                }
                "read-every" => {
                    spec.read_every =
                        value.parse().map_err(|_| err("read-every must be a usize"))?;
                }
                "swap-every" => {
                    spec.swap_every =
                        value.parse().map_err(|_| err("swap-every must be a usize"))?;
                }
                "scrape-every" => {
                    spec.scrape_every =
                        value.parse().map_err(|_| err("scrape-every must be a usize"))?;
                }
                "delta-threshold" => {
                    spec.delta_threshold =
                        value.parse().map_err(|_| err("delta-threshold must be a usize"))?;
                }
                "duration" => {
                    spec.duration =
                        Some(value.parse().map_err(|_| err("duration must be a number"))?);
                }
                other => return Err(format!("line {}: unknown key {other:?}", lineno + 1)),
            }
        }
        let default_rate = match TrafficSpec::default().arrivals {
            ArrivalProcess::Poisson { rate } => rate,
            ArrivalProcess::Bursty { rate, .. } => rate,
        };
        spec.arrivals = match arrival_kind.as_deref() {
            None | Some("poisson") => {
                ArrivalProcess::Poisson { rate: rate.unwrap_or(default_rate) }
            }
            Some("bursty") => ArrivalProcess::Bursty {
                rate: rate.unwrap_or(default_rate),
                burst: burst.unwrap_or(64),
                gap: gap.unwrap_or(0.05),
            },
            Some(other) => return Err(format!("unknown arrival process {other:?}")),
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Render this spec in the grammar [`Self::from_toml`] parses
    /// (round-trip: `from_toml(to_toml(s)) == s`).
    pub fn to_toml(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "seed = {}", self.seed);
        let _ = writeln!(out, "num-queries = {}", self.num_queries);
        let _ = writeln!(out, "max-concurrency = {}", self.max_concurrency);
        let _ = writeln!(out, "zipf-exponent = {}", self.zipf_exponent);
        match self.arrivals {
            ArrivalProcess::Poisson { rate } => {
                let _ = writeln!(out, "arrival = \"poisson\"");
                let _ = writeln!(out, "rate = {rate}");
            }
            ArrivalProcess::Bursty { rate, burst, gap } => {
                let _ = writeln!(out, "arrival = \"bursty\"");
                let _ = writeln!(out, "rate = {rate}");
                let _ = writeln!(out, "burst = {burst}");
                let _ = writeln!(out, "gap = {gap}");
            }
        }
        let _ = writeln!(out, "templates-per-workload = {}", self.templates_per_workload);
        let _ = writeln!(out, "workload-scale = {}", self.workload_scale);
        let _ = writeln!(out, "shards = {}", self.n_shards);
        let _ = writeln!(out, "read-every = {}", self.read_every);
        let _ = writeln!(out, "swap-every = {}", self.swap_every);
        let _ = writeln!(out, "scrape-every = {}", self.scrape_every);
        let _ = writeln!(out, "delta-threshold = {}", self.delta_threshold);
        if let Some(d) = self.duration {
            let _ = writeln!(out, "duration = {d}");
        }
        let _ = writeln!(out, "\n[mix]");
        for (label, w) in MIX_LABELS.iter().zip(&self.mix) {
            let _ = writeln!(out, "{label} = {w}");
        }
        out
    }

    /// Reject specs that cannot drive anything.
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
    fn toml_roundtrip_preserves_the_spec() {
        for spec in [TrafficSpec::smoke(), TrafficSpec::quick(), TrafficSpec::full()] {
            let parsed = TrafficSpec::from_toml(&spec.to_toml()).expect("round-trip");
            assert_eq!(parsed, spec);
        }
    }

    #[test]
    fn parses_comments_sections_and_partial_keys() {
        let text = "\
# a scenario file\n\
seed = 9 # trailing comment\n\
num_queries = 123\n\
arrival = \"bursty\"\n\
rate = 250.0\n\
burst = 10\n\
gap = 0.5\n\
\n\
[mix]\n\
tpcds = 2.0\n\
real2 = 0.0\n";
        let spec = TrafficSpec::from_toml(text).expect("parse");
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.num_queries, 123);
        assert_eq!(spec.arrivals, ArrivalProcess::Bursty { rate: 250.0, burst: 10, gap: 0.5 });
        assert_eq!(spec.mix, [2.0, 1.0, 1.0, 1.0, 1.0, 0.0]);
        // Omitted keys keep their defaults.
        assert_eq!(spec.n_shards, TrafficSpec::default().n_shards);
    }

    #[test]
    fn unknown_keys_and_bad_values_are_errors() {
        assert!(TrafficSpec::from_toml("typo-key = 1").is_err());
        assert!(TrafficSpec::from_toml("seed = not-a-number").is_err());
        assert!(TrafficSpec::from_toml("arrival = \"fractal\"").is_err());
        assert!(TrafficSpec::from_toml("[mux]\ntpcds = 1").is_err());
        assert!(TrafficSpec::from_toml("[mix]\nklingon = 1").is_err());
        assert!(TrafficSpec::from_toml("num-queries = 0").is_err(), "validate() runs on parse");
    }

    #[test]
    fn delta_threshold_round_trips_and_parses() {
        let spec = TrafficSpec { delta_threshold: 8, ..TrafficSpec::smoke() };
        assert_eq!(TrafficSpec::from_toml(&spec.to_toml()).expect("round-trip"), spec);
        let parsed = TrafficSpec::from_toml("delta-threshold = 8").expect("parse");
        assert_eq!(parsed.delta_threshold, 8);
    }

    #[test]
    fn the_checked_in_sample_spec_parses() {
        let text = include_str!("../../specs/traffic_quick.toml");
        let spec = TrafficSpec::from_toml(text).expect("sample spec must stay valid");
        assert!(spec.num_queries >= 10_000, "the quick soak drives >= 10k queries");
        assert!(spec.n_shards > 1, "the soak exercises a multi-shard service");
        assert!(spec.delta_threshold > 0, "the quick soak exercises the delta tap");
    }
}
