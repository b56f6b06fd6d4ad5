//! Open-loop arrival schedules: a pure function of the [`TrafficSpec`].
//!
//! [`schedule`] expands a spec into the full list of [`Arrival`]s — who
//! arrives when, from which workload, using which plan template — by
//! consuming a single seeded generator sequentially. Open-loop means the
//! schedule is fixed *before* the service sees any of it: arrival instants
//! never depend on service latency, which is exactly the regime where
//! admission pressure and read-tail latency become visible.
//!
//! Determinism is a first-class contract here: two calls with equal specs
//! return byte-identical [`schedule_text`] renderings (arrival instants
//! are compared by their IEEE-754 bit patterns, not by approximate
//! equality), and [`digest64`] folds that text into a compact fingerprint
//! for cheap cross-run assertions.

use prosel_datagen::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use super::config::{ArrivalProcess, TrafficSpec};

/// One scheduled query arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Query id, dense from 0 in arrival order.
    pub query: usize,
    /// Arrival instant in virtual seconds from the start of the run.
    pub at: f64,
    /// Index into [`super::config::MIX_LABELS`] — which paper workload
    /// this query is drawn from.
    pub workload: usize,
    /// Zero-based template rank within the workload; template 0 is the
    /// Zipf-hottest.
    pub template: usize,
}

/// Expand a spec into its arrival schedule.
///
/// The generator stream is consumed in a fixed order per arrival
/// (inter-arrival draw, then workload draw, then template draw), so the
/// schedule is bit-reproducible from `spec.seed` alone. A `duration`
/// horizon trims arrivals scheduled past it; otherwise the schedule has
/// exactly `spec.num_queries` entries.
///
/// # Panics
/// Panics on a spec [`TrafficSpec::validate`] rejects.
pub fn schedule(spec: &TrafficSpec) -> Vec<Arrival> {
    if let Err(e) = spec.validate() {
        panic!("invalid traffic spec: {e}");
    }
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let zipf = Zipf::new(spec.templates_per_workload as u64, spec.zipf_exponent);
    let cumulative: Vec<f64> = spec
        .mix
        .iter()
        .scan(0.0f64, |acc, w| {
            *acc += w;
            Some(*acc)
        })
        .collect();
    let total_weight = *cumulative.last().expect("mix is non-empty");

    let mut out = Vec::with_capacity(spec.num_queries);
    let mut t = 0.0f64;
    for query in 0..spec.num_queries {
        t = match spec.arrivals {
            ArrivalProcess::Poisson { rate } => {
                // Inverse-CDF draw of an Exp(rate) gap. The shim's f64
                // samples live in [0, 1), so 1 - u > 0 and ln is finite.
                let u: f64 = rng.random();
                t + -(1.0 - u).ln() / rate
            }
            ArrivalProcess::Bursty { rate, burst, gap } => {
                let burst = burst.max(1);
                if query == 0 {
                    0.0
                } else if query % burst == 0 {
                    // A burst boundary: the silent gap, then the next
                    // burst starts.
                    t + gap
                } else {
                    t + 1.0 / rate
                }
            }
        };
        if let Some(horizon) = spec.duration {
            if t > horizon {
                break;
            }
        }
        let dart = rng.random::<f64>() * total_weight;
        let workload = cumulative.partition_point(|&c| c <= dart).min(spec.mix.len() - 1);
        let template = (zipf.sample(&mut rng) - 1) as usize;
        out.push(Arrival { query, at: t, workload, template });
    }
    out
}

/// Render a schedule in its canonical byte form: one line per arrival,
/// `query at-bits workload template`, with the instant spelled as its
/// IEEE-754 bit pattern so equality is exact.
pub fn schedule_text(arrivals: &[Arrival]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(arrivals.len() * 32);
    for a in arrivals {
        let _ = writeln!(out, "{} {:016x} {} {}", a.query, a.at.to_bits(), a.workload, a.template);
    }
    out
}

/// FNV-1a over the bytes — a compact fingerprint for comparing schedules
/// (or any deterministic driver transcript) across runs.
pub fn digest64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedules_are_strictly_ordered_and_complete() {
        let spec = TrafficSpec { num_queries: 2_000, ..TrafficSpec::default() };
        let arrivals = schedule(&spec);
        assert_eq!(arrivals.len(), 2_000);
        for (i, pair) in arrivals.windows(2).enumerate() {
            assert!(pair[0].at < pair[1].at, "arrival {i} not strictly before its successor");
        }
        assert!(arrivals.iter().enumerate().all(|(i, a)| a.query == i), "dense query ids");
    }

    #[test]
    fn bursty_preserves_count_and_respects_the_gap() {
        let spec = TrafficSpec {
            num_queries: 1_000,
            arrivals: ArrivalProcess::Bursty { rate: 1000.0, burst: 100, gap: 1.0 },
            ..TrafficSpec::default()
        };
        let arrivals = schedule(&spec);
        assert_eq!(arrivals.len(), 1_000);
        // Burst boundaries jump by the full gap; in-burst spacing is 1/rate.
        let jump = arrivals[100].at - arrivals[99].at;
        assert!((jump - 1.0).abs() < 1e-12, "gap not honoured: {jump}");
        let step = arrivals[1].at - arrivals[0].at;
        assert!((step - 0.001).abs() < 1e-12, "in-burst spacing off: {step}");
    }

    #[test]
    fn duration_trims_the_tail() {
        let spec = TrafficSpec {
            num_queries: 10_000,
            arrivals: ArrivalProcess::Poisson { rate: 100.0 },
            duration: Some(1.0),
            ..TrafficSpec::default()
        };
        let arrivals = schedule(&spec);
        assert!(!arrivals.is_empty() && arrivals.len() < 10_000);
        assert!(arrivals.iter().all(|a| a.at <= 1.0));
    }

    #[test]
    fn zero_weight_workloads_never_arrive() {
        let mut spec = TrafficSpec { num_queries: 3_000, ..TrafficSpec::default() };
        spec.mix = [1.0, 0.0, 3.0, 0.0, 0.0, 0.0];
        let arrivals = schedule(&spec);
        let mut seen = [0usize; 6];
        for a in &arrivals {
            seen[a.workload] += 1;
        }
        assert_eq!(seen[1] + seen[3] + seen[4] + seen[5], 0);
        assert!(seen[0] > 0 && seen[2] > seen[0], "weight-3 workload should dominate weight-1");
    }

    #[test]
    fn same_seed_is_byte_identical_and_different_seed_is_not() {
        let spec = TrafficSpec { num_queries: 500, ..TrafficSpec::default() };
        let a = schedule_text(&schedule(&spec));
        let b = schedule_text(&schedule(&spec));
        assert_eq!(a, b);
        assert_eq!(digest64(a.as_bytes()), digest64(b.as_bytes()));
        let other = TrafficSpec { seed: spec.seed + 1, ..spec };
        assert_ne!(a, schedule_text(&schedule(&other)));
    }
}
