//! Property net over the open-loop arrival generators
//! ([`prosel_bench::traffic::arrivals`]).
//!
//! The contracts the traffic harness is built on, exercised over
//! randomized specs:
//!
//! * Poisson inter-arrival gaps have mean ≈ 1/λ (the process really is
//!   open-loop at the requested rate), are all positive and finite;
//! * bursty generation preserves the exact arrival count — bursts only
//!   reshape *when* queries arrive — and honours the configured gap;
//! * Zipf template draws are monotone in rank: hotter (lower) ranks are
//!   drawn at least as often as colder ones, up to sampling noise, and
//!   rank 0 dominates under skew;
//! * a spec is a *schedule*, byte-for-byte: same seed → identical
//!   [`schedule_text`], different seed → different text.

use proptest::prelude::*;
use prosel_bench::traffic::{digest64, schedule, schedule_text, ArrivalProcess, TrafficSpec};

/// A spec whose randomized knobs stay in the cheap, valid range.
fn small_spec(seed: u64, n: usize, rate: f64, zipf: f64) -> TrafficSpec {
    TrafficSpec {
        seed,
        num_queries: n,
        zipf_exponent: zipf,
        arrivals: ArrivalProcess::Poisson { rate },
        ..TrafficSpec::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn poisson_gaps_have_the_requested_mean(
        seed in 0u64..1_000_000,
        rate in 1.0f64..2_000.0,
    ) {
        let n = 2_000usize;
        let arrivals = schedule(&small_spec(seed, n, rate, 0.0));
        prop_assert_eq!(arrivals.len(), n);
        let mut prev = 0.0f64;
        let mut sum = 0.0f64;
        for a in &arrivals {
            let gap = a.at - prev;
            prop_assert!(gap > 0.0 && gap.is_finite(), "gap {gap} at q{}", a.query);
            sum += gap;
            prev = a.at;
        }
        let mean = sum / n as f64;
        // Exp(λ) has σ = 1/λ, so the sample mean's standard error is
        // (1/λ)/√n ≈ 2.2% here; 12% absorbs unlucky seeds at 48 cases.
        let expected = 1.0 / rate;
        prop_assert!(
            (mean - expected).abs() < expected * 0.12,
            "mean gap {mean} vs expected {expected}"
        );
    }

    #[test]
    fn bursty_preserves_count_and_gap(
        seed in 0u64..1_000_000,
        n in 100usize..1_500,
        rate in 100.0f64..5_000.0,
        burst in 1usize..64,
        gap in 0.01f64..1.0,
    ) {
        let spec = TrafficSpec {
            seed,
            num_queries: n,
            arrivals: ArrivalProcess::Bursty { rate, burst, gap },
            ..TrafficSpec::default()
        };
        let arrivals = schedule(&spec);
        prop_assert_eq!(arrivals.len(), n, "bursts must not change the total");
        for pair in arrivals.windows(2) {
            let step = pair[1].at - pair[0].at;
            let expected = if pair[1].query % burst == 0 { gap } else { 1.0 / rate };
            prop_assert!(
                (step - expected).abs() < 1e-9,
                "step {step} vs expected {expected} before q{}", pair[1].query
            );
        }
    }

    #[test]
    fn template_draws_are_monotone_in_rank(
        seed in 0u64..1_000_000,
        zipf in 0.8f64..2.5,
        templates in 2usize..8,
    ) {
        let n = 6_000usize;
        let spec = TrafficSpec {
            templates_per_workload: templates,
            ..small_spec(seed, n, 500.0, zipf)
        };
        let arrivals = schedule(&spec);
        let mut counts = vec![0i64; templates];
        for a in &arrivals {
            prop_assert!(a.template < templates, "template out of range");
            counts[a.template] += 1;
        }
        // Monotone up to binomial noise: 4σ on n draws.
        let slack = 4.0 * (n as f64).sqrt();
        for r in 0..templates - 1 {
            prop_assert!(
                counts[r] as f64 + slack >= counts[r + 1] as f64,
                "rank {r} ({}) colder than rank {} ({})",
                counts[r], r + 1, counts[r + 1]
            );
        }
        prop_assert!(
            counts[0] > counts[templates - 1],
            "skew {zipf} must make rank 0 strictly hotter than the tail"
        );
    }

    #[test]
    fn schedules_are_bytes_of_the_seed(
        seed in 0u64..1_000_000,
        n in 50usize..500,
        rate in 10.0f64..1_000.0,
        zipf in 0.0f64..2.0,
    ) {
        let spec = small_spec(seed, n, rate, zipf);
        let a = schedule_text(&schedule(&spec));
        let b = schedule_text(&schedule(&spec));
        prop_assert_eq!(&a, &b, "same spec must be byte-identical");
        prop_assert_eq!(digest64(a.as_bytes()), digest64(b.as_bytes()));
        let other = schedule_text(&schedule(&TrafficSpec { seed: seed ^ 0xDEAD_BEEF, ..spec }));
        prop_assert!(a != other, "a different seed must move the schedule");
    }
}
