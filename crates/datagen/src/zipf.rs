//! Zipfian sampling.
//!
//! The paper's skewed TPC-H databases are produced with a `dbgen` variant
//! that draws column values from a Zipf(θ) distribution: value rank `k`
//! (1-based) has probability proportional to `1/k^θ`. `θ = 0` degenerates
//! to the uniform distribution; the paper uses Z ∈ {0, 1, 2}.
//!
//! We precompute the cumulative distribution once and sample by binary
//! search, which is exact and fast for the domain sizes used here
//! (≤ a few hundred thousand distinct values).

use rand::{Rng, RngExt};

/// A Zipf(θ) sampler over the 1-based rank domain `1..=n`.
///
/// Ranks are *not* shuffled: rank 1 is the most frequent value. Callers
/// that want skew without an ordered hot-spot should compose with a seeded
/// permutation (see [`Zipf::sample_permuted`]).
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    /// Cumulative probabilities; `cdf[k-1] = P(X <= k)`. Empty when θ = 0
    /// (uniform fast path).
    cdf: Vec<f64>,
    /// Multiplicative-hash parameter for the permuted variant.
    perm_mult: u64,
}

impl Zipf {
    /// Create a sampler over `1..=n` with skew `theta >= 0`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `theta` is negative / non-finite.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "Zipf domain must be non-empty");
        assert!(
            theta.is_finite() && theta >= 0.0,
            "Zipf skew must be finite and non-negative, got {theta}"
        );
        let cdf = if theta == 0.0 {
            Vec::new()
        } else {
            let mut cdf = Vec::with_capacity(n as usize);
            let mut acc = 0.0f64;
            for k in 1..=n {
                acc += 1.0 / (k as f64).powf(theta);
                cdf.push(acc);
            }
            let total = acc;
            for v in &mut cdf {
                *v /= total;
            }
            cdf
        };
        // Odd multiplier for an invertible multiplicative permutation of the
        // domain; derived from the golden ratio like SplitMix64.
        let perm_mult = 0x9E37_79B9_7F4A_7C15 | 1;
        Zipf { n, cdf, perm_mult }
    }

    /// Domain size.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Draw a rank in `1..=n`; rank 1 is the most probable.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.cdf.is_empty() {
            return rng.random_range(1..=self.n);
        }
        let u: f64 = rng.random();
        // partition_point returns the first index with cdf[i] >= u.
        let idx = self.cdf.partition_point(|&c| c < u);
        (idx as u64 + 1).min(self.n)
    }

    /// Draw a skewed value whose *identity* is pseudo-randomly spread over
    /// the domain (the hot value is not `1`). Useful for foreign keys, where
    /// a skewed-but-scattered referencing pattern is realistic.
    pub fn sample_permuted<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let rank = self.sample(rng);
        // A fixed bijection on 0..n via multiply-mod when n is not a power of
        // two would be biased; instead hash and fold, accepting collisions in
        // *identity* only (frequency shape is preserved because the map is a
        // fixed function of rank).
        let hashed = rank.wrapping_mul(self.perm_mult).rotate_left(31);
        (hashed % self.n) + 1
    }

    /// Expected probability of rank `k` (1-based). Exposed for tests.
    pub fn pmf(&self, k: u64) -> f64 {
        assert!(k >= 1 && k <= self.n);
        if self.cdf.is_empty() {
            1.0 / self.n as f64
        } else {
            let hi = self.cdf[(k - 1) as usize];
            let lo = if k == 1 { 0.0 } else { self.cdf[(k - 2) as usize] };
            hi - lo
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_when_theta_zero() {
        let z = Zipf::new(10, 0.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0u32; 10];
        for _ in 0..20_000 {
            counts[(z.sample(&mut rng) - 1) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 2000.0).abs() < 300.0, "uniform bucket off: {c}");
        }
    }

    #[test]
    fn rank_one_dominates_under_skew() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut one = 0u32;
        let trials = 50_000;
        for _ in 0..trials {
            if z.sample(&mut rng) == 1 {
                one += 1;
            }
        }
        let expected = z.pmf(1) * trials as f64;
        assert!((one as f64 - expected).abs() < expected * 0.15);
        // Under θ=1 over 1000 values, rank 1 has ~13% mass.
        assert!(one as f64 / trials as f64 > 0.10);
    }

    #[test]
    fn pmf_sums_to_one() {
        for theta in [0.0, 0.5, 1.0, 2.0] {
            let z = Zipf::new(57, theta);
            let total: f64 = (1..=57).map(|k| z.pmf(k)).sum();
            assert!((total - 1.0).abs() < 1e-9, "theta={theta} total={total}");
        }
    }

    #[test]
    fn higher_skew_concentrates_more() {
        let z1 = Zipf::new(500, 1.0);
        let z2 = Zipf::new(500, 2.0);
        assert!(z2.pmf(1) > z1.pmf(1));
        assert!(z2.pmf(500) < z1.pmf(500));
    }

    #[test]
    fn samples_stay_in_domain() {
        let z = Zipf::new(3, 1.5);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..1000 {
            let v = z.sample(&mut rng);
            assert!((1..=3).contains(&v));
            let p = z.sample_permuted(&mut rng);
            assert!((1..=3).contains(&p));
        }
    }

    #[test]
    fn permuted_preserves_skew_mass() {
        // The permuted variant must still have a single dominant value.
        let z = Zipf::new(997, 2.0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = std::collections::HashMap::<u64, u32>::new();
        for _ in 0..20_000 {
            *counts.entry(z.sample_permuted(&mut rng)).or_default() += 1;
        }
        let max = counts.values().copied().max().unwrap();
        assert!(max as f64 / 20_000.0 > 0.4, "hot value mass lost: {max}");
        // And the hot value should not be rank 1 itself.
        let hot = counts.iter().max_by_key(|(_, &c)| c).map(|(&v, _)| v).unwrap();
        assert_ne!(hot, 1);
    }
}
