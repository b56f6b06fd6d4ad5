//! The traffic `--seed` generates, drawn in full before timing starts.
//!
//! Open-loop workloads get a complete send list (query, template, event
//! index, flags; the due instant of send `k` is a pure function of `k`).
//! Closed-loop workloads get a long list of template draws they consume
//! as fast as the system lets them. Either way the program under test
//! only ever sees generated events, and the FNV-64 digest of the list is
//! printed so two runs can be shown to have offered the same traffic.

use prosel::datagen::Zipf;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::stats::{fnv_fold, FNV_OFFSET};

/// In-flight queries of the open-loop workloads.
pub const WINDOW: usize = 64;
/// Every 32nd event is a probe: once its burst has drained, its query's
/// progress and ETA go into the value digest.
pub const PROBE_EVERY: usize = 32;
/// Every 8th event is followed by one timed read.
pub const READ_EVERY: usize = 8;

pub const FIRST: u8 = 1;
pub const LAST: u8 = 2;
pub const PROBE: u8 = 4;
pub const READ: u8 = 8;

/// One event delivery of an open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Send {
    pub query: u32,
    /// Target of the read that follows when [`READ`] is set: a query
    /// registered at that point of the schedule.
    pub read_query: u32,
    pub template: u16,
    pub idx: u16,
    /// [`FIRST`]: register the query before this send. [`LAST`]: the
    /// query's stream ends here. [`PROBE`], [`READ`]: see the constants.
    pub flags: u8,
}

/// Draw a template (0-based) by popularity.
fn draw_template(rng: &mut StdRng, popularity: &Zipf) -> u16 {
    (popularity.sample(rng) - 1) as u16
}

/// The open-loop send list: a rolling window of [`WINDOW`] in-flight
/// queries, served round-robin one event each; a query that sent its last
/// event gives its slot to a fresh draw, whose first send registers it.
/// `lens[t]` is the stream length of template `t`.
pub fn open_loop(seed: u64, popularity: &Zipf, lens: &[usize], n_sends: usize) -> Vec<Send> {
    struct Slot {
        query: u32,
        template: u16,
        next: u16,
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0FE2_7001);
    let mut next_query = 0u32;
    let mut fresh = |rng: &mut StdRng| {
        let slot = Slot { query: next_query, template: draw_template(rng, popularity), next: 0 };
        next_query += 1;
        slot
    };
    let mut slots: Vec<Slot> = (0..WINDOW).map(|_| fresh(&mut rng)).collect();
    let mut sends = Vec::with_capacity(n_sends);
    for k in 0..n_sends {
        let at = k % WINDOW;
        let (query, template, idx) = (slots[at].query, slots[at].template, slots[at].next);
        let mut flags = 0u8;
        if idx == 0 {
            flags |= FIRST;
        }
        slots[at].next += 1;
        if slots[at].next as usize == lens[template as usize] {
            flags |= LAST;
        }
        if (k + 1) % PROBE_EVERY == 0 {
            flags |= PROBE;
        }
        let mut read_query = query;
        if (k + 1) % READ_EVERY == 0 {
            flags |= READ;
            // Any slot that has sent at least once holds a registered
            // query (retirement is deferred past the window's turn).
            let pick = &slots[rng.random_range(0..WINDOW)];
            if pick.next > 0 {
                read_query = pick.query;
            }
        }
        sends.push(Send { query, read_query, template, idx, flags });
        if flags & LAST != 0 {
            slots[at] = fresh(&mut rng);
        }
    }
    sends
}

/// Template draws for the closed-loop workloads, consumed in order (and
/// wrapped around, should a run outlast them).
pub fn closed_loop(seed: u64, popularity: &Zipf, n_draws: usize) -> Vec<u16> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC105_ED01);
    (0..n_draws).map(|_| draw_template(&mut rng, popularity)).collect()
}

/// A seeded permutation of `0..n` (the order a closed-loop workload serves
/// a fixed query set in).
pub fn permutation(seed: u64, n: usize) -> Vec<u16> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0BE2_0003);
    let mut order: Vec<u16> = (0..n as u16).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    order
}

/// `n` queries in exactly the proportions of `popularity` (largest
/// remainders), interleaved by rank: the traffic's expected mix, the same
/// on every seed. The serving workloads' feedback round learns from it, so
/// what it learns — and the score after it — does not move with the seed.
pub fn expected_mix(popularity: &[f64], n: usize) -> Vec<u16> {
    let total: f64 = popularity.iter().sum();
    let exact: Vec<f64> = popularity.iter().map(|p| p / total * n as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..popularity.len()).collect();
    by_remainder.sort_by(|&a, &b| {
        (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())).then(a.cmp(&b))
    });
    let short = n - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        counts[i] += 1;
    }
    let mut mix = Vec::with_capacity(n);
    while mix.len() < n {
        for (i, c) in counts.iter_mut().enumerate() {
            if *c > 0 {
                *c -= 1;
                mix.push(i as u16);
            }
        }
    }
    mix
}

pub fn digest_sends(sends: &[Send]) -> u64 {
    let mut h = FNV_OFFSET;
    for s in sends {
        fnv_fold(&mut h, (s.query as u64) << 32 | s.read_query as u64);
        fnv_fold(&mut h, (s.template as u64) << 32 | (s.idx as u64) << 8 | s.flags as u64);
    }
    h
}

pub fn digest_draws(draws: &[u16]) -> u64 {
    let mut h = FNV_OFFSET;
    for &d in draws {
        fnv_fold(&mut h, d as u64);
    }
    h
}

/// Due offset of open-loop send `k`, in nanoseconds from the run's start:
/// always `k / rate` (for bursts, the burst's index over the burst rate),
/// never "previous send plus a gap", so a stall delays nothing after it
/// on paper and every later latency still counts the wait it caused.
pub fn due_ns(k: usize, rate: f64, burst: usize) -> u64 {
    let slot = (k / burst * burst) as f64;
    (slot * 1e9 / rate) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn due_instants_are_multiples_of_the_period_not_accumulated_gaps() {
        // 50 000/s: send k is due at exactly k * 20 µs.
        assert_eq!(due_ns(0, 50_000.0, 1), 0);
        assert_eq!(due_ns(1, 50_000.0, 1), 20_000);
        assert_eq!(due_ns(123_457, 50_000.0, 1), 2_469_140_000);
        // Bursts of 1024 at the same average rate: one due instant a burst,
        // 20.48 ms apart.
        assert_eq!(due_ns(1023, 50_000.0, 1024), 0);
        assert_eq!(due_ns(1024, 50_000.0, 1024), 20_480_000);
        assert_eq!(due_ns(5 * 1024 + 7, 50_000.0, 1024), 5 * 20_480_000);
    }

    #[test]
    fn open_loop_streams_are_complete_ordered_and_seeded() {
        let lens = [3usize, 5, 2, 7];
        let uniform = Zipf::new(4, 0.0);
        let sends = open_loop(7, &uniform, &lens, 4000);
        assert_eq!(sends, open_loop(7, &uniform, &lens, 4000), "same seed, same traffic");
        assert_ne!(digest_sends(&sends), digest_sends(&open_loop(8, &uniform, &lens, 4000)));

        let mut next: HashMap<u32, u16> = HashMap::new();
        let mut done = 0;
        for (k, s) in sends.iter().enumerate() {
            let expect = next.entry(s.query).or_insert(0);
            assert_eq!(s.idx, *expect, "events of a query go out in order");
            assert_eq!(s.flags & FIRST != 0, s.idx == 0);
            *expect += 1;
            let last = *expect as usize == lens[s.template as usize];
            assert_eq!(s.flags & LAST != 0, last);
            done += last as usize;
            assert_eq!(s.flags & PROBE != 0, (k + 1) % PROBE_EVERY == 0);
            assert_eq!(s.flags & READ != 0, (k + 1) % READ_EVERY == 0);
            if s.flags & READ != 0 {
                assert!(next.contains_key(&s.read_query), "reads target registered queries");
            }
        }
        assert!(done > 500, "queries keep completing: {done}");
        // Never more than a window of queries in flight.
        let in_flight = next.iter().filter(|(_, &n)| n > 0).count() - done;
        assert!(in_flight <= WINDOW);
    }

    #[test]
    fn closed_loop_draws_follow_the_popularity_law() {
        let zipf = Zipf::new(8, 1.1);
        let draws = closed_loop(42, &zipf, 20_000);
        let head = draws.iter().filter(|&&d| d == 0).count() as f64 / draws.len() as f64;
        assert!((head - zipf.pmf(1)).abs() < 0.02, "rank 1 drawn {head}, law says {}", zipf.pmf(1));
        assert!(draws.iter().all(|&d| (d as usize) < 8));

        // The expected mix has exactly n entries in the law's proportions.
        let pmf: Vec<f64> = (1..=8).map(|k| zipf.pmf(k)).collect();
        let mix = expected_mix(&pmf, 150);
        assert_eq!(mix.len(), 150);
        for (rank, p) in pmf.iter().enumerate() {
            let got = mix.iter().filter(|&&d| d as usize == rank).count() as f64;
            assert!((got - p * 150.0).abs() < 1.0, "rank {rank}: {got} of 150 for mass {p}");
        }
        assert_eq!(&mix[..8], &[0, 1, 2, 3, 4, 5, 6, 7], "interleaved by rank");

        let mut perm = permutation(5, 150);
        assert_ne!(perm, permutation(6, 150));
        perm.sort_unstable();
        assert_eq!(perm, (0..150).collect::<Vec<u16>>());
    }
}
