//! Host-speed calibration: a fixed probe of the benchmark's own, timed
//! beside every measurement, so a timing can be stated at *reference
//! speed* instead of at whatever speed the shared host ran that minute.
//!
//! The reference host is a 2-vCPU microVM whose cores are shared with
//! other tenants. Branchy, high-IPC code (which is what the service runs:
//! tree descents, bounds kernels, decoding) runs in one of two modes
//! there, about 1.4× apart, and stays in one for tens of seconds to
//! minutes; a dependent arithmetic chain does not change at all, so it is
//! contention for the core, not its clock. No run length the acceptance
//! contract allows averages that out, and a median over a run lands in
//! whichever mode held the majority. The probe below is affected the way
//! the service is (forest descents over L1/L2-resident data, a few hundred
//! microseconds); dividing a measured time by `probe time / reference
//! probe time` over the same window removes the mode and leaves the
//! program.
//!
//! The probe is benchmark code: no change to the program under test can
//! speed it up.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

use crate::stats::median;

/// The probe's time on the reference host in its fast mode. Timings are
/// reported as they would read on a host where the probe takes this long.
pub const REFERENCE_NS: f64 = 225_000.0;

const TREES: usize = 64;
/// Inner nodes and leaves of a depth-5 tree.
const NODES: usize = 63;
const FEATURES: usize = 32;
const ROWS: usize = 256;
/// Rows one probe scores.
const PROBE_ROWS: usize = 300;

struct Forest {
    feature: Vec<u8>,
    threshold: Vec<f32>,
    rows: Vec<f32>,
}

fn forest() -> &'static Forest {
    static FOREST: OnceLock<Forest> = OnceLock::new();
    FOREST.get_or_init(|| {
        let mut x: u64 = 88_172_645_463_325_252;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let unit = |v: u64| (v % 1000) as f32 / 1000.0;
        Forest {
            feature: (0..TREES * NODES).map(|_| (next() % FEATURES as u64) as u8).collect(),
            threshold: (0..TREES * NODES).map(|_| unit(next())).collect(),
            rows: (0..ROWS * FEATURES).map(|_| unit(next())).collect(),
        }
    })
}

/// One pass of the probe, in nanoseconds.
fn pass(f: &Forest) -> u64 {
    let start = Instant::now();
    let mut acc = 0.0f64;
    for row in 0..PROBE_ROWS {
        let x = &f.rows[(row % ROWS) * FEATURES..][..FEATURES];
        for tree in 0..TREES {
            let base = tree * NODES;
            let mut node = 0usize;
            for _ in 0..5 {
                let right = x[f.feature[base + node] as usize] > f.threshold[base + node];
                node = 2 * node + 1 + right as usize;
            }
            acc += f.threshold[base + node] as f64;
        }
    }
    black_box(acc);
    start.elapsed().as_nanos() as u64
}

/// One calibration sample, in nanoseconds: an untimed pass to bring the
/// forest back into cache (whatever ran before evicted it), then the
/// median of three timed ones (a timer interrupt spoils at most one).
/// About 0.8 ms of work.
pub fn sample() -> f64 {
    let f = forest();
    pass(f);
    let mut t = [pass(f), pass(f), pass(f)];
    t.sort_unstable();
    t[1] as f64
}

/// A calibration sample for a drive that keeps both the generator thread
/// and a service worker busy: the probe on the calling thread and, at the
/// same time, on a helper thread (the service is drained and its worker
/// parked while this runs, so no more threads run than the drive itself
/// uses), averaged. The two land on different vCPUs, whose modes differ;
/// which of them the bottleneck thread of the drive runs on is the
/// kernel's choice, so the drive is calibrated against their mean.
pub fn sample_both() -> f64 {
    let (here, there) = std::thread::scope(|s| {
        let helper = s.spawn(sample);
        (sample(), helper.join().expect("the probe does not panic"))
    });
    (here + there) / 2.0
}

/// How much slower than the reference the host ran over a drive whose
/// boundary samples are `samples` (1.0: reference speed; 1.4: the slow
/// mode): their median, so a sample inside a short blip does not count.
/// No samples: 1.0.
pub fn slowdown(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 1.0;
    }
    median(samples) / REFERENCE_NS
}

/// Calibration around a batch measurement on the calling thread: a sample
/// when it starts, at every [`Meter::lap`] and when it ends. The samples
/// (0.8 ms each) stay inside the measurement they calibrate.
pub struct Meter {
    /// When each sample ended, and what it read.
    samples: Vec<(Instant, f64)>,
}

impl Meter {
    pub fn start() -> Meter {
        let mut m = Meter { samples: Vec::new() };
        m.lap();
        m
    }

    pub fn lap(&mut self) {
        let ns = sample();
        self.samples.push((Instant::now(), ns));
    }

    /// Take the closing sample; the host's slowdown over the measurement:
    /// each stretch between two samples counts with its duration and the
    /// mean of the two, so a mode that held for a third of the measurement
    /// weighs a third.
    pub fn finish(mut self) -> f64 {
        self.lap();
        let (mut weighted, mut total) = (0.0, 0.0);
        for pair in self.samples.windows(2) {
            let dt = pair[1].0.duration_since(pair[0].0).as_secs_f64();
            weighted += dt * (pair[0].1 + pair[1].1) / 2.0;
            total += dt;
        }
        weighted / total / REFERENCE_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_relative_to_the_reference() {
        assert_eq!(slowdown(&[]), 1.0);
        assert_eq!(slowdown(&[REFERENCE_NS]), 1.0);
        assert!((slowdown(&[REFERENCE_NS, 2.0 * REFERENCE_NS]) - 1.5).abs() < 1e-12);
        // The median: one sample inside a blip does not move it.
        assert_eq!(slowdown(&[REFERENCE_NS, 9.0 * REFERENCE_NS, REFERENCE_NS]), 1.0);
        let around_nothing = Meter::start().finish();
        assert!(around_nothing > 0.0 && around_nothing.is_finite());
    }

    #[test]
    fn the_probe_is_deterministic_work() {
        let f = forest();
        assert_eq!(f.feature.len(), TREES * NODES);
        assert!(f.feature.iter().all(|&i| (i as usize) < FEATURES));
        assert!(sample() > 0.0);
        assert!(sample_both() > 0.0);
    }
}
