//! Offline stand-in for the subset of the `criterion` crate that prosel's
//! benches use.
//!
//! The build environment has no route to a crates.io mirror, so the
//! workspace vendors this minimal implementation under the same crate name.
//! Bench targets compile unchanged (`criterion_group!` / `criterion_main!`,
//! `benchmark_group`, `bench_function`, `bench_with_input`, `Throughput`,
//! `BenchmarkId`) and, when actually run via `cargo bench`, execute each
//! closure a bounded number of times and print mean wall-clock per
//! iteration. There is no statistical analysis, warm-up tuning, or HTML
//! report — swap in the real crate for that.
//!
//! The printed means are for reading a kernel A/B beside its in-file
//! reference, nothing more: a number that sizes or supports a claim comes
//! from `benchmark/` (see its README), and nothing here is machine-read.
//!
//! One environment hook: `PROSEL_BENCH_QUICK=<n>` clamps every bench to at
//! most `n` timed iterations (per-bench `sample_size` calls cannot raise
//! it back), so a bench can be smoke-run in seconds.

use std::fmt;
use std::time::Instant;

pub use std::hint::black_box;

/// How work is scaled when reporting (accepted, echoed in output).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Elements(u64),
    Bytes(u64),
}

/// A benchmark identifier composed of a function name and a parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId { id: format!("{}/{}", function_name.into(), parameter) }
    }

    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId { id: parameter.to_string() }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// The quick clamp: `min(requested, $PROSEL_BENCH_QUICK)`.
fn effective_samples(requested: usize) -> usize {
    match std::env::var("PROSEL_BENCH_QUICK").ok().and_then(|v| v.parse::<usize>().ok()) {
        Some(q) => requested.min(q.max(1)),
        None => requested,
    }
}

/// Timing loop handle passed to bench closures.
pub struct Bencher {
    samples: usize,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // One untimed warm-up call, then `samples` timed iterations.
        black_box(f());
        let start = Instant::now();
        for _ in 0..self.samples {
            black_box(f());
        }
        let elapsed = start.elapsed();
        let per_iter = elapsed / self.samples as u32;
        println!("    {:>12?} /iter ({} iters)", per_iter, self.samples);
    }
}

/// Top-level benchmark driver.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        println!("bench: {}", id.into().id);
        let mut b = Bencher { samples: effective_samples(self.sample_size) };
        f(&mut b);
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { parent: self, name: name.into(), sample_size: None }
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.max(1));
        self
    }

    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        println!("group {}: throughput {:?}", self.name, throughput);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        println!("bench: {}/{}", self.name, id.into().id);
        let samples = self.sample_size.unwrap_or(self.parent.sample_size);
        let mut b = Bencher { samples: effective_samples(samples) };
        f(&mut b);
        self
    }

    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        println!("bench: {}/{}", self.name, id.into().id);
        let samples = self.sample_size.unwrap_or(self.parent.sample_size);
        let mut b = Bencher { samples: effective_samples(samples) };
        f(&mut b, input);
        self
    }

    pub fn finish(self) {}
}

#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo bench` passes harness flags (e.g. `--bench`); this shim
            // runs everything unconditionally and ignores them.
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_and_function_run() {
        let mut c = Criterion::default();
        let mut calls = 0usize;
        c.sample_size(2).bench_function("t", |b| b.iter(|| calls += 1));
        assert!(calls >= 2);
        let mut group = c.benchmark_group("g");
        group.sample_size(2);
        group.throughput(Throughput::Elements(5));
        group.bench_with_input(BenchmarkId::new("f", 1), &3, |b, &x| b.iter(|| x * 2));
        group.finish();
    }
}
