//! Minimal offline stand-in for the `criterion` benchmark harness.
//!
//! The container this workspace builds in has no network access, so
//! the real crates.io `criterion` cannot be fetched. This shim
//! implements the small API subset the `mems-bench` targets use —
//! [`Criterion`], [`BenchmarkGroup`], [`Bencher::iter`],
//! [`criterion_group!`], [`criterion_main!`] — with plain wall-clock
//! timing and median-of-samples reporting instead of the full
//! statistical machinery. Each sample times a batch of calls and
//! reports the time per call; the first sample doubles the batch until
//! it lasts at least [`MIN_SAMPLE`], so a sub-microsecond routine does
//! not carry a clock read in every reading. Swap the path dependency
//! for the real crate when networked benchmarking is wanted; no bench
//! source changes are needed.
//!
//! Two environment hooks drive the `tools/bench-summary.sh` perf
//! trajectory:
//!
//! - `MEMS_BENCH_QUICK=1` clamps the per-benchmark sample count to 3
//!   (fast smoke numbers instead of stable medians);
//! - `MEMS_BENCH_JSONL=<path>` appends one `"group/id": median`
//!   JSON-object line per benchmark, which the script assembles into
//!   `BENCH_<n>.json` so future PRs can diff named medians instead of
//!   quoting prose.

use std::io::Write as _;
use std::time::{Duration, Instant};

/// The shortest timed batch: the first sample of each benchmark
/// doubles its batch of calls until one batch lasts this long, and
/// every later sample times a batch of that size.
pub const MIN_SAMPLE: Duration = Duration::from_millis(1);

/// Entry point handed to each registered benchmark function.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 20 }
    }
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        eprintln!("\nbench group: {name}");
        BenchmarkGroup {
            sample_size: self.sample_size,
            name: name.to_string(),
            _parent: self,
        }
    }

    /// Runs a standalone benchmark (no group).
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_bench(id, id, self.sample_size, f);
        self
    }
}

/// A group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    sample_size: usize,
    name: String,
    _parent: &'a mut Criterion,
}

impl<'a> BenchmarkGroup<'a> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Times one closure under the given id.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let qualified = format!("{}/{id}", self.name);
        run_bench(id, &qualified, self.sample_size, f);
        self
    }

    /// Ends the group (report flushing in real criterion; a no-op here).
    pub fn finish(self) {}
}

fn run_bench<F>(id: &str, qualified: &str, samples: usize, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    let samples = if std::env::var_os("MEMS_BENCH_QUICK").is_some() {
        samples.min(3)
    } else {
        samples
    };
    let mut b = Bencher {
        elapsed: Duration::ZERO,
        iterations: 0,
        batch: 1,
        calibrated: false,
    };
    let mut per_sample: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        b.elapsed = Duration::ZERO;
        b.iterations = 0;
        f(&mut b);
        if b.iterations > 0 {
            per_sample.push(b.elapsed.as_secs_f64() / b.iterations as f64);
        }
    }
    per_sample.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let median = per_sample.get(per_sample.len() / 2).copied().unwrap_or(0.0);
    eprintln!("  {id}: median {:.3e} s/iter ({samples} samples)", median);
    if let Some(path) = std::env::var_os("MEMS_BENCH_JSONL") {
        // One `"name": value` line per benchmark; bench-summary wraps
        // the lines into a JSON object. Failures to record must not
        // fail the bench itself.
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            let _ = writeln!(f, "\"{qualified}\": {median:e}");
        }
    }
}

/// Timing handle passed to the benchmarked closure.
pub struct Bencher {
    elapsed: Duration,
    iterations: u64,
    /// Calls per timed batch, fixed once the first batch lasts
    /// [`MIN_SAMPLE`].
    batch: u64,
    calibrated: bool,
}

impl Bencher {
    /// Times one batch of calls of `routine` (see [`MIN_SAMPLE`]).
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        loop {
            let start = Instant::now();
            for _ in 0..self.batch {
                std::hint::black_box(routine());
            }
            let elapsed = start.elapsed();
            if self.calibrated || elapsed >= MIN_SAMPLE {
                self.calibrated = true;
                self.elapsed += elapsed;
                self.iterations += self.batch;
                return;
            }
            self.batch *= 2;
        }
    }
}

/// Prevents the optimizer from discarding a value (re-export of the
/// `std` hint for API compatibility).
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Declares a benchmark group: `criterion_group!(benches, fn_a, fn_b);`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares the benchmark binary's `main`, running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_first_sample_doubles_the_batch_until_it_lasts_a_millisecond() {
        let mut b = Bencher {
            elapsed: Duration::ZERO,
            iterations: 0,
            batch: 1,
            calibrated: false,
        };
        let mut calls = 0u64;
        b.iter(|| {
            calls += 1;
            black_box(calls)
        });
        assert!(b.elapsed >= MIN_SAMPLE, "{:?}", b.elapsed);
        assert!(b.batch > 1 && b.batch.is_power_of_two(), "{}", b.batch);
        assert_eq!(b.iterations, b.batch);
        // Every shorter batch ran once before it: 1 + 2 + … + batch.
        assert_eq!(calls, 2 * b.batch - 1);

        // Later samples time one batch of that size.
        let batch = b.batch;
        b.iter(|| black_box(()));
        assert_eq!((b.batch, b.iterations), (batch, 2 * batch));
    }
}
