//! Small shared pieces: the seeded generator, order statistics, a JSON
//! writer, and process facts (peak RSS, core count, source identity).

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// splitmix64 stream — the benchmark's only source of randomness, so a
/// seed fixes every generated input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream keyed on `(seed, stream)`: workloads draw independent
    /// streams from one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * u
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Median (mean of the two middle values for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Nearest-rank percentile `p` in `(0, 100]`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Runs `setup` until at least `reps` repetitions *and* `min_s`
/// seconds have passed (capped at `max_reps`), timing each; returns
/// the last product and the median time. Every earlier product goes to
/// `teardown`, outside the timed region. Small set-ups are repeated
/// more often, so their median is as steady as a large one's.
pub fn repeat_setup<T>(
    reps: usize,
    min_s: f64,
    max_reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<(T, f64), String> {
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let product = setup()?;
        times.push(secs(t0));
        let enough = times.len() >= reps && secs(started) >= min_s;
        if enough || times.len() >= max_reps {
            return Ok((product, median(&times)));
        }
        teardown(product);
    }
}

/// Runs `op` back to back until `seconds` have passed (at least once),
/// collecting the duration each call reports for its measured part.
///
/// # Errors
///
/// The first error `op` returns.
pub fn timed_loop(
    seconds: f64,
    mut op: impl FnMut() -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.is_empty() || secs(started) < seconds {
        times.push(op()?);
    }
    Ok(times)
}

/// A JSON value for the benchmark's own output.
#[derive(Debug, Clone)]
pub enum J {
    /// A number, written with every digit Rust's shortest round-trip
    /// formatting keeps (non-finite values become `null`).
    Num(f64),
    /// An exact integer.
    Int(u64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An array.
    Arr(Vec<J>),
    /// An object with ordered keys.
    Obj(Vec<(String, J)>),
}

impl J {
    /// `J::Str` from anything string-like.
    pub fn s(v: impl Into<String>) -> J {
        J::Str(v.into())
    }

    /// Serializes without whitespace.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            J::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v:?}");
            }
            J::Num(_) => out.push_str("null"),
            J::Int(v) => {
                let _ = write!(out, "{v}");
            }
            J::Str(s) => {
                out.push('"');
                out.push_str(&mems_netlist::report::json_escape(s));
                out.push('"');
            }
            J::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            J::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            J::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    J::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit of the checkout when it is a git repository, else
/// `"unknown"`.
pub fn git_rev(root: &Path) -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a digest of every manifest and Rust source under `crates/`
/// (sorted by path), so results from checkouts without git history
/// still name the code they measured.
pub fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    collect_sources(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let bytes = std::fs::read(&path).unwrap_or_default();
        for b in rel.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path
            .extension()
            .is_some_and(|e| e == "rs" || e == "toml" || e == "cir" || e == "lib")
        {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn rng_streams_are_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
    }

    #[test]
    fn json_writer_escapes_and_keeps_digits() {
        let j = J::Obj(vec![
            ("a\"b".into(), J::Num(0.1 + 0.2)),
            ("n".into(), J::Int(3)),
            ("bad".into(), J::Num(f64::NAN)),
        ]);
        assert_eq!(
            j.render(),
            "{\"a\\\"b\":0.30000000000000004,\"n\":3,\"bad\":null}"
        );
    }
}
