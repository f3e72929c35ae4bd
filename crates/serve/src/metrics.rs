//! `/v1/metrics` — Prometheus text-format observability.
//!
//! The server already computes most of these numbers and used to
//! discard them; this module keeps them as lock-free counters and
//! renders the exposition format (version 0.0.4) a Prometheus scrape
//! expects: `# HELP`/`# TYPE` preamble per family, cumulative
//! `_bucket{le=…}` histogram series, `_total` counters. Gauges the
//! server derives live (queue depth, cache residency, uptime) are
//! passed in at render time as a [`Gauges`] snapshot.

use mems_numerics::cache::LruStats;
use std::sync::atomic::{AtomicU64, Ordering};

/// Chunk-latency histogram bucket upper bounds, seconds. Chunks are
/// `chunk_size` simulation points, so the spread is wide: sub-ms
/// divider sweeps up to multi-second meshed transients.
const CHUNK_BUCKETS: [f64; 8] = [0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0];

/// A fixed-bucket latency histogram (lock-free observe).
#[derive(Default)]
pub struct Histogram {
    /// Per-bucket (non-cumulative) observation counts; rendered
    /// cumulatively as Prometheus requires.
    buckets: [AtomicU64; CHUNK_BUCKETS.len()],
    /// Observations above the last bound.
    overflow: AtomicU64,
    /// Total observations.
    count: AtomicU64,
    /// Sum of observed values, microseconds (rendered as seconds).
    sum_us: AtomicU64,
}

impl Histogram {
    /// Records one observation of `us` microseconds.
    pub fn observe_us(&self, us: u64) {
        let secs = us as f64 / 1e6;
        match CHUNK_BUCKETS.iter().position(|&b| secs <= b) {
            Some(i) => self.buckets[i].fetch_add(1, Ordering::Relaxed),
            None => self.overflow.fetch_add(1, Ordering::Relaxed),
        };
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    fn render_into(&self, out: &mut String, name: &str, help: &str) {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
        let mut cumulative = 0u64;
        for (i, bound) in CHUNK_BUCKETS.iter().enumerate() {
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            out.push_str(&format!("{name}_bucket{{le=\"{bound}\"}} {cumulative}\n"));
        }
        let count = self.count();
        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {count}\n"));
        out.push_str(&format!(
            "{name}_sum {}\n{name}_count {count}\n",
            self.sum_us.load(Ordering::Relaxed) as f64 / 1e6
        ));
    }
}

/// Counters keyed by linear-solver factorization path (the
/// [`SolverStats::factor_path`](mems_netlist::SolverStats) names).
#[derive(Default)]
pub struct PathCounters {
    dense: AtomicU64,
    scalar: AtomicU64,
    other: AtomicU64,
}

impl PathCounters {
    /// Adds `n` to the counter for `path`.
    pub fn add(&self, path: &str, n: u64) {
        if n == 0 {
            return;
        }
        let slot = match path {
            "dense" => &self.dense,
            "scalar" => &self.scalar,
            _ => &self.other,
        };
        slot.fetch_add(n, Ordering::Relaxed);
    }

    /// Sum over every path.
    pub fn total(&self) -> u64 {
        [&self.dense, &self.scalar, &self.other]
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    fn series(&self) -> [(&'static str, u64); 3] {
        [
            ("dense", self.dense.load(Ordering::Relaxed)),
            ("scalar", self.scalar.load(Ordering::Relaxed)),
            ("other", self.other.load(Ordering::Relaxed)),
        ]
    }
}

/// The server's monotonic counters, updated by the accept loop,
/// connection handlers, and workers.
#[derive(Default)]
pub struct Metrics {
    /// Requests successfully parsed and routed.
    pub requests: AtomicU64,
    /// Protocol violations answered with a 4xx/5xx and a hangup.
    pub bad_requests: AtomicU64,
    /// Jobs admitted (201 answered).
    pub jobs_submitted: AtomicU64,
    /// Jobs that reached the `done` terminal state.
    pub jobs_done: AtomicU64,
    /// Jobs that reached the `cancelled` terminal state.
    pub jobs_cancelled: AtomicU64,
    /// Terminal jobs evicted from the registry at the `--job-cap`
    /// bound.
    pub jobs_evicted: AtomicU64,
    /// Submissions bounced off the active-job bound (429).
    pub rejected_busy: AtomicU64,
    /// Submissions bounced off a client's `--client-quota` (429).
    pub rejected_quota: AtomicU64,
    /// Submissions refused during the shutdown drain (503).
    pub rejected_draining: AtomicU64,
    /// Connections refused at the `--max-conns` cap (503).
    pub rejected_over_capacity: AtomicU64,
    /// Simulation points that produced a record.
    pub points_completed: AtomicU64,
    /// Points cancellation skipped.
    pub points_skipped: AtomicU64,
    /// Wall time of each retired scheduler chunk.
    pub chunk_seconds: Histogram,
    /// Fresh factorizations by factor path, summed over chunk deltas.
    pub solver_factors: PathCounters,
    /// Numeric-only refactorizations by factor path.
    pub solver_refactors: PathCounters,
    /// Refactors that gave up for a fresh re-pivoting factor.
    pub solver_fallbacks: AtomicU64,
    /// Microseconds spent computing fill-reducing orders (0-cost on
    /// ordering-cache hits — a warm machine stops moving this
    /// counter).
    pub solver_order_us: AtomicU64,
}

/// Point-in-time gauges the server derives at scrape time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gauges {
    /// Seconds since the server started.
    pub uptime_seconds: f64,
    /// Whether the graceful drain has begun.
    pub draining: bool,
    /// Connections currently being served.
    pub connections_active: usize,
    /// Scheduler chunks queued and not yet drawn by a worker.
    pub queue_depth_chunks: usize,
    /// Jobs admitted and not yet terminal.
    pub jobs_active: usize,
    /// Artifact-cache snapshot.
    pub artifact_cache: LruStats,
    /// Process-wide fill-ordering cache snapshot
    /// ([`mems_numerics::ordering::cache_stats`]).
    pub ordering_cache: LruStats,
    /// Durable-store snapshot; `None` when running memory-only
    /// (no `--data-dir`).
    pub store: Option<crate::store::StoreStats>,
}

fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

impl Metrics {
    /// Renders the full exposition document.
    pub fn render(&self, g: &Gauges) -> String {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut out = String::with_capacity(4096);

        family(
            &mut out,
            "mems_serve_uptime_seconds",
            "gauge",
            "Seconds since the server started.",
        );
        out.push_str(&format!("mems_serve_uptime_seconds {}\n", g.uptime_seconds));
        family(
            &mut out,
            "mems_serve_draining",
            "gauge",
            "1 once the graceful drain has begun.",
        );
        out.push_str(&format!("mems_serve_draining {}\n", u8::from(g.draining)));
        family(
            &mut out,
            "mems_serve_connections_active",
            "gauge",
            "Connections currently being served.",
        );
        out.push_str(&format!(
            "mems_serve_connections_active {}\n",
            g.connections_active
        ));
        family(
            &mut out,
            "mems_serve_queue_depth_chunks",
            "gauge",
            "Scheduler chunks queued and not yet drawn by a worker.",
        );
        out.push_str(&format!(
            "mems_serve_queue_depth_chunks {}\n",
            g.queue_depth_chunks
        ));
        family(
            &mut out,
            "mems_serve_jobs_active",
            "gauge",
            "Jobs admitted and not yet terminal.",
        );
        out.push_str(&format!("mems_serve_jobs_active {}\n", g.jobs_active));

        family(
            &mut out,
            "mems_serve_requests_total",
            "counter",
            "HTTP requests successfully parsed and routed.",
        );
        out.push_str(&format!(
            "mems_serve_requests_total {}\n",
            load(&self.requests)
        ));
        family(
            &mut out,
            "mems_serve_bad_requests_total",
            "counter",
            "Protocol violations answered with an error status.",
        );
        out.push_str(&format!(
            "mems_serve_bad_requests_total {}\n",
            load(&self.bad_requests)
        ));

        family(
            &mut out,
            "mems_serve_jobs_submitted_total",
            "counter",
            "Jobs admitted to the scheduler.",
        );
        out.push_str(&format!(
            "mems_serve_jobs_submitted_total {}\n",
            load(&self.jobs_submitted)
        ));
        family(
            &mut out,
            "mems_serve_jobs_total",
            "counter",
            "Jobs finished, by terminal state.",
        );
        out.push_str(&format!(
            "mems_serve_jobs_total{{state=\"done\"}} {}\n",
            load(&self.jobs_done)
        ));
        out.push_str(&format!(
            "mems_serve_jobs_total{{state=\"cancelled\"}} {}\n",
            load(&self.jobs_cancelled)
        ));
        family(
            &mut out,
            "mems_serve_jobs_evicted_total",
            "counter",
            "Terminal jobs evicted from the registry at the --job-cap bound.",
        );
        out.push_str(&format!(
            "mems_serve_jobs_evicted_total {}\n",
            load(&self.jobs_evicted)
        ));

        family(
            &mut out,
            "mems_serve_rejected_total",
            "counter",
            "Work refused, by reason (429 busy, 503 draining/over-capacity).",
        );
        out.push_str(&format!(
            "mems_serve_rejected_total{{reason=\"busy\"}} {}\n",
            load(&self.rejected_busy)
        ));
        out.push_str(&format!(
            "mems_serve_rejected_total{{reason=\"quota\"}} {}\n",
            load(&self.rejected_quota)
        ));
        out.push_str(&format!(
            "mems_serve_rejected_total{{reason=\"draining\"}} {}\n",
            load(&self.rejected_draining)
        ));
        out.push_str(&format!(
            "mems_serve_rejected_total{{reason=\"over_capacity\"}} {}\n",
            load(&self.rejected_over_capacity)
        ));

        family(
            &mut out,
            "mems_serve_points_total",
            "counter",
            "Simulation points, by outcome.",
        );
        out.push_str(&format!(
            "mems_serve_points_total{{outcome=\"completed\"}} {}\n",
            load(&self.points_completed)
        ));
        out.push_str(&format!(
            "mems_serve_points_total{{outcome=\"skipped\"}} {}\n",
            load(&self.points_skipped)
        ));

        family(
            &mut out,
            "mems_serve_cache_entries",
            "gauge",
            "Decks resident in the artifact cache.",
        );
        out.push_str(&format!(
            "mems_serve_cache_entries {}\n",
            g.artifact_cache.entries
        ));
        for (name, labels, help, stats) in [
            (
                "mems_serve_cache_events_total",
                "",
                "Artifact-cache lookups and evictions, by event.",
                &g.artifact_cache,
            ),
            (
                "mems_serve_ordering_cache_events_total",
                "cache=\"ordering\",",
                "Process-wide fill-ordering cache lookups and evictions.",
                &g.ordering_cache,
            ),
        ] {
            family(&mut out, name, "counter", help);
            for (event, n) in [
                ("hit", stats.hits),
                ("miss", stats.misses),
                ("eviction", stats.evictions),
            ] {
                out.push_str(&format!("{name}{{{labels}event=\"{event}\"}} {n}\n"));
            }
        }

        self.chunk_seconds.render_into(
            &mut out,
            "mems_serve_chunk_seconds",
            "Wall time per retired scheduler chunk.",
        );

        family(
            &mut out,
            "mems_serve_solver_factors_total",
            "counter",
            "Fresh (symbolic + numeric) factorizations, by factor path.",
        );
        for (path, n) in self.solver_factors.series() {
            out.push_str(&format!(
                "mems_serve_solver_factors_total{{path=\"{path}\"}} {n}\n"
            ));
        }
        family(
            &mut out,
            "mems_serve_solver_refactors_total",
            "counter",
            "Numeric-only refactorizations, by factor path.",
        );
        for (path, n) in self.solver_refactors.series() {
            out.push_str(&format!(
                "mems_serve_solver_refactors_total{{path=\"{path}\"}} {n}\n"
            ));
        }
        family(
            &mut out,
            "mems_serve_solver_fallbacks_total",
            "counter",
            "Linear-solver fast-path give-ups.",
        );
        out.push_str(&format!(
            "mems_serve_solver_fallbacks_total {}\n",
            load(&self.solver_fallbacks)
        ));
        family(
            &mut out,
            "mems_serve_solver_order_seconds_total",
            "counter",
            "Wall time spent computing fill-reducing orders (cache hits cost 0).",
        );
        out.push_str(&format!(
            "mems_serve_solver_order_seconds_total {}\n",
            load(&self.solver_order_us) as f64 / 1e6
        ));

        if let Some(s) = &g.store {
            family(
                &mut out,
                "mems_serve_store_jobs",
                "gauge",
                "Terminal jobs queryable from the durable spill.",
            );
            out.push_str(&format!("mems_serve_store_jobs {}\n", s.jobs));
            family(
                &mut out,
                "mems_serve_store_degraded",
                "gauge",
                "1 once a store I/O error dropped the server to memory-only mode.",
            );
            out.push_str(&format!(
                "mems_serve_store_degraded {}\n",
                u8::from(s.degraded)
            ));
            family(
                &mut out,
                "mems_serve_store_bytes_written_total",
                "counter",
                "Result-record bytes appended to the spill (framing included).",
            );
            out.push_str(&format!(
                "mems_serve_store_bytes_written_total {}\n",
                s.bytes_written
            ));
            family(
                &mut out,
                "mems_serve_store_writes_total",
                "counter",
                "Result records appended to the spill.",
            );
            out.push_str(&format!("mems_serve_store_writes_total {}\n", s.writes));
            family(
                &mut out,
                "mems_serve_store_replayed_jobs_total",
                "counter",
                "Jobs recovered from the data dir at startup.",
            );
            out.push_str(&format!(
                "mems_serve_store_replayed_jobs_total {}\n",
                s.replayed_jobs
            ));
            family(
                &mut out,
                "mems_serve_store_corrupt_records_total",
                "counter",
                "Torn or corrupt spill tails dropped on replay, never served.",
            );
            out.push_str(&format!(
                "mems_serve_store_corrupt_records_total {}\n",
                s.corrupt_records
            ));
            family(
                &mut out,
                "mems_serve_store_evicted_jobs_total",
                "counter",
                "Stored jobs evicted to enforce --spill-cap-bytes.",
            );
            out.push_str(&format!(
                "mems_serve_store_evicted_jobs_total {}\n",
                s.evicted_jobs
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Value of a sample line, by exact series name (with labels).
    fn sample(body: &str, series: &str) -> Option<f64> {
        body.lines()
            .find_map(|l| l.strip_prefix(&format!("{series} ")))
            .and_then(|v| v.parse().ok())
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = Histogram::default();
        h.observe_us(500); // 0.0005 s → le=0.001
        h.observe_us(3_000); // le=0.005
        h.observe_us(3_500); // le=0.005
        h.observe_us(20_000_000); // 20 s → +Inf only
        let mut out = String::new();
        h.render_into(&mut out, "t", "test histogram");
        assert!(out.contains("# TYPE t histogram\n"));
        assert_eq!(sample(&out, "t_bucket{le=\"0.001\"}"), Some(1.0));
        assert_eq!(sample(&out, "t_bucket{le=\"0.005\"}"), Some(3.0));
        assert_eq!(sample(&out, "t_bucket{le=\"5\"}"), Some(3.0));
        assert_eq!(sample(&out, "t_bucket{le=\"+Inf\"}"), Some(4.0));
        assert_eq!(sample(&out, "t_count"), Some(4.0));
        assert!((sample(&out, "t_sum").unwrap() - 20.007).abs() < 1e-9);
    }

    #[test]
    fn path_counters_route_and_total() {
        let p = PathCounters::default();
        p.add("scalar", 2);
        p.add("dense", 0); // no-op
        p.add("mystery", 1);
        assert_eq!(p.total(), 3);
        let series = p.series();
        assert_eq!(series[1], ("scalar", 2));
        assert_eq!(series[2], ("other", 1));
    }

    #[test]
    fn render_is_well_formed_exposition_text() {
        let m = Metrics::default();
        m.jobs_done.fetch_add(2, Ordering::Relaxed);
        m.rejected_busy.fetch_add(1, Ordering::Relaxed);
        m.chunk_seconds.observe_us(1_234);
        m.solver_factors.add("scalar", 5);
        let g = Gauges {
            uptime_seconds: 1.5,
            queue_depth_chunks: 7,
            artifact_cache: LruStats {
                hits: 3,
                ..LruStats::default()
            },
            ordering_cache: LruStats {
                evictions: 4,
                ..LruStats::default()
            },
            ..Gauges::default()
        };
        let body = m.render(&g);

        // Every sample line belongs to a family announced by a TYPE
        // line, and every line is `name value` or a comment.
        let mut announced = std::collections::HashSet::new();
        for line in body.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                announced.insert(rest.split(' ').next().unwrap().to_string());
                continue;
            }
            if line.starts_with("# HELP ") {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("name value");
            let name = series.split('{').next().unwrap();
            let family = name
                .strip_suffix("_bucket")
                .or_else(|| name.strip_suffix("_sum"))
                .or_else(|| name.strip_suffix("_count"))
                .unwrap_or(name);
            assert!(
                announced.contains(family),
                "sample `{line}` precedes its TYPE line"
            );
            value.parse::<f64>().expect("numeric value");
        }
        assert_eq!(
            sample(&body, "mems_serve_jobs_total{state=\"done\"}"),
            Some(2.0)
        );
        assert_eq!(
            sample(&body, "mems_serve_rejected_total{reason=\"busy\"}"),
            Some(1.0)
        );
        assert_eq!(sample(&body, "mems_serve_queue_depth_chunks"), Some(7.0));
        assert_eq!(
            sample(&body, "mems_serve_solver_factors_total{path=\"scalar\"}"),
            Some(5.0)
        );
        assert_eq!(sample(&body, "mems_serve_chunk_seconds_count"), Some(1.0));
        assert_eq!(
            sample(&body, "mems_serve_cache_events_total{event=\"hit\"}"),
            Some(3.0)
        );
        assert_eq!(
            sample(
                &body,
                "mems_serve_ordering_cache_events_total{cache=\"ordering\",event=\"eviction\"}"
            ),
            Some(4.0)
        );
    }

    #[test]
    fn store_families_render_only_when_enabled() {
        let m = Metrics::default();
        let g = Gauges {
            store: Some(crate::store::StoreStats {
                jobs: 3,
                degraded: true,
                corrupt_records: 1,
                ..Default::default()
            }),
            ..Gauges::default()
        };
        let body = m.render(&g);
        assert_eq!(sample(&body, "mems_serve_store_jobs"), Some(3.0));
        assert_eq!(sample(&body, "mems_serve_store_degraded"), Some(1.0));
        assert_eq!(
            sample(&body, "mems_serve_store_corrupt_records_total"),
            Some(1.0)
        );
        // Memory-only servers don't announce store families at all.
        let memory_only = m.render(&Gauges::default());
        assert!(!memory_only.contains("mems_serve_store_"));
    }
}
