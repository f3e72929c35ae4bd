//! End-to-end benchmark of the `mems` deck pipeline.
//!
//! Four workloads drive generated decks through the public entry
//! points the CLI and the service use — `Deck::parse`,
//! `Elaborator::new` + `run_elaborated_ctx` (`mems run`), `run_batch`
//! (`mems sweep`) and `Server::start` + HTTP (`mems serve`) — and check
//! every answer against goldens. An untraced run reports the
//! end-to-end metrics; a traced run (`--trace 1`) re-drives the same
//! work with spans around each layer's public calls and reports the
//! per-layer metrics. See `README.md` in this directory.

pub mod goldens;
pub mod http;
pub mod inputs;
pub mod oracle;
pub mod pipeline;
pub mod trace;
pub mod util;
pub mod workloads;

use goldens::Golden;
use inputs::GridShape;
use trace::TraceReport;
use util::J;

/// Better direction of a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// A metric's declaration: name, unit, better direction.
pub type MetricSpec = (&'static str, &'static str, Better);

/// End-to-end metrics, reported by every untraced run of every
/// workload.
pub const END_TO_END: &[MetricSpec] = &[
    ("setup_s", "s", Better::Lower),
    ("iter_p50_s", "s", Better::Lower),
    ("job_p99_s", "s", Better::Lower),
    ("points_per_s", "1/s", Better::Higher),
    ("us_per_newton_iter", "us", Better::Lower),
    ("lu_factorizations", "count", Better::Lower),
    ("peak_rss_mb", "MB", Better::Lower),
];

/// Per-layer metrics, reported by every traced run. A layer the
/// workload does not reach did no work there and reports 0.
pub const PER_LAYER: &[MetricSpec] = &[
    ("failed_frac", "frac", Better::Lower),
    ("trace.wall_s", "s", Better::Lower),
    ("trace.remainder_s", "s", Better::Lower),
    ("trace.overhead_s", "s", Better::Lower),
    ("netlist.parser.s", "s", Better::Lower),
    ("netlist.elab.new_s", "s", Better::Lower),
    ("netlist.elab.build_s", "s", Better::Lower),
    ("netlist.elab.patch_s", "s", Better::Lower),
    ("netlist.elab.circuits_built", "count", Better::Lower),
    ("netlist.elab.circuits_patched", "count", Better::Lower),
    ("hdl.compile_s", "s", Better::Lower),
    ("hdl.eval_pass_us", "us", Better::Lower),
    ("spice.analysis.op_s", "s", Better::Lower),
    ("spice.analysis.ac_s", "s", Better::Lower),
    ("spice.analysis.tran_s", "s", Better::Lower),
    ("spice.analysis.tran_points", "count", Better::Lower),
    ("spice.solver.assemble_us", "us", Better::Lower),
    (
        "spice.solver.newton_iters_per_point",
        "count",
        Better::Lower,
    ),
    ("numerics.order_s", "s", Better::Lower),
    ("numerics.factor_cold_s", "s", Better::Lower),
    ("numerics.refactor_us", "us", Better::Lower),
    ("numerics.solve_us", "us", Better::Lower),
    ("numerics.fill_ratio", "ratio", Better::Lower),
    ("numerics.fallbacks", "count", Better::Lower),
    ("numerics.supernodes", "count", Better::Lower),
    ("netlist.batch.point_p50_s", "s", Better::Lower),
    ("netlist.batch.warm_chain_s", "s", Better::Lower),
    ("netlist.batch.parallel_eff", "ratio", Better::Higher),
    ("serve.submit_s", "s", Better::Lower),
    ("serve.first_record_s", "s", Better::Lower),
    ("serve.stream_s", "s", Better::Lower),
    ("serve.cache_hit_ratio", "ratio", Better::Higher),
    ("serve.chunk_busy_s", "s", Better::Lower),
    ("serve.refused", "count", Better::Lower),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One cold `mems run` of the 101×101 grid deck.
    GridCold,
    /// One `mems run` of the 25×25 grid transient, caches warm.
    GridTran,
    /// One `mems sweep` of the Listing-1 `.MC` deck on 2 threads.
    HdlMc,
    /// Two closed-loop clients against an in-process `mems serve`.
    ServeMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::GridCold,
        Workload::GridTran,
        Workload::HdlMc,
        Workload::ServeMix,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GridCold => "grid_cold",
            Workload::GridTran => "grid_tran",
            Workload::HdlMc => "hdl_mc",
            Workload::ServeMix => "serve_mix",
        }
    }

    /// Why the workload exists (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::GridCold => "cold mems run of a 101x101 grid (n=50602): parse, elaborate, ND ordering, symbolic and supernodal factor, real and complex",
            Workload::GridTran => "25x25 grid transient (n=3026) with warm caches: the Newton loop of assembly and refactor, where supernodal falls back to scalar",
            Workload::HdlMc => "200-point .MC sweep of the Listing-1 eletran transient on 2 threads: HDL evaluation, dense LU, step control, patching, batch pool",
            Workload::ServeMix => "2 closed-loop clients submit the shipped decks to mems serve, 1 in 4 a cache miss: http, scheduler, artifact cache, warm and cold jobs",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Workload sizes; tests shrink them, measured runs use [`Scale::full`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// `grid_cold` deck shape.
    pub grid_cold: GridShape,
    /// `grid_tran` deck shape.
    pub grid_tran: GridShape,
    /// `.MC` points per `hdl_mc` iteration.
    pub mc_points: usize,
}

impl Scale {
    /// The sizes the benchmark measures.
    pub fn full() -> Scale {
        Scale {
            grid_cold: inputs::GRID_COLD,
            grid_tran: inputs::GRID_TRAN,
            mc_points: inputs::MC_POINTS,
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// Workload sizes.
    pub scale: Scale,
    /// Snapshot goldens to check; `None` checks the committed ones when
    /// the seed and scale are the ones they were recorded at.
    pub goldens: Option<Vec<Golden>>,
}

impl RunArgs {
    /// Arguments for a full-size run.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> RunArgs {
        RunArgs {
            workload,
            seed,
            seconds,
            trace,
            scale: Scale::full(),
            goldens: None,
        }
    }

    /// The snapshot goldens that apply to this run.
    pub fn snapshot(&self) -> Vec<Golden> {
        match &self.goldens {
            Some(g) => g.clone(),
            None if self.seed == inputs::DEFAULT_SEED && self.scale == Scale::full() => {
                goldens::committed()
            }
            None => Vec::new(),
        }
    }

    /// Seconds of untraced iterations: the whole window, or the first
    /// 40% of a traced run (its overhead reference).
    pub fn untraced_seconds(&self) -> f64 {
        if self.trace {
            0.4 * self.seconds
        } else {
            self.seconds
        }
    }

    /// Seconds of traced iterations (0 in an untraced run).
    pub fn traced_seconds(&self) -> f64 {
        if self.trace {
            0.6 * self.seconds
        } else {
            0.0
        }
    }
}

/// What one invocation measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (iterations, batch points, jobs).
    pub attempted: u64,
    /// Operations that failed, were refused, or mismatched a golden.
    pub failed: u64,
    /// Why they failed.
    pub failures: Vec<String>,
    /// Metric values by name (end-to-end or per-layer).
    pub values: Vec<(&'static str, f64)>,
    /// Run metadata beyond the common block.
    pub meta: Vec<(String, J)>,
    /// The traced run's report.
    pub report: Option<TraceReport>,
    /// Probes of the first checked operation (for `--print-probes`).
    pub probes: goldens::Probes,
}

impl Outcome {
    /// Sets a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.retain(|(n, _)| *n != name);
        // `+ 0.0` turns the -0.0 of an empty sum into 0.
        self.values.push((name, value + 0.0));
    }

    /// Value of a metric, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Counts `n` failed operations of the kind `what`.
    pub fn fail(&mut self, n: u64, what: String) {
        self.failed += n;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// Folds check results over `ops` operations that share one output.
    pub fn apply_checks(&mut self, ops: u64, checks: &goldens::Checks) {
        if !checks.ok() {
            self.fail(ops, checks.failures.join("; "));
        }
    }

    /// The metrics this run must print: every end-to-end metric, or
    /// every per-layer one (unreached layers as 0).
    ///
    /// # Errors
    ///
    /// An end-to-end metric the workload did not set.
    pub fn metrics(&self, trace: bool) -> Result<Vec<(MetricSpec, f64)>, String> {
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        if trace {
            Ok(PER_LAYER
                .iter()
                .map(|spec| {
                    let v = match spec.0 {
                        "failed_frac" => failed_frac,
                        name => self.get(name).unwrap_or(0.0),
                    };
                    (*spec, v)
                })
                .collect())
        } else {
            END_TO_END
                .iter()
                .map(|spec| {
                    self.get(spec.0)
                        .map(|v| (*spec, v))
                        .ok_or_else(|| format!("workload did not report `{}`", spec.0))
                })
                .collect()
        }
    }
}

/// Runs one invocation.
///
/// # Errors
///
/// Set-up failures (a deck that does not parse, a server that does not
/// bind); output mismatches are counted in the outcome instead.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    match args.workload {
        Workload::GridCold => workloads::grid::run(args, args.scale.grid_cold, true),
        Workload::GridTran => workloads::grid::run(args, args.scale.grid_tran, false),
        Workload::HdlMc => workloads::hdl_mc::run(args),
        Workload::ServeMix => workloads::serve_mix::run(args),
    }
}
