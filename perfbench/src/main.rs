//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid_cold --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Prints a metadata line, then (last line of stdout) the result:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. `--trace 1`
//! reports the per-layer metrics instead, prints the per-layer table
//! on stderr and writes it to `perfbench/out/`. `--print-probes`
//! prints the run's probed outputs in the form of the committed
//! snapshot-golden table.

use mems_perfbench::util::{self, J};
use mems_perfbench::{inputs, Better, RunArgs, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <grid_cold|grid_tran|hdl_mc|serve_mix> \
[--seed N] [--seconds S] [--trace 0|1] [--print-probes]";

struct Cli {
    args: RunArgs,
    print_probes: bool,
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = inputs::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut print_probes = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::from_name(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "bad --seconds".to_string())?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace value `{other}`")),
                }
            }
            "--print-probes" => print_probes = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    Ok(Cli {
        args: RunArgs::new(workload, seed, seconds, trace),
        print_probes,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&argv) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let args = &cli.args;
    let out = match mems_perfbench::run(args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("error: {} failed to run: {msg}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    if cli.print_probes {
        for (name, value) in &out.probes {
            println!("    (\"{}\", \"{name}\", {value:e}),", args.workload.name());
        }
        return ExitCode::SUCCESS;
    }
    let metrics = match out.metrics(args.trace) {
        Ok(m) => m,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };

    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let checkout = root.parent().map(PathBuf::from).unwrap_or_default();
    let mut meta = vec![
        ("workload".to_string(), J::s(args.workload.name())),
        ("seed".into(), J::Int(args.seed)),
        ("seconds".into(), J::Num(args.seconds)),
        ("trace".into(), J::Bool(args.trace)),
        ("nproc".into(), J::Int(util::nproc() as u64)),
        (
            "mems_factor_threads".into(),
            J::s(std::env::var("MEMS_FACTOR_THREADS").unwrap_or_else(|_| "unset".into())),
        ),
        ("git_rev".into(), J::s(util::git_rev(&checkout))),
        ("source_digest".into(), J::s(util::source_digest(&checkout))),
        (
            "snapshot_goldens".into(),
            J::Int(args.snapshot().len() as u64),
        ),
    ];
    meta.extend(out.meta.iter().cloned());
    let metrics_json = J::Obj(
        metrics
            .iter()
            .map(|((name, unit, _), v)| {
                (
                    (*name).to_string(),
                    J::Obj(vec![
                        ("value".into(), J::Num(*v)),
                        ("unit".into(), J::s(*unit)),
                    ]),
                )
            })
            .collect(),
    );
    for failure in &out.failures {
        eprintln!("FAILED: {failure}");
    }
    let mut record = vec![
        ("meta".to_string(), J::Obj(meta.clone())),
        ("metrics".into(), metrics_json.clone()),
        (
            "better".into(),
            J::Obj(
                metrics
                    .iter()
                    .map(|((name, _, better), _)| {
                        let b = if *better == Better::Higher {
                            "higher"
                        } else {
                            "lower"
                        };
                        ((*name).to_string(), J::s(b))
                    })
                    .collect(),
            ),
        ),
    ];
    if let Some(report) = &out.report {
        eprint!("{}", report.table());
        record.push(("trace".into(), report.to_json()));
    }
    let dir = root.join("out");
    let file = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&file, J::Obj(record).render() + "\n"))
    {
        eprintln!("warning: cannot write {}: {e}", file.display());
    }

    println!("{}", J::Obj(vec![("meta".into(), J::Obj(meta))]).render());
    let result = J::Obj(vec![
        ("correct".into(), J::Bool(out.failed == 0)),
        ("attempted".into(), J::Int(out.attempted)),
        ("failed".into(), J::Int(out.failed)),
        ("metrics".into(), metrics_json),
    ]);
    println!("{}", result.render());
    ExitCode::SUCCESS
}
