//! `mems` — the command-line driver for the SPICE-deck frontend.
//!
//! ```sh
//! mems check deck.cir              # parse + elaborate, report problems
//! mems check deck.cir --json       # machine-readable diagnostics
//! mems run deck.cir                # run the deck's analyses, print tables
//! mems run deck.cir --csv out.csv  # CSV instead ("-" = stdout)
//! mems run deck.cir --json         # machine-readable report on stdout
//! mems plot deck.cir --probe x1.mid    # terminal ASCII plots
//! mems sweep deck.cir --threads 8  # run the .STEP/.MC batch in parallel
//! mems sweep deck.cir --json pts.json  # per-point metrics + failure logs
//! mems serve --port 8787           # long-lived simulation service
//! ```

use mems_netlist::{report, run_deck, BatchOptions, CancelToken, Deck, FsResolver, NetlistError};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
mems — SPICE-deck frontend for the MEMS transducer tool chain

USAGE:
    mems <COMMAND> <deck.cir> [OPTIONS]
    mems serve [OPTIONS]

COMMANDS:
    check    Parse and elaborate the deck; report diagnostics and a summary
    run      Run the deck's analysis cards (.OP/.DC/.AC/.TRAN)
    plot     Run the deck and render terminal ASCII plots of the traces
    sweep    Run the deck's .STEP/.MC batch across worker threads
    serve    Run the HTTP/1.1 + JSON simulation service (artifact cache,
             fair-share scheduler; Ctrl-C drains gracefully)

OPTIONS:
    --csv [FILE]     Emit CSV instead of tables (FILE defaults to `-` = stdout)
    --json [FILE]    Emit a machine-readable JSON report (diagnostics for
                     `check`; per-point metrics and failure logs for `sweep`;
                     FILE defaults to `-`; mutually exclusive with --csv)
    --probe TRACE    Trace to plot (repeatable; `v(x1.mid)`, `i(kk,0)`, or a
                     bare — possibly hierarchical — node path like `x1.mid`;
                     default: the deck's .PRINT selection)
    --rows N         Plot height in rows (default 16)
    --cols N         Plot width in columns (default 72)
    --threads N      Worker threads for `sweep` (default: all cores)
    --order KIND     Sparse fill-reducing ordering: `auto` (default;
                     nested dissection at scale, AMD below), `nd`,
                     `amd`, or `natural`; overrides the deck's
                     `.options order=`
    --log-x          Plot `.AC` magnitude over log10(frequency)
    --db             Plot `.AC` magnitude in dB (20·log10)

SERVE OPTIONS:
    --host ADDR      Bind address (default 127.0.0.1)
    --port N         Bind port (default 8787; 0 picks an ephemeral port)
    --workers N      Simulation worker threads (default: all cores)
    --chunk N        Points per scheduler chunk (default 8)
    --queue-cap N    Max active jobs before submissions answer 429 (default 64)
    --job-cap N      Max terminal jobs kept queryable in the registry;
                     oldest-finished evict beyond this (default 256)
    --cache-cap N    Max decks resident in the artifact cache (default 32)
    --max-conns N    Max simultaneous connections; excess answers 503
                     (default 256)
    --read-timeout S Per-connection socket read timeout in seconds;
                     idle/stalled peers are dropped (default 30)
    --include-dir D  Resolve deck .INCLUDEs under D (default: refuse includes)
    --data-dir D     Durable job store: journal job metadata and spill
                     finished results under D so jobs survive restarts
                     and --job-cap eviction (default: memory only)
    --spill-cap-bytes N  Max bytes of spilled results kept on disk;
                     oldest stored jobs evict beyond this (default 256 MiB)
    --client-quota N Max active jobs per client; over-quota submissions
                     answer 429 (default: unlimited)
    --check-only     Lint service: only /v1/check and /v1/health answer
    -h, --help       Show this help
    -V, --version    Show the version
";

struct Args {
    command: String,
    deck_path: PathBuf,
    csv: Option<String>,
    json: Option<String>,
    probes: Vec<String>,
    rows: usize,
    cols: usize,
    threads: usize,
    order: Option<String>,
    log_x: bool,
    db: bool,
    serve: mems_serve::ServeConfig,
}

/// Takes an option's optional value: the next token is consumed as
/// the output file unless it is another option (`-` alone means
/// stdout, the default).
fn optional_value<'a>(it: &mut std::iter::Peekable<impl Iterator<Item = &'a String>>) -> String {
    let next_is_value = it.peek().is_some_and(|n| !n.starts_with('-') || *n == "-");
    if next_is_value {
        it.next().expect("peeked").clone()
    } else {
        "-".to_string()
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut command = None;
    let mut deck_path = None;
    let mut csv = None;
    let mut json = None;
    let mut probes = Vec::new();
    let mut rows = 16usize;
    let mut cols = 72usize;
    let mut threads = 0usize;
    let mut order = None;
    let mut log_x = false;
    let mut db = false;
    let mut serve = mems_serve::ServeConfig {
        port: 8787,
        ..mems_serve::ServeConfig::default()
    };
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let count = |it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>,
                     what: &str|
         -> Result<usize, String> {
            let v = it.next().ok_or_else(|| format!("{what} needs a value"))?;
            let n: usize = v.parse().map_err(|_| format!("bad {what} value `{v}`"))?;
            if n == 0 {
                return Err(format!("{what} must be at least 1"));
            }
            Ok(n)
        };
        match arg.as_str() {
            "-h" | "--help" => return Err(String::new()),
            "-V" | "--version" => return Err(format!("mems {}", env!("CARGO_PKG_VERSION"))),
            "--csv" => csv = Some(optional_value(&mut it)),
            "--json" => json = Some(optional_value(&mut it)),
            "--log-x" => log_x = true,
            "--db" => db = true,
            "--order" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--order needs `nd`, `amd`, `natural`, or `auto`".to_string())?
                    .to_ascii_lowercase();
                if !matches!(v.as_str(), "nd" | "amd" | "natural" | "auto") {
                    return Err(format!(
                        "bad --order value `{v}` (nd, amd, natural, or auto)"
                    ));
                }
                order = Some(v);
            }
            "--probe" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--probe needs a trace or node name".to_string())?;
                probes.push(v.clone());
            }
            "--rows" => rows = count(&mut it, "--rows")?,
            "--cols" => cols = count(&mut it, "--cols")?,
            "--threads" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--threads needs a value".to_string())?;
                threads = v
                    .parse()
                    .map_err(|_| format!("bad --threads value `{v}`"))?;
            }
            "--host" => {
                serve.host = it
                    .next()
                    .ok_or_else(|| "--host needs an address".to_string())?
                    .clone();
            }
            "--port" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--port needs a value".to_string())?;
                serve.port = v.parse().map_err(|_| format!("bad --port value `{v}`"))?;
            }
            "--workers" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--workers needs a value".to_string())?;
                serve.workers = v
                    .parse()
                    .map_err(|_| format!("bad --workers value `{v}`"))?;
            }
            "--chunk" => serve.chunk_size = count(&mut it, "--chunk")?,
            "--queue-cap" => serve.queue_cap = count(&mut it, "--queue-cap")?,
            "--job-cap" => serve.job_cap = count(&mut it, "--job-cap")?,
            "--cache-cap" => serve.cache_cap = count(&mut it, "--cache-cap")?,
            "--max-conns" => serve.max_conns = count(&mut it, "--max-conns")?,
            "--read-timeout" => {
                serve.read_timeout =
                    std::time::Duration::from_secs(count(&mut it, "--read-timeout")? as u64);
            }
            "--include-dir" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--include-dir needs a directory".to_string())?;
                serve.include_dir = Some(PathBuf::from(v));
            }
            "--data-dir" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--data-dir needs a directory".to_string())?;
                serve.data_dir = Some(PathBuf::from(v));
            }
            "--spill-cap-bytes" => {
                serve.spill_cap_bytes = count(&mut it, "--spill-cap-bytes")? as u64;
            }
            "--client-quota" => serve.client_quota = count(&mut it, "--client-quota")?,
            "--check-only" => serve.check_only = true,
            other if other.starts_with('-') && other != "-" => {
                return Err(format!("unknown option `{other}`"));
            }
            other => {
                if command.is_none() {
                    command = Some(other.to_string());
                } else if deck_path.is_none() {
                    deck_path = Some(PathBuf::from(other));
                } else {
                    return Err(format!("unexpected argument `{other}`"));
                }
            }
        }
    }
    let command = command.ok_or_else(|| "missing command".to_string())?;
    if !matches!(
        command.as_str(),
        "check" | "run" | "plot" | "sweep" | "serve"
    ) {
        return Err(format!("unknown command `{command}`"));
    }
    let deck_path = if command == "serve" {
        deck_path.unwrap_or_default()
    } else {
        deck_path.ok_or_else(|| "missing deck file".to_string())?
    };
    if csv.is_some() && json.is_some() {
        return Err("--csv and --json are mutually exclusive".to_string());
    }
    Ok(Args {
        command,
        deck_path,
        csv,
        json,
        probes,
        rows,
        cols,
        threads,
        order,
        log_x,
        db,
        serve,
    })
}

/// SIGINT plumbing without a signal crate: a raw `signal(2)` FFI
/// registration flips a flag; a watcher thread turns the flag into a
/// cooperative action (batch cancel or server drain). After the first
/// Ctrl-C the default disposition is restored, so a second one kills
/// a stuck process the usual way.
#[cfg(unix)]
mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TRIPPED: AtomicBool = AtomicBool::new(false);
    const SIGINT: i32 = 2;
    const SIG_DFL: usize = 0;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_: i32) {
        TRIPPED.store(true, Ordering::SeqCst);
    }

    /// Installs the handler and spawns the watcher; `action` runs
    /// once, on the first Ctrl-C.
    pub fn watch(action: impl FnOnce() + Send + 'static) {
        let handler = on_signal as extern "C" fn(i32);
        unsafe { signal(SIGINT, handler as usize) };
        std::thread::spawn(move || {
            while !TRIPPED.load(Ordering::SeqCst) {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            unsafe { signal(SIGINT, SIG_DFL) };
            action();
        });
    }
}

#[cfg(not(unix))]
mod sigint {
    /// No signal wiring off Unix; Ctrl-C keeps its default behavior.
    pub fn watch(_action: impl FnOnce() + Send + 'static) {}
}

fn load_deck(path: &Path) -> Result<Deck, String> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
    let base = path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf);
    let mut resolver = FsResolver { base };
    Deck::parse_with_includes(&src, &mut resolver).map_err(|e| e.render(&src))
}

fn emit(csv_target: &str, content: &str) -> Result<(), String> {
    if csv_target == "-" {
        print!("{content}");
        Ok(())
    } else {
        std::fs::write(csv_target, content).map_err(|e| format!("cannot write `{csv_target}`: {e}"))
    }
}

/// `mems check --json`: machine-readable diagnostics (the same
/// format `mems serve`'s `/v1/check` endpoint emits), plus a summary
/// on success. Parses its own file so parse failures land in the
/// JSON diagnostics instead of the human excerpt renderer.
fn cmd_check_json(path: &Path) -> Result<(), String> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
    let base = path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf);
    let mut resolver = FsResolver { base };
    let outcome = (|| -> Result<String, NetlistError> {
        let deck = Deck::parse_with_includes(&src, &mut resolver)?;
        let elab = mems_netlist::Elaborator::new(&deck)?;
        let points = match mems_netlist::batch_points_with(&elab) {
            Ok(points) => points.len(),
            Err(NetlistError::Elab { span: None, .. }) => 0,
            Err(e) => return Err(e),
        };
        let (mut ckt, _) = elab.build(&Default::default(), None)?;
        let layout = ckt.layout();
        Ok(format!(
            concat!(
                "{{\"ok\":true,\"deck\":\"{}\",\"nodes\":{},\"devices\":{},",
                "\"unknowns\":{},\"batch_points\":{},\"diagnostics\":[]}}"
            ),
            report::json_escape(&deck.title),
            layout.n_nodes - 1,
            ckt.devices().len(),
            layout.n_unknowns,
            points,
        ))
    })();
    match outcome {
        Ok(body) => {
            println!("{body}");
            Ok(())
        }
        Err(e) => {
            println!(
                "{{\"ok\":false,\"diagnostics\":{}}}",
                report::diagnostics_json(&src, &[report::Diagnostic::from_error(&e)])
            );
            // The JSON on stdout is the report; fail without a
            // second, human-format rendering on stderr.
            Err(String::new())
        }
    }
}

fn cmd_check(deck: &Deck) -> Result<(), String> {
    let elab = mems_netlist::Elaborator::new(deck).map_err(|e| e.render(&deck.source))?;
    let (mut ckt, env) = elab
        .build(&Default::default(), None)
        .map_err(|e| e.render(&deck.source))?;
    let layout = ckt.layout();
    println!("deck:      {}", deck.title);
    println!("nodes:     {} (+ ground)", layout.n_nodes - 1);
    println!("devices:   {}", ckt.devices().len());
    println!("unknowns:  {}", layout.n_unknowns);
    if !env.is_empty() {
        let mut names: Vec<_> = env.iter().collect();
        names.sort_by(|a, b| a.0.cmp(b.0));
        println!(
            "params:    {}",
            names
                .iter()
                .map(|(k, v)| format!("{k}={v:.6e}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    println!(
        "analyses:  {}",
        deck.analyses
            .iter()
            .map(|a| format!(".{}", a.kind_name()))
            .collect::<Vec<_>>()
            .join(" ")
    );
    match mems_netlist::batch_points_with(&elab) {
        Ok(points) => println!("batch:     {} points", points.len()),
        Err(NetlistError::Elab { span: None, .. }) => println!("batch:     (no .STEP/.MC)"),
        Err(e) => return Err(e.render(&deck.source)),
    }
    println!("ok");
    Ok(())
}

fn cmd_run(deck: &Deck, csv: Option<&str>, json: Option<&str>) -> Result<(), String> {
    let run = run_deck(deck).map_err(|e| e.render(&deck.source))?;
    match (json, csv) {
        (Some(target), _) => emit(target, &report::run_json(deck, &run)),
        (None, Some(target)) => {
            let mut out = String::new();
            for (i, (card, outcome)) in run.outcomes.iter().enumerate() {
                if run.outcomes.len() > 1 {
                    out.push_str(&format!("# analysis {} (.{})\n", i, card.kind_name()));
                }
                out.push_str(&report::outcome_csv(deck, outcome));
            }
            emit(target, &out)
        }
        (None, None) => {
            print!("{}", report::run_report(deck, &run));
            Ok(())
        }
    }
}

fn cmd_plot(deck: &Deck, probes: &[String], opts: &report::PlotOptions) -> Result<(), String> {
    // A run records only the printed traces; a probe may name any
    // unknown, so probes plot a run of the deck without its `.PRINT`.
    let run = if probes.is_empty() {
        run_deck(deck)
    } else {
        let mut every = deck.clone();
        every.prints.clear();
        run_deck(&every)
    }
    .map_err(|e| e.render(&deck.source))?;
    if run.outcomes.is_empty() {
        return Err("deck declares no analyses to plot".to_string());
    }
    let rendered = report::run_plot(deck, &run, probes, opts)?;
    print!("{rendered}");
    Ok(())
}

fn cmd_sweep(
    deck: &Deck,
    csv: Option<&str>,
    json: Option<&str>,
    threads: usize,
) -> Result<(), String> {
    // Ctrl-C stops the batch at the next point boundary; the partial
    // batch still reports (unvisited points carry cancelled errors).
    let cancel = CancelToken::new();
    sigint::watch({
        let cancel = cancel.clone();
        move || {
            eprintln!("interrupt: stopping at the next point boundary (Ctrl-C again to kill)");
            cancel.cancel();
        }
    });
    let result = mems_netlist::run_batch(
        deck,
        &BatchOptions {
            threads,
            cancel: Some(cancel),
        },
    )
    .map_err(|e| e.render(&deck.source))?;
    if result.cancelled {
        eprintln!(
            "cancelled: {}/{} points simulated",
            result.ok_count(),
            result.points.len()
        );
    }
    match (json, csv) {
        (Some(target), _) => emit(target, &report::batch_json(&result)),
        (None, Some(target)) => emit(target, &report::batch_csv(&result)),
        (None, None) => {
            print!("{}", report::batch_report(&result));
            Ok(())
        }
    }
}

/// `mems serve`: run the daemon until a drain (Ctrl-C or
/// `POST /v1/shutdown`) completes.
fn cmd_serve(config: mems_serve::ServeConfig) -> Result<(), String> {
    let server =
        mems_serve::Server::start(config.clone()).map_err(|e| format!("cannot bind: {e}"))?;
    println!(
        "mems serve listening on http://{}{}",
        server.addr(),
        if config.check_only {
            " (check-only)"
        } else {
            ""
        }
    );
    let handle = server.handle();
    sigint::watch(move || {
        eprintln!("interrupt: draining (Ctrl-C again to kill)");
        handle.shutdown();
    });
    server.join();
    println!("mems serve drained");
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) if msg.starts_with("mems ") => {
            println!("{msg}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // `serve` needs no deck; `check --json` parses its own so parse
    // errors land in the machine-readable diagnostics.
    if args.command == "serve" {
        return match cmd_serve(args.serve) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("{msg}");
                ExitCode::FAILURE
            }
        };
    }
    if args.command == "check" && args.json.is_some() {
        return match cmd_check_json(&args.deck_path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                if !msg.is_empty() {
                    eprintln!("{msg}");
                }
                ExitCode::FAILURE
            }
        };
    }
    let mut deck = match load_deck(&args.deck_path) {
        Ok(d) => d,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    // The CLI `--order` is appended after the deck's own `.OPTIONS`,
    // so the CLI wins (options apply in order).
    if let Some(order) = &args.order {
        deck.options.push((
            "order".to_string(),
            mems_netlist::expr::NumExpr {
                node: mems_netlist::expr::ExprNode::Ident(order.clone()),
                span: mems_hdl::span::Span::new(0, 0),
            },
        ));
    }
    let outcome = match args.command.as_str() {
        "check" => cmd_check(&deck),
        "run" => cmd_run(&deck, args.csv.as_deref(), args.json.as_deref()),
        "plot" => cmd_plot(
            &deck,
            &args.probes,
            &report::PlotOptions {
                rows: args.rows,
                cols: args.cols,
                log_x: args.log_x,
                db: args.db,
            },
        ),
        "sweep" => cmd_sweep(
            &deck,
            args.csv.as_deref(),
            args.json.as_deref(),
            args.threads,
        ),
        _ => unreachable!("validated in parse_args"),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
