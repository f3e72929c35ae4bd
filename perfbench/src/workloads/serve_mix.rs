//! `serve_mix`: a closed loop of 2 clients against an in-process
//! `mems serve` (`Server::start`, 2 workers, default limits). Each
//! client submits a seeded, stratified draw of the shipped decks over
//! one keep-alive connection and reads the chunked result stream to its
//! tail; one submission in four adds a comment line, so the artifact
//! cache misses. One iteration is one job, from the submit request to
//! the stream's tail chunk.
//!
//! Every streamed record must be byte-identical to what `mems sweep`
//! (or, for single-run decks, `mems run`) produces for the same deck in
//! this process, and those answers are checked against the goldens.

use super::systems_meta;
use crate::goldens::{check_snapshot, probe, Checks, Probes};
use crate::http::Client;
use crate::inputs::{decks_dir, SubmissionStream, SERVE_DECKS};
use crate::oracle;
use crate::pipeline::probe_hdl;
use crate::trace::{Recorder, TraceReport, ITERATION};
use crate::util::{median, peak_rss_mb, percentile, repeat_setup, secs, J};
use crate::{Outcome, RunArgs};
use mems_netlist::report::point_json;
use mems_netlist::{
    extract_metrics, run_batch, run_deck, BatchOptions, BatchPoint, Deck, FsResolver, PointResult,
};
use mems_serve::{Json, ServeConfig, Server};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Concurrent clients (one connection each).
pub const CLIENTS: usize = 2;
/// Server worker threads.
pub const WORKERS: usize = 2;

const SUBMIT: &str = "serve.submit";
const FIRST: &str = "serve.first_record";
const STREAM: &str = "serve.stream";

/// A deck's expected records and whether they passed the checks.
struct Expected {
    records: Vec<String>,
    verdict: Result<(), String>,
}

/// Record probes: `<deck>:p<index>:<metric>` and `…:param:<name>`.
fn record_probes(deck: &str, records: &[String]) -> Result<Probes, String> {
    let mut probes = Vec::new();
    for rec in records {
        let doc = Json::parse(rec)?;
        let index = doc
            .get("index")
            .and_then(Json::as_u64)
            .ok_or("record without index")?;
        if doc.get("status").and_then(Json::as_str) != Some("ok") {
            probes.push((format!("{deck}:p{index}:failed"), 1.0));
            continue;
        }
        for (group, key) in [("params", "param:"), ("metrics", "")] {
            if let Some(Json::Obj(fields)) = doc.get(group) {
                for (name, v) in fields {
                    let v = v.as_f64().unwrap_or(f64::NAN);
                    probes.push((format!("{deck}:p{index}:{key}{name}"), v));
                }
            }
        }
    }
    Ok(probes)
}

/// The analytic checks of each shipped deck's answers.
fn check_deck(checks: &mut Checks, deck: &str, probes: &Probes) {
    let get = |n: &str| probe(probes, &format!("{deck}:{n}")).unwrap_or(f64::NAN);
    let points = (0..)
        .take_while(|i| {
            probes
                .iter()
                .any(|(n, _)| n.starts_with(&format!("{deck}:p{i}:")))
        })
        .count();
    checks.that(&format!("{deck} answered"), points > 0, || {
        "no records".into()
    });
    for i in 0..points {
        checks.that(
            &format!("{deck} point {i}"),
            probe(probes, &format!("{deck}:p{i}:failed")).is_none(),
            || "simulation failed".into(),
        );
    }
    match deck {
        "resonator_step" => {
            for i in 0..points {
                // A 1 uN step force: the settled spring force equals the
                // drive at every stiffness.
                let f = get(&format!("p{i}:tran:i(kk,0):settled"));
                checks.close(
                    &format!("resonator point {i} settled force = 1 uN"),
                    f,
                    1e-6,
                    1e-3,
                );
            }
        }
        "eletran_transient" => {
            let resid =
                oracle::eletran_balance_residual(get("p0:tran:i(kk1,0):settled"), 10.0, 200.0);
            checks.that("eletran settled force balance", resid <= 1e-4, || {
                format!("relative residual {resid:e}")
            });
        }
        "bridge_cells" => {
            for i in 0..points {
                let f = get(&format!("p{i}:tran:i(x1.kk,0):settled"));
                let k = get(&format!("p{i}:param:x1.k"));
                let resid = oracle::eletran_balance_residual(f, 10.0, k);
                checks.that(
                    &format!("bridge point {i} force balance"),
                    resid <= 1e-3,
                    || format!("relative residual {resid:e} at k={k}"),
                );
            }
        }
        "speaker_ac" => {
            let (f, mag) = (get("p0:ac:v(cone):f_peak"), get("p0:ac:v(cone):peak_mag"));
            checks.that(
                "speaker peak near 216 Hz",
                (f - 216.0).abs() <= 0.05 * 216.0,
                || format!("peak at {f} Hz"),
            );
            checks.close(
                "speaker peak |v(cone)| vs closed form",
                mag,
                oracle::speaker_velocity(f),
                1e-6,
            );
            let step = 10f64.powf(1.0 / 30.0);
            let here = oracle::speaker_velocity(f);
            checks.that(
                "speaker peak is the closed form's grid maximum",
                here >= oracle::speaker_velocity(f * step)
                    && here >= oracle::speaker_velocity(f / step),
                || format!("closed form rises next to {f} Hz"),
            );
        }
        "relay_pull_in" => {
            let x = get("p0:dc:i(xrelay,0):last");
            checks.close(
                "relay x at 5.5 V vs static balance",
                x,
                oracle::relay_displacement(5.5),
                1e-6,
            );
        }
        "grid_cells" => {
            for i in 0..points {
                let r = get(&format!("p{i}:param:rcell"));
                let v = get(&format!("p{i}:op:v(n3_3)"));
                let want = oracle::grid_dc_corner(4, 4, r, 1e-12);
                checks.close(
                    &format!("grid_cells point {i} corner vs nodal solve"),
                    v,
                    want,
                    1e-6,
                );
            }
        }
        _ => {}
    }
}

/// What `mems sweep` / `mems run` answer for each shipped deck, checked.
fn expected(args: &RunArgs) -> Result<(Vec<Expected>, Probes, J), String> {
    let mut out = Vec::new();
    let mut all_probes = Vec::new();
    let mut systems = Vec::new();
    let snapshot = args.snapshot();
    for shipped in SERVE_DECKS {
        let mut resolver = FsResolver { base: decks_dir() };
        let deck = Deck::parse_with_includes(shipped.text, &mut resolver)
            .map_err(|e| e.render(shipped.text))?;
        let nominal = run_deck(&deck).map_err(|e| e.render(shipped.text))?;
        systems.push((shipped.name.to_string(), systems_meta(&nominal.solver)));
        let records: Vec<String> = if deck.step.is_some() || deck.mc.is_some() {
            let result = run_batch(&deck, &BatchOptions::with_threads(1))
                .map_err(|e| e.render(shipped.text))?;
            result.points.iter().map(point_json).collect()
        } else {
            vec![point_json(&PointResult {
                point: BatchPoint {
                    index: 0,
                    overrides: Vec::new(),
                },
                outcome: Ok(extract_metrics(&deck, &nominal)),
            })]
        };
        let probes = record_probes(shipped.name, &records)?;
        let mut checks = Checks::default();
        let prefix = format!("{}:", shipped.name);
        let goldens: Vec<_> = snapshot
            .iter()
            .filter(|g| g.probe.starts_with(&prefix))
            .cloned()
            .collect();
        check_snapshot(&mut checks, args.workload.name(), &probes, &goldens);
        check_deck(&mut checks, shipped.name, &probes);
        all_probes.extend(probes);
        out.push(Expected {
            records,
            verdict: if checks.ok() {
                Ok(())
            } else {
                Err(checks.failures.join("; "))
            },
        });
    }
    // A golden whose probe no deck produced is itself a failure.
    let mut checks = Checks::default();
    check_snapshot(&mut checks, args.workload.name(), &all_probes, &snapshot);
    if let (false, Some(first)) = (checks.ok(), out.first_mut()) {
        first.verdict = Err(checks.failures.join("; "));
    }
    Ok((out, all_probes, J::Obj(systems)))
}

/// One finished (or failed) job.
struct JobResult {
    deck: usize,
    variant: bool,
    latency_s: f64,
    records: usize,
    failure: Option<String>,
}

/// Job metadata read back in the traced phase.
#[derive(Default)]
struct JobMeta {
    miss_parse_s: Vec<f64>,
    built: u64,
    patched: u64,
    jobs: u64,
}

/// Submits one deck and streams its results; returns the job id, the
/// created instant, and the stream.
fn one_job(
    client: &mut Client,
    c: usize,
    text: &str,
) -> Result<(u64, Instant, crate::http::Streamed), String> {
    let resp = client
        .request("POST", &format!("/v1/jobs?client=c{c}"), text)
        .map_err(|e| format!("submit: {e}"))?;
    let created = Instant::now();
    if resp.status != 201 {
        return Err(format!(
            "submit refused with {}: {}",
            resp.status, resp.body
        ));
    }
    let id = Json::parse(&resp.body)?
        .get("id")
        .and_then(Json::as_u64)
        .ok_or("submit response without an id")?;
    let streamed = client
        .stream_results(id)
        .map_err(|e| format!("stream: {e}"))?;
    Ok((id, created, streamed))
}

/// A client's closed loop until `deadline`.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    addr: SocketAddr,
    seed: u64,
    stream_id: u64,
    c: usize,
    deadline: Instant,
    expected: &[Expected],
    traced: bool,
) -> (Vec<JobResult>, Recorder, JobMeta) {
    let mut rec = Recorder::new();
    let mut meta = JobMeta::default();
    let mut jobs = Vec::new();
    let mut client: Option<Client> = None;
    let mut subs = SubmissionStream::new(seed, stream_id);
    // Past the deadline the client finishes its block of 24, so every
    // run submits the same deck mix.
    while Instant::now() < deadline || !subs.at_block_boundary() {
        let sub = subs.next().expect("the stream is endless");
        let text = sub.text();
        if client.is_none() {
            client = Client::connect(addr).ok();
        }
        let Some(cl) = client.as_mut() else {
            jobs.push(JobResult {
                deck: sub.deck,
                variant: sub.variant.is_some(),
                latency_s: 0.0,
                records: 0,
                failure: Some("cannot connect".into()),
            });
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        let it = traced.then(|| rec.begin(ITERATION));
        let t0 = Instant::now();
        let job = one_job(cl, c, &text);
        let done = Instant::now();
        if let Some(it) = it {
            if let Ok((_, created, streamed)) = &job {
                let first = streamed.first_record.unwrap_or(done);
                rec.record(SUBMIT, (*created - t0).as_secs_f64());
                rec.record(FIRST, (first - *created).as_secs_f64());
                rec.record(STREAM, (done - first).as_secs_f64());
            }
            rec.end(it);
        }
        let want = &expected[sub.deck];
        let failure = match &job {
            Err(e) => Some(e.clone()),
            Ok((_, _, s)) if s.status != 200 => Some(format!("results answered {}", s.status)),
            Ok((_, _, s)) if !s.tail.contains("\"state\":\"done\"") => {
                Some(format!("job did not finish: {}", s.tail))
            }
            Ok((_, _, s)) if s.records != want.records => Some(format!(
                "{}: streamed records differ from the CLI's",
                SERVE_DECKS[sub.deck].name
            )),
            Ok(_) => want.verdict.clone().err(),
        };
        if job.is_err() {
            client = None;
        }
        if let (true, Ok((id, _, _)), Some(cl)) = (traced, &job, client.as_mut()) {
            if let Ok(resp) = cl.request("GET", &format!("/v1/jobs/{id}"), "") {
                if let Ok(doc) = Json::parse(&resp.body) {
                    let cache = doc.get("cache");
                    let num =
                        |j: Option<&Json>, k: &str| j.and_then(|j| j.get(k)).and_then(Json::as_u64);
                    meta.jobs += 1;
                    meta.built += num(cache, "circuits_built").unwrap_or(0);
                    meta.patched += num(cache, "circuits_patched").unwrap_or(0);
                    if cache.and_then(|c| c.get("hit")).and_then(Json::as_bool) == Some(false) {
                        let parse_us = num(doc.get("timing"), "parse_us").unwrap_or(0);
                        meta.miss_parse_s.push(parse_us as f64 * 1e-6);
                    }
                }
            }
        }
        jobs.push(JobResult {
            deck: sub.deck,
            variant: sub.variant.is_some(),
            latency_s: secs(t0),
            records: job.as_ref().map_or(0, |(_, _, s)| s.records.len()),
            failure,
        });
    }
    (jobs, rec, meta)
}

/// Prometheus counters of interest, summed over their label sets.
#[derive(Debug, Default, Clone, Copy)]
struct Scrape {
    cache_hits: f64,
    cache_misses: f64,
    lu: f64,
    chunk_busy_s: f64,
    refused: f64,
}

fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let body = client
        .request("GET", "/v1/metrics", "")
        .map_err(|e| e.to_string())?
        .body;
    let mut s = Scrape::default();
    for line in body.lines().filter(|l| !l.starts_with('#')) {
        let Some((key, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let v: f64 = value.parse().unwrap_or(0.0);
        match key {
            "mems_serve_cache_events_total{event=\"hit\"}" => s.cache_hits += v,
            "mems_serve_cache_events_total{event=\"miss\"}" => s.cache_misses += v,
            "mems_serve_chunk_seconds_sum" => s.chunk_busy_s += v,
            k if k.starts_with("mems_serve_solver_factors_total{")
                || k.starts_with("mems_serve_solver_refactors_total{") =>
            {
                s.lu += v;
            }
            k if k.starts_with("mems_serve_rejected_total{") => s.refused += v,
            _ => {}
        }
    }
    Ok(s)
}

/// One load phase: both clients until the deadline.
struct Phase {
    jobs: Vec<JobResult>,
    wall_s: f64,
    recorders: Vec<Recorder>,
    meta: JobMeta,
    delta: Scrape,
}

fn phase(
    addr: SocketAddr,
    args: &RunArgs,
    index: u64,
    seconds: f64,
    expected: &[Expected],
    traced: bool,
) -> Result<Phase, String> {
    let before = scrape(addr)?;
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let stream_id = index * CLIENTS as u64 + c as u64;
                s.spawn(move || {
                    client_loop(addr, args.seed, stream_id, c, deadline, expected, traced)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    let wall_s = secs(t0);
    let after = scrape(addr)?;
    let mut out = Phase {
        jobs: Vec::new(),
        wall_s,
        recorders: Vec::new(),
        meta: JobMeta::default(),
        delta: Scrape {
            cache_hits: after.cache_hits - before.cache_hits,
            cache_misses: after.cache_misses - before.cache_misses,
            lu: after.lu - before.lu,
            chunk_busy_s: after.chunk_busy_s - before.chunk_busy_s,
            refused: after.refused - before.refused,
        },
    };
    for (jobs, rec, meta) in results {
        out.jobs.extend(jobs);
        out.recorders.push(rec);
        out.meta.miss_parse_s.extend(meta.miss_parse_s);
        out.meta.built += meta.built;
        out.meta.patched += meta.patched;
        out.meta.jobs += meta.jobs;
    }
    Ok(out)
}

fn start_server() -> Result<(Server, SocketAddr), String> {
    let server = Server::start(ServeConfig {
        workers: WORKERS,
        include_dir: Some(decks_dir()),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("cannot start the server: {e}"))?;
    let addr = server.addr();
    let health = Client::connect(addr)
        .and_then(|mut c| c.request("GET", "/v1/health", ""))
        .map_err(|e| format!("health check: {e}"))?;
    if health.status != 200 {
        return Err(format!("health check answered {}", health.status));
    }
    Ok((server, addr))
}

fn stop(server: Server) {
    server.shutdown();
    server.join();
}

/// Runs `serve_mix`.
///
/// # Errors
///
/// A server that does not start, or a shipped deck that does not run
/// locally.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    // Set-up: a started, healthy server plus the CLI's answers every
    // streamed record is compared with.
    let ((server, addr, (expected, probes, systems)), setup_s) = repeat_setup(
        3,
        0.0,
        3,
        || {
            let (server, addr) = start_server()?;
            match expected(args) {
                Ok(e) => Ok((server, addr, e)),
                Err(e) => {
                    stop(server);
                    Err(e)
                }
            }
        },
        |(server, _, _)| stop(server),
    )?;
    let result = measure(args, addr, &expected);
    stop(server);
    let mut out = result?;
    out.probes = probes;
    out.set("setup_s", setup_s);
    out.set("peak_rss_mb", peak_rss_mb());
    out.meta.push(("clients".into(), J::Int(CLIENTS as u64)));
    out.meta
        .push(("server_workers".into(), J::Int(WORKERS as u64)));
    out.meta.push(("systems".into(), systems));
    Ok(out)
}

fn measure(args: &RunArgs, addr: SocketAddr, expected: &[Expected]) -> Result<Outcome, String> {
    let load = phase(addr, args, 0, args.untraced_seconds(), expected, false)?;
    let mut out = Outcome::default();
    let mut latencies = Vec::new();
    let mut records = 0usize;
    let mut completed = 0usize;
    let mut misses = 0usize;
    for job in &load.jobs {
        out.attempted += 1;
        records += job.records;
        misses += usize::from(job.variant);
        match &job.failure {
            Some(f) => out.fail(1, f.clone()),
            None => {
                completed += 1;
                latencies.push(job.latency_s);
            }
        }
    }
    let p50 = median(&latencies);
    let lu = load.delta.lu / completed.max(1) as f64;
    out.set("iter_p50_s", p50);
    out.set("job_p99_s", percentile(&latencies, 99.0));
    out.set("points_per_s", records as f64 / load.wall_s);
    out.set("lu_factorizations", lu);
    out.set("us_per_newton_iter", p50 * 1e6 / lu.max(1.0));
    let deck_p50 = SERVE_DECKS
        .iter()
        .enumerate()
        .map(|(d, shipped)| {
            let of_deck: Vec<f64> = load
                .jobs
                .iter()
                .filter(|j| j.deck == d && j.failure.is_none())
                .map(|j| j.latency_s)
                .collect();
            (shipped.name.to_string(), J::Num(median(&of_deck)))
        })
        .collect();
    out.meta = vec![
        ("jobs".into(), J::Int(load.jobs.len() as u64)),
        ("cache_miss_submissions".into(), J::Int(misses as u64)),
        ("records".into(), J::Int(records as u64)),
        ("job_p50_s_by_deck".into(), J::Obj(deck_p50)),
        (
            "job_latency_s".into(),
            J::Obj(
                [50.0, 90.0, 95.0, 98.0, 99.0, 100.0]
                    .iter()
                    .map(|p| (format!("p{p}"), J::Num(percentile(&latencies, *p))))
                    .collect(),
            ),
        ),
    ];

    if args.trace {
        let traced = phase(addr, args, 1, args.traced_seconds(), expected, true)?;
        let mut rec = Recorder::new();
        for r in traced.recorders {
            rec.absorb(r, None);
        }
        for job in &traced.jobs {
            out.attempted += 1;
            if let Some(f) = &job.failure {
                out.fail(1, f.clone());
            }
        }
        let mut report = TraceReport::from_spans(args.workload.name(), args.seed, &rec, p50, None);
        let hdl = probe_hdl(
            &mems_netlist::Deck::parse(crate::inputs::ELETRAN.text)
                .map_err(|e| e.render(crate::inputs::ELETRAN.text))?
                .hdl_blocks[0]
                .text,
        )?;
        let d = traced.delta;
        let jobs = traced.meta.jobs.max(1) as f64;
        out.set("trace.wall_s", report.wall_s);
        out.set("trace.remainder_s", report.remainder_s());
        out.set("trace.overhead_s", report.overhead_s());
        out.set("netlist.parser.s", median(&traced.meta.miss_parse_s));
        out.set(
            "netlist.elab.circuits_built",
            traced.meta.built as f64 / jobs,
        );
        out.set(
            "netlist.elab.circuits_patched",
            traced.meta.patched as f64 / jobs,
        );
        out.set("hdl.compile_s", hdl.compile_s);
        out.set("hdl.eval_pass_us", hdl.eval_pass_us);
        out.set("serve.submit_s", report.total(SUBMIT));
        out.set("serve.first_record_s", report.total(FIRST));
        out.set("serve.stream_s", report.total(STREAM));
        out.set(
            "serve.cache_hit_ratio",
            d.cache_hits / (d.cache_hits + d.cache_misses).max(1.0),
        );
        out.set(
            "serve.chunk_busy_s",
            d.chunk_busy_s / traced.jobs.len().max(1) as f64,
        );
        out.set("serve.refused", d.refused);
        report.labels = vec![
            ("jobs".into(), traced.jobs.len().to_string()),
            ("clients".into(), CLIENTS.to_string()),
            ("server_workers".into(), WORKERS.to_string()),
            (
                "netlist.parser.s".into(),
                "server-side parse_us of cache-miss jobs (parse + elaborate + point expansion)"
                    .into(),
            ),
        ];
        report.notes.push(format!(
            "cache hit ratio {:.3} over {} jobs; server chunk busy {:.6} s per job; {} refusals",
            d.cache_hits / (d.cache_hits + d.cache_misses).max(1.0),
            traced.jobs.len(),
            d.chunk_busy_s / traced.jobs.len().max(1) as f64,
            d.refused
        ));
        out.report = Some(report);
    }
    Ok(out)
}
