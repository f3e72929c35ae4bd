//! The daemon: accept loop, connection handling, request routing,
//! and the worker pool that retires scheduler chunks.

use crate::cache::ArtifactCache;
use crate::http::{
    error_body, read_request, respond, respond_chunked, respond_typed, ReadError, Request,
};
use crate::job::{Job, JobMeta};
use crate::json::Json;
use crate::metrics::{Gauges, Metrics};
use crate::sched::{Chunk, Refusal, Scheduler};
use crate::store::{JobStore, RealIo, StoreIo, StoredMeta};
use mems_netlist::report::{diagnostics_json, Diagnostic};
use mems_netlist::{
    run_points, warm_start_chain, Elaborator, FsResolver, IncludeResolver, NoIncludes, SolverStats,
};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration (the `mems serve` flags).
#[derive(Clone)]
pub struct ServeConfig {
    /// Bind address.
    pub host: String,
    /// Bind port (`0` = ephemeral; the chosen port is printed and
    /// exposed via [`Server::addr`]).
    pub port: u16,
    /// Worker threads. `0` spawns none — jobs queue forever; the
    /// check-only mode and the backpressure tests use this.
    pub workers: usize,
    /// Points per scheduler chunk (fair-share granularity *and* the
    /// cancellation latency bound).
    pub chunk_size: usize,
    /// Max active jobs before `POST /v1/jobs` answers 429.
    pub queue_cap: usize,
    /// Max *terminal* jobs kept resident in the registry
    /// (`--job-cap`). Every job retirement evicts the
    /// oldest-finished jobs over the cap, so a long-lived daemon's
    /// registry stays bounded; an evicted job's id answers 404.
    pub job_cap: usize,
    /// Max decks resident in the artifact cache.
    pub cache_cap: usize,
    /// Max simultaneous connections; excess connections are answered
    /// `503` and dropped (`--max-conns`).
    pub max_conns: usize,
    /// Per-connection socket read timeout — an idle or stalled peer is
    /// dropped after this long (`--read-timeout`).
    pub read_timeout: Duration,
    /// Base directory for `.INCLUDE` resolution; `None` rejects
    /// includes (the safe default for a network-facing daemon).
    pub include_dir: Option<PathBuf>,
    /// Lint service mode: only `/v1/check` and `/v1/health` answer;
    /// job submission is refused.
    pub check_only: bool,
    /// Durable job store directory (`--data-dir`): finished results
    /// spill here and survive restarts and `--job-cap` eviction.
    /// `None` keeps every job memory-only (the pre-store behavior).
    pub data_dir: Option<PathBuf>,
    /// Max bytes of spilled results kept on disk
    /// (`--spill-cap-bytes`); oldest stored jobs evict past this.
    pub spill_cap_bytes: u64,
    /// Max active jobs per client (`--client-quota`); `0` = unlimited.
    /// Over-quota submissions answer 429.
    pub client_quota: usize,
    /// Store I/O implementation. `None` uses the real filesystem;
    /// tests inject [`crate::store::FaultIo`] here to drive the
    /// degraded-mode paths against a live server.
    pub store_io: Option<Arc<dyn StoreIo>>,
}

impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeConfig")
            .field("host", &self.host)
            .field("port", &self.port)
            .field("workers", &self.workers)
            .field("chunk_size", &self.chunk_size)
            .field("queue_cap", &self.queue_cap)
            .field("job_cap", &self.job_cap)
            .field("cache_cap", &self.cache_cap)
            .field("max_conns", &self.max_conns)
            .field("read_timeout", &self.read_timeout)
            .field("include_dir", &self.include_dir)
            .field("check_only", &self.check_only)
            .field("data_dir", &self.data_dir)
            .field("spill_cap_bytes", &self.spill_cap_bytes)
            .field("client_quota", &self.client_quota)
            .field("store_io", &self.store_io.as_ref().map(|_| "<injected>"))
            .finish()
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            host: "127.0.0.1".to_string(),
            port: 0,
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            chunk_size: 8,
            queue_cap: 64,
            job_cap: 256,
            cache_cap: 32,
            max_conns: 256,
            read_timeout: Duration::from_secs(30),
            include_dir: None,
            check_only: false,
            data_dir: None,
            spill_cap_bytes: 256 << 20,
            client_quota: 0,
            store_io: None,
        }
    }
}

/// State shared by the accept loop, connection threads, and workers.
struct Shared {
    cache: ArtifactCache,
    sched: Scheduler,
    jobs: Mutex<HashMap<u64, Arc<Job>>>,
    job_cap: usize,
    next_id: AtomicU64,
    /// Global completion sequence (see [`JobMeta::finish_seq`]).
    finish_seq: AtomicU64,
    /// Monotonic counters for `/v1/metrics`.
    metrics: Metrics,
    /// Connections currently being served (the `max_conns` gauge).
    conns: AtomicUsize,
    max_conns: usize,
    read_timeout: Duration,
    include_dir: Option<PathBuf>,
    check_only: bool,
    started: Instant,
    /// The durable job store (`--data-dir`), absent in memory-only
    /// mode. Terminal jobs evicted from the registry — or left by a
    /// previous process — stay queryable through it.
    store: Option<Arc<JobStore>>,
}

impl Shared {
    fn job(&self, id: u64) -> Option<Arc<Job>> {
        self.jobs
            .lock()
            .expect("no poisoned registry lock")
            .get(&id)
            .cloned()
    }

    fn resolver(&self) -> Box<dyn IncludeResolver> {
        match &self.include_dir {
            Some(base) => Box::new(FsResolver { base: base.clone() }),
            None => Box::new(NoIncludes),
        }
    }
}

/// A running server. Dropping it without [`Server::shutdown`] +
/// [`Server::join`] detaches the threads (fine for tests; the CLI
/// always joins).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts the daemon: accept loop + worker pool.
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind((config.host.as_str(), config.port))?;
        let addr = listener.local_addr()?;
        let store = config.data_dir.as_ref().map(|dir| {
            let io = config
                .store_io
                .clone()
                .unwrap_or_else(|| Arc::new(RealIo) as Arc<dyn StoreIo>);
            Arc::new(JobStore::open(dir, config.spill_cap_bytes, io))
        });
        // Resume the id counter above everything on disk so restarted
        // ids never collide with stored jobs.
        let first_id = store.as_ref().map_or(0, |s| s.max_id());
        let shared = Arc::new(Shared {
            cache: ArtifactCache::new(config.cache_cap),
            sched: Scheduler::new(config.chunk_size, config.queue_cap, config.client_quota),
            jobs: Mutex::new(HashMap::new()),
            job_cap: config.job_cap.max(1),
            next_id: AtomicU64::new(first_id),
            finish_seq: AtomicU64::new(0),
            metrics: Metrics::default(),
            conns: AtomicUsize::new(0),
            max_conns: config.max_conns.max(1),
            read_timeout: config.read_timeout,
            include_dir: config.include_dir.clone(),
            check_only: config.check_only,
            started: Instant::now(),
            store,
        });

        let workers = (0..if config.check_only { 0 } else { config.workers })
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    while let Some(chunk) = shared.sched.next_chunk() {
                        run_chunk(&shared, &chunk);
                    }
                })
            })
            .collect();

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shared.sched.is_draining() {
                        break;
                    }
                    let Ok(mut stream) = stream else { continue };
                    // Connection cap: refuse loudly rather than let a
                    // connection flood pile up threads. The count is
                    // reserved here (not in the handler) so a burst
                    // cannot overshoot the cap before handlers start.
                    let admitted = shared
                        .conns
                        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                            (n < shared.max_conns).then_some(n + 1)
                        })
                        .is_ok();
                    if !admitted {
                        shared
                            .metrics
                            .rejected_over_capacity
                            .fetch_add(1, Ordering::Relaxed);
                        let _ = respond(
                            &mut stream,
                            503,
                            &[("Connection", "close"), ("Retry-After", "1")],
                            &error_body("connection limit reached"),
                        );
                        continue;
                    }
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || {
                        handle_connection(&shared, stream);
                        shared.conns.fetch_sub(1, Ordering::SeqCst);
                    });
                }
            })
        };

        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves `--port 0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates the graceful drain: no further submissions, queued
    /// chunks still retire, workers then exit. Idempotent; also
    /// triggered by `POST /v1/shutdown` and the CLI's Ctrl-C handler.
    pub fn shutdown(&self) {
        initiate_shutdown(&self.shared, self.addr);
    }

    /// A detachable shutdown handle (the CLI's signal watcher owns
    /// one while [`Server::join`] blocks the main thread).
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
            addr: self.addr,
        }
    }

    /// Blocks until the drain completes (accept loop + workers gone).
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// A cloneable remote control for a running [`Server`].
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// Initiates the graceful drain (see [`Server::shutdown`]).
    pub fn shutdown(&self) {
        initiate_shutdown(&self.shared, self.addr);
    }
}

fn initiate_shutdown(shared: &Shared, addr: SocketAddr) {
    shared.sched.drain();
    // Self-connect to unblock the accept loop's blocking `incoming`.
    let _ = TcpStream::connect(addr);
}

/// Folds the factor/refactor/fallback/stamp deltas between two
/// [`RunCtx::solver_snapshot`](mems_netlist::RunCtx::solver_snapshot)
/// calls into the metrics counters, attributed to each system's
/// current factor path. Saturating: a rebuilt system restarts its
/// counters at zero, and a negative delta must not wrap. `bytes` is a
/// level, not a counter, so it has no delta to fold.
fn record_solver_deltas(
    metrics: &Metrics,
    before: &[(&'static str, SolverStats)],
    after: &[(&'static str, SolverStats)],
) {
    for (domain, now) in after {
        let past = before
            .iter()
            .find(|(d, _)| d == domain)
            .map_or_else(SolverStats::default, |(_, s)| *s);
        metrics
            .solver_factors
            .add(now.factor_path, now.factors.saturating_sub(past.factors));
        metrics.solver_refactors.add(
            now.factor_path,
            now.refactors.saturating_sub(past.refactors),
        );
        for (counter, now, past) in [
            (&metrics.solver_fallbacks, now.fallbacks, past.fallbacks),
            (&metrics.solver_stamps, now.stamps, past.stamps),
            (
                &metrics.solver_stamp_misses,
                now.stamp_misses,
                past.stamp_misses,
            ),
        ] {
            counter.fetch_add(now.saturating_sub(past), Ordering::Relaxed);
        }
        // A fresh factorization is the only event that can have paid
        // for an ordering; `order_us` is already 0 when it came from
        // the machine-wide ordering cache.
        if now.factors > past.factors {
            metrics
                .solver_order_us
                .fetch_add(now.order_us, Ordering::Relaxed);
        }
    }
}

/// Evicts oldest-finished terminal jobs over the `--job-cap` bound,
/// keeping a long-lived daemon's registry from growing without limit.
/// Streams already holding an `Arc<Job>` keep working. With a durable
/// store the eviction is a *demotion*: the job stays queryable from
/// its spill (status + results); memory-only servers answer 404 for
/// evicted ids like any unknown job.
fn retire_jobs(shared: &Shared) {
    let mut jobs = shared.jobs.lock().expect("no poisoned registry lock");
    let mut terminal: Vec<(u64, u64)> = jobs
        .values()
        .filter(|j| j.state().is_terminal())
        .map(|j| (j.meta().finish_seq, j.id))
        .collect();
    if terminal.len() <= shared.job_cap {
        return;
    }
    terminal.sort_unstable();
    let excess = terminal.len() - shared.job_cap;
    for &(_, id) in &terminal[..excess] {
        jobs.remove(&id);
    }
    shared
        .metrics
        .jobs_evicted
        .fetch_add(excess as u64, Ordering::Relaxed);
}

/// Runs one scheduler chunk on a checked-out cache context, through
/// the batch engine's one point loop, [`run_points`].
fn run_chunk(shared: &Shared, chunk: &Chunk) {
    let job = &chunk.job;
    let chunk_t0 = Instant::now();
    let mut meta = JobMeta::default();
    if !job.cancel.is_cancelled() {
        let entry = &job.entry;
        let (mut ctx, warm) = entry.checkout();
        meta.warm_checkout = warm;
        // An Elaborator borrows the deck the cached entry owns, so the
        // entry cannot keep one beside it: each chunk elaborates once.
        // HDL model compilation is cheap, and the expensive artifacts
        // (workspace, sparse pattern and ordering) live in the pooled
        // context.
        if let Ok(elab) = Elaborator::new(&entry.deck) {
            let guesses = job.guesses.get_or_init(|| {
                warm_start_chain(&entry.deck, &elab, &job.points, false, &job.cancel)
            });
            let solver_before = ctx.solver_snapshot();
            let panics = run_points(
                &elab,
                &job.points,
                guesses.as_deref(),
                &job.cancel,
                &mut ctx,
                chunk.start..chunk.end,
                |result| {
                    let index = result.point.index;
                    let rendered = job.record(index, &result);
                    // Spill the finished record (plain append, no
                    // fsync — off the hot path; durability against
                    // machine crash comes from the finalize-time fsync).
                    if let Some(store) = &shared.store {
                        store.append(job.id, index as u32, rendered.as_bytes());
                    }
                    shared
                        .metrics
                        .points_completed
                        .fetch_add(1, Ordering::Relaxed);
                },
            );
            shared
                .metrics
                .panics
                .fetch_add(panics as u64, Ordering::Relaxed);
            let solver_after = ctx.solver_snapshot();
            // The busiest system that has factored: stats accumulate
            // over the pooled context, so this covers the whole chunk.
            meta.solver = solver_after
                .iter()
                .map(|(_, st)| *st)
                .filter(|st| st.factors + st.refactors > 0)
                .max_by_key(|st| st.factors + st.refactors);
            record_solver_deltas(&shared.metrics, &solver_before, &solver_after);
        }
        entry.checkin(ctx);
    }
    if job.cancel.is_cancelled() {
        let gaps = job.mark_cancelled_gaps(chunk.start..chunk.end);
        // Spill the cancelled markers too, so a stored cancelled job
        // streams the same complete point list as a live one.
        if let Some(store) = &shared.store {
            for (index, rendered) in &gaps {
                store.append(job.id, *index as u32, rendered.as_bytes());
            }
        }
        shared
            .metrics
            .points_skipped
            .fetch_add(gaps.len() as u64, Ordering::Relaxed);
    }
    shared
        .metrics
        .chunk_seconds
        .observe_us(chunk_t0.elapsed().as_micros() as u64);
    if job.finish_chunk(meta) {
        // End-of-job accounting happens *before* `publish_terminal`:
        // a client that has seen the terminal state (stream tail,
        // status poll) must also see the counters it implies.
        let cancelled = job.skipped() > 0;
        let terminal = if cancelled {
            &shared.metrics.jobs_cancelled
        } else {
            &shared.metrics.jobs_done
        };
        terminal.fetch_add(1, Ordering::Relaxed);
        // Seal the spill *before* the terminal state is observable:
        // whoever sees `done` may immediately be evicted-and-served
        // from disk, so the disk copy must already be complete.
        if let Some(store) = &shared.store {
            store.finalize(
                job.id,
                if cancelled { "cancelled" } else { "done" },
                job.completed(),
                job.skipped(),
            );
        }
        job.publish_terminal(&shared.finish_seq);
        shared.sched.job_retired(&job.client);
        retire_jobs(shared);
    }
}

/// Serves one connection (HTTP/1.1 keep-alive loop with a read
/// timeout — an idle or stalled peer is dropped, not held forever).
fn handle_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.read_timeout));
    // Every response frame is already one write. Left on, Nagle
    // would still hold a frame while an earlier one is unacknowledged,
    // which the client's delayed ACK stretches to ~40 ms.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut stream = stream;
    loop {
        match read_request(&mut reader) {
            Ok(Some(req)) => {
                shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
                let close = req.wants_close();
                match route(shared, &mut stream, &req) {
                    Ok(force_close) => {
                        if force_close || close {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            }
            Ok(None) => break,
            Err(ReadError::Protocol { status, message }) => {
                // The framing can no longer be trusted; answer the
                // violation and hang up.
                shared.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
                let _ = respond(
                    &mut stream,
                    status,
                    &[("Connection", "close")],
                    &error_body(&message),
                );
                break;
            }
            // Timeouts and resets: hang up silently.
            Err(ReadError::Io(_)) => break,
        }
    }
}

/// Dispatches one request. Returns `true` when the connection must
/// close even though the client asked keep-alive (an unframed
/// HTTP/1.0 stream is delimited by EOF).
fn route(shared: &Shared, stream: &mut TcpStream, req: &Request) -> std::io::Result<bool> {
    let path = req.path.trim_matches('/').to_string();
    let segments: Vec<&str> = path.split('/').collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["v1", "health"]) => health(shared, stream)?,
        ("GET", ["v1", "metrics"]) => metrics(shared, stream)?,
        ("POST", ["v1", "check"]) => check(shared, stream, req)?,
        ("POST", ["v1", "jobs"]) => submit(shared, stream, req)?,
        ("GET", ["v1", "jobs", id]) => match find_job(shared, id) {
            Some(JobRef::Live(job)) => respond(stream, 200, &[], &job.status_json())?,
            Some(JobRef::Stored(meta)) => respond(stream, 200, &[], &meta.status_json())?,
            None => respond(stream, 404, &[], &error_body("no such job"))?,
        },
        ("GET", ["v1", "jobs", id, "results"]) => {
            return stream_results(shared, stream, id, req);
        }
        ("DELETE", ["v1", "jobs", id]) => match find_job(shared, id) {
            // Cancelling a job that already reached a terminal state
            // is an idempotent no-op: 200 with the status, without
            // tripping the cancel token — tripping it would race the
            // terminal publication and could flip a `done` job's
            // state string mid-flight.
            Some(JobRef::Live(job)) => {
                if job.state().is_terminal() {
                    respond(stream, 200, &[], &job.status_json())?;
                } else {
                    job.cancel.cancel();
                    respond(stream, 202, &[], &job.status_json())?;
                }
            }
            Some(JobRef::Stored(meta)) => respond(stream, 200, &[], &meta.status_json())?,
            None => respond(stream, 404, &[], &error_body("no such job"))?,
        },
        ("POST", ["v1", "shutdown"]) => {
            let addr = stream.local_addr()?;
            respond(stream, 202, &[], "{\"ok\":true,\"draining\":true}")?;
            initiate_shutdown(shared, addr);
        }
        _ => respond(stream, 404, &[], &error_body("no such endpoint"))?,
    }
    Ok(false)
}

/// `GET /v1/jobs/:id/results[?from=K][&wait=0]`: streams the result
/// records from `from` as a chunked transfer-coded body, each record
/// flushed as its point finishes — a 100k-point job's results never
/// buffer whole, and a watcher sees records live. With `wait=0` the
/// response is the old non-blocking poll: only records already
/// finished, plus a `next` cursor to resume from. A job evicted to the
/// durable store streams from its spill in the same frame — for a
/// `done` job the body is byte-identical to what the live server sent
/// — while its records are contiguous from `from` (a crash-recovered
/// job serves its durable prefix; the `next` cursor is honest about
/// where it ends). HTTP/1.0 clients predate chunked coding and get a
/// raw close-delimited body instead (the returned `true` forces the
/// close).
fn stream_results(
    shared: &Shared,
    stream: &mut TcpStream,
    id: &str,
    req: &Request,
) -> std::io::Result<bool> {
    let from = req
        .query("from")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(0);
    let wait = req.query("wait") != Some("0");
    let framed = req.http11;
    let Some(job) = find_job(shared, id) else {
        respond(stream, 404, &[], &error_body("no such job"))?;
        return Ok(false);
    };
    // A live job hands out each record as it finishes (with `wait=0`,
    // only finished ones); a stored one reads its spill once.
    let mut spilled: Vec<Option<String>> = Vec::new();
    let (id, total) = match &job {
        JobRef::Live(job) => (job.id, job.points.len()),
        JobRef::Stored(meta) => {
            spilled.resize(meta.points, None);
            let records = shared.store.as_ref().and_then(|s| s.read_results(meta.id));
            for (index, record) in records.unwrap_or_default() {
                if let Some(slot) = spilled.get_mut(index as usize) {
                    *slot = Some(record);
                }
            }
            (meta.id, meta.points)
        }
    };
    let mut record_at = |i: usize| match &job {
        JobRef::Live(job) if wait => job.wait_result(i),
        JobRef::Live(job) => job.result_at(i),
        JobRef::Stored(_) => spilled.get_mut(i).and_then(Option::take),
    };

    let mut w = respond_chunked(stream, 200, &[], framed);
    w.write_chunk(
        format!("{{\"id\":{id},\"from\":{from},\"total\":{total},\"points\":[").as_bytes(),
    )?;
    let mut next = from;
    while let Some(record) = record_at(next) {
        let mut chunk = Vec::with_capacity(record.len() + 1);
        if next > from {
            chunk.push(b',');
        }
        chunk.extend_from_slice(record.as_bytes());
        w.write_chunk(&chunk)?;
        next += 1;
    }
    // The tail carries the cursor and the state — which is only
    // honest *after* the records: a blocking stream outlives the
    // submit-time state.
    let state = match &job {
        JobRef::Live(job) => job.state().name(),
        JobRef::Stored(meta) => &meta.state,
    };
    w.finish(format!("],\"next\":{next},\"state\":\"{state}\"}}").as_bytes())?;
    Ok(!framed)
}

/// Where a job id resolved: the live registry, or the durable store
/// (a job evicted by `--job-cap` or left by a previous process).
enum JobRef {
    Live(Arc<Job>),
    Stored(StoredMeta),
}

/// Resolves a job id: live registry first, then the durable store.
fn find_job(shared: &Shared, id: &str) -> Option<JobRef> {
    let id = id.parse::<u64>().ok()?;
    if let Some(job) = shared.job(id) {
        return Some(JobRef::Live(job));
    }
    let meta = shared.store.as_ref()?.lookup(id)?;
    Some(JobRef::Stored(meta))
}

fn health(shared: &Shared, stream: &mut TcpStream) -> std::io::Result<()> {
    let (active, total) = {
        let jobs = shared.jobs.lock().expect("no poisoned registry lock");
        let active = jobs.values().filter(|j| !j.state().is_terminal()).count();
        (active, jobs.len())
    };
    let store = shared.store.as_ref().map(|s| s.stats());
    let cache = shared.cache.stats();
    let body = format!(
        concat!(
            "{{\"ok\":true,\"check_only\":{},\"draining\":{},\"uptime_us\":{},",
            "\"jobs\":{{\"active\":{},\"total\":{}}},",
            "\"cache\":{{\"entries\":{},\"hits\":{},\"misses\":{}}},",
            "\"store\":{{\"enabled\":{},\"jobs\":{},\"degraded\":{}}}}}"
        ),
        shared.check_only,
        shared.sched.is_draining(),
        shared.started.elapsed().as_micros(),
        active,
        total,
        cache.entries,
        cache.hits,
        cache.misses,
        store.is_some(),
        store.as_ref().map_or(0, |s| s.jobs),
        store.as_ref().is_some_and(|s| s.degraded),
    );
    respond(stream, 200, &[], &body)
}

/// `GET /v1/metrics`: the Prometheus text-format scrape.
fn metrics(shared: &Shared, stream: &mut TcpStream) -> std::io::Result<()> {
    let gauges = Gauges {
        uptime_seconds: shared.started.elapsed().as_secs_f64(),
        draining: shared.sched.is_draining(),
        connections_active: shared.conns.load(Ordering::SeqCst),
        queue_depth_chunks: shared.sched.queue_depth(),
        jobs_active: shared.sched.active_jobs(),
        artifact_cache: shared.cache.stats(),
        ordering_cache: mems_numerics::ordering::cache_stats(),
        store: shared.store.as_ref().map(|s| s.stats()),
    };
    let body = shared.metrics.render(&gauges);
    respond_typed(stream, 200, "text/plain; version=0.0.4", &[], &body)
}

/// `POST /v1/check`: parse + elaborate, answer the shared
/// machine-readable diagnostics format (also emitted by
/// `mems check --json`).
fn check(shared: &Shared, stream: &mut TcpStream, req: &Request) -> std::io::Result<()> {
    let source = match deck_source(req) {
        Ok(s) => s,
        Err(msg) => return respond(stream, 400, &[], &error_body(&msg)),
    };
    let mut resolver = shared.resolver();
    let outcome = shared.cache.resolve(&source, &mut *resolver);
    let body = match outcome {
        Ok(_) => "{\"ok\":true,\"diagnostics\":[]}".to_string(),
        Err(e) => format!(
            "{{\"ok\":false,\"diagnostics\":{}}}",
            diagnostics_json(&source, &[Diagnostic::from_error(&e)])
        ),
    };
    respond(stream, 200, &[], &body)
}

/// `POST /v1/jobs`: admit a deck submission.
fn submit(shared: &Shared, stream: &mut TcpStream, req: &Request) -> std::io::Result<()> {
    if shared.check_only {
        return respond(stream, 403, &[], &error_body("server is check-only"));
    }
    if shared.sched.is_draining() {
        shared
            .metrics
            .rejected_draining
            .fetch_add(1, Ordering::Relaxed);
        return respond(stream, 503, &[], &error_body("server is shutting down"));
    }
    let (source, client) = match submission(req) {
        Ok(parts) => parts,
        Err(msg) => return respond(stream, 400, &[], &error_body(&msg)),
    };

    let t0 = Instant::now();
    let mut resolver = shared.resolver();
    let (entry, lookup) = match shared.cache.resolve(&source, &mut *resolver) {
        Ok(resolved) => resolved,
        Err(e) => {
            let body = format!(
                "{{\"error\":\"invalid deck\",\"diagnostics\":{}}}",
                diagnostics_json(&source, &[Diagnostic::from_error(&e)])
            );
            return respond(stream, 400, &[], &body);
        }
    };
    let parse_us = match lookup {
        crate::cache::Lookup::Hit => 0,
        crate::cache::Lookup::Miss => t0.elapsed().as_micros() as u64,
    };

    let points = entry.job_points();
    let chunks = shared.sched.chunks_for(points.len());
    let id = shared.next_id.fetch_add(1, Ordering::SeqCst) + 1;
    let job = Arc::new(Job::new(
        id, client, entry, lookup, points, chunks, parse_us,
    ));
    // Open the spill *before* admission: a worker may draw the job's
    // first chunk the instant `submit` returns, and its records must
    // find the writer already registered.
    if let Some(store) = &shared.store {
        store.begin(
            job.id,
            &job.client,
            job.points.len(),
            job.entry.fingerprint.value(),
        );
    }
    // Register before admission too: a worker may finish the job
    // before `submit` returns, and its retirement pass must count it
    // against `--job-cap`.
    let registry = || shared.jobs.lock().expect("no poisoned registry lock");
    registry().insert(id, Arc::clone(&job));
    match shared.sched.submit(&job) {
        Ok(()) => {
            shared
                .metrics
                .jobs_submitted
                .fetch_add(1, Ordering::Relaxed);
            respond(stream, 201, &[], &job.status_json())
        }
        Err(refusal) => {
            registry().remove(&id);
            if let Some(store) = &shared.store {
                store.discard(job.id);
            }
            match refusal {
                Refusal::Busy => {
                    shared.metrics.rejected_busy.fetch_add(1, Ordering::Relaxed);
                    respond(
                        stream,
                        429,
                        &[("Retry-After", "1")],
                        &error_body("job queue is full"),
                    )
                }
                Refusal::OverQuota => {
                    shared
                        .metrics
                        .rejected_quota
                        .fetch_add(1, Ordering::Relaxed);
                    respond(
                        stream,
                        429,
                        &[("Retry-After", "1")],
                        &error_body("client active-job quota reached"),
                    )
                }
                Refusal::Draining => {
                    shared
                        .metrics
                        .rejected_draining
                        .fetch_add(1, Ordering::Relaxed);
                    respond(stream, 503, &[], &error_body("server is shutting down"))
                }
            }
        }
    }
}

/// The deck source of a check/submit request: either the `deck`
/// member of a JSON body, or the raw body for `text/plain`
/// submissions (the curl-friendly path).
fn deck_source(req: &Request) -> Result<String, String> {
    let text = req.body_text()?.to_string();
    if text.is_empty() {
        return Err("empty request body".to_string());
    }
    let is_json = req
        .header("content-type")
        .is_some_and(|ct| ct.to_ascii_lowercase().contains("json"));
    if !is_json {
        return Ok(text);
    }
    let doc = Json::parse(&text).map_err(|e| format!("bad JSON body: {e}"))?;
    doc.get("deck")
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| "JSON body needs a string `deck` member".to_string())
}

/// Splits a submission into deck source and fair-share client id
/// (JSON `client` member, else `?client=` query, else `"anon"`).
fn submission(req: &Request) -> Result<(String, String), String> {
    let source = deck_source(req)?;
    let from_json = || -> Option<String> {
        let doc = Json::parse(req.body_text().ok()?).ok()?;
        doc.get("client").and_then(Json::as_str).map(str::to_string)
    };
    let is_json = req
        .header("content-type")
        .is_some_and(|ct| ct.to_ascii_lowercase().contains("json"));
    let client = if is_json { from_json() } else { None }
        .or_else(|| req.query("client").map(str::to_string))
        .unwrap_or_else(|| "anon".to_string());
    Ok((source, client))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mems_netlist::{CancelToken, RunCtx};

    #[test]
    fn a_panicking_point_is_counted_in_the_metrics() {
        let server = Server::start(ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        })
        .unwrap();
        let shared = &server.shared;
        let deck = "r\n.param k=200\nIs 0 vel PWL(0 0 0.1m 1u)\nMm1 vel 0 1e-4\nKk1 vel 0 {k}\n\
                    Dd1 vel 0 40e-3\n.tran 0.5m 5m\n.print tran v(vel)\n\
                    .step param k list 200 300\n";
        let (entry, lookup) = shared.cache.resolve(deck, &mut NoIncludes).unwrap();
        // Pool a context whose workspace fits the deck but whose
        // residual was emptied: the first point run on it panics.
        let points = entry.job_points();
        let mut ctx = RunCtx::default();
        let elab = Elaborator::new(&entry.deck).unwrap();
        run_points(
            &elab,
            &points,
            None,
            &CancelToken::new(),
            &mut ctx,
            [0],
            |_| {},
        );
        ctx.ws.as_mut().unwrap().resid.clear();
        entry.checkin(ctx);

        let job = Arc::new(Job::new(1, "t".into(), entry, lookup, points, 1, 0));
        shared.sched.submit(&job).unwrap();
        let chunk = shared.sched.next_chunk().unwrap();
        run_chunk(shared, &chunk);

        let failed = job.result_at(0).unwrap();
        assert!(failed.contains("\"error\":\"internal error: "), "{failed}");
        let ok = job.result_at(1).unwrap();
        assert!(ok.contains("\"status\":\"ok\""), "{ok}");
        assert!(shared
            .metrics
            .render(&Gauges::default())
            .contains("\nmems_serve_panics_total 1\n"));
        server.shutdown();
        server.join();
    }
}
