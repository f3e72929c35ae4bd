//! Job lifecycle: one submitted deck run (single point or a full
//! `.STEP`/`.MC` batch), its per-point results, cancellation handle,
//! and the cache/timing metadata the HTTP API reports.

use crate::cache::{DeckEntry, Lookup};
use mems_netlist::report::{json_escape, point_json, solver_stats_json};
use mems_netlist::{BatchPoint, CancelToken, PointResult, RunStats, SolverStats, CANCELLED_POINT};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Where a job is in its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Chunks are queued, none finished yet.
    Queued,
    /// At least one chunk has run; more remain.
    Running,
    /// Cancellation requested; workers are still retiring chunks.
    Cancelling,
    /// Every point simulated.
    Done,
    /// Cancelled by `DELETE`; unvisited points carry
    /// [`CANCELLED_POINT`] failures. Terminal.
    Cancelled,
}

impl JobState {
    /// Wire name of the state.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Cancelling => "cancelling",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether no further results can arrive.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Cancelled)
    }
}

/// Aggregated run metadata, reported on `GET /v1/jobs/:id`.
#[derive(Debug, Default, Clone, Copy)]
pub struct JobMeta {
    /// Reuse counters summed over every chunk's context.
    pub stats: RunStats,
    /// Whether any chunk checked out a context that already carried
    /// artifacts (circuits / symbolic factorization).
    pub warm_checkout: bool,
    /// Linear-solver snapshot from the busiest chunk (the one whose
    /// context had performed the most factor + refactor calls) —
    /// reports which backend/ordering/factorization path served the
    /// job and what it cost.
    pub solver: Option<SolverStats>,
    /// Completion stamp from the server's monotonic sequence (0 while
    /// unfinished) — lets tests assert finish *order* without racing
    /// on wall-clock.
    pub finish_seq: u64,
}

/// One submitted job.
pub struct Job {
    /// Server-unique id.
    pub id: u64,
    /// Fair-share queue key (from the request's `client` field).
    pub client: String,
    /// The cached deck this job runs.
    pub entry: Arc<DeckEntry>,
    /// Whether submission hit the artifact cache.
    pub cache_hit: bool,
    /// The expanded point list (a single empty-override point for
    /// decks without `.STEP`/`.MC`).
    pub points: Vec<BatchPoint>,
    /// Cooperative cancellation, checked between points.
    pub cancel: CancelToken,
    /// Rendered per-point JSON records, filled as points finish.
    results: Mutex<Vec<Option<String>>>,
    /// Signalled whenever a result lands or the job turns terminal —
    /// streaming readers block here instead of polling.
    results_cv: Condvar,
    /// Simulated-point count (monotonic, lock-free readers).
    completed: AtomicUsize,
    /// Points cancellation skipped (recorded as [`CANCELLED_POINT`]
    /// failures, never simulated).
    skipped: AtomicUsize,
    /// Chunks remaining (queued or running).
    chunks_left: AtomicUsize,
    /// Set by [`Job::publish_terminal`] once the last chunk has
    /// retired *and* the server has finished its end-of-job
    /// accounting. Readers treat the job as terminal only once this
    /// is up, so anything sequenced before `publish_terminal` (metric
    /// counters, eviction bookkeeping) is visible to whoever observed
    /// the terminal state.
    terminal: std::sync::atomic::AtomicBool,
    /// Sequential `.TRAN` warm-start guesses, computed once by the
    /// first worker to touch the job (exactly the CLI pre-chain, so
    /// served results stay bit-identical to `mems sweep`).
    pub guesses: OnceLock<Option<Vec<Option<Vec<f64>>>>>,
    /// Aggregated metadata.
    meta: Mutex<JobMeta>,
    /// Submission wall-clock anchor.
    pub submitted: Instant,
    /// Microseconds spent in parse + elaborate fail-fast at submit
    /// (0 on cache hits — nothing was parsed).
    pub parse_us: u64,
    /// First-result / finish latency in µs from `submitted`.
    first_result_us: AtomicU64,
    /// Finish latency in µs from `submitted` (0 while unfinished).
    finished_us: AtomicU64,
}

impl Job {
    /// A freshly submitted job over `chunks` scheduler chunks.
    pub fn new(
        id: u64,
        client: String,
        entry: Arc<DeckEntry>,
        lookup: Lookup,
        points: Vec<BatchPoint>,
        chunks: usize,
        parse_us: u64,
    ) -> Self {
        let n = points.len();
        Job {
            id,
            client,
            entry,
            cache_hit: lookup == Lookup::Hit,
            points,
            cancel: CancelToken::new(),
            results: Mutex::new({
                let mut v = Vec::with_capacity(n);
                v.resize_with(n, || None);
                v
            }),
            results_cv: Condvar::new(),
            completed: AtomicUsize::new(0),
            skipped: AtomicUsize::new(0),
            chunks_left: AtomicUsize::new(chunks),
            terminal: std::sync::atomic::AtomicBool::new(false),
            guesses: OnceLock::new(),
            meta: Mutex::new(JobMeta::default()),
            submitted: Instant::now(),
            parse_us,
            first_result_us: AtomicU64::new(0),
            finished_us: AtomicU64::new(0),
        }
    }

    /// Records one finished point (rendered with the same writer as
    /// `mems sweep --json`, so streams compare byte-for-byte).
    /// Returns the rendered record so the caller can spill it to the
    /// durable store without rendering twice.
    pub fn record(&self, index: usize, result: &PointResult) -> String {
        let rendered = point_json(result);
        self.results.lock().expect("no poisoned results lock")[index] = Some(rendered.clone());
        self.results_cv.notify_all();
        self.completed.fetch_add(1, Ordering::SeqCst);
        let us = self.submitted.elapsed().as_micros() as u64;
        let _ =
            self.first_result_us
                .compare_exchange(0, us.max(1), Ordering::SeqCst, Ordering::SeqCst);
        rendered
    }

    /// Marks one chunk finished; returns `true` when it was the last.
    /// The caller that drew `true` owns the job's retirement: it must
    /// finish any end-of-job accounting (terminal-state counters,
    /// registry bookkeeping) and then call [`Job::publish_terminal`],
    /// which is what actually makes the job observable as terminal.
    pub fn finish_chunk(&self, chunk_meta: JobMeta) -> bool {
        {
            let mut meta = self.meta.lock().expect("no poisoned meta lock");
            meta.stats.circuits_built += chunk_meta.stats.circuits_built;
            meta.stats.circuits_patched += chunk_meta.stats.circuits_patched;
            meta.warm_checkout |= chunk_meta.warm_checkout;
            if let Some(s) = chunk_meta.solver {
                let busier = meta
                    .solver
                    .is_none_or(|cur| s.factors + s.refactors > cur.factors + cur.refactors);
                if busier {
                    meta.solver = Some(s);
                }
            }
        }
        self.chunks_left.fetch_sub(1, Ordering::SeqCst) == 1
    }

    /// Publishes the terminal state: stamps the finish time and
    /// sequence number, flips the terminal flag, and wakes streamers
    /// blocked in [`Job::wait_result`] so they can emit their tail.
    /// Called exactly once, by whoever [`Job::finish_chunk`] told they
    /// retired the last chunk — *after* that caller's accounting, so
    /// an observer of the terminal state never reads counters that
    /// haven't moved yet.
    pub fn publish_terminal(&self, finish_seq: &AtomicU64) {
        self.finished_us.store(
            (self.submitted.elapsed().as_micros() as u64).max(1),
            Ordering::SeqCst,
        );
        let seq = finish_seq.fetch_add(1, Ordering::SeqCst) + 1;
        self.meta.lock().expect("no poisoned meta lock").finish_seq = seq;
        // Flip the flag under the results lock: `wait_result` checks
        // it under the same lock, so a streamer either sees the flag
        // or blocks until the notify below.
        let _guard = self.results.lock().expect("no poisoned results lock");
        self.terminal.store(true, Ordering::SeqCst);
        self.results_cv.notify_all();
    }

    /// Current lifecycle state.
    pub fn state(&self) -> JobState {
        if self.terminal.load(Ordering::SeqCst) {
            // A job cancelled only after every point simulated is
            // simply done.
            if self.skipped.load(Ordering::SeqCst) > 0 {
                JobState::Cancelled
            } else {
                JobState::Done
            }
        } else if self.cancel.is_cancelled() {
            JobState::Cancelling
        } else if self.completed.load(Ordering::SeqCst) == 0 {
            JobState::Queued
        } else {
            JobState::Running
        }
    }

    /// Finished-point count.
    pub fn completed(&self) -> usize {
        self.completed.load(Ordering::SeqCst)
    }

    /// Cancellation-skipped point count.
    pub fn skipped(&self) -> usize {
        self.skipped.load(Ordering::SeqCst)
    }

    /// The rendered record at `index`, if that point has finished.
    pub fn result_at(&self, index: usize) -> Option<String> {
        self.results
            .lock()
            .expect("no poisoned results lock")
            .get(index)
            .and_then(|r| r.clone())
    }

    /// Blocks until the record at `index` exists, then returns it.
    /// Returns `None` once the job is terminal with no record there
    /// (out-of-range index) — in-range gaps are always filled with
    /// [`CANCELLED_POINT`] markers before the last chunk retires, so
    /// a terminal job has a record at every valid index.
    pub fn wait_result(&self, index: usize) -> Option<String> {
        let mut results = self.results.lock().expect("no poisoned results lock");
        loop {
            if let Some(Some(r)) = results.get(index) {
                return Some(r.clone());
            }
            // Re-check terminality *while holding the lock*: the
            // finisher flips the flag and notifies under this lock,
            // so a terminal state observed here is final and no
            // record can still arrive.
            if self.terminal.load(Ordering::SeqCst) {
                return results.get(index).and_then(|r| r.clone());
            }
            let (guard, _timeout) = self
                .results_cv
                .wait_timeout(results, Duration::from_millis(50))
                .expect("no poisoned results lock");
            results = guard;
        }
    }

    /// Metadata snapshot.
    pub fn meta(&self) -> JobMeta {
        *self.meta.lock().expect("no poisoned meta lock")
    }

    /// The contiguous run of rendered results starting at `from`
    /// (stops at the first unfinished point), plus the next cursor.
    pub fn results_from(&self, from: usize) -> (Vec<String>, usize) {
        let results = self.results.lock().expect("no poisoned results lock");
        let mut out = Vec::new();
        let mut next = from.min(results.len());
        while let Some(Some(r)) = results.get(next) {
            out.push(r.clone());
            next += 1;
        }
        (out, next)
    }

    /// The status document for `GET /v1/jobs/:id` and submit
    /// responses.
    pub fn status_json(&self) -> String {
        let state = self.state();
        let meta = self.meta();
        let first = self.first_result_us.load(Ordering::SeqCst);
        let finished = self.finished_us.load(Ordering::SeqCst);
        format!(
            concat!(
                "{{\"id\":{},\"client\":\"{}\",\"state\":\"{}\",",
                "\"points\":{},\"completed\":{},\"skipped\":{},",
                "\"cache\":{{\"hit\":{},\"fingerprint\":\"{:032x}\",",
                "\"circuits_built\":{},\"circuits_patched\":{},\"warm_checkout\":{}}},",
                "\"solver\":{},",
                "\"timing\":{{\"parse_us\":{},\"first_result_us\":{},\"finished_us\":{}}},",
                "\"finish_seq\":{}}}"
            ),
            self.id,
            json_escape(&self.client),
            state.name(),
            self.points.len(),
            self.completed(),
            self.skipped.load(Ordering::SeqCst),
            self.cache_hit,
            self.entry.fingerprint.value(),
            meta.stats.circuits_built,
            meta.stats.circuits_patched,
            meta.warm_checkout,
            meta.solver
                .as_ref()
                .map_or_else(|| "null".to_string(), solver_stats_json),
            self.parse_us,
            first,
            finished,
            meta.finish_seq,
        )
    }

    /// Fills every unvisited point of the range with the cancelled
    /// marker — called by the worker that retires a cancelled chunk,
    /// so `results_from` streams a complete (if partly failed) point
    /// list. Returns the `(index, rendered)` markers it filled, so
    /// the caller can spill them to the durable store.
    pub fn mark_cancelled_gaps(&self, range: std::ops::Range<usize>) -> Vec<(usize, String)> {
        let mut filled = Vec::new();
        let mut results = self.results.lock().expect("no poisoned results lock");
        for index in range {
            if results[index].is_none() {
                let rendered = point_json(&PointResult {
                    point: self.points[index].clone(),
                    outcome: Err(CANCELLED_POINT.to_string()),
                });
                results[index] = Some(rendered.clone());
                filled.push((index, rendered));
            }
        }
        if !filled.is_empty() {
            self.results_cv.notify_all();
        }
        drop(results);
        self.skipped.fetch_add(filled.len(), Ordering::SeqCst);
        filled
    }
}
