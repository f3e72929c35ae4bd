//! Fair-share chunk scheduler.
//!
//! Jobs are split into fixed-size point chunks and enqueued per
//! client; workers draw chunks round-robin **across clients**, so a
//! client streaming a 10k-point `.MC` batch cannot starve another
//! client's two-point sanity sweep — the small job's chunks interleave
//! with the big one's. Admission is bounded two ways: past
//! `queue_cap` active jobs overall — or past `client_quota` active
//! jobs for one client — the submit path answers 429 with
//! `Retry-After` instead of queueing unboundedly.

use crate::job::Job;
use crate::sync::{lock, wait};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// A contiguous range of one job's points, the scheduler's work unit
/// (and the granularity of cancellation: a cancelled job stops within
/// one chunk boundary).
pub struct Chunk {
    /// The owning job.
    pub job: Arc<Job>,
    /// First point index.
    pub start: usize,
    /// One past the last point index.
    pub end: usize,
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// The active-job bound is reached — retry later (429).
    Busy,
    /// The submitting client is at its per-client active-job quota
    /// (`--client-quota`) — retry later (429).
    OverQuota,
    /// The scheduler is draining for shutdown (503).
    Draining,
}

struct State {
    /// One FIFO of chunks per client, in first-seen order.
    clients: Vec<(String, VecDeque<Chunk>)>,
    /// Round-robin cursor over `clients`.
    cursor: usize,
    /// Jobs admitted but not yet retired (queued chunks + running).
    active_jobs: usize,
    /// Active jobs per client, for the `--client-quota` bound.
    active_per_client: std::collections::HashMap<String, usize>,
    /// Set once: no further admissions, workers exit when drained.
    draining: bool,
}

/// The shared scheduler.
pub struct Scheduler {
    state: Mutex<State>,
    ready: Condvar,
    /// Points per chunk.
    pub chunk_size: usize,
    /// Max active jobs before refusing admissions.
    pub queue_cap: usize,
    /// Max active jobs per client (`0` = unlimited).
    pub client_quota: usize,
}

impl Scheduler {
    /// A scheduler chunking jobs into `chunk_size`-point slices,
    /// admitting at most `queue_cap` active jobs overall and
    /// `client_quota` per client (`0` = unlimited).
    pub fn new(chunk_size: usize, queue_cap: usize, client_quota: usize) -> Self {
        Scheduler {
            state: Mutex::new(State {
                clients: Vec::new(),
                cursor: 0,
                active_jobs: 0,
                active_per_client: std::collections::HashMap::new(),
                draining: false,
            }),
            ready: Condvar::new(),
            chunk_size: chunk_size.max(1),
            queue_cap: queue_cap.max(1),
            client_quota,
        }
    }

    /// Number of chunks `points` splits into.
    pub fn chunks_for(&self, points: usize) -> usize {
        points.max(1).div_ceil(self.chunk_size)
    }

    /// Admits a job: splits its points into chunks on the owning
    /// client's queue.
    ///
    /// # Errors
    ///
    /// [`Refusal::Busy`] at the admission bound,
    /// [`Refusal::OverQuota`] at the submitting client's quota,
    /// [`Refusal::Draining`] during shutdown.
    pub fn submit(&self, job: &Arc<Job>) -> Result<(), Refusal> {
        let mut state = lock(&self.state);
        if state.draining {
            return Err(Refusal::Draining);
        }
        if state.active_jobs >= self.queue_cap {
            return Err(Refusal::Busy);
        }
        if self.client_quota > 0
            && state
                .active_per_client
                .get(&job.client)
                .is_some_and(|&n| n >= self.client_quota)
        {
            return Err(Refusal::OverQuota);
        }
        state.active_jobs += 1;
        *state
            .active_per_client
            .entry(job.client.clone())
            .or_insert(0) += 1;
        let queue = match state
            .clients
            .iter_mut()
            .find(|(name, _)| *name == job.client)
        {
            Some((_, queue)) => queue,
            None => {
                state.clients.push((job.client.clone(), VecDeque::new()));
                &mut state.clients.last_mut().expect("just pushed").1
            }
        };
        let n = job.points.len().max(1);
        for start in (0..n).step_by(self.chunk_size) {
            queue.push_back(Chunk {
                job: Arc::clone(job),
                start,
                end: (start + self.chunk_size).min(n),
            });
        }
        drop(state);
        self.ready.notify_all();
        Ok(())
    }

    /// Blocks for the next chunk, drawn round-robin across clients.
    /// `None` means the scheduler is draining and empty — the worker
    /// should exit.
    pub fn next_chunk(&self) -> Option<Chunk> {
        let mut state = lock(&self.state);
        loop {
            let n = state.clients.len();
            for step in 0..n {
                let at = (state.cursor + step) % n;
                if let Some(chunk) = state.clients[at].1.pop_front() {
                    // Advance past the served client so the next draw
                    // starts at its neighbor.
                    state.cursor = (at + 1) % n;
                    return Some(chunk);
                }
            }
            if state.draining {
                return None;
            }
            state = wait(&self.ready, state);
        }
    }

    /// Marks one of `client`'s jobs retired (its last chunk finished).
    pub fn job_retired(&self, client: &str) {
        let mut state = lock(&self.state);
        state.active_jobs = state.active_jobs.saturating_sub(1);
        if let Some(n) = state.active_per_client.get_mut(client) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                state.active_per_client.remove(client);
            }
        }
    }

    /// Starts the drain: no further admissions; queued chunks still
    /// run; workers exit once the queues are dry.
    pub fn drain(&self) {
        lock(&self.state).draining = true;
        self.ready.notify_all();
    }

    /// Whether the drain has been requested.
    pub fn is_draining(&self) -> bool {
        lock(&self.state).draining
    }

    /// Chunks queued across every client, not yet drawn by a worker
    /// (running chunks are not counted).
    pub fn queue_depth(&self) -> usize {
        lock(&self.state)
            .clients
            .iter()
            .map(|(_, queue)| queue.len())
            .sum()
    }

    /// Jobs admitted and not yet retired.
    pub fn active_jobs(&self) -> usize {
        lock(&self.state).active_jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ArtifactCache;
    use mems_netlist::{BatchPoint, NoIncludes};

    fn stub_job(id: u64, client: &str, points: usize) -> Arc<Job> {
        static CACHE: std::sync::OnceLock<ArtifactCache> = std::sync::OnceLock::new();
        let cache = CACHE.get_or_init(|| ArtifactCache::new(2));
        let (entry, lookup) = cache
            .resolve("t\nVs a 0 1\nR1 a 0 1k\n.op\n", &mut NoIncludes)
            .unwrap();
        let points = (0..points)
            .map(|index| BatchPoint {
                index,
                overrides: Vec::new(),
            })
            .collect();
        Arc::new(Job::new(id, client.into(), entry, lookup, points, 1, 0))
    }

    #[test]
    fn chunks_interleave_across_clients() {
        let sched = Scheduler::new(2, 16, 0);
        sched.submit(&stub_job(1, "big", 8)).unwrap();
        sched.submit(&stub_job(2, "small", 2)).unwrap();
        let order: Vec<u64> = (0..5).map(|_| sched.next_chunk().unwrap().job.id).collect();
        // big, small, big, big, big — the small client's one chunk
        // rides second, not after all four of big's.
        assert_eq!(order, vec![1, 2, 1, 1, 1]);
    }

    #[test]
    fn same_client_chunks_stay_fifo() {
        let sched = Scheduler::new(4, 16, 0);
        sched.submit(&stub_job(1, "c", 4)).unwrap();
        sched.submit(&stub_job(2, "c", 4)).unwrap();
        assert_eq!(sched.next_chunk().unwrap().job.id, 1);
        assert_eq!(sched.next_chunk().unwrap().job.id, 2);
    }

    #[test]
    fn admission_is_bounded_and_drain_refuses() {
        let sched = Scheduler::new(4, 2, 0);
        sched.submit(&stub_job(1, "a", 1)).unwrap();
        sched.submit(&stub_job(2, "a", 1)).unwrap();
        assert_eq!(sched.submit(&stub_job(3, "a", 1)), Err(Refusal::Busy));
        sched.job_retired("a");
        sched.submit(&stub_job(4, "a", 1)).unwrap();
        sched.drain();
        assert_eq!(sched.submit(&stub_job(5, "a", 1)), Err(Refusal::Draining));
    }

    #[test]
    fn client_quota_bounds_one_client_without_starving_others() {
        let sched = Scheduler::new(4, 16, 2);
        sched.submit(&stub_job(1, "greedy", 1)).unwrap();
        sched.submit(&stub_job(2, "greedy", 1)).unwrap();
        assert_eq!(
            sched.submit(&stub_job(3, "greedy", 1)),
            Err(Refusal::OverQuota)
        );
        // Another client is unaffected by greedy's quota.
        sched.submit(&stub_job(4, "modest", 1)).unwrap();
        // Retiring one of greedy's jobs frees a quota slot.
        sched.job_retired("greedy");
        sched.submit(&stub_job(5, "greedy", 1)).unwrap();
    }

    #[test]
    fn a_poisoned_scheduler_keeps_scheduling() {
        let sched = Scheduler::new(2, 4, 1);
        crate::sync::poison(&sched.state);
        sched.submit(&stub_job(1, "a", 3)).unwrap();
        assert_eq!(sched.submit(&stub_job(2, "a", 1)), Err(Refusal::OverQuota));
        assert_eq!(sched.queue_depth(), 2);
        assert_eq!(sched.active_jobs(), 1);
        assert_eq!(sched.next_chunk().unwrap().end, 2);
        assert_eq!(sched.next_chunk().unwrap().end, 3);
        sched.job_retired("a");
        assert_eq!(sched.active_jobs(), 0);
        sched.drain();
        assert!(sched.is_draining());
        assert!(sched.next_chunk().is_none());
    }

    #[test]
    fn drained_empty_scheduler_releases_workers() {
        let sched = Arc::new(Scheduler::new(4, 4, 0));
        let worker = {
            let sched = Arc::clone(&sched);
            std::thread::spawn(move || {
                let mut served = 0;
                while sched.next_chunk().is_some() {
                    served += 1;
                }
                served
            })
        };
        sched.submit(&stub_job(1, "a", 8)).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        sched.drain();
        assert_eq!(worker.join().unwrap(), 2);
    }
}
