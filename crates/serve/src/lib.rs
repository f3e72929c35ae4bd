//! # mems-serve — the long-lived simulation service
//!
//! The paper's methodology — SPICE decks as lumped-parameter models
//! of electromechanical transducers — pays off when many engineers
//! iterate against a *shared, warm* simulator instead of cold CLI
//! runs. This crate is that daemon: an HTTP/1.1 + JSON job API
//! (hand-rolled over [`std::net::TcpListener`], matching the repo's
//! offline no-new-deps style) in front of the `mems-netlist` batch
//! engine.
//!
//! ## The artifact cache
//!
//! Every submission is keyed on the stable fingerprint of its source
//! text and checked against the text itself. On a hit, the server
//! reuses the parsed deck, the expanded `.STEP`/`.MC` point list, and
//! a pool of warm run contexts whose elaborated circuits are
//! re-bound in place (`Elaborator::patch`) and whose assembly
//! workspaces keep the sparse symbolic factorization + AMD ordering.
//! A re-submitted or parameter-tweaked deck therefore skips parse,
//! elaborate, sweep expansion, *and* symbolic analysis — its job
//! metadata reports `circuits_built == 0`.
//!
//! ## Fair share, cancellation, backpressure
//!
//! Jobs are chunked and scheduled round-robin **per client**, so a
//! 10k-point Monte Carlo cannot starve a two-point sanity sweep.
//! `DELETE /v1/jobs/:id` trips a cooperative [`CancelToken`] checked
//! between points — a running batch stops within one chunk boundary
//! (cancelling an already-terminal job is an idempotent `200` no-op).
//! Past `queue_cap` active jobs — or past `--client-quota` active
//! jobs for one client — submissions answer `429` with `Retry-After`;
//! `POST /v1/shutdown` (and the CLI's Ctrl-C) drains queued chunks
//! before the process exits.
//!
//! ## Streaming, observability, connection hygiene
//!
//! `GET /v1/jobs/:id/results` answers with **chunked transfer
//! coding** and flushes each point record as it finishes — results
//! begin arriving while the job is still running, and a 100k-point
//! job's body never buffers whole (`?wait=0` restores the
//! non-blocking poll with a `next` cursor; HTTP/1.0 clients get a raw
//! close-delimited body). `GET /v1/metrics` exposes Prometheus text
//! format: jobs by terminal state, rejections by reason, artifact,
//! ordering and symbolic cache hit/miss/eviction counters (all three
//! one [`Lru`](mems_numerics::cache::Lru) type), scheduler queue
//! depth, a per-chunk latency histogram, and linear-solver rollups
//! (supernodal vs scalar
//! factors, fallbacks). Connections are bounded: a `--max-conns` cap
//! answers `503` at the accept loop, per-connection read timeouts
//! drop stalled peers, and the request reader bounds every
//! client-controlled length (request line, header size/count, body —
//! including `Transfer-Encoding: chunked` request bodies, which are
//! decoded under the same body cap).
//!
//! ## Durability
//!
//! With `--data-dir`, finished point records spill to an append-only,
//! checksummed per-job file and job metadata is journaled with
//! write-temp + fsync + atomic-rename (see [`store`]). A restarted
//! server replays the directory: completed jobs stay queryable and
//! their results serve from disk **byte-identical** to the live
//! stream; a job that was mid-run when the process died recovers as
//! `failed`/`interrupted` with its durably written prefix
//! retrievable. Torn tail writes are detected by the length/checksum
//! framing and dropped, never served. On real disk errors the store
//! degrades to memory-only mode (warn once, flip the
//! `mems_serve_store_degraded` gauge) — job APIs never answer `5xx`
//! because a disk died.
//!
//! ## Endpoints
//!
//! | method + path | effect |
//! |---|---|
//! | `POST /v1/jobs` | submit a deck (raw text, or JSON `{"deck": …, "client": …}`) |
//! | `GET /v1/jobs/:id` | job status + cache/timing metadata; with `--data-dir`, terminal jobs evicted by `--job-cap` or left by a previous process answer from spill with `"stored":true` |
//! | `GET /v1/jobs/:id/results?from=K[&wait=0]` | chunked stream of per-point records (byte-identical to `mems sweep --json` points), live until the job finishes; stored jobs stream their spilled records in the same frame |
//! | `DELETE /v1/jobs/:id` | cooperative cancellation (idempotent `200` no-op on terminal jobs) |
//! | `POST /v1/check` | parse/elaborate only; machine-readable diagnostics |
//! | `GET /v1/health` | liveness + cache counters |
//! | `GET /v1/metrics` | Prometheus text-format counters/gauges/histograms |
//! | `POST /v1/shutdown` | graceful drain |
//!
//! [`CancelToken`]: mems_netlist::CancelToken

pub mod cache;
pub mod http;
pub mod job;
pub mod json;
pub mod metrics;
pub mod sched;
pub mod server;
pub mod store;

pub use cache::{ArtifactCache, DeckEntry, Lookup};
pub use job::{Job, JobState};
pub use json::Json;
pub use metrics::{Gauges, Metrics};
pub use sched::Scheduler;
pub use server::{ServeConfig, Server, ServerHandle};
pub use store::{FaultIo, JobStore, RealIo, StoreFile, StoreIo, StoredMeta};
