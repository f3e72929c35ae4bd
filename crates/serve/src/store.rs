//! Durable job store: crash-safe spill of finished jobs under
//! `--data-dir`, so results outlive the serving process.
//!
//! Two files per job, both owned by this module:
//!
//! * `<id>.meta.json` — job metadata (state, counts, fingerprint),
//!   written with the classic crash-safe dance: write to
//!   `<id>.meta.tmp`, fsync, atomic-rename over the final name, fsync
//!   the directory. A reader never observes a half-written meta file.
//! * `<id>.results` — append-only result spill: one length-prefixed,
//!   FNV-1a-checksummed record per finished point (the exact rendered
//!   JSON the live stream serves, so spill-served bodies stay
//!   byte-identical). Appends are plain `write(2)`s — they survive
//!   SIGKILL via the page cache and are fsynced once at job finish. A
//!   torn tail write (process or machine died mid-append) fails the
//!   length or checksum test on replay and is dropped, never served.
//!
//! On startup [`JobStore::open`] replays the directory: terminal jobs
//! become queryable again, jobs that were mid-run at crash time are
//! recovered as `failed` with `reason="interrupted"` and whatever
//! prefix of points was durably written still retrievable.
//!
//! All I/O goes through the injectable [`StoreIo`] trait; tests drive
//! the failure paths with [`FaultIo`] (fail the N-th write, return a
//! short write then fail, error on fsync). On any real store error the
//! server **degrades to memory-only mode**: warn once, flip the
//! `mems_serve_store_degraded` gauge, keep serving from memory — job
//! APIs never answer 5xx because a disk died.

use crate::json::Json;
use mems_netlist::report::json_escape;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Bytes of record framing before the payload: `len: u32 LE`,
/// `index: u32 LE`, `check: u64 LE` (FNV-1a over the index bytes then
/// the payload).
const RECORD_HEADER: usize = 16;

/// Sanity bound on a single record's payload — anything larger in a
/// length prefix is corruption, not data.
const MAX_RECORD: usize = 8 << 20;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv64(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

fn record_check(index: u32, payload: &[u8]) -> u64 {
    fnv64(fnv64(FNV_OFFSET, &index.to_le_bytes()), payload)
}

/// One write handle inside the store, behind [`StoreIo::create`].
/// `write` may accept fewer bytes than offered (the store loops);
/// `sync` is fsync.
pub trait StoreFile: Send {
    /// Appends up to `buf.len()` bytes, returning how many were taken.
    ///
    /// # Errors
    ///
    /// Any I/O failure; the store degrades to memory-only mode.
    fn write(&mut self, buf: &[u8]) -> io::Result<usize>;

    /// Flushes written bytes to stable storage (fsync).
    ///
    /// # Errors
    ///
    /// Any I/O failure; the store degrades to memory-only mode.
    fn sync(&mut self) -> io::Result<()>;
}

/// The store's view of a filesystem. Production uses [`RealIo`];
/// tests inject [`FaultIo`] to drive every failure path.
pub trait StoreIo: Send + Sync {
    /// `mkdir -p`.
    ///
    /// # Errors
    ///
    /// Any I/O failure.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// The entries of `dir`, as full paths.
    ///
    /// # Errors
    ///
    /// Any I/O failure.
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;

    /// The full contents of `path`.
    ///
    /// # Errors
    ///
    /// Any I/O failure (including missing file).
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Creates (truncating) `path` for writing.
    ///
    /// # Errors
    ///
    /// Any I/O failure.
    fn create(&self, path: &Path) -> io::Result<Box<dyn StoreFile>>;

    /// Atomic rename.
    ///
    /// # Errors
    ///
    /// Any I/O failure.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes a file (missing is fine to report as an error; callers
    /// treat removal as best-effort).
    ///
    /// # Errors
    ///
    /// Any I/O failure.
    fn remove(&self, path: &Path) -> io::Result<()>;

    /// Fsyncs the directory itself, making renames within it durable.
    ///
    /// # Errors
    ///
    /// Any I/O failure.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
}

/// [`StoreIo`] over the real filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealIo;

struct RealFile(std::fs::File);

impl StoreFile for RealFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
}

impl StoreIo for RealIo {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            out.push(entry?.path());
        }
        Ok(out)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        Ok(bytes)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn StoreFile>> {
        Ok(Box::new(RealFile(std::fs::File::create(path)?)))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }
}

struct FaultPlan {
    /// Writes (across every file) that still succeed; once exhausted,
    /// every further write faults. `i64::MAX` means never.
    writes_left: AtomicI64,
    /// Whether the first faulting write returns a *short* count (half
    /// the buffer lands on disk — a torn record) before erroring.
    short_first: bool,
    short_tripped: AtomicBool,
    /// Whether fsync errors.
    fail_sync: bool,
}

/// Fault-injecting [`StoreIo`]: a thin shim over [`RealIo`] whose
/// write/fsync paths can be made to fail on demand, so tests exercise
/// torn tails and degraded-mode behavior against a live server.
pub struct FaultIo {
    real: RealIo,
    plan: Arc<FaultPlan>,
}

impl FaultIo {
    fn with_plan(writes_left: i64, short_first: bool, fail_sync: bool) -> Self {
        FaultIo {
            real: RealIo,
            plan: Arc::new(FaultPlan {
                writes_left: AtomicI64::new(writes_left),
                short_first,
                short_tripped: AtomicBool::new(false),
                fail_sync,
            }),
        }
    }

    /// No faults — behaves exactly like [`RealIo`].
    pub fn passthrough() -> Self {
        Self::with_plan(i64::MAX, false, false)
    }

    /// The first `n` writes (across all files, result records and
    /// metadata alike) succeed; every later write errors.
    pub fn fail_after_writes(n: i64) -> Self {
        Self::with_plan(n, false, false)
    }

    /// Like [`FaultIo::fail_after_writes`], but the first faulting
    /// write lands *half* its buffer before the error — a torn record
    /// on disk.
    pub fn short_then_fail_after_writes(n: i64) -> Self {
        Self::with_plan(n, true, false)
    }

    /// Writes succeed; every fsync errors.
    pub fn fail_fsync() -> Self {
        Self::with_plan(i64::MAX, false, true)
    }
}

struct FaultFile {
    inner: Box<dyn StoreFile>,
    plan: Arc<FaultPlan>,
}

impl StoreFile for FaultFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.plan.writes_left.fetch_sub(1, Ordering::SeqCst) > 0 {
            return self.inner.write(buf);
        }
        if self.plan.short_first && !self.plan.short_tripped.swap(true, Ordering::SeqCst) {
            let half = (buf.len() / 2).max(1).min(buf.len());
            return self.inner.write(&buf[..half]);
        }
        Err(io::Error::other("injected write fault"))
    }

    fn sync(&mut self) -> io::Result<()> {
        if self.plan.fail_sync {
            return Err(io::Error::other("injected fsync fault"));
        }
        self.inner.sync()
    }
}

impl StoreIo for FaultIo {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.real.create_dir_all(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.real.list(dir)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.real.read(path)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn StoreFile>> {
        Ok(Box::new(FaultFile {
            inner: self.real.create(path)?,
            plan: Arc::clone(&self.plan),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.real.rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.real.remove(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        if self.plan.fail_sync {
            return Err(io::Error::other("injected fsync fault"));
        }
        self.real.sync_dir(path)
    }
}

/// The persisted metadata of one job, as replayed or finalized.
#[derive(Debug, Clone)]
pub struct StoredMeta {
    /// Server-unique job id (ids keep growing across restarts).
    pub id: u64,
    /// Fair-share queue key.
    pub client: String,
    /// Terminal wire state: `done`, `cancelled`, or `failed` (a job
    /// recovered from a crash).
    pub state: String,
    /// Failure reason (`interrupted` for crash-recovered jobs).
    pub reason: Option<String>,
    /// Total points of the job.
    pub points: usize,
    /// Simulated-point count at finish (for crash-recovered jobs: how
    /// many records survived on disk).
    pub completed: usize,
    /// Cancellation-skipped point count.
    pub skipped: usize,
    /// Deck fingerprint (32 hex digits on disk; metas written before
    /// the fingerprint grew to 128 bits carry 16 and still parse).
    pub fingerprint: u128,
    /// Valid (checksum-verified) prefix length of the result spill —
    /// serving never reads past this.
    pub result_bytes: u64,
}

impl StoredMeta {
    /// The status document for a job served from spill — same core
    /// fields as a live job's status, plus `"stored":true` so clients
    /// can tell the result is disk-backed (cache/timing metadata died
    /// with the process that ran the job).
    pub fn status_json(&self) -> String {
        format!(
            concat!(
                "{{\"id\":{},\"client\":\"{}\",\"state\":\"{}\",\"reason\":{},",
                "\"points\":{},\"completed\":{},\"skipped\":{},",
                "\"fingerprint\":\"{:032x}\",\"stored\":true}}"
            ),
            self.id,
            json_escape(&self.client),
            self.state,
            self.reason
                .as_ref()
                .map_or_else(|| "null".to_string(), |r| format!("\"{}\"", json_escape(r))),
            self.points,
            self.completed,
            self.skipped,
            self.fingerprint,
        )
    }
}

fn meta_json(m: &StoredMeta) -> String {
    format!(
        concat!(
            "{{\"v\":1,\"id\":{},\"client\":\"{}\",\"state\":\"{}\",\"reason\":{},",
            "\"points\":{},\"completed\":{},\"skipped\":{},\"fingerprint\":\"{:032x}\"}}"
        ),
        m.id,
        json_escape(&m.client),
        m.state,
        m.reason
            .as_ref()
            .map_or_else(|| "null".to_string(), |r| format!("\"{}\"", json_escape(r))),
        m.points,
        m.completed,
        m.skipped,
        m.fingerprint,
    )
}

fn parse_meta(src: &str) -> Option<StoredMeta> {
    let doc = Json::parse(src).ok()?;
    Some(StoredMeta {
        id: doc.get("id")?.as_u64()?,
        client: doc.get("client")?.as_str()?.to_string(),
        state: doc.get("state")?.as_str()?.to_string(),
        reason: doc
            .get("reason")
            .and_then(|r| r.as_str())
            .map(str::to_string),
        points: doc.get("points")?.as_u64()? as usize,
        completed: doc.get("completed")?.as_u64()? as usize,
        skipped: doc.get("skipped")?.as_u64()? as usize,
        fingerprint: u128::from_str_radix(doc.get("fingerprint")?.as_str()?, 16).ok()?,
        result_bytes: 0,
    })
}

fn terminal_state(state: &str) -> bool {
    matches!(state, "done" | "cancelled" | "failed")
}

/// Decodes the valid record prefix of a spill file: the records, the
/// byte length of the verified prefix, and whether a torn/corrupt tail
/// was dropped.
fn decode_records(bytes: &[u8]) -> (Vec<(u32, String)>, usize, bool) {
    let mut out = Vec::new();
    let mut at = 0usize;
    loop {
        let rest = &bytes[at..];
        if rest.len() < RECORD_HEADER {
            return (out, at, !rest.is_empty());
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes")) as usize;
        let index = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        let check = u64::from_le_bytes(rest[8..16].try_into().expect("8 bytes"));
        if len > MAX_RECORD || rest.len() - RECORD_HEADER < len {
            return (out, at, true);
        }
        let payload = &rest[RECORD_HEADER..RECORD_HEADER + len];
        if record_check(index, payload) != check {
            return (out, at, true);
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            return (out, at, true);
        };
        out.push((index, text.to_string()));
        at += RECORD_HEADER + len;
    }
}

fn write_all(file: &mut dyn StoreFile, mut buf: &[u8]) -> io::Result<()> {
    while !buf.is_empty() {
        match file.write(buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "store file refused bytes",
                ))
            }
            Ok(n) => buf = &buf[n.min(buf.len())..],
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Counter snapshot for `/v1/metrics` and `/v1/health`.
#[derive(Debug, Default, Clone, Copy)]
pub struct StoreStats {
    /// Terminal jobs queryable from spill.
    pub jobs: usize,
    /// Verified result-spill bytes on disk (terminal jobs).
    pub disk_bytes: u64,
    /// Whether the store has degraded to memory-only mode.
    pub degraded: bool,
    /// Result-record bytes appended (framing included).
    pub bytes_written: u64,
    /// Result-record appends.
    pub writes: u64,
    /// Jobs recovered from disk at startup.
    pub replayed_jobs: u64,
    /// Torn/corrupt spill tails dropped on replay.
    pub corrupt_records: u64,
    /// Stored jobs evicted to enforce `--spill-cap-bytes`.
    pub evicted_jobs: u64,
}

struct Writer {
    file: Box<dyn StoreFile>,
    meta: StoredMeta,
    bytes: u64,
}

#[derive(Default)]
struct Inner {
    /// Open spill writers for live jobs.
    writers: HashMap<u64, Writer>,
    /// Terminal jobs on disk, in id order (ids are monotonic across
    /// restarts, so the smallest id is the oldest job — the spill-cap
    /// eviction order).
    stored: BTreeMap<u64, StoredMeta>,
    /// Total verified spill bytes across `stored`.
    bytes: u64,
}

/// The durable job store. All methods are infallible from the
/// caller's view: any real I/O error flips the store into degraded
/// memory-only mode (warn once, gauge up, subsequent store calls
/// no-op) instead of surfacing — the serving path never 500s because
/// a disk died.
pub struct JobStore {
    io: Arc<dyn StoreIo>,
    dir: PathBuf,
    spill_cap: u64,
    degraded: AtomicBool,
    bytes_written: AtomicU64,
    writes: AtomicU64,
    replayed: AtomicU64,
    corrupt: AtomicU64,
    evicted: AtomicU64,
    inner: Mutex<Inner>,
}

impl JobStore {
    /// Opens (creating if needed) the store under `dir` and replays
    /// whatever jobs a previous process left there. Replay failures
    /// degrade the store rather than failing the server.
    pub fn open(dir: &Path, spill_cap: u64, io: Arc<dyn StoreIo>) -> JobStore {
        let store = JobStore {
            io,
            dir: dir.to_path_buf(),
            spill_cap: spill_cap.max(1),
            degraded: AtomicBool::new(false),
            bytes_written: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            inner: Mutex::new(Inner::default()),
        };
        if let Err(e) = store.replay() {
            store.degrade(&e);
        }
        store
    }

    fn meta_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("{id}.meta.json"))
    }

    fn tmp_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("{id}.meta.tmp"))
    }

    fn results_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("{id}.results"))
    }

    /// Whether the store has fallen back to memory-only mode.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    fn degrade(&self, err: &io::Error) {
        if !self.degraded.swap(true, Ordering::SeqCst) {
            eprintln!("mems serve: job store degraded to memory-only mode: {err}");
        }
        // Drop open writers — no further spill I/O for in-flight jobs.
        self.inner
            .lock()
            .expect("no poisoned store lock")
            .writers
            .clear();
    }

    fn replay(&self) -> io::Result<()> {
        self.io.create_dir_all(&self.dir)?;
        let mut meta_files = Vec::new();
        let mut result_files = Vec::new();
        for path in self.io.list(&self.dir)? {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if name.ends_with(".meta.tmp") {
                // A crash between temp-write and rename: the final
                // meta (if any) is intact, the temp is garbage.
                let _ = self.io.remove(&path);
            } else if let Some(stem) = name.strip_suffix(".meta.json") {
                if let Ok(id) = stem.parse::<u64>() {
                    meta_files.push((id, path));
                }
            } else if let Some(stem) = name.strip_suffix(".results") {
                if let Ok(id) = stem.parse::<u64>() {
                    result_files.push((id, path));
                }
            }
        }
        let mut inner = self.inner.lock().expect("no poisoned store lock");
        for (id, path) in meta_files {
            let text = match self.io.read(&path).map(String::from_utf8) {
                Ok(Ok(text)) => text,
                _ => {
                    // Unreadable/undecodable meta: corruption beyond a
                    // torn tail. Drop the job rather than serve junk.
                    self.corrupt.fetch_add(1, Ordering::SeqCst);
                    let _ = self.io.remove(&path);
                    let _ = self.io.remove(&self.results_path(id));
                    continue;
                }
            };
            let Some(mut meta) = parse_meta(&text) else {
                self.corrupt.fetch_add(1, Ordering::SeqCst);
                let _ = self.io.remove(&path);
                let _ = self.io.remove(&self.results_path(id));
                continue;
            };
            meta.id = id;
            let spill = self.io.read(&self.results_path(id)).unwrap_or_default();
            let (records, valid_len, torn) = decode_records(&spill);
            if torn {
                self.corrupt.fetch_add(1, Ordering::SeqCst);
            }
            meta.result_bytes = valid_len as u64;
            if !terminal_state(&meta.state) {
                // Mid-run at crash time: recover as failed/interrupted
                // with the durably written prefix still retrievable.
                meta.state = "failed".to_string();
                meta.reason = Some("interrupted".to_string());
                meta.completed = records.len();
                meta.skipped = 0;
                self.write_meta(&meta)?;
            }
            inner.bytes += meta.result_bytes;
            inner.stored.insert(id, meta);
            self.replayed.fetch_add(1, Ordering::SeqCst);
        }
        // Orphan result files (no meta survived) are unreachable.
        for (id, path) in result_files {
            if !inner.stored.contains_key(&id) {
                let _ = self.io.remove(&path);
            }
        }
        Ok(())
    }

    fn write_meta(&self, meta: &StoredMeta) -> io::Result<()> {
        let tmp = self.tmp_path(meta.id);
        let mut file = self.io.create(&tmp)?;
        write_all(file.as_mut(), meta_json(meta).as_bytes())?;
        file.sync()?;
        drop(file);
        self.io.rename(&tmp, &self.meta_path(meta.id))?;
        self.io.sync_dir(&self.dir)
    }

    /// The largest job id on disk — the server resumes its id counter
    /// above this so restarted ids never collide with stored ones.
    pub fn max_id(&self) -> u64 {
        let inner = self.inner.lock().expect("no poisoned store lock");
        let stored = inner.stored.keys().next_back().copied().unwrap_or(0);
        let open = inner.writers.keys().max().copied().unwrap_or(0);
        stored.max(open)
    }

    /// Registers a freshly admitted job: durably writes its `running`
    /// meta and opens the result spill. Must run before the job's
    /// first point can finish.
    pub fn begin(&self, id: u64, client: &str, points: usize, fingerprint: u128) {
        if self.is_degraded() {
            return;
        }
        let meta = StoredMeta {
            id,
            client: client.to_string(),
            state: "running".to_string(),
            reason: None,
            points,
            completed: 0,
            skipped: 0,
            fingerprint,
            result_bytes: 0,
        };
        let opened = self
            .write_meta(&meta)
            .and_then(|()| self.io.create(&self.results_path(id)));
        match opened {
            Ok(file) => {
                self.inner
                    .lock()
                    .expect("no poisoned store lock")
                    .writers
                    .insert(
                        id,
                        Writer {
                            file,
                            meta,
                            bytes: 0,
                        },
                    );
            }
            Err(e) => self.degrade(&e),
        }
    }

    /// Rolls back a [`JobStore::begin`] whose job was never admitted
    /// (scheduler refusal after the spill was opened).
    pub fn discard(&self, id: u64) {
        let had = self
            .inner
            .lock()
            .expect("no poisoned store lock")
            .writers
            .remove(&id)
            .is_some();
        if had {
            let _ = self.io.remove(&self.results_path(id));
            let _ = self.io.remove(&self.meta_path(id));
        }
    }

    /// Appends one finished point's rendered record to the job's
    /// spill. Plain `write(2)` — durable across SIGKILL, fsynced at
    /// finalize.
    pub fn append(&self, id: u64, index: u32, payload: &[u8]) {
        if self.is_degraded() {
            return;
        }
        let mut frame = Vec::with_capacity(RECORD_HEADER + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&index.to_le_bytes());
        frame.extend_from_slice(&record_check(index, payload).to_le_bytes());
        frame.extend_from_slice(payload);
        let failed = {
            let mut inner = self.inner.lock().expect("no poisoned store lock");
            let Some(writer) = inner.writers.get_mut(&id) else {
                return;
            };
            match write_all(writer.file.as_mut(), &frame) {
                Ok(()) => {
                    writer.bytes += frame.len() as u64;
                    self.writes.fetch_add(1, Ordering::SeqCst);
                    self.bytes_written
                        .fetch_add(frame.len() as u64, Ordering::SeqCst);
                    None
                }
                Err(e) => Some(e),
            }
        };
        if let Some(e) = failed {
            self.degrade(&e);
        }
    }

    /// Seals a terminal job: fsyncs the spill, writes the terminal
    /// meta atomically, and indexes the job for disk-backed serving.
    /// Enforces `--spill-cap-bytes` by evicting the oldest stored
    /// jobs. If the fsync or meta write fails, the job's meta stays
    /// `running` on disk and a later restart honestly recovers it as
    /// `interrupted`.
    pub fn finalize(&self, id: u64, state: &str, completed: usize, skipped: usize) {
        if self.is_degraded() {
            return;
        }
        let Some(mut writer) = self
            .inner
            .lock()
            .expect("no poisoned store lock")
            .writers
            .remove(&id)
        else {
            return;
        };
        if let Err(e) = writer.file.sync() {
            self.degrade(&e);
            return;
        }
        drop(writer.file);
        writer.meta.state = state.to_string();
        writer.meta.completed = completed;
        writer.meta.skipped = skipped;
        writer.meta.result_bytes = writer.bytes;
        if let Err(e) = self.write_meta(&writer.meta) {
            self.degrade(&e);
            return;
        }
        let mut inner = self.inner.lock().expect("no poisoned store lock");
        inner.bytes += writer.bytes;
        inner.stored.insert(id, writer.meta);
        // Oldest-first disk eviction; the newest job always stays even
        // if it alone exceeds the cap.
        while inner.bytes > self.spill_cap && inner.stored.len() > 1 {
            let oldest = *inner.stored.keys().next().expect("non-empty stored map");
            let meta = inner.stored.remove(&oldest).expect("present key");
            inner.bytes = inner.bytes.saturating_sub(meta.result_bytes);
            let _ = self.io.remove(&self.results_path(oldest));
            let _ = self.io.remove(&self.meta_path(oldest));
            self.evicted.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// The stored meta for `id`, if it is a disk-backed terminal job.
    pub fn lookup(&self, id: u64) -> Option<StoredMeta> {
        self.inner
            .lock()
            .expect("no poisoned store lock")
            .stored
            .get(&id)
            .cloned()
    }

    /// The verified records of a stored job, as `(index, rendered)`
    /// pairs in on-disk order. `None` when the job isn't stored or its
    /// spill can't be read (the caller serves what memory has —
    /// never a 5xx).
    pub fn read_results(&self, id: u64) -> Option<Vec<(u32, String)>> {
        let meta = self.lookup(id)?;
        let bytes = self.io.read(&self.results_path(id)).ok()?;
        let end = (meta.result_bytes as usize).min(bytes.len());
        let (records, _, _) = decode_records(&bytes[..end]);
        Some(records)
    }

    /// Counter snapshot for metrics and health.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock().expect("no poisoned store lock");
        StoreStats {
            jobs: inner.stored.len(),
            disk_bytes: inner.bytes,
            degraded: self.is_degraded(),
            bytes_written: self.bytes_written.load(Ordering::SeqCst),
            writes: self.writes.load(Ordering::SeqCst),
            replayed_jobs: self.replayed.load(Ordering::SeqCst),
            corrupt_records: self.corrupt.load(Ordering::SeqCst),
            evicted_jobs: self.evicted.load(Ordering::SeqCst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "mems-store-{tag}-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::SeqCst)
            ));
            std::fs::create_dir_all(&dir).expect("temp dir");
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn open(dir: &Path) -> JobStore {
        JobStore::open(dir, u64::MAX, Arc::new(RealIo))
    }

    #[test]
    fn record_framing_round_trips_and_drops_torn_tails() {
        let mut spill = Vec::new();
        for (index, payload) in [(0u32, "alpha"), (1, "{\"i\":1}"), (2, "")] {
            spill.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            spill.extend_from_slice(&index.to_le_bytes());
            spill.extend_from_slice(&record_check(index, payload.as_bytes()).to_le_bytes());
            spill.extend_from_slice(payload.as_bytes());
        }
        let (records, valid, torn) = decode_records(&spill);
        assert_eq!(
            records,
            vec![
                (0, "alpha".to_string()),
                (1, "{\"i\":1}".to_string()),
                (2, String::new())
            ]
        );
        assert_eq!(valid, spill.len());
        assert!(!torn);

        // Chop into the last record: it is dropped, the prefix stands.
        let (records, valid, torn) = decode_records(&spill[..spill.len() - 1]);
        assert_eq!(records.len(), 2);
        assert!(torn);
        assert!(valid < spill.len());

        // Flip a payload byte: checksum fails, scan stops there.
        let mut flipped = spill.clone();
        let at = RECORD_HEADER + 2; // inside record 0's payload
        flipped[at] ^= 0x40;
        let (records, _, torn) = decode_records(&flipped);
        assert!(records.is_empty());
        assert!(torn);
    }

    #[test]
    fn finalized_jobs_survive_reopen_byte_identical() {
        let tmp = TempDir::new("reopen");
        let store = open(&tmp.0);
        store.begin(7, "alice", 2, 0xabcd);
        store.append(7, 0, b"{\"index\":0}");
        store.append(7, 1, b"{\"index\":1}");
        store.finalize(7, "done", 2, 0);
        drop(store);

        let store = open(&tmp.0);
        let meta = store.lookup(7).expect("stored job");
        assert_eq!(meta.state, "done");
        assert_eq!(meta.points, 2);
        assert_eq!(meta.completed, 2);
        assert_eq!(meta.fingerprint, 0xabcd);
        assert_eq!(
            store.read_results(7).expect("spill"),
            vec![
                (0, "{\"index\":0}".to_string()),
                (1, "{\"index\":1}".to_string())
            ]
        );
        assert_eq!(store.stats().replayed_jobs, 1);
        assert_eq!(store.stats().corrupt_records, 0);
        assert_eq!(store.max_id(), 7);
    }

    #[test]
    fn full_width_fingerprints_survive_reopen() {
        let tmp = TempDir::new("fp128");
        let fp = 0xfedc_ba98_7654_3210_0123_4567_89ab_cdef_u128;
        let hex = "\"fingerprint\":\"fedcba98765432100123456789abcdef\"";
        let store = open(&tmp.0);
        store.begin(2, "c", 1, fp);
        store.append(2, 0, b"r0");
        store.finalize(2, "done", 1, 0);
        drop(store);
        let on_disk = std::fs::read_to_string(tmp.0.join("2.meta.json")).expect("meta");
        assert!(on_disk.contains(hex), "{on_disk}");

        let store = open(&tmp.0);
        let meta = store.lookup(2).expect("stored job");
        assert_eq!(meta.fingerprint, fp);
        assert!(meta.status_json().contains(hex));
        assert_eq!(store.stats().corrupt_records, 0);
    }

    #[test]
    fn legacy_16_digit_fingerprint_metas_still_replay() {
        let tmp = TempDir::new("fp64");
        // A job spilled while fingerprints were 64-bit.
        std::fs::write(
            tmp.0.join("5.meta.json"),
            concat!(
                "{\"v\":1,\"id\":5,\"client\":\"old\",\"state\":\"done\",\"reason\":null,",
                "\"points\":1,\"completed\":1,\"skipped\":0,\"fingerprint\":\"00000000deadbeef\"}"
            ),
        )
        .expect("meta");
        let mut spill = Vec::new();
        spill.extend_from_slice(&2u32.to_le_bytes());
        spill.extend_from_slice(&0u32.to_le_bytes());
        spill.extend_from_slice(&record_check(0, b"r0").to_le_bytes());
        spill.extend_from_slice(b"r0");
        std::fs::write(tmp.0.join("5.results"), &spill).expect("spill");

        let store = open(&tmp.0);
        let meta = store.lookup(5).expect("legacy job replays");
        assert_eq!(meta.state, "done");
        assert_eq!(meta.fingerprint, 0xdead_beef);
        assert_eq!(
            store.read_results(5).expect("spill"),
            vec![(0, "r0".to_string())]
        );
        assert_eq!(store.stats().replayed_jobs, 1);
        assert_eq!(store.stats().corrupt_records, 0);
    }

    #[test]
    fn unfinalized_jobs_recover_as_interrupted_with_prefix() {
        let tmp = TempDir::new("interrupt");
        let store = open(&tmp.0);
        store.begin(3, "bob", 5, 1);
        store.append(3, 0, b"r0");
        store.append(3, 1, b"r1");
        drop(store); // SIGKILL stand-in: no finalize, no fsync

        let store = open(&tmp.0);
        let meta = store.lookup(3).expect("recovered job");
        assert_eq!(meta.state, "failed");
        assert_eq!(meta.reason.as_deref(), Some("interrupted"));
        assert_eq!(meta.completed, 2);
        assert_eq!(meta.points, 5);
        let records = store.read_results(3).expect("prefix");
        assert_eq!(records.len(), 2);

        // The recovery meta is durable: a second replay sees a
        // terminal job, not another interruption.
        drop(store);
        let store = open(&tmp.0);
        assert_eq!(store.lookup(3).expect("still there").state, "failed");
    }

    #[test]
    fn truncated_tail_is_dropped_and_counted() {
        let tmp = TempDir::new("torn");
        let store = open(&tmp.0);
        store.begin(1, "c", 3, 2);
        store.append(1, 0, b"keep-me-0");
        store.append(1, 1, b"keep-me-1");
        store.append(1, 2, b"torn-tail");
        store.finalize(1, "done", 3, 0);
        drop(store);

        let spill = tmp.0.join("1.results");
        let full = std::fs::read(&spill).expect("spill bytes");
        std::fs::write(&spill, &full[..full.len() - 4]).expect("truncate");

        let store = open(&tmp.0);
        let records = store.read_results(1).expect("prefix");
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].1, "keep-me-1");
        assert_eq!(store.stats().corrupt_records, 1);
    }

    #[test]
    fn spill_cap_evicts_oldest_jobs_first() {
        let tmp = TempDir::new("cap");
        // Each record is 16 + 8 = 24 bytes; cap at two jobs' worth.
        let store = JobStore::open(&tmp.0, 48, Arc::new(RealIo));
        for id in 1..=3u64 {
            store.begin(id, "c", 1, 0);
            store.append(id, 0, b"8-bytes!");
            store.finalize(id, "done", 1, 0);
        }
        assert!(store.lookup(1).is_none(), "oldest evicted");
        assert!(store.lookup(2).is_some());
        assert!(store.lookup(3).is_some());
        assert_eq!(store.stats().evicted_jobs, 1);
        assert!(!tmp.0.join("1.results").exists());
        assert!(!tmp.0.join("1.meta.json").exists());
    }

    #[test]
    fn discard_rolls_back_an_unadmitted_begin() {
        let tmp = TempDir::new("discard");
        let store = open(&tmp.0);
        store.begin(9, "c", 1, 0);
        store.discard(9);
        assert!(!tmp.0.join("9.meta.json").exists());
        assert!(!tmp.0.join("9.results").exists());
        drop(store);
        assert_eq!(open(&tmp.0).stats().replayed_jobs, 0);
    }

    #[test]
    fn write_faults_degrade_to_memory_only() {
        let tmp = TempDir::new("fault-write");
        let store = JobStore::open(&tmp.0, u64::MAX, Arc::new(FaultIo::fail_after_writes(2)));
        store.begin(1, "c", 2, 0); // meta write consumes fault budget
        store.append(1, 0, b"first");
        store.append(1, 1, b"second"); // trips the fault
        assert!(store.is_degraded());
        assert!(store.stats().degraded);
        // Every later call is a silent no-op, never a panic or error.
        store.append(1, 2, b"ignored");
        store.finalize(1, "done", 2, 0);
        assert!(store.lookup(1).is_none());
    }

    #[test]
    fn fsync_faults_degrade_and_leave_job_recoverable() {
        let tmp = TempDir::new("fault-sync");
        {
            let store = JobStore::open(&tmp.0, u64::MAX, Arc::new(FaultIo::passthrough()));
            store.begin(4, "c", 1, 0);
            store.append(4, 0, b"point");
            drop(store);
        }
        // Reopen with failing fsync: replay must rewrite the meta as
        // interrupted, which needs a sync — the store degrades but the
        // server keeps running.
        let store = JobStore::open(&tmp.0, u64::MAX, Arc::new(FaultIo::fail_fsync()));
        assert!(store.is_degraded());
        // And with a healthy disk the same directory still recovers.
        let store = open(&tmp.0);
        assert!(!store.is_degraded());
        assert_eq!(store.lookup(4).expect("recovered").state, "failed");
    }

    #[test]
    fn short_write_leaves_a_torn_record_that_replay_drops() {
        let tmp = TempDir::new("short");
        {
            // Budget: begin's meta write succeeds (1 write), append 0
            // succeeds (1 write), append 1 lands half its frame then
            // faults.
            let io = Arc::new(FaultIo::short_then_fail_after_writes(2));
            let store = JobStore::open(&tmp.0, u64::MAX, io);
            store.begin(6, "c", 3, 0);
            store.append(6, 0, b"whole-record");
            store.append(6, 1, b"torn-record!");
            assert!(store.is_degraded());
        }
        let store = open(&tmp.0);
        let meta = store.lookup(6).expect("recovered");
        assert_eq!(meta.state, "failed");
        assert_eq!(meta.completed, 1, "torn record dropped");
        assert_eq!(store.stats().corrupt_records, 1);
        assert_eq!(
            store.read_results(6).expect("prefix"),
            vec![(0, "whole-record".to_string())]
        );
    }
}
