//! The server-wide artifact cache.
//!
//! Keyed on the submitted deck **source text** (verified by equality,
//! not just by hash), each entry owns the parsed [`Deck`], its
//! expanded point list, and a pool of warm [`RunCtx`]s — assembly
//! workspaces whose sparse pattern, ordering and replayed pivots
//! survive across jobs. A re-submitted deck therefore skips parse and
//! sweep expansion, and its first factorization reuses the pattern
//! and ordering: the second submission's job reports
//! `warm_checkout == true`. Every point still builds its circuit
//! fresh through `Elaborator::build`.
//!
//! The cache is deliberately **memory-only**: its artifacts (warm
//! contexts, sparse patterns) are process-lifetime objects
//! that are cheap to rebuild on a cache miss. Durability of *results*
//! lives in [`crate::store`], which spills finished jobs to
//! `--data-dir`; the two never overlap — a restarted server serves
//! stored results from disk while rebuilding simulation artifacts
//! from scratch on first touch.

use crate::sync::lock;
use mems_netlist::{deck_fingerprint, BatchPoint, Deck, IncludeResolver, NetlistError, RunCtx};
use mems_numerics::cache::{Fingerprint, Lru};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One cached deck and its reusable simulation artifacts.
pub struct DeckEntry {
    /// The submitted source, byte-for-byte (the real cache key).
    pub source: String,
    /// The parsed deck.
    pub deck: Deck,
    /// Definition fingerprint (`deck_fingerprint`), reported to
    /// clients as cache metadata.
    pub fingerprint: Fingerprint,
    /// The deck's expanded `.STEP`/`.MC` point list (`None` when the
    /// deck has neither card). Point expansion is deterministic —
    /// `.MC` sampling is keyed on `(seed, point, variable)` — so it is
    /// computed once at parse time and cloned per submission: a cache
    /// hit re-runs *nothing*, not even sweep expansion.
    pub batch_points: Option<Vec<BatchPoint>>,
    /// Warm run contexts checked out by workers and returned after
    /// each chunk.
    pool: Mutex<Vec<RunCtx>>,
    /// How many submissions resolved to this entry after the first.
    pub hits: AtomicU64,
}

/// Cap on pooled contexts per entry; beyond it a returned context is
/// dropped (its artifacts are cheap to rebuild relative to holding
/// unbounded memory for idle decks).
const POOL_CAP: usize = 8;

impl DeckEntry {
    /// Hands out a warm context (or a cold one when the pool is dry)
    /// together with a flag telling whether it carries artifacts.
    pub fn checkout(&self) -> (RunCtx, bool) {
        match lock(&self.pool).pop() {
            Some(ctx) => {
                let warm = ctx.is_warm();
                (ctx, warm)
            }
            None => (RunCtx::default(), false),
        }
    }

    /// The point list a job over this deck runs: the expanded
    /// `.STEP`/`.MC` points, or one empty-override point for plain
    /// decks (a job is always a stream of ≥ 1 point records).
    pub fn job_points(&self) -> Vec<BatchPoint> {
        match &self.batch_points {
            Some(points) => points.clone(),
            None => vec![BatchPoint {
                index: 0,
                overrides: Vec::new(),
            }],
        }
    }

    /// Returns a context to the pool for the next chunk or job.
    pub fn checkin(&self, mut ctx: RunCtx) {
        // A guess chained from one job's last point must not leak
        // into another job's Newton solves.
        ctx.op_guess = None;
        let mut pool = lock(&self.pool);
        if pool.len() < POOL_CAP {
            pool.push(ctx);
        }
    }
}

/// What a cache lookup did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The source was already cached; nothing was parsed.
    Hit,
    /// The source was parsed and elaboration-checked, then cached.
    Miss,
}

/// The fingerprint-keyed deck cache: an [`Lru`] over submitted
/// sources, holding at most `--cache-cap` decks. It derefs to that
/// [`Lru`] for its counters (exported on `/v1/health` and
/// `/v1/metrics`), size, and stats.
pub struct ArtifactCache(Lru<Arc<DeckEntry>>);

impl Deref for ArtifactCache {
    type Target = Lru<Arc<DeckEntry>>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl ArtifactCache {
    /// An empty cache holding at most `cap` decks.
    pub fn new(cap: usize) -> Self {
        ArtifactCache(Lru::new(cap.max(1)))
    }

    /// Resolves submitted source text to a cached entry, parsing and
    /// caching on miss. The parse on the miss path also performs the
    /// elaborate fail-fast (`Elaborator::new`), so a returned entry is
    /// always simulatable-or-diagnosed up front. The parse runs
    /// outside the cache lock: a slow deck must not stall lookups.
    ///
    /// # Errors
    ///
    /// Parse/elaborate diagnostics for the submitted deck.
    pub fn resolve(
        &self,
        source: &str,
        includes: &mut dyn IncludeResolver,
    ) -> Result<(Arc<DeckEntry>, Lookup), NetlistError> {
        let key = Fingerprint::new().bytes(source.as_bytes());
        let (entry, hit) = self.get_or_insert_with(key, || parse_entry(source, includes))?;
        if entry.source != source {
            // A fingerprint collision: never hand out another deck's
            // artifacts. The colliding deck runs uncached.
            return Ok((parse_entry(source, includes)?, Lookup::Miss));
        }
        if !hit {
            return Ok((entry, Lookup::Miss));
        }
        entry.hits.fetch_add(1, Ordering::Relaxed);
        Ok((entry, Lookup::Hit))
    }
}

/// Parses and elaboration-checks a submitted deck into a fresh entry.
fn parse_entry(
    source: &str,
    includes: &mut dyn IncludeResolver,
) -> Result<Arc<DeckEntry>, NetlistError> {
    let deck = Deck::parse_with_includes(source, includes)?;
    let elab = mems_netlist::Elaborator::new(&deck)?;
    let batch_points = match mems_netlist::batch_points_with(&elab) {
        Ok(points) => Some(points),
        // The span-less elab error is "no .STEP/.MC card" — a plain
        // single-run deck, not a diagnostic.
        Err(NetlistError::Elab { span: None, .. }) => None,
        Err(e) => return Err(e),
    };
    drop(elab);
    Ok(Arc::new(DeckEntry {
        source: source.to_string(),
        fingerprint: deck_fingerprint(&deck),
        batch_points,
        deck,
        pool: Mutex::new(Vec::new()),
        hits: AtomicU64::new(0),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mems_netlist::NoIncludes;

    const DECK: &str = "divider\nVs in 0 6\nR1 in out 1k\nR2 out 0 2k\n.op\n.print op v(out)\n";

    #[test]
    fn second_resolve_is_a_hit() {
        let cache = ArtifactCache::new(4);
        let (a, first) = cache.resolve(DECK, &mut NoIncludes).unwrap();
        let (b, second) = cache.resolve(DECK, &mut NoIncludes).unwrap();
        assert_eq!(first, Lookup::Miss);
        assert_eq!(second, Lookup::Hit);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.hits.load(Ordering::Relaxed), 1);
        assert_eq!(a.hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn different_sources_are_different_entries() {
        let cache = ArtifactCache::new(4);
        let (a, _) = cache.resolve(DECK, &mut NoIncludes).unwrap();
        let tweaked = DECK.replace("2k", "3k");
        let (b, what) = cache.resolve(&tweaked, &mut NoIncludes).unwrap();
        assert_eq!(what, Lookup::Miss);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn lru_eviction_bounds_residency() {
        let cache = ArtifactCache::new(2);
        for r2 in ["1k", "2k", "3k"] {
            let deck = DECK.replace("2k", r2);
            cache.resolve(&deck, &mut NoIncludes).unwrap();
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions.load(Ordering::Relaxed), 1);
        // The oldest ("1k") was evicted: resubmitting it misses.
        let (_, what) = cache
            .resolve(&DECK.replace("2k", "1k"), &mut NoIncludes)
            .unwrap();
        assert_eq!(what, Lookup::Miss);
    }

    #[test]
    fn checkout_reports_warmth() {
        let cache = ArtifactCache::new(4);
        let (entry, _) = cache.resolve(DECK, &mut NoIncludes).unwrap();
        let (ctx, warm) = entry.checkout();
        assert!(!warm);
        // Run one point so the context accrues artifacts.
        let elab = mems_netlist::Elaborator::new(&entry.deck).unwrap();
        let mut ctx = ctx;
        mems_netlist::run_elaborated_ctx(&elab, &Default::default(), &mut ctx).unwrap();
        entry.checkin(ctx);
        let (ctx, warm) = entry.checkout();
        assert!(warm && ctx.is_warm());
    }

    #[test]
    fn a_poisoned_pool_keeps_lending_contexts() {
        let cache = ArtifactCache::new(4);
        let (entry, _) = cache.resolve(DECK, &mut NoIncludes).unwrap();
        crate::sync::poison(&entry.pool);
        let (ctx, warm) = entry.checkout();
        assert!(!warm);
        let elab = mems_netlist::Elaborator::new(&entry.deck).unwrap();
        let mut ctx = ctx;
        mems_netlist::run_elaborated_ctx(&elab, &Default::default(), &mut ctx).unwrap();
        entry.checkin(ctx);
        assert!(entry.checkout().1);
    }

    #[test]
    fn bad_decks_do_not_enter_the_cache() {
        let cache = ArtifactCache::new(4);
        assert!(cache.resolve("t\nbogus card\n", &mut NoIncludes).is_err());
        assert!(cache.is_empty());
        assert_eq!(cache.misses.load(Ordering::Relaxed), 0);
    }
}
