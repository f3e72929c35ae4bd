//! One stable fingerprint and one LRU cache for every memo table in
//! the workspace.
//!
//! [`Fingerprint`] keys the fill-ordering cache, `mems serve`'s
//! artifact cache, and the deck guard of a reused run context. It is a
//! 128-bit dual FNV-1a digest fed explicit `u64` words, so its value
//! depends only on those words — not on the Rust release, the
//! platform, or a `Hash` impl — and it may be written to disk.
//!
//! [`Lru`] is the one cache behind those keys: a mutex-guarded map with
//! an entry cap, least-recently-used eviction, and hit/miss/eviction
//! counters that `/v1/metrics` renders without per-cache glue.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A stable 128-bit fingerprint: two FNV-1a lanes with different
/// offset bases, the second fed every word rotated by 32 bits.
///
/// Feed it with [`word`](Self::word), [`words`](Self::words), and
/// [`bytes`](Self::bytes); the digest so far is the value. Collisions
/// between distinct inputs are vanishingly unlikely, but FNV is not a
/// cryptographic hash: a cache that hands results to clients still
/// compares its key material on a hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Fingerprint {
    a: u64,
    b: u64,
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    /// The fingerprint of no input.
    pub const fn new() -> Self {
        Fingerprint {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0x6c62_272e_07bb_0142,
        }
    }

    /// Feeds one word.
    #[must_use]
    pub const fn word(self, x: u64) -> Self {
        Fingerprint {
            a: (self.a ^ x).wrapping_mul(FNV_PRIME),
            b: (self.b ^ x.rotate_left(32)).wrapping_mul(FNV_PRIME),
        }
    }

    /// Feeds every index as one word. No length is fed: a caller that
    /// feeds several slices feeds their lengths first.
    #[must_use]
    pub fn words(self, xs: &[usize]) -> Self {
        xs.iter().fold(self, |f, &x| f.word(x as u64))
    }

    /// Feeds a byte string: its length, then its bytes eight at a time
    /// as little-endian words, the last one zero-padded.
    #[must_use]
    pub fn bytes(self, s: &[u8]) -> Self {
        s.chunks(8).fold(self.word(s.len() as u64), |f, chunk| {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            f.word(u64::from_le_bytes(w))
        })
    }

    /// The 128-bit value, first lane in the high half.
    pub const fn value(self) -> u128 {
        ((self.a as u128) << 64) | self.b as u128
    }
}

/// A point-in-time copy of an [`Lru`]'s counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LruStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that computed their value.
    pub misses: u64,
    /// Entries dropped to stay within the cap.
    pub evictions: u64,
    /// Resident entries.
    pub entries: usize,
}

struct Entry<V> {
    value: V,
    /// Key of this entry in the recency order.
    stamp: u64,
}

struct State<V> {
    entries: BTreeMap<Fingerprint, Entry<V>>,
    /// Recency order, least recently used first.
    order: BTreeMap<u64, Fingerprint>,
    next_stamp: u64,
}

impl<V: Clone> State<V> {
    /// The value under `key`, now the most recently used.
    fn get(&mut self, key: Fingerprint) -> Option<V> {
        let entry = self.entries.get_mut(&key)?;
        self.order.remove(&entry.stamp);
        entry.stamp = self.next_stamp;
        self.order.insert(entry.stamp, key);
        self.next_stamp += 1;
        Some(entry.value.clone())
    }

    /// Inserts an absent key as the most recently used entry, then
    /// drops the least recently used entries until at most `cap`
    /// remain. Returns how many entries were dropped.
    fn insert(&mut self, key: Fingerprint, value: V, cap: usize) -> u64 {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.order.insert(stamp, key);
        self.entries.insert(key, Entry { value, stamp });
        let mut evicted = 0;
        while self.entries.len() > cap {
            let Some((_, oldest)) = self.order.pop_first() else {
                break;
            };
            self.entries.remove(&oldest);
            evicted += 1;
        }
        evicted
    }
}

/// A least-recently-used cache keyed by [`Fingerprint`] and bounded by
/// an entry count.
///
/// Values are handed out by clone, so they are usually `Arc`s. The
/// constructor is `const`, so a process-wide cache is a plain `static`.
pub struct Lru<V> {
    cap: usize,
    state: Mutex<State<V>>,
    /// Lookups answered from the cache.
    pub hits: AtomicU64,
    /// Lookups that computed their value.
    pub misses: AtomicU64,
    /// Entries dropped to stay within the cap.
    pub evictions: AtomicU64,
}

impl<V: Clone> Lru<V> {
    /// An empty cache holding at most `cap` entries.
    pub const fn new(cap: usize) -> Self {
        Lru {
            cap,
            state: Mutex::new(State {
                entries: BTreeMap::new(),
                order: BTreeMap::new(),
                next_stamp: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<V>> {
        self.state.lock().expect("no poisoned cache lock")
    }

    /// The value cached under `key`, or else `make`'s value, which is
    /// inserted. Returns the value and whether it was a hit.
    ///
    /// `make` runs outside the lock, so misses on distinct keys never
    /// wait for each other. When two callers race on one key, the
    /// first value inserted is kept and the later caller gets it back
    /// as a hit.
    ///
    /// # Errors
    ///
    /// `make`'s error. A failed computation inserts nothing and counts
    /// neither a hit nor a miss.
    pub fn get_or_insert_with<E>(
        &self,
        key: Fingerprint,
        make: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        let cached = self.lock().get(key);
        if let Some(value) = cached {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((value, true));
        }
        let value = make()?;
        let mut state = self.lock();
        if let Some(first) = state.get(key) {
            drop(state);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((first, true));
        }
        let evicted = state.insert(key, value.clone(), self.cap);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        drop(state);
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok((value, false))
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> LruStats {
        let state = self.lock();
        LruStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: state.entries.len(),
        }
    }

    /// Drops every entry; the counters keep running.
    pub fn clear(&self) {
        let mut state = self.lock();
        state.entries.clear();
        state.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    fn key(k: u64) -> Fingerprint {
        Fingerprint::new().word(k)
    }

    /// Looks `k` up, computing `v` on a miss; returns (value, hit).
    fn lookup(lru: &Lru<u32>, k: u64, v: u32) -> (u32, bool) {
        let Ok(got) = lru.get_or_insert_with(key(k), || Ok::<_, Infallible>(v));
        got
    }

    #[test]
    fn fingerprint_values_are_pinned() {
        // No input: the two offset bases.
        assert_eq!(
            Fingerprint::new().value(),
            0xcbf2_9ce4_8422_2325_6c62_272e_07bb_0142
        );
        // A word below 256 drives the first lane exactly like FNV-1a
        // over that one byte: the published vectors for "\0" and "a".
        assert_eq!(
            Fingerprint::new().word(0).value() >> 64,
            0xaf63_bd4c_8601_b7df
        );
        assert_eq!(
            Fingerprint::new().word(0x61).value() >> 64,
            0xaf63_dc4c_8601_ec8c
        );
        // Full values for words, index slices, and byte strings.
        assert_eq!(
            Fingerprint::new().word(1).word(u64::MAX).value(),
            0xf7d0_dcf8_4b17_7189_c6e4_a926_ee6b_44bb
        );
        assert_eq!(
            Fingerprint::new().words(&[3, 1, 4, 1, 5]).value(),
            0xb408_6a0c_0c4e_3045_1554_07bf_0934_d086
        );
        assert_eq!(
            Fingerprint::new().bytes(b"").value(),
            0xaf63_bd4c_8601_b7df_e5c9_d537_22c3_2326
        );
        assert_eq!(
            Fingerprint::new().bytes(b"mems serve deck").value(),
            0xc7c8_f069_79d6_eaed_841b_9274_9a3a_8ed5
        );
    }

    #[test]
    fn byte_strings_are_length_prefixed() {
        let split = Fingerprint::new().bytes(b"ab").bytes(b"c");
        let joined = Fingerprint::new().bytes(b"a").bytes(b"bc");
        assert_ne!(split, joined);
        // Trailing zero bytes are not lost in the padding.
        assert_ne!(
            Fingerprint::new().bytes(b"x"),
            Fingerprint::new().bytes(b"x\0")
        );
        assert_eq!(
            Fingerprint::new().words(&[7, 9]),
            Fingerprint::new().word(7).word(9)
        );
    }

    #[test]
    fn a_read_entry_outlives_an_older_unread_one() {
        let lru = Lru::new(2);
        lookup(&lru, 1, 10);
        lookup(&lru, 2, 20);
        assert_eq!(lookup(&lru, 1, 0), (10, true));
        // Inserting a third evicts 2, the least recently used.
        lookup(&lru, 3, 30);
        assert_eq!(lookup(&lru, 1, 0), (10, true));
        assert_eq!(lookup(&lru, 2, 21), (21, false));
        assert_eq!(lru.stats().evictions, 2);
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn the_first_insert_wins_a_race_and_the_loser_hits() {
        let lru = Lru::new(4);
        // The outer computation runs outside the lock; a second caller
        // inserts the same key while it runs.
        let Ok(outer) = lru.get_or_insert_with(key(7), || {
            assert_eq!(lookup(&lru, 7, 1), (1, false));
            Ok::<_, Infallible>(2)
        });
        assert_eq!(outer, (1, true));
        assert_eq!(lookup(&lru, 7, 3), (1, true));
        let s = lru.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 1, 1));
    }

    #[test]
    fn a_failed_computation_inserts_and_counts_nothing() {
        let lru: Lru<u32> = Lru::new(4);
        assert_eq!(lru.get_or_insert_with(key(1), || Err("bad")), Err("bad"));
        assert!(lru.is_empty());
        assert_eq!(lru.stats(), LruStats::default());
    }

    #[test]
    fn clear_empties_the_cache_but_keeps_the_counters() {
        let lru = Lru::new(4);
        lookup(&lru, 1, 10);
        lookup(&lru, 2, 20);
        lookup(&lru, 1, 0);
        lru.clear();
        let s = lru.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 0));
        assert_eq!(lookup(&lru, 1, 11), (11, false));
    }
}
