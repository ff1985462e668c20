//! Content-addressed run cache: repeated executions cost ~zero.
//!
//! The practical-reproducibility literature the ROADMAP tracks names
//! *re-execution cost* as the main reason artifacts go unverified — if
//! checking a result means paying its full compute price again, people
//! skip the check. This module removes that price without weakening the
//! guarantee: a completed [`RunRecord`] is persisted under a key derived
//! from everything that determines its bits, and a later run with the
//! same key replays the stored trail instead of recomputing.
//!
//! **Key derivation.** A cache entry's *address* is
//! `fnv64_parts(id ‖ seed ‖ canonical-params)` — the experiment id, the master
//! seed, and the parameter set rendered in canonical (BTreeMap key)
//! order. The *validity* of an entry is governed separately by the
//! **code+env fingerprint** stored inside it:
//! [`Environment::capture`]`().fingerprint()`, which covers the harness
//! version (code) plus OS and architecture (env). The host's thread count
//! is not part of it: results are bitwise-invariant to it, so a cache
//! copied to a host with more cores stays valid. A lookup that finds the
//! address but not the fingerprint is an **invalidation**, counted as
//! such and recomputed — this is how a rebuilt harness or a new machine
//! transparently refreshes the cache instead of serving stale bits.
//!
//! Storage is one plain-text file per entry (the provenance layer's
//! [`Trail::render`]/[`Trail::parse`] round-trips metrics bitwise), so a
//! cache directory doubles as a human-auditable archive of past runs.
//! Hit / miss / invalidation / store counts are kept per handle and
//! surfaced by the CLI after every cached command. A batch's handle lives
//! in one process, the coordinator: [`crate::batch`] looks up and stores
//! every run itself, so a sharded batch's counts need no merging and no
//! worker ever opens the directory.
//!
//! **Integrity.** Every entry carries a checksum of its trail body that is
//! verified at read time, and every entry is read through [`RunEntry`],
//! whose parser accepts only the bytes `store` writes
//! ([`crate::codec`]): an entry whose bytes no longer hash to what was
//! stored (bit rot, a torn write from a killed process, tampering) or are
//! no longer canonical (a CRLF checkout, an edited header) is classified
//! as **corrupt** ([`Lookup::Corrupt`]), deleted on the spot and
//! recomputed by the caller — the cache self-heals instead of serving
//! damaged provenance. Writes go through [`write_atomic`] (spool file +
//! rename), so a crash mid-store can never leave a truncated entry at an
//! addressable path, and the next open sweeps the dead writer's spool.
//!
//! **Lifecycle.** A handle opened with [`RunCache::open_bounded`] keeps
//! the directory under a hard [`CacheBound`] (entry count and/or payload
//! bytes) with deterministic LRU eviction. Recency is measured on a
//! **logical clock** — a monotone counter that ticks once per classified
//! lookup or store — never wall time, so two runs that issue the same
//! cache operations in the same order evict the same entries in the same
//! order regardless of machine speed or scheduling. The victim is always
//! the minimum `(tick, file-name)` pair; the name tie-break makes even
//! the cold-start case (a freshly seeded index where several entries
//! share a tick) schedule-independent. Unbounded handles skip the index
//! entirely, preserving the original grow-forever fast path.

use crate::codec::{self, Cursor, Esc};
use crate::environment::Environment;
use crate::experiment::{Params, RunRecord};
use crate::provenance::Trail;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

// v3: the trail grammar inside entries gained escaping (provenance render
// is now injective), so v2 bodies could parse differently — old entries
// classify as Stale and refresh rather than risk a silent re-read skew.
const MAGIC: &str = "treu-cache v3";

/// Counters for one cache handle's lifetime.
///
/// Snapshots are taken under one lock, so the classification invariant
/// `lookups == hits + misses + invalidations + corruptions` holds in
/// *every* snapshot — not just quiescent ones. (The previous per-counter
/// atomics could tear: a snapshot taken between a concurrent lookup's
/// two increments double- or under-counted a category.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Classified *run* lookups: every one lands in exactly one of the
    /// four categories below. Blob traffic is counted separately so a
    /// soak's run hit-rate is never diluted by table/report artifacts.
    pub lookups: u64,
    /// Run lookups served from a valid entry.
    pub hits: u64,
    /// Run lookups that found no entry at the address.
    pub misses: u64,
    /// Run lookups that found an entry with a stale or unreadable
    /// code+env fingerprint (recomputed and overwritten by the caller).
    pub invalidations: u64,
    /// Run entries whose read-time checksum verification failed — deleted
    /// on sight and recomputed by the caller (self-healing).
    pub corruptions: u64,
    /// Run entries written.
    pub stores: u64,
    /// Run entries whose write failed (the run's result stands; only its
    /// entry is missing).
    pub failed_stores: u64,
    /// Classified blob lookups ([`RunCache::lookup_blob`]): each lands in
    /// exactly one of hit / miss / invalidation (blobs carry no checksum,
    /// so there is no corrupt class).
    pub blob_lookups: u64,
    /// Blob lookups served from a valid entry.
    pub blob_hits: u64,
    /// Blob lookups that found no entry at the address.
    pub blob_misses: u64,
    /// Blob lookups that found a stale or malformed entry.
    pub blob_invalidations: u64,
    /// Blob entries written.
    pub blob_stores: u64,
    /// Entries (runs and blobs) evicted to keep a bounded handle under
    /// its [`CacheBound`].
    pub evictions: u64,
}

impl CacheStats {
    /// The snapshot invariant: every lookup — run and blob alike — was
    /// classified exactly once.
    pub fn consistent(&self) -> bool {
        self.lookups == self.hits + self.misses + self.invalidations + self.corruptions
            && self.blob_lookups == self.blob_hits + self.blob_misses + self.blob_invalidations
    }

    /// Run hit-rate over this handle's lifetime; blob traffic is
    /// excluded by construction. `0.0` before any run lookup.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// Hard occupancy bound for a cache directory: maximum resident entries
/// and/or payload bytes. Zero disables that axis; the default is
/// unbounded on both, which preserves the original grow-forever behavior
/// (and its index-free fast path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheBound {
    /// Maximum resident entries (runs + blobs); 0 = unbounded.
    pub max_entries: usize,
    /// Maximum resident payload bytes; 0 = unbounded.
    pub max_bytes: u64,
}

impl CacheBound {
    /// Unbounded on both axes.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Bound by entry count only.
    pub fn entries(max_entries: usize) -> Self {
        Self { max_entries, max_bytes: 0 }
    }

    /// Bound by payload bytes only.
    pub fn bytes(max_bytes: u64) -> Self {
        Self { max_entries: 0, max_bytes }
    }

    /// Bound on both axes (either may be 0 = unbounded).
    pub fn new(max_entries: usize, max_bytes: u64) -> Self {
        Self { max_entries, max_bytes }
    }

    /// True when at least one axis is bounded.
    pub fn is_bounded(&self) -> bool {
        self.max_entries > 0 || self.max_bytes > 0
    }
}

/// One resident entry in the recency index of a bounded handle.
#[derive(Debug, Clone, Copy)]
struct Resident {
    /// Logical-clock value of the entry's last classified touch.
    tick: u64,
    /// On-disk size of the entry file.
    bytes: u64,
}

/// In-memory recency index for bounded handles. The clock ticks once per
/// classified lookup or store — a pure operation counter, never wall
/// time — so eviction order is a function of the operation sequence
/// alone. Keyed by entry file name; `BTreeMap` keeps victim selection
/// (`min (tick, name)`) and [`RunCache::resident_entries`] canonical.
#[derive(Debug, Default)]
struct LruIndex {
    entries: BTreeMap<String, Resident>,
    bytes: u64,
    clock: u64,
    evicted: Vec<String>,
}

impl LruIndex {
    /// Ticks the clock and inserts or refreshes `name` at the new tick.
    fn upsert(&mut self, name: &str, bytes: u64) {
        self.clock += 1;
        let tick = self.clock;
        match self.entries.get_mut(name) {
            Some(r) => {
                self.bytes = self.bytes - r.bytes + bytes;
                r.bytes = bytes;
                r.tick = tick;
            }
            None => {
                self.bytes += bytes;
                self.entries.insert(name.to_string(), Resident { tick, bytes });
            }
        }
    }

    /// Ticks the clock and refreshes `name`'s recency when resident. A
    /// hit on an untracked file (a foreign write, or a read that raced
    /// an eviction's unlink) deliberately does *not* re-insert: the
    /// index only trusts entries it saw stored or seeded, so a racing
    /// reader can never resurrect an evicted name.
    fn refresh(&mut self, name: &str, bytes: u64) {
        self.clock += 1;
        let tick = self.clock;
        if let Some(r) = self.entries.get_mut(name) {
            self.bytes = self.bytes - r.bytes + bytes;
            r.bytes = bytes;
            r.tick = tick;
        }
    }

    /// Drops `name` from the index (file deleted or found absent).
    fn forget(&mut self, name: &str) {
        if let Some(r) = self.entries.remove(name) {
            self.bytes -= r.bytes;
        }
    }

    /// True while the index exceeds `bound` on either axis.
    fn over(&self, bound: CacheBound) -> bool {
        (bound.max_entries > 0 && self.entries.len() > bound.max_entries)
            || (bound.max_bytes > 0 && self.bytes > bound.max_bytes)
    }

    /// The deterministic eviction victim: minimum `(tick, name)`. Linear
    /// scan — bounded caches are small by definition, and O(n) here buys
    /// a single-structure index with no heap to keep in sync.
    fn victim(&self) -> Option<String> {
        self.entries
            .iter()
            .min_by_key(|(name, r)| (r.tick, name.as_str()))
            .map(|(name, _)| name.clone())
    }
}

/// A classified cache lookup — what [`RunCache::lookup_classified`]
/// found at the address.
#[derive(Debug)]
pub enum Lookup {
    /// Valid entry: fingerprint matched and the checksum verified.
    Hit(RunRecord),
    /// No entry at the address.
    Miss,
    /// Entry written under a different (or unreadable) code+env
    /// fingerprint: stale, recompute and overwrite.
    Stale,
    /// Entry failed read-time checksum verification; it has been deleted
    /// (auto-invalidated) and must be recomputed and re-stored.
    Corrupt,
}

/// A content-addressed store of completed runs (and small text
/// artifacts) under one directory.
#[derive(Debug)]
pub struct RunCache {
    dir: PathBuf,
    fingerprint: u64,
    bound: CacheBound,
    // One lock for all counters: a lookup's lookups+category increments
    // are a single critical section, so stats() can never observe a torn
    // state. The lock covers counter arithmetic only, never file I/O.
    stats: Mutex<CacheStats>,
    // Recency index for bounded handles (empty and untouched when
    // unbounded). Lock ordering: `index` and `stats` are never held
    // together. Eviction unlinks files under this lock so the index and
    // the directory can't diverge mid-eviction.
    index: Mutex<LruIndex>,
}

// Cache keys are the canonical separator-mixed FNV-1a fold over their
// key material — the same hash family the provenance fingerprint uses.
use crate::hash::fnv64_parts;

/// The index key for an entry path: its file name.
fn entry_name(path: &Path) -> String {
    path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default()
}

/// Canonical parameter rendering for key material: `k=v;` in key order
/// (BTreeMap iteration), so insertion order never changes the address.
fn canonical_params(params: &Params) -> String {
    let mut s = String::new();
    for (k, v) in params.iter() {
        s.push_str(k);
        s.push('=');
        s.push_str(&v.to_string());
        s.push(';');
    }
    s
}

impl RunCache {
    /// Opens (creating if needed) an unbounded cache directory, keyed to
    /// the current code+env fingerprint.
    pub fn open(dir: &Path) -> io::Result<Self> {
        Self::open_with_fingerprint(dir, Environment::capture().fingerprint())
    }

    /// [`RunCache::open`] with an explicit code+env fingerprint — used by
    /// tests to simulate a rebuilt harness or a different machine.
    pub fn open_with_fingerprint(dir: &Path, fingerprint: u64) -> io::Result<Self> {
        Self::open_bounded_with_fingerprint(dir, CacheBound::unbounded(), fingerprint)
    }

    /// Opens a cache held under a hard [`CacheBound`] with deterministic
    /// logical-clock LRU eviction (see the module docs).
    pub fn open_bounded(dir: &Path, bound: CacheBound) -> io::Result<Self> {
        Self::open_bounded_with_fingerprint(dir, bound, Environment::capture().fingerprint())
    }

    /// [`RunCache::open_bounded`] with an explicit code+env fingerprint.
    ///
    /// Reopening a warm directory is deterministic: resident entries are
    /// seeded into the index in file-name order (ticks `1..=n`), then the
    /// bound is enforced immediately, so two processes opening the same
    /// directory with the same bound evict the same entries.
    pub fn open_bounded_with_fingerprint(
        dir: &Path,
        bound: CacheBound,
        fingerprint: u64,
    ) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        sweep_orphaned_tmp(dir);
        let cache = Self {
            dir: dir.to_path_buf(),
            fingerprint,
            bound,
            stats: Mutex::new(CacheStats::default()),
            index: Mutex::new(LruIndex::default()),
        };
        if bound.is_bounded() {
            cache.seed_index()?;
            let evicted = {
                let mut ix = cache.index.lock().expect("cache index mutex poisoned");
                cache.enforce_bound_locked(&mut ix)
            };
            if evicted > 0 {
                cache.bump(|s| s.evictions += evicted);
            }
        }
        Ok(cache)
    }

    /// Seeds the recency index from an existing directory: entry files in
    /// name order get ticks `1..=n`, so a warm reopen never depends on
    /// directory-listing order.
    fn seed_index(&self) -> io::Result<()> {
        let mut found: Vec<(String, u64)> = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".run") || name.ends_with(".txt") {
                found.push((name, entry.metadata()?.len()));
            }
        }
        found.sort();
        let mut ix = self.index.lock().expect("cache index mutex poisoned");
        for (name, bytes) in found {
            ix.clock += 1;
            let tick = ix.clock;
            ix.bytes += bytes;
            ix.entries.insert(name, Resident { tick, bytes });
        }
        Ok(())
    }

    /// Evicts least-recently-used entries (minimum `(tick, name)`) until
    /// the index satisfies the bound; files are unlinked as they go.
    /// Returns the eviction count. Caller holds the index lock. A bound
    /// smaller than a single entry converges to an empty directory — the
    /// just-stored entry is its own victim — rather than looping.
    fn enforce_bound_locked(&self, ix: &mut LruIndex) -> u64 {
        let mut evicted = 0u64;
        while ix.over(self.bound) {
            let Some(name) = ix.victim() else { break };
            let _ = std::fs::remove_file(self.dir.join(&name));
            ix.forget(&name);
            ix.evicted.push(name);
            evicted += 1;
        }
        evicted
    }

    /// Classified-lookup bookkeeping for bounded handles: every lookup
    /// ticks the logical clock; `resident_bytes` refreshes (or inserts)
    /// the entry's recency, `None` drops it from the index (absent or
    /// just deleted). No-op when unbounded.
    fn note_lookup(&self, path: &Path, resident_bytes: Option<u64>) {
        if !self.bound.is_bounded() {
            return;
        }
        let name = entry_name(path);
        let mut ix = self.index.lock().expect("cache index mutex poisoned");
        match resident_bytes {
            Some(bytes) => ix.refresh(&name, bytes),
            None => {
                ix.clock += 1;
                ix.forget(&name);
            }
        }
    }

    /// Store bookkeeping for bounded handles: ticks the clock, indexes
    /// the entry, enforces the bound. Returns the eviction count.
    fn note_store(&self, path: &Path, bytes: u64) -> u64 {
        if !self.bound.is_bounded() {
            return 0;
        }
        let name = entry_name(path);
        let mut ix = self.index.lock().expect("cache index mutex poisoned");
        ix.upsert(&name, bytes);
        self.enforce_bound_locked(&mut ix)
    }

    /// Applies one counter update under the stats lock.
    fn bump(&self, f: impl FnOnce(&mut CacheStats)) {
        let mut s = self.stats.lock().expect("cache stats mutex poisoned");
        f(&mut s);
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The code+env fingerprint entries are validated against.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The occupancy bound this handle enforces (unbounded by default).
    pub fn bound(&self) -> CacheBound {
        self.bound
    }

    /// Current logical-clock value: classified lookups + stores since
    /// open. Always 0 on unbounded handles (the index is bypassed).
    pub fn logical_clock(&self) -> u64 {
        self.index.lock().expect("cache index mutex poisoned").clock
    }

    /// Evicted entry file names, in eviction order — the observable the
    /// determinism properties compare across schedules.
    pub fn eviction_log(&self) -> Vec<String> {
        self.index.lock().expect("cache index mutex poisoned").evicted.clone()
    }

    /// FNV content address of the eviction log (order-sensitive), for
    /// cheap jobs=1 vs jobs=N identity checks.
    pub fn eviction_fingerprint(&self) -> u64 {
        let ix = self.index.lock().expect("cache index mutex poisoned");
        let parts: Vec<&[u8]> = ix.evicted.iter().map(|n| n.as_bytes()).collect();
        fnv64_parts(&parts)
    }

    /// Resident entry file names in canonical (name) order. Meaningful on
    /// bounded handles; empty when unbounded.
    pub fn resident_entries(&self) -> Vec<String> {
        self.index.lock().expect("cache index mutex poisoned").entries.keys().cloned().collect()
    }

    /// Total resident payload bytes tracked by the index (0 when
    /// unbounded).
    pub fn resident_bytes(&self) -> u64 {
        self.index.lock().expect("cache index mutex poisoned").bytes
    }

    /// Looks up the cached record for `(id, seed, params)`.
    ///
    /// Convenience wrapper over [`RunCache::lookup_classified`]: any
    /// non-hit collapses to `None` (the per-cause counters still tick).
    pub fn lookup(&self, id: &str, seed: u64, params: &Params) -> Option<RunRecord> {
        match self.lookup_classified(id, seed, params) {
            Lookup::Hit(rec) => Some(rec),
            _ => None,
        }
    }

    /// Looks up `(id, seed, params)` and reports *why* a lookup failed:
    /// miss (no entry), stale (different code+env fingerprint) or corrupt
    /// (read-time checksum failure, or bytes that are not UTF-8). A corrupt
    /// entry is deleted before returning, so the caller's recompute-and-store
    /// self-heals the cache; the corruption is counted in
    /// [`RunCache::stats`].
    pub fn lookup_classified(&self, id: &str, seed: u64, params: &Params) -> Lookup {
        let path = self.dir.join(run_entry_file(id, seed, params));
        let (verdict, len) = match std::fs::read_to_string(&path) {
            Ok(text) => (self.classify(&text, seed), text.len() as u64),
            // `store` writes only UTF-8, so such an entry is damaged, not
            // absent.
            Err(e) if e.kind() == io::ErrorKind::InvalidData => (Lookup::Corrupt, 0),
            Err(_) => {
                self.note_lookup(&path, None);
                self.bump(|s| {
                    s.lookups += 1;
                    s.misses += 1;
                });
                return Lookup::Miss;
            }
        };
        match verdict {
            Lookup::Hit(rec) => {
                self.note_lookup(&path, Some(len));
                self.bump(|s| {
                    s.lookups += 1;
                    s.hits += 1;
                });
                Lookup::Hit(rec)
            }
            Lookup::Stale => {
                // Still resident (the caller will overwrite it): refresh
                // recency so the imminent store doesn't race an eviction.
                self.note_lookup(&path, Some(len));
                self.bump(|s| {
                    s.lookups += 1;
                    s.invalidations += 1;
                });
                Lookup::Stale
            }
            Lookup::Corrupt | Lookup::Miss => {
                // Auto-invalidate: a damaged entry must never be consulted
                // again, even by a handle that skips checksum verification.
                let _ = std::fs::remove_file(&path);
                self.note_lookup(&path, None);
                self.bump(|s| {
                    s.lookups += 1;
                    s.corruptions += 1;
                });
                Lookup::Corrupt
            }
        }
    }

    /// Classifies the text of a run entry found at the address of
    /// `(_, seed, _)` as a hit, stale or corrupt (never a miss). Stale:
    /// not this format at all (no current magic), or a canonical entry
    /// sealed under another code+env fingerprint. Corrupt: anything else
    /// that is not exactly the entry this handle would have stored — a
    /// non-canonical byte anywhere (a CRLF checkout, an upper-cased
    /// digit), a body that fails its checksum or its trail grammar, or a
    /// seed that is not the one addressed.
    fn classify(&self, text: &str, seed: u64) -> Lookup {
        match RunEntry::parse(text) {
            Ok(entry) if entry.fingerprint != self.fingerprint => Lookup::Stale,
            Ok(entry) => match entry.record() {
                Ok(rec) if rec.seed == seed => Lookup::Hit(rec),
                _ => Lookup::Corrupt,
            },
            Err(_) if !text.starts_with(MAGIC) => Lookup::Stale,
            Err(_) => Lookup::Corrupt,
        }
    }

    /// Persists a completed record under `(id, seed, params)`, stamped
    /// with this handle's code+env fingerprint and a checksum of the
    /// trail body for read-time verification. A write that fails is
    /// counted in [`CacheStats::failed_stores`] and returned.
    pub fn store(&self, id: &str, seed: u64, params: &Params, rec: &RunRecord) -> io::Result<()> {
        let out = RunEntry::render(self.fingerprint, rec);
        let path = write_atomic(&self.dir, &run_entry_file(id, seed, params), &out)
            .inspect_err(|_| self.bump(|s| s.failed_stores += 1))?;
        let evicted = self.note_store(&path, out.len() as u64);
        self.bump(|s| {
            s.stores += 1;
            s.evictions += evicted;
        });
        Ok(())
    }

    /// Looks up a cached text artifact (e.g. a rendered table) by kind
    /// and tag, with the same fingerprint-invalidation rules as
    /// [`RunCache::lookup`].
    pub fn lookup_blob(&self, kind: &str, tag: &str) -> Option<String> {
        let path = self.dir.join(blob_entry_file(kind, tag));
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => {
                self.note_lookup(&path, None);
                self.bump(|s| {
                    s.blob_lookups += 1;
                    s.blob_misses += 1;
                });
                return None;
            }
        };
        match parse_blob_entry(&text) {
            Ok((fingerprint, payload)) if fingerprint == self.fingerprint => {
                self.note_lookup(&path, Some(text.len() as u64));
                self.bump(|s| {
                    s.blob_lookups += 1;
                    s.blob_hits += 1;
                });
                Some(payload.to_string())
            }
            _ => {
                self.note_lookup(&path, Some(text.len() as u64));
                self.bump(|s| {
                    s.blob_lookups += 1;
                    s.blob_invalidations += 1;
                });
                None
            }
        }
    }

    /// Persists a text artifact under `(kind, tag)`.
    pub fn store_blob(&self, kind: &str, tag: &str, payload: &str) -> io::Result<()> {
        let out = render_blob_entry(self.fingerprint, payload);
        let path = write_atomic(&self.dir, &blob_entry_file(kind, tag), &out)?;
        let evicted = self.note_store(&path, out.len() as u64);
        self.bump(|s| {
            s.blob_stores += 1;
            s.evictions += evicted;
        });
        Ok(())
    }

    /// Snapshot of this handle's counters, taken under the stats lock —
    /// [`CacheStats::consistent`] holds for every snapshot, concurrent
    /// writers included.
    pub fn stats(&self) -> CacheStats {
        *self.stats.lock().expect("cache stats mutex poisoned")
    }

    /// One-line accounting for CLI output. Blob, eviction and failed-store
    /// counters are appended only when they moved, so the common
    /// (run-only, unbounded, writable) line stays unchanged.
    pub fn render_stats(&self) -> String {
        let s = self.stats();
        let mut line = format!(
            "cache: {} hit(s), {} miss(es), {} invalidation(s), {} corrupt (self-healed), {} store(s) over {} lookup(s)",
            s.hits, s.misses, s.invalidations, s.corruptions, s.stores, s.lookups,
        );
        if s.blob_lookups + s.blob_stores > 0 {
            line.push_str(&format!(
                "; blobs: {} hit(s), {} miss(es), {} store(s)",
                s.blob_hits, s.blob_misses, s.blob_stores
            ));
        }
        if self.bound.is_bounded() {
            line.push_str(&format!("; {} eviction(s)", s.evictions));
        }
        if s.failed_stores > 0 {
            line.push_str(&format!("; {} failed store(s)", s.failed_stores));
        }
        line.push_str(&format!(" ({})\n", self.dir.display()));
        line
    }
}

/// Writes `contents` to `dir/name` atomically and returns that path: the
/// bytes land in a `{name}.{pid}.{seq}.tmp` spool beside the target and
/// are renamed over it, so a killed writer never leaves a truncated file
/// at an addressable path. Cache entries, attestation files and trace
/// streams are all written here. A killed writer's spool is left behind;
/// in a cache directory, the next [`RunCache`] open sweeps it.
pub fn write_atomic(dir: &Path, name: &str, contents: &str) -> io::Result<PathBuf> {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = TMP_SEQ.fetch_add(1, Ordering::SeqCst);
    let path = dir.join(name);
    let tmp = dir.join(format!("{name}.{}.{seq}.tmp", std::process::id()));
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, &path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })?;
    Ok(path)
}

/// Removes `.tmp` spools left by writers that died mid-[`write_atomic`]
/// (spool names embed the writer's pid: `{name}.{pid}.{seq}.tmp`). A tmp
/// is *orphaned* — and safe to unlink — only when its writer is gone:
/// the pid is not ours and names no live process. Live writers' tmps are
/// left alone so a concurrent open can never race an in-flight rename.
/// Unparseable names are treated as orphaned. Best-effort: I/O errors
/// are ignored (the sweep re-runs on every open).
fn sweep_orphaned_tmp(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.ends_with(".tmp") {
            continue;
        }
        // `{name}.{pid}.{seq}.tmp` → pid is the third segment from the end.
        let writer_pid = name.rsplit('.').nth(2).and_then(|p| p.parse::<u32>().ok());
        let live = match writer_pid {
            Some(pid) if pid == std::process::id() => true,
            // Liveness via procfs where available; elsewhere a pid-named
            // tmp from another process is presumed orphaned (tests and
            // single-process use never hit this).
            Some(pid) => Path::new("/proc").exists() && Path::new(&format!("/proc/{pid}")).exists(),
            None => false,
        };
        if !live {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// A `.run` entry read through its one parser: the header fields, with
/// the rendered trail body still text. The cache's lookups and the
/// attestation walk ([`crate::attest`]) both read entries through
/// [`RunEntry::parse`], so the two can never disagree on what an entry
/// says.
#[derive(Debug, Clone)]
pub struct RunEntry<'a> {
    /// Code+env fingerprint the entry was stored under.
    pub fingerprint: u64,
    /// Record name.
    pub name: String,
    /// Record seed.
    pub seed: u64,
    /// Record wall seconds: the one header value that varies between
    /// otherwise identical runs, so content addresses cover the body only.
    pub wall_seconds: f64,
    /// Checksum of the body the header claims.
    pub checksum: u64,
    /// The rendered trail: every byte after the `trail` line.
    pub body: &'a str,
    body_at: usize,
}

impl<'a> RunEntry<'a> {
    /// The header lines, up to and including `trail`.
    fn header(fingerprint: u64, name: &str, seed: u64, wall: f64, checksum: u64) -> String {
        format!(
            "{MAGIC}\nfingerprint {}\nname {}\nseed {seed}\nwall {}\nchecksum {}\ntrail\n",
            codec::hex64(fingerprint),
            codec::escape(name, Esc::Value),
            codec::f64_text(wall),
            codec::hex64(checksum)
        )
    }

    /// The entry text for `rec` stored under `fingerprint`.
    pub fn render(fingerprint: u64, rec: &RunRecord) -> String {
        let body = rec.trail.render();
        let checksum = fnv64_parts(&[body.as_bytes()]);
        Self::header(fingerprint, &rec.name, rec.seed, rec.wall_seconds, checksum) + &body
    }

    /// Reads the header of an entry; [`RunEntry::record`] checks the body.
    pub fn parse(text: &'a str) -> Result<Self, codec::Error> {
        let mut c = Cursor::new(text);
        c.tag(MAGIC)?;
        c.tag("\nfingerprint ")?;
        let fingerprint = c.until("\n")?.hex64()?;
        c.tag("name ")?;
        let name = c.until("\n")?.unescape(Esc::Value)?;
        c.tag("seed ")?;
        let seed = c.until("\n")?.value()?;
        c.tag("wall ")?;
        let wall_seconds = c.until("\n")?.f64()?;
        c.tag("checksum ")?;
        let checksum = c.until("\n")?.hex64()?;
        c.tag("trail\n")?;
        let body_at = c.pos();
        let header = Self::header(fingerprint, &name, seed, wall_seconds, checksum);
        codec::canonical(&text[..body_at], &header)?;
        Ok(Self { fingerprint, name, seed, wall_seconds, checksum, body: c.rest(), body_at })
    }

    /// The stored record: the body must match the header's checksum and
    /// decode as a trail. Error offsets count from the start of the entry.
    pub fn record(&self) -> Result<RunRecord, codec::Error> {
        let sum = fnv64_parts(&[self.body.as_bytes()]);
        if sum != self.checksum {
            let why = format!(
                "body hashes to {} but the checksum line says {}",
                codec::hex64(sum),
                codec::hex64(self.checksum)
            );
            return Err(codec::Error::new(self.body_at, why));
        }
        let trail = Trail::decode(self.body).map_err(|e| e.shift(self.body_at))?;
        Ok(RunRecord {
            name: self.name.clone(),
            seed: self.seed,
            trail,
            wall_seconds: self.wall_seconds,
        })
    }
}

/// Content-addressed file name of the run entry for `(id, seed, params)`
/// — the same FNV-1a address [`RunCache`] uses internally, exposed so the
/// attestation layer ([`crate::attest`]) can name cache products without
/// holding a cache handle.
pub fn run_entry_file(id: &str, seed: u64, params: &Params) -> String {
    let key = fnv64_parts(&[
        b"run",
        id.as_bytes(),
        &seed.to_le_bytes(),
        canonical_params(params).as_bytes(),
    ]);
    format!("{key:016x}.run")
}

/// Content-addressed file name of the blob entry for `(kind, tag)`.
pub fn blob_entry_file(kind: &str, tag: &str) -> String {
    let key = fnv64_parts(&[b"blob", kind.as_bytes(), tag.as_bytes()]);
    format!("{key:016x}.txt")
}

/// The blob entry text for `payload` stored under `fingerprint`.
pub(crate) fn render_blob_entry(fingerprint: u64, payload: &str) -> String {
    format!("{MAGIC}\nfingerprint {}\npayload\n{payload}", codec::hex64(fingerprint))
}

/// Exact inverse of [`render_blob_entry`]: the fingerprint and payload.
pub(crate) fn parse_blob_entry(text: &str) -> Result<(u64, &str), codec::Error> {
    let mut c = Cursor::new(text);
    c.tag(MAGIC)?;
    c.tag("\nfingerprint ")?;
    let fingerprint = c.until("\n")?.hex64()?;
    c.tag("payload\n")?;
    let payload = c.rest();
    codec::canonical(text, &render_blob_entry(fingerprint, payload))?;
    Ok((fingerprint, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_once, Experiment, RunContext};

    struct Noisy;
    impl Experiment for Noisy {
        fn name(&self) -> &str {
            "noisy"
        }
        fn run(&self, ctx: &mut RunContext) {
            let n = ctx.int("n", 12) as usize;
            let mut rng = ctx.rng("draws");
            let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
            ctx.record("mean", mean);
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("treu-cache-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn miss_then_store_then_hit_roundtrips_bitwise() {
        let dir = tmp_dir("hit");
        let cache = RunCache::open_with_fingerprint(&dir, 0xABCD).unwrap();
        let params = Params::new().with_int("n", 20).with_text("tag", "x");
        assert!(cache.lookup("E", 7, &params).is_none());
        assert_eq!(cache.stats().misses, 1);

        let rec = run_once(&Noisy, 7, params.clone());
        cache.store("E", 7, &params, &rec).unwrap();
        let cached = cache.lookup("E", 7, &params).expect("hit after store");
        assert_eq!(cached.trail, rec.trail, "trail must round-trip bitwise");
        assert_eq!(cached.fingerprint(), rec.fingerprint());
        assert_eq!(cached.name, rec.name);
        assert_eq!(cached.seed, 7);
        assert_eq!(cached.wall_seconds, rec.wall_seconds);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.invalidations, s.stores), (1, 1, 0, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn key_distinguishes_id_seed_and_params() {
        let dir = tmp_dir("key");
        let cache = RunCache::open_with_fingerprint(&dir, 1).unwrap();
        let p = Params::new().with_int("n", 8);
        let rec = run_once(&Noisy, 7, p.clone());
        cache.store("E", 7, &p, &rec).unwrap();
        assert!(cache.lookup("F", 7, &p).is_none(), "different id");
        assert!(cache.lookup("E", 8, &p).is_none(), "different seed");
        assert!(
            cache.lookup("E", 7, &Params::new().with_int("n", 9)).is_none(),
            "different params"
        );
        assert!(cache.lookup("E", 7, &p).is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn param_insertion_order_does_not_change_the_address() {
        let dir = tmp_dir("order");
        let cache = RunCache::open_with_fingerprint(&dir, 1).unwrap();
        let p1 = Params::new().with_int("a", 1).with_int("b", 2);
        let p2 = Params::new().with_int("b", 2).with_int("a", 1);
        let rec = run_once(&Noisy, 3, p1.clone());
        cache.store("E", 3, &p1, &rec).unwrap();
        assert!(cache.lookup("E", 3, &p2).is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_change_invalidates() {
        let dir = tmp_dir("inval");
        let p = Params::new();
        let rec = run_once(&Noisy, 5, p.clone());
        {
            let old = RunCache::open_with_fingerprint(&dir, 0x1111).unwrap();
            old.store("E", 5, &p, &rec).unwrap();
            assert!(old.lookup("E", 5, &p).is_some());
        }
        // Same directory, new code+env fingerprint: the entry is stale.
        let new = RunCache::open_with_fingerprint(&dir, 0x2222).unwrap();
        assert!(new.lookup("E", 5, &p).is_none());
        assert_eq!(new.stats().invalidations, 1);
        assert_eq!(new.stats().misses, 0, "a stale entry is an invalidation, not a miss");
        // Overwriting refreshes it for the new fingerprint.
        new.store("E", 5, &p, &rec).unwrap();
        assert!(new.lookup("E", 5, &p).is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn entries_stay_valid_across_thread_counts() {
        // Results are bitwise-invariant to the host's thread count, so a
        // cache filled on a 2-thread host serves a 4-thread one.
        let dir = tmp_dir("threads");
        let two = Environment { threads: 2, ..Environment::capture() };
        let four = Environment { threads: 4, ..two.clone() };
        let p = Params::new();
        let rec = run_once(&Noisy, 5, p.clone());
        let filled = RunCache::open_with_fingerprint(&dir, two.fingerprint()).unwrap();
        filled.store("E", 5, &p, &rec).unwrap();
        let other = RunCache::open_with_fingerprint(&dir, four.fingerprint()).unwrap();
        match other.lookup_classified("E", 5, &p) {
            Lookup::Hit(hit) => assert_eq!(hit.trail, rec.trail),
            _ => panic!("an entry from a host with another thread count must hit"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_entry_counts_as_invalidation() {
        let dir = tmp_dir("corrupt");
        let cache = RunCache::open_with_fingerprint(&dir, 9).unwrap();
        let p = Params::new();
        let rec = run_once(&Noisy, 1, p.clone());
        cache.store("E", 1, &p, &rec).unwrap();
        // Truncate the entry on disk.
        let entry = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        std::fs::write(&entry, "treu-cache v1\ngarbage").unwrap();
        assert!(cache.lookup("E", 1, &p).is_none());
        assert_eq!(cache.stats().invalidations, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checksum_failure_is_corruption_and_self_heals() {
        let dir = tmp_dir("checksum");
        let cache = RunCache::open_with_fingerprint(&dir, 9).unwrap();
        let p = Params::new();
        let rec = run_once(&Noisy, 1, p.clone());
        cache.store("E", 1, &p, &rec).unwrap();
        // Damage the trail body while leaving the header (magic +
        // matching fingerprint) intact: bit rot, not staleness.
        let entry = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        let text = std::fs::read_to_string(&entry).unwrap();
        let damaged = text.replacen("metric", "metrjc", 1);
        assert_ne!(text, damaged, "fixture must actually flip bytes");
        std::fs::write(&entry, damaged).unwrap();

        assert!(matches!(cache.lookup_classified("E", 1, &p), Lookup::Corrupt));
        let s = cache.stats();
        assert_eq!((s.corruptions, s.invalidations, s.misses), (1, 0, 0));
        assert!(!entry.exists(), "corrupt entry must be deleted on sight");
        // The very next lookup is a clean miss; recompute + store heals.
        assert!(matches!(cache.lookup_classified("E", 1, &p), Lookup::Miss));
        cache.store("E", 1, &p, &rec).unwrap();
        let healed = cache.lookup("E", 1, &p).expect("healed entry serves again");
        assert_eq!(healed.trail, rec.trail);
        assert!(cache.render_stats().contains("1 corrupt (self-healed)"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An entry that is not byte for byte what `store` writes — a CRLF
    /// checkout, upper-cased hex, a signed seed, a non-canonical wall, a
    /// byte that is not UTF-8 — is Corrupt for the lookup and breaks the
    /// attestation walk alike: both read it through [`RunEntry::parse`].
    #[test]
    fn non_canonical_entries_are_corrupt_for_lookup_and_the_attestation_walk() {
        use crate::attest::{
            verify_chain, AttestKey, AttestStore, Layout, LinkDraft, VerifyContext,
        };
        let dir = tmp_dir("canonical");
        let cache_dir = dir.join("cache");
        let cache = RunCache::open_with_fingerprint(&cache_dir, 0xABCD).unwrap();
        let p = Params::new();
        let rec = run_once(&Noisy, 2023, p.clone());
        cache.store("E", 2023, &p, &rec).unwrap();
        let file = run_entry_file("E", 2023, &p);
        let path = cache_dir.join(&file);
        let clean = std::fs::read_to_string(&path).unwrap();
        let not_utf8 = [clean.as_bytes(), &[0xFF]].concat();

        let store = AttestStore::open(&dir.join("at"));
        let key = AttestKey::derive(7);
        store.write_layout(&Layout::default_pipeline(&key)).unwrap();
        let mut draft = LinkDraft::new("verify", 2023);
        draft.product("run:E", rec.fingerprint());
        draft.absorb_cache_entry(&cache, "E", &file);
        store.append(&key, draft).unwrap();
        let ctx = VerifyContext { cache_dir: Some(&cache_dir), ..VerifyContext::default() };
        assert!(verify_chain(&store, &key, &ctx).ok());

        let upper = |prefix: &str| {
            let start = clean.find(prefix).unwrap() + prefix.len();
            let end = start + clean[start..].find('\n').unwrap();
            format!("{}{}{}", &clean[..start], clean[start..end].to_uppercase(), &clean[end..])
        };
        let wall_at = clean.find("\nwall ").unwrap() + 1;
        let wall_end = wall_at + clean[wall_at..].find('\n').unwrap();
        let edits: [(&str, Vec<u8>); 6] = [
            ("CRLF", clean.replace('\n', "\r\n").into_bytes()),
            ("upper-case fingerprint", upper("fingerprint 0x").into_bytes()),
            ("upper-case checksum", upper("checksum 0x").into_bytes()),
            ("signed seed", clean.replacen("seed 2023", "seed +2023", 1).into_bytes()),
            (
                "wall -1e300",
                format!("{}wall -1e300{}", &clean[..wall_at], &clean[wall_end..]).into_bytes(),
            ),
            ("non-UTF-8 byte", not_utf8),
        ];
        for (what, edited) in &edits {
            assert_ne!(edited, clean.as_bytes(), "{what}: fixture must change the entry");
            std::fs::write(&path, edited).unwrap();
            let walk = verify_chain(&store, &key, &ctx);
            assert!(!walk.ok(), "{what}: the walk must fail");
            assert!(
                walk.failures.iter().all(|f| !f.reason.contains("missing")),
                "{what}: a present entry is not missing: {:?}",
                walk.failures
            );
            assert!(matches!(cache.lookup_classified("E", 2023, &p), Lookup::Corrupt), "{what}");
            assert!(!path.exists(), "{what}: a corrupt entry is deleted on sight");
        }
        assert_eq!(cache.stats().corruptions, edits.len() as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_entry_is_corruption_not_a_hit() {
        let dir = tmp_dir("truncated");
        let cache = RunCache::open_with_fingerprint(&dir, 9).unwrap();
        let p = Params::new();
        let rec = run_once(&Noisy, 1, p.clone());
        cache.store("E", 1, &p, &rec).unwrap();
        let entry = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        let text = std::fs::read_to_string(&entry).unwrap();
        // Simulate the torn write atomic rename now prevents: keep the
        // header, cut the file mid-trail.
        std::fs::write(&entry, &text[..text.len() - 10]).unwrap();
        assert!(cache.lookup("E", 1, &p).is_none());
        assert_eq!(cache.stats().corruptions, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stores_are_atomic_no_temp_files_survive() {
        let dir = tmp_dir("atomic");
        let cache = RunCache::open_with_fingerprint(&dir, 2).unwrap();
        let p = Params::new();
        let rec = run_once(&Noisy, 4, p.clone());
        for i in 0..8u64 {
            cache.store("E", i, &p, &rec).unwrap();
            cache.store_blob("tables", &i.to_string(), "payload").unwrap();
        }
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files must be renamed away: {leftovers:?}");
        assert_eq!(cache.stats().stores, 8);
        assert_eq!(cache.stats().blob_stores, 8, "blob stores are counted on their own axis");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_snapshots_are_never_torn_under_concurrent_lookups() {
        let dir = tmp_dir("torn");
        let cache = RunCache::open_with_fingerprint(&dir, 2).unwrap();
        let p = Params::new();
        let rec = run_once(&Noisy, 1, p.clone());
        cache.store("E", 1, &p, &rec).unwrap();
        // Hammer classified lookups (hits and misses) from four threads
        // while a fifth snapshots continuously: the classification
        // invariant must hold in every single snapshot, not just at rest.
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = &cache;
                let p = &p;
                s.spawn(move || {
                    for i in 0..200u64 {
                        let _ = cache.lookup_classified("E", 1 + (t + i) % 2, p);
                        let _ = cache.lookup_blob("tables", "nope");
                    }
                });
            }
            for _ in 0..500 {
                let snap = cache.stats();
                assert!(
                    snap.consistent(),
                    "torn snapshot: {} lookups vs {}+{}+{}+{}",
                    snap.lookups,
                    snap.hits,
                    snap.misses,
                    snap.invalidations,
                    snap.corruptions
                );
            }
        });
        let end = cache.stats();
        assert!(end.consistent());
        assert_eq!(end.lookups, 4 * 200, "every run lookup classified exactly once");
        assert_eq!(end.blob_lookups, 4 * 200, "every blob lookup classified exactly once");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn blob_roundtrip_and_invalidation() {
        let dir = tmp_dir("blob");
        let cache = RunCache::open_with_fingerprint(&dir, 4).unwrap();
        assert!(cache.lookup_blob("tables", "seed7").is_none());
        let payload = "Table 1\n  row\n\nTable 2\n";
        cache.store_blob("tables", "seed7", payload).unwrap();
        assert_eq!(cache.lookup_blob("tables", "seed7").as_deref(), Some(payload));
        assert!(cache.lookup_blob("tables", "seed8").is_none(), "tag is part of the address");
        let other = RunCache::open_with_fingerprint(&dir, 5).unwrap();
        assert!(other.lookup_blob("tables", "seed7").is_none());
        assert_eq!(other.stats().blob_invalidations, 1);
        assert_eq!(other.stats().invalidations, 0, "blob staleness never pollutes run counters");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Satellite regression: blob traffic used to share the run counters,
    /// understating the run hit-rate any time a report blob missed. The
    /// split keeps the two classifications independent.
    #[test]
    fn blob_traffic_does_not_distort_run_hit_rate() {
        let dir = tmp_dir("blobsplit");
        let cache = RunCache::open_with_fingerprint(&dir, 3).unwrap();
        let p = Params::new();
        let rec = run_once(&Noisy, 2, p.clone());
        cache.store("E", 2, &p, &rec).unwrap();
        assert!(cache.lookup("E", 2, &p).is_some());
        // Three blob misses would previously have dragged hit_rate to 1/4.
        for tag in ["a", "b", "c"] {
            assert!(cache.lookup_blob("tables", tag).is_none());
        }
        let s = cache.stats();
        assert!(s.consistent(), "{s:?}");
        assert_eq!(s.hit_rate(), 1.0, "run hit-rate must ignore blob misses: {s:?}");
        assert_eq!((s.lookups, s.hits), (1, 1));
        assert_eq!((s.blob_lookups, s.blob_misses, s.blob_hits), (3, 3, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_render_mentions_every_counter() {
        let dir = tmp_dir("render");
        let cache = RunCache::open_with_fingerprint(&dir, 2).unwrap();
        let _ = cache.lookup("E", 0, &Params::new());
        let s = cache.render_stats();
        assert!(s.contains("0 hit(s)"));
        assert!(s.contains("1 miss(es)"));
        assert!(s.contains("0 invalidation(s)"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_uses_environment_fingerprint() {
        let dir = tmp_dir("envfp");
        let cache = RunCache::open(&dir).unwrap();
        assert_eq!(cache.fingerprint(), Environment::capture().fingerprint());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Stores a distinct record under each seed; entry names are the
    /// content-addressed `.run` file names for those seeds.
    fn store_seeds(cache: &RunCache, seeds: &[u64]) {
        let p = Params::new();
        for &seed in seeds {
            let rec = run_once(&Noisy, seed, p.clone());
            cache.store("E", seed, &p, &rec).unwrap();
        }
    }

    #[test]
    fn bounded_store_evicts_lru_by_logical_clock() {
        let dir = tmp_dir("lru");
        let cache =
            RunCache::open_bounded_with_fingerprint(&dir, CacheBound::entries(2), 7).unwrap();
        let p = Params::new();
        store_seeds(&cache, &[1, 2]);
        // Touch seed 1: it becomes the most recent, so seed 2 is the LRU
        // victim when seed 3 arrives — pure operation order, no clocks.
        assert!(cache.lookup("E", 1, &p).is_some());
        store_seeds(&cache, &[3]);
        let s = cache.stats();
        assert_eq!(s.evictions, 1, "{s:?}");
        assert!(s.consistent(), "{s:?}");
        assert!(cache.lookup("E", 1, &p).is_some(), "recently touched entry survives");
        assert!(cache.lookup("E", 3, &p).is_some(), "just-stored entry survives");
        assert!(cache.lookup("E", 2, &p).is_none(), "LRU entry was evicted");
        assert_eq!(cache.eviction_log().len(), 1);
        assert_eq!(cache.resident_entries().len(), 2);
        assert!(cache.stats().consistent(), "consistent after post-eviction lookups");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Satellite edge case: a store issued while the cache already sits
    /// exactly at its bound evicts exactly one entry and never overshoots.
    #[test]
    fn store_at_the_bound_evicts_exactly_one() {
        let dir = tmp_dir("atbound");
        let cache =
            RunCache::open_bounded_with_fingerprint(&dir, CacheBound::entries(3), 7).unwrap();
        store_seeds(&cache, &[1, 2, 3]);
        assert_eq!(cache.resident_entries().len(), 3, "exactly at the bound");
        assert_eq!(cache.stats().evictions, 0);
        for (i, seed) in [(1u64, 4u64), (2, 5), (3, 6)] {
            store_seeds(&cache, &[seed]);
            let s = cache.stats();
            assert_eq!(s.evictions, i, "one eviction per at-bound store: {s:?}");
            assert!(s.consistent(), "consistent after every eviction: {s:?}");
            assert_eq!(cache.resident_entries().len(), 3, "never overshoots the bound");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Satellite edge case: a byte bound smaller than a single entry
    /// converges to an empty cache (the stored entry is its own victim)
    /// instead of looping or wedging.
    #[test]
    fn bound_smaller_than_one_entry_converges_to_empty() {
        let dir = tmp_dir("tiny");
        let cache = RunCache::open_bounded_with_fingerprint(&dir, CacheBound::bytes(8), 7).unwrap();
        let p = Params::new();
        store_seeds(&cache, &[1]);
        let s = cache.stats();
        assert_eq!((s.stores, s.evictions), (1, 1), "{s:?}");
        assert!(cache.resident_entries().is_empty());
        assert_eq!(cache.resident_bytes(), 0);
        assert!(cache.lookup("E", 1, &p).is_none(), "nothing can stay resident");
        assert!(cache.stats().consistent());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Satellite edge case: an eviction racing a concurrent lookup is a
    /// clean miss — the reader finds the file gone (or reads it whole
    /// before the unlink) and every stats snapshot stays consistent.
    #[test]
    fn eviction_racing_concurrent_lookup_is_a_clean_miss() {
        let dir = tmp_dir("race");
        let cache =
            RunCache::open_bounded_with_fingerprint(&dir, CacheBound::entries(2), 7).unwrap();
        let p = Params::new();
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let cache = &cache;
                let p = &p;
                s.spawn(move || {
                    for i in 0..60u64 {
                        // Cycle lookups over the churn set: each is a hit
                        // or a miss depending on how the race lands.
                        let _ = cache.lookup("E", (t + i) % 6, p);
                    }
                });
            }
            // Churn stores through the 2-entry bound to force evictions
            // while the readers run.
            for round in 0..10u64 {
                store_seeds(&cache, &[round % 6]);
                let snap = cache.stats();
                assert!(snap.consistent(), "torn under eviction churn: {snap:?}");
            }
        });
        let end = cache.stats();
        assert!(end.consistent(), "{end:?}");
        assert!(end.evictions > 0, "the churn must actually evict: {end:?}");
        assert!(cache.resident_entries().len() <= 2, "bound holds after the race");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Reopening a warm directory under a bound is deterministic: the
    /// index seeds in file-name order, so the eviction that enforces the
    /// bound at open picks the lexicographically smallest entry names.
    #[test]
    fn bounded_reopen_seeds_in_name_order_and_enforces_the_bound() {
        let dir = tmp_dir("reopen");
        {
            let unbounded = RunCache::open_with_fingerprint(&dir, 7).unwrap();
            store_seeds(&unbounded, &[1, 2, 3, 4]);
        }
        let reopened =
            RunCache::open_bounded_with_fingerprint(&dir, CacheBound::entries(2), 7).unwrap();
        assert_eq!(reopened.stats().evictions, 2, "bound enforced at open");
        let mut expected: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        expected.sort();
        assert_eq!(reopened.resident_entries(), expected, "index mirrors the directory");
        let log = reopened.eviction_log();
        assert_eq!(log.len(), 2);
        assert!(log.windows(2).all(|w| w[0] < w[1]), "seed-order victims are name-ordered");
        assert!(log.iter().all(|n| !expected.contains(n)), "victims are gone from disk");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The logical clock is an operation counter: lookups and stores tick
    /// it, nothing else does, and unbounded handles never move it.
    #[test]
    fn logical_clock_counts_operations_not_time() {
        let dir = tmp_dir("clock");
        let cache =
            RunCache::open_bounded_with_fingerprint(&dir, CacheBound::entries(8), 7).unwrap();
        let p = Params::new();
        assert_eq!(cache.logical_clock(), 0);
        let _ = cache.lookup("E", 1, &p); // miss
        assert_eq!(cache.logical_clock(), 1);
        store_seeds(&cache, &[1]);
        assert_eq!(cache.logical_clock(), 2);
        let _ = cache.lookup("E", 1, &p); // hit
        let _ = cache.lookup_blob("tables", "none"); // blob miss
        assert_eq!(cache.logical_clock(), 4, "runs and blobs share one clock");
        cache.stats(); // snapshots are free
        cache.resident_entries();
        assert_eq!(cache.logical_clock(), 4);
        let unbounded = RunCache::open_with_fingerprint(&dir, 7).unwrap();
        let _ = unbounded.lookup("E", 1, &p);
        assert_eq!(unbounded.logical_clock(), 0, "unbounded handles bypass the index");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphaned_tmp_is_swept_on_open_but_live_writers_are_spared() {
        let dir = tmp_dir("sweep");
        std::fs::create_dir_all(&dir).unwrap();
        // A dead writer's dropping: pid 4294967294 names no live process.
        let orphan = dir.join("abcd.run.4294967294.3.tmp");
        std::fs::write(&orphan, "partial entry bytes").unwrap();
        // An unparseable name is presumed orphaned too.
        let junk = dir.join("noise.tmp");
        std::fs::write(&junk, "x").unwrap();
        // Our own in-flight write must survive an open from this process.
        let own = dir.join(format!("efgh.run.{}.9.tmp", std::process::id()));
        std::fs::write(&own, "still being written").unwrap();

        let cache = RunCache::open_with_fingerprint(&dir, 1).unwrap();
        assert!(!orphan.exists(), "dead writer's tmp is swept on open");
        assert!(!junk.exists(), "unparseable tmp is swept on open");
        assert!(own.exists(), "a live writer's tmp is never swept");
        assert!(cache.stats().consistent());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
