//! Versioned artifact serialization and the zero-copy, content-addressed
//! artifact cache — the durable half of the compression pipeline.
//!
//! An in-memory [`crate::CompressedArtifact`] is only useful while the
//! process lives. This module gives every artifact kind a self-describing
//! binary form (the `codec` submodule) and a cache keyed by *what was
//! compressed, how*:
//!
//! * [`Persist`] — `to_bytes` / `from_bytes` for [`CompressedArtifact`],
//!   `ScalarQuantized`, `LayerArtifact` and `ModelArtifacts`; see the
//!   `codec` module docs for the layout and versioning rule.
//! * [`weight_hash`] — the content hash of a weight tensor (dims + f32
//!   bit patterns).
//! * [`CacheKey`] / [`ArtifactCache`] — a content-addressed store keyed by
//!   `(weight hash, PipelineSpec fingerprint, algorithm, kernel strategy,
//!   seed)`.
//!
//! ## One lock
//!
//! Every cache keeps its memory map, disk ledger, remembered failures,
//! byte totals and LRU clock under one `Mutex`. Each critical section is
//! a few map operations (the widest is an admission's LRU victim scan);
//! disk I/O — persisting, reading, deleting and quarantining blob files
//! — runs before the lock is taken or after it is released. Traffic
//! counters live on the cache's `mvq_obs::Registry` and are read back by
//! [`ArtifactCache::stats`].
//!
//! ## Zero-copy hits
//!
//! Blobs are stored as shared `Arc<[u8]>` bytes, checksum-validated
//! **once at admission** ([`validate_frame`]). [`ArtifactCache::get_raw`]
//! returns a clone of the `Arc` — no decode, no byte copy — so a hit
//! costs one lock and a reference-count bump (plus the blob name of a
//! disk-backed cache, whose disk copy's LRU stamp the hit refreshes).
//! The classic [`ArtifactCache::get`] decodes behind it and is still
//! guaranteed bit-identical to a cold load of the durable form.
//!
//! ## Byte budgets: evict-then-insert
//!
//! A [`CacheBudget`] caps the encoded bytes in memory and on disk.
//! Admission evicts the least-recently-used entries (stamped by the
//! cache's logical clock, so victim selection is deterministic) until the
//! incoming blob fits, then inserts it — all under the lock, so the
//! budget is never exceeded at any observable instant. The ledger forgets
//! a disk victim at once; its file is deleted after the lock is released.
//! A blob that can never fit is refused — the caller keeps the returned
//! artifact and the cache simply does not retain it; refusal is never an
//! error.
//!
//! ## Negative caching
//!
//! A deterministic compression failure can be remembered per key
//! ([`ArtifactCache::note_failure`]) and recalled
//! ([`ArtifactCache::failure`]) so repeated requests for a known-bad key
//! fail fast instead of re-running the pipeline. The cache remembers at
//! most `NEGATIVE_CAP` (1,024) failures, dropping the stalest first, and
//! a successful `put` heals the key.
//!
//! ## Corruption
//!
//! A blob that fails validation is surfaced loudly (a typed
//! [`MvqError::Codec`], counted in `corrupt_rejections`) and **fully
//! expelled**: the memory entry and ledger entry are dropped and the
//! disk file is quarantined (renamed to `.corrupt`), so the next lookup
//! is a clean miss instead of a repeated error.

mod codec;
mod ledger;
mod stats;

pub use codec::{
    decode_blob, frame_blob, peek_kind, unframe_blob, validate_frame, weight_hash, BlobKind, Fnv1a,
    ModelIndex, Persist, Reader, Writer, FORMAT_VERSION, HEADER_LEN, MAGIC,
};
pub use stats::{CacheBudget, CacheStats};

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use mvq_obs::{names as metric, Registry};
use mvq_tensor::Tensor;

use crate::error::MvqError;
use crate::kernels::KernelStrategy;
use crate::pipeline::{canonical_name, CompressedArtifact, PipelineSpec};

/// Most known-failing keys one cache remembers; the stalest entry is
/// dropped past this. Failures are tiny (an error string), but an
/// adversarial request stream must not grow the map without bound.
const NEGATIVE_CAP: u64 = 1024;

/// The content address of one compression result: *what* was compressed
/// (the weight hash), *how* (spec fingerprint + algorithm + kernel), and
/// with which RNG seed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Canonical registry algorithm name.
    pub algo: &'static str,
    /// [`weight_hash`] of the input tensor.
    pub weight_hash: u64,
    /// [`PipelineSpec::fingerprint`] of the spec.
    pub spec_fingerprint: u64,
    /// Kernel strategy the spec dispatches to (also folded into the
    /// fingerprint; kept explicit so keys are debuggable).
    pub kernel: KernelStrategy,
    /// RNG seed the compression ran with.
    pub seed: u64,
}

impl CacheKey {
    /// Builds the key for compressing `weight` with `algo` under `spec`
    /// and `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::InvalidConfig`] for unknown algorithm names.
    pub fn new(
        algo: &str,
        weight: &Tensor,
        spec: &PipelineSpec,
        seed: u64,
    ) -> Result<CacheKey, MvqError> {
        let algo = canonical_name(algo).ok_or_else(|| {
            MvqError::InvalidConfig(format!("unknown compressor `{algo}` for cache key"))
        })?;
        Ok(CacheKey {
            algo,
            weight_hash: weight_hash(weight),
            spec_fingerprint: spec.fingerprint(),
            kernel: spec.kernel,
            seed,
        })
    }

    /// The derived key one streamed layer's blob is stored under: the
    /// model key with its weight hash replaced by a domain-separated hash
    /// of `(model weight hash, conv_index)`. Purely derived — the loader
    /// re-computes layer keys from the model key and the conv indices in
    /// the [`ModelIndex`], so no key material needs to be stored per
    /// layer — and collision-free against matrix-job keys (different
    /// domain) and against other layers of the same model (the index is
    /// folded in).
    pub fn layer_key(&self, conv_index: usize) -> CacheKey {
        let mut h = Fnv1a::new();
        h.update(b"mvq.stream.layerkey.v1");
        h.update_u64(self.weight_hash);
        h.update_u64(conv_index as u64);
        CacheKey { weight_hash: h.finish(), ..self.clone() }
    }

    /// Deterministic file name for the on-disk blob of this key.
    pub fn blob_name(&self) -> String {
        format!(
            "{}-{:016x}-{:016x}-{}-{:016x}.mvqa",
            self.algo,
            self.weight_hash,
            self.spec_fingerprint,
            self.kernel.name(),
            self.seed
        )
    }
}

/// One entry of a [`Tier`]: its value, the size it counts against the
/// tier's cap, and its LRU stamp.
struct Entry<V> {
    value: V,
    size: u64,
    last_used: u64,
}

/// One LRU-ordered map under the cache lock — the memory blobs, the disk
/// ledger or the remembered failures — and the sum of its entry sizes.
struct Tier<K, V> {
    entries: HashMap<K, Entry<V>>,
    used: u64,
}

impl<K, V> Default for Tier<K, V> {
    fn default() -> Self {
        Tier { entries: HashMap::new(), used: 0 }
    }
}

impl<K: Hash + Eq + Clone, V> Tier<K, V> {
    /// Refreshes `key`'s LRU stamp and returns its value, if present.
    fn touch<Q>(&mut self, key: &Q, tick: u64) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let entry = self.entries.get_mut(key)?;
        entry.last_used = tick;
        Some(&entry.value)
    }

    /// Drops `key`, if present.
    fn remove<Q>(&mut self, key: &Q)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if let Some(entry) = self.entries.remove(key) {
            self.used -= entry.size;
        }
    }

    /// Admits `value` under `key` at stamp `tick`. A present key only
    /// has its stamp refreshed (same key ⇒ same deterministic encoding,
    /// so its size cannot have changed). Otherwise least-recently-used
    /// entries are evicted until `size` fits under `cap`, and the entry
    /// is inserted. Returns the evicted keys, or `None` — nothing evicted,
    /// nothing inserted — when `size` alone exceeds `cap`.
    ///
    /// Victim selection is a linear scan per eviction — deliberate: a
    /// cache holds at most a few thousand modest entries (one per
    /// compressed layer × config), where a scan beats maintaining a
    /// second ordered index. Revisit if caches grow by orders of
    /// magnitude.
    fn admit(
        &mut self,
        key: K,
        value: V,
        size: u64,
        tick: u64,
        cap: Option<u64>,
    ) -> Option<Vec<K>> {
        if self.touch(&key, tick).is_some() {
            return Some(Vec::new());
        }
        let cap = cap.unwrap_or(u64::MAX);
        if size > cap {
            return None;
        }
        let mut victims = Vec::new();
        while self.used + size > cap {
            // over the cap with `size <= cap` means `used > 0`: an entry exists
            let victim =
                self.entries.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())?;
            self.remove(&victim);
            victims.push(victim);
        }
        self.used += size;
        self.entries.insert(key, Entry { value, size, last_used: tick });
        Some(victims)
    }
}

/// Everything the cache's one lock guards.
#[derive(Default)]
struct State {
    /// Memory-resident blobs; a hit clones the `Arc`, never the bytes.
    memory: Tier<CacheKey, Arc<[u8]>>,
    /// The on-disk ledger, keyed by blob file name.
    disk: Tier<String, ()>,
    /// Known-failing keys, each of size 1 under [`NEGATIVE_CAP`].
    negative: Tier<CacheKey, MvqError>,
    /// The logical clock every touch is stamped with.
    clock: u64,
}

impl State {
    /// A unique, monotonically increasing LRU stamp.
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

/// A content-addressed artifact store: an in-memory blob map, optionally
/// backed by an on-disk directory, shared across threads (`&self`
/// methods are thread-safe — the compression service's worker pool fans
/// out over one cache).
///
/// Artifacts are stored *encoded* and validated once at admission;
/// [`ArtifactCache::get_raw`] hands back the shared bytes zero-copy,
/// and [`ArtifactCache::get`] decodes through the same [`Persist`] path
/// a cold load from disk would take, so a hit is guaranteed to be
/// bit-identical to a decode of the durable form — the cache cannot
/// return state that would not survive a restart.
///
/// See the [module docs](self) for the locking, budget,
/// negative-caching and corruption-quarantine design.
pub struct ArtifactCache {
    dir: Option<PathBuf>,
    budget: CacheBudget,
    state: Mutex<State>,
    /// The observability registry this cache records into. Created
    /// here and adopted by the service/network tiers above, so one
    /// serving stack shares one registry.
    metrics: Arc<Registry>,
}

impl ArtifactCache {
    /// A purely in-memory cache with no byte budget.
    pub fn in_memory() -> ArtifactCache {
        ArtifactCache::in_memory_with_budget(CacheBudget::UNBOUNDED)
    }

    /// A purely in-memory cache whose resident bytes honor `budget`
    /// (the disk half of the budget is ignored — there is no disk).
    pub fn in_memory_with_budget(budget: CacheBudget) -> ArtifactCache {
        ArtifactCache::empty(None, budget)
    }

    /// A cache persisting blobs under `dir` (created if absent), with no
    /// byte budget. Lookups fall back to disk on memory misses, so a new
    /// process reuses a previous run's artifacts.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::Codec`] when the directory cannot be created
    /// or scanned.
    pub fn with_dir<P: AsRef<Path>>(dir: P) -> Result<ArtifactCache, MvqError> {
        ArtifactCache::with_dir_and_budget(dir, CacheBudget::UNBOUNDED)
    }

    /// A disk-backed cache honoring `budget`. The directory is scanned at
    /// construction to rebuild the disk ledger (sizes plus a modification
    /// -time LRU order), and immediately pruned to the disk budget — a
    /// restart over an over-budget directory deletes the stalest blobs
    /// first.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::Codec`] when the directory cannot be created,
    /// scanned, or pruned.
    pub fn with_dir_and_budget<P: AsRef<Path>>(
        dir: P,
        budget: CacheBudget,
    ) -> Result<ArtifactCache, MvqError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| {
            MvqError::Codec(format!("cannot create cache dir {}: {e}", dir.display()))
        })?;
        let cache = ArtifactCache::empty(Some(dir), budget);
        cache.scan_disk()?;
        Ok(cache)
    }

    /// A cache with nothing in it yet.
    fn empty(dir: Option<PathBuf>, budget: CacheBudget) -> ArtifactCache {
        ArtifactCache { dir, budget, state: Mutex::default(), metrics: Registry::new() }
    }

    /// The backing directory, if this cache persists to disk.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// The byte budget this cache enforces.
    pub fn budget(&self) -> CacheBudget {
        self.budget
    }

    /// The observability registry this cache records into. The serve
    /// and net tiers adopt it so a whole serving stack reports through
    /// one registry; [`ArtifactCache::stats`] is a view over it.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.metrics
    }

    /// Number of artifacts resident in **memory**. Disk-backed caches may
    /// hold more blobs on disk — see [`ArtifactCache::disk_len`].
    pub fn len(&self) -> usize {
        self.lock().memory.entries.len()
    }

    /// True when no artifact is resident in memory.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of blobs on disk (0 for in-memory caches).
    pub fn disk_len(&self) -> usize {
        self.lock().disk.entries.len()
    }

    /// Encoded bytes currently resident in memory.
    pub fn memory_bytes(&self) -> u64 {
        self.lock().memory.used
    }

    /// Encoded bytes currently on disk (0 for in-memory caches).
    pub fn disk_bytes(&self) -> u64 {
        self.lock().disk.used
    }

    /// A snapshot of the traffic counters and occupancy gauges, taken
    /// under the lock.
    pub fn stats(&self) -> CacheStats {
        let counter = |id| self.metrics.counter(id).get();
        let state = self.lock();
        CacheStats {
            hits: counter(metric::STORE_CACHE_HITS),
            misses: counter(metric::STORE_CACHE_MISSES),
            insertions: counter(metric::STORE_CACHE_INSERTIONS),
            corrupt_rejections: counter(metric::STORE_CACHE_CORRUPT_REJECTIONS),
            memory_evictions: counter(metric::STORE_SHARD_EVICTIONS_MEMORY),
            disk_evictions: counter(metric::STORE_SHARD_EVICTIONS_DISK),
            negative_hits: counter(metric::STORE_CACHE_NEGATIVE_HITS),
            mtime_fallbacks: counter(metric::STORE_CACHE_MTIME_FALLBACKS),
            memory_len: state.memory.entries.len(),
            disk_len: state.disk.entries.len(),
            negative_len: state.negative.entries.len(),
            memory_bytes: state.memory.used,
            disk_bytes: state.disk.used,
        }
    }

    /// Looks up `key`, returning the validated encoded bytes zero-copy
    /// on a hit (an `Arc` clone of the blob admitted earlier — no decode,
    /// no byte copy).
    ///
    /// A disk hit validates the blob's checksum once, promotes it into
    /// memory (subject to the memory budget) and refreshes its LRU stamp
    /// on both levels.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::Codec`] when a stored blob is corrupt — a
    /// poisoned entry is surfaced loudly (counted in
    /// [`CacheStats::corrupt_rejections`]) and expelled from memory,
    /// ledger and disk (quarantined as `.corrupt`), so the *next* lookup
    /// misses cleanly.
    pub fn get_raw(&self, key: &CacheKey) -> Result<Option<Arc<[u8]>>, MvqError> {
        self.get_raw_kind(key, BlobKind::Artifact)
    }

    /// [`ArtifactCache::get_raw`] for a non-default frame kind: the
    /// streaming model pipeline stores per-layer blobs
    /// ([`BlobKind::Layer`]) and the model index ([`BlobKind::ModelIndex`])
    /// under derived keys, and a disk promotion must validate the frame
    /// against the kind that was stored — a layer blob answering an
    /// artifact lookup is corruption, not a hit.
    ///
    /// # Errors
    ///
    /// As [`ArtifactCache::get_raw`].
    pub fn get_raw_kind(
        &self,
        key: &CacheKey,
        kind: BlobKind,
    ) -> Result<Option<Arc<[u8]>>, MvqError> {
        let name = self.disk_name(key);
        if let Some(bytes) = self.resident(key, name.as_deref()) {
            return Ok(Some(bytes));
        }
        let (Some(dir), Some(name)) = (&self.dir, name) else {
            self.metrics.counter(metric::STORE_CACHE_MISSES).inc();
            return Ok(None);
        };
        let Some(loaded) = ledger::load_blob(dir, &name)? else {
            let mut state = self.lock();
            self.metrics.counter(metric::STORE_CACHE_MISSES).inc();
            // drop a stale ledger entry only if the file is truly absent
            // *now*: a concurrent put may have persisted this key between
            // our (lock-free) disk read and taking the lock, and its
            // ledger entry must survive
            // lint:allow(lock-scope) -- metadata-only existence probe; it must happen under this lock or the concurrent-put race described above comes back
            if !dir.join(&name).exists() {
                state.disk.remove(name.as_str());
            }
            return Ok(None);
        };
        let bytes: Arc<[u8]> = loaded.into();
        // checksum once at admission; hits hand these bytes out unchecked
        if let Err(detail) = validate_frame(kind, &bytes) {
            return Err(self.reject_corrupt(key, &name, &detail));
        }
        let mut doomed = Vec::new();
        {
            let mut state = self.lock();
            self.metrics.counter(metric::STORE_CACHE_HITS).inc();
            let tick = state.tick();
            self.admit_disk(&mut state, &name, bytes.len() as u64, tick, &mut doomed);
            self.admit_memory(&mut state, key, Arc::clone(&bytes), tick);
        }
        self.delete_files(&doomed)?;
        Ok(Some(bytes))
    }

    /// The memory tier alone: `key`'s blob if it is resident in memory,
    /// as a zero-copy `Arc` clone. A hit refreshes the LRU stamp (memory
    /// and disk) and counts in [`CacheStats::hits`]; absence counts
    /// nothing and touches no disk, so a caller that falls back to
    /// [`ArtifactCache::get_raw`] leaves that probe to count the miss.
    pub fn get_resident(&self, key: &CacheKey) -> Option<Arc<[u8]>> {
        self.resident(key, self.disk_name(key).as_deref())
    }

    /// `key`'s blob file name when this cache has a disk tier; a purely
    /// in-memory cache never formats it.
    fn disk_name(&self, key: &CacheKey) -> Option<String> {
        self.dir.as_ref().map(|_| key.blob_name())
    }

    /// The memory probe behind [`ArtifactCache::get_resident`] and
    /// [`ArtifactCache::get_raw_kind`]; `name` is [`Self::disk_name`].
    fn resident(&self, key: &CacheKey, name: Option<&str>) -> Option<Arc<[u8]>> {
        let mut state = self.lock();
        let tick = state.tick();
        let bytes = Arc::clone(state.memory.touch(key, tick)?);
        self.metrics.counter(metric::STORE_CACHE_HITS).inc();
        // the blob's disk copy is just as recently used: without this, a
        // hot key served from memory would keep a stale disk stamp and be
        // the first blob deleted under a disk budget — an LRU inversion
        if let Some(name) = name {
            state.disk.touch(name, tick);
        }
        Some(bytes)
    }

    /// Looks up `key`, decoding the stored blob on a hit. Prefer
    /// [`ArtifactCache::get_raw`] on hot paths — decoding is the
    /// caller's concern there.
    ///
    /// # Errors
    ///
    /// As [`ArtifactCache::get_raw`], plus decode failures of a blob
    /// whose checksum validated (possible only for bytes admitted via
    /// [`ArtifactCache::put_raw`] with a well-formed frame around an
    /// undecodable payload) — handled identically to corruption.
    pub fn get(&self, key: &CacheKey) -> Result<Option<CompressedArtifact>, MvqError> {
        let Some(bytes) = self.get_raw(key)? else {
            return Ok(None);
        };
        match CompressedArtifact::from_bytes(&bytes) {
            Ok(artifact) => Ok(Some(artifact)),
            Err(detail) => Err(self.reject_corrupt(key, &key.blob_name(), &detail)),
        }
    }

    /// Stores `artifact` under `key` (memory, and disk when backed),
    /// evicting LRU entries to make budget room first — see the module
    /// docs. A successful put forgets any remembered failure for `key`.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::Codec`] when encoding, the disk write, or an
    /// eviction's file deletion fails. A budget refusal is **not** an
    /// error — the artifact is simply not retained.
    pub fn put(&self, key: &CacheKey, artifact: &CompressedArtifact) -> Result<(), MvqError> {
        let bytes: Arc<[u8]> = artifact.to_bytes()?.into();
        self.insert_validated(key, bytes)
    }

    /// Stores already-encoded blob bytes under `key`, validating the
    /// frame once at this admission boundary. This is the zero-copy
    /// write half: the serve layer hands the same `Arc` to the cache and
    /// to every waiter.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::Codec`] when `bytes` is not a valid artifact
    /// frame, or on the same disk failures as [`ArtifactCache::put`].
    pub fn put_raw(&self, key: &CacheKey, bytes: Arc<[u8]>) -> Result<(), MvqError> {
        self.put_raw_kind(key, BlobKind::Artifact, bytes)
    }

    /// [`ArtifactCache::put_raw`] for a non-default frame kind — the
    /// write half of [`ArtifactCache::get_raw_kind`]. The frame is
    /// validated against `kind` once at this admission boundary.
    ///
    /// # Errors
    ///
    /// As [`ArtifactCache::put_raw`].
    pub fn put_raw_kind(
        &self,
        key: &CacheKey,
        kind: BlobKind,
        bytes: Arc<[u8]>,
    ) -> Result<(), MvqError> {
        validate_frame(kind, &bytes)?;
        self.insert_validated(key, bytes)
    }

    /// Remembers `error` as the deterministic outcome of compressing
    /// `key`, so repeated requests fail fast — see the module docs.
    pub fn note_failure(&self, key: &CacheKey, error: &MvqError) {
        let (key, error) = (key.clone(), error.clone());
        let mut state = self.lock();
        let tick = state.tick();
        // a re-noted key takes the new error as well as a fresh stamp
        state.negative.remove(&key);
        state.negative.admit(key, error, 1, tick, Some(NEGATIVE_CAP));
    }

    /// The remembered failure for `key`, if any (refreshes its LRU stamp
    /// and counts a [`CacheStats::negative_hits`]).
    pub fn failure(&self, key: &CacheKey) -> Option<MvqError> {
        let mut state = self.lock();
        let tick = state.tick();
        let remembered = state.negative.touch(key, tick).cloned();
        if remembered.is_some() {
            self.metrics.counter(metric::STORE_CACHE_NEGATIVE_HITS).inc();
        }
        remembered
    }

    /// Locks the cache state.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("cache lock")
    }

    /// Persists + ledgers + admits one validated blob (shared by `put`
    /// and `put_raw`).
    fn insert_validated(&self, key: &CacheKey, bytes: Arc<[u8]>) -> Result<(), MvqError> {
        let name = self.disk_name(key);
        if let (Some(dir), Some(name)) = (&self.dir, &name) {
            ledger::persist_blob(dir, name, &bytes)?;
        }
        let mut doomed = Vec::new();
        {
            let mut state = self.lock();
            self.metrics.counter(metric::STORE_CACHE_INSERTIONS).inc();
            state.negative.remove(key);
            let tick = state.tick();
            if let Some(name) = &name {
                self.admit_disk(&mut state, name, bytes.len() as u64, tick, &mut doomed);
            }
            self.admit_memory(&mut state, key, bytes, tick);
        }
        self.delete_files(&doomed)
    }

    /// Ledgers `name` under the disk budget (see [`Tier::admit`]) and
    /// pushes onto `doomed` the files to delete once the lock is
    /// released: the LRU victims evicted to make room, or `name` itself
    /// when it is larger than the whole budget.
    fn admit_disk(
        &self,
        state: &mut State,
        name: &str,
        len: u64,
        tick: u64,
        doomed: &mut Vec<String>,
    ) {
        match state.disk.admit(name.to_string(), (), len, tick, self.budget.disk_bytes) {
            Some(victims) => {
                self.metrics.counter(metric::STORE_SHARD_EVICTIONS_DISK).add(victims.len() as u64);
                doomed.extend(victims);
            }
            None => doomed.push(name.to_string()),
        }
    }

    /// Makes `key` memory-resident under the memory budget (see
    /// [`Tier::admit`]); a refused blob is simply not retained.
    fn admit_memory(&self, state: &mut State, key: &CacheKey, bytes: Arc<[u8]>, tick: u64) {
        let len = bytes.len() as u64;
        if let Some(victims) =
            state.memory.admit(key.clone(), bytes, len, tick, self.budget.memory_bytes)
        {
            self.metrics.counter(metric::STORE_SHARD_EVICTIONS_MEMORY).add(victims.len() as u64);
        }
    }

    /// Deletes the files of blobs the ledger no longer holds; call it
    /// after the lock is released. Every deletion is attempted and the
    /// first failure is returned.
    fn delete_files(&self, names: &[String]) -> Result<(), MvqError> {
        let Some(dir) = &self.dir else { return Ok(()) };
        names.iter().map(|name| ledger::delete_blob(dir, name)).fold(Ok(()), Result::and)
    }

    /// Expels a corrupt blob everywhere it is held — memory, ledger,
    /// and disk (quarantined as `.corrupt` so the bytes survive for
    /// post-mortem inspection) — and builds the loud, typed error.
    fn reject_corrupt(&self, key: &CacheKey, name: &str, detail: &MvqError) -> MvqError {
        {
            let mut state = self.lock();
            self.metrics.counter(metric::STORE_CACHE_CORRUPT_REJECTIONS).inc();
            state.memory.remove(key);
            state.disk.remove(name);
        }
        let mut message = format!("cache blob for {name} is corrupt: {detail}");
        if let Some(dir) = &self.dir {
            if let Err(e) = ledger::quarantine_blob(dir, name) {
                message.push_str(&format!("; {e}"));
            }
        }
        MvqError::Codec(message)
    }

    /// Rebuilds the disk ledger from the blob directory, replaying the
    /// scan oldest-first through the same budget admission as a live
    /// put — a restart over an over-budget directory deletes the stalest
    /// blobs first, and an individually over-budget blob is removed.
    fn scan_disk(&self) -> Result<(), MvqError> {
        let Some(dir) = &self.dir else { return Ok(()) };
        let report = ledger::scan_dir(dir)?;
        if report.mtime_fallbacks > 0 {
            self.metrics.counter(metric::STORE_CACHE_MTIME_FALLBACKS).add(report.mtime_fallbacks);
        }
        let mut doomed = Vec::new();
        {
            let mut state = self.lock();
            for (name, len) in report.blobs {
                let tick = state.tick();
                self.admit_disk(&mut state, &name, len, tick, &mut doomed);
            }
        }
        self.delete_files(&doomed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::by_name;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn weight() -> Tensor {
        let mut rng = StdRng::seed_from_u64(11);
        mvq_tensor::kaiming_normal(vec![32, 16], 16, &mut rng)
    }

    fn artifact(algo: &str) -> CompressedArtifact {
        let spec = PipelineSpec { k: 8, swap_trials: 100, ..PipelineSpec::default() };
        by_name(algo, &spec)
            .unwrap()
            .compress_matrix(&weight(), &mut StdRng::seed_from_u64(5))
            .unwrap()
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let cache = ArtifactCache::in_memory();
        let w = weight();
        let spec = PipelineSpec { k: 8, ..PipelineSpec::default() };
        let key = CacheKey::new("mvq", &w, &spec, 5).unwrap();
        assert!(cache.get(&key).unwrap().is_none());
        let a = artifact("mvq");
        cache.put(&key, &a).unwrap();
        assert!(cache.get(&key).unwrap().is_some());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.corrupt_rejections, 0);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn raw_hits_share_one_allocation() {
        // the zero-copy contract: every hit returns a clone of the same
        // Arc the admission created, not a fresh buffer
        let cache = ArtifactCache::in_memory();
        let spec = PipelineSpec { k: 8, ..PipelineSpec::default() };
        let key = CacheKey::new("mvq", &weight(), &spec, 5).unwrap();
        cache.put(&key, &artifact("mvq")).unwrap();
        let first = cache.get_raw(&key).unwrap().unwrap();
        let second = cache.get_raw(&key).unwrap().unwrap();
        assert!(Arc::ptr_eq(&first, &second), "hits copied the blob");
        let decoded = CompressedArtifact::from_bytes(&first).unwrap();
        assert_eq!(decoded.storage(), artifact("mvq").storage());
    }

    #[test]
    fn memory_budget_evicts_lru_and_never_exceeds_cap() {
        let a = artifact("mvq");
        let blob_len = a.to_bytes().unwrap().len() as u64;
        // room for exactly two blobs of this size
        let cap = 2 * blob_len;
        let cache =
            ArtifactCache::in_memory_with_budget(CacheBudget::default().with_memory_bytes(cap));
        let spec = PipelineSpec { k: 8, ..PipelineSpec::default() };
        let keys: Vec<CacheKey> =
            (0..3).map(|s| CacheKey::new("mvq", &weight(), &spec, s).unwrap()).collect();
        cache.put(&keys[0], &a).unwrap();
        cache.put(&keys[1], &a).unwrap();
        assert_eq!(cache.len(), 2);
        // touch key 0 so key 1 becomes the LRU victim
        assert!(cache.get(&keys[0]).unwrap().is_some());
        cache.put(&keys[2], &a).unwrap();
        assert!(cache.memory_bytes() <= cap, "budget exceeded");
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().memory_evictions, 1);
        assert!(cache.get(&keys[0]).unwrap().is_some(), "recently used entry was evicted");
        assert!(cache.get(&keys[1]).unwrap().is_none(), "LRU entry survived");
        assert!(cache.get(&keys[2]).unwrap().is_some());
    }

    #[test]
    fn oversized_blob_is_refused_not_retained() {
        let a = artifact("mvq");
        let cap = a.to_bytes().unwrap().len() as u64 - 1;
        let cache =
            ArtifactCache::in_memory_with_budget(CacheBudget::default().with_memory_bytes(cap));
        let spec = PipelineSpec { k: 8, ..PipelineSpec::default() };
        let key = CacheKey::new("mvq", &weight(), &spec, 0).unwrap();
        cache.put(&key, &a).unwrap();
        assert_eq!(cache.memory_bytes(), 0, "a blob larger than the budget must not stay");
        assert!(cache.get(&key).unwrap().is_none());
    }

    #[test]
    fn memory_hits_refresh_the_disk_lru_stamp() {
        // a key served from memory must not keep a stale disk stamp, or
        // the hottest blob would be the first one deleted under a disk
        // budget (LRU inversion)
        let dir = std::env::temp_dir().join(format!("mvq-store-bump-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = artifact("mvq");
        let blob_len = a.to_bytes().unwrap().len() as u64;
        let budget = CacheBudget::default().with_disk_bytes(2 * blob_len + blob_len / 2);
        let cache = ArtifactCache::with_dir_and_budget(&dir, budget).unwrap();
        let spec = PipelineSpec { k: 8, ..PipelineSpec::default() };
        let keys: Vec<CacheKey> =
            (0..3).map(|s| CacheKey::new("mvq", &weight(), &spec, s).unwrap()).collect();
        cache.put(&keys[0], &a).unwrap();
        cache.put(&keys[1], &a).unwrap();
        // memory hit on key 0: its disk copy becomes the most recent
        assert!(cache.get(&keys[0]).unwrap().is_some());
        cache.put(&keys[2], &a).unwrap();
        assert!(dir.join(keys[0].blob_name()).exists(), "hot blob was the eviction victim");
        assert!(!dir.join(keys[1].blob_name()).exists(), "stale blob survived");
        assert_eq!(cache.stats().disk_evictions, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resident_probe_counts_only_hits_and_refreshes_lru() {
        let a = artifact("mvq");
        let blob_len = a.to_bytes().unwrap().len() as u64;
        let cache = ArtifactCache::in_memory_with_budget(
            CacheBudget::default().with_memory_bytes(2 * blob_len),
        );
        let spec = PipelineSpec { k: 8, ..PipelineSpec::default() };
        let keys: Vec<CacheKey> =
            (0..3).map(|s| CacheKey::new("mvq", &weight(), &spec, s).unwrap()).collect();
        cache.put(&keys[0], &a).unwrap();
        cache.put(&keys[1], &a).unwrap();
        let hit = cache.get_resident(&keys[0]).expect("key 0 is resident");
        assert!(Arc::ptr_eq(&hit, &cache.get_raw(&keys[0]).unwrap().unwrap()), "hit copied");
        assert!(cache.get_resident(&keys[2]).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 0), "absence must count nothing");
        // the probe made key 0 the most recent, so key 1 is the victim
        cache.put(&keys[2], &a).unwrap();
        assert!(cache.get_resident(&keys[0]).is_some(), "probed entry was evicted");
        assert!(cache.get_resident(&keys[1]).is_none(), "LRU entry survived");

        // a blob only on disk (after a restart) is not resident: the
        // probe neither reads it nor counts a miss
        let dir = std::env::temp_dir().join(format!("mvq-store-resident-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactCache::with_dir(&dir).unwrap().put(&keys[0], &a).unwrap();
        let restarted = ArtifactCache::with_dir(&dir).unwrap();
        assert!(restarted.get_resident(&keys[0]).is_none(), "disk blob answered the probe");
        assert_eq!((restarted.stats().hits, restarted.stats().misses), (0, 0));
        assert!(restarted.get_raw(&keys[0]).unwrap().is_some(), "disk hit promotes to memory");
        assert!(restarted.get_resident(&keys[0]).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_scan_removes_orphaned_tmp_files() {
        // an interrupted put strands `<blob>.<pid>-<n>.mvqa.tmp`; the
        // scan must delete it (unaddressable, outside the budget) and
        // leave foreign files alone
        let dir = std::env::temp_dir().join(format!("mvq-store-tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("stranded.7-3.mvqa.tmp"), b"partial").unwrap();
        std::fs::write(dir.join("notes.txt"), b"keep me").unwrap();
        let cache = ArtifactCache::with_dir(&dir).unwrap();
        assert!(!dir.join("stranded.7-3.mvqa.tmp").exists(), "tmp orphan survived the scan");
        assert!(dir.join("notes.txt").exists(), "foreign file was deleted");
        assert_eq!(cache.disk_len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_prune_under_mtime_ties_is_deterministic_by_name() {
        // satellite regression: with tied mtimes (coarse-mtime
        // filesystems make ties common) the restart scan used to replay
        // blobs in directory-iteration order, so the pruned set under a
        // disk budget could differ between two identical restarts; ties
        // now break by blob name, pinning the victim set
        let dir = std::env::temp_dir().join(format!("mvq-store-tie-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = artifact("mvq");
        let blob_len = a.to_bytes().unwrap().len() as u64;
        let spec = PipelineSpec { k: 8, ..PipelineSpec::default() };
        let keys: Vec<CacheKey> =
            (0..4).map(|s| CacheKey::new("mvq", &weight(), &spec, s).unwrap()).collect();
        {
            let cache = ArtifactCache::with_dir(&dir).unwrap();
            for key in &keys {
                cache.put(key, &a).unwrap();
            }
        }
        // force the tie: every blob carries the same mtime
        let tied = std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(3_000_000);
        let mut names: Vec<String> = keys.iter().map(|k| k.blob_name()).collect();
        for name in &names {
            std::fs::File::open(dir.join(name)).unwrap().set_modified(tied).unwrap();
        }
        names.sort();
        // room for exactly two blobs: the replay admits in name order and
        // evicts LRU-first, so the two lexicographically-smallest names
        // are pruned and the two largest survive — deterministically
        let budget = CacheBudget::default().with_disk_bytes(2 * blob_len);
        let cache = ArtifactCache::with_dir_and_budget(&dir, budget).unwrap();
        assert_eq!(cache.disk_len(), 2);
        assert!(!dir.join(&names[0]).exists(), "{} must be pruned", names[0]);
        assert!(!dir.join(&names[1]).exists(), "{} must be pruned", names[1]);
        assert!(dir.join(&names[2]).exists(), "{} must survive", names[2]);
        assert!(dir.join(&names[3]).exists(), "{} must survive", names[3]);
        assert_eq!(cache.stats().mtime_fallbacks, 0, "readable mtimes need no fallback");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_blob_errors_once_then_misses_cleanly() {
        // regression: the corrupt path used to remove only the memory
        // entry, leaving the poisoned file on disk and in the ledger —
        // it kept counting toward the disk budget and every future
        // lookup re-read and re-failed it
        let dir = std::env::temp_dir().join(format!("mvq-store-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = PipelineSpec { k: 8, ..PipelineSpec::default() };
        let key = CacheKey::new("mvq", &weight(), &spec, 5).unwrap();
        let name = key.blob_name();
        {
            let cache = ArtifactCache::with_dir(&dir).unwrap();
            cache.put(&key, &artifact("mvq")).unwrap();
        }
        // flip payload bytes on disk, then restart so memory is cold
        let path = dir.join(&name);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let cache = ArtifactCache::with_dir(&dir).unwrap();
        assert_eq!(cache.disk_len(), 1);
        let err = cache.get(&key).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");
        // fully expelled: ledger entry gone, file quarantined, budget freed
        assert_eq!(cache.disk_len(), 0);
        assert_eq!(cache.disk_bytes(), 0);
        assert!(!path.exists(), "corrupt blob still addressable");
        let quarantined = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                let n = e.as_ref().unwrap().file_name();
                let n = n.to_string_lossy();
                n.starts_with(&name) && n.ends_with(".corrupt")
            })
            .count();
        assert_eq!(quarantined, 1, "blob was not quarantined");
        // second lookup: a clean miss, not a repeated error
        assert!(cache.get(&key).unwrap().is_none());
        let stats = cache.stats();
        assert_eq!(stats.corrupt_rejections, 1);
        assert_eq!(stats.misses, 1);
        // a fresh put heals the key
        cache.put(&key, &artifact("mvq")).unwrap();
        assert!(cache.get(&key).unwrap().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn negative_cache_remembers_failures_until_a_put_heals() {
        let cache = ArtifactCache::in_memory();
        let spec = PipelineSpec { k: 8, ..PipelineSpec::default() };
        let key = CacheKey::new("mvq", &weight(), &spec, 9).unwrap();
        assert!(cache.failure(&key).is_none());
        let boom = MvqError::InvalidConfig("k larger than points".into());
        cache.note_failure(&key, &boom);
        assert_eq!(cache.failure(&key), Some(boom));
        let stats = cache.stats();
        assert_eq!(stats.negative_hits, 1);
        assert_eq!(stats.negative_len, 1);
        cache.put(&key, &artifact("mvq")).unwrap();
        assert!(cache.failure(&key).is_none(), "put did not heal the negative entry");
        assert_eq!(cache.stats().negative_len, 0);
    }

    #[test]
    fn negative_cache_forgets_the_stalest_failure_past_its_cap() {
        let cache = ArtifactCache::in_memory();
        let spec = PipelineSpec { k: 8, ..PipelineSpec::default() };
        let first = CacheKey::new("mvq", &weight(), &spec, 0).unwrap();
        let boom = MvqError::InvalidConfig("k larger than points".into());
        for seed in 0..1025 {
            cache.note_failure(&CacheKey { seed, ..first.clone() }, &boom);
        }
        assert_eq!(cache.stats().negative_len, 1024);
        assert!(cache.failure(&first).is_none(), "the first failure noted must be forgotten");
        assert!(cache.failure(&CacheKey { seed: 1, ..first.clone() }).is_some());
        assert!(cache.failure(&CacheKey { seed: 1024, ..first }).is_some());
    }

    #[test]
    fn stats_report_occupancy_gauges() {
        let cache = ArtifactCache::in_memory();
        let spec = PipelineSpec { k: 8, ..PipelineSpec::default() };
        let key = CacheKey::new("mvq", &weight(), &spec, 0).unwrap();
        let a = artifact("mvq");
        cache.put(&key, &a).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.memory_len, 1);
        assert_eq!(stats.memory_bytes, a.to_bytes().unwrap().len() as u64);
        assert_eq!(stats.disk_len, 0);
        assert_eq!(stats.disk_bytes, 0);
    }

    #[test]
    fn cache_key_resolves_aliases() {
        let w = weight();
        let spec = PipelineSpec::default();
        let a = CacheKey::new("vq", &w, &spec, 0).unwrap();
        let b = CacheKey::new("vq-a", &w, &spec, 0).unwrap();
        assert_eq!(a, b);
        assert!(CacheKey::new("vqgan", &w, &spec, 0).is_err());
    }
}
