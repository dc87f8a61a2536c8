//! Versioned artifact serialization and the sharded, zero-copy,
//! content-addressed artifact cache — the durable half of the
//! compression pipeline.
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
//! ## Sharding
//!
//! Every cache is split into [`DEFAULT_SHARDS`] independent lock
//! domains. A key is routed to its shard by FNV-1a hash of its blob
//! name, so the key, its disk-ledger entry, and its remembered failures
//! always live under the same lock, and concurrent lookups of different
//! keys contend only `1/N` of the time. Traffic counters are kept per
//! shard and merged on read by [`ArtifactCache::stats`].
//!
//! ## Zero-copy hits
//!
//! Blobs are stored as shared `Arc<[u8]>` bytes, checksum-validated
//! **once at admission** ([`validate_frame`]). [`ArtifactCache::get_raw`]
//! returns a clone of the `Arc` — no decode, no byte copy — so a hit
//! costs a hash, one shard lock, and a reference-count bump. The classic
//! [`ArtifactCache::get`] decodes behind it and is still guaranteed
//! bit-identical to a cold load of the durable form.
//!
//! ## Byte budgets: reserve-then-insert
//!
//! A [`CacheBudget`] caps the encoded bytes in memory and on disk.
//! Footprints are cache-wide atomics: admission *reserves* the incoming
//! blob's bytes with a compare-and-swap that only succeeds while the
//! total stays under the cap, evicting the cache-wide least-recently-used
//! entry between attempts (one shard lock at a time, stamped by a global
//! logical clock, so victim selection is deterministic). A blob that can
//! never fit is refused — the caller keeps the returned artifact and the
//! cache simply does not retain it. The budget is therefore never
//! exceeded at any observable instant, and refusal is never an error.
//!
//! ## Negative caching
//!
//! A deterministic compression failure can be remembered per key
//! ([`ArtifactCache::note_failure`]) and recalled
//! ([`ArtifactCache::failure`]) so repeated requests for a known-bad key
//! fail fast instead of re-running the pipeline. Each shard remembers a
//! bounded number of failures (stalest dropped first), and a successful
//! `put` heals the key.
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
mod shard;
mod stats;

pub use codec::{
    decode_blob, frame_blob, peek_kind, unframe_blob, validate_frame, weight_hash, BlobKind, Fnv1a,
    ModelIndex, Persist, Reader, Writer, FORMAT_VERSION, HEADER_LEN, MAGIC,
};
pub use stats::{CacheBudget, CacheStats};

use std::collections::hash_map;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mvq_obs::{names as metric, Registry};
use mvq_tensor::Tensor;

use shard::{DiskEntry, MemEntry, Shard};

use crate::error::MvqError;
use crate::kernels::KernelStrategy;
use crate::pipeline::{canonical_name, CompressedArtifact, PipelineSpec};

/// Lock domains every cache is split into: enough that 16 concurrent
/// submitters rarely collide, small enough that the merge-on-read stats
/// scan stays trivial.
pub const DEFAULT_SHARDS: usize = 16;

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

/// A sharded, content-addressed artifact store: an in-memory blob map,
/// optionally backed by an on-disk directory, shared across threads
/// (`&self` methods are thread-safe — the compression service's worker
/// pool fans out over one cache).
///
/// Artifacts are stored *encoded* and validated once at admission;
/// [`ArtifactCache::get_raw`] hands back the shared bytes zero-copy,
/// and [`ArtifactCache::get`] decodes through the same [`Persist`] path
/// a cold load from disk would take, so a hit is guaranteed to be
/// bit-identical to a decode of the durable form — the cache cannot
/// return state that would not survive a restart.
///
/// See the [module docs](self) for the sharding, budget-reservation,
/// negative-caching and corruption-quarantine design.
pub struct ArtifactCache {
    dir: Option<PathBuf>,
    budget: CacheBudget,
    shards: Box<[Shard]>,
    /// Cache-wide logical clock; every touch gets a unique stamp, so
    /// LRU victim selection is deterministic across shards.
    clock: AtomicU64,
    /// Encoded bytes resident in memory (reservation total).
    memory_used: AtomicU64,
    /// Encoded bytes ledgered on disk (reservation total).
    disk_used: AtomicU64,
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

    /// A cache with nothing in it yet, split into [`DEFAULT_SHARDS`]
    /// lock domains.
    fn empty(dir: Option<PathBuf>, budget: CacheBudget) -> ArtifactCache {
        ArtifactCache {
            dir,
            budget,
            shards: (0..DEFAULT_SHARDS).map(|_| Shard::default()).collect(),
            clock: AtomicU64::new(0),
            memory_used: AtomicU64::new(0),
            disk_used: AtomicU64::new(0),
            metrics: Registry::new(),
        }
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

    /// Lock domains this cache is split into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of artifacts resident in **memory**. Disk-backed caches may
    /// hold more blobs on disk — see [`ArtifactCache::disk_len`].
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().blobs.len()).sum()
    }

    /// True when no artifact is resident in memory.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of blobs on disk (0 for in-memory caches).
    pub fn disk_len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().disk.len()).sum()
    }

    /// Encoded bytes currently resident in memory (lock-free read of the
    /// reservation total).
    pub fn memory_bytes(&self) -> u64 {
        self.memory_used.load(Ordering::Relaxed)
    }

    /// Encoded bytes currently on disk (0 for in-memory caches).
    pub fn disk_bytes(&self) -> u64 {
        self.disk_used.load(Ordering::Relaxed)
    }

    /// A snapshot of the traffic counters and occupancy gauges, merged
    /// across shards (one shard lock at a time).
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats {
            hits: self.metrics.counter(metric::STORE_CACHE_HITS).get(),
            misses: self.metrics.counter(metric::STORE_CACHE_MISSES).get(),
            insertions: self.metrics.counter(metric::STORE_CACHE_INSERTIONS).get(),
            corrupt_rejections: self.metrics.counter(metric::STORE_CACHE_CORRUPT_REJECTIONS).get(),
            memory_evictions: self.metrics.counter(metric::STORE_SHARD_EVICTIONS_MEMORY).get(),
            disk_evictions: self.metrics.counter(metric::STORE_SHARD_EVICTIONS_DISK).get(),
            negative_hits: self.metrics.counter(metric::STORE_CACHE_NEGATIVE_HITS).get(),
            mtime_fallbacks: self.metrics.counter(metric::STORE_CACHE_MTIME_FALLBACKS).get(),
            ..CacheStats::default()
        };
        for shard in self.shards.iter() {
            let inner = shard.lock();
            total.memory_len += inner.blobs.len();
            total.disk_len += inner.disk.len();
            total.negative_len += inner.negative_len();
        }
        total.memory_bytes = self.memory_bytes();
        total.disk_bytes = self.disk_bytes();
        total
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
        let name = key.blob_name();
        if let Some(bytes) = self.resident(key, &name) {
            return Ok(Some(bytes));
        }
        let Some(dir) = &self.dir else {
            self.metrics.counter(metric::STORE_CACHE_MISSES).inc();
            return Ok(None);
        };
        let Some(loaded) = ledger::load_blob(dir, &name)? else {
            let freed = {
                let mut inner = self.shard_for(&name).lock();
                self.metrics.counter(metric::STORE_CACHE_MISSES).inc();
                // drop a stale ledger entry only if the file is truly
                // absent *now*: a concurrent put may have persisted this
                // key between our (lock-free) disk read and re-acquiring
                // the lock, and its ledger entry must survive
                // lint:allow(lock-scope) -- metadata-only existence probe; it must happen under this lock or the concurrent-put race described above comes back
                if !dir.join(&name).exists() {
                    inner.forget_disk(&name)
                } else {
                    0
                }
            };
            if freed > 0 {
                self.disk_used.fetch_sub(freed, Ordering::Relaxed);
            }
            return Ok(None);
        };
        let bytes: Arc<[u8]> = loaded.into();
        // checksum once at admission; hits hand these bytes out unchecked
        if let Err(detail) = validate_frame(kind, &bytes) {
            return Err(self.reject_corrupt(key, &name, &detail));
        }
        let tick = self.tick();
        self.metrics.counter(metric::STORE_CACHE_HITS).inc();
        self.admit_disk(&name, bytes.len() as u64, tick)?;
        self.admit_memory(key, &name, Arc::clone(&bytes), tick, false);
        Ok(Some(bytes))
    }

    /// The memory tier alone: `key`'s blob if it is resident in memory,
    /// as a zero-copy `Arc` clone. A hit refreshes the LRU stamp (memory
    /// and disk) and counts in [`CacheStats::hits`]; absence counts
    /// nothing and touches no disk, so a caller that falls back to
    /// [`ArtifactCache::get_raw`] leaves that probe to count the miss.
    pub fn get_resident(&self, key: &CacheKey) -> Option<Arc<[u8]>> {
        self.resident(key, &key.blob_name())
    }

    /// The memory probe behind [`ArtifactCache::get_resident`] and
    /// [`ArtifactCache::get_raw_kind`]; `name` is `key.blob_name()`.
    fn resident(&self, key: &CacheKey, name: &str) -> Option<Arc<[u8]>> {
        let tick = self.tick();
        let mut inner = self.shard_for(name).lock();
        let hit = inner.blobs.get_mut(key).map(|entry| {
            entry.last_used = tick;
            Arc::clone(&entry.bytes)
        });
        if hit.is_some() {
            self.metrics.counter(metric::STORE_CACHE_HITS).inc();
            // the blob's disk copy is just as recently used: without
            // this, a hot key served from memory would keep a stale
            // disk stamp and be the first blob deleted under a disk
            // budget — an LRU inversion
            inner.bump_disk(name, tick);
        }
        hit
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
    /// reserving budget room first — see the module docs. A successful
    /// put forgets any remembered failure for `key`.
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
        let name = key.blob_name();
        let tick = self.tick();
        self.shard_for(&name).lock().note_failure(key, error.clone(), tick);
    }

    /// The remembered failure for `key`, if any (refreshes its LRU stamp
    /// and counts a [`CacheStats::negative_hits`]).
    pub fn failure(&self, key: &CacheKey) -> Option<MvqError> {
        let name = key.blob_name();
        let tick = self.tick();
        let remembered = self.shard_for(&name).lock().recall_failure(key, tick);
        if remembered.is_some() {
            self.metrics.counter(metric::STORE_CACHE_NEGATIVE_HITS).inc();
        }
        remembered
    }

    /// A unique, monotonically increasing LRU stamp.
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The shard owning `name` (FNV-1a of the blob name, so CacheKey
    /// lookups and scanned file names route identically).
    fn shard_for(&self, name: &str) -> &Shard {
        let mut h = Fnv1a::new();
        h.update(name.as_bytes());
        &self.shards[(h.finish() % self.shards.len() as u64) as usize]
    }

    /// Persists + ledgers + admits one validated blob (shared by `put`
    /// and `put_raw`).
    fn insert_validated(&self, key: &CacheKey, bytes: Arc<[u8]>) -> Result<(), MvqError> {
        let name = key.blob_name();
        let tick = self.tick();
        if let Some(dir) = &self.dir {
            ledger::persist_blob(dir, &name, &bytes)?;
            if !self.admit_disk(&name, bytes.len() as u64, tick)? {
                // the blob cannot fit the disk budget even after
                // evicting everything else; the file written above must
                // not outlive the refusal
                ledger::delete_blob(dir, &name)?;
            }
        }
        self.admit_memory(key, &name, bytes, tick, true);
        Ok(())
    }

    /// Ledgers `name`: bumps the stamp when already present, otherwise
    /// reserves disk budget (evicting LRU victims) and inserts. Returns
    /// `false` when the budget refuses the blob — the caller decides
    /// what happens to the file.
    fn admit_disk(&self, name: &str, len: u64, tick: u64) -> Result<bool, MvqError> {
        let already = {
            let mut inner = self.shard_for(name).lock();
            match inner.disk.get_mut(name) {
                Some(entry) => {
                    // same name ⇒ same key ⇒ same deterministic encoding:
                    // the accounted size cannot have changed
                    entry.last_used = tick;
                    true
                }
                None => false,
            }
        };
        if already {
            return Ok(true);
        }
        if !self.reserve_disk(len)? {
            return Ok(false);
        }
        let mut inner = self.shard_for(name).lock();
        match inner.disk.entry(name.to_string()) {
            hash_map::Entry::Occupied(mut e) => {
                // another thread ledgered this name between our probe and
                // re-lock; release the duplicate reservation
                e.get_mut().last_used = tick;
                self.disk_used.fetch_sub(len, Ordering::Relaxed);
            }
            hash_map::Entry::Vacant(v) => {
                v.insert(DiskEntry { bytes: len, last_used: tick });
            }
        }
        Ok(true)
    }

    /// Makes `key` memory-resident: bumps the stamp when already
    /// resident, otherwise reserves memory budget (evicting LRU victims)
    /// and inserts; a refused blob is simply not retained. `insertion`
    /// marks caller-initiated puts (counts the insertion, heals the
    /// negative cache) as opposed to disk promotions.
    fn admit_memory(
        &self,
        key: &CacheKey,
        name: &str,
        bytes: Arc<[u8]>,
        tick: u64,
        insertion: bool,
    ) {
        let len = bytes.len() as u64;
        let resident = {
            let mut inner = self.shard_for(name).lock();
            if insertion {
                self.metrics.counter(metric::STORE_CACHE_INSERTIONS).inc();
                inner.clear_failure(key);
            }
            match inner.blobs.get_mut(key) {
                Some(entry) => {
                    entry.last_used = tick;
                    true
                }
                None => false,
            }
        };
        if resident || !self.reserve_memory(len) {
            return;
        }
        let mut inner = self.shard_for(name).lock();
        match inner.blobs.entry(key.clone()) {
            hash_map::Entry::Occupied(mut e) => {
                // another thread admitted this key between our probe and
                // re-lock; release the duplicate reservation
                e.get_mut().last_used = tick;
                self.memory_used.fetch_sub(len, Ordering::Relaxed);
            }
            hash_map::Entry::Vacant(v) => {
                v.insert(MemEntry { bytes, last_used: tick });
            }
        }
    }

    /// Reserves `len` bytes against the memory budget via CAS, evicting
    /// cache-wide LRU entries between attempts. Returns `false` (nothing
    /// reserved) when the blob can never fit or nothing is left to evict.
    fn reserve_memory(&self, len: u64) -> bool {
        let Some(cap) = self.budget.memory_bytes else {
            self.memory_used.fetch_add(len, Ordering::Relaxed);
            return true;
        };
        if len > cap {
            return false;
        }
        loop {
            let used = self.memory_used.load(Ordering::Relaxed);
            if used + len <= cap {
                if self
                    .memory_used
                    .compare_exchange(used, used + len, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    return true;
                }
                continue;
            }
            if !self.evict_one_memory_lru() {
                return false;
            }
        }
    }

    /// Reserves `len` bytes against the disk budget via CAS, evicting
    /// cache-wide LRU blobs (deleting their files) between attempts.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::Codec`] when an eviction's file deletion
    /// fails.
    fn reserve_disk(&self, len: u64) -> Result<bool, MvqError> {
        let Some(cap) = self.budget.disk_bytes else {
            self.disk_used.fetch_add(len, Ordering::Relaxed);
            return Ok(true);
        };
        if len > cap {
            return Ok(false);
        }
        loop {
            let used = self.disk_used.load(Ordering::Relaxed);
            if used + len <= cap {
                if self
                    .disk_used
                    .compare_exchange(used, used + len, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    return Ok(true);
                }
                continue;
            }
            if !self.evict_one_disk_lru()? {
                return Ok(false);
            }
        }
    }

    /// Evicts the cache-wide least-recently-used memory entry (victim
    /// scan takes one shard lock at a time — never two at once). Returns
    /// `false` only when every shard is empty.
    ///
    /// Victim selection is a linear scan per eviction — deliberate: the
    /// cache holds at most a few thousand modest entries (one per
    /// compressed layer × config), where a scan beats maintaining a
    /// second ordered index. Revisit if caches grow by orders of
    /// magnitude.
    fn evict_one_memory_lru(&self) -> bool {
        let mut victim: Option<(usize, CacheKey, u64)> = None;
        for (idx, s) in self.shards.iter().enumerate() {
            let inner = s.lock();
            if let Some((key, entry)) = inner.blobs.iter().min_by_key(|(_, e)| e.last_used) {
                if victim.as_ref().is_none_or(|(_, _, stamp)| entry.last_used < *stamp) {
                    victim = Some((idx, key.clone(), entry.last_used));
                }
            }
        }
        let Some((idx, key, _)) = victim else { return false };
        let freed = {
            let mut inner = self.shards[idx].lock();
            let freed = inner.remove_memory(&key);
            if freed > 0 {
                self.metrics.counter(metric::STORE_SHARD_EVICTIONS_MEMORY).inc();
            }
            freed
        };
        if freed > 0 {
            self.memory_used.fetch_sub(freed, Ordering::Relaxed);
        }
        // freed == 0 means a racing thread evicted the victim first and
        // already released its bytes; either way progress was made, so
        // the reservation loop retries
        true
    }

    /// Evicts the cache-wide least-recently-used disk blob (forgets the
    /// ledger entry, then deletes the file outside the lock). Returns
    /// `false` only when the ledger is empty.
    fn evict_one_disk_lru(&self) -> Result<bool, MvqError> {
        let Some(dir) = &self.dir else { return Ok(false) };
        let mut victim: Option<(usize, String, u64)> = None;
        for (idx, s) in self.shards.iter().enumerate() {
            let inner = s.lock();
            if let Some((name, entry)) = inner.disk.iter().min_by_key(|(_, e)| e.last_used) {
                if victim.as_ref().is_none_or(|(_, _, stamp)| entry.last_used < *stamp) {
                    victim = Some((idx, name.clone(), entry.last_used));
                }
            }
        }
        let Some((idx, name, _)) = victim else { return Ok(false) };
        let freed = {
            let mut inner = self.shards[idx].lock();
            let freed = inner.forget_disk(&name);
            if freed > 0 {
                self.metrics.counter(metric::STORE_SHARD_EVICTIONS_DISK).inc();
            }
            freed
        };
        if freed > 0 {
            self.disk_used.fetch_sub(freed, Ordering::Relaxed);
            ledger::delete_blob(dir, &name)?;
        }
        Ok(true)
    }

    /// Expels a corrupt blob everywhere it is held — memory, ledger,
    /// and disk (quarantined as `.corrupt` so the bytes survive for
    /// post-mortem inspection) — and builds the loud, typed error.
    fn reject_corrupt(&self, key: &CacheKey, name: &str, detail: &MvqError) -> MvqError {
        let (mem_freed, disk_freed) = {
            let mut inner = self.shard_for(name).lock();
            self.metrics.counter(metric::STORE_CACHE_CORRUPT_REJECTIONS).inc();
            (inner.remove_memory(key), inner.forget_disk(name))
        };
        if mem_freed > 0 {
            self.memory_used.fetch_sub(mem_freed, Ordering::Relaxed);
        }
        if disk_freed > 0 {
            self.disk_used.fetch_sub(disk_freed, Ordering::Relaxed);
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
        for (name, len) in report.blobs {
            let tick = self.tick();
            if !self.admit_disk(&name, len, tick)? {
                // larger than the whole disk budget: it can never be
                // served within budget, so it does not survive the scan
                ledger::delete_blob(dir, &name)?;
            }
        }
        Ok(())
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
