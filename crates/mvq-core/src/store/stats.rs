//! Cache traffic counters, occupancy gauges, and byte budgets.

/// Cache traffic counters plus occupancy gauges sampled at
/// [`super::ArtifactCache::stats`] time.
///
/// The counters are a **view over the cache's `mvq_obs::Registry`**
/// (its `store.*` metrics, each recorded exactly once per event); the
/// occupancy and byte gauges are read under the cache's lock, in the
/// same critical section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from memory or disk.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Artifacts inserted.
    pub insertions: u64,
    /// Blobs rejected because validation or decoding failed (corruption).
    pub corrupt_rejections: u64,
    /// Memory-resident blobs dropped to honor the memory byte budget.
    pub memory_evictions: u64,
    /// On-disk blobs deleted to honor the disk byte budget.
    pub disk_evictions: u64,
    /// Lookups of a known-failing key answered by the negative cache.
    pub negative_hits: u64,
    /// Restart-scan blobs whose mtime could not be read and were ordered
    /// as if written at scan time (newest — the conservative fallback)
    /// instead of stalest.
    pub mtime_fallbacks: u64,
    /// Blobs resident in memory when the snapshot was taken.
    pub memory_len: usize,
    /// Blobs on disk when the snapshot was taken (disk-backed caches only).
    pub disk_len: usize,
    /// Known-failing keys remembered when the snapshot was taken.
    pub negative_len: usize,
    /// Encoded bytes resident in memory when the snapshot was taken.
    pub memory_bytes: u64,
    /// Encoded bytes on disk when the snapshot was taken.
    pub disk_bytes: u64,
}

/// Byte budgets bounding an [`super::ArtifactCache`]'s memory and disk
/// footprints. `None` means unbounded (the pre-budget behavior).
///
/// A budget is a **hard cap on encoded blob bytes**: admission evicts
/// least-recently-used entries until the incoming blob fits and inserts
/// it, all under the cache's lock. The footprint therefore never exceeds
/// the budget — not even transiently, at any observable instant — and a blob
/// larger than the whole budget is simply refused (the caller keeps the
/// returned artifact; refusal is a cache phenomenon, never an error).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheBudget {
    /// Cap on encoded bytes held in memory (`None` = unbounded).
    pub memory_bytes: Option<u64>,
    /// Cap on encoded bytes persisted on disk (`None` = unbounded).
    pub disk_bytes: Option<u64>,
}

impl CacheBudget {
    /// No caps — the cache grows without bound, as before budgets existed.
    pub const UNBOUNDED: CacheBudget = CacheBudget { memory_bytes: None, disk_bytes: None };

    /// Caps the in-memory footprint at `bytes`.
    pub fn with_memory_bytes(mut self, bytes: u64) -> CacheBudget {
        self.memory_bytes = Some(bytes);
        self
    }

    /// Caps the on-disk footprint at `bytes`.
    pub fn with_disk_bytes(mut self, bytes: u64) -> CacheBudget {
        self.disk_bytes = Some(bytes);
        self
    }
}
