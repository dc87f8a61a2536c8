//! The pinned metric-name registry.
//!
//! Every metric the workspace records is declared here as a `const`
//! numeric ID plus one row in [`TABLE`] giving its dotted hierarchical
//! name and [`MetricKind`]. The IDs are **append-only and pinned in
//! `lint.toml`** (the tag-drift rule): renaming or renumbering an
//! existing metric fails the lint, adding a metric means appending a
//! new ID here *and* appending its pin in the same change. IDs are
//! dense (`0..METRIC_COUNT`) so the registry can index them without
//! hashing on the hot path.
//!
//! ## Name scheme
//!
//! `"<layer>.<object>.<measure>[_<unit>]"` — the layer is one of
//! `store` / `serve` / `net` / `stream`, the object names the component
//! (`cache`, `shard`, `queue`, `conn`, `window`, …), and latency
//! histograms carry their unit suffix (`_us`). Examples:
//! `serve.queue.wait_us`, `store.shard.evictions_memory`,
//! `net.conn.frames_rx`, `stream.window.bytes_peak`.

use crate::metrics::MetricKind;

/// `store.cache.hits` — blobs served from memory or disk (counter).
pub const STORE_CACHE_HITS: u16 = 0;
/// `store.cache.misses` — probes that found nothing (counter).
pub const STORE_CACHE_MISSES: u16 = 1;
/// `store.cache.insertions` — blobs admitted into memory (counter).
pub const STORE_CACHE_INSERTIONS: u16 = 2;
/// `store.cache.corrupt_rejections` — blobs expelled on checksum
/// failure (counter).
pub const STORE_CACHE_CORRUPT_REJECTIONS: u16 = 3;
/// `store.shard.evictions_memory` — LRU victims evicted from the
/// memory tier (counter).
pub const STORE_SHARD_EVICTIONS_MEMORY: u16 = 4;
/// `store.shard.evictions_disk` — LRU victims evicted from the disk
/// tier (counter).
pub const STORE_SHARD_EVICTIONS_DISK: u16 = 5;
/// `store.cache.negative_hits` — probes answered by the per-shard
/// known-failing-key cache (counter).
pub const STORE_CACHE_NEGATIVE_HITS: u16 = 6;
/// `store.cache.mtime_fallbacks` — restart-scan entries whose mtime
/// was untrustworthy (counter).
pub const STORE_CACHE_MTIME_FALLBACKS: u16 = 7;
/// `serve.queue.wait_us` — µs a job spent queued before a worker took
/// it (histogram). Hits answered from memory at submit never queue and
/// record nothing here.
pub const SERVE_QUEUE_WAIT_US: u16 = 8;
/// `serve.hit.latency_us` — submit→reply µs for jobs answered from the
/// cache (histogram).
pub const SERVE_HIT_LATENCY_US: u16 = 9;
/// `serve.job.run_us` — dequeue→reply µs for every job a worker ran
/// (histogram). Hits answered from memory at submit never reach a
/// worker and record nothing here.
pub const SERVE_JOB_RUN_US: u16 = 10;
/// `serve.jobs.submitted` — accepted submissions, riders included
/// (counter).
pub const SERVE_JOBS_SUBMITTED: u16 = 11;
/// `serve.jobs.completed` — jobs that ran to a result, hits answered
/// from memory at submit included (counter).
pub const SERVE_JOBS_COMPLETED: u16 = 12;
/// `serve.jobs.cancelled` — waiters dropped by explicit cancellation
/// or deadline expiry (counter).
pub const SERVE_JOBS_CANCELLED: u16 = 13;
/// `serve.jobs.deduped` — submissions that attached to an in-flight
/// job instead of queueing their own (counter).
pub const SERVE_JOBS_DEDUPED: u16 = 14;
/// `net.conn.accepted` — TCP connections accepted (counter).
pub const NET_CONN_ACCEPTED: u16 = 15;
/// `net.conn.frames_rx` — well-formed compression requests received
/// (counter).
pub const NET_CONN_FRAMES_RX: u16 = 16;
/// `net.conn.responses_ok` — successful responses written (counter).
pub const NET_CONN_RESPONSES_OK: u16 = 17;
/// `net.conn.responses_err` — error responses written (counter).
pub const NET_CONN_RESPONSES_ERR: u16 = 18;
/// `net.conn.cancelled_disconnect` — jobs cancelled because their
/// client disconnected (counter).
pub const NET_CONN_CANCELLED_DISCONNECT: u16 = 19;
/// `net.conn.cancelled_deadline` — jobs whose queue deadline expired
/// (counter).
pub const NET_CONN_CANCELLED_DEADLINE: u16 = 20;
/// `net.conn.protocol_errors` — malformed frames that closed a
/// connection (counter).
pub const NET_CONN_PROTOCOL_ERRORS: u16 = 21;
/// `net.conn.stats_requests` — observability snapshot requests served
/// (counter).
pub const NET_CONN_STATS_REQUESTS: u16 = 22;
/// `stream.window.bytes_peak` — high-water byte occupancy of the
/// streaming admission window (gauge).
pub const STREAM_WINDOW_BYTES_PEAK: u16 = 23;
/// `stream.window.layers_peak` — high-water layer occupancy of the
/// streaming admission window (gauge).
pub const STREAM_WINDOW_LAYERS_PEAK: u16 = 24;

/// Number of registered metrics; IDs are dense in `0..METRIC_COUNT`.
pub const METRIC_COUNT: usize = 25;

/// The full metric table: `(id, dotted name, kind)` per metric, in ID
/// order. [`crate::Registry::new`] builds its slots from this.
pub const TABLE: &[(u16, &str, MetricKind)] = &[
    (STORE_CACHE_HITS, "store.cache.hits", MetricKind::Counter),
    (STORE_CACHE_MISSES, "store.cache.misses", MetricKind::Counter),
    (STORE_CACHE_INSERTIONS, "store.cache.insertions", MetricKind::Counter),
    (STORE_CACHE_CORRUPT_REJECTIONS, "store.cache.corrupt_rejections", MetricKind::Counter),
    (STORE_SHARD_EVICTIONS_MEMORY, "store.shard.evictions_memory", MetricKind::Counter),
    (STORE_SHARD_EVICTIONS_DISK, "store.shard.evictions_disk", MetricKind::Counter),
    (STORE_CACHE_NEGATIVE_HITS, "store.cache.negative_hits", MetricKind::Counter),
    (STORE_CACHE_MTIME_FALLBACKS, "store.cache.mtime_fallbacks", MetricKind::Counter),
    (SERVE_QUEUE_WAIT_US, "serve.queue.wait_us", MetricKind::Histogram),
    (SERVE_HIT_LATENCY_US, "serve.hit.latency_us", MetricKind::Histogram),
    (SERVE_JOB_RUN_US, "serve.job.run_us", MetricKind::Histogram),
    (SERVE_JOBS_SUBMITTED, "serve.jobs.submitted", MetricKind::Counter),
    (SERVE_JOBS_COMPLETED, "serve.jobs.completed", MetricKind::Counter),
    (SERVE_JOBS_CANCELLED, "serve.jobs.cancelled", MetricKind::Counter),
    (SERVE_JOBS_DEDUPED, "serve.jobs.deduped", MetricKind::Counter),
    (NET_CONN_ACCEPTED, "net.conn.accepted", MetricKind::Counter),
    (NET_CONN_FRAMES_RX, "net.conn.frames_rx", MetricKind::Counter),
    (NET_CONN_RESPONSES_OK, "net.conn.responses_ok", MetricKind::Counter),
    (NET_CONN_RESPONSES_ERR, "net.conn.responses_err", MetricKind::Counter),
    (NET_CONN_CANCELLED_DISCONNECT, "net.conn.cancelled_disconnect", MetricKind::Counter),
    (NET_CONN_CANCELLED_DEADLINE, "net.conn.cancelled_deadline", MetricKind::Counter),
    (NET_CONN_PROTOCOL_ERRORS, "net.conn.protocol_errors", MetricKind::Counter),
    (NET_CONN_STATS_REQUESTS, "net.conn.stats_requests", MetricKind::Counter),
    (STREAM_WINDOW_BYTES_PEAK, "stream.window.bytes_peak", MetricKind::Gauge),
    (STREAM_WINDOW_LAYERS_PEAK, "stream.window.layers_peak", MetricKind::Gauge),
];

/// The dotted name of a metric ID, or `None` for an unknown ID (a
/// snapshot from a newer build).
pub fn metric_name(id: u16) -> Option<&'static str> {
    TABLE.get(id as usize).map(|&(_, name, _)| name)
}

/// The kind of a metric ID, or `None` for an unknown ID.
pub fn metric_kind(id: u16) -> Option<MetricKind> {
    TABLE.get(id as usize).map(|&(_, _, kind)| kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_dense_and_in_id_order() {
        assert_eq!(TABLE.len(), METRIC_COUNT);
        for (i, &(id, name, _)) in TABLE.iter().enumerate() {
            assert_eq!(id as usize, i, "table row {i} carries id {id}");
            assert!(name.contains('.'), "{name} is not hierarchical");
            let layer = name.split('.').next().unwrap();
            assert!(
                ["store", "serve", "net", "stream"].contains(&layer),
                "{name} has unknown layer {layer}"
            );
        }
    }

    #[test]
    fn names_are_unique() {
        for (i, &(_, a, _)) in TABLE.iter().enumerate() {
            for &(_, b, _) in &TABLE[i + 1..] {
                assert_ne!(a, b, "duplicate metric name");
            }
        }
    }

    #[test]
    fn lookups_agree_with_the_table() {
        assert_eq!(metric_name(SERVE_QUEUE_WAIT_US), Some("serve.queue.wait_us"));
        assert_eq!(metric_kind(SERVE_QUEUE_WAIT_US), Some(MetricKind::Histogram));
        assert_eq!(metric_name(METRIC_COUNT as u16), None);
        assert_eq!(metric_kind(u16::MAX), None);
    }
}
