//! # mvq-obs — unified observability for the MVQ serving stack
//!
//! A dependency-free metrics + tracing layer shared by every tier of
//! the stack (store → serve → net → stream), re-exported as
//! `mvq::obs`. One [`Registry`] is created per [`ArtifactCache`] and
//! flows upward: the `CompressionService` adopts its cache's registry,
//! the `NetServer` adopts its service's, so a serving stack has exactly
//! one registry and `paper stats` (or `NetClient::stats`) reads the
//! whole pipeline from one snapshot.
//!
//! [`ArtifactCache`]: https://docs.rs/mvq-core
//!
//! ## The pinned name scheme
//!
//! Metrics are identified by dense numeric IDs declared in [`names`]
//! and rendered under dotted hierarchical names:
//! `"<layer>.<object>.<measure>[_<unit>]"`, e.g. `serve.queue.wait_us`,
//! `store.shard.evictions_memory`, `net.conn.frames_rx`,
//! `stream.window.bytes_peak`. The ID registry is **append-only and
//! pinned in `lint.toml`** — renaming or renumbering an existing
//! metric fails `mvq-lint`, exactly like a serialization-tag change.
//!
//! ## How to add a metric
//!
//! 1. Append a `const` ID (value = current [`names::METRIC_COUNT`]) and
//!    a [`names::TABLE`] row in `names.rs`, bump `METRIC_COUNT`.
//! 2. Append the matching pin under `[pins."crates/mvq-obs/src/names.rs"]`
//!    in `lint.toml` (the lint fails until you do).
//! 3. Record at the call site: `registry.counter(ID).inc()`,
//!    `registry.gauge(ID).record_peak(v)`, or
//!    `registry.histogram(ID).record(us)`.
//!
//! ## Overhead contract
//!
//! Recording must be cheap enough for the warm hit path (whose p50 is
//! a few hundred µs over loopback):
//!
//! * counters/gauges: one relaxed atomic RMW — no locks ever;
//! * histograms: four relaxed atomic RMWs, fixed 252-bucket log-scale
//!   array, **no allocation**; p50/p90/p99/max extraction walks the
//!   buckets without allocating (quantiles within ~12.5% of exact,
//!   max is exact);
//! * trace stamps: one monotonic clock read + one atomic CAS per
//!   stage, ~8 stages per job; a short mutex hold + one allocation per
//!   *completed* job when its snapshot enters the [`TraceRing`].
//!
//! The end-to-end cost is measured by the repo benchmark (`perfbench/`):
//! its `trace.overhead_us` metric times the instrumentation itself, and
//! `hit_p50_us` the instrumented warm hit over loopback, compared in
//! alternating parent/change pairs rather than against a pinned number.
//!
//! ## Job-lifecycle traces
//!
//! A [`Trace`] records monotonic stage timestamps
//! (submitted → queued → dequeued → cache-probe → kernel → encode →
//! cached → replied) as µs offsets from submission. Stages a job never
//! reaches are *absent*, not zero — a deadline-expired job's trace
//! jumps from `queued` straight to `replied` (the cancellation
//! notice), with every execution stage missing. Dedup riders get their
//! own trace, marked
//! [`Trace::deduped`]. Completed traces land in the registry's
//! [`TraceRing`] (last [`Registry::TRACE_RING_CAP`] kept) and are
//! queryable locally or over the wire.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

mod metrics;
pub mod names;
mod trace;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSummary, MetricKind, MetricSnapshot, MetricValue, Registry,
    RegistrySnapshot, HISTOGRAM_BUCKETS,
};
pub use trace::{Stage, Trace, TraceOutcome, TraceRing, TraceSnapshot, STAGE_COUNT};
