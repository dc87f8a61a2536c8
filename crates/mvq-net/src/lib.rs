//! # mvq-net — the compression service on the wire
//!
//! A hand-rolled, length-prefixed binary protocol over
//! `std::net::TcpListener` putting [`mvq_serve::CompressionService`] on
//! the network: no async runtime, no serialization dependency — a
//! reader/writer thread pair per connection, std-only concurrency
//! (bounded `sync_channel`s, atomics, condvars down in the service),
//! and the store codec's own framing for every message.
//!
//! * [`NetServer`] — accept loop + per-connection reader/writer pair.
//!   The reader decodes [`WireRequest`] frames and rides
//!   [`mvq_serve::CompressionService::submit_one`] tickets; the writer
//!   resolves them **in submission order** and streams responses back.
//! * Deadlines — a request's relative `deadline_ms` becomes an absolute
//!   queue deadline at receipt; a job still queued past it is dropped at
//!   dequeue (never occupying a worker) and reported as
//!   [`WireErrorKind::CancelledDeadline`].
//! * Cancellation — each request carries a
//!   [`mvq_serve::CancelToken`]; a client disconnect cancels every
//!   outstanding token, so the dead client's queued jobs are discarded
//!   at dequeue and its workers freed.
//! * Graceful drain — [`NetServer::shutdown`] (and [`Drop`]) stops
//!   accepting, half-closes read sides, and flushes every accepted
//!   in-flight job's response before closing.
//! * Zero-copy serving — a cache hit's response body is the cache's own
//!   validated `Arc<[u8]>` blob written straight to the socket; wire
//!   artifacts and cache blobs are the **same bytes** under the same
//!   codec, so a client can persist a response blob and a cache can
//!   serve it back unchanged.
//!
//! ## Wire format
//!
//! Every message, both directions, is:
//!
//! ```text
//! [ u32 le length | MVQA frame of exactly `length` bytes ]
//! ```
//!
//! The frame is the store codec's container
//! ([`mvq_core::store::frame_blob`]):
//!
//! ```text
//! offset  size  field
//! 0       4     magic "MVQA"
//! 4       2     u16 le FORMAT_VERSION (currently 3; future versions
//!               are refused, never guessed at)
//! 6       1     BlobKind tag: 4 = WireRequest, 5 = WireResponse,
//!               0 = Artifact (response bodies), 7 = StatsRequest,
//!               8 = StatsResponse
//! 7       8     u64 le payload length
//! 15      8     u64 le payload checksum, by version: XXH64 (seed 0)
//!               for v3, FNV-1a for v1 and v2
//! 23      …     payload
//! ```
//!
//! Payloads use the store codec's field primitives: every field is
//! written and read by its
//! [`Writer`](mvq_core::store::Writer)/[`Reader`](mvq_core::store::Reader)
//! pair, the request's weight is the same tensor field a cache blob
//! carries, and its grouping and kernel tags are the pipeline's own.
//!
//! A conversation is:
//!
//! 1. client → server: a `WireRequest` frame (id, deadline, priority,
//!    cache mode, optional seed, name, algorithm, full pipeline spec,
//!    weight tensor as dims + f32 bit patterns);
//! 2. server → client: a `WireResponse` frame echoing the id — `Ok`
//!    (from-cache/deduped flags + name), followed by one `Artifact`
//!    frame as the next message; or `Err` (kind tag + message), which
//!    stands alone.
//!
//! A client may also send a [`WireStatsRequest`] frame (kind tag 7) at
//! any point; the server answers with one [`WireStatsReply`] frame
//! (kind tag 8) carrying a snapshot of the serving stack's
//! `mvq_obs::Registry` — every counter, gauge, and latency histogram
//! across store/serve/net/stream — plus the most recently completed
//! job-lifecycle traces. Stats replies ride the same per-connection
//! pipeline as job responses, so ordering holds across both kinds.
//!
//! Responses come back in request order per connection. Protocol
//! garbage — bad magic, a truncated frame, an oversize length prefix, a
//! future format version — closes the connection (the framing is
//! byte-positional; resynchronizing would be a guess), but never the
//! server: other connections and future connects are untouched.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

mod client;
mod server;
mod wire;

pub use client::{NetClient, NetError, NetOutcome, NetRequest};
pub use server::{NetServer, NetStats};
pub use wire::{
    WireErrorKind, WireMetric, WireMetricValue, WireRequest, WireResponse, WireStatsReply,
    WireStatsRequest, DEFAULT_MAX_MESSAGE_LEN,
};
