//! Wire message types and the length-prefixed message I/O.
//!
//! Every message is `[u32 le length][MVQA frame]`; the frame reuses the
//! store codec's header (magic, format version, kind tag, payload
//! length, and the payload checksum the version names: XXH64 for the
//! current v3, FNV-1a for v1 and v2) under the append-only wire kinds
//! ([`BlobKind::WireRequest`], [`BlobKind::WireResponse`], the stats
//! pair), and the payload fields go through the store codec's own
//! [`Writer`]/[`Reader`] pair and [`decode_blob`]. Artifact
//! payloads are **not** re-encoded for the wire: a response carries the
//! cache's own `BlobKind::Artifact` frame as the next message, byte for
//! byte. See the crate docs for the full layout.

use std::io::{IoSlice, Read, Write};

use mvq_core::pipeline::{
    grouping_from_tag, grouping_tag, kernel_from_tag, kernel_tag, PipelineSpec,
};
use mvq_core::store::{decode_blob, BlobKind, Reader, Writer, HEADER_LEN};
use mvq_core::MvqError;
use mvq_obs::{
    HistogramSummary, MetricKind, MetricValue, RegistrySnapshot, Stage, TraceOutcome, TraceSnapshot,
};
use mvq_serve::{CacheMode, CancelKind, JobError, Priority};
use mvq_tensor::Tensor;

/// Cap on one message's frame length (length prefix excluded), which
/// server and client both read under: protects both sides from a
/// hostile or corrupt length prefix committing them to a multi-GiB read.
pub const DEFAULT_MAX_MESSAGE_LEN: usize = 64 << 20;

/// Writes one length-prefixed message.
pub(crate) fn write_message(w: &mut impl Write, frame: &[u8]) -> std::io::Result<()> {
    write_messages(w, &[frame])
}

/// Writes length-prefixed messages back to back — the same bytes as one
/// [`write_message`] per frame — through `write_vectored`, so a socket
/// with `TCP_NODELAY` sends one segment instead of two per message when
/// the kernel takes the whole batch. Short writes resume where the
/// previous call stopped.
pub(crate) fn write_messages(w: &mut impl Write, frames: &[&[u8]]) -> std::io::Result<()> {
    let prefixes = frames
        .iter()
        .map(|frame| {
            u32::try_from(frame.len()).map(u32::to_le_bytes).map_err(|_| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("frame of {} bytes exceeds the u32 length prefix", frame.len()),
                )
            })
        })
        .collect::<std::io::Result<Vec<[u8; 4]>>>()?;
    let mut slices: Vec<IoSlice<'_>> = prefixes
        .iter()
        .zip(frames)
        .flat_map(|(prefix, frame)| [IoSlice::new(prefix), IoSlice::new(frame)])
        .collect();
    let mut bufs = &mut slices[..];
    // drops leading empty slices, so an empty `bufs` means all written
    IoSlice::advance_slices(&mut bufs, 0);
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "the writer accepted no bytes of a message",
                ));
            }
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads one length-prefixed message, rejecting frames shorter than the
/// MVQA header or longer than `max_len` **before** allocating.
///
/// EOF at the length prefix is a clean disconnect and surfaces as
/// [`std::io::ErrorKind::UnexpectedEof`]; EOF *inside* a message is a
/// truncated frame and surfaces as
/// [`std::io::ErrorKind::InvalidData`], so callers can tell a peer that
/// hung up between messages from one that died mid-frame.
pub(crate) fn read_message(r: &mut impl Read, max_len: usize) -> std::io::Result<Vec<u8>> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len < HEADER_LEN || len > max_len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("message length {len} outside [{HEADER_LEN}, {max_len}]"),
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("message truncated: length prefix promised {len} bytes"),
            )
        } else {
            e
        }
    })?;
    Ok(buf)
}

// ---------------------------------------------------------------------
// wire-only tag maps (append-only; pinned in lint.toml like the store
// tags). Grouping and kernel tags are the pipeline's own.
// ---------------------------------------------------------------------

fn priority_tag(p: Priority) -> u8 {
    match p {
        Priority::Low => 0,
        Priority::Normal => 1,
        Priority::High => 2,
    }
}

fn priority_from_tag(tag: u8) -> Result<Priority, MvqError> {
    match tag {
        0 => Ok(Priority::Low),
        1 => Ok(Priority::Normal),
        2 => Ok(Priority::High),
        other => Err(MvqError::Codec(format!("unknown wire priority tag {other}"))),
    }
}

fn cache_mode_tag(m: CacheMode) -> u8 {
    match m {
        CacheMode::ReadWrite => 0,
        CacheMode::ReadOnly => 1,
        CacheMode::Bypass => 2,
    }
}

fn cache_mode_from_tag(tag: u8) -> Result<CacheMode, MvqError> {
    match tag {
        0 => Ok(CacheMode::ReadWrite),
        1 => Ok(CacheMode::ReadOnly),
        2 => Ok(CacheMode::Bypass),
        other => Err(MvqError::Codec(format!("unknown wire cache-mode tag {other}"))),
    }
}

// ---------------------------------------------------------------------
// WireRequest
// ---------------------------------------------------------------------

/// One compression request as it travels over the wire. Decoded by the
/// server's per-connection reader and rebuilt into a validated
/// [`mvq_serve::CompressionRequest`].
#[derive(Debug, Clone)]
pub struct WireRequest {
    /// Client-chosen correlation id, echoed on the response.
    pub id: u64,
    /// Job label (not part of the cache identity).
    pub name: String,
    /// Registry algorithm name (aliases resolve server-side).
    pub algo: String,
    /// Pipeline hyperparameters.
    pub spec: PipelineSpec,
    /// Pinned RNG seed; `None` lets the service derive a content seed.
    pub seed: Option<u64>,
    /// Scheduling priority.
    pub priority: Priority,
    /// Cache interaction policy.
    pub cache_mode: CacheMode,
    /// Queue deadline in milliseconds, relative to server receipt;
    /// `None` means no deadline. Relative by design: the two hosts'
    /// clocks never need to agree.
    pub deadline_ms: Option<u64>,
    /// The weight tensor to compress.
    pub weight: Tensor,
}

impl WireRequest {
    /// Encodes into a framed `BlobKind::WireRequest` message body.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::Codec`] when a length field overflows (a
    /// > 4 GiB name, a rank-256 tensor).
    pub fn encode(&self) -> Result<Vec<u8>, MvqError> {
        let mut w = Writer::new();
        w.u64(self.id);
        w.opt(self.deadline_ms, Writer::u64);
        w.u8(priority_tag(self.priority));
        w.u8(cache_mode_tag(self.cache_mode));
        w.opt(self.seed, Writer::u64);
        w.str(&self.name)?;
        w.str(&self.algo)?;
        w.usize(self.spec.k);
        w.usize(self.spec.d);
        w.usize(self.spec.keep_n);
        w.usize(self.spec.m);
        w.opt(self.spec.prune_d, Writer::usize);
        w.u8(grouping_tag(self.spec.grouping));
        w.opt(self.spec.codebook_bits.map(u64::from), Writer::u64);
        w.u32(self.spec.scalar_bits);
        w.usize(self.spec.swap_trials);
        w.u8(kernel_tag(self.spec.kernel));
        w.tensor(&self.weight)?;
        Ok(w.frame(BlobKind::WireRequest))
    }

    /// Decodes a framed `BlobKind::WireRequest` message body.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::Codec`] for bad framing (magic, version,
    /// kind, checksum) or a malformed payload.
    pub fn decode(bytes: &[u8]) -> Result<WireRequest, MvqError> {
        decode_blob(BlobKind::WireRequest, bytes, |r| {
            let id = r.u64()?;
            let deadline_ms = r.opt(Reader::u64)?;
            let priority = priority_from_tag(r.u8()?)?;
            let cache_mode = cache_mode_from_tag(r.u8()?)?;
            let seed = r.opt(Reader::u64)?;
            let name = r.str()?;
            let algo = r.str()?;
            // struct fields evaluate in source order: keep it the wire order
            let spec = PipelineSpec {
                k: r.usize()?,
                d: r.usize()?,
                keep_n: r.usize()?,
                m: r.usize()?,
                prune_d: r.opt(Reader::usize)?,
                grouping: grouping_from_tag(r.u8()?)?,
                codebook_bits: r
                    .opt(Reader::u64)?
                    .map(u32::try_from)
                    .transpose()
                    .map_err(|e| MvqError::Codec(format!("codebook_bits: {e}")))?,
                scalar_bits: r.u32()?,
                swap_trials: r.usize()?,
                kernel: kernel_from_tag(r.u8()?)?,
            };
            let weight = r.tensor()?;
            Ok(WireRequest {
                id,
                name,
                algo,
                spec,
                seed,
                priority,
                cache_mode,
                deadline_ms,
                weight,
            })
        })
    }
}

// ---------------------------------------------------------------------
// WireResponse
// ---------------------------------------------------------------------

/// Why a remote job failed, as carried in an error response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireErrorKind {
    /// The compression itself failed.
    Compression,
    /// The server's artifact cache failed the job.
    Cache,
    /// The compression panicked (contained server-side).
    Panicked,
    /// The service shut down before the job completed.
    Disconnected,
    /// The job's cancel token fired while it was queued.
    CancelledExplicit,
    /// The job's deadline passed while it was queued.
    CancelledDeadline,
    /// The request failed validation before anything queued (unknown
    /// algorithm, spec that does not compile, empty weight, …).
    Rejected,
}

fn error_kind_tag(k: WireErrorKind) -> u8 {
    match k {
        WireErrorKind::Compression => 0,
        WireErrorKind::Cache => 1,
        WireErrorKind::Panicked => 2,
        WireErrorKind::Disconnected => 3,
        WireErrorKind::CancelledExplicit => 4,
        WireErrorKind::CancelledDeadline => 5,
        WireErrorKind::Rejected => 6,
    }
}

fn error_kind_from_tag(tag: u8) -> Result<WireErrorKind, MvqError> {
    match tag {
        0 => Ok(WireErrorKind::Compression),
        1 => Ok(WireErrorKind::Cache),
        2 => Ok(WireErrorKind::Panicked),
        3 => Ok(WireErrorKind::Disconnected),
        4 => Ok(WireErrorKind::CancelledExplicit),
        5 => Ok(WireErrorKind::CancelledDeadline),
        6 => Ok(WireErrorKind::Rejected),
        other => Err(MvqError::Codec(format!("unknown wire error kind tag {other}"))),
    }
}

impl WireErrorKind {
    /// Maps a service-side [`JobError`] to its wire kind.
    pub fn from_job_error(e: &JobError) -> WireErrorKind {
        match e {
            JobError::Compression { .. } => WireErrorKind::Compression,
            JobError::Cache { .. } => WireErrorKind::Cache,
            JobError::Panicked { .. } => WireErrorKind::Panicked,
            JobError::Disconnected { .. } => WireErrorKind::Disconnected,
            JobError::Cancelled { kind: CancelKind::Explicit, .. } => {
                WireErrorKind::CancelledExplicit
            }
            JobError::Cancelled { kind: CancelKind::DeadlineExpired, .. } => {
                WireErrorKind::CancelledDeadline
            }
        }
    }
}

const STATUS_OK: u8 = 0;
const STATUS_ERR: u8 = 1;

/// One response header as it travels over the wire. An `Ok` header is
/// followed by one more message carrying the artifact's own
/// `BlobKind::Artifact` frame (written zero-copy from the cache's
/// shared bytes); an `Err` header stands alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireResponse {
    /// The job succeeded; the artifact frame follows as the next message.
    Ok {
        /// Echo of the request id.
        id: u64,
        /// The job's label, echoed back.
        name: String,
        /// True when the artifact came from the server's cache.
        from_cache: bool,
        /// True when the job shared an identical in-flight compression.
        deduped: bool,
    },
    /// The job failed; no artifact follows.
    Err {
        /// Echo of the request id.
        id: u64,
        /// The failure class.
        kind: WireErrorKind,
        /// Human-readable detail.
        message: String,
    },
}

impl WireResponse {
    /// Encodes into a framed `BlobKind::WireResponse` message body.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::Codec`] when a string field overflows its
    /// length prefix.
    pub fn encode(&self) -> Result<Vec<u8>, MvqError> {
        let mut w = Writer::new();
        match self {
            WireResponse::Ok { id, name, from_cache, deduped } => {
                w.u64(*id);
                w.u8(STATUS_OK);
                w.u8(u8::from(*from_cache));
                w.u8(u8::from(*deduped));
                w.str(name)?;
            }
            WireResponse::Err { id, kind, message } => {
                w.u64(*id);
                w.u8(STATUS_ERR);
                w.u8(error_kind_tag(*kind));
                w.str(message)?;
            }
        }
        Ok(w.frame(BlobKind::WireResponse))
    }

    /// Decodes a framed `BlobKind::WireResponse` message body.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::Codec`] for bad framing or a malformed
    /// payload.
    pub fn decode(bytes: &[u8]) -> Result<WireResponse, MvqError> {
        decode_blob(BlobKind::WireResponse, bytes, |r| {
            let id = r.u64()?;
            match r.u8()? {
                STATUS_OK => {
                    let from_cache = r.u8()? != 0;
                    let deduped = r.u8()? != 0;
                    let name = r.str()?;
                    Ok(WireResponse::Ok { id, name, from_cache, deduped })
                }
                STATUS_ERR => {
                    let kind = error_kind_from_tag(r.u8()?)?;
                    let message = r.str()?;
                    Ok(WireResponse::Err { id, kind, message })
                }
                other => Err(MvqError::Codec(format!("unknown wire status tag {other}"))),
            }
        })
    }
}

// ---------------------------------------------------------------------
// live stats: WireStatsRequest / WireStatsReply
// ---------------------------------------------------------------------

/// A live-stats probe: asks the server for a snapshot of its metrics
/// registry and up to `max_traces` recently completed job traces. The
/// server answers from the registry without touching the compression
/// queue, so a stats probe is cheap even under full load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireStatsRequest {
    /// Client-chosen correlation id, echoed on the reply.
    pub id: u64,
    /// Cap on the completed traces returned (newest first).
    pub max_traces: u32,
}

impl WireStatsRequest {
    /// Encodes into a framed `BlobKind::StatsRequest` message body.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.id);
        w.u32(self.max_traces);
        w.frame(BlobKind::StatsRequest)
    }

    /// Decodes a framed `BlobKind::StatsRequest` message body.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::Codec`] for bad framing or a malformed
    /// payload.
    pub fn decode(bytes: &[u8]) -> Result<WireStatsRequest, MvqError> {
        decode_blob(BlobKind::StatsRequest, bytes, |r| {
            Ok(WireStatsRequest { id: r.u64()?, max_traces: r.u32()? })
        })
    }
}

/// One metric as it travels in a [`WireStatsReply`]. The name rides as
/// a string (not a pinned-ID lookup) so an older client renders a newer
/// server's metrics without knowing their IDs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireMetric {
    /// The metric's pinned registry ID.
    pub id: u16,
    /// The metric's dotted name (`"serve.queue.wait_us"` style).
    pub name: String,
    /// The captured value.
    pub value: WireMetricValue,
}

/// A [`WireMetric`]'s captured value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireMetricValue {
    /// A counter's current count.
    Counter(u64),
    /// A gauge's current level.
    Gauge(u64),
    /// A histogram's summary.
    Histogram(HistogramSummary),
}

/// A live-stats reply: every registry metric plus the most recently
/// completed job traces (newest first), as of the instant the server's
/// reader handled the probe.
#[derive(Debug, Clone, PartialEq)]
pub struct WireStatsReply {
    /// Echo of the request id.
    pub id: u64,
    /// All metrics, in registry (ID) order.
    pub metrics: Vec<WireMetric>,
    /// Recently completed traces, newest first, capped at the request's
    /// `max_traces`.
    pub traces: Vec<TraceSnapshot>,
}

impl WireStatsReply {
    /// Builds a reply from a registry snapshot and a trace-ring read.
    pub fn from_registry(
        id: u64,
        snapshot: &RegistrySnapshot,
        traces: Vec<TraceSnapshot>,
    ) -> WireStatsReply {
        let metrics = snapshot
            .metrics
            .iter()
            .map(|m| WireMetric {
                id: m.id,
                name: m.name.to_string(),
                value: match m.value {
                    MetricValue::Counter(v) => WireMetricValue::Counter(v),
                    MetricValue::Gauge(v) => WireMetricValue::Gauge(v),
                    MetricValue::Histogram(h) => WireMetricValue::Histogram(h),
                },
            })
            .collect();
        WireStatsReply { id, metrics, traces }
    }

    /// Encodes into a framed `BlobKind::StatsResponse` message body.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::Codec`] when a length field overflows.
    pub fn encode(&self) -> Result<Vec<u8>, MvqError> {
        let mut w = Writer::new();
        w.u64(self.id);
        let n = u32::try_from(self.metrics.len())
            .map_err(|_| MvqError::Codec("metric count exceeds the u32 field".into()))?;
        w.u32(n);
        for m in &self.metrics {
            w.u32(u32::from(m.id));
            w.str(&m.name)?;
            match m.value {
                WireMetricValue::Counter(v) => {
                    w.u8(MetricKind::Counter.tag());
                    w.u64(v);
                }
                WireMetricValue::Gauge(v) => {
                    w.u8(MetricKind::Gauge.tag());
                    w.u64(v);
                }
                WireMetricValue::Histogram(h) => {
                    w.u8(MetricKind::Histogram.tag());
                    w.u64(h.count);
                    w.u64(h.sum);
                    w.u64(h.max);
                    w.u64(h.p50);
                    w.u64(h.p90);
                    w.u64(h.p99);
                }
            }
        }
        let n = u32::try_from(self.traces.len())
            .map_err(|_| MvqError::Codec("trace count exceeds the u32 field".into()))?;
        w.u32(n);
        for t in &self.traces {
            w.str(&t.name)?;
            w.u8(u8::from(t.deduped));
            w.u8(t.outcome.tag());
            let n = u32::try_from(t.stages.len())
                .map_err(|_| MvqError::Codec("stage count exceeds the u32 field".into()))?;
            w.u32(n);
            for &(stage, us) in &t.stages {
                w.u8(stage.tag());
                w.u64(us);
            }
        }
        Ok(w.frame(BlobKind::StatsResponse))
    }

    /// Decodes a framed `BlobKind::StatsResponse` message body.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::Codec`] for bad framing, a malformed
    /// payload, or an unknown metric-kind / stage / outcome tag (tags
    /// are append-only; an unknown tag means a newer peer).
    pub fn decode(bytes: &[u8]) -> Result<WireStatsReply, MvqError> {
        decode_blob(BlobKind::StatsResponse, bytes, |r| {
            let id = r.u64()?;
            let n_metrics = r.u32()? as usize;
            let mut metrics = Vec::new();
            for _ in 0..n_metrics {
                let raw_id = r.u32()?;
                let mid = u16::try_from(raw_id)
                    .map_err(|_| MvqError::Codec(format!("metric id {raw_id} overflows u16")))?;
                let name = r.str()?;
                let kind_tag = r.u8()?;
                let value = match MetricKind::from_tag(kind_tag) {
                    Some(MetricKind::Counter) => WireMetricValue::Counter(r.u64()?),
                    Some(MetricKind::Gauge) => WireMetricValue::Gauge(r.u64()?),
                    Some(MetricKind::Histogram) => WireMetricValue::Histogram(HistogramSummary {
                        count: r.u64()?,
                        sum: r.u64()?,
                        max: r.u64()?,
                        p50: r.u64()?,
                        p90: r.u64()?,
                        p99: r.u64()?,
                    }),
                    None => {
                        return Err(MvqError::Codec(format!("unknown metric kind tag {kind_tag}")))
                    }
                };
                metrics.push(WireMetric { id: mid, name, value });
            }
            let n_traces = r.u32()? as usize;
            let mut traces = Vec::new();
            for _ in 0..n_traces {
                let name = r.str()?;
                let deduped = r.u8()? != 0;
                let outcome_tag = r.u8()?;
                let outcome = TraceOutcome::from_tag(outcome_tag).ok_or_else(|| {
                    MvqError::Codec(format!("unknown trace outcome tag {outcome_tag}"))
                })?;
                let n_stages = r.u32()? as usize;
                let mut stages = Vec::with_capacity(n_stages.min(64));
                for _ in 0..n_stages {
                    let stage_tag = r.u8()?;
                    let stage = Stage::from_tag(stage_tag).ok_or_else(|| {
                        MvqError::Codec(format!("unknown trace stage tag {stage_tag}"))
                    })?;
                    stages.push((stage, r.u64()?));
                }
                traces.push(TraceSnapshot { name, deduped, outcome, stages });
            }
            Ok(WireStatsReply { id, metrics, traces })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvq_core::store::{frame_blob, unframe_blob};
    use mvq_core::KernelStrategy;

    fn request() -> WireRequest {
        WireRequest {
            id: 42,
            name: "conv1".into(),
            algo: "mvq".into(),
            spec: PipelineSpec {
                k: 8,
                prune_d: None,
                codebook_bits: Some(6),
                kernel: KernelStrategy::Blocked,
                ..PipelineSpec::default()
            },
            seed: Some(7),
            priority: Priority::High,
            cache_mode: CacheMode::ReadOnly,
            deadline_ms: Some(250),
            weight: Tensor::from_vec(vec![4, 4], (0..16).map(|i| i as f32 * 0.5).collect())
                .unwrap(),
        }
    }

    #[test]
    fn request_round_trips_bit_identically() {
        let req = request();
        let back = WireRequest::decode(&req.encode().unwrap()).unwrap();
        assert_eq!(back.id, req.id);
        assert_eq!(back.name, req.name);
        assert_eq!(back.algo, req.algo);
        assert_eq!(back.spec, req.spec);
        assert_eq!(back.seed, req.seed);
        assert_eq!(back.priority, req.priority);
        assert_eq!(back.cache_mode, req.cache_mode);
        assert_eq!(back.deadline_ms, req.deadline_ms);
        assert_eq!(back.weight.dims(), req.weight.dims());
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.weight), bits(&req.weight));
    }

    #[test]
    fn retired_kernel_tags_are_codec_errors() {
        let req = request();
        let mut payload =
            unframe_blob(BlobKind::WireRequest, &req.encode().unwrap()).unwrap().to_vec();
        // the kernel tag sits right before the rank byte, dims and data
        let n = req.weight.numel();
        let at = payload.len() - (1 + 1 + 8 * req.weight.rank() + 4 * n);
        assert_eq!(payload[at], kernel_tag(KernelStrategy::Blocked));
        for retired in [2u8, 3] {
            payload[at] = retired;
            // re-framed, so the checksum is valid and only the tag is wrong
            let frame = frame_blob(BlobKind::WireRequest, payload.clone());
            let err = WireRequest::decode(&frame).unwrap_err();
            assert!(
                matches!(&err, MvqError::Codec(msg) if msg.contains(&format!("kernel tag {retired}"))),
                "{err:?}"
            );
        }
    }

    #[test]
    fn responses_round_trip() {
        let ok = WireResponse::Ok { id: 1, name: "a".into(), from_cache: true, deduped: false };
        assert_eq!(WireResponse::decode(&ok.encode().unwrap()).unwrap(), ok);
        let err = WireResponse::Err {
            id: 2,
            kind: WireErrorKind::CancelledDeadline,
            message: "deadline expired while queued".into(),
        };
        assert_eq!(WireResponse::decode(&err.encode().unwrap()).unwrap(), err);
    }

    #[test]
    fn frames_reject_cross_kind_and_corruption() {
        let req = request().encode().unwrap();
        assert!(WireResponse::decode(&req).is_err(), "request decoded as a response");
        let mut corrupt = req.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        assert!(WireRequest::decode(&corrupt).is_err(), "bad checksum accepted");
        assert!(WireRequest::decode(&req[..10]).is_err(), "truncation accepted");
    }

    #[test]
    fn stats_round_trip() {
        let req = WireStatsRequest { id: 9, max_traces: 16 };
        assert_eq!(WireStatsRequest::decode(&req.encode()).unwrap(), req);
        let reply = WireStatsReply {
            id: 9,
            metrics: vec![
                WireMetric {
                    id: 0,
                    name: "store.cache.hits".into(),
                    value: WireMetricValue::Counter(41),
                },
                WireMetric {
                    id: 23,
                    name: "stream.window.bytes_peak".into(),
                    value: WireMetricValue::Gauge(1 << 20),
                },
                WireMetric {
                    id: 8,
                    name: "serve.queue.wait_us".into(),
                    value: WireMetricValue::Histogram(HistogramSummary {
                        count: 100,
                        sum: 5000,
                        max: 120,
                        p50: 40,
                        p90: 80,
                        p99: 110,
                    }),
                },
            ],
            traces: vec![TraceSnapshot {
                name: "conv1".into(),
                deduped: true,
                outcome: TraceOutcome::Ok,
                stages: vec![(Stage::Submitted, 0), (Stage::Queued, 3), (Stage::Replied, 250)],
            }],
        };
        let frame = reply.encode().unwrap();
        assert_eq!(WireStatsReply::decode(&frame).unwrap(), reply);
        // cross-kind confusion is refused, like every other frame pair
        assert!(WireStatsRequest::decode(&frame).is_err());
        assert!(WireResponse::decode(&frame).is_err());
    }

    /// Accepts 1, 2, 3, 1, 2, 3, … bytes per call, spread across the
    /// vectored slices, so every resume point inside a prefix, a frame
    /// and a slice boundary gets exercised.
    struct Trickle {
        out: Vec<u8>,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let mut budget = 1 + (self.calls - 1) % 3;
            let mut n = 0;
            for buf in bufs {
                let take = budget.min(buf.len());
                self.out.extend_from_slice(&buf[..take]);
                (budget, n) = (budget - take, n + take);
            }
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vectored_messages_match_the_two_write_layout_under_short_writes() {
        let header = WireResponse::Ok { id: 3, name: "c".into(), from_cache: true, deduped: false }
            .encode()
            .unwrap();
        let body = request().encode().unwrap();
        let frames: [&[u8]; 3] = [&header, &body, &[]];
        // the layout of a prefix write_all then a frame write_all, per frame
        let mut expected = Vec::new();
        for frame in frames {
            expected.write_all(&(frame.len() as u32).to_le_bytes()).unwrap();
            expected.write_all(frame).unwrap();
        }
        let mut trickle = Trickle { out: Vec::new(), calls: 0 };
        write_messages(&mut trickle, &frames).unwrap();
        assert_eq!(trickle.out, expected);
        assert!(trickle.calls > 3, "the writer never forced a resume");
        let mut whole = Vec::new();
        write_messages(&mut whole, &frames).unwrap();
        assert_eq!(whole, expected);
        let mut r = &whole[..];
        assert_eq!(read_message(&mut r, DEFAULT_MAX_MESSAGE_LEN).unwrap(), header);
        assert_eq!(read_message(&mut r, DEFAULT_MAX_MESSAGE_LEN).unwrap(), body);
    }

    #[test]
    fn messages_round_trip_and_oversize_is_refused_before_allocation() {
        let frame = request().encode().unwrap();
        let mut buf = Vec::new();
        write_message(&mut buf, &frame).unwrap();
        assert_eq!(buf.len(), 4 + frame.len());
        let mut r = &buf[..];
        assert_eq!(read_message(&mut r, DEFAULT_MAX_MESSAGE_LEN).unwrap(), frame);
        // a length prefix over the cap fails fast
        let mut r = &buf[..];
        let err = read_message(&mut r, frame.len() - 1).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}
