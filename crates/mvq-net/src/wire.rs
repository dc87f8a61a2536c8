//! Wire message types and the length-prefixed message I/O.
//!
//! Every message is `[u32 le length][MVQA frame]`; the frame reuses the
//! store codec's header (magic, format version, kind tag, payload
//! length, FNV-1a payload checksum) via
//! [`frame_blob`]/[`unframe_blob`], under the append-only kinds
//! [`BlobKind::WireRequest`] and [`BlobKind::WireResponse`]. Artifact
//! payloads are **not** re-encoded for the wire: a response carries the
//! cache's own `BlobKind::Artifact` frame as the next message, byte for
//! byte. See the crate docs for the full layout.

use std::io::{Read, Write};

use mvq_core::pipeline::PipelineSpec;
use mvq_core::store::{frame_blob, unframe_blob, BlobKind, HEADER_LEN};
use mvq_core::{GroupingStrategy, KernelStrategy, MvqError};
use mvq_obs::{
    HistogramSummary, MetricKind, MetricValue, RegistrySnapshot, Stage, TraceOutcome, TraceSnapshot,
};
use mvq_serve::{CacheMode, CancelKind, JobError, Priority};
use mvq_tensor::Tensor;

/// Default cap on one message's frame length (length prefix excluded):
/// protects both sides from a hostile or corrupt length prefix
/// committing them to a multi-GiB read.
pub const DEFAULT_MAX_MESSAGE_LEN: usize = 64 << 20;

/// Writes one length-prefixed message.
pub(crate) fn write_message(w: &mut impl Write, frame: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(frame.len()).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds the u32 length prefix", frame.len()),
        )
    })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(frame)
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
// primitive payload readers/writers (the store codec's are private; the
// wire payloads carry their own copies of these few-line helpers)
// ---------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) -> Result<(), MvqError> {
    let len = u32::try_from(s.len()).map_err(|_| {
        MvqError::Codec(format!("string of {} bytes exceeds the u32 length field", s.len()))
    })?;
    put_u32(out, len);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => put_u8(out, 0),
        Some(x) => {
            put_u8(out, 1);
            put_u64(out, x);
        }
    }
}

/// Bounds-checked sequential reader over a verified payload.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], MvqError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len()).ok_or_else(|| {
            MvqError::Codec(format!(
                "wire payload truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.bytes.len() - self.pos
            ))
        })?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, MvqError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, MvqError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, MvqError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn usize(&mut self) -> Result<usize, MvqError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| MvqError::Codec(format!("length {v} overflows usize")))
    }

    fn f32(&mut self) -> Result<f32, MvqError> {
        Ok(f32::from_bits(self.u32()?))
    }

    fn str(&mut self) -> Result<String, MvqError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| MvqError::Codec("wire string field is not UTF-8".into()))
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, MvqError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            t => Err(MvqError::Codec(format!("bad Option<u64> tag {t}"))),
        }
    }

    fn finish(&self) -> Result<(), MvqError> {
        if self.pos != self.bytes.len() {
            return Err(MvqError::Codec(format!(
                "{} trailing bytes after wire payload",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// wire tag maps (append-only; pinned in lint.toml like the store tags)
// ---------------------------------------------------------------------

fn grouping_tag(g: GroupingStrategy) -> u8 {
    match g {
        GroupingStrategy::KernelWise => 0,
        GroupingStrategy::OutputChannelWise => 1,
        GroupingStrategy::InputChannelWise => 2,
    }
}

fn grouping_from_tag(tag: u8) -> Result<GroupingStrategy, MvqError> {
    match tag {
        0 => Ok(GroupingStrategy::KernelWise),
        1 => Ok(GroupingStrategy::OutputChannelWise),
        2 => Ok(GroupingStrategy::InputChannelWise),
        other => Err(MvqError::Codec(format!("unknown wire grouping tag {other}"))),
    }
}

fn kernel_tag(k: KernelStrategy) -> u8 {
    match k {
        KernelStrategy::Naive => 0,
        KernelStrategy::Blocked => 1,
    }
}

/// Tags 2 and 3 (the retired `Minibatch` and `Simd` strategies) are
/// reserved and fall through to the error arm, so an old peer that sends
/// them gets a protocol error rather than another strategy.
fn kernel_from_tag(tag: u8) -> Result<KernelStrategy, MvqError> {
    match tag {
        0 => Ok(KernelStrategy::Naive),
        1 => Ok(KernelStrategy::Blocked),
        other => Err(MvqError::Codec(format!("unknown wire kernel tag {other}"))),
    }
}

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
        let mut p = Vec::new();
        put_u64(&mut p, self.id);
        put_opt_u64(&mut p, self.deadline_ms);
        put_u8(&mut p, priority_tag(self.priority));
        put_u8(&mut p, cache_mode_tag(self.cache_mode));
        put_opt_u64(&mut p, self.seed);
        put_str(&mut p, &self.name)?;
        put_str(&mut p, &self.algo)?;
        put_u64(&mut p, self.spec.k as u64);
        put_u64(&mut p, self.spec.d as u64);
        put_u64(&mut p, self.spec.keep_n as u64);
        put_u64(&mut p, self.spec.m as u64);
        put_opt_u64(&mut p, self.spec.prune_d.map(|d| d as u64));
        put_u8(&mut p, grouping_tag(self.spec.grouping));
        put_opt_u64(&mut p, self.spec.codebook_bits.map(u64::from));
        put_u32(&mut p, self.spec.scalar_bits);
        put_u64(&mut p, self.spec.swap_trials as u64);
        put_u8(&mut p, kernel_tag(self.spec.kernel));
        let rank = u8::try_from(self.weight.rank()).map_err(|_| {
            MvqError::Codec(format!("tensor rank {} exceeds the u8 rank field", self.weight.rank()))
        })?;
        put_u8(&mut p, rank);
        for &d in self.weight.dims() {
            put_u64(&mut p, d as u64);
        }
        for &v in self.weight.data() {
            put_u32(&mut p, v.to_bits());
        }
        Ok(frame_blob(BlobKind::WireRequest, p))
    }

    /// Decodes a framed `BlobKind::WireRequest` message body.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::Codec`] for bad framing (magic, version,
    /// kind, checksum) or a malformed payload.
    pub fn decode(bytes: &[u8]) -> Result<WireRequest, MvqError> {
        let payload = unframe_blob(BlobKind::WireRequest, bytes)?;
        let mut r = Reader::new(payload);
        let id = r.u64()?;
        let deadline_ms = r.opt_u64()?;
        let priority = priority_from_tag(r.u8()?)?;
        let cache_mode = cache_mode_from_tag(r.u8()?)?;
        let seed = r.opt_u64()?;
        let name = r.str()?;
        let algo = r.str()?;
        let k = r.usize()?;
        let d = r.usize()?;
        let keep_n = r.usize()?;
        let m = r.usize()?;
        let prune_d = match r.opt_u64()? {
            None => None,
            Some(v) => Some(
                usize::try_from(v)
                    .map_err(|_| MvqError::Codec(format!("prune_d {v} overflows usize")))?,
            ),
        };
        let grouping = grouping_from_tag(r.u8()?)?;
        let codebook_bits = match r.opt_u64()? {
            None => None,
            Some(v) => Some(
                u32::try_from(v)
                    .map_err(|_| MvqError::Codec(format!("codebook_bits {v} overflows u32")))?,
            ),
        };
        let scalar_bits = r.u32()?;
        let swap_trials = r.usize()?;
        let kernel = kernel_from_tag(r.u8()?)?;
        let spec = PipelineSpec {
            k,
            d,
            keep_n,
            m,
            prune_d,
            grouping,
            codebook_bits,
            scalar_bits,
            swap_trials,
            kernel,
        };
        let rank = r.u8()? as usize;
        let mut dims = Vec::with_capacity(rank);
        let mut numel: u128 = 1;
        for _ in 0..rank {
            let dim = r.usize()?;
            numel = numel.saturating_mul(dim as u128);
            if numel > u32::MAX as u128 {
                return Err(MvqError::Codec(format!(
                    "wire tensor of dims {dims:?}×{dim} is implausibly large"
                )));
            }
            dims.push(dim);
        }
        let n: usize = dims.iter().product();
        // cap the pre-allocation: a malformed rank/dims must fail at the
        // first short read, not abort on a multi-GB reservation
        let mut data = Vec::with_capacity(n.min(1 << 24));
        for _ in 0..n {
            data.push(r.f32()?);
        }
        r.finish()?;
        let weight = Tensor::from_vec(dims, data)
            .map_err(|e| MvqError::Codec(format!("wire weight tensor: {e}")))?;
        Ok(WireRequest { id, name, algo, spec, seed, priority, cache_mode, deadline_ms, weight })
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
        let mut p = Vec::new();
        match self {
            WireResponse::Ok { id, name, from_cache, deduped } => {
                put_u64(&mut p, *id);
                put_u8(&mut p, STATUS_OK);
                put_u8(&mut p, u8::from(*from_cache));
                put_u8(&mut p, u8::from(*deduped));
                put_str(&mut p, name)?;
            }
            WireResponse::Err { id, kind, message } => {
                put_u64(&mut p, *id);
                put_u8(&mut p, STATUS_ERR);
                put_u8(&mut p, error_kind_tag(*kind));
                put_str(&mut p, message)?;
            }
        }
        Ok(frame_blob(BlobKind::WireResponse, p))
    }

    /// Decodes a framed `BlobKind::WireResponse` message body.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::Codec`] for bad framing or a malformed
    /// payload.
    pub fn decode(bytes: &[u8]) -> Result<WireResponse, MvqError> {
        let payload = unframe_blob(BlobKind::WireResponse, bytes)?;
        let mut r = Reader::new(payload);
        let id = r.u64()?;
        let decoded = match r.u8()? {
            STATUS_OK => {
                let from_cache = r.u8()? != 0;
                let deduped = r.u8()? != 0;
                let name = r.str()?;
                WireResponse::Ok { id, name, from_cache, deduped }
            }
            STATUS_ERR => {
                let kind = error_kind_from_tag(r.u8()?)?;
                let message = r.str()?;
                WireResponse::Err { id, kind, message }
            }
            other => return Err(MvqError::Codec(format!("unknown wire status tag {other}"))),
        };
        r.finish()?;
        Ok(decoded)
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
        let mut p = Vec::new();
        put_u64(&mut p, self.id);
        put_u32(&mut p, self.max_traces);
        frame_blob(BlobKind::StatsRequest, p)
    }

    /// Decodes a framed `BlobKind::StatsRequest` message body.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::Codec`] for bad framing or a malformed
    /// payload.
    pub fn decode(bytes: &[u8]) -> Result<WireStatsRequest, MvqError> {
        let payload = unframe_blob(BlobKind::StatsRequest, bytes)?;
        let mut r = Reader::new(payload);
        let id = r.u64()?;
        let max_traces = r.u32()?;
        r.finish()?;
        Ok(WireStatsRequest { id, max_traces })
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
        let mut p = Vec::new();
        put_u64(&mut p, self.id);
        let n = u32::try_from(self.metrics.len())
            .map_err(|_| MvqError::Codec("metric count exceeds the u32 field".into()))?;
        put_u32(&mut p, n);
        for m in &self.metrics {
            put_u32(&mut p, u32::from(m.id));
            put_str(&mut p, &m.name)?;
            match m.value {
                WireMetricValue::Counter(v) => {
                    put_u8(&mut p, MetricKind::Counter.tag());
                    put_u64(&mut p, v);
                }
                WireMetricValue::Gauge(v) => {
                    put_u8(&mut p, MetricKind::Gauge.tag());
                    put_u64(&mut p, v);
                }
                WireMetricValue::Histogram(h) => {
                    put_u8(&mut p, MetricKind::Histogram.tag());
                    put_u64(&mut p, h.count);
                    put_u64(&mut p, h.sum);
                    put_u64(&mut p, h.max);
                    put_u64(&mut p, h.p50);
                    put_u64(&mut p, h.p90);
                    put_u64(&mut p, h.p99);
                }
            }
        }
        let n = u32::try_from(self.traces.len())
            .map_err(|_| MvqError::Codec("trace count exceeds the u32 field".into()))?;
        put_u32(&mut p, n);
        for t in &self.traces {
            put_str(&mut p, &t.name)?;
            put_u8(&mut p, u8::from(t.deduped));
            put_u8(&mut p, t.outcome.tag());
            let n = u32::try_from(t.stages.len())
                .map_err(|_| MvqError::Codec("stage count exceeds the u32 field".into()))?;
            put_u32(&mut p, n);
            for &(stage, us) in &t.stages {
                put_u8(&mut p, stage.tag());
                put_u64(&mut p, us);
            }
        }
        Ok(frame_blob(BlobKind::StatsResponse, p))
    }

    /// Decodes a framed `BlobKind::StatsResponse` message body.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::Codec`] for bad framing, a malformed
    /// payload, or an unknown metric-kind / stage / outcome tag (tags
    /// are append-only; an unknown tag means a newer peer).
    pub fn decode(bytes: &[u8]) -> Result<WireStatsReply, MvqError> {
        let payload = unframe_blob(BlobKind::StatsResponse, bytes)?;
        let mut r = Reader::new(payload);
        let id = r.u64()?;
        let n_metrics = r.u32()? as usize;
        let mut metrics = Vec::with_capacity(n_metrics.min(1 << 16));
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
                None => return Err(MvqError::Codec(format!("unknown metric kind tag {kind_tag}"))),
            };
            metrics.push(WireMetric { id: mid, name, value });
        }
        let n_traces = r.u32()? as usize;
        let mut traces = Vec::with_capacity(n_traces.min(1 << 16));
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
        r.finish()?;
        Ok(WireStatsReply { id, metrics, traces })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
