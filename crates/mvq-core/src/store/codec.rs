//! The versioned binary codec: framing, checksums, and per-type field
//! layouts for every blob kind.
//!
//! The encoding is hand-rolled (no external deps, consistent with the
//! workspace's vendored-shim policy): a fixed header carrying magic,
//! format version, a kind tag and an FNV-1a payload checksum, followed
//! by a little-endian field layout per variant. Floats are stored as
//! raw bit patterns, so decoding reconstructs values **bit-identically**
//! — `from_bytes(to_bytes(a))` reconstructs 0-ULP equal to `a`.
//!
//! ## Versioning rule
//!
//! [`FORMAT_VERSION`] must be bumped on **any** change to the byte
//! layout, and a decode test for the previous version must be kept (see
//! `tests/roundtrip.rs`). Decoders reject blobs from future versions with
//! a typed [`MvqError::Codec`] instead of misreading them. Enum tags
//! (artifact variants, grouping, kernels) are append-only: existing
//! values are never renumbered.
//!
//! ## Fallible encoding
//!
//! Length fields are fixed-width (a `u8` tensor rank, `u32` string
//! lengths), so encoding is fallible at the [`Persist`] boundary: a
//! value whose lengths do not fit returns [`MvqError::Codec`] instead
//! of silently truncating the field and round-tripping garbage.

use mvq_tensor::Tensor;

use crate::baselines::pqf::PqfCompressed;
use crate::baselines::pvq::PvqResult;
use crate::baselines::vq_plain::DenseVq;
use crate::codebook::{Assignments, Codebook};
use crate::compress::CompressedMatrix;
use crate::error::MvqError;
use crate::mask::NmMask;
use crate::pipeline::{
    canonical_name, grouping_from_tag, grouping_tag, CompressedArtifact, LayerArtifact,
    ModelArtifacts, ScalarQuantized,
};

/// First four bytes of every serialized artifact blob.
pub const MAGIC: [u8; 4] = *b"MVQA";

/// Current serialization format version. Bump on any layout change and
/// keep a decode test for the old version (see module docs).
pub const FORMAT_VERSION: u16 = 2;

/// Header size: magic (4) + version (2) + kind (1) + payload length (8) +
/// payload checksum (8). Public so wire consumers (the `mvq-net`
/// protocol frames messages with this same codec) can size reads and
/// document the layout without restating the arithmetic.
pub const HEADER_LEN: usize = 23;

/// FNV-1a 64-bit — the workspace's stable, dependency-free hash. Used for
/// payload checksums, weight content hashes and spec fingerprints.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// Standard FNV-1a offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds raw bytes into the state.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds a little-endian u64 into the state.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

/// Content hash of a weight tensor: dims and the f32 bit patterns, so
/// tensors that differ only by `-0.0` vs `0.0` (or carry different NaN
/// payloads) hash differently — the cache must never alias weights whose
/// compression could diverge.
pub fn weight_hash(weight: &Tensor) -> u64 {
    let mut h = Fnv1a::new();
    h.update(b"mvq.weight.v1");
    h.update_u64(weight.rank() as u64);
    for &d in weight.dims() {
        h.update_u64(d as u64);
    }
    for &v in weight.data() {
        h.update(&v.to_bits().to_le_bytes());
    }
    h.finish()
}

// ---------------------------------------------------------------------
// primitive readers/writers
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

fn put_f32(out: &mut Vec<u8>, v: f32) {
    put_u32(out, v.to_bits());
}

/// The `u32` length prefix for a string field, rejecting strings whose
/// byte length the field cannot represent (they would decode as a
/// truncated prefix plus trailing garbage).
fn str_len(s: &str) -> Result<u32, MvqError> {
    u32::try_from(s.len()).map_err(|_| {
        MvqError::Codec(format!(
            "string of {} bytes exceeds the u32 length field of the v{FORMAT_VERSION} layout",
            s.len()
        ))
    })
}

/// The `u8` rank prefix for a dims field, rejecting tensors whose rank
/// the field cannot represent.
fn rank_u8(dims: &[usize]) -> Result<u8, MvqError> {
    u8::try_from(dims.len()).map_err(|_| {
        MvqError::Codec(format!(
            "tensor rank {} exceeds the u8 rank field of the v{FORMAT_VERSION} layout",
            dims.len()
        ))
    })
}

fn put_str(out: &mut Vec<u8>, s: &str) -> Result<(), MvqError> {
    put_u32(out, str_len(s)?);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn put_dims(out: &mut Vec<u8>, dims: &[usize]) -> Result<(), MvqError> {
    put_u8(out, rank_u8(dims)?);
    for &d in dims {
        put_u64(out, d as u64);
    }
    Ok(())
}

fn put_tensor(out: &mut Vec<u8>, t: &Tensor) -> Result<(), MvqError> {
    put_dims(out, t.dims())?;
    for &v in t.data() {
        put_f32(out, v);
    }
    Ok(())
}

fn put_opt_f32(out: &mut Vec<u8>, v: Option<f32>) {
    match v {
        None => put_u8(out, 0),
        Some(x) => {
            put_u8(out, 1);
            put_f32(out, x);
        }
    }
}

fn put_opt_u32(out: &mut Vec<u8>, v: Option<u32>) {
    match v {
        None => put_u8(out, 0),
        Some(x) => {
            put_u8(out, 1);
            put_u32(out, x);
        }
    }
}

/// Bounds-checked sequential reader over a decoded payload.
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
                "payload truncated: need {n} bytes at offset {}, have {}",
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
            .map_err(|_| MvqError::Codec("string field is not UTF-8".into()))
    }

    fn dims(&mut self) -> Result<Vec<usize>, MvqError> {
        let rank = self.u8()? as usize;
        let mut dims = Vec::with_capacity(rank);
        let mut numel: u128 = 1;
        for _ in 0..rank {
            let d = self.usize()?;
            numel = numel.saturating_mul(d as u128);
            if numel > u32::MAX as u128 {
                return Err(MvqError::Codec(format!(
                    "tensor of dims {dims:?}×{d} is implausibly large"
                )));
            }
            dims.push(d);
        }
        Ok(dims)
    }

    fn tensor(&mut self) -> Result<Tensor, MvqError> {
        let dims = self.dims()?;
        let numel: usize = dims.iter().product();
        // cap the pre-allocation (same guard as the assignment/permutation
        // readers): a malformed header must fail at the first short read,
        // not abort on a multi-GB reservation
        let mut data = Vec::with_capacity(numel.min(1 << 24));
        for _ in 0..numel {
            data.push(self.f32()?);
        }
        Tensor::from_vec(dims, data).map_err(|e| MvqError::Codec(format!("tensor field: {e}")))
    }

    fn opt_f32(&mut self) -> Result<Option<f32>, MvqError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f32()?)),
            t => Err(MvqError::Codec(format!("bad Option<f32> tag {t}"))),
        }
    }

    fn opt_u32(&mut self) -> Result<Option<u32>, MvqError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u32()?)),
            t => Err(MvqError::Codec(format!("bad Option<u32> tag {t}"))),
        }
    }

    fn finish(&self) -> Result<(), MvqError> {
        if self.pos != self.bytes.len() {
            return Err(MvqError::Codec(format!(
                "{} trailing bytes after payload",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// composite field codecs
// ---------------------------------------------------------------------

fn put_codebook(out: &mut Vec<u8>, cb: &Codebook) -> Result<(), MvqError> {
    put_tensor(out, cb.centers())?;
    put_opt_f32(out, cb.scale());
    put_opt_u32(out, cb.bits());
    Ok(())
}

fn read_codebook(r: &mut Reader<'_>) -> Result<Codebook, MvqError> {
    let centers = r.tensor()?;
    let scale = r.opt_f32()?;
    let bits = r.opt_u32()?;
    Codebook::from_raw_parts(centers, scale, bits)
        .map_err(|e| MvqError::Codec(format!("codebook: {e}")))
}

fn put_assignments(out: &mut Vec<u8>, a: &Assignments) {
    put_u64(out, a.len() as u64);
    for &i in a.indices() {
        put_u32(out, i);
    }
}

fn read_assignments(r: &mut Reader<'_>, k: usize) -> Result<Assignments, MvqError> {
    let len = r.usize()?;
    let mut indices = Vec::with_capacity(len.min(1 << 24));
    for _ in 0..len {
        indices.push(r.u32()?);
    }
    Assignments::new(indices, k).map_err(|e| MvqError::Codec(format!("assignments: {e}")))
}

fn put_mask(out: &mut Vec<u8>, mask: &NmMask) {
    put_u64(out, mask.ng() as u64);
    put_u64(out, mask.d() as u64);
    put_u64(out, mask.keep_n() as u64);
    put_u64(out, mask.m() as u64);
    // pack bits LSB-first, 8 per byte
    let bits = mask.bits();
    let mut byte = 0u8;
    for (i, &b) in bits.iter().enumerate() {
        if b {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            out.push(byte);
            byte = 0;
        }
    }
    if !bits.len().is_multiple_of(8) {
        out.push(byte);
    }
}

fn read_mask(r: &mut Reader<'_>) -> Result<NmMask, MvqError> {
    let ng = r.usize()?;
    let d = r.usize()?;
    let keep_n = r.usize()?;
    let m = r.usize()?;
    let nbits =
        ng.checked_mul(d).ok_or_else(|| MvqError::Codec("mask dimensions overflow".into()))?;
    let packed = r.take(nbits.div_ceil(8))?;
    let bits: Vec<bool> = (0..nbits).map(|i| packed[i / 8] >> (i % 8) & 1 == 1).collect();
    NmMask::from_bits(ng, d, keep_n, m, bits).map_err(|e| MvqError::Codec(format!("mask: {e}")))
}

fn put_scalar(out: &mut Vec<u8>, s: &ScalarQuantized) -> Result<(), MvqError> {
    put_tensor(out, &s.result.quantized)?;
    put_f32(out, s.result.scale);
    put_u32(out, s.result.bits);
    put_f32(out, s.result.sse);
    Ok(())
}

fn read_scalar(r: &mut Reader<'_>) -> Result<ScalarQuantized, MvqError> {
    let quantized = r.tensor()?;
    let scale = r.f32()?;
    let bits = r.u32()?;
    let sse = r.f32()?;
    if !(2..=16).contains(&bits) {
        return Err(MvqError::Codec(format!("scalar bits {bits} outside 2..=16")));
    }
    Ok(ScalarQuantized { result: PvqResult { quantized, scale, bits, sse } })
}

/// Artifact variant tags (append-only).
const TAG_MASKED: u8 = 0;
const TAG_DENSE: u8 = 1;
const TAG_PERMUTED: u8 = 2;
const TAG_SCALAR: u8 = 3;
/// v2: [`TAG_PERMUTED`]'s fields with the permutation stored sparsely —
/// only the positions it moves (see [`put_sparse_permutation`]).
const TAG_PERMUTED_SPARSE: u8 = 4;

/// A permutation as its length, the count of positions it moves, and one
/// `(position, source)` pair per moved position in ascending position
/// order. PQF's hill-climb moves at most two positions per accepted swap,
/// so this is a few hundred bytes where the dense form costs 8 bytes per
/// scalar of the layer.
fn put_sparse_permutation(out: &mut Vec<u8>, permutation: &[usize]) {
    let moved: Vec<(usize, usize)> =
        permutation.iter().copied().enumerate().filter(|&(p, src)| p != src).collect();
    put_u64(out, permutation.len() as u64);
    put_u64(out, moved.len() as u64);
    for (p, src) in moved {
        put_u64(out, p as u64);
        put_u64(out, src as u64);
    }
}

/// Inverse of [`put_sparse_permutation`]: the identity over `len`
/// positions with the stored pairs applied. `len` must equal `expected`
/// (the artifact's grouped positions) before anything is allocated, the
/// moved count may not exceed it, and positions must be in range and
/// strictly ascending; whether the result is a bijection is left to
/// [`PqfCompressed::from_parts`].
fn read_sparse_permutation(r: &mut Reader<'_>, expected: usize) -> Result<Vec<usize>, MvqError> {
    let len = r.usize()?;
    if len != expected {
        return Err(MvqError::Codec(format!(
            "permutation length {len} != grouped positions {expected}"
        )));
    }
    let moved = r.usize()?;
    if moved > len {
        return Err(MvqError::Codec(format!("{moved} moved positions in a permutation of {len}")));
    }
    let mut permutation: Vec<usize> = (0..len).collect();
    let mut next = 0usize;
    for _ in 0..moved {
        let (p, src) = (r.usize()?, r.usize()?);
        if p < next || p >= len {
            return Err(MvqError::Codec(format!(
                "moved position {p} out of order or out of range 0..{len}"
            )));
        }
        permutation[p] = src;
        next = p + 1;
    }
    Ok(permutation)
}

fn put_artifact(out: &mut Vec<u8>, artifact: &CompressedArtifact) -> Result<(), MvqError> {
    match artifact {
        CompressedArtifact::Masked(m) => {
            put_u8(out, TAG_MASKED);
            put_codebook(out, m.codebook())?;
            put_mask(out, m.mask());
            put_assignments(out, m.assignments());
            put_dims(out, m.orig_dims())?;
            put_u8(out, grouping_tag(m.grouping()));
            put_opt_f32(out, m.sse());
        }
        CompressedArtifact::Dense(v) => {
            put_u8(out, TAG_DENSE);
            put_codebook(out, v.codebook())?;
            put_assignments(out, v.assignments());
            put_dims(out, v.orig_dims())?;
            put_u8(out, grouping_tag(v.grouping()));
            put_u64(out, v.d() as u64);
            put_f32(out, v.sse);
        }
        CompressedArtifact::Permuted(p) => {
            put_u8(out, TAG_PERMUTED_SPARSE);
            put_codebook(out, p.codebook())?;
            put_assignments(out, p.assignments());
            put_dims(out, p.orig_dims())?;
            put_u8(out, grouping_tag(p.grouping()));
            put_u64(out, p.d() as u64);
            put_f32(out, p.sse);
            put_sparse_permutation(out, p.permutation());
        }
        CompressedArtifact::Scalar(s) => {
            put_u8(out, TAG_SCALAR);
            put_scalar(out, s)?;
        }
    }
    Ok(())
}

fn read_artifact(r: &mut Reader<'_>) -> Result<CompressedArtifact, MvqError> {
    match r.u8()? {
        TAG_MASKED => {
            let codebook = read_codebook(r)?;
            let mask = read_mask(r)?;
            let assignments = read_assignments(r, codebook.k())?;
            let orig_dims = r.dims()?;
            let grouping = grouping_from_tag(r.u8()?)?;
            let sse = r.opt_f32()?;
            let numel: usize = orig_dims.iter().product();
            if mask.ng() * mask.d() != numel {
                return Err(MvqError::Codec(format!(
                    "mask [{} × {}] does not cover a tensor of dims {orig_dims:?}",
                    mask.ng(),
                    mask.d()
                )));
            }
            let mut cm =
                CompressedMatrix::from_parts(codebook, assignments, mask, orig_dims, grouping)
                    .map_err(|e| MvqError::Codec(format!("masked artifact: {e}")))?;
            if let Some(s) = sse {
                cm = cm.with_sse(s);
            }
            Ok(CompressedArtifact::Masked(cm))
        }
        TAG_DENSE => {
            let codebook = read_codebook(r)?;
            let assignments = read_assignments(r, codebook.k())?;
            let orig_dims = r.dims()?;
            let grouping = grouping_from_tag(r.u8()?)?;
            let d = r.usize()?;
            let sse = r.f32()?;
            DenseVq::from_parts(codebook, assignments, orig_dims, grouping, d, sse)
                .map(CompressedArtifact::Dense)
                .map_err(|e| MvqError::Codec(format!("dense artifact: {e}")))
        }
        tag @ (TAG_PERMUTED | TAG_PERMUTED_SPARSE) => {
            let codebook = read_codebook(r)?;
            let assignments = read_assignments(r, codebook.k())?;
            let orig_dims = r.dims()?;
            let grouping = grouping_from_tag(r.u8()?)?;
            let d = r.usize()?;
            let sse = r.f32()?;
            let permutation = if tag == TAG_PERMUTED {
                let len = r.usize()?;
                let mut permutation = Vec::with_capacity(len.min(1 << 24));
                for _ in 0..len {
                    permutation.push(r.usize()?);
                }
                permutation
            } else {
                read_sparse_permutation(r, assignments.len().saturating_mul(d))?
            };
            PqfCompressed::from_parts(
                permutation,
                codebook,
                assignments,
                orig_dims,
                grouping,
                d,
                sse,
            )
            .map(CompressedArtifact::Permuted)
            .map_err(|e| MvqError::Codec(format!("permuted artifact: {e}")))
        }
        TAG_SCALAR => Ok(CompressedArtifact::Scalar(read_scalar(r)?)),
        other => Err(MvqError::Codec(format!("unknown artifact variant tag {other}"))),
    }
}

// ---------------------------------------------------------------------
// the Persist trait: header framing shared by all blob kinds
// ---------------------------------------------------------------------

/// Blob kind tags distinguishing the top-level serializable types
/// (append-only, like every tag in this codec).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum BlobKind {
    /// A single [`CompressedArtifact`].
    Artifact = 0,
    /// A standalone [`ScalarQuantized`].
    Scalar = 1,
    /// A [`LayerArtifact`] (conv index + artifact).
    Layer = 2,
    /// A whole-model [`ModelArtifacts`].
    Model = 3,
    /// An `mvq-net` wire request (the network protocol frames its
    /// messages with this same codec, so wire blobs and cache blobs
    /// share one format and one validator).
    WireRequest = 4,
    /// An `mvq-net` wire response header.
    WireResponse = 5,
    /// A streamed model's [`ModelIndex`]: per-layer blob references
    /// instead of inline artifacts (the layer blobs themselves are
    /// [`BlobKind::Layer`] under derived keys).
    ModelIndex = 6,
    /// An `mvq-net` live-stats request: a snapshot of the serving
    /// stack's metrics registry and recent completed traces.
    StatsRequest = 7,
    /// An `mvq-net` live-stats response carrying the snapshot.
    StatsResponse = 8,
}

impl BlobKind {
    fn from_tag(tag: u8) -> Result<BlobKind, MvqError> {
        match tag {
            0 => Ok(BlobKind::Artifact),
            1 => Ok(BlobKind::Scalar),
            2 => Ok(BlobKind::Layer),
            3 => Ok(BlobKind::Model),
            4 => Ok(BlobKind::WireRequest),
            5 => Ok(BlobKind::WireResponse),
            6 => Ok(BlobKind::ModelIndex),
            7 => Ok(BlobKind::StatsRequest),
            8 => Ok(BlobKind::StatsResponse),
            other => Err(MvqError::Codec(format!("unknown blob kind tag {other}"))),
        }
    }
}

fn frame(kind: BlobKind, payload: Vec<u8>) -> Vec<u8> {
    let mut h = Fnv1a::new();
    h.update(&payload);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.push(kind as u8);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&h.finish().to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Validates the header and returns the checksum-verified payload.
fn unframe(kind: BlobKind, bytes: &[u8]) -> Result<&[u8], MvqError> {
    if bytes.len() < HEADER_LEN {
        return Err(MvqError::Codec(format!(
            "blob of {} bytes is shorter than the {HEADER_LEN}-byte header",
            bytes.len()
        )));
    }
    if bytes[0..4] != MAGIC {
        return Err(MvqError::Codec(format!(
            "bad magic {:02x?} (expected {MAGIC:02x?})",
            &bytes[0..4]
        )));
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
    if version > FORMAT_VERSION {
        return Err(MvqError::Codec(format!(
            "format version {version} is newer than supported {FORMAT_VERSION}"
        )));
    }
    if version == 0 {
        return Err(MvqError::Codec("format version 0 does not exist".into()));
    }
    let found = BlobKind::from_tag(bytes[6])?;
    if found != kind {
        return Err(MvqError::Codec(format!("blob holds a {found:?}, expected a {kind:?}")));
    }
    let payload_len = u64::from_le_bytes(bytes[7..15].try_into().expect("8 bytes"));
    let payload = &bytes[HEADER_LEN..];
    if payload.len() as u64 != payload_len {
        return Err(MvqError::Codec(format!(
            "payload is {} bytes but the header promises {payload_len}",
            payload.len()
        )));
    }
    let checksum = u64::from_le_bytes(bytes[15..23].try_into().expect("8 bytes"));
    let mut h = Fnv1a::new();
    h.update(payload);
    if h.finish() != checksum {
        return Err(MvqError::Codec("payload checksum mismatch (corrupt blob)".into()));
    }
    Ok(payload)
}

/// Validates a framed blob's header and payload checksum **without
/// decoding the payload** — the admission check the zero-copy cache runs
/// once per blob, so hits can hand out shared bytes with no per-read
/// verification.
///
/// # Errors
///
/// Returns [`MvqError::Codec`] for truncated blobs, wrong magic or kind,
/// unsupported future format versions, and checksum mismatches.
pub fn validate_frame(kind: BlobKind, bytes: &[u8]) -> Result<(), MvqError> {
    unframe(kind, bytes).map(|_| ())
}

/// Frames a raw payload under `kind`: magic, format version, kind tag,
/// payload length, and FNV-1a payload checksum, exactly as the
/// [`Persist`] impls frame their encodings. This is the building block
/// for types whose payloads live outside this crate (the `mvq-net`
/// wire messages): they encode their own payload bytes and reuse the
/// store's framing, so one codec validates both cache and wire blobs.
pub fn frame_blob(kind: BlobKind, payload: Vec<u8>) -> Vec<u8> {
    frame(kind, payload)
}

/// Inverse of [`frame_blob`]: validates the header (magic, supported
/// version, expected `kind`, length, checksum) and returns the verified
/// payload slice.
///
/// # Errors
///
/// Returns [`MvqError::Codec`] for truncated blobs, wrong magic or kind,
/// unsupported future format versions, and checksum mismatches.
pub fn unframe_blob(kind: BlobKind, bytes: &[u8]) -> Result<&[u8], MvqError> {
    unframe(kind, bytes)
}

/// Decodes a verified payload, rejecting trailing bytes.
fn decode_payload<T>(
    payload: &[u8],
    read: impl FnOnce(&mut Reader<'_>) -> Result<T, MvqError>,
) -> Result<T, MvqError> {
    let mut r = Reader::new(payload);
    let value = read(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Versioned, self-describing binary serialization.
///
/// `from_bytes(to_bytes(x))` reconstructs `x` with bit-identical floats;
/// see the module docs for the layout and versioning rule.
pub trait Persist: Sized {
    /// The blob kind tag this type serializes under.
    const KIND: BlobKind;

    /// Serializes to a framed, checksummed blob.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::Codec`] when a length does not fit its
    /// fixed-width field (a rank-256 tensor, a > 4 GiB string) — the
    /// v1 layout cannot represent such values, and truncating the
    /// length prefix would round-trip garbage.
    fn to_bytes(&self) -> Result<Vec<u8>, MvqError>;

    /// Deserializes a framed blob.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::Codec`] for truncated/corrupt blobs, wrong
    /// magic or kind, unsupported future format versions, and any payload
    /// that fails the type's construction-time validation.
    fn from_bytes(bytes: &[u8]) -> Result<Self, MvqError>;
}

impl Persist for CompressedArtifact {
    const KIND: BlobKind = BlobKind::Artifact;

    fn to_bytes(&self) -> Result<Vec<u8>, MvqError> {
        let mut payload = Vec::new();
        put_artifact(&mut payload, self)?;
        Ok(frame(Self::KIND, payload))
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, MvqError> {
        decode_payload(unframe(Self::KIND, bytes)?, read_artifact)
    }
}

impl Persist for ScalarQuantized {
    const KIND: BlobKind = BlobKind::Scalar;

    fn to_bytes(&self) -> Result<Vec<u8>, MvqError> {
        let mut payload = Vec::new();
        put_scalar(&mut payload, self)?;
        Ok(frame(Self::KIND, payload))
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, MvqError> {
        decode_payload(unframe(Self::KIND, bytes)?, read_scalar)
    }
}

impl Persist for LayerArtifact {
    const KIND: BlobKind = BlobKind::Layer;

    fn to_bytes(&self) -> Result<Vec<u8>, MvqError> {
        let mut payload = Vec::new();
        put_u64(&mut payload, self.conv_index as u64);
        put_artifact(&mut payload, &self.artifact)?;
        Ok(frame(Self::KIND, payload))
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, MvqError> {
        decode_payload(unframe(Self::KIND, bytes)?, |r| {
            let conv_index = r.usize()?;
            let artifact = read_artifact(r)?;
            Ok(LayerArtifact { conv_index, artifact })
        })
    }
}

impl Persist for ModelArtifacts {
    const KIND: BlobKind = BlobKind::Model;

    fn to_bytes(&self) -> Result<Vec<u8>, MvqError> {
        let mut payload = Vec::new();
        put_str(&mut payload, self.algorithm)?;
        put_u64(&mut payload, self.layers.len() as u64);
        for layer in &self.layers {
            put_u64(&mut payload, layer.conv_index as u64);
            put_artifact(&mut payload, &layer.artifact)?;
        }
        put_u64(&mut payload, self.skipped.len() as u64);
        for &idx in &self.skipped {
            put_u64(&mut payload, idx as u64);
        }
        Ok(frame(Self::KIND, payload))
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, MvqError> {
        decode_payload(unframe(Self::KIND, bytes)?, |r| {
            let algo = r.str()?;
            let algorithm = canonical_name(&algo)
                .ok_or_else(|| MvqError::Codec(format!("unknown algorithm `{algo}`")))?;
            let n_layers = r.usize()?;
            let mut layers = Vec::with_capacity(n_layers.min(1 << 16));
            for _ in 0..n_layers {
                let conv_index = r.usize()?;
                let artifact = read_artifact(r)?;
                layers.push(LayerArtifact { conv_index, artifact });
            }
            let n_skipped = r.usize()?;
            let mut skipped = Vec::with_capacity(n_skipped.min(1 << 16));
            for _ in 0..n_skipped {
                skipped.push(r.usize()?);
            }
            Ok(ModelArtifacts { algorithm, layers, skipped })
        })
    }
}

/// The durable index a streamed model compression leaves under its model
/// key ([`BlobKind::ModelIndex`]): the identity fields of the model's
/// [`super::CacheKey`] plus the conv indices whose layers were compressed
/// or skipped. The per-layer artifacts are **not** inline — each lives in
/// its own [`BlobKind::Layer`] blob under the derived
/// [`super::CacheKey::layer_key`], so a model's working set on disk and
/// in memory is bounded per layer, not per model.
///
/// The key fields are stored redundantly (the loader already knows the
/// key it fetched by) so an index blob is self-describing and the loader
/// can verify it answers for the key it was addressed under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelIndex {
    /// Canonical registry algorithm name.
    pub algorithm: &'static str,
    /// [`super::CacheKey::weight_hash`] of the model key (the streamed
    /// model hash, not a single tensor's).
    pub weight_hash: u64,
    /// [`super::CacheKey::spec_fingerprint`] of the model key.
    pub spec_fingerprint: u64,
    /// [`super::CacheKey::kernel`] of the model key.
    pub kernel: crate::kernels::KernelStrategy,
    /// [`super::CacheKey::seed`] of the model key.
    pub seed: u64,
    /// Conv indices with a compressed layer blob, ascending.
    pub layers: Vec<usize>,
    /// Conv indices skipped (depthwise / incompatible / all-zero),
    /// ascending.
    pub skipped: Vec<usize>,
}

impl Persist for ModelIndex {
    const KIND: BlobKind = BlobKind::ModelIndex;

    fn to_bytes(&self) -> Result<Vec<u8>, MvqError> {
        let mut payload = Vec::new();
        put_str(&mut payload, self.algorithm)?;
        put_u64(&mut payload, self.weight_hash);
        put_u64(&mut payload, self.spec_fingerprint);
        // the kernel travels by name (the append-only alternative to a
        // second numeric kernel-tag space in this codec)
        put_str(&mut payload, self.kernel.name())?;
        put_u64(&mut payload, self.seed);
        put_u64(&mut payload, self.layers.len() as u64);
        for &idx in &self.layers {
            put_u64(&mut payload, idx as u64);
        }
        put_u64(&mut payload, self.skipped.len() as u64);
        for &idx in &self.skipped {
            put_u64(&mut payload, idx as u64);
        }
        Ok(frame(Self::KIND, payload))
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, MvqError> {
        decode_payload(unframe(Self::KIND, bytes)?, |r| {
            let algo = r.str()?;
            let algorithm = canonical_name(&algo)
                .ok_or_else(|| MvqError::Codec(format!("unknown algorithm `{algo}`")))?;
            let weight_hash = r.u64()?;
            let spec_fingerprint = r.u64()?;
            let kernel_name = r.str()?;
            let kernel = kernel_name
                .parse::<crate::kernels::KernelStrategy>()
                .map_err(|e| MvqError::Codec(format!("model index kernel: {e}")))?;
            let seed = r.u64()?;
            let n_layers = r.usize()?;
            let mut layers = Vec::with_capacity(n_layers.min(1 << 16));
            for _ in 0..n_layers {
                layers.push(r.usize()?);
            }
            let n_skipped = r.usize()?;
            let mut skipped = Vec::with_capacity(n_skipped.min(1 << 16));
            for _ in 0..n_skipped {
                skipped.push(r.usize()?);
            }
            Ok(ModelIndex {
                algorithm,
                weight_hash,
                spec_fingerprint,
                kernel,
                seed,
                layers,
                skipped,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{by_name, PipelineSpec};
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
    fn header_layout_is_stable() {
        let bytes = artifact("mvq").to_bytes().unwrap();
        assert_eq!(&bytes[0..4], &MAGIC);
        assert_eq!(u16::from_le_bytes(bytes[4..6].try_into().unwrap()), FORMAT_VERSION);
        assert_eq!(bytes[6], BlobKind::Artifact as u8);
        let payload_len = u64::from_le_bytes(bytes[7..15].try_into().unwrap());
        assert_eq!(payload_len as usize, bytes.len() - HEADER_LEN);
    }

    #[test]
    fn round_trip_reconstruction_is_bit_identical() {
        for algo in ["mvq", "vq-a", "vq-c", "pqf", "pvq"] {
            let a = artifact(algo);
            let b = CompressedArtifact::from_bytes(&a.to_bytes().unwrap()).unwrap();
            let ra = a.reconstruct().unwrap();
            let rb = b.reconstruct().unwrap();
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&ra), bits(&rb), "{algo}");
            assert_eq!(a.storage(), b.storage(), "{algo}");
        }
    }

    #[test]
    fn weight_hash_distinguishes_content_and_shape() {
        let w = weight();
        assert_eq!(weight_hash(&w), weight_hash(&w.clone()));
        let mut w2 = w.clone();
        w2.data_mut()[0] += 1.0;
        assert_ne!(weight_hash(&w), weight_hash(&w2));
        let reshaped = w.reshape(vec![16, 32]).unwrap();
        assert_ne!(weight_hash(&w), weight_hash(&reshaped));
        // -0.0 and 0.0 are different content
        let mut wz = w.clone();
        wz.data_mut()[0] = 0.0;
        let mut wn = w.clone();
        wn.data_mut()[0] = -0.0;
        assert_ne!(weight_hash(&wz), weight_hash(&wn));
    }

    #[test]
    fn rank_255_round_trips_rank_256_is_a_typed_error() {
        // the rank prefix is a u8: 255 is the last representable rank,
        // 256 used to truncate to 0 and encode garbage
        let ok = Tensor::from_vec(vec![1; 255], vec![1.0]).unwrap();
        let q =
            ScalarQuantized { result: PvqResult { quantized: ok, scale: 1.0, bits: 8, sse: 0.0 } };
        let back = ScalarQuantized::from_bytes(&q.to_bytes().unwrap()).unwrap();
        assert_eq!(back.result.quantized.dims().len(), 255);

        let too_deep = Tensor::from_vec(vec![1; 256], vec![1.0]).unwrap();
        let q = ScalarQuantized {
            result: PvqResult { quantized: too_deep, scale: 1.0, bits: 8, sse: 0.0 },
        };
        let err = q.to_bytes().unwrap_err();
        assert!(matches!(&err, MvqError::Codec(msg) if msg.contains("rank")), "{err}");
    }

    #[test]
    fn model_index_round_trips_under_its_own_kind() {
        let index = ModelIndex {
            algorithm: "mvq",
            weight_hash: 0xdead_beef_cafe_f00d,
            spec_fingerprint: 42,
            kernel: crate::kernels::KernelStrategy::Naive,
            seed: 7,
            layers: vec![0, 2, 5],
            skipped: vec![1, 3],
        };
        let bytes = index.to_bytes().unwrap();
        assert_eq!(bytes[6], BlobKind::ModelIndex as u8);
        assert!(validate_frame(BlobKind::ModelIndex, &bytes).is_ok());
        assert_eq!(ModelIndex::from_bytes(&bytes).unwrap(), index);
        // a model index must never answer an artifact (or layer) lookup
        assert!(validate_frame(BlobKind::Artifact, &bytes).is_err(), "wrong kind accepted");
        assert!(validate_frame(BlobKind::Layer, &bytes).is_err(), "wrong kind accepted");
    }

    #[test]
    fn validate_frame_accepts_intact_and_rejects_corrupt_blobs() {
        let bytes = artifact("mvq").to_bytes().unwrap();
        assert!(validate_frame(BlobKind::Artifact, &bytes).is_ok());
        assert!(validate_frame(BlobKind::Model, &bytes).is_err(), "wrong kind accepted");
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        assert!(validate_frame(BlobKind::Artifact, &corrupt).is_err(), "bad checksum accepted");
        assert!(validate_frame(BlobKind::Artifact, &bytes[..10]).is_err(), "truncation accepted");
    }
}
