//! The versioned binary codec: framing, checksums, and per-type field
//! layouts for every blob kind.
//!
//! The encoding is hand-rolled (no external deps, consistent with the
//! workspace's vendored-shim policy): a fixed header carrying magic,
//! format version, a kind tag, the payload length and a payload
//! checksum, followed by a little-endian field layout per variant.
//! Floats are stored as raw bit patterns, so decoding reconstructs values
//! **bit-identically** — `from_bytes(to_bytes(a))` reconstructs 0-ULP
//! equal to `a`.
//!
//! The fields go through one [`Writer`]/[`Reader`] pair, and `mvq-net`'s
//! wire payloads use the same pair, [`frame_blob`] and [`decode_blob`]: a
//! store blob and a wire message differ only in their kind tag and field
//! order, never in how a field is written.
//!
//! ## Checksums by version
//!
//! The header's version names the checksum: format v1 and v2 frames carry
//! an FNV-1a payload checksum, v3 frames an XXH64 (seed 0) one. A decoder
//! verifies the one the version names and no other, so a frame whose
//! checksum does not match its version is rejected like any corruption.
//! XXH64 reads the payload in four 8-byte lanes where FNV-1a walks it a
//! byte at a time; [`weight_hash`] uses it too.
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
pub const FORMAT_VERSION: u16 = 3;

/// Header size: magic (4) + version (2) + kind (1) + payload length (8) +
/// payload checksum (8). Public so wire consumers (the `mvq-net`
/// protocol frames messages with this same codec) can size reads and
/// document the layout without restating the arithmetic.
pub const HEADER_LEN: usize = 23;

/// FNV-1a 64-bit — the workspace's stable, dependency-free hash for small
/// inputs: spec fingerprints, derived layer keys and content seeds, plus
/// the payload checksum of format v1 and v2 frames. It is byte-serial
/// (each byte waits on the previous multiply); bulk bytes go through
/// XXH64 instead.
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

const XXH_P1: u64 = 0x9E37_79B1_85EB_CA87;
const XXH_P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XXH_P3: u64 = 0x1656_67B1_9E37_79F9;
const XXH_P4: u64 = 0x85EB_CA77_C2B2_AE63;
const XXH_P5: u64 = 0x27D4_EB2F_1656_67C5;

fn xxh_round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(XXH_P2)).rotate_left(31).wrapping_mul(XXH_P1)
}

fn xxh_merge(h: u64, lane: u64) -> u64 {
    (h ^ xxh_round(0, lane)).wrapping_mul(XXH_P1).wrapping_add(XXH_P4)
}

/// XXH64 of a `len`-byte input handed over as its little-endian words:
/// `len / 32` four-lane stripes, then `len % 32 / 8` tail words, then the
/// last `len % 8` bytes. Callers read their input as words in place, so
/// nothing is copied into a byte buffer first.
fn xxh64_words(
    seed: u64,
    len: usize,
    stripes: impl Iterator<Item = [u64; 4]>,
    tail_words: impl Iterator<Item = u64>,
    tail_bytes: &[u8],
) -> u64 {
    let mut h = if len >= 32 {
        let mut lanes = [
            seed.wrapping_add(XXH_P1).wrapping_add(XXH_P2),
            seed.wrapping_add(XXH_P2),
            seed,
            seed.wrapping_sub(XXH_P1),
        ];
        for stripe in stripes {
            for (lane, word) in lanes.iter_mut().zip(stripe) {
                *lane = xxh_round(*lane, word);
            }
        }
        let [a, b, c, d] = lanes;
        let h = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        lanes.into_iter().fold(h, xxh_merge)
    } else {
        seed.wrapping_add(XXH_P5)
    };
    h = h.wrapping_add(len as u64);
    for word in tail_words {
        h = (h ^ xxh_round(0, word)).rotate_left(27).wrapping_mul(XXH_P1).wrapping_add(XXH_P4);
    }
    let mut bytes = tail_bytes;
    if let [a, b, c, d, rest @ ..] = bytes {
        let half = u32::from_le_bytes([*a, *b, *c, *d]) as u64;
        h = (h ^ half.wrapping_mul(XXH_P1))
            .rotate_left(23)
            .wrapping_mul(XXH_P2)
            .wrapping_add(XXH_P3);
        bytes = rest;
    }
    for &byte in bytes {
        h = (h ^ (byte as u64).wrapping_mul(XXH_P5)).rotate_left(11).wrapping_mul(XXH_P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(XXH_P2);
    h ^= h >> 29;
    h = h.wrapping_mul(XXH_P3);
    h ^ (h >> 32)
}

fn le_u64(word: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(word);
    u64::from_le_bytes(w)
}

/// XXH64 (the published 64-bit xxHash) of `bytes` under `seed`: four
/// independent 8-byte lanes, so it runs an order of magnitude faster than
/// [`Fnv1a`] on bulk input. The payload checksum of format v3 frames (seed 0) and the
/// core of [`weight_hash`].
fn xxh64(bytes: &[u8], seed: u64) -> u64 {
    let stripes = bytes.chunks_exact(32);
    let rest = stripes.remainder();
    let words = rest.chunks_exact(8);
    let tail = words.remainder();
    xxh64_words(
        seed,
        bytes.len(),
        stripes.map(|s| [le_u64(&s[..8]), le_u64(&s[8..16]), le_u64(&s[16..24]), le_u64(&s[24..])]),
        words.map(le_u64),
        tail,
    )
}

/// Two consecutive `f32`s as the little-endian `u64` their bit patterns
/// form in a byte stream.
fn f32_pair(pair: &[f32]) -> u64 {
    pair[0].to_bits() as u64 | (pair[1].to_bits() as u64) << 32
}

/// Content hash of a weight tensor: the XXH64 of its f32 bit patterns,
/// seeded with the XXH64 of the domain `mvq.weight.v2`, the rank and
/// each dim (little-endian `u64`s). Tensors that differ only by `-0.0` vs
/// `0.0`, carry different NaN payloads or share values under another
/// shape hash differently — the cache must never alias weights whose
/// compression could diverge. The values are read as `u64` pairs in
/// place, never copied into a byte buffer.
pub fn weight_hash(weight: &Tensor) -> u64 {
    let mut shape = b"mvq.weight.v2".to_vec();
    for d in std::iter::once(weight.rank()).chain(weight.dims().iter().copied()) {
        shape.extend_from_slice(&(d as u64).to_le_bytes());
    }
    let values = weight.data();
    let stripes = values.chunks_exact(8);
    let rest = stripes.remainder();
    let pairs = rest.chunks_exact(2);
    let odd = pairs.remainder().first().map(|v| v.to_bits().to_le_bytes());
    xxh64_words(
        xxh64(&shape, 0),
        4 * values.len(),
        stripes.map(|s| {
            [f32_pair(&s[..2]), f32_pair(&s[2..4]), f32_pair(&s[4..6]), f32_pair(&s[6..])]
        }),
        pairs.map(f32_pair),
        odd.as_ref().map_or(&[], |b| &b[..]),
    )
}

/// The payload checksum a frame of format `version` carries: FNV-1a for
/// v1 and v2, [`xxh64`] (seed 0) from v3 on.
fn payload_checksum(version: u16, payload: &[u8]) -> u64 {
    if version >= 3 {
        xxh64(payload, 0)
    } else {
        let mut h = Fnv1a::new();
        h.update(payload);
        h.finish()
    }
}

// ---------------------------------------------------------------------
// the field codec: one writer/reader pair for store blobs and wire payloads
// ---------------------------------------------------------------------

/// Appends little-endian fields to a payload: the one writer behind every
/// store blob and every `mvq-net` wire payload. [`Writer::frame`] seals
/// the payload under a [`BlobKind`]; [`Reader`] reads the fields back.
#[derive(Debug, Default)]
pub struct Writer(Vec<u8>);

impl Writer {
    /// An empty payload.
    pub fn new() -> Writer {
        Writer(Vec::new())
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// A `usize` as a little-endian `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// A `u32` byte length, then the UTF-8 bytes.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::Codec`] for strings whose byte length the `u32`
    /// field cannot represent (they would decode as a truncated prefix plus
    /// trailing garbage).
    pub fn str(&mut self, s: &str) -> Result<(), MvqError> {
        let len = u32::try_from(s.len()).map_err(|_| {
            MvqError::Codec(format!(
                "string of {} bytes exceeds the u32 length field of the v{FORMAT_VERSION} layout",
                s.len()
            ))
        })?;
        self.u32(len);
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }

    /// A presence byte (0 or 1), then the value through `put` when present.
    pub fn opt<T>(&mut self, v: Option<T>, put: impl FnOnce(&mut Writer, T)) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                put(self, x);
            }
        }
    }

    /// A `u8` rank, then each dim as a `u64`; fails for a rank the field
    /// cannot hold.
    fn dims(&mut self, dims: &[usize]) -> Result<(), MvqError> {
        let rank = u8::try_from(dims.len()).map_err(|_| {
            MvqError::Codec(format!(
                "tensor rank {} exceeds the u8 rank field of the v{FORMAT_VERSION} layout",
                dims.len()
            ))
        })?;
        self.u8(rank);
        for &d in dims {
            self.usize(d);
        }
        Ok(())
    }

    /// A `u8` rank, each dim as a `u64`, then every value's `f32` bit
    /// pattern.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::Codec`] for a rank the `u8` field cannot hold.
    pub fn tensor(&mut self, t: &Tensor) -> Result<(), MvqError> {
        self.0.reserve(1 + 8 * t.rank() + 4 * t.numel());
        self.dims(t.dims())?;
        self.0.extend(t.data().iter().flat_map(|v| v.to_bits().to_le_bytes()));
        Ok(())
    }

    /// Frames the payload under `kind` (see [`frame_blob`]).
    pub fn frame(self, kind: BlobKind) -> Vec<u8> {
        frame_blob(kind, self.0)
    }
}

/// Bounds-checked sequential reader over a checksum-verified payload, the
/// inverse of [`Writer`]. Every read that runs past the payload returns
/// [`MvqError::Codec`]; [`decode_blob`] hands one out and rejects trailing
/// bytes.
#[derive(Debug)]
pub struct Reader<'a> {
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

    /// `n` little-endian words of `W` bytes, bounds-checked as one run
    /// before anything is allocated for them: a count the payload cannot
    /// hold (a saturated byte length included) fails like any overrun.
    fn words<const W: usize>(
        &mut self,
        n: usize,
    ) -> Result<impl Iterator<Item = [u8; W]> + 'a, MvqError> {
        let run = self.take(n.saturating_mul(W))?;
        Ok(run.chunks_exact(W).map(|c| {
            let mut word = [0u8; W];
            word.copy_from_slice(c);
            word
        }))
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, MvqError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, MvqError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, MvqError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// A `u64` that must fit a `usize`.
    pub fn usize(&mut self) -> Result<usize, MvqError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| MvqError::Codec(format!("length {v} overflows usize")))
    }

    fn f32(&mut self) -> Result<f32, MvqError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// A `u32` byte length, then that many bytes of UTF-8.
    pub fn str(&mut self) -> Result<String, MvqError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| MvqError::Codec("string field is not UTF-8".into()))
    }

    /// A presence byte, then the value through `read` when it is 1.
    pub fn opt<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, MvqError>,
    ) -> Result<Option<T>, MvqError> {
        match self.u8()? {
            0 => Ok(None),
            1 => read(self).map(Some),
            t => Err(MvqError::Codec(format!("bad Option tag {t}"))),
        }
    }

    /// A `u8` rank and its dims, whose product must not exceed `u32::MAX`.
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

    /// A `u8` rank and its dims (at most `u32::MAX` values), then the
    /// values. The whole value run is bounds-checked in one piece before
    /// anything is allocated, so dims that promise more values than the
    /// payload holds fail without reserving memory for them.
    pub fn tensor(&mut self) -> Result<Tensor, MvqError> {
        let dims = self.dims()?;
        let numel: usize = dims.iter().product();
        let data = self.words(numel)?.map(f32::from_le_bytes).collect();
        Tensor::from_vec(dims, data).map_err(|e| MvqError::Codec(format!("tensor field: {e}")))
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

fn put_codebook(w: &mut Writer, cb: &Codebook) -> Result<(), MvqError> {
    w.tensor(cb.centers())?;
    w.opt(cb.scale(), Writer::f32);
    w.opt(cb.bits(), Writer::u32);
    Ok(())
}

fn read_codebook(r: &mut Reader<'_>) -> Result<Codebook, MvqError> {
    let centers = r.tensor()?;
    let scale = r.opt(Reader::f32)?;
    let bits = r.opt(Reader::u32)?;
    Codebook::from_raw_parts(centers, scale, bits)
        .map_err(|e| MvqError::Codec(format!("codebook: {e}")))
}

fn put_assignments(w: &mut Writer, a: &Assignments) {
    w.usize(a.len());
    for &i in a.indices() {
        w.u32(i);
    }
}

fn read_assignments(r: &mut Reader<'_>, k: usize) -> Result<Assignments, MvqError> {
    let len = r.usize()?;
    let indices = r.words(len)?.map(u32::from_le_bytes).collect();
    Assignments::new(indices, k).map_err(|e| MvqError::Codec(format!("assignments: {e}")))
}

fn put_mask(w: &mut Writer, mask: &NmMask) {
    w.usize(mask.ng());
    w.usize(mask.d());
    w.usize(mask.keep_n());
    w.usize(mask.m());
    // pack bits LSB-first, 8 per byte
    let bits = mask.bits();
    let mut byte = 0u8;
    for (i, &b) in bits.iter().enumerate() {
        if b {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            w.u8(byte);
            byte = 0;
        }
    }
    if !bits.len().is_multiple_of(8) {
        w.u8(byte);
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

fn put_scalar(w: &mut Writer, s: &ScalarQuantized) -> Result<(), MvqError> {
    w.tensor(&s.result.quantized)?;
    w.f32(s.result.scale);
    w.u32(s.result.bits);
    w.f32(s.result.sse);
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
fn put_sparse_permutation(w: &mut Writer, permutation: &[usize]) {
    let moved: Vec<(usize, usize)> =
        permutation.iter().copied().enumerate().filter(|&(p, src)| p != src).collect();
    w.usize(permutation.len());
    w.usize(moved.len());
    for (p, src) in moved {
        w.usize(p);
        w.usize(src);
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

fn put_artifact(w: &mut Writer, artifact: &CompressedArtifact) -> Result<(), MvqError> {
    match artifact {
        CompressedArtifact::Masked(m) => {
            w.u8(TAG_MASKED);
            put_codebook(w, m.codebook())?;
            put_mask(w, m.mask());
            put_assignments(w, m.assignments());
            w.dims(m.orig_dims())?;
            w.u8(grouping_tag(m.grouping()));
            w.opt(m.sse(), Writer::f32);
        }
        CompressedArtifact::Dense(v) => {
            w.u8(TAG_DENSE);
            put_codebook(w, v.codebook())?;
            put_assignments(w, v.assignments());
            w.dims(v.orig_dims())?;
            w.u8(grouping_tag(v.grouping()));
            w.usize(v.d());
            w.f32(v.sse);
        }
        CompressedArtifact::Permuted(p) => {
            w.u8(TAG_PERMUTED_SPARSE);
            put_codebook(w, p.codebook())?;
            put_assignments(w, p.assignments());
            w.dims(p.orig_dims())?;
            w.u8(grouping_tag(p.grouping()));
            w.usize(p.d());
            w.f32(p.sse);
            put_sparse_permutation(w, p.permutation());
        }
        CompressedArtifact::Scalar(s) => {
            w.u8(TAG_SCALAR);
            put_scalar(w, s)?;
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
            let sse = r.opt(Reader::f32)?;
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
                r.words(len)?
                    .map(|i| usize::try_from(u64::from_le_bytes(i)))
                    .collect::<Result<_, _>>()
                    .map_err(|_| MvqError::Codec("permutation index overflows usize".into()))?
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

/// Offset of the kind tag in the header, after the magic and version.
const KIND_OFFSET: usize = 6;

/// The kind tag a frame's header claims, read **without validating the
/// frame**: `None` when the bytes are too short to hold it or the tag is
/// unknown. A peek for routing only — whichever decoder the caller picks
/// still checks the header and checksum and may refuse the frame.
pub fn peek_kind(bytes: &[u8]) -> Option<BlobKind> {
    bytes.get(KIND_OFFSET).and_then(|&tag| BlobKind::from_tag(tag).ok())
}

/// Frames a raw payload under `kind`: magic, format version, kind tag,
/// payload length, and XXH64 payload checksum. Every store blob and every
/// `mvq-net` wire message is framed here (most through [`Writer::frame`]),
/// so one codec validates both cache and wire blobs.
pub fn frame_blob(kind: BlobKind, payload: Vec<u8>) -> Vec<u8> {
    let checksum = payload_checksum(FORMAT_VERSION, &payload);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.push(kind as u8);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum.to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Inverse of [`frame_blob`]: validates the header (magic, supported
/// version, expected `kind`, length, and the checksum the version names:
/// FNV-1a for v1 and v2, XXH64 for v3) and returns the verified payload
/// slice.
///
/// # Errors
///
/// Returns [`MvqError::Codec`] for truncated blobs, wrong magic or kind,
/// unsupported future format versions, and checksum mismatches.
pub fn unframe_blob(kind: BlobKind, bytes: &[u8]) -> Result<&[u8], MvqError> {
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
    let found = BlobKind::from_tag(bytes[KIND_OFFSET])?;
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
    if payload_checksum(version, payload) != checksum {
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
    unframe_blob(kind, bytes).map(|_| ())
}

/// Unframes a `kind` blob ([`unframe_blob`]) and decodes its verified
/// payload with `read`, rejecting trailing bytes: the one decode path of
/// every store blob and every wire message.
///
/// # Errors
///
/// Returns [`MvqError::Codec`] for bad framing, a payload that ends before
/// `read` is done or runs on after it, and whatever `read` returns.
pub fn decode_blob<T>(
    kind: BlobKind,
    bytes: &[u8],
    read: impl FnOnce(&mut Reader<'_>) -> Result<T, MvqError>,
) -> Result<T, MvqError> {
    let mut r = Reader::new(unframe_blob(kind, bytes)?);
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
        let mut w = Writer::new();
        put_artifact(&mut w, self)?;
        Ok(w.frame(Self::KIND))
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, MvqError> {
        decode_blob(Self::KIND, bytes, read_artifact)
    }
}

impl Persist for ScalarQuantized {
    const KIND: BlobKind = BlobKind::Scalar;

    fn to_bytes(&self) -> Result<Vec<u8>, MvqError> {
        let mut w = Writer::new();
        put_scalar(&mut w, self)?;
        Ok(w.frame(Self::KIND))
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, MvqError> {
        decode_blob(Self::KIND, bytes, read_scalar)
    }
}

impl Persist for LayerArtifact {
    const KIND: BlobKind = BlobKind::Layer;

    fn to_bytes(&self) -> Result<Vec<u8>, MvqError> {
        let mut w = Writer::new();
        w.usize(self.conv_index);
        put_artifact(&mut w, &self.artifact)?;
        Ok(w.frame(Self::KIND))
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, MvqError> {
        decode_blob(Self::KIND, bytes, |r| {
            let conv_index = r.usize()?;
            let artifact = read_artifact(r)?;
            Ok(LayerArtifact { conv_index, artifact })
        })
    }
}

impl Persist for ModelArtifacts {
    const KIND: BlobKind = BlobKind::Model;

    fn to_bytes(&self) -> Result<Vec<u8>, MvqError> {
        let mut w = Writer::new();
        w.str(self.algorithm)?;
        w.usize(self.layers.len());
        for layer in &self.layers {
            w.usize(layer.conv_index);
            put_artifact(&mut w, &layer.artifact)?;
        }
        w.usize(self.skipped.len());
        for &idx in &self.skipped {
            w.usize(idx);
        }
        Ok(w.frame(Self::KIND))
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, MvqError> {
        decode_blob(Self::KIND, bytes, |r| {
            let algo = r.str()?;
            let algorithm = canonical_name(&algo)
                .ok_or_else(|| MvqError::Codec(format!("unknown algorithm `{algo}`")))?;
            let n_layers = r.usize()?;
            let mut layers = Vec::new();
            for _ in 0..n_layers {
                let conv_index = r.usize()?;
                let artifact = read_artifact(r)?;
                layers.push(LayerArtifact { conv_index, artifact });
            }
            let n_skipped = r.usize()?;
            let mut skipped = Vec::new();
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
        let mut w = Writer::new();
        w.str(self.algorithm)?;
        w.u64(self.weight_hash);
        w.u64(self.spec_fingerprint);
        // the kernel travels by name (the append-only alternative to a
        // second numeric kernel-tag space in this codec)
        w.str(self.kernel.name())?;
        w.u64(self.seed);
        w.usize(self.layers.len());
        for &idx in &self.layers {
            w.usize(idx);
        }
        w.usize(self.skipped.len());
        for &idx in &self.skipped {
            w.usize(idx);
        }
        Ok(w.frame(Self::KIND))
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, MvqError> {
        decode_blob(Self::KIND, bytes, |r| {
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
            let mut layers = Vec::new();
            for _ in 0..n_layers {
                layers.push(r.usize()?);
            }
            let n_skipped = r.usize()?;
            let mut skipped = Vec::new();
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
        // NaNs with different payloads are different content
        let mut nan_a = w.clone();
        nan_a.data_mut()[1] = f32::from_bits(0x7fc0_0001);
        let mut nan_b = w.clone();
        nan_b.data_mut()[1] = f32::from_bits(0x7fc0_0002);
        assert_ne!(weight_hash(&nan_a), weight_hash(&nan_b));
        // the same values under every shape, odd value counts included
        let flat = Tensor::from_vec(vec![7], (0..7).map(|i| i as f32).collect()).unwrap();
        let column = flat.reshape(vec![7, 1]).unwrap();
        assert_ne!(weight_hash(&flat), weight_hash(&column));
        let mut last = flat.clone();
        last.data_mut()[6] = -6.0;
        assert_ne!(weight_hash(&flat), weight_hash(&last));
    }

    #[test]
    fn xxh64_matches_the_published_vectors() {
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a", 0), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
        // 39 bytes: one stripe, then the 8-byte and 4-byte tail paths and
        // three single bytes
        assert_eq!(xxh64(b"Nobody inspects the spammish repetition", 0), 0xFBCE_A83C_8A37_8BF1);
    }

    #[test]
    fn weight_hash_reads_values_as_the_xxh64_of_their_bytes() {
        // the in-place u64 pairs must be exactly the byte stream's words,
        // for every stripe/tail split of the value count
        for n in [0usize, 1, 2, 3, 7, 8, 9, 16, 17, 33] {
            let t = Tensor::from_vec(vec![n], (0..n).map(|i| i as f32 - 2.5).collect()).unwrap();
            let mut shape = b"mvq.weight.v2".to_vec();
            shape.extend_from_slice(&1u64.to_le_bytes());
            shape.extend_from_slice(&(n as u64).to_le_bytes());
            let bytes: Vec<u8> = t.data().iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
            assert_eq!(weight_hash(&t), xxh64(&bytes, xxh64(&shape, 0)), "{n} values");
        }
    }

    #[test]
    fn the_checksum_must_be_the_one_its_version_names() {
        let bytes = artifact("mvq").to_bytes().unwrap();
        let payload = &bytes[HEADER_LEN..];
        let mut fnv = Fnv1a::new();
        fnv.update(payload);
        let with = |version: u16, checksum: u64| {
            let mut blob = bytes.clone();
            blob[4..6].copy_from_slice(&version.to_le_bytes());
            blob[15..23].copy_from_slice(&checksum.to_le_bytes());
            CompressedArtifact::from_bytes(&blob).map(|_| ())
        };
        assert!(with(3, xxh64(payload, 0)).is_ok());
        assert!(with(2, fnv.finish()).is_ok());
        for (version, checksum) in [(3, fnv.finish()), (2, xxh64(payload, 0))] {
            let err = with(version, checksum).unwrap_err();
            assert!(
                matches!(&err, MvqError::Codec(msg) if msg.contains("checksum")),
                "v{version} accepted the other version's checksum: {err}"
            );
        }
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
