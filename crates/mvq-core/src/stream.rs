//! Bounded-memory streaming model compression.
//!
//! The in-memory model path ([`Compressor::compress_model_artifacts`])
//! walks the convs serially and assembles a [`ModelArtifacts`] holding
//! every compressed layer at once — fine for the paper's test CNNs,
//! hopeless for model-scale inputs. This module streams instead: a
//! **producer** materializes one layer at a time into a bounded window
//! (at most [`StreamConfig::max_layers`] layers and
//! [`StreamConfig::max_bytes`] weight bytes in flight), **workers**
//! compress admitted layers through the same [`Compressor`] the registry
//! hands out, and a **writer** spills each finished layer straight to the
//! [`ArtifactCache`] as its own [`BlobKind::Layer`] blob under a derived
//! [`CacheKey::layer_key`]. What survives in memory at the end is only a
//! [`ModelIndex`] — the conv indices, not the artifacts.
//!
//! ## Bit-identity with the in-memory oracle
//!
//! The streamed result is **bit-identical** to the in-memory path for
//! every registry algorithm: per-conv seeds are drawn serially up front
//! from `StdRng::seed_from_u64(model_key.seed)` (the same draws
//! `Compressor::compress_model_artifacts` makes), each admitted layer is
//! compressed with `StdRng::seed_from_u64(seed)`, and the skip rules
//! replicate the oracle's exactly — depthwise convs (when
//! [`Compressor::skips_depthwise`]), all-zero layers, and shapes the
//! grouping rejects. The in-memory path stays as the oracle; tests assert
//! equality of [`ModelArtifacts::fingerprint`] on small models.
//!
//! ## What the window bounds
//!
//! Admission is charged at the layer's **weight bytes** (the dominant
//! term); the charge is held through compression and released only after
//! the encoded layer blob is spilled to the cache, so weights and their
//! in-flight artifacts never accumulate beyond the window. A single
//! weight larger than the whole byte budget is admitted only into an
//! empty window (it could never fit otherwise), so such a model still
//! streams — one giant layer at a time.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex};

use mvq_nn::Sequential;
use mvq_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::error::MvqError;
use crate::pipeline::{
    canonical_name, no_compressible_layer_error, Compressor, LayerArtifact, ModelArtifacts,
    PipelineSpec,
};
use crate::store::{weight_hash, ArtifactCache, BlobKind, CacheKey, Fnv1a, ModelIndex, Persist};

/// Knobs bounding a streaming compression's in-flight working set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamConfig {
    /// Max layers materialized at once (producer-admitted, not yet
    /// spilled). Clamped to at least 1.
    pub max_layers: usize,
    /// Max in-flight weight bytes across admitted layers. A single
    /// weight above this is admitted only into an empty window.
    pub max_bytes: u64,
    /// Worker threads compressing admitted layers. Clamped to at least 1.
    pub workers: usize,
}

impl Default for StreamConfig {
    fn default() -> StreamConfig {
        StreamConfig {
            max_layers: 4,
            max_bytes: 256 << 20,
            workers: std::thread::available_parallelism().map_or(2, |n| n.get().min(8)),
        }
    }
}

impl StreamConfig {
    /// Caps the in-flight window at `layers` layers and `bytes` weight
    /// bytes.
    pub fn with_window(mut self, layers: usize, bytes: u64) -> StreamConfig {
        self.max_layers = layers;
        self.max_bytes = bytes;
        self
    }

    /// Sets the worker-thread count.
    pub fn with_workers(mut self, workers: usize) -> StreamConfig {
        self.workers = workers;
        self
    }
}

/// A point-in-time view of a streaming job's per-layer progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// Convs that reached a terminal state (compressed-and-spilled or
    /// skipped).
    pub layers_done: usize,
    /// Total convs the job will visit.
    pub layers_total: usize,
}

#[derive(Debug, Default)]
struct ProgressInner {
    done: AtomicUsize,
    total: AtomicUsize,
}

/// Shared handle observing a streaming job's progress from other threads
/// (cloned into the job; every clone sees the same counters).
#[derive(Debug, Clone, Default)]
pub struct ProgressHandle {
    inner: Arc<ProgressInner>,
}

impl ProgressHandle {
    /// A fresh handle reading `0 / 0` until a job adopts it.
    pub fn new() -> ProgressHandle {
        ProgressHandle::default()
    }

    /// The current per-layer progress.
    pub fn snapshot(&self) -> Progress {
        Progress {
            layers_done: self.inner.done.load(Ordering::Relaxed),
            layers_total: self.inner.total.load(Ordering::Relaxed),
        }
    }

    fn set_total(&self, total: usize) {
        self.inner.total.store(total, Ordering::Relaxed);
    }

    fn bump_done(&self) {
        self.inner.done.fetch_add(1, Ordering::Relaxed);
    }
}

/// What a streaming compression leaves behind: the durable index (already
/// stored under the model key) plus window telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamReport {
    /// The stored [`ModelIndex`] (layer and skipped conv indices).
    pub index: ModelIndex,
    /// High-water mark of in-flight weight bytes — in tests this is
    /// asserted against [`StreamConfig::max_bytes`].
    pub peak_window_bytes: u64,
    /// High-water mark of in-flight layers.
    pub peak_window_layers: usize,
}

/// Cheap per-conv facts the producer needs before materializing anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerMeta {
    /// Whether the conv is depthwise (`groups == in == out`).
    pub depthwise: bool,
    /// Weight bytes the layer will occupy once materialized.
    pub bytes: u64,
}

/// A pull-style stream of conv layers: metadata for every conv up front
/// (cheap — no weights), weights materialized **one at a time** on
/// demand, only after the producer has acquired window space for them.
///
/// `Send` because the producer runs on its own thread.
pub trait LayerStream: Send {
    /// Per-conv metadata, in conv order. Must be stable across calls.
    fn layer_meta(&self) -> Vec<LayerMeta>;

    /// Materializes conv `conv_index`'s weight tensor. Called at most
    /// once per conv, in ascending order.
    ///
    /// # Errors
    ///
    /// A source error here aborts the whole stream.
    fn materialize(&mut self, conv_index: usize) -> Result<Tensor, MvqError>;
}

/// [`LayerStream`] over a built [`Sequential`]: the metadata pass walks
/// the model without cloning, and each materialize re-walks to clone
/// exactly one conv's weight — so the resident set is the window's, not
/// the model's artifact set.
///
/// (The model itself is in memory — this adapter exists to keep the
/// *compression* working set bounded and to exercise the same engine the
/// synthetic model-scale sources use.)
#[derive(Debug)]
pub struct ModelLayerStream<'a> {
    model: &'a Sequential,
}

impl<'a> ModelLayerStream<'a> {
    /// Streams `model`'s convs in visit order.
    pub fn new(model: &'a Sequential) -> ModelLayerStream<'a> {
        ModelLayerStream { model }
    }
}

impl LayerStream for ModelLayerStream<'_> {
    fn layer_meta(&self) -> Vec<LayerMeta> {
        let mut meta = Vec::new();
        self.model.visit_convs(&mut |conv| {
            meta.push(LayerMeta {
                depthwise: conv.is_depthwise(),
                bytes: std::mem::size_of_val(conv.weight.value.data()) as u64,
            });
        });
        meta
    }

    fn materialize(&mut self, conv_index: usize) -> Result<Tensor, MvqError> {
        let mut out: Option<Tensor> = None;
        let mut idx = 0usize;
        self.model.visit_convs(&mut |conv| {
            if idx == conv_index {
                out = Some(conv.weight.value.clone());
            }
            idx += 1;
        });
        out.ok_or_else(|| MvqError::InvalidConfig(format!("layer stream has no conv {conv_index}")))
    }
}

/// Content hash identifying a model for streaming cache keys: a
/// domain-separated fold of every conv weight's [`weight_hash`], in conv
/// order.
pub fn model_weight_hash(model: &Sequential) -> u64 {
    let mut h = Fnv1a::new();
    h.update(b"mvq.stream.modelhash.v1");
    model.visit_convs(&mut |conv| {
        h.update_u64(weight_hash(&conv.weight.value));
    });
    h.finish()
}

/// Builds the cache key a streamed model compression is addressed by:
/// like [`CacheKey::new`] but with [`model_weight_hash`] in place of a
/// single tensor's hash. Per-layer blobs derive from this key via
/// [`CacheKey::layer_key`].
///
/// # Errors
///
/// Returns [`MvqError::InvalidConfig`] for unknown algorithm names.
pub fn model_cache_key(
    algo: &str,
    model: &Sequential,
    spec: &PipelineSpec,
    seed: u64,
) -> Result<CacheKey, MvqError> {
    let algo = canonical_name(algo).ok_or_else(|| {
        MvqError::InvalidConfig(format!("unknown compressor `{algo}` for model cache key"))
    })?;
    Ok(CacheKey {
        algo,
        weight_hash: model_weight_hash(model),
        spec_fingerprint: spec.fingerprint(),
        kernel: spec.kernel,
        seed,
    })
}

/// The bounded admission window: producer blocks here until the next
/// layer fits (or the job failed).
struct Window {
    state: Mutex<WinState>,
    space: Condvar,
    max_layers: usize,
    max_bytes: u64,
}

struct WinState {
    layers: usize,
    bytes: u64,
    peak_layers: usize,
    peak_bytes: u64,
    failed: bool,
}

impl Window {
    fn new(config: &StreamConfig) -> Window {
        Window {
            state: Mutex::new(WinState {
                layers: 0,
                bytes: 0,
                peak_layers: 0,
                peak_bytes: 0,
                failed: false,
            }),
            space: Condvar::new(),
            max_layers: config.max_layers.max(1),
            max_bytes: config.max_bytes,
        }
    }

    /// Blocks until `bytes` fits (an oversized charge fits only an empty
    /// window). Returns `false` when the job has failed — the producer
    /// must stop.
    fn acquire(&self, bytes: u64) -> bool {
        let mut st = self.state.lock().expect("stream lock");
        loop {
            if st.failed {
                return false;
            }
            let fits = st.layers < self.max_layers
                && (st.bytes + bytes <= self.max_bytes || st.layers == 0);
            if fits {
                st.layers += 1;
                st.bytes += bytes;
                st.peak_layers = st.peak_layers.max(st.layers);
                st.peak_bytes = st.peak_bytes.max(st.bytes);
                return true;
            }
            st = self.space.wait(st).expect("stream lock");
        }
    }

    fn release(&self, bytes: u64) {
        let mut st = self.state.lock().expect("stream lock");
        st.layers = st.layers.saturating_sub(1);
        st.bytes = st.bytes.saturating_sub(bytes);
        drop(st);
        self.space.notify_all();
    }

    /// Marks the job failed and wakes a producer blocked on admission.
    fn fail(&self) {
        self.state.lock().expect("stream lock").failed = true;
        self.space.notify_all();
    }

    fn peaks(&self) -> (usize, u64) {
        let st = self.state.lock().expect("stream lock");
        (st.peak_layers, st.peak_bytes)
    }
}

/// An admitted layer on its way to a worker.
struct Task {
    conv_index: usize,
    seed: u64,
    window_bytes: u64,
    weight: Tensor,
}

/// A layer's terminal (or fatal) outcome on its way to the writer.
/// `window_bytes` is the admission charge the writer must release
/// (0 when the layer never entered the window).
enum LayerResult {
    Done { conv_index: usize, window_bytes: u64, blob: Vec<u8> },
    Skipped { conv_index: usize, window_bytes: u64 },
    Failed { conv_index: usize, window_bytes: u64, error: MvqError },
}

/// Streams `source` through `comp`, spilling each compressed layer to
/// `cache` as a [`BlobKind::Layer`] blob under
/// `model_key.layer_key(conv_index)` and finishing with a
/// [`BlobKind::ModelIndex`] under `model_key` itself. Bit-identical to
/// the in-memory oracle (see the module docs); resident weight bytes
/// never exceed the window `config` bounds.
///
/// # Errors
///
/// Returns [`MvqError::InvalidConfig`] when `model_key.algo` is not
/// `comp`'s name or no layer was compressible, and propagates the
/// lowest-conv-index compression error and any cache/codec failure.
pub fn stream_compress(
    comp: &dyn Compressor,
    source: &mut dyn LayerStream,
    cache: &ArtifactCache,
    model_key: &CacheKey,
    config: &StreamConfig,
    progress: Option<&ProgressHandle>,
) -> Result<StreamReport, MvqError> {
    if comp.name() != model_key.algo {
        return Err(MvqError::InvalidConfig(format!(
            "model key addresses `{}` but the compressor is `{}`",
            model_key.algo,
            comp.name()
        )));
    }
    let meta = source.layer_meta();
    let total = meta.len();
    // One seed per conv, drawn serially up front — the exact draws the
    // in-memory path makes, so per-layer RNGs agree bit-for-bit.
    let mut rng = StdRng::seed_from_u64(model_key.seed);
    let seeds: Vec<u64> = (0..total).map(|_| rng.next_u64()).collect();
    if let Some(p) = progress {
        p.set_total(total);
    }
    let skip_depthwise = comp.skips_depthwise();
    let window = Window::new(config);
    let workers = config.workers.max(1);

    let (task_tx, task_rx) = mpsc::channel::<Task>();
    let (res_tx, res_rx) = mpsc::channel::<LayerResult>();
    let task_rx = Mutex::new(task_rx);

    let (mut layers, skipped, failure) = std::thread::scope(|s| {
        for _ in 0..workers {
            let res_tx = res_tx.clone();
            let task_rx = &task_rx;
            let window = &window;
            s.spawn(move || worker_loop(comp, task_rx, &res_tx, window));
        }
        {
            let res_tx = res_tx.clone();
            let window = &window;
            let meta = &meta;
            let seeds = &seeds;
            s.spawn(move || {
                producer_loop(source, meta, seeds, skip_depthwise, window, &task_tx, &res_tx);
            });
        }
        drop(res_tx);
        write_results(&res_rx, cache, model_key, &window, progress)
    });

    if let Some((_, error)) = failure {
        return Err(error);
    }
    layers.sort_unstable();
    let mut skipped = skipped;
    skipped.sort_unstable();
    if layers.is_empty() {
        return Err(no_compressible_layer_error(comp.name(), &skipped));
    }
    let index = ModelIndex {
        algorithm: comp.name(),
        weight_hash: model_key.weight_hash,
        spec_fingerprint: model_key.spec_fingerprint,
        kernel: model_key.kernel,
        seed: model_key.seed,
        layers,
        skipped,
    };
    let bytes: Arc<[u8]> = index.to_bytes()?.into();
    cache.put_raw_kind(model_key, BlobKind::ModelIndex, bytes)?;
    let (peak_layers, peak_bytes) = window.peaks();
    let registry = cache.registry();
    registry.gauge(mvq_obs::names::STREAM_WINDOW_BYTES_PEAK).record_peak(peak_bytes);
    registry.gauge(mvq_obs::names::STREAM_WINDOW_LAYERS_PEAK).record_peak(peak_layers as u64);
    Ok(StreamReport { index, peak_window_bytes: peak_bytes, peak_window_layers: peak_layers })
}

/// [`stream_compress`] over a built model via [`ModelLayerStream`].
///
/// # Errors
///
/// As [`stream_compress`].
pub fn stream_compress_model(
    comp: &dyn Compressor,
    model: &Sequential,
    cache: &ArtifactCache,
    model_key: &CacheKey,
    config: &StreamConfig,
    progress: Option<&ProgressHandle>,
) -> Result<StreamReport, MvqError> {
    let mut source = ModelLayerStream::new(model);
    stream_compress(comp, &mut source, cache, model_key, config, progress)
}

/// Reassembles a streamed compression from the cache: loads the
/// [`ModelIndex`] under `model_key`, then every layer blob it references.
/// Returns `Ok(None)` when the index is absent **or any referenced layer
/// blob has been evicted** — a partial model is a miss, not an error, so
/// callers fall back to recompressing.
///
/// # Errors
///
/// Returns [`MvqError::Codec`] for corrupt blobs and for an index that
/// does not answer for `model_key` (wrong identity fields or a layer blob
/// holding a different conv index).
pub fn load_streamed_model(
    cache: &ArtifactCache,
    model_key: &CacheKey,
) -> Result<Option<ModelArtifacts>, MvqError> {
    let Some(bytes) = cache.get_raw_kind(model_key, BlobKind::ModelIndex)? else {
        return Ok(None);
    };
    let index = ModelIndex::from_bytes(&bytes)?;
    if index.algorithm != model_key.algo
        || index.weight_hash != model_key.weight_hash
        || index.spec_fingerprint != model_key.spec_fingerprint
        || index.kernel != model_key.kernel
        || index.seed != model_key.seed
    {
        return Err(MvqError::Codec(format!(
            "model index does not answer for its key (stored for `{}` hash {:016x})",
            index.algorithm, index.weight_hash
        )));
    }
    let mut layers = Vec::with_capacity(index.layers.len());
    for &conv_index in &index.layers {
        let layer_key = model_key.layer_key(conv_index);
        let Some(blob) = cache.get_raw_kind(&layer_key, BlobKind::Layer)? else {
            return Ok(None);
        };
        let layer = LayerArtifact::from_bytes(&blob)?;
        if layer.conv_index != conv_index {
            return Err(MvqError::Codec(format!(
                "layer blob for conv {conv_index} holds conv {}",
                layer.conv_index
            )));
        }
        layers.push(layer);
    }
    Ok(Some(ModelArtifacts { algorithm: index.algorithm, layers, skipped: index.skipped }))
}

/// Producer: admits layers into the window in conv order, materializing
/// each only after its space is held. Depthwise skips never materialize;
/// all-zero skips release immediately via the writer.
fn producer_loop(
    source: &mut dyn LayerStream,
    meta: &[LayerMeta],
    seeds: &[u64],
    skip_depthwise: bool,
    window: &Window,
    task_tx: &Sender<Task>,
    res_tx: &Sender<LayerResult>,
) {
    for (conv_index, m) in meta.iter().enumerate() {
        if skip_depthwise && m.depthwise {
            if res_tx.send(LayerResult::Skipped { conv_index, window_bytes: 0 }).is_err() {
                return;
            }
            continue;
        }
        if !window.acquire(m.bytes) {
            return; // job failed elsewhere
        }
        let weight = match source.materialize(conv_index) {
            Ok(w) => w,
            Err(error) => {
                window.fail();
                let _ =
                    res_tx.send(LayerResult::Failed { conv_index, window_bytes: m.bytes, error });
                return;
            }
        };
        // dead layer: nothing to cluster or quantize (oracle rule)
        if weight.data().iter().all(|&x| x == 0.0) {
            if res_tx.send(LayerResult::Skipped { conv_index, window_bytes: m.bytes }).is_err() {
                return;
            }
            continue;
        }
        let task = Task { conv_index, seed: seeds[conv_index], window_bytes: m.bytes, weight };
        if task_tx.send(task).is_err() {
            // all workers are gone (job failed); our admission charge is
            // unreleasable but the stream is over anyway
            return;
        }
    }
}

/// Worker: compresses admitted layers and encodes them off the writer's
/// critical path. Shape rejections are skips (oracle rule); other errors
/// fail the job.
fn worker_loop(
    comp: &dyn Compressor,
    tasks: &Mutex<Receiver<Task>>,
    out: &Sender<LayerResult>,
    window: &Window,
) {
    loop {
        let task = {
            let rx = tasks.lock().expect("stream lock");
            match rx.recv() {
                Ok(task) => task,
                Err(_) => return, // producer done
            }
        };
        let Task { conv_index, seed, window_bytes, weight } = task;
        let mut layer_rng = StdRng::seed_from_u64(seed);
        let msg = match comp.compress_matrix(&weight, &mut layer_rng) {
            Ok(artifact) => {
                drop(weight);
                match (LayerArtifact { conv_index, artifact }).to_bytes() {
                    Ok(blob) => LayerResult::Done { conv_index, window_bytes, blob },
                    Err(error) => {
                        window.fail();
                        LayerResult::Failed { conv_index, window_bytes, error }
                    }
                }
            }
            Err(MvqError::IncompatibleShape { .. }) => {
                LayerResult::Skipped { conv_index, window_bytes }
            }
            Err(error) => {
                window.fail();
                LayerResult::Failed { conv_index, window_bytes, error }
            }
        };
        if out.send(msg).is_err() {
            return;
        }
    }
}

/// Writer (runs on the calling thread): spills finished layers to the
/// cache, releases their window charges, and folds outcomes into the
/// index. Keeps draining after a failure so producer/workers never block
/// forever; the lowest-conv-index error wins.
fn write_results(
    res_rx: &Receiver<LayerResult>,
    cache: &ArtifactCache,
    model_key: &CacheKey,
    window: &Window,
    progress: Option<&ProgressHandle>,
) -> (Vec<usize>, Vec<usize>, Option<(usize, MvqError)>) {
    let mut layers: Vec<usize> = Vec::new();
    let mut skipped: Vec<usize> = Vec::new();
    let mut failure: Option<(usize, MvqError)> = None;
    let record = |failure: &mut Option<(usize, MvqError)>, conv_index: usize, error: MvqError| {
        if failure.as_ref().is_none_or(|(idx, _)| conv_index < *idx) {
            *failure = Some((conv_index, error));
        }
    };
    while let Ok(msg) = res_rx.recv() {
        match msg {
            LayerResult::Done { conv_index, window_bytes, blob } => {
                if failure.is_none() {
                    let layer_key = model_key.layer_key(conv_index);
                    match cache.put_raw_kind(&layer_key, BlobKind::Layer, blob.into()) {
                        Ok(()) => {
                            layers.push(conv_index);
                            if let Some(p) = progress {
                                p.bump_done();
                            }
                        }
                        Err(error) => {
                            window.fail();
                            record(&mut failure, conv_index, error);
                        }
                    }
                }
                window.release(window_bytes);
            }
            LayerResult::Skipped { conv_index, window_bytes } => {
                if window_bytes > 0 {
                    window.release(window_bytes);
                }
                skipped.push(conv_index);
                if let Some(p) = progress {
                    p.bump_done();
                }
            }
            LayerResult::Failed { conv_index, window_bytes, error } => {
                window.fail();
                if window_bytes > 0 {
                    window.release(window_bytes);
                }
                record(&mut failure, conv_index, error);
            }
        }
    }
    (layers, skipped, failure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{by_name, ALGORITHM_NAMES};
    use crate::store::CacheBudget;
    use mvq_nn::models::{mobilenet_v1_lite, tiny_cnn};
    use mvq_tensor::kaiming_normal;

    fn spec() -> PipelineSpec {
        PipelineSpec { k: 8, ..PipelineSpec::default() }
    }

    fn mem_cache() -> ArtifactCache {
        ArtifactCache::in_memory()
    }

    /// Satellite: the streamed path is bit-identical to the in-memory
    /// oracle for every registry algorithm — byte-identical layer blobs
    /// and an identical `ModelArtifacts` fingerprint. The oracle is a
    /// serial walk, so the default multi-worker stream also pins
    /// layer-parallel execution to it.
    #[test]
    fn streamed_matches_in_memory_oracle_for_every_algorithm() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = tiny_cnn(4, 8, &mut rng);
        let spec = spec();
        for name in ALGORITHM_NAMES {
            let comp = by_name(name, &spec).unwrap();
            let mut oracle_rng = StdRng::seed_from_u64(17);
            let oracle = comp.compress_model_artifacts(&model, &mut oracle_rng).unwrap();

            for config in [StreamConfig::default(), StreamConfig::default().with_workers(1)] {
                let workers = config.workers;
                let cache = mem_cache();
                let key = model_cache_key(name, &model, &spec, 17).unwrap();
                let report =
                    stream_compress_model(comp.as_ref(), &model, &cache, &key, &config, None)
                        .unwrap();
                let loaded = load_streamed_model(&cache, &key).unwrap().unwrap();

                assert_eq!(
                    loaded.fingerprint().unwrap(),
                    oracle.fingerprint().unwrap(),
                    "streamed `{name}` ({workers} workers) diverges from the in-memory oracle"
                );
                // layer blobs are byte-identical to an encode of the oracle's
                for layer in &oracle.layers {
                    let blob = cache
                        .get_raw_kind(&key.layer_key(layer.conv_index), BlobKind::Layer)
                        .unwrap()
                        .unwrap();
                    let conv = layer.conv_index;
                    assert_eq!(&blob[..], &layer.to_bytes().unwrap()[..], "conv {conv}");
                }
                assert_eq!(report.index.layers.len(), oracle.layers.len());
                assert_eq!(report.index.skipped, oracle.skipped);
            }
        }
    }

    /// Depthwise handling follows the compressor: pvq compresses
    /// depthwise convs, codebook methods skip them — same as the oracle.
    #[test]
    fn depthwise_skips_follow_the_compressor() {
        let mut rng = StdRng::seed_from_u64(5);
        let model = mobilenet_v1_lite(4, &mut rng);
        let spec = spec();
        for name in ["mvq", "pvq"] {
            let comp = by_name(name, &spec).unwrap();
            let mut oracle_rng = StdRng::seed_from_u64(9);
            let oracle = comp.compress_model_artifacts(&model, &mut oracle_rng).unwrap();
            let cache = mem_cache();
            let key = model_cache_key(name, &model, &spec, 9).unwrap();
            stream_compress_model(
                comp.as_ref(),
                &model,
                &cache,
                &key,
                &StreamConfig::default(),
                None,
            )
            .unwrap();
            let loaded = load_streamed_model(&cache, &key).unwrap().unwrap();
            assert_eq!(loaded.fingerprint().unwrap(), oracle.fingerprint().unwrap());
            assert_eq!(loaded.skipped, oracle.skipped);
        }
    }

    /// A synthetic many-layer stream: weights generated one at a time on
    /// materialize, never all resident.
    struct SyntheticStream {
        dims: Vec<Vec<usize>>,
        seed: u64,
    }

    impl LayerStream for SyntheticStream {
        fn layer_meta(&self) -> Vec<LayerMeta> {
            self.dims
                .iter()
                .map(|d| LayerMeta {
                    depthwise: false,
                    bytes: (d.iter().product::<usize>() * 4) as u64,
                })
                .collect()
        }

        fn materialize(&mut self, conv_index: usize) -> Result<Tensor, MvqError> {
            let dims = self.dims[conv_index].clone();
            let fan_in: usize = dims[1..].iter().product();
            let mut rng = StdRng::seed_from_u64(self.seed ^ conv_index as u64);
            Ok(kaiming_normal(dims, fan_in, &mut rng))
        }
    }

    /// The window bound holds: peak in-flight bytes never exceed the
    /// configured budget when every layer fits it.
    #[test]
    fn window_bound_is_respected() {
        let dims = vec![vec![32, 16]; 12];
        let layer_bytes = (32 * 16 * 4) as u64;
        let mut source = SyntheticStream { dims, seed: 41 };
        let cache = mem_cache();
        let spec = spec();
        let comp = by_name("mvq", &spec).unwrap();
        let key = CacheKey {
            algo: "mvq",
            weight_hash: 0xfeed,
            spec_fingerprint: spec.fingerprint(),
            kernel: spec.kernel,
            seed: 7,
        };
        let config = StreamConfig::default().with_window(3, 2 * layer_bytes).with_workers(4);
        let report =
            stream_compress(comp.as_ref(), &mut source, &cache, &key, &config, None).unwrap();
        assert_eq!(report.index.layers.len(), 12);
        assert!(report.peak_window_bytes <= 2 * layer_bytes);
        assert!(report.peak_window_layers <= 3);
        assert!(report.peak_window_bytes > 0);
    }

    /// Acceptance: a synthetic model 10× the size of resnet18-lite
    /// streams to completion under a fixed window a fraction of the
    /// model's weight bytes, and the in-test peak working set respects
    /// the configured bound.
    #[test]
    fn ten_resnet18s_stream_under_a_fixed_window() {
        let mut rng = StdRng::seed_from_u64(2);
        let proto = mvq_nn::models::resnet18_lite(8, &mut rng);
        let mut dims: Vec<Vec<usize>> = Vec::new();
        proto.visit_convs(&mut |conv| dims.push(conv.weight.value.dims().to_vec()));
        let dims: Vec<Vec<usize>> = (0..10).flat_map(|_| dims.iter().cloned()).collect::<Vec<_>>();
        let total_bytes: u64 = dims.iter().map(|d| (d.iter().product::<usize>() * 4) as u64).sum();
        let largest: u64 =
            dims.iter().map(|d| (d.iter().product::<usize>() * 4) as u64).max().unwrap();
        let num_layers = dims.len();
        let mut source = SyntheticStream { dims, seed: 47 };

        // window: 2 largest layers, far below the whole model
        let window_bytes = 2 * largest;
        assert!(window_bytes * 4 < total_bytes, "window is not a meaningful bound");
        let spec = PipelineSpec { k: 8, d: 8, keep_n: 2, m: 8, ..PipelineSpec::default() };
        let comp = by_name("mvq", &spec).unwrap();
        let cache = mem_cache();
        let key = CacheKey {
            algo: "mvq",
            weight_hash: 0x10e5,
            spec_fingerprint: spec.fingerprint(),
            kernel: spec.kernel,
            seed: 13,
        };
        let progress = ProgressHandle::new();
        let config = StreamConfig::default().with_window(3, window_bytes);
        let report =
            stream_compress(comp.as_ref(), &mut source, &cache, &key, &config, Some(&progress))
                .unwrap();
        assert!(report.peak_window_bytes <= window_bytes, "window bound violated");
        assert!(report.peak_window_layers <= 3);
        assert_eq!(report.index.layers.len() + report.index.skipped.len(), num_layers);
        assert!(!report.index.layers.is_empty());
        let snap = progress.snapshot();
        assert_eq!(snap, Progress { layers_done: num_layers, layers_total: num_layers });
        assert!(load_streamed_model(&cache, &key).unwrap().is_some());
    }

    /// A single weight larger than the byte budget still streams — alone
    /// in an otherwise-empty window.
    #[test]
    fn oversized_layer_is_admitted_alone() {
        let dims = vec![vec![32, 16], vec![64, 16], vec![32, 16]];
        let big_bytes = (64 * 16 * 4) as u64;
        let mut source = SyntheticStream { dims, seed: 43 };
        let cache = mem_cache();
        let spec = spec();
        let comp = by_name("mvq", &spec).unwrap();
        let key = CacheKey {
            algo: "mvq",
            weight_hash: 0xbead,
            spec_fingerprint: spec.fingerprint(),
            kernel: spec.kernel,
            seed: 7,
        };
        // budget below the big layer's size
        let config = StreamConfig::default().with_window(4, big_bytes - 1);
        let report =
            stream_compress(comp.as_ref(), &mut source, &cache, &key, &config, None).unwrap();
        assert_eq!(report.index.layers.len(), 3);
        // the oversized layer was alone when admitted
        assert_eq!(report.peak_window_bytes, big_bytes);
    }

    /// Progress counts every conv reaching a terminal state, and the
    /// totals survive the job.
    #[test]
    fn progress_reaches_total() {
        let mut rng = StdRng::seed_from_u64(5);
        let model = mobilenet_v1_lite(4, &mut rng);
        let spec = spec();
        let comp = by_name("mvq", &spec).unwrap();
        let cache = mem_cache();
        let key = model_cache_key("mvq", &model, &spec, 11).unwrap();
        let progress = ProgressHandle::new();
        assert_eq!(progress.snapshot(), Progress { layers_done: 0, layers_total: 0 });
        stream_compress_model(
            comp.as_ref(),
            &model,
            &cache,
            &key,
            &StreamConfig::default(),
            Some(&progress),
        )
        .unwrap();
        let snap = progress.snapshot();
        assert_eq!(snap.layers_total, model.num_convs());
        assert_eq!(snap.layers_done, snap.layers_total);
    }

    /// An evicted layer blob turns the whole model into a miss — never a
    /// partial `ModelArtifacts`.
    #[test]
    fn missing_layer_blob_is_a_model_miss() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = tiny_cnn(4, 8, &mut rng);
        let spec = spec();
        let comp = by_name("mvq", &spec).unwrap();
        let cache = mem_cache();
        let key = model_cache_key("mvq", &model, &spec, 17).unwrap();
        stream_compress_model(comp.as_ref(), &model, &cache, &key, &StreamConfig::default(), None)
            .unwrap();
        assert!(load_streamed_model(&cache, &key).unwrap().is_some());

        // same index, but a cache that never saw the layer blobs
        let index_bytes = cache.get_raw_kind(&key, BlobKind::ModelIndex).unwrap().unwrap();
        let empty = mem_cache();
        empty.put_raw_kind(&key, BlobKind::ModelIndex, index_bytes).unwrap();
        assert!(load_streamed_model(&empty, &key).unwrap().is_none());
    }

    /// An index stored under a mismatched key is corruption, not a hit.
    #[test]
    fn index_for_a_different_key_is_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = tiny_cnn(4, 8, &mut rng);
        let spec = spec();
        let comp = by_name("mvq", &spec).unwrap();
        let cache = mem_cache();
        let key = model_cache_key("mvq", &model, &spec, 17).unwrap();
        stream_compress_model(comp.as_ref(), &model, &cache, &key, &StreamConfig::default(), None)
            .unwrap();
        let index_bytes = cache.get_raw_kind(&key, BlobKind::ModelIndex).unwrap().unwrap();
        let other = CacheKey { seed: 18, ..key.clone() };
        let cross = mem_cache();
        cross.put_raw_kind(&other, BlobKind::ModelIndex, index_bytes).unwrap();
        let err = load_streamed_model(&cross, &other).unwrap_err();
        assert!(matches!(err, MvqError::Codec(_)), "got {err:?}");
    }

    /// The "nothing compressible" failure matches the oracle's.
    #[test]
    fn all_zero_model_fails_like_the_oracle() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = tiny_cnn(2, 8, &mut rng);
        model.visit_convs_mut(&mut |conv| {
            let zeros = vec![0.0; conv.weight.value.data().len()];
            conv.weight.value = Tensor::from_vec(conv.weight.value.dims().to_vec(), zeros).unwrap();
        });
        let spec = spec();
        let comp = by_name("mvq", &spec).unwrap();
        let cache = mem_cache();
        let key = model_cache_key("mvq", &model, &spec, 17).unwrap();
        let err = stream_compress_model(
            comp.as_ref(),
            &model,
            &cache,
            &key,
            &StreamConfig::default(),
            None,
        )
        .unwrap_err();
        let mut oracle_rng = StdRng::seed_from_u64(17);
        let oracle_err = comp.compress_model_artifacts(&model, &mut oracle_rng).unwrap_err();
        assert_eq!(format!("{err}"), format!("{oracle_err}"));
        // no index was left behind
        assert!(cache.get_raw_kind(&key, BlobKind::ModelIndex).unwrap().is_none());
    }

    /// Streaming works against a disk-backed, budgeted cache: layers
    /// spill and reload through the durable path.
    #[test]
    fn streams_through_a_disk_backed_cache() {
        let dir = std::env::temp_dir().join(format!("mvq-stream-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut rng = StdRng::seed_from_u64(3);
        let model = tiny_cnn(4, 8, &mut rng);
        let spec = spec();
        let comp = by_name("mvq", &spec).unwrap();
        let key = model_cache_key("mvq", &model, &spec, 17).unwrap();
        {
            let cache = ArtifactCache::with_dir_and_budget(&dir, CacheBudget::default()).unwrap();
            stream_compress_model(
                comp.as_ref(),
                &model,
                &cache,
                &key,
                &StreamConfig::default(),
                None,
            )
            .unwrap();
        }
        // a fresh cache over the same dir reassembles the model
        let reopened = ArtifactCache::with_dir(&dir).unwrap();
        let loaded = load_streamed_model(&reopened, &key).unwrap().unwrap();
        let mut oracle_rng = StdRng::seed_from_u64(17);
        let oracle = comp.compress_model_artifacts(&model, &mut oracle_rng).unwrap();
        assert_eq!(loaded.fingerprint().unwrap(), oracle.fingerprint().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
