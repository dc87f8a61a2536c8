//! The streamed model: a ResNet-18-lite conv stack repeated many times,
//! synthesized layer by layer and streamed through `mvq` into a
//! disk-backed cache.

use std::path::{Path, PathBuf};
use std::time::Instant;

use mvq_core::pipeline::{by_name, Compressor, PipelineSpec};
use mvq_core::store::{ArtifactCache, CacheKey};
use mvq_core::{
    load_streamed_model, stream_compress, LayerMeta, LayerStream, MvqError, StreamConfig,
};
use mvq_tensor::Tensor;

use crate::inputs::{conv_weight, domain, mix, resnet18_conv_dims};

/// Window cap in layers.
pub const WINDOW_LAYERS: usize = 3;

/// Copies of the conv stack in one streamed model (300 layers).
pub const MODEL_REPS: usize = 20;

/// The spec the stream uses: a light `mvq` point (k=8, d=8, 2:8) so the
/// window, the disk spill and the layer fan-out carry a visible share of
/// each layer's cost.
pub fn stream_spec() -> PipelineSpec {
    PipelineSpec { k: 8, d: 8, keep_n: 2, m: 8, ..PipelineSpec::default() }
}

/// Everything a pass needs, built once per run.
pub struct StreamInputs {
    /// Conv shapes of the whole model, in stream order.
    pub dims: Vec<Vec<usize>>,
    /// Workload seed.
    pub seed: u64,
    /// The `mvq` compressor under [`stream_spec`].
    pub comp: Box<dyn Compressor>,
    /// Window and worker settings.
    pub config: StreamConfig,
    /// Directory the per-pass caches live under.
    pub root: PathBuf,
}

impl StreamInputs {
    /// Prepares a `reps`-fold conv stack whose caches live under `root`.
    ///
    /// # Errors
    ///
    /// An invalid spec or an unusable `root`.
    pub fn prepare(seed: u64, reps: usize, root: &Path) -> Result<StreamInputs, String> {
        let proto = resnet18_conv_dims();
        let dims: Vec<Vec<usize>> = (0..reps).flat_map(|_| proto.iter().cloned()).collect();
        let largest = dims.iter().map(|d| layer_bytes(d)).max().ok_or("empty model")?;
        let config = StreamConfig::default().with_window(WINDOW_LAYERS, 2 * largest);
        let comp = by_name("mvq", &stream_spec()).map_err(|e| e.to_string())?;
        std::fs::create_dir_all(root).map_err(|e| format!("{}: {e}", root.display()))?;
        Ok(StreamInputs { dims, seed, comp, config, root: root.to_path_buf() })
    }

    /// The weight of conv `index` (deterministic in the seed).
    pub fn weight(&self, index: usize) -> Tensor {
        conv_weight(&self.dims[index], mix(self.seed, domain::STREAM, index as u64))
    }

    /// The model key of pass `pass`.
    pub fn key(&self, pass: usize) -> CacheKey {
        let spec = stream_spec();
        CacheKey {
            algo: "mvq",
            weight_hash: mix(self.seed, domain::STREAM, u64::MAX),
            spec_fingerprint: spec.fingerprint(),
            kernel: spec.kernel,
            seed: mix(self.seed, domain::STREAM, pass as u64),
        }
    }

    fn pass_dir(&self, pass: usize) -> PathBuf {
        self.root.join(format!("pass-{pass}"))
    }
}

fn layer_bytes(dims: &[usize]) -> u64 {
    (dims.iter().product::<usize>() * 4) as u64
}

/// Synthesizes each conv weight on demand.
struct Source<'a> {
    inputs: &'a StreamInputs,
}

impl LayerStream for Source<'_> {
    fn layer_meta(&self) -> Vec<LayerMeta> {
        self.inputs
            .dims
            .iter()
            .map(|d| LayerMeta { depthwise: false, bytes: layer_bytes(d) })
            .collect()
    }

    fn materialize(&mut self, conv_index: usize) -> Result<Tensor, MvqError> {
        Ok(self.inputs.weight(conv_index))
    }
}

/// What the passes observed.
#[derive(Debug, Default)]
pub struct StreamLog {
    /// Layers per second of each completed pass.
    pub pass_rate: Vec<f64>,
    /// Highest window occupancy in layers, over every pass.
    pub peak_layers: usize,
    /// Highest window occupancy in weight bytes, over every pass.
    pub peak_bytes: u64,
    /// Layers attempted.
    pub attempted: u64,
    /// Layers in passes that failed.
    pub failed: u64,
    /// Passes whose report broke the window bound or missed a layer.
    pub wrong: u64,
    /// Passes started; the last one's cache is kept for the reload check.
    pub passes: usize,
}

/// Streams the model `passes` times, or with `deadline` until the first
/// pass that ends after it, appending to `log`. Each pass writes into a
/// fresh disk-backed cache; only the last pass's directory is kept.
pub fn run_passes(
    inputs: &StreamInputs,
    passes: usize,
    deadline: Option<Instant>,
    log: &mut StreamLog,
) {
    let total = inputs.dims.len() as u64;
    for k in 0.. {
        let done = match deadline {
            Some(d) => k > 0 && Instant::now() >= d,
            None => k >= passes,
        };
        if done {
            break;
        }
        let pass = log.passes;
        if let Some(prev) = pass.checked_sub(1) {
            let _ = std::fs::remove_dir_all(inputs.pass_dir(prev));
        }
        let dir = inputs.pass_dir(pass);
        let _ = std::fs::remove_dir_all(&dir);
        log.attempted += total;
        log.passes += 1;
        let Ok(cache) = ArtifactCache::with_dir(&dir) else {
            log.failed += total;
            continue;
        };
        let mut source = Source { inputs };
        let key = inputs.key(pass);
        let t0 = Instant::now();
        let result =
            stream_compress(inputs.comp.as_ref(), &mut source, &cache, &key, &inputs.config, None);
        let secs = t0.elapsed().as_secs_f64();
        match result {
            Ok(report) => {
                log.pass_rate.push(total as f64 / secs);
                log.peak_layers = log.peak_layers.max(report.peak_window_layers);
                log.peak_bytes = log.peak_bytes.max(report.peak_window_bytes);
                if report.index.layers.len() as u64 != total
                    || report.peak_window_layers > inputs.config.max_layers
                    || report.peak_window_bytes > inputs.config.max_bytes
                {
                    log.wrong += 1;
                }
            }
            Err(_) => log.failed += total,
        }
    }
}

/// Reloads the last pass from disk through a fresh cache and checks that
/// every layer comes back. Returns the number of layers missing.
pub fn reload_check(inputs: &StreamInputs, log: &StreamLog) -> u64 {
    let total = inputs.dims.len() as u64;
    let Some(pass) = log.passes.checked_sub(1) else { return total };
    let reloaded = ArtifactCache::with_dir(inputs.pass_dir(pass))
        .and_then(|cache| load_streamed_model(&cache, &inputs.key(pass)));
    match reloaded {
        Ok(Some(arts)) => total.saturating_sub(arts.layers.len() as u64),
        _ => total,
    }
}
