//! One benchmark run: set up, measure the workload's timed window, fill
//! in the metrics its traffic does not produce with fixed-size probes,
//! check every output against its oracle, and (traced runs) replay.

use std::borrow::Cow;
use std::path::Path;
use std::time::{Duration, Instant};

use mvq_obs::{names, RegistrySnapshot};
use mvq_tensor::Tensor;

use crate::check::{count_mismatches, small_model_stream_matches, Job};
use crate::host;
use crate::inputs::wire_spec;
use crate::json::Json;
use crate::replay::{self, ReplayCounts, COMPRESS_SPANS};
use crate::stats::{median, quartiles, Ratio, Summary};
use crate::streaming::{self, stream_spec, StreamInputs, StreamLog};
use crate::trace::Tracer;
use crate::wire::{self, HitLog, MissLog, Stack, Stop};

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warm hits over two connections.
    HitWire,
    /// Never-seen jobs on one connection, warm hits on the other.
    MixedWire,
    /// A repeated conv stack streamed into a disk-backed cache.
    StreamModel,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [Workload::HitWire, Workload::MixedWire, Workload::StreamModel];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HitWire => "hit-wire",
            Workload::MixedWire => "mixed-wire",
            Workload::StreamModel => "stream-model",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Segments the timed window is split into. One unit of every probe a
/// workload needs runs after each, so the probes sample the whole run
/// rather than one stretch of it (a shared host's speed can drift by tens
/// of percent over seconds).
const SEGMENTS: usize = 4;

/// Shortest miss probe: it runs whole cycles of never-seen jobs until
/// the first that ends this long after it started, so the hits sent beside
/// it (the hit figures of `stream-model`) cover at least this much time
/// however fast a cycle gets.
const PROBE: Duration = Duration::from_secs(1);

/// Setups per run; `setup_s` is their median. Each is a complete setup
/// and ends where the first timed request would be sent.
const SETUP_REPS: usize = 3;

/// Input and probe sizes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Compressible convs in the warm set.
    pub warm_layers: usize,
    /// Conv stacks in the streamed model.
    pub model_reps: usize,
    /// Passes over the warm set in the hit replay.
    pub hit_replay_rounds: usize,
}

impl Sizes {
    /// The sizes of a measured run.
    pub const FULL: Sizes =
        Sizes { warm_layers: 15, model_reps: streaming::MODEL_REPS, hit_replay_rounds: 5 };

    /// The sizes of a smoke run: every phase and check, on tiny inputs.
    #[cfg(test)]
    pub const SMOKE: Sizes = Sizes { warm_layers: 2, model_reps: 1, hit_replay_rounds: 1 };
}

/// One run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed: the only source of the inputs.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Input and probe sizes.
    pub sizes: Sizes,
}

/// A named metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// What a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Whether every output matched its oracle.
    pub correct: bool,
    /// Requests (and streamed layers) attempted.
    pub attempted: u64,
    /// Requests (and streamed layers) that failed or were refused.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Sample counts, tails, bases and check results.
    pub detail: Json,
    /// The spans of a traced run.
    pub tracer: Option<Tracer>,
}

/// Everything the phases observed.
struct Observed {
    setup_s: Vec<f64>,
    hit: HitLog,
    /// Hits sent beside the miss probe of `hit-wire` (counted, not timed).
    probe_hits: HitLog,
    miss: MissLog,
    streamed: StreamLog,
    peak_rss_mb: f64,
    snapshot: RegistrySnapshot,
}

/// Runs `run`, timing the first setup from `process_start` and keeping
/// every file it writes under `dir`.
///
/// # Errors
///
/// A setup or phase that cannot run at all. Wrong outputs are not errors:
/// they clear [`Outcome::correct`].
pub fn run(run: &Run, process_start: Instant, dir: &Path) -> Result<Outcome, String> {
    let sizes = run.sizes;
    let mut tracer = run.trace.then(|| Tracer::new(Instant::now(), 0));
    let stream_dir = dir.join("stream");

    // setup, repeated; the last one is kept, and the window starts as it
    // ends
    let ticks_start = host::cpu_ticks();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let (mut stack, mut stream) = (None, None);
    for rep in 0..SETUP_REPS {
        (stack, stream) = (None, None);
        let t0 = if rep == 0 { process_start } else { Instant::now() };
        match run.workload {
            Workload::StreamModel => {
                stream = Some(StreamInputs::prepare(run.seed, sizes.model_reps, &stream_dir)?);
            }
            _ => stack = Some(wire::setup(run.seed, sizes.warm_layers)?),
        }
        setup_s.push(t0.elapsed().as_secs_f64());
    }

    // the timed window, in SEGMENTS segments; after each, one unit of
    // every probe for the metrics the window's traffic does not produce
    let segment = Duration::from_secs_f64(run.seconds / SEGMENTS as f64);
    let (mut hit, mut probe_hits, mut miss, mut streamed) =
        (HitLog::default(), HitLog::default(), MissLog::default(), StreamLog::default());
    let mut peak_rss_mb = None;
    for k in 0..SEGMENTS {
        let deadline = Instant::now() + segment;
        match (run.workload, &stack, &stream) {
            (Workload::HitWire, Some(s), _) => {
                hit.merge(wire::hit_phase(s, run.seed, Stop::At(deadline), tracer.as_mut())?);
            }
            (Workload::MixedWire, Some(s), _) => {
                hit.merge(wire::mixed_phase(s, run.seed, deadline, &mut miss, tracer.as_mut())?);
            }
            (Workload::StreamModel, _, Some(inputs)) => {
                streaming::run_passes(inputs, 0, Some(deadline), &mut streamed);
            }
            _ => unreachable!("the setup above built what the workload runs on"),
        }
        if k == 0 {
            // read before any probe adds memory of its own
            peak_rss_mb = host::peak_rss_mb();
        }
        if stack.is_none() {
            stack = Some(wire::setup(run.seed, sizes.warm_layers)?);
        }
        if stream.is_none() {
            stream = Some(StreamInputs::prepare(run.seed, sizes.model_reps, &stream_dir)?);
        }
        let (s, inputs) =
            (stack.as_ref().expect("set up above"), stream.as_ref().expect("set up above"));
        if run.workload != Workload::MixedWire {
            // never-seen jobs beside a warm-hit connection, as on
            // `mixed-wire`; its hits are the hit probe of `stream-model`
            let until = Instant::now() + PROBE;
            let beside = wire::mixed_phase(s, run.seed, until, &mut miss, tracer.as_mut())?;
            match run.workload {
                Workload::StreamModel => hit.merge(beside),
                _ => probe_hits.merge(beside),
            }
        }
        if run.workload != Workload::StreamModel {
            streaming::run_passes(inputs, 1, None, &mut streamed);
        }
    }
    let steal = host::steal_share(ticks_start, host::cpu_ticks());
    let (stack, stream) = (stack.expect("set up above"), stream.expect("set up above"));
    let snapshot = stack.server.registry().snapshot();
    let peak_rss_mb = peak_rss_mb.ok_or("the OS reports no peak RSS (VmHWM)")?;
    let obs = Observed { setup_s, hit, probe_hits, miss, streamed, peak_rss_mb, snapshot };

    // correctness, after the window
    let checks = check_outputs(&stack, &stream, &obs, run.seed)?;
    let attempted =
        obs.hit.attempted + obs.probe_hits.attempted + obs.miss.attempted + obs.streamed.attempted;
    let failed = obs.hit.failed + obs.probe_hits.failed + obs.miss.failed + obs.streamed.failed;

    let mut detail = vec![
        ("workload", Json::str(run.workload.name())),
        ("seed", Json::int(run.seed)),
        ("seconds", Json::Num(run.seconds)),
        ("trace", Json::Bool(run.trace)),
        ("host", host::stamp(stack.server.service().workers())),
        ("cpu_steal_share", steal.map_or(Json::Num(f64::NAN), ratio_json)),
        ("loop", Json::str("closed")),
        ("connections", Json::int(wire::CONNECTIONS as u64)),
        ("failed_ratio", ratio_json(Ratio { num: failed, den: attempted })),
        ("checks", checks.json),
    ];
    let (metrics, replay_ok) = match tracer.as_mut() {
        None => (end_to_end(&obs, &mut detail)?, true),
        Some(tr) => {
            let counts = replay_layers(run, &stack, &stream, &dir.join("replay"), tr)?;
            (per_layer(run, &obs, tr, &counts, &mut detail)?, counts.wrong == 0)
        }
    };
    Ok(Outcome {
        correct: checks.ok && replay_ok,
        attempted,
        failed,
        metrics,
        detail: Json::object(detail),
        tracer,
    })
}

struct Checks {
    ok: bool,
    json: Json,
}

fn check_outputs(
    stack: &Stack,
    stream: &StreamInputs,
    obs: &Observed,
    seed: u64,
) -> Result<Checks, String> {
    let warm = &stack.warm;
    let warm_mismatch = count_mismatches(warm.pairs.len(), &warm.spec, |i| Job {
        weight: Cow::Borrowed(&warm.weights[warm.pairs[i].layer]),
        algo: warm.pairs[i].algo,
        seed: warm.seeds[i],
        served: wire::digest(&stack.reference[i]),
    });
    let served = &obs.miss.served;
    let miss_mismatch = count_mismatches(served.len(), &warm.spec, |i| {
        let (weight, job_seed) = warm.miss_job(seed, served[i].pair, served[i].job);
        Job {
            weight: Cow::Owned(weight),
            algo: warm.pairs[served[i].pair].algo,
            seed: job_seed,
            served: served[i].digest,
        }
    });
    let reload_missing = streaming::reload_check(stream, &obs.streamed);
    let small_model = small_model_stream_matches(&stream_spec(), seed)?;
    let wrong = obs.hit.wrong + obs.probe_hits.wrong + obs.miss.wrong + obs.streamed.wrong;
    let ok = warm_mismatch == 0
        && miss_mismatch == 0
        && reload_missing == 0
        && small_model
        && wrong == 0;
    let json = Json::object(vec![
        ("ok", Json::Bool(ok)),
        (
            "warm_artifacts_vs_oracle",
            ratio_json(Ratio { num: warm_mismatch, den: warm.pairs.len() as u64 }),
        ),
        (
            "miss_artifacts_vs_oracle",
            ratio_json(Ratio { num: miss_mismatch, den: served.len() as u64 }),
        ),
        ("wrong_responses", Json::int(wrong)),
        ("stream_reload_missing_layers", Json::int(reload_missing)),
        ("small_model_stream_matches_oracle", Json::Bool(small_model)),
    ]);
    Ok(Checks { ok, json })
}

fn ratio_json(r: Ratio) -> Json {
    Json::object(vec![
        ("value", r.value().map_or(Json::Num(f64::NAN), Json::Num)),
        ("num", Json::int(r.num)),
        ("base", Json::int(r.den)),
    ])
}

fn summary_json(values: &[f64]) -> Json {
    match Summary::of(values) {
        Some(s) => Json::object(vec![
            ("n", Json::int(s.n as u64)),
            ("p50", Json::Num(s.p50)),
            (
                "quartiles",
                quartiles(values).map_or(Json::Array(Vec::new()), |q| {
                    Json::Array(q.into_iter().map(Json::Num).collect())
                }),
            ),
            ("tail_percentile", s.tail.map_or(Json::Num(f64::NAN), |(p, _)| Json::Num(p * 100.0))),
            ("tail", s.tail.map_or(Json::Num(f64::NAN), |(_, v)| Json::Num(v))),
        ]),
        None => Json::object(vec![("n", Json::int(0))]),
    }
}

/// Collects metrics, failing on a value the sample cannot support.
#[derive(Default)]
struct Metrics {
    out: Vec<Metric>,
}

impl Metrics {
    fn push(&mut self, name: &str, unit: &'static str, value: Option<f64>) -> Result<(), String> {
        match value {
            Some(value) if value.is_finite() => {
                self.out.push(Metric { name: name.to_string(), unit, value });
                Ok(())
            }
            _ => Err(format!("metric {name}: the sample does not support it")),
        }
    }
}

fn end_to_end(
    obs: &Observed,
    detail: &mut Vec<(&'static str, Json)>,
) -> Result<Vec<Metric>, String> {
    let hit = &obs.hit;
    let miss_ms: Vec<f64> = obs.miss.lat_us.iter().map(|us| us / 1e3).collect();
    let mut m = Metrics::default();
    m.push("setup_s", "s", median(&obs.setup_s))?;
    m.push("hit_p50_us", "us", median(&hit.untraced_us))?;
    m.push("hit_jobs_per_s", "1/s", median(&hit.rates))?;
    m.push("miss_jobs_per_s", "1/s", median(&obs.miss.cycle_rate))?;
    m.push("miss_p50_ms", "ms", median(&obs.miss.cycle_p50_ms))?;
    m.push("layers_per_s", "1/s", median(&obs.streamed.pass_rate))?;
    m.push("peak_rss_mb", "MB", Some(obs.peak_rss_mb))?;
    let list = |v: &[f64]| Json::Array(v.iter().map(|&x| Json::Num(x)).collect());
    detail.extend([
        ("setup_s", list(&obs.setup_s)),
        ("hit_us", summary_json(&hit.untraced_us)),
        ("hit_rate_per_s", list(&hit.rates)),
        ("miss_ms", summary_json(&miss_ms)),
        ("miss_cycle_rate", list(&obs.miss.cycle_rate)),
        ("miss_cycle_p50_ms", list(&obs.miss.cycle_p50_ms)),
        ("stream_pass_rate", list(&obs.streamed.pass_rate)),
    ]);
    Ok(m.out)
}

/// Replays the workload's requests through each layer with spans.
fn replay_layers(
    run: &Run,
    stack: &Stack,
    stream: &StreamInputs,
    dir: &Path,
    tr: &mut Tracer,
) -> Result<ReplayCounts, String> {
    let mut counts = ReplayCounts::default();
    replay::replay_hits(stack, run.sizes.hit_replay_rounds, tr, &mut counts)?;
    let (layers, spec): (Vec<Tensor>, _) = match run.workload {
        Workload::StreamModel => {
            let n = stack.warm.weights.len();
            ((0..n).map(|i| stream.weight(i)).collect(), stream_spec())
        }
        _ => (stack.warm.weights.clone(), wire_spec()),
    };
    replay::replay_misses(&layers, &spec, run.seed, dir, tr, &mut counts)?;
    Ok(counts)
}

fn per_layer(
    run: &Run,
    obs: &Observed,
    tr: &Tracer,
    counts: &ReplayCounts,
    detail: &mut Vec<(&'static str, Json)>,
) -> Result<Vec<Metric>, String> {
    let hit = |name: &str| tr.micros_under("replay.hit", name);
    let miss = |name: &str| tr.micros_under("replay.miss", name);
    let p50 = |v: Vec<f64>| median(&v);
    let mut m = Metrics::default();

    // mvq-net
    let on_path = [
        "net.req_encode",
        "net.req_decode",
        "serve.submit_wait",
        "net.resp_encode",
        "net.resp_decode",
        "net.resp_validate",
    ];
    let attributed: Option<f64> = on_path.iter().map(|n| p50(hit(n))).sum();
    let wire_p50 = median(&obs.hit.untraced_us);
    m.push("net.req_encode_us", "us", p50(hit("net.req_encode")))?;
    m.push("net.req_decode_us", "us", p50(hit("net.req_decode")))?;
    m.push("net.resp_encode_us", "us", p50(hit("net.resp_encode")))?;
    m.push("net.resp_decode_us", "us", p50(hit("net.resp_decode")))?;
    m.push("net.resp_validate_us", "us", p50(hit("net.resp_validate")))?;
    m.push("net.req_bytes", "bytes", median(&counts.req_bytes))?;
    m.push("net.resp_bytes", "bytes", median(&counts.resp_bytes))?;
    m.push("net.unattributed_us", "us", wire_p50.zip(attributed).map(|(w, a)| w - a))?;
    // the hit tail is the host's scheduling stalls as much as this code's,
    // so it is reported here, without a bound
    m.push("hit_p99_us", "us", Summary::supported_percentile(&obs.hit.untraced_us, 0.99))?;

    // mvq-core::store
    let hits = obs.snapshot.value(names::STORE_CACHE_HITS);
    let misses = obs.snapshot.value(names::STORE_CACHE_MISSES);
    let hit_ratio = Ratio { num: hits, den: hits + misses };
    m.push("store.key_us", "us", p50(hit("store.key")))?;
    m.push("store.get_raw_us", "us", p50(hit("store.get_raw")))?;
    m.push("store.put_raw_us", "us", p50(miss("store.put_raw")))?;
    m.push("store.disk_put_us", "us", p50(miss("store.disk_put")))?;
    m.push("store.hit_ratio", "ratio", hit_ratio.value())?;

    // mvq-serve
    let queue = obs.snapshot.histogram(names::SERVE_QUEUE_WAIT_US);
    m.push("serve.submit_wait_us", "us", p50(hit("serve.submit_wait")))?;
    m.push("serve.queue_wait_us.p50", "us", Some(queue.p50 as f64))?;
    m.push("serve.queue_wait_us.p99", "us", Some(queue.p99 as f64))?;
    m.push("serve.deduped", "count", Some(obs.snapshot.value(names::SERVE_JOBS_DEDUPED) as f64))?;
    m.push(
        "serve.jobs_failed",
        "count",
        Some(obs.snapshot.value(names::NET_CONN_RESPONSES_ERR) as f64),
    )?;

    // mvq-core::pipeline
    for span in COMPRESS_SPANS {
        let algo = span.trim_start_matches("pipeline.compress.");
        let ms = p50(miss(span)).map(|us| us / 1e3);
        m.push(&format!("pipeline.compress_ms.{algo}"), "ms", ms)?;
    }
    m.push("pipeline.encode_us", "us", p50(miss("pipeline.encode")))?;

    // mvq-core::kernels (operations and bytes computed from the shapes)
    m.push("kernels.assign_ms", "ms", Some(counts.assign_ms.iter().sum()))?;
    m.push("kernels.assign_mflop", "MFLOP", Some(counts.assign_mflop.iter().sum()))?;
    m.push("kernels.assign_mbytes", "MB", Some(counts.assign_mbytes.iter().sum()))?;

    // mvq-core::stream
    m.push("stream.window_peak_layers", "layers", Some(obs.streamed.peak_layers as f64))?;
    m.push("stream.window_peak_bytes", "bytes", Some(obs.streamed.peak_bytes as f64))?;

    // the replay's own glue, and what tracing costs a wire round trip (the
    // traced and untraced blocks interleave, so their medians compare)
    let overhead = median(&obs.hit.traced_us).zip(median(&obs.hit.untraced_us)).map(|(t, u)| t - u);
    m.push("replay.hit_self_us", "us", median(&tr.self_micros("replay.hit")))?;
    m.push("replay.miss_self_us", "us", median(&tr.self_micros("replay.miss")))?;
    m.push("trace.overhead_us", "us", overhead)?;

    detail.extend([
        ("hit_untraced_us", summary_json(&obs.hit.untraced_us)),
        ("hit_traced_us", summary_json(&obs.hit.traced_us)),
        ("store_hit_ratio", ratio_json(hit_ratio)),
        ("replay_wrong", Json::int(counts.wrong)),
        ("kernel_layers", Json::int(counts.assign_ms.len() as u64)),
        (
            "replay_layer_spec",
            Json::str(if run.workload == Workload::StreamModel { "stream" } else { "wire" }),
        ),
    ]);
    Ok(m.out)
}
