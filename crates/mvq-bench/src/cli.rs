//! `paper compress` — a registry-driven CLI front for the compression
//! service.
//!
//! ```text
//! paper compress [--algo <name>[,<name>...]] [--kernel <strategy>]
//!                [--arch tiny|resnet18] [--k <K>] [--seed <SEED>]
//!                [--workers <N>] [--cache-dir <DIR>]
//!                [--memory-budget <BYTES>] [--disk-budget <BYTES>]
//!                [--stream]
//! ```
//!
//! Builds the requested lite model, submits one [`CompressionRequest`]
//! per compressible conv × algorithm through a [`CompressionService`]
//! (with `--cache-dir` the cache is durable, so a re-run serves hits;
//! the budget flags exercise the byte-budgeted LRU eviction), waits on
//! the tickets, and prints a per-layer outcome table plus cache stats.
//! Job failures are printed per job and do not stop the run — the exit
//! code reports whether every job succeeded.
//!
//! With `--stream` the whole model is submitted as **one job per
//! algorithm** (a [`Work::Model`] request): the convs stream through
//! the bounded-memory pipeline, each finished layer spilling to the
//! service's cache as its own blob, with live per-layer progress printed
//! from [`Ticket::progress`] while the job runs. The streamed result is
//! bit-identical to the per-conv in-memory path.

use std::process::ExitCode;

use mvq_core::pipeline::{canonical_name, CompressedArtifact, PipelineSpec};
use mvq_core::store::{ArtifactCache, CacheBudget};
use mvq_core::{KernelStrategy, MvqError};
use mvq_nn::models::Arch;
use mvq_nn::Sequential;
use mvq_serve::{
    CompressionRequest, CompressionService, ServiceBuilder, StreamConfig, Ticket, Work,
};
use mvq_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

const USAGE: &str = "usage: paper compress [--algo <name>[,<name>...]] [--kernel <strategy>] \
                     [--arch tiny|resnet18] [--k <K>] [--seed <SEED>] [--workers <N>] \
                     [--cache-dir <DIR>] [--memory-budget <BYTES>] [--disk-budget <BYTES>] \
                     [--stream]";

#[derive(Debug)]
struct CompressArgs {
    algos: Vec<String>,
    kernel: Option<KernelStrategy>,
    arch: String,
    k: Option<usize>,
    seed: Option<u64>,
    workers: Option<usize>,
    cache_dir: Option<String>,
    memory_budget: Option<u64>,
    disk_budget: Option<u64>,
    stream: bool,
}

fn parse_args(args: &[String]) -> Result<CompressArgs, String> {
    let mut parsed = CompressArgs {
        algos: vec!["mvq".to_string()],
        kernel: None,
        arch: "tiny".to_string(),
        k: None,
        seed: None,
        workers: None,
        cache_dir: None,
        memory_budget: None,
        disk_budget: None,
        stream: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().map(String::as_str).ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--algo" => {
                parsed.algos = value("--algo")?.split(',').map(str::to_string).collect();
            }
            "--kernel" => {
                // the one strategy parser everything shares: KernelStrategy::from_str
                parsed.kernel =
                    Some(value("--kernel")?.parse::<KernelStrategy>().map_err(|e| e.to_string())?);
            }
            "--arch" => parsed.arch = value("--arch")?.to_string(),
            "--k" => {
                parsed.k = Some(value("--k")?.parse().map_err(|e| format!("--k: {e}\n{USAGE}"))?);
            }
            "--seed" => {
                parsed.seed =
                    Some(value("--seed")?.parse().map_err(|e| format!("--seed: {e}\n{USAGE}"))?);
            }
            "--workers" => {
                let workers =
                    value("--workers")?.parse().map_err(|e| format!("--workers: {e}\n{USAGE}"))?;
                if workers == 0 {
                    return Err(format!("--workers must be at least 1\n{USAGE}"));
                }
                parsed.workers = Some(workers);
            }
            "--cache-dir" => parsed.cache_dir = Some(value("--cache-dir")?.to_string()),
            "--stream" => parsed.stream = true,
            "--memory-budget" => {
                parsed.memory_budget = Some(
                    value("--memory-budget")?
                        .parse()
                        .map_err(|e| format!("--memory-budget: {e}\n{USAGE}"))?,
                );
            }
            "--disk-budget" => {
                parsed.disk_budget = Some(
                    value("--disk-budget")?
                        .parse()
                        .map_err(|e| format!("--disk-budget: {e}\n{USAGE}"))?,
                );
            }
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    for algo in &parsed.algos {
        if canonical_name(algo).is_none() {
            return Err(format!(
                "unknown algorithm `{algo}` (known: {})",
                mvq_core::pipeline::ALGORITHM_NAMES.join(", ")
            ));
        }
    }
    if parsed.disk_budget.is_some() && parsed.cache_dir.is_none() {
        return Err(format!(
            "--disk-budget needs --cache-dir (an in-memory cache has no disk to budget)\n{USAGE}"
        ));
    }
    Ok(parsed)
}

/// Entry point for the `compress` subcommand; `args` excludes the
/// subcommand name itself.
///
/// Every job is submitted at once, so with `--disk-budget` and more than
/// one worker the cache's LRU order — and with it the hit and eviction
/// counts `print_cache_counters` reports — follows job completion
/// order and can differ from run to run; `--workers 1` reproduces them.
pub fn run_compress(args: &[String]) -> ExitCode {
    let parsed = match parse_args(args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let (model, weights, mut spec) = match lite_workload(&parsed.arch, parsed.k, parsed.seed) {
        Ok(workload) => workload,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(kernel) = parsed.kernel {
        spec = spec.with_kernel(kernel);
    }

    let mut builder = CompressionService::builder();
    if let Some(workers) = parsed.workers {
        builder = builder.workers(workers);
    }
    let budget = CacheBudget { memory_bytes: parsed.memory_budget, disk_bytes: parsed.disk_budget };
    let service = match start_service(builder, parsed.cache_dir.as_deref(), budget) {
        Ok(service) => service,
        Err(e) => {
            eprintln!("cannot start service: {e}");
            return ExitCode::FAILURE;
        }
    };

    if parsed.stream {
        let failures = run_stream_jobs(&service, &parsed.algos, &model, &spec, parsed.seed);
        print_cache_counters(&service);
        if failures > 0 {
            eprintln!("{failures} model job(s) failed");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    // one request per compressible conv × algorithm, all in flight at
    // once; per-job errors are reported without aborting the rest
    let mut tickets: Vec<Ticket> = Vec::new();
    let mut skipped = 0usize;
    for algo in &parsed.algos {
        for (i, w) in weights.iter().enumerate() {
            if w.dims()[0] % spec.d != 0 {
                skipped += 1;
                continue; // not groupable at this operating point
            }
            let mut request =
                CompressionRequest::builder(format!("conv{i}/{algo}"), w.clone(), algo)
                    .spec(spec.clone());
            if let Some(seed) = parsed.seed {
                request = request.seed(seed);
            }
            match request.build() {
                Ok(request) => tickets.push(service.submit_one(request)),
                Err(e) => {
                    eprintln!("invalid request conv{i}/{algo}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    println!("{:<18} {:>8} {:>9} {:>7}", "job", "ratio", "source", "status");
    let mut failures = 0usize;
    for ticket in tickets {
        match ticket.wait() {
            Ok(outcome) => {
                let (ratio, source) =
                    outcome_cells(outcome.deduped, outcome.from_cache, outcome.artifact());
                println!("{:<18} {ratio} {:>9} {:>7}", outcome.name, source, "ok");
            }
            Err(e) => {
                failures += 1;
                println!("{:<18} {:>8} {:>9} {:>7}", e.name(), "-", "-", "failed");
                eprintln!("  {e}");
            }
        }
    }
    print_cache_counters(&service);
    if skipped > 0 {
        println!("skipped {skipped} conv(s) not groupable at d={}", spec.d);
    }
    if failures > 0 {
        eprintln!("{failures} job(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The lite workload `paper compress` and `paper client` share: the
/// requested architecture's model (drawn from `seed`, default 0), its
/// conv weights, and the spec they are compressed under.
///
/// # Errors
///
/// Names the architecture when it is neither `tiny` nor `resnet18`.
pub(crate) fn lite_workload(
    arch: &str,
    k: Option<usize>,
    seed: Option<u64>,
) -> Result<(Sequential, Vec<Tensor>, PipelineSpec), String> {
    let mut rng = StdRng::seed_from_u64(seed.unwrap_or(0));
    let model = match arch {
        "tiny" => mvq_nn::models::tiny_cnn(8, 16, &mut rng),
        "resnet18" => Arch::ResNet18.build(8, &mut rng),
        other => return Err(format!("unknown arch `{other}` (known: tiny, resnet18)")),
    };
    let mut weights = Vec::new();
    model.visit_convs(&mut |conv| weights.push(conv.weight.value.clone()));
    let mut spec = PipelineSpec::default();
    if let Some(k) = k {
        spec.k = k;
    } else if arch == "tiny" {
        spec.k = 8; // the tiny convs have few subvectors; default k=64 cannot fit
    }
    Ok((model, weights, spec))
}

/// Builds the service over the cache `--cache-dir` and the budget flags
/// describe: persisted under `cache_dir` when one is given, in memory
/// otherwise.
///
/// # Errors
///
/// [`MvqError::Codec`] when the cache directory cannot be created or
/// scanned, and whatever [`ServiceBuilder::build`] refuses.
pub(crate) fn start_service(
    builder: ServiceBuilder,
    cache_dir: Option<&str>,
    budget: CacheBudget,
) -> Result<CompressionService, MvqError> {
    let cache = match cache_dir {
        Some(dir) => ArtifactCache::with_dir_and_budget(dir, budget)?,
        None => ArtifactCache::in_memory_with_budget(budget),
    };
    builder.cache(cache).build()
}

/// The ratio and source cells of one finished job's table row.
pub(crate) fn outcome_cells(
    deduped: bool,
    from_cache: bool,
    artifact: Result<CompressedArtifact, MvqError>,
) -> (String, &'static str) {
    let ratio = match artifact {
        Ok(artifact) => format!("{:>7.1}x", artifact.compression_ratio()),
        Err(_) => format!("{:>8}", "-"),
    };
    let source = if deduped {
        "dedup"
    } else if from_cache {
        "cache"
    } else {
        "fresh"
    };
    (ratio, source)
}

/// Submits the whole model as one streaming job per algorithm, printing
/// live per-layer progress from the ticket while each job runs. Returns
/// the failure count.
fn run_stream_jobs(
    service: &CompressionService,
    algos: &[String],
    model: &Sequential,
    spec: &PipelineSpec,
    seed: Option<u64>,
) -> usize {
    println!(
        "{:<18} {:>7} {:>8} {:>9} {:>7}",
        "model job", "layers", "skipped", "source", "status"
    );
    let mut failures = 0usize;
    for algo in algos {
        let name = format!("model/{algo}");
        let work = Work::Model { model: model.clone(), stream: StreamConfig::default() };
        let mut request =
            CompressionRequest::builder(&name, work, algo.as_str()).spec(spec.clone());
        if let Some(seed) = seed {
            request = request.seed(seed);
        }
        let request = match request.build() {
            Ok(request) => request,
            Err(e) => {
                eprintln!("invalid model request {name}: {e}");
                failures += 1;
                continue;
            }
        };
        let mut ticket = service.submit_one(request);
        // live progress on stderr; the final table row goes to stdout
        let mut last_done = 0usize;
        loop {
            if ticket.try_poll().is_some() {
                break;
            }
            if let Some(p) = ticket.progress() {
                if p.layers_total > 0 && p.layers_done > last_done {
                    last_done = p.layers_done;
                    eprintln!("  {name}: {}/{} layers", p.layers_done, p.layers_total);
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        match ticket.wait() {
            Ok(outcome) => {
                let source = if outcome.from_cache { "cache" } else { "fresh" };
                match outcome.model_artifacts() {
                    Ok(arts) => println!(
                        "{:<18} {:>7} {:>8} {:>9} {:>7}",
                        outcome.name,
                        arts.layers.len(),
                        arts.skipped.len(),
                        source,
                        "ok"
                    ),
                    Err(e) => {
                        failures += 1;
                        println!(
                            "{:<18} {:>7} {:>8} {:>9} {:>7}",
                            outcome.name, "-", "-", source, "failed"
                        );
                        eprintln!("  {e}");
                    }
                }
            }
            Err(e) => {
                failures += 1;
                println!("{:<18} {:>7} {:>8} {:>9} {:>7}", e.name(), "-", "-", "-", "failed");
                eprintln!("  {e}");
            }
        }
    }
    failures
}

/// Prints the cache line. Under a budget its hit and eviction counts
/// follow job completion order, which is only fixed with one worker
/// (see [`run_compress`]).
fn print_cache_counters(service: &CompressionService) {
    let stats = service.cache().stats();
    println!(
        "\ncache: {} hits, {} misses, {} insertions, {} mem blobs ({} B), {} disk blobs ({} B), \
         {} mem evictions, {} disk evictions",
        stats.hits,
        stats.misses,
        stats.insertions,
        stats.memory_len,
        stats.memory_bytes,
        stats.disk_len,
        stats.disk_bytes,
        stats.memory_evictions,
        stats.disk_evictions,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_full_flag_set() {
        let parsed = parse_args(&strs(&[
            "--algo",
            "mvq,pqf,vq",
            "--kernel",
            "NAIVE",
            "--arch",
            "resnet18",
            "--k",
            "16",
            "--seed",
            "9",
            "--workers",
            "3",
            "--cache-dir",
            "/tmp/x",
            "--memory-budget",
            "1048576",
            "--disk-budget",
            "2097152",
        ]))
        .unwrap();
        assert_eq!(parsed.algos, vec!["mvq", "pqf", "vq"]);
        assert_eq!(parsed.kernel, Some(KernelStrategy::Naive));
        assert_eq!(parsed.arch, "resnet18");
        assert_eq!(parsed.k, Some(16));
        assert_eq!(parsed.seed, Some(9));
        assert_eq!(parsed.workers, Some(3));
        assert_eq!(parsed.cache_dir.as_deref(), Some("/tmp/x"));
        assert_eq!(parsed.memory_budget, Some(1_048_576));
        assert_eq!(parsed.disk_budget, Some(2_097_152));
    }

    #[test]
    fn rejects_unknown_flags_kernels_and_algorithms() {
        assert!(parse_args(&strs(&["--frobnicate"])).is_err());
        let err = parse_args(&strs(&["--kernel", "avx512-dreams"])).unwrap_err();
        assert!(err.contains("avx512-dreams"), "{err}");
        let err = parse_args(&strs(&["--algo", "vqgan"])).unwrap_err();
        assert!(err.contains("vqgan"), "{err}");
        assert!(parse_args(&strs(&["--k"])).is_err(), "missing value must error");
        let err = parse_args(&strs(&["--workers", "0"])).unwrap_err();
        assert!(err.contains("--workers"), "{err}");
        // a disk budget without a disk would silently be a no-op; refuse it
        let err = parse_args(&strs(&["--disk-budget", "1000"])).unwrap_err();
        assert!(err.contains("--cache-dir"), "{err}");
        assert!(parse_args(&strs(&["--disk-budget", "1000", "--cache-dir", "/tmp/x"])).is_ok());
    }

    #[test]
    fn defaults_are_sane() {
        let parsed = parse_args(&[]).unwrap();
        assert_eq!(parsed.algos, vec!["mvq"]);
        assert_eq!(parsed.arch, "tiny");
        assert!(parsed.kernel.is_none());
        assert!(parsed.cache_dir.is_none());
        assert!(!parsed.stream, "streaming is opt-in");
    }

    #[test]
    fn stream_flag_parses_and_composes() {
        let parsed = parse_args(&strs(&["--stream", "--algo", "mvq,pvq", "--seed", "7"])).unwrap();
        assert!(parsed.stream);
        assert_eq!(parsed.algos, vec!["mvq", "pvq"]);
        assert_eq!(parsed.seed, Some(7));
    }
}
