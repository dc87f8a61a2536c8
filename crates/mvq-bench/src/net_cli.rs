//! `paper serve` / `paper client` / `paper stats` — the compression
//! service on the wire, from the command line.
//!
//! ```text
//! paper serve  [--addr <HOST:PORT>] [--workers <N>] [--queue <N>]
//!              [--cache-dir <DIR>]
//! paper client [--addr <HOST:PORT>] [--algo <name>[,<name>...]]
//!              [--arch tiny|resnet18] [--k <K>] [--seed <SEED>]
//!              [--deadline-ms <MS>] [--repeat <N>]
//! paper stats  [--addr <HOST:PORT>] [--traces <N>]
//! ```
//!
//! `serve` binds an [`NetServer`] over a [`CompressionService`] and runs
//! until stdin closes (or a `quit` line arrives), then drains
//! gracefully — every accepted in-flight job completes and flushes
//! before the process exits — and prints the server's counters plus a
//! final `mvq_obs` registry snapshot. A `stats` line on stdin prints
//! the same snapshot live without disturbing the server.
//!
//! `stats` probes a *running* server over TCP for its live registry
//! snapshot — every store/serve/net/stream metric plus the most
//! recently completed job-lifecycle traces with per-stage µs offsets.
//!
//! `client` builds the same lite conv workload as `paper compress`,
//! submits every job over one sustained connection, and prints the
//! per-job outcome table plus round-trip timings. `--repeat` resubmits
//! the whole job set (a second pass answers from the server's cache);
//! `--deadline-ms` attaches a queue deadline to every request, so a
//! saturated server answers `CancelledDeadline` instead of making the
//! client wait.

use std::io::BufRead;
use std::process::ExitCode;
use std::time::Instant;

use mvq_core::pipeline::canonical_name;
use mvq_core::store::CacheBudget;
use mvq_net::{
    NetClient, NetError, NetRequest, NetServer, WireMetric, WireMetricValue, WireStatsReply,
};
use mvq_obs::{Registry, TraceSnapshot};
use mvq_serve::CompressionService;

use crate::cli::{lite_workload, outcome_cells, start_service};

/// The default loopback endpoint both subcommands assume.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7341";

const SERVE_USAGE: &str = "usage: paper serve [--addr <HOST:PORT>] [--workers <N>] [--queue <N>] \
                           [--cache-dir <DIR>]";
const CLIENT_USAGE: &str = "usage: paper client [--addr <HOST:PORT>] [--algo <name>[,<name>...]] \
                            [--arch tiny|resnet18] [--k <K>] [--seed <SEED>] \
                            [--deadline-ms <MS>] [--repeat <N>]";

#[derive(Debug)]
struct ServeArgs {
    addr: String,
    workers: Option<usize>,
    queue: Option<usize>,
    cache_dir: Option<String>,
}

fn parse_serve_args(args: &[String]) -> Result<ServeArgs, String> {
    let mut parsed =
        ServeArgs { addr: DEFAULT_ADDR.to_string(), workers: None, queue: None, cache_dir: None };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{name} needs a value\n{SERVE_USAGE}"))
        };
        match flag.as_str() {
            "--addr" => parsed.addr = value("--addr")?.to_string(),
            "--workers" => {
                let workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}\n{SERVE_USAGE}"))?;
                if workers == 0 {
                    return Err(format!("--workers must be at least 1\n{SERVE_USAGE}"));
                }
                parsed.workers = Some(workers);
            }
            "--queue" => {
                parsed.queue = Some(
                    value("--queue")?
                        .parse()
                        .map_err(|e| format!("--queue: {e}\n{SERVE_USAGE}"))?,
                );
            }
            "--cache-dir" => parsed.cache_dir = Some(value("--cache-dir")?.to_string()),
            other => return Err(format!("unknown flag `{other}`\n{SERVE_USAGE}")),
        }
    }
    Ok(parsed)
}

/// Entry point for the `serve` subcommand; `args` excludes the
/// subcommand name itself.
pub fn run_serve(args: &[String]) -> ExitCode {
    let parsed = match parse_serve_args(args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let mut builder = CompressionService::builder();
    if let Some(workers) = parsed.workers {
        builder = builder.workers(workers);
    }
    if let Some(queue) = parsed.queue {
        builder = builder.queue_capacity(queue);
    }
    let service = match start_service(builder, parsed.cache_dir.as_deref(), CacheBudget::UNBOUNDED)
    {
        Ok(service) => service,
        Err(e) => {
            eprintln!("cannot start service: {e}");
            return ExitCode::FAILURE;
        }
    };
    let workers = service.workers();
    let mut server = match NetServer::bind(parsed.addr.as_str(), service) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", parsed.addr);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "serving on {} ({workers} worker{}); close stdin or type `quit` to drain",
        server.local_addr(),
        if workers == 1 { "" } else { "s" },
    );
    for line in std::io::stdin().lock().lines() {
        match line {
            Ok(line) if line.trim() == "quit" => break,
            Ok(line) if line.trim() == "stats" => {
                render_registry(server.registry(), 8);
            }
            Ok(_) => {}
            Err(_) => break,
        }
    }
    println!("draining…");
    server.shutdown();
    let stats = server.stats();
    println!(
        "served {} connection(s): {} request(s), {} ok, {} failed, {} cancelled by disconnect, \
         {} expired in queue, {} protocol error(s)",
        stats.connections,
        stats.requests,
        stats.responses_ok,
        stats.responses_err,
        stats.cancelled_disconnect,
        stats.cancelled_deadline,
        stats.protocol_errors,
    );
    // the final registry snapshot: every store/serve/net/stream metric
    // the stack recorded, plus the tail of completed job traces
    println!("final registry snapshot:");
    render_registry(server.registry(), 8);
    ExitCode::SUCCESS
}

/// Renders a local registry through the same path as `paper stats`
/// (one snapshot type, one renderer — the wire reply is the common
/// form).
fn render_registry(registry: &Registry, max_traces: usize) {
    let traces = registry.traces().recent(max_traces);
    let reply = WireStatsReply::from_registry(0, &registry.snapshot(), traces);
    render_stats(&reply.metrics, &reply.traces);
}

/// Pretty-prints one stats snapshot: counters and gauges as name/value
/// lines, histograms with count and the p50/p90/p99/max summary, then
/// the recent completed traces with per-stage µs offsets.
fn render_stats(metrics: &[WireMetric], traces: &[TraceSnapshot]) {
    for m in metrics {
        match m.value {
            WireMetricValue::Counter(v) | WireMetricValue::Gauge(v) => {
                println!("  {:<32} {v:>12}", m.name);
            }
            WireMetricValue::Histogram(h) => {
                println!(
                    "  {:<32} {:>12}  p50 {:>8}µs  p90 {:>8}µs  p99 {:>8}µs  max {:>8}µs",
                    m.name, h.count, h.p50, h.p90, h.p99, h.max,
                );
            }
        }
    }
    if traces.is_empty() {
        println!("  (no completed traces)");
        return;
    }
    println!("  recent traces (newest first):");
    for t in traces {
        let stages: Vec<String> =
            t.stages.iter().map(|(s, us)| format!("{} +{us}µs", s.name())).collect();
        let dedup = if t.deduped { " [dedup]" } else { "" };
        println!("    {} {}{dedup}: {}", t.name, t.outcome.name(), stages.join(" → "));
    }
}

const STATS_USAGE: &str = "usage: paper stats [--addr <HOST:PORT>] [--traces <N>]";

#[derive(Debug)]
struct StatsArgs {
    addr: String,
    traces: usize,
}

fn parse_stats_args(args: &[String]) -> Result<StatsArgs, String> {
    let mut parsed = StatsArgs { addr: DEFAULT_ADDR.to_string(), traces: 16 };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{name} needs a value\n{STATS_USAGE}"))
        };
        match flag.as_str() {
            "--addr" => parsed.addr = value("--addr")?.to_string(),
            "--traces" => {
                parsed.traces = value("--traces")?
                    .parse()
                    .map_err(|e| format!("--traces: {e}\n{STATS_USAGE}"))?;
            }
            other => return Err(format!("unknown flag `{other}`\n{STATS_USAGE}")),
        }
    }
    Ok(parsed)
}

/// Entry point for the `stats` subcommand: probes a running `paper
/// serve` for its live registry snapshot and recent completed traces,
/// over the same wire protocol jobs use. `args` excludes the
/// subcommand name itself.
pub fn run_stats(args: &[String]) -> ExitCode {
    let parsed = match parse_stats_args(args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let mut client = match NetClient::connect(parsed.addr.as_str()) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("cannot connect to {}: {e}", parsed.addr);
            return ExitCode::FAILURE;
        }
    };
    match client.stats(parsed.traces) {
        Ok(reply) => {
            println!("stats from {}:", parsed.addr);
            render_stats(&reply.metrics, &reply.traces);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("stats probe failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[derive(Debug)]
struct ClientArgs {
    addr: String,
    algos: Vec<String>,
    arch: String,
    k: Option<usize>,
    seed: Option<u64>,
    deadline_ms: Option<u64>,
    repeat: usize,
}

fn parse_client_args(args: &[String]) -> Result<ClientArgs, String> {
    let mut parsed = ClientArgs {
        addr: DEFAULT_ADDR.to_string(),
        algos: vec!["mvq".to_string()],
        arch: "tiny".to_string(),
        k: None,
        seed: None,
        deadline_ms: None,
        repeat: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{name} needs a value\n{CLIENT_USAGE}"))
        };
        match flag.as_str() {
            "--addr" => parsed.addr = value("--addr")?.to_string(),
            "--algo" => {
                parsed.algos = value("--algo")?.split(',').map(str::to_string).collect();
            }
            "--arch" => parsed.arch = value("--arch")?.to_string(),
            "--k" => {
                parsed.k =
                    Some(value("--k")?.parse().map_err(|e| format!("--k: {e}\n{CLIENT_USAGE}"))?);
            }
            "--seed" => {
                parsed.seed = Some(
                    value("--seed")?.parse().map_err(|e| format!("--seed: {e}\n{CLIENT_USAGE}"))?,
                );
            }
            "--deadline-ms" => {
                parsed.deadline_ms = Some(
                    value("--deadline-ms")?
                        .parse()
                        .map_err(|e| format!("--deadline-ms: {e}\n{CLIENT_USAGE}"))?,
                );
            }
            "--repeat" => {
                parsed.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}\n{CLIENT_USAGE}"))?;
                if parsed.repeat == 0 {
                    return Err(format!("--repeat must be at least 1\n{CLIENT_USAGE}"));
                }
            }
            other => return Err(format!("unknown flag `{other}`\n{CLIENT_USAGE}")),
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
    Ok(parsed)
}

/// Entry point for the `client` subcommand; `args` excludes the
/// subcommand name itself.
pub fn run_client(args: &[String]) -> ExitCode {
    let parsed = match parse_client_args(args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let (_, weights, spec) = match lite_workload(&parsed.arch, parsed.k, parsed.seed) {
        Ok(workload) => workload,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let mut client = match NetClient::connect(parsed.addr.as_str()) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("cannot connect to {}: {e}", parsed.addr);
            return ExitCode::FAILURE;
        }
    };

    println!("{:<18} {:>8} {:>9} {:>9} {:>10}", "job", "ratio", "source", "status", "rtt");
    let mut failures = 0usize;
    let mut skipped = 0usize;
    for pass in 0..parsed.repeat {
        for algo in &parsed.algos {
            for (i, w) in weights.iter().enumerate() {
                if w.dims()[0] % spec.d != 0 {
                    if pass == 0 {
                        skipped += 1;
                    }
                    continue; // not groupable at this operating point
                }
                let mut request =
                    NetRequest::new(format!("conv{i}/{algo}"), w.clone(), algo.as_str());
                request.spec = spec.clone();
                request.seed = parsed.seed;
                request.deadline = parsed.deadline_ms.map(std::time::Duration::from_millis);
                let t0 = Instant::now();
                match client.submit(&request) {
                    Ok(outcome) => {
                        let rtt = t0.elapsed();
                        let (ratio, source) =
                            outcome_cells(outcome.deduped, outcome.from_cache, outcome.artifact());
                        println!(
                            "{:<18} {ratio} {source:>9} {:>9} {:>9.1}ms",
                            outcome.name,
                            "ok",
                            rtt.as_secs_f64() * 1e3,
                        );
                    }
                    Err(NetError::Io(e)) => {
                        // the transport is gone; nothing further can succeed
                        eprintln!("connection lost: {e}");
                        return ExitCode::FAILURE;
                    }
                    Err(e) => {
                        failures += 1;
                        println!(
                            "{:<18} {:>8} {:>9} {:>9} {:>9.1}ms",
                            format!("conv{i}/{algo}"),
                            "-",
                            "-",
                            "failed",
                            t0.elapsed().as_secs_f64() * 1e3,
                        );
                        eprintln!("  {e}");
                    }
                }
            }
        }
    }
    if skipped > 0 {
        println!("skipped {skipped} conv(s) not groupable at d={}", spec.d);
    }
    if failures > 0 {
        eprintln!("{failures} job(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn serve_parses_the_full_flag_set_and_rejects_garbage() {
        let parsed = parse_serve_args(&strs(&[
            "--addr",
            "0.0.0.0:9000",
            "--workers",
            "2",
            "--queue",
            "16",
            "--cache-dir",
            "/tmp/blobs",
        ]))
        .unwrap();
        assert_eq!(parsed.addr, "0.0.0.0:9000");
        assert_eq!(parsed.workers, Some(2));
        assert_eq!(parsed.queue, Some(16));
        assert_eq!(parsed.cache_dir.as_deref(), Some("/tmp/blobs"));
        assert!(parse_serve_args(&strs(&["--frobnicate"])).is_err());
        assert!(parse_serve_args(&strs(&["--workers"])).is_err(), "missing value must error");
        let err = parse_serve_args(&strs(&["--workers", "0"])).unwrap_err();
        assert!(err.contains("--workers"), "{err}");
        assert_eq!(parse_serve_args(&[]).unwrap().addr, DEFAULT_ADDR);
    }

    #[test]
    fn client_parses_the_full_flag_set_and_rejects_garbage() {
        let parsed = parse_client_args(&strs(&[
            "--addr",
            "10.0.0.1:7341",
            "--algo",
            "mvq,pqf",
            "--arch",
            "resnet18",
            "--k",
            "16",
            "--seed",
            "9",
            "--deadline-ms",
            "250",
            "--repeat",
            "2",
        ]))
        .unwrap();
        assert_eq!(parsed.addr, "10.0.0.1:7341");
        assert_eq!(parsed.algos, vec!["mvq", "pqf"]);
        assert_eq!(parsed.arch, "resnet18");
        assert_eq!(parsed.k, Some(16));
        assert_eq!(parsed.seed, Some(9));
        assert_eq!(parsed.deadline_ms, Some(250));
        assert_eq!(parsed.repeat, 2);
        assert!(parse_client_args(&strs(&["--algo", "vqgan"])).is_err());
        assert!(parse_client_args(&strs(&["--repeat", "0"])).is_err(), "zero passes is nonsense");
        let defaults = parse_client_args(&[]).unwrap();
        assert_eq!(defaults.addr, DEFAULT_ADDR);
        assert_eq!(defaults.algos, vec!["mvq"]);
        assert_eq!(defaults.repeat, 1);
    }

    #[test]
    fn stats_parses_flags_and_rejects_garbage() {
        let parsed =
            parse_stats_args(&strs(&["--addr", "10.0.0.1:7341", "--traces", "3"])).unwrap();
        assert_eq!(parsed.addr, "10.0.0.1:7341");
        assert_eq!(parsed.traces, 3);
        let defaults = parse_stats_args(&[]).unwrap();
        assert_eq!(defaults.addr, DEFAULT_ADDR);
        assert_eq!(defaults.traces, 16);
        assert!(parse_stats_args(&strs(&["--traces", "many"])).is_err());
        assert!(parse_stats_args(&strs(&["--traces"])).is_err(), "missing value must error");
        assert!(parse_stats_args(&strs(&["--frobnicate"])).is_err());
    }
}
