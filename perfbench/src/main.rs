//! The repo benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hit-wire|mixed-wire|stream-model> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload from the repository root, checks every output
//! against an in-process oracle, and prints as its last stdout line one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The details — host and build stamp, sample counts, tails,
//! ratio bases, check results — go to stderr and, with every span of a
//! traced run, under `.bench_out/`. See `README.md`.

mod check;
mod host;
mod inputs;
mod json;
mod replay;
mod run;
mod stats;
mod streaming;
mod trace;
mod wire;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use run::{Outcome, Run, Sizes, Workload};

/// Where results, spans and scratch files go, relative to the working
/// directory.
const OUT_DIR: &str = ".bench_out";

const USAGE: &str = "usage: perfbench --workload <hit-wire|mixed-wire|stream-model> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Run, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Run {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        sizes: Sizes::FULL,
    })
}

fn result_line(outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            let value =
                Json::object(vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]);
            (m.name.clone(), value)
        })
        .collect();
    let metrics = if outcome.correct { Json::Object(metrics) } else { Json::Object(Vec::new()) };
    Json::object(vec![
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::int(outcome.attempted)),
        ("failed", Json::int(outcome.failed)),
        ("metrics", metrics),
    ])
    .render()
}

fn write_outputs(run: &Run, outcome: &Outcome, out: &Path) -> std::io::Result<()> {
    let stem = format!("{}-seed{}-trace{}", run.workload.name(), run.seed, u8::from(run.trace));
    std::fs::write(out.join(format!("result-{stem}.json")), outcome.detail.render() + "\n")?;
    if let Some(tracer) = &outcome.tracer {
        tracer.write_jsonl(&out.join(format!("spans-{stem}.jsonl")))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = PathBuf::from(OUT_DIR);
    let scratch = out.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let result = run::run(&run, process_start, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = write_outputs(&run, &outcome, &out) {
        eprintln!("cannot write results under {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    eprintln!("{}", outcome.detail.render());
    println!("{}", result_line(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("an output differs from its oracle; see the checks above");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `workload` on smoke sizes, through the same path as a measured
    /// run: a metric the run's samples cannot support fails it. The window
    /// is long enough for the 1000 hits a supported p99 needs.
    fn smoke(workload: Workload, trace: bool) {
        let run = Run { workload, seed: 11, seconds: 3.0, trace, sizes: Sizes::SMOKE };
        let dir = std::env::temp_dir().join(format!(
            "perfbench-smoke-{}-{}-{}",
            workload.name(),
            u8::from(trace),
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let outcome = run::run(&run, Instant::now(), &dir);
        let _ = std::fs::remove_dir_all(&dir);
        let outcome = outcome.expect("smoke run");
        assert!(outcome.correct, "checks failed: {}", outcome.detail.render());
        assert_eq!(outcome.failed, 0);
        assert!(outcome.attempted > 0);
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
        let listed = if trace { "per_layer" } else { "end_to_end" };
        assert_eq!(names, benchmark_names(listed), "metrics differ from BENCHMARK.json");
    }

    /// The metric names `BENCHMARK.json` lists under `section`.
    fn benchmark_names(section: &str) -> Vec<&'static str> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text.find(&format!("\"{section}\"")).expect("section");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section end")];
        body.split("\"name\": \"").skip(1).map(|s| &s[..s.find('"').expect("name end")]).collect()
    }

    #[test]
    fn smoke_hit_wire() {
        smoke(Workload::HitWire, false);
    }

    #[test]
    fn smoke_mixed_wire() {
        smoke(Workload::MixedWire, false);
    }

    #[test]
    fn smoke_stream_model() {
        smoke(Workload::StreamModel, false);
    }

    #[test]
    fn smoke_traced() {
        for w in Workload::ALL {
            smoke(w, true);
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let run =
            parse(&args("--workload hit-wire --seed 3 --seconds 10 --trace 1")).expect("valid");
        assert_eq!(
            (run.workload, run.seed, run.seconds, run.trace),
            (Workload::HitWire, 3, 10.0, true)
        );
        assert!(parse(&args("--workload nope --seed 3 --seconds 10")).is_err());
        assert!(parse(&args("--workload hit-wire --seconds 10")).is_err());
        assert!(parse(&args("--workload hit-wire --seed 3 --seconds 0")).is_err());
        assert!(parse(&args("--workload hit-wire --seed 3 --seconds 10 --trace 2")).is_err());
    }
}
