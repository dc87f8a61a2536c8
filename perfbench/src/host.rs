//! The host and build stamp written into every result.
//!
//! Only what this process can observe is recorded: the core count and
//! CPU model from the OS, the CPU features detected at runtime, the
//! kernel strategy `mvq-core` dispatches by default, the service's worker
//! count, this binary's build profile, and the share of CPU time a
//! virtual machine's host took away while the run measured (steal), which
//! explains a slow run on a shared host. No SIMD-backend label is
//! written: which backend `mvq-core` compiled in is not observable from
//! here.

use mvq_core::KernelStrategy;

use crate::json::Json;
use crate::stats::Ratio;

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model string from `/proc/cpuinfo`, or `"unknown"`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|line| {
                let (key, value) = line.split_once(':')?;
                (key.trim() == "model name").then(|| value.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The runtime-detected CPU features the kernels care about.
fn cpu_features() -> Vec<&'static str> {
    let mut found = Vec::new();
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        if std::arch::is_x86_feature_detected!("avx") {
            found.push("avx");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            found.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            found.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            found.push("avx512f");
        }
    }
    found
}

/// The stamp as a JSON object.
pub fn stamp(service_workers: usize) -> Json {
    let features = cpu_features().into_iter().map(Json::str).collect();
    Json::object(vec![
        ("nproc", Json::int(nproc() as u64)),
        ("cpu_model", Json::str(cpu_model())),
        ("cpu_features", Json::Array(features)),
        ("kernel_strategy", Json::str(KernelStrategy::default().name())),
        ("service_workers", Json::int(service_workers as u64)),
        ("build_profile", Json::str(if cfg!(debug_assertions) { "debug" } else { "release" })),
        ("target_arch", Json::str(std::env::consts::ARCH)),
    ])
}

/// Machine-wide CPU time so far, in clock ticks: `(steal, total)` from
/// the first line of Linux `/proc/stat`, or `None` where it is missing.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // the guest times being already counted in user and nice
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Steal ticks over all ticks between two [`cpu_ticks`] readings.
pub fn steal_share(start: Option<(u64, u64)>, end: Option<(u64, u64)>) -> Option<Ratio> {
    let ((s0, t0), (s1, t1)) = (start?, end?);
    Some(Ratio { num: s1.saturating_sub(s0), den: t1.saturating_sub(t0) })
}

/// The process's peak resident set in MB (Linux `VmHWM`), or `None`
/// where the OS does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let kb: f64 =
            line.strip_prefix("VmHWM:")?.trim().trim_end_matches("kB").trim().parse().ok()?;
        Some(kb / 1024.0)
    })
}
