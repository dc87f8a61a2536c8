//! The writer for `BENCH_kernels.json`, the kernel microbench's artifact.
//!
//! [`BenchReport`] leads every report with the same header:
//! `schema_version`, the bench's name, the build flags that make a
//! number comparable or not (`target_arch`, `debug_assertions`) and the
//! host it ran on (CPU model, logical cores), followed by
//! the bench's own fields in insertion order. [`BenchReport::write`]
//! prints the blob to stdout and lands it at `BENCH_<name>.json`.
//!
//! Values are rendered at append time with the precision the caller
//! chooses.

/// The report envelope's schema version. Bump when the header fields
/// change meaning; consumers (CI trend scripts) key on it.
pub const SCHEMA_VERSION: u64 = 3;

/// An ordered JSON object under the standard bench envelope.
#[derive(Debug)]
pub struct BenchReport {
    name: String,
    fields: Vec<(String, String)>,
}

impl BenchReport {
    /// Starts a report for bench `name` (the `<name>` in
    /// `BENCH_<name>.json`), stamping the envelope header.
    pub fn new(name: impl Into<String>) -> BenchReport {
        let name = name.into();
        let mut report = BenchReport { name: String::new(), fields: Vec::new() };
        report.field_u64("schema_version", SCHEMA_VERSION);
        report.field_str("bench", &name);
        report.field_str("target_arch", std::env::consts::ARCH);
        report.field_bool("debug_assertions", cfg!(debug_assertions));
        report.field_str("cpu_model", &cpu_model());
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        report.field_u64("logical_cores", cores as u64);
        report.name = name;
        report
    }

    /// Appends a string field (JSON-escaped).
    pub fn field_str(&mut self, key: &str, value: &str) -> &mut BenchReport {
        self.push(key, format!("\"{}\"", escape(value)));
        self
    }

    /// Appends an unsigned integer field.
    pub fn field_u64(&mut self, key: &str, value: u64) -> &mut BenchReport {
        self.push(key, value.to_string());
        self
    }

    /// Appends a boolean field.
    pub fn field_bool(&mut self, key: &str, value: bool) -> &mut BenchReport {
        self.push(key, value.to_string());
        self
    }

    /// Appends a float field rendered with `decimals` fractional digits
    /// (the precision the old hand-rolled emitters chose per field).
    pub fn field_f64(&mut self, key: &str, value: f64, decimals: usize) -> &mut BenchReport {
        self.push(key, format!("{value:.decimals$}"));
        self
    }

    fn push(&mut self, key: &str, rendered: String) {
        self.fields.push((key.to_string(), rendered));
    }

    /// Renders the report as pretty-printed JSON (one field per line,
    /// insertion order, trailing newline — the shape the old emitters
    /// produced).
    pub fn json(&self) -> String {
        let lines: Vec<String> =
            self.fields.iter().map(|(k, v)| format!("  \"{k}\": {v}")).collect();
        format!("{{\n{}\n}}\n", lines.join(",\n"))
    }

    /// Prints the report to stdout and writes `BENCH_<name>.json` in the
    /// working directory, panicking on I/O failure (a bench that cannot
    /// land its artifact has failed).
    pub fn write(&self) {
        let json = self.json();
        print!("{json}");
        let path = format!("BENCH_{}.json", self.name);
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
    }
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

/// Minimal JSON string escaping: the bench vocabulary is ASCII names
/// and workload labels, but quotes/backslashes/control bytes must
/// never produce an invalid artifact.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_leads_with_the_envelope_and_keeps_insertion_order() {
        let mut report = BenchReport::new("unit");
        report.field_str("workload", "toy").field_u64("jobs", 7).field_f64("p50_us", 244.05, 1);
        let json = report.json();
        let keys: Vec<&str> = json
            .lines()
            .filter_map(|l| l.trim().strip_prefix('"').and_then(|l| l.split('"').next()))
            .collect();
        assert_eq!(
            keys,
            [
                "schema_version",
                "bench",
                "target_arch",
                "debug_assertions",
                "cpu_model",
                "logical_cores",
                "workload",
                "jobs",
                "p50_us"
            ]
        );
        assert!(json.contains("\"schema_version\": 3"));
        assert!(json.contains("\"bench\": \"unit\""));
        assert!(json.contains("\"p50_us\": 244.1"), "precision is the caller's: {json}");
        assert!(!json.contains("\"cpu_model\": \"\""), "the host stamp names a CPU: {json}");
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn strings_are_json_escaped() {
        let mut report = BenchReport::new("unit");
        report.field_str("label", "a\"b\\c\nd");
        assert!(report.json().contains(r#""label": "a\"b\\c\nd""#));
    }
}
