//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out when the run ends.
//!
//! A span has a name, a start and an end (ns since the tracer's epoch),
//! the span that caused it, and the id of the request it belongs to.
//! Nothing is recorded inside the program under test.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span within its [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `net.req_encode`.
    pub name: &'static str,
    /// The request this span belongs to.
    pub request: u64,
    /// The span that caused this one; `None` for a request's root.
    pub parent: Option<SpanId>,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (equal to the start while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in µs.
    pub fn micros(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// A span recorder; one per thread, merged with [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    next_request: u64,
}

impl Tracer {
    /// An empty tracer whose timestamps count from `epoch`; request ids
    /// start at `first_request` so merged tracers never collide.
    pub fn new(epoch: Instant, first_request: u64) -> Tracer {
        Tracer { epoch, spans: Vec::new(), next_request: first_request }
    }

    /// The instant timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of a new request.
    pub fn root(&mut self, name: &'static str) -> SpanId {
        let request = self.next_request;
        self.next_request += 1;
        let now = self.now_ns();
        self.spans.push(Span { name, request, parent: None, start_ns: now, end_ns: now });
        SpanId(self.spans.len() - 1)
    }

    /// Closes an open span.
    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id.0].end_ns = now;
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn child<T>(&mut self, parent: SpanId, name: &'static str, f: impl FnOnce() -> T) -> T {
        let request = self.spans[parent.0].request;
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span { name, request, parent: Some(parent), start_ns, end_ns });
        out
    }

    /// Moves every span of `other` (same epoch) into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|SpanId(p)| SpanId(p + offset));
            s
        }));
        self.next_request = self.next_request.max(other.next_request);
    }

    /// Durations in µs of every span named `name`.
    #[cfg(test)]
    pub fn micros_of(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::micros).collect()
    }

    /// Durations in µs of every span named `name` whose parent is a span
    /// named `parent`.
    pub fn micros_under(&self, parent: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| {
                s.name == name && s.parent.is_some_and(|SpanId(p)| self.spans[p].name == parent)
            })
            .map(Span::micros)
            .collect()
    }

    /// Self time in µs of every root span named `root`: its duration
    /// minus the part of it that its child spans cover.
    pub fn self_micros(&self, root: &str) -> Vec<f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(SpanId(p)) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none() && s.name == root)
            .map(|(i, s)| {
                let covered = covered_ns(&mut children[i], s.start_ns, s.end_ns);
                (s.end_ns - s.start_ns).saturating_sub(covered) as f64 / 1e3
            })
            .collect()
    }

    /// Writes every span as one JSON line.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |SpanId(p)| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Total length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_children_is_counted_once() {
        let mut v = vec![(5, 10), (0, 3), (8, 12), (20, 30)];
        assert_eq!(covered_ns(&mut v, 0, 25), 3 + 7 + 5);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now(), 0);
        let root = t.root("replay.hit");
        t.child(root, "a", || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.end(root);
        let total = t.micros_of("replay.hit")[0];
        let child = t.micros_of("a")[0];
        let own = t.self_micros("replay.hit")[0];
        assert!(child >= 2000.0);
        assert!((total - child - own).abs() < 1.0, "{total} {child} {own}");
    }
}
