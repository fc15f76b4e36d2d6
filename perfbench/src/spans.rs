//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span has a name (`layer.operation`), a start, an end and the span
//! that was open when it began. Spans stay in memory and are written
//! out as JSON lines when the run ends. A layer's self time is the sum
//! of its spans' durations minus the time their direct children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A handle to an open span, closed by [`Spans::exit`].
#[must_use]
pub struct Open(usize);

impl Spans {
    pub fn new() -> Spans {
        Spans { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, parent, start_ns, end_ns: start_ns });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Open(id)
    }

    /// Closes `span` and returns its duration in seconds.
    pub fn exit(&mut self, span: Open) -> f64 {
        let end_ns = self.now_ns();
        let s = &mut self.spans[span.0];
        s.end_ns = end_ns;
        let secs = (end_ns - s.start_ns) as f64 / 1e9;
        if let Some(pos) = self.open.iter().rposition(|&i| i == span.0) {
            self.open.truncate(pos);
        }
        secs
    }

    /// Runs `f` inside a span; returns its value and duration (s).
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self.enter(name);
        let v = f();
        let secs = self.exit(span);
        (v, secs)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per layer (the name up to its first `.`), in ms.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(layer).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut s = String::with_capacity(self.spans.len() * 80);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.start_ns, span.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new();
        let outer = spans.enter("delta.publish");
        std::thread::sleep(std::time::Duration::from_millis(4));
        let ((), inner_s) =
            spans.time("core.contrib", || std::thread::sleep(std::time::Duration::from_millis(6)));
        let outer_s = spans.exit(outer);
        let by_layer = spans.self_ms_by_layer();
        let total: f64 = by_layer.values().sum();
        assert!((total - outer_s * 1e3).abs() < 1e-6);
        assert!((by_layer["core"] - inner_s * 1e3).abs() < 1e-6);
        assert!(by_layer["delta"] >= 3.0);
        assert_eq!(spans.len(), 2);
    }
}
