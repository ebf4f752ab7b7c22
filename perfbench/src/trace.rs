//! In-memory spans for the traced run, written out as Chrome trace JSON
//! when the run ends.
//!
//! A span records its name, host start/end, the span that caused it, and
//! the modeled device seconds of the work inside it. Spans are opened
//! and closed by the benchmark around its calls into each layer; nothing
//! inside the library is instrumented.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `replay.gpu.contact.broad`.
    pub name: String,
    /// Host seconds since the tracer started.
    pub start: f64,
    /// Host seconds since the tracer started (equal to `start` while open).
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Modeled seconds of the work inside the span (0 when the span covers
    /// host-only work).
    pub modeled: f64,
}

impl Span {
    /// Host duration in seconds.
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// A single-threaded span recorder.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: impl Into<String>) -> usize {
        let now = self.t0.elapsed().as_secs_f64();
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start: now,
            end: now,
            parent: self.stack.last().copied(),
            modeled: 0.0,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id` (which must be the innermost open one), recording
    /// its modeled seconds; returns its host duration.
    pub fn close(&mut self, id: usize, modeled: f64) -> f64 {
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        let s = &mut self.spans[id];
        s.end = self.t0.elapsed().as_secs_f64();
        s.modeled = modeled;
        s.dur()
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover.
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut covered = 0.0;
                let mut reach = s.start;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur() - covered
            })
            .collect()
    }

    /// Per-name roll-up: `(count, host seconds, self seconds, modeled
    /// seconds)`.
    pub fn rollup(&self) -> BTreeMap<String, (usize, f64, f64, f64)> {
        let selfs = self.self_times();
        let mut out: BTreeMap<String, (usize, f64, f64, f64)> = BTreeMap::new();
        for (s, st) in self.spans.iter().zip(selfs) {
            let e = out.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += s.dur();
            e.2 += st;
            e.3 += s.modeled;
        }
        out
    }

    /// Writes every span as a Chrome trace (`chrome://tracing`,
    /// Perfetto) complete event, with parent, self time and modeled
    /// seconds in `args`.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self.self_times();
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [")?;
        for (i, (s, st)) in self.spans.iter().zip(selfs).enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"args\": {{\"id\": {i}, \"parent\": {parent}, \"host_s\": {:e}, \"self_s\": {:e}, \"modeled_s\": {:e}}}}}{sep}",
                s.name,
                s.start * 1e6,
                s.dur() * 1e6,
                s.dur(),
                st,
                s.modeled,
            )?;
        }
        writeln!(f, "]}}")?;
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_coverage() {
        let mut t = Tracer::new();
        let a = t.open("a");
        let b = t.open("b");
        t.close(b, 1.0);
        let c = t.open("c");
        t.close(c, 2.0);
        t.close(a, 3.0);
        // Overwrite the clock readings with known intervals.
        t.spans[a].start = 0.0;
        t.spans[a].end = 10.0;
        t.spans[b].start = 1.0;
        t.spans[b].end = 3.0;
        t.spans[c].start = 2.0;
        t.spans[c].end = 6.0;
        let s = t.self_times();
        assert!((s[a] - 5.0).abs() < 1e-12, "overlap counted once: {}", s[a]);
        assert!((s[b] - 2.0).abs() < 1e-12);
        assert_eq!(t.spans[b].parent, Some(a));
        let r = t.rollup();
        assert_eq!(r["a"].0, 1);
        assert_eq!(r["c"].3, 2.0);
    }
}
