//! In-memory span recorder for the traced run.
//!
//! Each span covers one public call into a layer, made from the
//! benchmark's own code: its name is `<layer>.<call>`, and it records
//! start and end (nanoseconds since the recorder was created), the span
//! that encloses it, and the run it belongs to. Nothing is written until
//! the run ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use emissary_obs::JsonObject;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans of one run.
#[derive(Debug)]
pub struct Spans {
    run_id: u64,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// An empty recorder for run `run_id`.
    pub fn new(run_id: u64) -> Self {
        Spans {
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; spans `f` opens on the
    /// recorder it receives become children of this one.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Duration in seconds of the last span named `name`, or 0 if none.
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.duration_ns() as f64 / 1e9)
    }

    /// Summed duration in seconds of every span named `name`.
    pub fn total_seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .sum()
    }

    /// Each span's self time: its duration minus the time its direct
    /// children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Self time per layer, in seconds.
    pub fn layer_self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.layer()).or_insert(0.0) += ns as f64 / 1e9;
        }
        out
    }

    /// The spans as JSON lines: run, id, parent, name, start, end and
    /// self time.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let mut obj = JsonObject::new();
            obj.field_u64("run", self.run_id).field_u64("id", id as u64);
            match s.parent {
                Some(p) => obj.field_u64("parent", p as u64),
                None => obj.field_raw("parent", "null"),
            };
            obj.field_str("name", s.name)
                .field_u64("start_ns", s.start_ns)
                .field_u64("end_ns", s.end_ns)
                .field_u64("self_ns", self_ns);
            out.push_str(&obj.finish());
            out.push('\n');
        }
        out
    }

    /// Writes [`Spans::to_jsonl`] to `path`.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_jsonl().as_bytes())?;
        file.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut spans = Spans::new(7);
        spans.time("sim.run", |s| {
            s.time("workloads.build", |_| spin(5));
            spin(5);
            s.time("cache.replay", |_| spin(5));
        });
        let names: Vec<_> = spans.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["sim.run", "workloads.build", "cache.replay"]);
        assert_eq!(spans.spans[0].parent, None);
        assert_eq!(spans.spans[1].parent, Some(0));
        assert_eq!(spans.spans[2].parent, Some(0));
        let self_ns = spans.self_ns();
        let root = &spans.spans[0];
        assert_eq!(
            self_ns[0],
            root.duration_ns() - spans.spans[1].duration_ns() - spans.spans[2].duration_ns()
        );
        assert!(self_ns[0] >= 5_000_000);
        let layers = spans.layer_self_seconds();
        assert_eq!(
            layers.keys().copied().collect::<Vec<_>>(),
            ["cache", "sim", "workloads"]
        );
        let total: f64 = layers.values().sum();
        assert!((total - root.duration_ns() as f64 / 1e9).abs() < 1e-6);
    }

    #[test]
    fn jsonl_has_one_line_per_span_with_the_run_id() {
        let mut spans = Spans::new(3);
        spans.time("bench.pool", |s| s.time("bench.sync", |_| ()));
        let text = spans.to_jsonl();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"run\":3") && lines[0].contains("\"parent\":null"));
        assert!(lines[1].contains("\"parent\":0") && lines[1].contains("\"bench.sync\""));
    }
}
