//! The outside-in layer trace: spans recorded by the harness around each
//! call into a layer, kept in memory and written out when the traced pass
//! ends. Nothing inside the simulator is instrumented.

use simtrace::json::write_str;
use std::time::Instant;

/// One interval. `parent` is the span that was open when this one began;
/// spans of one campaign share `run` (an index into `Trace::runs`).
pub struct Span {
    pub name: &'static str,
    pub run: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    /// `workload/engine/seed` identifiers.
    pub runs: Vec<String>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            runs: Vec::new(),
        }
    }

    /// Spans begun from now on belong to `run_id`.
    pub fn start_run(&mut self, run_id: String) {
        assert!(self.open.is_empty(), "run changed inside an open span");
        self.runs.push(run_id);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let t = self.now_ns();
        self.spans.push(Span {
            name,
            run: self.runs.len() - 1,
            parent: self.open.last().copied(),
            start_ns: t,
            end_ns: t,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Record a span around `f`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Summed duration, in seconds, of the current run's spans called
    /// `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        let run = self.runs.len() - 1;
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.run == run && s.name == name)
            .map(Span::dur_ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// Per span, the time its direct children cover, in ns.
    fn children_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        covered
    }

    /// Share of span `id` covered by its direct children.
    pub fn coverage(&self, id: usize) -> f64 {
        let children = self.spans.iter().filter(|s| s.parent == Some(id));
        children.map(Span::dur_ns).sum::<u64>() as f64 / self.spans[id].dur_ns().max(1) as f64
    }

    /// Serialise every span with its self time (duration minus the part
    /// its children cover) plus the counts taken at the same boundaries.
    pub fn to_json(&self, workload: &str, seed: u64, counts: &[(String, f64)]) -> String {
        let covered = self.children_ns();
        let mut out = String::from("{\"schema\":\"soc-sim/benchmark-trace/v1\",\"workload\":");
        write_str(&mut out, workload);
        out.push_str(&format!(",\"seed\":{seed},\"runs\":["));
        for (i, r) in self.runs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(&mut out, r);
        }
        out.push_str("],\"counts\":{");
        for (i, (name, value)) in counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(&mut out, name);
            out.push(':');
            simtrace::json::write_f64(&mut out, *value);
        }
        out.push_str("},\"spans\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"run_id\":\"{}\",\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                self.runs[s.run],
                s.start_ns,
                s.end_ns,
                s.dur_ns().saturating_sub(covered[id])
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}
