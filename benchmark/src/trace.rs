//! Spans recorded by the benchmark's own code around each call into a
//! layer, kept in memory and written out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    pub rep: u32,
    /// Engine configuration of the repetition the span belongs to.
    pub config: &'static str,
    /// Counters and per-kind times read where the work happened.
    pub attrs: Vec<(String, f64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder. Switched off it records nothing, so the same code path
/// serves the untraced repetitions that `trace.overhead_pct` compares with.
pub struct Tracer {
    pub enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
    config: &'static str,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
            config: "",
        }
    }

    /// Labels the spans that follow with their repetition and configuration.
    pub fn set_rep(&mut self, rep: u32, config: &'static str) {
        self.rep = rep;
        self.config = config;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the span now open.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            rep: self.rep,
            config: self.config,
            attrs: Vec::new(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Attaches a value to the innermost open span.
    pub fn attr(&mut self, key: impl Into<String>, value: f64) {
        if let Some(&id) = self.open.last() {
            self.spans[id].attrs.push((key.into(), value));
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its children
    /// cover (children of one span never overlap: one thread records them).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Durations, in milliseconds, of the spans named `name` under `config`.
    pub fn durations_ms(&self, name: &str, config: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.config == config)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// One JSON object per span and line.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let own = self.self_ns();
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"workload\":\"{workload}\",\"rep\":{},\"config\":\"{}\",\"self_ns\":{},\"attrs\":{{",
                s.name, s.start_ns, s.end_ns, s.rep, s.config, own[id]
            )
            .expect("write to a String");
            for (i, (k, v)) in s.attrs.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                write!(out, "{sep}\"{k}\":{v}").expect("write to a String");
            }
            out.push_str("}}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(true);
        t.span("rep", |t| {
            t.span("compile", |t| t.span("pipeline.logical", |_| ()));
            t.span("exec.run", |t| t.attr("exec.stages", 3.0));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        let own = t.self_ns();
        assert_eq!(
            own[0],
            spans[0].dur_ns() - spans[1].dur_ns() - spans[3].dur_ns()
        );
        assert_eq!(own[1], spans[1].dur_ns() - spans[2].dur_ns());
        assert_eq!(own[3], spans[3].dur_ns());
        assert_eq!(spans[3].attrs, vec![("exec.stages".to_string(), 3.0)]);
    }

    #[test]
    fn a_tracer_switched_off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("rep", |t| t.span("exec.run", |_| 7)), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn every_jsonl_line_parses() {
        let mut t = Tracer::new(true);
        t.set_rep(2, "default");
        t.span("rep", |t| {
            t.span("exec.run", |t| {
                t.attr("exec.op_ms.Join", 1.5);
                t.attr("exec.stages", 4.0);
            })
        });
        let text = t.to_jsonl("tpch_q4");
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let v = crate::json::parse(line).expect("span line parses");
            assert_eq!(v.get("workload").and_then(|w| w.as_str()), Some("tpch_q4"));
        }
    }
}
