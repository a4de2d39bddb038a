//! Structured event tracing: spans and instant/counter events that
//! serialize to the Chrome trace-event format (open the file in Perfetto
//! or `chrome://tracing`) or to JSONL.
//!
//! The tracer is a cheap cloneable handle. A disabled tracer
//! ([`Tracer::disabled`]) is a `None` inside — every emit method returns
//! immediately without reading the clock or allocating, so
//! instrumentation hooks can stay compiled in on hot paths.

use crate::json;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A typed event argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// String.
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I64(v)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

impl ArgValue {
    fn write_json(&self, out: &mut String) {
        match self {
            ArgValue::U64(v) => out.push_str(&v.to_string()),
            ArgValue::I64(v) => out.push_str(&v.to_string()),
            ArgValue::F64(v) => json::write_f64(out, *v),
            ArgValue::Str(s) => json::write_str(out, s),
        }
    }
}

#[derive(Debug, Clone)]
enum Phase {
    /// Chrome "X": a complete span with a duration.
    Complete { dur_us: f64 },
    /// Chrome "i": an instant event.
    Instant,
    /// Chrome "C": a counter sample (args are the series values).
    Counter,
}

#[derive(Debug, Clone)]
struct Event {
    name: &'static str,
    cat: &'static str,
    ts_us: f64,
    phase: Phase,
    args: Vec<(&'static str, ArgValue)>,
}

impl Event {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"name\":");
        json::write_str(out, self.name);
        out.push_str(",\"cat\":");
        json::write_str(out, self.cat);
        out.push_str(",\"ph\":");
        match &self.phase {
            Phase::Complete { dur_us } => {
                out.push_str("\"X\",\"dur\":");
                json::write_f64(out, *dur_us);
            }
            Phase::Instant => out.push_str("\"i\",\"s\":\"g\""),
            Phase::Counter => out.push_str("\"C\""),
        }
        out.push_str(",\"ts\":");
        json::write_f64(out, self.ts_us);
        out.push_str(",\"pid\":0,\"tid\":0");
        if !self.args.is_empty() {
            out.push_str(",\"args\":{");
            for (i, (k, v)) in self.args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_str(out, k);
                out.push(':');
                v.write_json(out);
            }
            out.push('}');
        }
        out.push('}');
    }
}

struct TracerInner {
    epoch: Instant,
    events: Mutex<Vec<Event>>,
    detail: bool,
}

/// The event tracer handle. Clones share the same buffer.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// A tracer that records coarse events (phase spans, per-cycle
    /// counters).
    pub fn new() -> Self {
        Self::build(false)
    }

    /// A tracer that additionally records fine-grained events (per-delta
    /// block evaluations) — much larger traces; use on short runs.
    pub fn new_detailed() -> Self {
        Self::build(true)
    }

    fn build(detail: bool) -> Self {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                epoch: Instant::now(),
                events: Mutex::new(Vec::new()),
                detail,
            })),
        }
    }

    /// The no-op tracer: every emit returns immediately, no clock reads,
    /// no allocation.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// Is the tracer recording at all?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Should fine-grained (per-delta) events be emitted?
    #[inline]
    pub fn detail(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.detail)
    }

    fn now_us(inner: &TracerInner) -> f64 {
        inner.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Start a span; it ends (and is recorded) when the guard drops.
    #[inline]
    pub fn span(&self, name: &'static str, cat: &'static str) -> Span {
        Span {
            tracer: self.clone(),
            name,
            cat,
            start: self.inner.as_ref().map(|_| Instant::now()),
            args: Vec::new(),
        }
    }

    /// Record an instant event.
    #[inline]
    pub fn instant(
        &self,
        name: &'static str,
        cat: &'static str,
        args: &[(&'static str, ArgValue)],
    ) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        let ev = Event {
            name,
            cat,
            ts_us: Self::now_us(inner),
            phase: Phase::Instant,
            args: args.to_vec(),
        };
        inner
            .events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(ev);
    }

    /// Record a counter sample (renders as a graph track in Perfetto).
    #[inline]
    pub fn counter(&self, name: &'static str, values: &[(&'static str, f64)]) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        let ev = Event {
            name,
            cat: "counter",
            ts_us: Self::now_us(inner),
            phase: Phase::Counter,
            args: values.iter().map(|&(k, v)| (k, ArgValue::F64(v))).collect(),
        };
        inner
            .events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(ev);
    }

    fn record_span(
        &self,
        name: &'static str,
        cat: &'static str,
        start: Instant,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        let dur_us = start.elapsed().as_secs_f64() * 1e6;
        let ts_us = start.duration_since(inner.epoch).as_secs_f64() * 1e6;
        let ev = Event {
            name,
            cat,
            ts_us,
            phase: Phase::Complete { dur_us },
            args,
        };
        inner
            .events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(ev);
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| {
            i.events
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .len()
        })
    }

    /// True when no events were recorded (or the tracer is disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Render the Chrome trace-event JSON document
    /// (`{"traceEvents":[...]}`) — loadable in Perfetto and
    /// `chrome://tracing`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 * self.len() + 64);
        out.push_str("{\"traceEvents\":[");
        if let Some(inner) = self.inner.as_ref() {
            let events = inner
                .events
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for (i, e) in events.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                e.write_json(&mut out);
            }
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// Render JSONL: one event object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(64 * self.len());
        if let Some(inner) = self.inner.as_ref() {
            let events = inner
                .events
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for e in events.iter() {
                e.write_json(&mut out);
                out.push('\n');
            }
        }
        out
    }

    /// Write the Chrome trace-event document to a file.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_json())
    }

    /// Write the JSONL rendering to a file.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }

    /// Names of all recorded events (tests).
    pub fn event_names(&self) -> Vec<&'static str> {
        self.inner.as_ref().map_or(Vec::new(), |i| {
            i.events
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .iter()
                .map(|e| e.name)
                .collect()
        })
    }
}

/// A RAII span guard from [`Tracer::span`]; records a complete event on
/// drop.
pub struct Span {
    tracer: Tracer,
    name: &'static str,
    cat: &'static str,
    start: Option<Instant>,
    args: Vec<(&'static str, ArgValue)>,
}

impl Span {
    /// Attach an argument to the span (recorded at drop).
    pub fn arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if self.start.is_some() {
            self.args.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            self.tracer
                .record_span(self.name, self.cat, start, std::mem::take(&mut self.args));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        t.instant("x", "test", &[("a", 1u64.into())]);
        t.counter("c", &[("v", 1.0)]);
        drop(t.span("s", "test"));
        assert_eq!(t.len(), 0);
        assert_eq!(
            t.to_chrome_json(),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}"
        );
        assert_eq!(t.to_jsonl(), "");
    }

    #[test]
    fn spans_instants_counters_serialize_validly() {
        let t = Tracer::new();
        {
            let mut s = t.span("phase.generate", "runner");
            s.arg("period", 0usize);
            t.instant("kernel.cycle", "kernel", &[("deltas", 17u64.into())]);
            t.counter("occupancy", &[("vc0", 2.0), ("vc1", 0.0)]);
        }
        assert_eq!(t.len(), 3);
        let chrome = t.to_chrome_json();
        crate::json::validate(&chrome).expect("chrome trace must be valid JSON");
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"ph\":\"i\""));
        assert!(chrome.contains("\"ph\":\"C\""));
        assert!(chrome.contains("phase.generate"));
        for line in t.to_jsonl().lines() {
            crate::json::validate(line).expect("every JSONL line must be valid JSON");
        }
    }

    #[test]
    fn span_order_is_completion_order_with_correct_timestamps() {
        let t = Tracer::new();
        {
            let _outer = t.span("outer", "test");
            let _inner = t.span("inner", "test");
        }
        // Inner drops first.
        assert_eq!(t.event_names(), vec!["inner", "outer"]);
    }

    #[test]
    fn detail_flag() {
        assert!(!Tracer::new().detail());
        assert!(Tracer::new_detailed().detail());
        assert!(!Tracer::disabled().detail());
    }

    #[test]
    fn clones_share_the_buffer() {
        let t = Tracer::new();
        let u = t.clone();
        u.instant("from-clone", "test", &[]);
        assert_eq!(t.len(), 1);
    }
}
