//! # simtrace — unified observability for the simulators
//!
//! The paper's evaluation (§5.2, §6, Table 4) rests on visibility into
//! the simulator itself: per-link traffic logs, delta-cycle
//! re-evaluation counts, per-phase wall-clock profiles. This crate is
//! the common substrate those measurements flow through:
//!
//! * [`metrics`] — a lightweight registry of counters, gauges and
//!   histograms with labels, exported as a deterministic JSON snapshot;
//! * [`trace`] — structured event tracing with spans, instant events and
//!   counter samples, serialized to Chrome trace-event JSON (open in
//!   Perfetto or `chrome://tracing`) or JSONL;
//! * [`prof`] — graph-attributed kernel profiles: ranked hotspots,
//!   collapsed-stack flamegraph text and run-to-run diffs;
//! * [`json`] — the dependency-free JSON writer (and a validating
//!   reader) both are built on.
//!
//! Everything is designed to be zero-cost when disabled: a
//! [`Tracer::disabled`] handle is a `None` that every emit method
//! checks and returns from without reading the clock or allocating, and
//! detached metric handles are single relaxed atomics. Instrumentation
//! therefore stays compiled into the kernels unconditionally and is
//! wired to a live registry/tracer only when a run asks for it.
//!
//! ```
//! use simtrace::{Registry, Tracer};
//!
//! let registry = Registry::new();
//! let tracer = Tracer::new();
//! let evals = registry.counter("kernel.evals", &[]);
//! {
//!     let mut span = tracer.span("simulate", "runner");
//!     span.arg("cycles", 512u64);
//!     evals.add(17);
//! }
//! assert_eq!(tracer.len(), 1);
//! simtrace::json::validate(&tracer.to_chrome_json()).unwrap();
//! simtrace::json::validate(&registry.snapshot_json()).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod json;
pub mod metrics;
pub mod prof;
pub mod recover;
pub mod trace;

pub use metrics::{lbl, Counter, Gauge, Hist, HistSnapshot, MetricsSnapshot, Registry, SeriesId};
pub use prof::{DiffRow, ProfileEntry, ProfileReport, SccProfile};
pub use trace::{ArgValue, Span, Tracer};
