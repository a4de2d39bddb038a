//! # speccheck — static analysis of block/link spec graphs
//!
//! The paper's two scheduling regimes are *structural properties* of the
//! simulated system's graph: blocks separated by **registered**
//! boundaries may be evaluated exactly once per system cycle in any
//! topological order (§4.1), while **combinatorial** boundaries force
//! the HBR round-robin fixed point (§4.2). This crate proves, before the
//! first delta cycle, which regime each part of a system may legally
//! use, and catches the whole class of wiring bugs that otherwise only
//! surface as runtime `Diverged`/`InvariantViolated` errors:
//!
//! * [`graph::SpecGraph`] — a neutral block/link IR, extracted from a
//!   [`seqsim::SystemSpec`] (or built directly, e.g. from the `rtl`
//!   crate's event-driven netlist) with each producer→consumer edge
//!   classified *registered* or *combinational* via
//!   [`seqsim::BlockKind::comb_inputs`].
//! * [`scc`] — an iterative Tarjan SCC pass; the condensation of the
//!   full block graph is what the schedule is derived from.
//! * [`analyze`] — the lint pass ([`Diagnostic`]s: multiple writers,
//!   never-read/never-written links, width overflow, combinational
//!   self-loops, unreachable blocks, convergence-budget overruns) and
//!   the derived
//!   [`seqsim::HybridSchedule`]: a topological order over the
//!   condensation in which singleton SCCs are evaluated exactly once
//!   and only multi-block SCCs fall back to the HBR worklist.
//!
//! The analyzer is purely static — it never evaluates a block — and the
//! derived schedule is *safe by construction*: it executes on the
//! engine's ordinary HBR machinery, so even an unsound `comb_inputs`
//! declaration can cost re-evaluations, never correctness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod analyze;
pub mod graph;
pub mod scc;

pub use analyze::{
    analyze_graph, analyze_spec, normalize_diagnostics, Analysis, AnalyzeOptions, SccInfo,
};
pub use graph::{GraphBlock, GraphLink, LinkClass, SpecGraph};
pub use noc_types::diag::{codes, Diagnostic, Severity, Site};
pub use scc::strongly_connected_components;
