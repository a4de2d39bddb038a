//! Typed, machine-readable diagnostics for static spec analysis.
//!
//! The `speccheck` analyzer (and [`SystemSpec::check`] in the `seqsim`
//! crate) reports wiring and schedulability findings as [`Diagnostic`]
//! values instead of panicking: every finding carries a stable
//! [`code`](Diagnostic::code), a [`Severity`] and a [`Site`] locating it
//! in the block/link graph, and renders to a JSON object for tooling
//! (`speclint --format json`, CI gates).
//!
//! [`SystemSpec::check`]: https://docs.rs/seqsim

use std::fmt;

/// How serious a diagnostic is.
///
/// `Error` findings make a spec unbuildable (`SimError::Config`);
/// `Warning`s flag likely mistakes or performance hazards; `Info`s
/// describe deliberate-looking oddities (e.g. an explicit sink link).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Deliberate-looking but worth surfacing.
    Info,
    /// Suspicious wiring or a performance hazard.
    Warning,
    /// The spec is malformed; engines must refuse it.
    Error,
}

impl Severity {
    /// Stable lower-case name (`"error"`, `"warning"`, `"info"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where in the block/link graph a diagnostic points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// A block instance.
    Block(usize),
    /// A link (wire bundle / signal).
    Link(usize),
    /// An input port of a block.
    InputPort {
        /// Block instance.
        block: usize,
        /// Input port index.
        port: usize,
    },
    /// An output port of a block.
    OutputPort {
        /// Block instance.
        block: usize,
        /// Output port index.
        port: usize,
    },
    /// The system as a whole (cross-cutting findings).
    System,
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Site::Block(b) => write!(f, "block {b}"),
            Site::Link(l) => write!(f, "link {l}"),
            Site::InputPort { block, port } => write!(f, "block {block} input {port}"),
            Site::OutputPort { block, port } => write!(f, "block {block} output {port}"),
            Site::System => f.write_str("system"),
        }
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// How serious the finding is.
    pub severity: Severity,
    /// Stable machine-readable code (kebab-case, e.g.
    /// `"multiple-writer"`); see [`codes`].
    pub code: &'static str,
    /// Where the finding points.
    pub site: Site,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Build a diagnostic.
    pub fn new(severity: Severity, code: &'static str, site: Site, message: String) -> Self {
        Diagnostic {
            severity,
            code,
            site,
            message,
        }
    }

    /// Render as a JSON object
    /// (`{"severity":"error","code":"...","site":"...","message":"..."}`).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"severity\":\"{}\",\"code\":\"{}\",\"site\":\"{}\",\"message\":\"{}\"}}",
            self.severity,
            self.code,
            json_escape(&self.site.to_string()),
            json_escape(&self.message)
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] at {}: {}",
            self.severity, self.code, self.site, self.message
        )
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub fn json_escape(s: &str) -> String {
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

/// The stable diagnostic codes the workspace's analyzers emit.
pub mod codes {
    /// A link is driven by more than one writer (output port, constant
    /// or external register).
    pub const MULTIPLE_WRITER: &str = "multiple-writer";
    /// A link no block ever consumes (an explicit sink is `Info`).
    pub const NEVER_READ: &str = "never-read";
    /// A block-driven link whose driving output port does not exist /
    /// is not connected to it.
    pub const NEVER_WRITTEN: &str = "never-written";
    /// A link or port wider than the 64-bit link-memory word (or zero
    /// bits wide).
    pub const WIDTH_OVERFLOW: &str = "width-overflow";
    /// A block's output feeds back combinationally into its own inputs:
    /// the HBR fixed point is not structurally guaranteed to exist.
    pub const COMB_SELF_LOOP: &str = "comb-self-loop";
    /// An input port with no link attached.
    pub const UNCONNECTED_INPUT: &str = "unconnected-input";
    /// An output port with no link attached.
    pub const UNCONNECTED_OUTPUT: &str = "unconnected-output";
    /// A block no external/host input can reach.
    pub const UNREACHABLE_BLOCK: &str = "unreachable-block";
    /// The worst-case convergence bound of a combinational SCC exceeds
    /// the divergence watchdog budget, or a combinational cycle leaves
    /// it without a static bound.
    pub const CONVERGENCE_BUDGET: &str = "convergence-budget";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_and_renders() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
        assert_eq!(Severity::Error.as_str(), "error");
    }

    #[test]
    fn json_rendering_escapes() {
        let d = Diagnostic::new(
            Severity::Error,
            codes::MULTIPLE_WRITER,
            Site::Link(3),
            "two \"writers\"".to_string(),
        );
        assert_eq!(
            d.to_json(),
            "{\"severity\":\"error\",\"code\":\"multiple-writer\",\
             \"site\":\"link 3\",\"message\":\"two \\\"writers\\\"\"}"
        );
    }

    #[test]
    fn display_is_greppable() {
        let d = Diagnostic::new(
            Severity::Warning,
            codes::NEVER_READ,
            Site::OutputPort { block: 1, port: 2 },
            "dangles".to_string(),
        );
        assert_eq!(
            d.to_string(),
            "warning[never-read] at block 1 output 2: dangles"
        );
    }
}
