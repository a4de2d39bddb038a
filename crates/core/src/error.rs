//! The structured error taxonomy of the simulation engines.
//!
//! The hot failure paths of the workspace — a non-converging §4.2 fixed
//! point, a violated network invariant, a bad configuration — used to
//! panic (or worse, spin). They now surface as typed [`SimError`]s so a
//! host program can report them instead of aborting, and so the
//! differential suites can assert that *failures* are as
//! deterministic and engine-independent as successes.

use crate::trace::TraceEvent;
use std::fmt;

/// A typed simulation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The dynamic scheduler exhausted its delta-cycle budget without
    /// reaching the per-cycle fixed point — a non-converging
    /// combinational dependency (or a budget set too low).
    Diverged {
        /// System cycle in which convergence failed.
        cycle: u64,
        /// The delta-cycle budget that was exhausted.
        budget: u32,
        /// Blocks still unstable when the budget ran out, in evaluation
        /// order.
        unstable_blocks: Vec<usize>,
        /// Tail of the schedule trace leading up to the failure (empty
        /// unless tracing was enabled on the engine).
        last_trace: Vec<TraceEvent>,
    },
    /// A runtime invariant check (flit conservation, queue bounds, HBR
    /// sanity) failed.
    InvariantViolated {
        /// System cycle at which the violation was detected.
        cycle: u64,
        /// Short name of the violated invariant (e.g. `conservation`).
        invariant: String,
        /// Human-readable account of observed vs expected.
        details: String,
    },
    /// The run was mis-configured (bad flag value, impossible request).
    Config(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Diverged {
                cycle,
                budget,
                unstable_blocks,
                ..
            } => write!(
                f,
                "system did not stabilise within {budget} delta cycles in cycle {cycle} — \
                 non-converging combinational dependency ({} block(s) unstable: {:?})",
                unstable_blocks.len(),
                &unstable_blocks[..unstable_blocks.len().min(8)]
            ),
            SimError::InvariantViolated {
                cycle,
                invariant,
                details,
            } => write!(
                f,
                "invariant `{invariant}` violated at cycle {cycle}: {details}"
            ),
            SimError::Config(msg) => write!(f, "configuration error: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_compact_and_named() {
        let e = SimError::Diverged {
            cycle: 7,
            budget: 640,
            unstable_blocks: (0..20).collect(),
            last_trace: Vec::new(),
        };
        let s = e.to_string();
        assert!(s.contains("cycle 7") && s.contains("640"));
        assert!(s.contains("20 block(s)"));
        // The block list is truncated, not dumped wholesale.
        assert!(!s.contains("19"));

        let e = SimError::InvariantViolated {
            cycle: 12,
            invariant: "conservation".into(),
            details: "2 flits missing".into(),
        };
        assert!(e.to_string().contains("`conservation`"));
        assert!(SimError::Config("bad".into()).to_string().contains("bad"));
    }
}
