//! Spec-graph adapter: lint the event-driven netlist with `speccheck`.
//!
//! The analyzer's IR is front-end neutral — signals map to links,
//! processes to blocks. Classification follows VHDL idiom: a process
//! sensitive *only* to the clock is a register process (its outputs are
//! [`CombInputs::None`], final for the cycle once written at the edge);
//! every other process is combinational in all of its declared reads.
//! The derived hybrid schedule is meaningless for an event kernel (it
//! schedules by sensitivity, not by a block order) — what the analysis
//! buys here is the *lint* pass: multiple drivers, dead signals,
//! combinational loops through the netlist, and convergence bounds on
//! the delta cascade.

use crate::kernel::{EventKernel, SigId};
use crate::netlist::RtlNoc;
use seqsim::CombInputs;
use speccheck::{GraphBlock, GraphLink, LinkClass, SpecGraph};

/// Extract the block/link graph of a kernel's netlist.
///
/// `external` lists the host-poked signals (stimuli write pointers);
/// they and the clock are classified [`LinkClass::External`]. A signal
/// no process declares as written and that is not external is a
/// constant tie-off holding its elaboration value.
pub fn kernel_graph(k: &EventKernel, external: &[SigId]) -> SpecGraph {
    let clk = k.clock_signal();
    let mut links: Vec<GraphLink> = (0..k.signal_count())
        .map(|_| GraphLink {
            width: 64,
            class: LinkClass::Wire,
        })
        .collect();
    for &s in external.iter().chain(clk.as_ref()) {
        links[s].class = LinkClass::External;
    }
    let mut written = vec![false; links.len()];
    for p in 0..k.process_count() {
        for &w in k.proc_writes(p) {
            written[w] = true;
        }
    }
    for (s, l) in links.iter_mut().enumerate() {
        if !written[s] && matches!(l.class, LinkClass::Wire) {
            l.class = LinkClass::Const(k.peek(s));
        }
    }
    let blocks = (0..k.process_count())
        .map(|p| {
            let registered = matches!((clk, k.proc_sens(p)), (Some(c), [s]) if *s == c);
            let n_out = k.proc_writes(p).len();
            GraphBlock {
                name: k.proc_name(p).to_string(),
                inputs: k.proc_reads(p).iter().map(|&s| Some(s)).collect(),
                outputs: k.proc_writes(p).iter().map(|&s| Some(s)).collect(),
                comb: vec![
                    if registered {
                        CombInputs::None
                    } else {
                        CombInputs::All
                    };
                    n_out
                ],
                host_visible: false,
            }
        })
        .collect();
    SpecGraph { blocks, links }
}

impl RtlNoc {
    /// The spec graph of this engine's elaborated netlist (feed it to
    /// [`speccheck::analyze_graph`]).
    pub fn spec_graph(&self) -> SpecGraph {
        kernel_graph(self.kernel(), &self.poked_signals())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_types::{NetworkConfig, Topology};
    use speccheck::{analyze_graph, AnalyzeOptions, Severity};
    use vc_router::IfaceConfig;

    #[test]
    fn torus_netlist_lints_clean() {
        let cfg = NetworkConfig::new(3, 3, Topology::Torus, 4);
        let e = RtlNoc::new(cfg, IfaceConfig::default());
        let g = e.spec_graph();
        let a = analyze_graph(&g, &AnalyzeOptions::default());
        assert!(!a.has_errors(), "errors: {:#?}", a.diagnostics);
        // Every torus wire has a consumer and nothing is unreachable;
        // at most Info-level findings (the shared constant-zero signal
        // is unused when every port has a neighbour).
        assert!(
            a.max_severity() <= Some(Severity::Info),
            "unexpected findings: {:#?}",
            a.diagnostics
        );
        // The netlist is combinational-cycle free: every SCC has a
        // static convergence bound within the watchdog budget.
        assert!(a.convergence_bound <= a.watchdog_budget);
        assert!(a.sccs.iter().all(|s| s.comb_depth.is_some()));
    }

    #[test]
    fn mesh_boundary_sinks_are_info_only() {
        let cfg = NetworkConfig::new(3, 3, Topology::Mesh, 4);
        let e = RtlNoc::new(cfg, IfaceConfig::default());
        let a = analyze_graph(&e.spec_graph(), &AnalyzeOptions::default());
        assert!(!a.has_errors(), "errors: {:#?}", a.diagnostics);
        // Mesh-edge forward/room wires dangle outward: explicit sinks.
        assert_eq!(a.max_severity(), Some(Severity::Info));
        assert!(a
            .diagnostics
            .iter()
            .all(|d| d.code == speccheck::codes::NEVER_READ));
    }

    #[test]
    fn registered_and_comb_processes_are_distinguished() {
        let cfg = NetworkConfig::new(3, 3, Topology::Torus, 4);
        let e = RtlNoc::new(cfg, IfaceConfig::default());
        let g = e.spec_graph();
        let reg = g
            .blocks
            .iter()
            .filter(|b| b.comb.iter().all(|c| c.is_registered()) && !b.comb.is_empty())
            .count();
        // Per router: 20 queue-reg + switch-ctrl + iface-clock, plus the
        // global cycle counter.
        assert_eq!(reg, 9 * 22 + 1);
        assert!(g.blocks.iter().any(|b| b.name == "fwd-mux"));
    }
}
