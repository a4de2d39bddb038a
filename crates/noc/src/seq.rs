//! The sequential-simulator backend — the software twin of the paper's
//! FPGA design (Fig 7).
//!
//! One [`seqsim::DynamicEngine`] holds every router as a
//! [`vc_router::RouterBlock`] instance: one shared implementation, all
//! registers in the double-buffered state memory, all inter-router wires
//! in the HBR link memory, stimuli/output rings in side (BRAM) memory.
//! The host reaches it through the [`HostWindow`] it shares with
//! [`CompiledNoc`](crate::CompiledNoc); this kernel reads a router's
//! registers by unpacking its state-memory word.

use crate::window::{forward_to_inherent, HostWindow, SeqKernel};
use seqsim::{DynamicEngine, SimError, SystemSpec};
use std::borrow::Cow;
use vc_router::RouterRegs;

/// The sequential (FPGA-method) NoC engine. It schedules HBR +
/// round-robin unless the builder adopts the analyzer's hybrid schedule
/// or a caller sets another through `engine_mut().set_scheduling(..)`.
pub type SeqNoc = HostWindow<DynamicEngine>;

impl SeqKernel for DynamicEngine {
    const NAME: &'static str = "seqsim";
    const CKPT_VERSION: u32 = 0x5351_0002; // "SQ" 2
    type Snapshot = seqsim::Snapshot;

    /// The paper's scheduling, HBR + round-robin.
    fn from_spec(spec: SystemSpec) -> Result<Self, SimError> {
        Ok(DynamicEngine::new(spec))
    }

    forward_to_inherent!();

    fn try_step(&mut self) -> Result<(), SimError> {
        Self::try_step(self)
    }

    fn try_run(&mut self, n: u64) -> Result<(), SimError> {
        Self::try_run(self, n)
    }

    fn attach_instrumentation(&mut self, registry: &simtrace::Registry, tracer: &simtrace::Tracer) {
        self.set_instrumentation(seqsim::KernelInstr::with_registry(
            registry,
            tracer.clone(),
            Self::NAME,
        ));
    }

    fn regs(&self, node: usize, depth: usize) -> Cow<'_, RouterRegs> {
        Cow::Owned(RouterRegs::unpack(depth, self.peek_state(node)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NocEngine;
    use noc_types::{Coord, Flit, NetworkConfig, Topology};
    use vc_router::{IfaceConfig, StimEntry};

    #[test]
    fn single_flit_packet_crosses_torus() {
        let cfg = NetworkConfig::new(3, 3, Topology::Torus, 4);
        let mut e = SeqNoc::new(cfg, IfaceConfig::default());
        let dest = Coord::new(2, 1);
        let entry = StimEntry {
            ts: 0,
            flit: Flit::head_tail(dest, 0),
        };
        assert!(e.push_stim(0, 0, entry));
        e.run(12);
        let dest_node = cfg.shape.node_id(dest).index();
        let got = e.drain_delivered(dest_node);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].flit, entry.flit);
        // Delta accounting: at least one eval per router per cycle.
        let stats = e.delta_stats().unwrap();
        assert_eq!(stats.system_cycles, 12);
        assert!(stats.delta_cycles >= 12 * 9);
    }

    #[test]
    fn mesh_edges_are_safe() {
        let cfg = NetworkConfig::new(3, 2, Topology::Mesh, 2);
        let mut e = SeqNoc::new(cfg, IfaceConfig::default());
        let dest = Coord::new(2, 1);
        e.push_stim(
            0,
            1,
            StimEntry {
                ts: 0,
                flit: Flit::head_tail(dest, 0),
            },
        );
        e.run(16);
        let got = e.drain_delivered(cfg.shape.node_id(dest).index());
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn idle_network_needs_minimum_deltas_only() {
        let cfg = NetworkConfig::new(4, 4, Topology::Torus, 4);
        let mut e = SeqNoc::new(cfg, IfaceConfig::default());
        e.run(20);
        let stats = e.delta_stats().unwrap();
        // Idle: nothing changes on any link after the first cycle, so no
        // re-evaluations are needed.
        assert_eq!(stats.deltas_last_cycle, 16);
        assert!(stats.extra_fraction(16) < 0.05, "idle extra {:?}", stats);
    }
}
