//! The compiled sequential backend — the hybrid schedule lowered to a
//! flat bytecode kernel.
//!
//! [`CompiledNoc`] builds the exact same [`seqsim::SystemSpec`] as
//! [`SeqNoc`](crate::SeqNoc), then hands it to
//! [`seqsim::CompiledEngine`]: the SCC condensation and hybrid schedule
//! are lowered *once*, at build time, into a linear program over a
//! contiguous `u64` arena. The router's port-level comb structure
//! (room outputs depend on nothing, forward outputs only on incoming
//! room bits) is acyclic, so the whole NoC compiles to straight-line
//! code — two comb passes plus one update op per router per system
//! cycle, no HBR checks, no scheduler queue, no per-eval dispatch
//! hashing. The host side is the [`HostWindow`] both backends share and
//! the kernels are bit-identical, so the two differ only in speed. This
//! kernel lends the window each router's decoded registers straight
//! from the router exec, with no pack, unpack or allocation.

use crate::build::analyse;
use crate::window::{forward_to_inherent, HostWindow, SeqKernel};
use seqsim::{CompileOptions, CompiledEngine, SimError, SystemSpec};
use std::borrow::Cow;
use vc_router::{CompiledRouter, RouterRegs};

/// The compiled (bytecode-kernel) NoC engine.
pub type CompiledNoc = HostWindow<CompiledEngine>;

impl SeqKernel for CompiledEngine {
    const NAME: &'static str = "seqsim-compiled";
    const CKPT_VERSION: u32 = 0x4350_0002; // "CP" 2
    type Snapshot = seqsim::CompiledSnapshot;

    /// Analyse the spec once (an error refuses it) and lower it in the
    /// analyzer's hybrid-schedule order, so profiles and traces line up
    /// row for row with the interpreting engine.
    fn from_spec(spec: SystemSpec) -> Result<Self, SimError> {
        let order = analyse(&spec)?.map(|h| h.order);
        let opts = CompileOptions {
            order,
            ..CompileOptions::default()
        };
        Ok(CompiledEngine::with_options(spec, &opts))
    }

    forward_to_inherent!();

    fn try_step(&mut self) -> Result<(), SimError> {
        self.step();
        Ok(())
    }

    fn try_run(&mut self, n: u64) -> Result<(), SimError> {
        self.run(n);
        Ok(())
    }

    /// Borrowed from the router exec's decoded state, which is always
    /// the current one (the arena's packed words go stale at a block's
    /// first update and are packed again only into a snapshot's copy):
    /// one pointer chase, like the paper's memory peek.
    #[inline]
    fn regs(&self, node: usize, _depth: usize) -> Cow<'_, RouterRegs> {
        let inst = &self.spec().blocks()[node];
        let Some(router) = self
            .exec(inst.kind)
            .as_any()
            .downcast_ref::<CompiledRouter>()
        else {
            unreachable!("NoC block {node} is not a compiled router");
        };
        Cow::Borrowed(router.regs(inst.instance_of_kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NocEngine, SeqNoc};
    use noc_types::{Coord, Flit, NetworkConfig, NodeId, Topology};
    use vc_router::{IfaceConfig, StimEntry};

    #[test]
    fn noc_compiles_to_straight_line() {
        let cfg = NetworkConfig::new(3, 3, Topology::Torus, 4);
        let e = CompiledNoc::new(cfg, IfaceConfig::default());
        // Room outputs are comb level 0, forward outputs level 1: the
        // whole network lowers to two comb passes.
        assert_eq!(e.engine().program().levels, 2);
    }

    #[test]
    fn single_flit_packet_crosses_torus() {
        let cfg = NetworkConfig::new(3, 3, Topology::Torus, 4);
        let mut e = CompiledNoc::new(cfg, IfaceConfig::default());
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
        // Straight-line program: exactly one update per router per
        // cycle, zero re-evaluations, loaded or not.
        let stats = e.delta_stats().unwrap();
        assert_eq!(stats.system_cycles, 12);
        assert_eq!(stats.delta_cycles, 12 * 9);
        assert_eq!(stats.re_evaluations, 0);
    }

    #[test]
    fn matches_interpreting_backend_register_for_register() {
        let cfg = NetworkConfig::new(3, 2, Topology::Mesh, 2);
        let mut a = SeqNoc::new(cfg, IfaceConfig::default());
        let mut b = CompiledNoc::new(cfg, IfaceConfig::default());
        for (node, vc, dest) in [(0, 0, Coord::new(2, 1)), (3, 1, Coord::new(0, 0))] {
            let entry = StimEntry {
                ts: 1,
                flit: Flit::head_tail(dest, 0),
            };
            assert!(a.push_stim(node, vc, entry));
            assert!(b.push_stim(node, vc, entry));
        }
        for cycle in 0..20 {
            a.step();
            b.step();
            for node in 0..cfg.num_nodes() {
                assert_eq!(
                    a.peek_regs(node),
                    b.peek_regs(node),
                    "cycle {cycle} node {node}"
                );
            }
        }
        for node in 0..cfg.num_nodes() {
            assert_eq!(a.drain_delivered(node), b.drain_delivered(node));
            assert_eq!(a.drain_access(node), b.drain_access(node));
        }
    }

    fn head_tail(ts: u64, dest: Coord) -> StimEntry {
        StimEntry {
            ts,
            flit: Flit::head_tail(dest, 0),
        }
    }

    /// Step `a` and `b` one cycle at a time up to cycle `until`,
    /// comparing every register file after every cycle.
    fn lockstep(a: &mut SeqNoc, b: &mut CompiledNoc, until: u64) {
        while b.cycle() < until {
            a.step();
            b.step();
            for node in 0..b.config().num_nodes() {
                assert_eq!(
                    a.peek_regs(node),
                    b.peek_regs(node),
                    "cycle {} node {node}",
                    b.cycle()
                );
            }
        }
    }

    #[test]
    fn burst_idle_burst_matches_register_for_register() {
        // Routers fall asleep after the first burst drains, sleep
        // through the gap, and are woken by neighbours' flits (input
        // wake) and by their own due stimuli (timed wake) in the second.
        let cfg = NetworkConfig::new(4, 3, Topology::Torus, 2);
        let mut a = SeqNoc::new(cfg, IfaceConfig::default());
        let mut b = CompiledNoc::new(cfg, IfaceConfig::default());
        let n = cfg.num_nodes();
        for burst_at in [0u64, 400] {
            // Two sources, a packet every 25 cycles each: the routers on
            // the paths doze off between flits.
            for (node, vc) in [(0usize, 0usize), (7, 3)] {
                for k in 0..4u64 {
                    let dest = cfg
                        .shape
                        .coord(NodeId(((node as u64 + 5 + k) % n as u64) as u16));
                    let e = head_tail(burst_at + 25 * k, dest);
                    assert!(a.push_stim(node, vc, e));
                    assert!(b.push_stim(node, vc, e));
                }
            }
            lockstep(&mut a, &mut b, burst_at + 400);
        }
        let mut delivered = 0;
        for node in 0..n {
            let got = b.drain_delivered(node);
            delivered += got.len();
            assert_eq!(a.drain_delivered(node), got);
            assert_eq!(a.drain_access(node), b.drain_access(node));
        }
        assert_eq!(delivered, 16);
        let g = b.engine().gating_stats();
        assert!(g.skipped_frac() > 0.5, "the gaps dominate: {g:?}");
        assert!(g.input_wakes > 0 && g.timed_wakes > 0, "{g:?}");
    }

    #[test]
    fn idle_network_sleeps_after_its_first_cycle() {
        let cfg = NetworkConfig::new(6, 6, Topology::Torus, 2);
        let mut e = CompiledNoc::new(cfg, IfaceConfig::default());
        e.try_run(10_000).unwrap();
        let ops = e.engine().program().ops.len() as u64;
        let g = e.engine().gating_stats();
        assert_eq!(g.ops_executed, ops, "only cycle 0 is evaluated");
        assert_eq!(g.ops_skipped, 9_999 * ops);
        assert_eq!(g.fast_forwarded_cycles, 9_999);
        assert_eq!((g.input_wakes, g.timed_wakes), (0, 0));
        // The FPGA still pays one delta per router per cycle.
        let stats = e.delta_stats().unwrap();
        assert_eq!(stats.system_cycles, 10_000);
        assert_eq!(stats.delta_cycles, 10_000 * 36);
        assert_eq!(stats.deltas_last_cycle, 36);
    }

    #[test]
    fn far_future_stimulus_fires_on_its_exact_cycle() {
        let cfg = NetworkConfig::new(3, 3, Topology::Torus, 4);
        let mut a = SeqNoc::new(cfg, IfaceConfig::default());
        let mut b = CompiledNoc::new(cfg, IfaceConfig::default());
        let e = head_tail(5_000, Coord::new(2, 1));
        assert!(a.push_stim(0, 1, e));
        assert!(b.push_stim(0, 1, e));
        a.run(6_000);
        b.try_run(6_000).unwrap();
        let acc = b.drain_access(0);
        assert_eq!(acc.len(), 1);
        assert_eq!(
            (acc[0].ts, acc[0].delay),
            (5_000, 0),
            "injected the cycle it came due"
        );
        assert_eq!(a.drain_access(0), acc);
        let dest = cfg.shape.node_id(Coord::new(2, 1)).index();
        let got = b.drain_delivered(dest);
        assert_eq!(got.len(), 1);
        assert_eq!(a.drain_delivered(dest), got);
        for node in 0..cfg.num_nodes() {
            assert_eq!(a.peek_regs(node), b.peek_regs(node), "node {node}");
        }
        assert_eq!(a.delta_stats().unwrap().system_cycles, 6_000);
        let g = b.engine().gating_stats();
        assert_eq!(g.timed_wakes, 1, "{g:?}");
        assert!(g.fast_forwarded_cycles > 5_900, "{g:?}");
    }

    #[test]
    fn try_run_equals_stepping_with_pushes_into_a_sleeping_network() {
        // Same host schedule on both: chunks of 300/212 cycles with a
        // push in between, landing in a network that is entirely asleep
        // (the first chunk outlasts the first packet by far).
        let cfg = NetworkConfig::new(3, 3, Topology::Torus, 2);
        let mut seq = SeqNoc::new(cfg, IfaceConfig::default());
        let mut run = CompiledNoc::new(cfg, IfaceConfig::default());
        let mut step = CompiledNoc::new(cfg, IfaceConfig::default());
        let mut t = 0u64;
        for (chunk, node, dest) in [
            (300u64, 0usize, Coord::new(2, 2)),
            (212, 4, Coord::new(0, 1)),
            (300, 8, Coord::new(1, 1)),
        ] {
            // Due 40 cycles into the chunk: a timed wake inside it.
            let e = head_tail(t + 40, dest);
            assert!(seq.push_stim(node, 2, e));
            assert!(run.push_stim(node, 2, e));
            assert!(step.push_stim(node, 2, e));
            seq.run(chunk);
            run.try_run(chunk).unwrap();
            for _ in 0..chunk {
                step.try_step().unwrap();
            }
            t += chunk;
            assert_eq!(run.cycle(), t);
            assert_eq!(run.delta_stats(), step.delta_stats(), "cycle {t}");
            assert_eq!(run.save_state(), step.save_state(), "cycle {t}: raw state");
            for node in 0..cfg.num_nodes() {
                assert_eq!(
                    seq.peek_regs(node),
                    run.peek_regs(node),
                    "cycle {t} node {node}"
                );
            }
            let (g, gs) = (run.engine().gating_stats(), step.engine().gating_stats());
            assert_eq!(g.ops_skipped, gs.ops_skipped, "cycle {t}");
            assert_eq!(
                g.ops_executed + g.ops_skipped,
                t * run.engine().program().ops.len() as u64
            );
        }
        assert!(run.engine().gating_stats().fast_forwarded_cycles > 500);
        assert_eq!(step.engine().gating_stats().fast_forwarded_cycles, 0);
        for node in 0..cfg.num_nodes() {
            assert_eq!(seq.drain_delivered(node), run.drain_delivered(node));
        }
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let cfg = NetworkConfig::new(3, 3, Topology::Torus, 4);
        let mut e = CompiledNoc::new(cfg, IfaceConfig::default());
        e.push_stim(
            0,
            0,
            StimEntry {
                ts: 0,
                flit: Flit::head_tail(Coord::new(2, 2), 0),
            },
        );
        e.run(5);
        let snap = e.snapshot();
        e.run(10);
        let after: Vec<RouterRegs> = (0..9).map(|n| e.peek_regs(n)).collect();
        e.restore(&snap);
        e.run(10);
        for n in 0..9 {
            assert_eq!(e.peek_regs(n), after[n], "node {n}");
        }
    }
}
