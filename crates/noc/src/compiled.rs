//! The compiled sequential backend — the hybrid schedule lowered to a
//! flat bytecode kernel.
//!
//! [`CompiledNoc`] builds the exact same [`seqsim::SystemSpec`] as
//! [`SeqNoc`](crate::SeqNoc) (shared constructor), then hands it to
//! [`seqsim::CompiledEngine`]: the SCC condensation and hybrid schedule
//! are lowered *once*, at build time, into a linear program over a
//! contiguous `u64` arena. The router's port-level comb structure
//! (room outputs depend on nothing, forward outputs only on incoming
//! room bits) is acyclic, so the whole NoC compiles to straight-line
//! code — two comb passes plus one update op per router per system
//! cycle, no HBR checks, no scheduler queue, no per-eval dispatch
//! hashing. Host access (stimuli rings, pointer peeks) is unchanged:
//! the side memory and external links behave exactly as in the
//! interpreting engine, so the two backends are bit-identical and
//! differ only in speed.

use crate::build::analyse;
use crate::engine::{ring_pending, HostPtrs, NocEngine};
use crate::seq::{attributed_profiler, build_noc_spec};
use noc_types::fault::FaultPlan;
use noc_types::{NetworkConfig, NUM_VCS};
use seqsim::{CompileOptions, CompiledEngine, DeltaStats, SimError, SystemSpec};
use std::sync::Arc;
use vc_router::block::{RING_ACC, RING_OUT, RING_STIM0};
use vc_router::{AccEntry, CompiledRouter, IfaceConfig, OutEntry, RouterRegs, StimEntry};

/// Wire version of [`CompiledNoc`] checkpoints (engine-distinct so a
/// checkpoint can never be restored into the wrong backend).
const CKPT_VERSION: u32 = 0x4350_0001; // "CP" 1

/// The compiled (bytecode-kernel) NoC engine.
pub struct CompiledNoc {
    cfg: NetworkConfig,
    iface_cfg: IfaceConfig,
    engine: CompiledEngine,
    /// External link ids of the stimuli write-pointer registers.
    wr_links: Vec<[usize; NUM_VCS]>,
    /// Link ids of each node's outgoing forward links.
    fwd_links: Vec<[usize; 4]>,
    /// Queue depth per node (homogeneous networks repeat one value).
    depths: Vec<usize>,
    host: HostPtrs,
    faults: Option<Arc<FaultPlan>>,
}

impl CompiledNoc {
    /// Compile the network into a bytecode kernel.
    pub fn new(cfg: NetworkConfig, iface_cfg: IfaceConfig) -> Self {
        Self::with_faults(cfg, iface_cfg, None)
    }

    /// Compile with a deterministic fault plan baked into the shared
    /// router kind, identically to the interpreting backends.
    pub fn with_faults(
        cfg: NetworkConfig,
        iface_cfg: IfaceConfig,
        faults: Option<Arc<FaultPlan>>,
    ) -> Self {
        let n = cfg.num_nodes();
        Self::with_depths_and_faults(cfg, iface_cfg, &vec![cfg.router.queue_depth; n], faults)
    }

    /// Compile a *heterogeneous* network: per-node queue depths, one
    /// shared kind per distinct depth (paper §7.1).
    pub fn with_depths(cfg: NetworkConfig, iface_cfg: IfaceConfig, depths: &[usize]) -> Self {
        Self::with_depths_and_faults(cfg, iface_cfg, depths, None)
    }

    /// The fully-general constructor: per-node depths plus an optional
    /// fault plan.
    pub fn with_depths_and_faults(
        cfg: NetworkConfig,
        iface_cfg: IfaceConfig,
        depths: &[usize],
        faults: Option<Arc<FaultPlan>>,
    ) -> Self {
        let parts = build_noc_spec(&cfg, iface_cfg, depths, &faults);
        // Lower the analyzer's hybrid-schedule order when one exists
        // (none on analysis errors): the compiled program visits blocks
        // in the same condensation order the interpreting engine would,
        // so profiles and traces line up row for row.
        let order = analyse(&parts.0).ok().flatten().map(|h| h.order);
        Self::compile(cfg, iface_cfg, depths, faults, parts, order)
    }

    /// Compile the parts [`build_noc_spec`] assembled, visiting blocks
    /// in `order` (spec order when `None`).
    pub(crate) fn compile(
        cfg: NetworkConfig,
        iface_cfg: IfaceConfig,
        depths: &[usize],
        faults: Option<Arc<FaultPlan>>,
        (spec, wr_links, fwd_links): (SystemSpec, Vec<[usize; NUM_VCS]>, Vec<[usize; 4]>),
        order: Option<Vec<usize>>,
    ) -> Self {
        let opts = CompileOptions {
            order,
            ..CompileOptions::default()
        };
        let engine = CompiledEngine::with_options(spec, &opts);
        CompiledNoc {
            cfg,
            iface_cfg,
            engine,
            wr_links,
            fwd_links,
            depths: depths.to_vec(),
            host: HostPtrs::new(cfg.num_nodes()),
            faults,
        }
    }

    /// The underlying compiled engine (program inspection, disassembly).
    pub fn engine(&self) -> &CompiledEngine {
        &self.engine
    }

    /// Mutable access to the underlying engine.
    pub fn engine_mut(&mut self) -> &mut CompiledEngine {
        &mut self.engine
    }

    /// Checkpoint the whole simulator including the host-side ring
    /// pointers (paper §5.1's full-address-map access).
    pub fn snapshot(&self) -> (seqsim::CompiledSnapshot, HostPtrs) {
        (self.engine.snapshot(), self.host.clone())
    }

    /// Restore a checkpoint taken with [`snapshot`](Self::snapshot).
    pub fn restore(&mut self, snap: &(seqsim::CompiledSnapshot, HostPtrs)) {
        self.engine.restore(&snap.0);
        self.host = snap.1.clone();
    }

    /// Device-side register file of one router (a host "memory peek"):
    /// the packed state words, decoded. The audit reads
    /// ([`stim_free`](NocEngine::stim_free),
    /// [`vc_occupancy`](NocEngine::vc_occupancy)) come through here.
    pub fn peek_regs(&self, node: usize) -> RouterRegs {
        RouterRegs::unpack(self.depths[node], &self.engine.peek_state(node))
    }

    /// Borrow node `node`'s decoded register file straight from the
    /// router exec — the campaign's host window (`push_stim`,
    /// `drain_delivered`, `drain_access`) reads one pointer per call,
    /// so it must not pay a pack and an unpack of the whole file for it.
    fn regs(&self, node: usize) -> &RouterRegs {
        let inst = &self.engine.spec().blocks()[node];
        let Some(router) = self
            .engine
            .exec(inst.kind)
            .as_any()
            .downcast_ref::<CompiledRouter>()
        else {
            unreachable!("NoC block {node} is not a compiled router");
        };
        router.regs(inst.instance_of_kind)
    }

    /// Free slots of a stimuli ring given the device's read pointer.
    fn stim_room(&self, node: usize, vc: usize, dev_rd: u16) -> usize {
        let fill = self.host.stim_wr[node][vc].wrapping_sub(dev_rd);
        self.iface_cfg.stim_cap - fill as usize
    }
}

impl NocEngine for CompiledNoc {
    fn name(&self) -> &'static str {
        "seqsim-compiled"
    }

    fn config(&self) -> NetworkConfig {
        self.cfg
    }

    fn cycle(&self) -> u64 {
        self.engine.cycle()
    }

    fn step(&mut self) {
        self.engine.step();
    }

    fn run(&mut self, n: u64) {
        self.engine.run(n);
    }

    fn try_run(&mut self, n: u64) -> Result<(), SimError> {
        self.engine.run(n);
        Ok(())
    }

    fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    fn probe_link(&self, node: usize, dir: usize) -> Option<vc_router::OutEntry> {
        if self.engine.cycle() == 0 {
            return None;
        }
        let w = noc_types::LinkFwd::from_bits(self.engine.link_value(self.fwd_links[node][dir]));
        w.valid.then(|| vc_router::OutEntry {
            cycle: self.engine.cycle() - 1,
            vc: w.vc,
            flit: w.flit,
        })
    }

    fn vc_occupancy(&self, node: usize) -> Option<[u32; NUM_VCS]> {
        let regs = self.peek_regs(node);
        let mut occ = [0u32; NUM_VCS];
        for p in 0..noc_types::NUM_PORTS {
            for (vc, o) in occ.iter_mut().enumerate() {
                *o += regs.queues[p * NUM_VCS + vc].occupancy() as u32;
            }
        }
        Some(occ)
    }

    fn attach_profiler(&mut self, sample_every: u64) -> bool {
        self.engine
            .attach_profiler(attributed_profiler(self.engine.spec(), sample_every));
        true
    }

    fn take_profile(&mut self, wall_s: f64) -> Option<simtrace::ProfileReport> {
        self.engine
            .take_profiler()
            .map(|p| p.report("seqsim-compiled", wall_s))
    }

    fn stim_capacity(&self) -> usize {
        self.iface_cfg.stim_cap
    }

    fn stim_free(&self, node: usize, vc: usize) -> usize {
        self.stim_room(node, vc, self.peek_regs(node).iface.stim_rd[vc])
    }

    fn push_stim(&mut self, node: usize, vc: usize, entry: StimEntry) -> bool {
        if self.stim_room(node, vc, self.regs(node).iface.stim_rd[vc]) == 0 {
            return false;
        }
        let wr = &mut self.host.stim_wr[node][vc];
        self.engine
            .side_mut()
            .write(node, RING_STIM0 + vc, *wr as usize, entry.to_bits());
        *wr = wr.wrapping_add(1);
        self.engine
            .set_external(self.wr_links[node][vc], *wr as u64);
        true
    }

    fn drain_delivered(&mut self, node: usize) -> Vec<OutEntry> {
        let dev = self.regs(node).iface.out_wr;
        let rd = &mut self.host.out_rd[node];
        let pending = ring_pending(*rd, dev, self.iface_cfg.out_cap, "output");
        let mut out = Vec::with_capacity(pending);
        for _ in 0..pending {
            out.push(OutEntry::from_bits(self.engine.side().read(
                node,
                RING_OUT,
                *rd as usize,
            )));
            *rd = rd.wrapping_add(1);
        }
        out
    }

    fn drain_access(&mut self, node: usize) -> Vec<AccEntry> {
        let dev = self.regs(node).iface.acc_wr;
        let rd = &mut self.host.acc_rd[node];
        let pending = ring_pending(*rd, dev, self.iface_cfg.acc_cap, "access-delay");
        let mut out = Vec::with_capacity(pending);
        for _ in 0..pending {
            out.push(AccEntry::from_bits(self.engine.side().read(
                node,
                RING_ACC,
                *rd as usize,
            )));
            *rd = rd.wrapping_add(1);
        }
        out
    }

    fn delta_stats(&self) -> Option<DeltaStats> {
        Some(self.engine.stats().clone())
    }

    fn reset_delta_stats(&mut self) {
        self.engine.reset_stats();
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        let mut e = seqsim::Enc::new();
        self.engine.snapshot().encode(&mut e);
        self.host.encode(&mut e);
        Some(seqsim::wire::seal(CKPT_VERSION, &e.into_bytes()))
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), SimError> {
        let ckpt =
            |e: seqsim::WireError| SimError::Config(format!("seqsim-compiled checkpoint: {e}"));
        let payload = seqsim::wire::open(bytes, CKPT_VERSION).map_err(ckpt)?;
        let mut d = seqsim::Dec::new(payload);
        let snap = seqsim::CompiledSnapshot::decode(&mut d).map_err(ckpt)?;
        let host = HostPtrs::decode(&mut d).map_err(ckpt)?;
        if !d.finished() {
            return Err(ckpt(seqsim::WireError::new("trailing bytes")));
        }
        self.engine.restore(&snap);
        self.host = host;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeqNoc;
    use noc_types::{Coord, Flit, NodeId, Topology};

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
