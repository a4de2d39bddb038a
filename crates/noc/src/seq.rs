//! The sequential-simulator backend — the software twin of the paper's
//! FPGA design (Fig 7).
//!
//! One [`seqsim::DynamicEngine`] holds every router as a
//! [`vc_router::RouterBlock`] instance: one shared implementation, all
//! registers in the double-buffered state memory, all inter-router wires
//! in the HBR link memory, stimuli/output rings in side (BRAM) memory.
//! The host accesses rings and pointers exactly as the ARM does over the
//! memory interface: slot writes plus an external write-pointer register
//! per ring, state peeks for the device-side pointers.

use crate::engine::{ring_pending, HostPtrs, NocEngine};
use crate::wiring::Wiring;
use noc_types::fault::FaultPlan;
use noc_types::{Direction, NetworkConfig, NUM_VCS};
use seqsim::{DeltaStats, DynamicEngine, Scheduling, SimError, SystemSpec};
use std::sync::Arc;
use vc_router::block::{
    IN_FWD0, IN_ROOM0, IN_WRPTR0, OUT_FWD0, OUT_ROOM0, RING_ACC, RING_OUT, RING_STIM0,
};
use vc_router::{AccEntry, IfaceConfig, OutEntry, RouterBlock, RouterRegs, StimEntry};

/// Wire version of [`SeqNoc`] checkpoints (engine-distinct so a
/// checkpoint can never be restored into the wrong backend).
const CKPT_VERSION: u32 = 0x5351_0001; // "SQ" 1

/// The sequential (FPGA-method) NoC engine.
pub struct SeqNoc {
    cfg: NetworkConfig,
    iface_cfg: IfaceConfig,
    engine: DynamicEngine,
    /// External link ids of the stimuli write-pointer registers.
    wr_links: Vec<[usize; NUM_VCS]>,
    /// Link ids of each node's outgoing forward links (None at mesh
    /// edges' sink links is still a valid id; edges simply stay idle).
    fwd_links: Vec<[usize; 4]>,
    /// Queue depth per node (homogeneous networks repeat one value).
    depths: Vec<usize>,
    host: HostPtrs,
    faults: Option<Arc<FaultPlan>>,
}

impl SeqNoc {
    /// Build the engine (paper scheduling: HBR + round-robin).
    pub fn new(cfg: NetworkConfig, iface_cfg: IfaceConfig) -> Self {
        Self::with_scheduling(cfg, iface_cfg, Scheduling::HbrRoundRobin)
    }

    /// Build with an explicit scheduling policy (for the HBR ablation).
    pub fn with_scheduling(
        cfg: NetworkConfig,
        iface_cfg: IfaceConfig,
        scheduling: Scheduling,
    ) -> Self {
        let n = cfg.num_nodes();
        Self::with_depths_and_scheduling(
            cfg,
            iface_cfg,
            &vec![cfg.router.queue_depth; n],
            scheduling,
        )
    }

    /// Build with a deterministic fault plan (paper scheduling). The plan
    /// is baked into the shared router kind so stall and link faults are
    /// applied inside `eval`, identically to the native reference.
    pub fn with_faults(
        cfg: NetworkConfig,
        iface_cfg: IfaceConfig,
        faults: Option<Arc<FaultPlan>>,
    ) -> Self {
        let n = cfg.num_nodes();
        Self::with_depths_scheduling_faults(
            cfg,
            iface_cfg,
            &vec![cfg.router.queue_depth; n],
            Scheduling::HbrRoundRobin,
            faults,
        )
    }

    /// Build a *heterogeneous* network (paper §7.1): per-node queue
    /// depths. Each distinct depth becomes one shared block kind — "all
    /// the unique components needed to be instantiated once" (Fig 2b) —
    /// while the engine's state memory sizes each instance's word
    /// individually.
    pub fn with_depths(cfg: NetworkConfig, iface_cfg: IfaceConfig, depths: &[usize]) -> Self {
        Self::with_depths_and_scheduling(cfg, iface_cfg, depths, Scheduling::HbrRoundRobin)
    }

    /// Heterogeneous depths with an explicit scheduling policy.
    pub fn with_depths_and_scheduling(
        cfg: NetworkConfig,
        iface_cfg: IfaceConfig,
        depths: &[usize],
        scheduling: Scheduling,
    ) -> Self {
        Self::with_depths_scheduling_faults(cfg, iface_cfg, depths, scheduling, None)
    }

    /// The fully-general constructor: per-node depths, explicit
    /// scheduling and an optional fault plan.
    pub fn with_depths_scheduling_faults(
        cfg: NetworkConfig,
        iface_cfg: IfaceConfig,
        depths: &[usize],
        scheduling: Scheduling,
        faults: Option<Arc<FaultPlan>>,
    ) -> Self {
        let (spec, wr_links, fwd_links) = build_noc_spec(&cfg, iface_cfg, depths, &faults);
        let mut engine = DynamicEngine::new(spec);
        engine.set_scheduling(scheduling);
        SeqNoc {
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

    /// The underlying sequential engine (schedule traces, link probes).
    pub fn engine(&self) -> &DynamicEngine {
        &self.engine
    }

    /// Mutable access to the underlying engine.
    pub fn engine_mut(&mut self) -> &mut DynamicEngine {
        &mut self.engine
    }

    /// Checkpoint the whole simulator including the host-side ring
    /// pointers (paper §5.1's full-address-map access).
    pub fn snapshot(&self) -> (seqsim::Snapshot, HostPtrs) {
        (self.engine.snapshot(), self.host.clone())
    }

    /// Restore a checkpoint taken with [`snapshot`](Self::snapshot).
    pub fn restore(&mut self, snap: &(seqsim::Snapshot, HostPtrs)) {
        self.engine.restore(&snap.0);
        self.host = snap.1.clone();
    }

    /// Device-side register file of one router (a host "memory peek").
    pub fn peek_regs(&self, node: usize) -> RouterRegs {
        RouterRegs::unpack(self.depths[node], self.engine.peek_state(node))
    }
}

/// Build the NoC [`SystemSpec`] shared by the interpreting ([`SeqNoc`])
/// and compiled ([`crate::compiled::CompiledNoc`]) sequential backends:
/// one shared [`RouterBlock`] kind per distinct queue depth, the
/// forward/room wiring between neighbours, tied-off inputs and sunk
/// outputs at mesh edges, and one external write-pointer link per
/// stimuli ring. Returns `(spec, wr_links, fwd_links)`.
pub(crate) fn build_noc_spec(
    cfg: &NetworkConfig,
    iface_cfg: IfaceConfig,
    depths: &[usize],
    faults: &Option<Arc<FaultPlan>>,
) -> (SystemSpec, Vec<[usize; NUM_VCS]>, Vec<[usize; 4]>) {
    iface_cfg.validate();
    let n = cfg.num_nodes();
    assert_eq!(depths.len(), n, "one depth per node");
    let wiring = Wiring::new(cfg);
    let mut spec = SystemSpec::new();
    // One shared kind per distinct depth, coords listed in node order
    // (= instance order within the kind).
    let mut distinct: Vec<usize> = Vec::new();
    for &d in depths {
        if !distinct.contains(&d) {
            distinct.push(d);
        }
    }
    let kinds: Vec<usize> = distinct
        .iter()
        .map(|&d| {
            let mut kcfg = *cfg;
            kcfg.router.queue_depth = d;
            let coords: Vec<_> = cfg
                .shape
                .coords()
                .zip(depths)
                .filter(|(_, &dd)| dd == d)
                .map(|(c, _)| c)
                .collect();
            spec.add_kind(Box::new(RouterBlock::with_faults(
                kcfg,
                iface_cfg,
                coords,
                faults.clone(),
            )))
        })
        .collect();
    let blocks: Vec<usize> = depths
        .iter()
        .map(|d| {
            let k = distinct
                .iter()
                .position(|x| x == d)
                .unwrap_or_else(|| unreachable!("every depth is listed in `distinct`"));
            spec.add_block(kinds[k])
        })
        .collect();

    // Forward and room links. Each router drives its 4 outgoing
    // forward links and its 4 room links (describing its own input
    // queues); the consumer is the neighbour across the link.
    let mut fwd_links = vec![[usize::MAX; 4]; n];
    for r in 0..n {
        for d in 0..4 {
            match wiring.neighbour(r, d) {
                Some(nb) => {
                    let opp = Direction::from_index(d).opposite().index();
                    fwd_links[r][d] =
                        spec.wire((blocks[r], OUT_FWD0 + d), (blocks[nb], IN_FWD0 + opp));
                    spec.wire((blocks[r], OUT_ROOM0 + d), (blocks[nb], IN_ROOM0 + opp));
                }
                None => {
                    // Mesh edge: dangling outputs, tied-off inputs
                    // (no flits arrive; no room beyond the edge).
                    fwd_links[r][d] = spec.sink((blocks[r], OUT_FWD0 + d));
                    spec.sink((blocks[r], OUT_ROOM0 + d));
                    spec.tie_off((blocks[r], IN_FWD0 + d), 0);
                    spec.tie_off((blocks[r], IN_ROOM0 + d), 0);
                }
            }
        }
    }
    // Host-written stimuli write pointers.
    let wr_links: Vec<[usize; NUM_VCS]> = (0..n)
        .map(|r| core::array::from_fn(|v| spec.external((blocks[r], IN_WRPTR0 + v), 0)))
        .collect();
    (spec, wr_links, fwd_links)
}

/// A [`seqsim::KernelProfiler`] with its attribution taken from the
/// `speccheck` condensation of `spec`: block names from the spec graph,
/// block→SCC indices and per-SCC convergence bounds from the analyzer.
/// Shared by the worklist and compiled sequential backends.
pub(crate) fn attributed_profiler(spec: &SystemSpec, sample_every: u64) -> seqsim::KernelProfiler {
    let graph = speccheck::SpecGraph::from_spec(spec);
    let analysis = speccheck::analyze_graph(&graph, &speccheck::AnalyzeOptions::default());
    let mut p = seqsim::KernelProfiler::new(spec.blocks().len(), sample_every);
    p.set_attribution(
        // Kind names repeat across instances ("vc-router" x36), so each
        // block gets its index appended — flamegraph stacks stay
        // distinct and `simprof diff` joins block to block.
        graph
            .blocks
            .iter()
            .enumerate()
            .map(|(i, b)| format!("{}.{}", b.name, i))
            .collect(),
        analysis.scc_of(),
        analysis
            .sccs
            .iter()
            .map(|s| {
                (
                    s.blocks.len(),
                    if s.bound == u64::MAX { 0 } else { s.bound },
                )
            })
            .collect(),
    );
    p
}

impl NocEngine for SeqNoc {
    fn name(&self) -> &'static str {
        "seqsim"
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

    fn try_step(&mut self) -> Result<(), SimError> {
        self.engine.try_step()
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

    fn attach_instrumentation(&mut self, registry: &simtrace::Registry, tracer: &simtrace::Tracer) {
        self.engine
            .set_instrumentation(seqsim::KernelInstr::with_registry(
                registry,
                tracer.clone(),
                "seqsim",
            ));
    }

    fn attach_profiler(&mut self, sample_every: u64) -> bool {
        self.engine
            .attach_profiler(attributed_profiler(self.engine.spec(), sample_every));
        true
    }

    fn take_profile(&mut self, wall_s: f64) -> Option<simtrace::ProfileReport> {
        self.engine
            .take_profiler()
            .map(|p| p.report("seqsim", wall_s))
    }

    fn stim_capacity(&self) -> usize {
        self.iface_cfg.stim_cap
    }

    fn stim_free(&self, node: usize, vc: usize) -> usize {
        let dev_rd = self.peek_regs(node).iface.stim_rd[vc];
        let fill = self.host.stim_wr[node][vc].wrapping_sub(dev_rd);
        self.iface_cfg.stim_cap - fill as usize
    }

    fn push_stim(&mut self, node: usize, vc: usize, entry: StimEntry) -> bool {
        if self.stim_free(node, vc) == 0 {
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
        let dev = self.peek_regs(node).iface.out_wr;
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
        let dev = self.peek_regs(node).iface.acc_wr;
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
        let ckpt = |e: seqsim::WireError| SimError::Config(format!("seqsim checkpoint: {e}"));
        let payload = seqsim::wire::open(bytes, CKPT_VERSION).map_err(ckpt)?;
        let mut d = seqsim::Dec::new(payload);
        let snap = seqsim::Snapshot::decode(&mut d).map_err(ckpt)?;
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
    use noc_types::{Coord, Flit, Topology};

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
