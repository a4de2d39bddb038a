//! The host window of the two sequential backends — the paper's ARM
//! side of the memory interface (§5.1, §5.3), written once.
//!
//! [`SeqNoc`](crate::SeqNoc) and [`CompiledNoc`](crate::CompiledNoc)
//! build the same [`SystemSpec`] (`build_noc_spec`) and differ only in
//! the kernel that evaluates it. The host reaches either kernel through
//! the same window: stimuli slots written into side (BRAM) memory plus
//! one external write-pointer link per ring, device pointers read out of
//! the router registers, output and access rings drained from side
//! memory, and the whole state saved and restored through one checkpoint
//! envelope. [`SeqKernel`] carries only what differs — names, wire
//! version, snapshot type and how one router's registers are read — so
//! [`HostWindow`] has one [`NocEngine`] impl, monomorphised per kernel.

use crate::engine::{queued_per_vc, ring_pending, HostPtrs, NocEngine};
use crate::wiring::Wiring;
use noc_types::fault::FaultPlan;
use noc_types::{Direction, NetworkConfig, NUM_VCS};
use seqsim::{Dec, DeltaStats, Enc, KernelProfiler, SideMem, SimError, SystemSpec, WireError};
use std::borrow::Cow;
use std::sync::Arc;
use vc_router::block::{
    IN_FWD0, IN_ROOM0, IN_WRPTR0, OUT_FWD0, OUT_ROOM0, RING_ACC, RING_OUT, RING_STIM0,
};
use vc_router::{AccEntry, IfaceConfig, OutEntry, RouterBlock, RouterRegs, StimEntry};

/// A sequential kernel as the [`HostWindow`] drives it. Most methods
/// forward to the kernel's inherent method of the same name.
pub trait SeqKernel: Sized {
    /// Engine name for reports, profiles and errors.
    const NAME: &'static str;
    /// Wire version of this kernel's checkpoints (engine-distinct so a
    /// checkpoint can never be restored into the wrong backend).
    const CKPT_VERSION: u32;
    /// A bit-exact copy of the kernel's state.
    type Snapshot;

    /// Lower the assembled network spec into this kernel.
    fn from_spec(spec: SystemSpec) -> Result<Self, SimError>;

    /// Serialize a snapshot for a durable checkpoint.
    fn encode(snap: &Self::Snapshot, e: &mut Enc);
    /// Rebuild a snapshot encoded by [`encode`](Self::encode).
    fn decode(d: &mut Dec<'_>) -> Result<Self::Snapshot, WireError>;
    /// Capture the kernel's state.
    fn snapshot(&self) -> Self::Snapshot;
    /// Restore a state captured by [`snapshot`](Self::snapshot).
    fn restore(&mut self, snap: &Self::Snapshot);
    /// Simulate one system cycle, surfacing the kernel's typed failure.
    fn try_step(&mut self) -> Result<(), SimError>;
    /// Simulate `n` system cycles, stopping at the first error.
    fn try_run(&mut self, n: u64) -> Result<(), SimError>;
    /// Current system cycle.
    fn cycle(&self) -> u64;
    /// Current value of link `l`.
    fn link_value(&self, l: usize) -> u64;
    /// Drive external link `l` (a host-written register).
    fn set_external(&mut self, l: usize, v: u64);
    /// The side (BRAM) memory holding the host rings.
    fn side(&self) -> &SideMem;
    /// Mutable side memory.
    fn side_mut(&mut self) -> &mut SideMem;
    /// Delta-cycle statistics.
    fn stats(&self) -> &DeltaStats;
    /// Reset the delta-cycle statistics.
    fn reset_stats(&mut self);
    /// The spec the kernel evaluates.
    fn spec(&self) -> &SystemSpec;
    /// Attach a per-block profiler.
    fn attach_profiler(&mut self, p: KernelProfiler);
    /// Detach the profiler, if one was attached.
    fn take_profiler(&mut self) -> Option<Box<KernelProfiler>>;
    /// Wire the kernel's metrics to `registry` (no-op by default).
    fn attach_instrumentation(&mut self, registry: &simtrace::Registry, tracer: &simtrace::Tracer) {
        let _ = (registry, tracer);
    }
    /// Router `node`'s register file as of the last completed cycle;
    /// `depth` is its queue depth.
    fn regs(&self, node: usize, depth: usize) -> Cow<'_, RouterRegs>;
}

/// The [`SeqKernel`] methods both kernels implement by calling their
/// inherent method of the same name.
#[rustfmt::skip]
macro_rules! forward_to_inherent {
    () => {
        fn encode(snap: &Self::Snapshot, e: &mut seqsim::Enc) { snap.encode(e) }
        fn decode(d: &mut seqsim::Dec<'_>) -> Result<Self::Snapshot, seqsim::WireError> {
            <Self::Snapshot>::decode(d)
        }
        fn snapshot(&self) -> Self::Snapshot { Self::snapshot(self) }
        fn restore(&mut self, snap: &Self::Snapshot) { Self::restore(self, snap) }
        fn cycle(&self) -> u64 { Self::cycle(self) }
        fn link_value(&self, l: usize) -> u64 { Self::link_value(self, l) }
        fn set_external(&mut self, l: usize, v: u64) { Self::set_external(self, l, v) }
        fn side(&self) -> &seqsim::SideMem { Self::side(self) }
        fn side_mut(&mut self) -> &mut seqsim::SideMem { Self::side_mut(self) }
        fn stats(&self) -> &seqsim::DeltaStats { Self::stats(self) }
        fn reset_stats(&mut self) { Self::reset_stats(self) }
        fn spec(&self) -> &seqsim::SystemSpec { Self::spec(self) }
        fn attach_profiler(&mut self, p: seqsim::KernelProfiler) { Self::attach_profiler(self, p) }
        fn take_profiler(&mut self) -> Option<Box<seqsim::KernelProfiler>> {
            Self::take_profiler(self)
        }
    };
}
pub(crate) use forward_to_inherent;

/// A sequential NoC engine: the host window over kernel `K`
/// ([`SeqNoc`](crate::SeqNoc), [`CompiledNoc`](crate::CompiledNoc)).
pub struct HostWindow<K> {
    cfg: NetworkConfig,
    iface_cfg: IfaceConfig,
    engine: K,
    /// External link ids of the stimuli write-pointer registers.
    wr_links: Vec<[usize; NUM_VCS]>,
    /// Link ids of each node's outgoing forward links (a mesh edge's
    /// sink link is still a valid id; it simply stays idle).
    fwd_links: Vec<[usize; 4]>,
    /// Queue depth per node (homogeneous networks repeat one value).
    depths: Vec<usize>,
    host: HostPtrs,
    faults: Option<Arc<FaultPlan>>,
}

impl<K: SeqKernel> HostWindow<K> {
    /// Build the engine for a network configuration.
    pub fn new(cfg: NetworkConfig, iface_cfg: IfaceConfig) -> Self {
        let n = cfg.num_nodes();
        Self::with_depths_and_faults(cfg, iface_cfg, &vec![cfg.router.queue_depth; n], None)
    }

    /// Build a *heterogeneous* network (paper §7.1) with an optional
    /// deterministic fault plan. Each distinct depth becomes one shared
    /// block kind — "all the unique components needed to be
    /// instantiated once" (Fig 2b) — and the plan is baked into the
    /// shared kinds, so faults apply where the native reference applies
    /// them.
    ///
    /// # Panics
    ///
    /// If the kernel refuses the spec: the compiled kernel refuses a
    /// `speccheck` error, which [`crate::SimBuilder::try_build`] returns.
    pub fn with_depths_and_faults(
        cfg: NetworkConfig,
        iface_cfg: IfaceConfig,
        depths: &[usize],
        faults: Option<Arc<FaultPlan>>,
    ) -> Self {
        Self::try_build(cfg, iface_cfg, depths, faults).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Assemble the network's spec and lower it into the kernel.
    pub(crate) fn try_build(
        cfg: NetworkConfig,
        iface_cfg: IfaceConfig,
        depths: &[usize],
        faults: Option<Arc<FaultPlan>>,
    ) -> Result<Self, SimError> {
        let (spec, wr_links, fwd_links) = build_noc_spec(&cfg, iface_cfg, depths, &faults);
        Ok(HostWindow {
            cfg,
            iface_cfg,
            engine: K::from_spec(spec)?,
            wr_links,
            fwd_links,
            depths: depths.to_vec(),
            host: HostPtrs::new(cfg.num_nodes()),
            faults,
        })
    }

    /// The underlying kernel (schedule traces, program inspection).
    pub fn engine(&self) -> &K {
        &self.engine
    }

    /// Mutable access to the underlying kernel.
    pub fn engine_mut(&mut self) -> &mut K {
        &mut self.engine
    }

    /// Checkpoint the whole simulator including the host-side ring
    /// pointers (paper §5.1's full-address-map access).
    pub fn snapshot(&self) -> (K::Snapshot, HostPtrs) {
        (self.engine.snapshot(), self.host.clone())
    }

    /// Restore a checkpoint taken with [`snapshot`](Self::snapshot).
    pub fn restore(&mut self, snap: &(K::Snapshot, HostPtrs)) {
        self.engine.restore(&snap.0);
        self.host = snap.1.clone();
    }

    /// Device-side register file of one router (a host "memory peek").
    pub fn peek_regs(&self, node: usize) -> RouterRegs {
        self.regs(node).into_owned()
    }

    #[inline]
    fn regs(&self, node: usize) -> Cow<'_, RouterRegs> {
        self.engine.regs(node, self.depths[node])
    }

    /// Drain `node`'s output ([`RING_OUT`]) or access ring up to the
    /// device's write pointer.
    fn drain<T>(&mut self, node: usize, ring: usize, from_bits: fn(u64) -> T) -> Vec<T> {
        let (dev, cfg) = (self.regs(node).iface, self.iface_cfg);
        let (pending, rd) = if ring == RING_OUT {
            let rd = &mut self.host.out_rd[node];
            (ring_pending(*rd, dev.out_wr, cfg.out_cap, "output"), rd)
        } else {
            let rd = &mut self.host.acc_rd[node];
            (
                ring_pending(*rd, dev.acc_wr, cfg.acc_cap, "access-delay"),
                rd,
            )
        };
        let mut out = Vec::with_capacity(pending);
        for _ in 0..pending {
            out.push(from_bits(self.engine.side().read(node, ring, *rd as usize)));
            *rd = rd.wrapping_add(1);
        }
        out
    }

    /// The build a checkpoint is cut from: network, host rings and
    /// per-node queue depths.
    fn build_id(&self) -> String {
        format!("{:?} {:?} {:?}", self.cfg, self.iface_cfg, self.depths)
    }
}

/// Build the NoC [`SystemSpec`] both sequential kernels evaluate: one
/// shared [`RouterBlock`] kind per distinct queue depth, the
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

/// A [`KernelProfiler`] with its attribution taken from the `speccheck`
/// condensation of `spec`: block names from the spec graph, block→SCC
/// indices and per-SCC convergence bounds from the analyzer.
fn attributed_profiler(spec: &SystemSpec, sample_every: u64) -> KernelProfiler {
    let graph = speccheck::SpecGraph::from_spec(spec);
    let analysis = speccheck::analyze_graph(&graph, &speccheck::AnalyzeOptions::default());
    let mut p = KernelProfiler::new(spec.blocks().len(), sample_every);
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

impl<K: SeqKernel> NocEngine for HostWindow<K> {
    fn name(&self) -> &'static str {
        K::NAME
    }

    fn config(&self) -> NetworkConfig {
        self.cfg
    }

    fn iface(&self) -> IfaceConfig {
        self.iface_cfg
    }

    fn cycle(&self) -> u64 {
        self.engine.cycle()
    }

    fn step(&mut self) {
        if let Err(e) = self.engine.try_step() {
            panic!("{e}");
        }
    }

    fn try_step(&mut self) -> Result<(), SimError> {
        self.engine.try_step()
    }

    fn run(&mut self, n: u64) {
        if let Err(e) = self.engine.try_run(n) {
            panic!("{e}");
        }
    }

    fn try_run(&mut self, n: u64) -> Result<(), SimError> {
        self.engine.try_run(n)
    }

    fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    fn queue_depth(&self, node: usize) -> usize {
        self.depths[node]
    }

    fn stim_free(&self, node: usize, vc: usize) -> usize {
        let fill = self.host.stim_wr[node][vc].wrapping_sub(self.regs(node).iface.stim_rd[vc]);
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
        self.drain(node, RING_OUT, OutEntry::from_bits)
    }

    fn drain_access(&mut self, node: usize) -> Vec<AccEntry> {
        self.drain(node, RING_ACC, AccEntry::from_bits)
    }

    fn probe_link(&self, node: usize, dir: usize) -> Option<OutEntry> {
        if self.engine.cycle() == 0 {
            return None;
        }
        let w = noc_types::LinkFwd::from_bits(self.engine.link_value(self.fwd_links[node][dir]));
        w.valid.then(|| OutEntry {
            cycle: self.engine.cycle() - 1,
            vc: w.vc,
            flit: w.flit,
        })
    }

    fn vc_occupancy(&self, node: usize) -> Option<[u32; NUM_VCS]> {
        Some(queued_per_vc(&self.regs(node)))
    }

    fn attach_instrumentation(&mut self, registry: &simtrace::Registry, tracer: &simtrace::Tracer) {
        self.engine.attach_instrumentation(registry, tracer);
    }

    fn attach_profiler(&mut self, sample_every: u64) -> bool {
        self.engine
            .attach_profiler(attributed_profiler(self.engine.spec(), sample_every));
        true
    }

    fn take_profile(&mut self, wall_s: f64) -> Option<simtrace::ProfileReport> {
        self.engine
            .take_profiler()
            .map(|p| p.report(K::NAME, wall_s))
    }

    fn delta_stats(&self) -> Option<DeltaStats> {
        Some(self.engine.stats().clone())
    }

    fn reset_delta_stats(&mut self) {
        self.engine.reset_stats();
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        let mut e = Enc::new();
        e.str(&self.build_id());
        K::encode(&self.engine.snapshot(), &mut e);
        self.host.encode(&mut e);
        Some(seqsim::wire::seal(K::CKPT_VERSION, &e.into_bytes()))
    }

    /// Restores only a checkpoint cut from an identically built window
    /// (same network, host rings and queue depths); anything else is
    /// refused before any state changes.
    fn load_state(&mut self, bytes: &[u8]) -> Result<(), SimError> {
        let ckpt = |e: WireError| SimError::Config(format!("{} checkpoint: {e}", K::NAME));
        let payload = seqsim::wire::open(bytes, K::CKPT_VERSION).map_err(ckpt)?;
        let mut d = Dec::new(payload);
        if d.str().map_err(ckpt)? != self.build_id() {
            return Err(ckpt(WireError::new(
                "cut from a differently built network (shape, topology, queue depths or rings)",
            )));
        }
        let snap = K::decode(&mut d).map_err(ckpt)?;
        let host = HostPtrs::decode(&mut d).map_err(ckpt)?;
        if !d.finished() {
            return Err(ckpt(WireError::new("trailing bytes")));
        }
        self.engine.restore(&snap);
        self.host = host;
        Ok(())
    }
}
