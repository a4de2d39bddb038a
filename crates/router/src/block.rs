//! The router as a sequential-simulator block.
//!
//! One [`RouterBlock`] kind serves every router instance (the paper's
//! shared-implementation principle); the per-instance coordinate comes
//! from the evaluation's instance index, just as the FPGA's scheduler-
//! generated memory address selects which router's registers are loaded.
//!
//! Block ports (all four-neighbour; the Local port and its stimuli
//! interface are internal to the block, matching Table 1 which accounts
//! stimuli-interface registers to the router):
//!
//! | dir             | inputs                  | outputs              |
//! |-----------------|-------------------------|----------------------|
//! | 0..4 (N,E,S,W)  | forward link in (21 b)  | forward link out     |
//! | 4..8 (N,E,S,W)  | room in (4 b)           | room out             |
//! | 8..12           | stimuli wr-ptrs (16 b, host-written) | —       |
//!
//! Side-memory rings: 0..4 = per-VC stimuli rings, 4 = delivered-output
//! ring, 5 = access-delay ring.

use crate::clock::clock;
use crate::comb::{comb_fwd, comb_room, comb_select, transfers, RouterInputs, Selection};
use crate::iface::{iface_clock, iface_pick, IfaceConfig, IfaceStore, StimEntry};
use crate::layout::RegisterLayout;
use crate::regs::RouterRegs;
use crate::routing::RouterCtx;
use noc_types::fault::{FaultPlan, NodeFaults};
use noc_types::flit::{room_from_bits, room_to_bits, LINK_FWD_BITS, LINK_ROOM_BITS};
use noc_types::{Coord, LinkFwd, NetworkConfig, Port, NUM_PORTS, NUM_VCS};
use seqsim::compile::{CompiledExec, Wake};
use seqsim::{BlockKind, CombInputs, SideView};
use std::sync::Arc;

/// Index of the per-VC stimuli rings in the block's side memory.
pub const RING_STIM0: usize = 0;
/// Index of the delivered-output ring.
pub const RING_OUT: usize = 4;
/// Index of the access-delay ring.
pub const RING_ACC: usize = 5;

/// Input-port index of the first forward link (then N,E,S,W).
pub const IN_FWD0: usize = 0;
/// Input-port index of the first room link.
pub const IN_ROOM0: usize = 4;
/// Input-port index of the first stimuli write-pointer register.
pub const IN_WRPTR0: usize = 8;
/// Output-port index of the first forward link.
pub const OUT_FWD0: usize = 0;
/// Output-port index of the first room link.
pub const OUT_ROOM0: usize = 4;

/// Per-instance decode cache: the last packed words this kind produced for
/// the instance, and the register file they decode to. Validated by a
/// straight `memcmp` against the incoming `cur` words on every eval, so it
/// can never go stale — a snapshot restore or host poke simply misses.
///
/// Because every block is evaluated every system cycle and the state banks
/// swap, the words packed into `next` in cycle *c* are exactly the `cur`
/// words of cycle *c+1*: in steady state the cache hits and the eval skips
/// the bit-level [`RouterRegs::unpack`] entirely.
#[derive(Debug, Clone)]
struct DecodeCache {
    words: Vec<u64>,
    regs: RouterRegs,
}

/// The shared router implementation for the sequential simulator.
#[derive(Debug, Clone)]
pub struct RouterBlock {
    cfg: NetworkConfig,
    iface_cfg: IfaceConfig,
    coords: Vec<Coord>,
    layout: RegisterLayout,
    /// Per-instance fault view (all-empty without a plan).
    nf: Vec<NodeFaults>,
    /// Decode cache per instance (interior-mutable: `eval` takes `&self`).
    cache: std::cell::RefCell<Vec<Option<DecodeCache>>>,
}

impl RouterBlock {
    /// Build the shared kind for `cfg`'s network. `coords[i]` is the
    /// coordinate of instance `i`; instances must be added to the system
    /// in the same order.
    pub fn new(cfg: NetworkConfig, iface_cfg: IfaceConfig, coords: Vec<Coord>) -> Self {
        Self::with_faults(cfg, iface_cfg, coords, None)
    }

    /// [`new`](Self::new) plus an optional deterministic fault plan (see
    /// [`noc_types::fault`]): stall windows freeze an instance's
    /// registers while it drives idle/no-room outputs, link faults apply
    /// to the forward-link inputs it consumes.
    pub fn with_faults(
        cfg: NetworkConfig,
        iface_cfg: IfaceConfig,
        coords: Vec<Coord>,
        faults: Option<Arc<FaultPlan>>,
    ) -> Self {
        iface_cfg.validate();
        let layout = RegisterLayout::new(cfg.router.queue_depth);
        let nf = coords
            .iter()
            .map(|&c| {
                faults.as_ref().map_or_else(NodeFaults::default, |p| {
                    p.node_faults(cfg.shape.node_id(c).index())
                })
            })
            .collect();
        RouterBlock {
            cfg,
            iface_cfg,
            coords,
            layout,
            nf,
            cache: std::cell::RefCell::new(Vec::new()),
        }
    }

    /// The register layout of one instance.
    pub fn layout(&self) -> &RegisterLayout {
        &self.layout
    }

    /// The interface ring configuration.
    pub fn iface_cfg(&self) -> &IfaceConfig {
        &self.iface_cfg
    }

    /// Decode the register file from a state peek (host-side).
    pub fn peek_regs(&self, state: &[u64]) -> RouterRegs {
        RouterRegs::unpack(self.cfg.router.queue_depth, state)
    }
}

/// [`IfaceStore`] adapter over the block's side-memory view.
struct SideStore<'a, 'b> {
    view: &'a mut SideView<'b>,
}

impl IfaceStore for SideStore<'_, '_> {
    fn stim_read(&self, vc: usize, slot: usize) -> u64 {
        self.view.read(RING_STIM0 + vc, slot)
    }
    fn out_write(&mut self, slot: usize, value: u64) {
        self.view.write(RING_OUT, slot, value);
    }
    fn acc_write(&mut self, slot: usize, value: u64) {
        self.view.write(RING_ACC, slot, value);
    }
}

impl BlockKind for RouterBlock {
    fn name(&self) -> &str {
        "vc-router"
    }

    fn state_bits(&self) -> usize {
        self.layout.state_bits()
    }

    fn input_widths(&self) -> Vec<usize> {
        let mut w = vec![LINK_FWD_BITS; 4];
        w.extend([LINK_ROOM_BITS; 4]);
        w.extend([16usize; 4]);
        w
    }

    fn output_widths(&self) -> Vec<usize> {
        let mut w = vec![LINK_FWD_BITS; 4];
        w.extend([LINK_ROOM_BITS; 4]);
        w
    }

    fn side_rings(&self) -> Vec<usize> {
        let mut rings = vec![self.iface_cfg.stim_cap; NUM_VCS];
        rings.push(self.iface_cfg.out_cap);
        rings.push(self.iface_cfg.acc_cap);
        rings
    }

    fn reset(&self, state: &mut [u64]) {
        RouterRegs::new().pack(self.cfg.router.queue_depth, state);
    }

    fn comb_inputs(&self, port: usize) -> CombInputs {
        if (OUT_FWD0..OUT_FWD0 + 4).contains(&port) {
            // A forward word carries flits only into neighbour *room*:
            // `transfers(sel, room_in)` gates the queue heads, so the
            // four room inputs feed through combinationally. The
            // forward inputs and write pointers reach only `clock`/
            // `iface_clock` — next-state, never outputs.
            CombInputs::Some((IN_ROOM0..IN_ROOM0 + 4).collect())
        } else {
            // Room words are `comb_room(&regs)` — functions of
            // registered state only (the paper's structural reason the
            // router network is signal-acyclic).
            CombInputs::None
        }
    }

    fn eval(
        &self,
        instance: usize,
        cur: &[u64],
        inputs: &[u64],
        cycle: u64,
        next: &mut [u64],
        outputs: &mut [u64],
        side: &mut SideView<'_>,
    ) {
        let depth = self.cfg.router.queue_depth;
        if self.nf[instance].stalled(cycle) {
            // Stalled: idle forward links, zero room, registers held.
            // The decode cache is left alone — it is memcmp-validated
            // against `cur`, so a stale entry simply misses later.
            outputs.iter_mut().for_each(|w| *w = 0);
            next.copy_from_slice(cur);
            return;
        }
        let mut cache = self.cache.borrow_mut();
        if cache.len() <= instance {
            cache.resize(instance + 1, None);
        }
        let regs = match &cache[instance] {
            Some(c) if c.words[..] == *cur => c.regs,
            _ => RouterRegs::unpack(depth, cur),
        };
        let ctx = RouterCtx {
            coord: self.coords[instance],
            shape: self.cfg.shape,
            topology: self.cfg.topology,
            depth,
        };

        // Assemble the wires.
        let mut rin = RouterInputs::idle();
        for d in 0..4 {
            let mut fwd_word = inputs[IN_FWD0 + d];
            if self.nf[instance].link_faulty(d) {
                // Link faults apply at the receiving input.
                fwd_word = self.nf[instance].apply_link(d, cycle, fwd_word);
            }
            rin.fwd_in[d] = LinkFwd::from_bits(fwd_word);
            rin.room_in[d] = room_from_bits(inputs[IN_ROOM0 + d]);
        }
        // room_in[Local] stays all-true: the capture ring always accepts.

        // G(x): room outputs, f(registered state).
        let room_out = comb_room(&regs, depth);

        // Stimuli interface offers at most one flit onto the local link.
        let mut store = SideStore { view: side };
        let pick = iface_pick(
            &regs.iface,
            &self.iface_cfg,
            &store,
            &room_out[Port::Local.index()],
            cycle,
        );
        if let Some((vc, entry)) = pick {
            rin.fwd_in[Port::Local.index()] = LinkFwd::flit(vc, entry.flit);
        }

        // F(x) output half: arbitration and forward links.
        let sel = comb_select(&regs, &ctx);
        let trans = transfers(&sel, &rin.room_in);
        let fwd = comb_fwd(&regs, &trans);

        for d in 0..4 {
            outputs[OUT_FWD0 + d] = fwd[d].to_bits();
            outputs[OUT_ROOM0 + d] = room_to_bits(room_out[d]);
        }

        // F(x) register-update half.
        let mut next_regs = regs;
        clock(&mut next_regs, &ctx, &rin, Some(&sel));
        let wr_inputs: [u16; NUM_VCS] = core::array::from_fn(|v| inputs[IN_WRPTR0 + v] as u16);
        iface_clock(
            &mut next_regs.iface,
            &self.iface_cfg,
            &mut store,
            pick,
            fwd[Port::Local.index()],
            wr_inputs,
            cycle,
        );
        if next_regs == regs {
            // Unchanged registers pack to exactly the `cur` words
            // (pack ∘ unpack is the identity on packed words), so the
            // bit-level pack can be skipped for a word copy.
            next.copy_from_slice(cur);
        } else {
            next_regs.pack(depth, next);
        }
        match &mut cache[instance] {
            Some(c) => {
                c.words.copy_from_slice(next);
                c.regs = next_regs;
            }
            slot => {
                *slot = Some(DecodeCache {
                    words: next.to_vec(),
                    regs: next_regs,
                });
            }
        }
    }

    fn compile(&self) -> Option<Box<dyn CompiledExec>> {
        Some(Box::new(CompiledRouter {
            cfg: self.cfg,
            iface_cfg: self.iface_cfg,
            coords: self.coords.clone(),
            nf: self.nf.clone(),
            regs: Vec::new(),
            room: Vec::new(),
            sel: Vec::new(),
            fwd: Vec::new(),
        }))
    }
}

/// The router's specialized execution unit for the compiled engine
/// ([`seqsim::compile::CompiledEngine`]).
///
/// Register files stay *decoded* between cycles, so the steady-state
/// path never touches [`RouterRegs::pack`]/[`RouterRegs::unpack`] — the
/// cost the generic [`BlockKind::eval`] path pays (or memcmp-guards)
/// every delta. The three passes mirror `eval`'s internal phases
/// exactly, so the compiled engine is bit-identical by construction:
///
/// * comb pass 0 — room outputs, `f(registered state)` only;
/// * comb pass 1 — arbitration + forward outputs, `f(state, room in)`
///   (the only combinational feed-through the kind declares);
/// * update — stimuli pick, `clock`, `iface_clock`, registers advanced
///   in place.
///
/// The update first tests whether the clock edge is a no-op and, if so,
/// returns the [`Wake`] hint without doing the work, which lets the
/// engine put the router to sleep.
#[derive(Debug, Clone)]
pub struct CompiledRouter {
    cfg: NetworkConfig,
    iface_cfg: IfaceConfig,
    coords: Vec<Coord>,
    nf: Vec<NodeFaults>,
    /// Per-instance decoded register file.
    regs: Vec<RouterRegs>,
    /// Per-instance room outputs cached from comb pass 0 (consumed by
    /// the update pass's stimuli pick).
    room: Vec<[[bool; NUM_VCS]; NUM_PORTS]>,
    /// Per-instance arbitration cached from comb pass 1.
    sel: Vec<Selection>,
    /// Per-instance forward words cached from comb pass 1 (the Local
    /// word feeds `iface_clock`).
    fwd: Vec<[LinkFwd; NUM_PORTS]>,
}

impl CompiledRouter {
    fn ctx(&self, instance: usize) -> RouterCtx {
        RouterCtx {
            coord: self.coords[instance],
            shape: self.cfg.shape,
            topology: self.cfg.topology,
            depth: self.cfg.router.queue_depth,
        }
    }

    /// The decoded register file of `instance` as of the last completed
    /// cycle — the host's memory peek, without a pack/unpack round trip.
    pub fn regs(&self, instance: usize) -> &RouterRegs {
        &self.regs[instance]
    }

    /// If this clock edge changes nothing, how long that stays true.
    ///
    /// The edge is a no-op when no flit arrives (no valid forward input,
    /// no stimulus `pick`), none can leave (all 20 queues empty, which
    /// also makes the arbitration empty and the local output idle) and
    /// the host's write pointers equal their shadows. It stays one while
    /// the input links keep their words, until the first pending
    /// stimulus comes due: rings are pre-loaded a whole period ahead, so
    /// a loaded router answers [`Wake::At`] that timestamp instead of
    /// staying awake. With the queues empty the outputs are idle forward
    /// words and all-room whatever the inputs are, so the words last
    /// scattered stay right as well.
    ///
    /// A router with any fault never sleeps: stall windows and link
    /// faults make its behaviour a function of the cycle number.
    fn idle_wake(
        &self,
        instance: usize,
        rin: &RouterInputs,
        wr_inputs: &[u16; NUM_VCS],
        store: &SideStore<'_, '_>,
    ) -> Option<Wake> {
        let regs = &self.regs[instance];
        if !self.nf[instance].is_empty()
            || rin.fwd_in.iter().any(|w| w.valid)
            || *wr_inputs != regs.iface.stim_wr_shadow
            || regs.queues.iter().any(|q| !q.is_empty())
        {
            return None;
        }
        let due = (0..NUM_VCS)
            .filter(|&v| regs.iface.stim_wr_shadow[v] != regs.iface.stim_rd[v])
            .map(|v| {
                let slot = regs.iface.stim_rd[v] as usize % self.iface_cfg.stim_cap;
                StimEntry::from_bits(store.stim_read(v, slot)).ts
            })
            .min();
        Some(due.map_or(Wake::OnInput, Wake::At))
    }
}

impl CompiledExec for CompiledRouter {
    fn load(&mut self, instance: usize, packed: &[u64]) {
        if self.regs.len() <= instance {
            let n = instance + 1;
            self.regs.resize(n, RouterRegs::new());
            self.room.resize(n, [[true; NUM_VCS]; NUM_PORTS]);
            self.sel.resize(
                n,
                Selection {
                    per_out: [None; NUM_PORTS],
                },
            );
            self.fwd.resize(n, [LinkFwd::IDLE; NUM_PORTS]);
        }
        self.regs[instance] = RouterRegs::unpack(self.cfg.router.queue_depth, packed);
    }

    fn store(&self, instance: usize, packed: &mut [u64]) {
        self.regs[instance].pack(self.cfg.router.queue_depth, packed);
    }

    fn comb(
        &mut self,
        instance: usize,
        pass: usize,
        inputs: &[u64],
        cycle: u64,
        outputs: &mut [u64],
        _side: &mut SideView<'_>,
    ) {
        let stalled = self.nf[instance].stalled(cycle);
        if pass == 0 {
            // Room outputs: f(registered state) only.
            if stalled {
                for d in 0..4 {
                    outputs[OUT_ROOM0 + d] = 0;
                }
                return;
            }
            let room = comb_room(&self.regs[instance], self.cfg.router.queue_depth);
            for d in 0..4 {
                outputs[OUT_ROOM0 + d] = room_to_bits(room[d]);
            }
            self.room[instance] = room;
        } else {
            // Forward outputs: arbitration gated by neighbour room.
            if stalled {
                for d in 0..4 {
                    outputs[OUT_FWD0 + d] = 0;
                }
                return;
            }
            let mut room_in = [[true; NUM_VCS]; NUM_PORTS];
            for d in 0..4 {
                room_in[d] = room_from_bits(inputs[IN_ROOM0 + d]);
            }
            let ctx = self.ctx(instance);
            let regs = &self.regs[instance];
            let sel = comb_select(regs, &ctx);
            let trans = transfers(&sel, &room_in);
            let fwd = comb_fwd(regs, &trans);
            for d in 0..4 {
                outputs[OUT_FWD0 + d] = fwd[d].to_bits();
            }
            self.sel[instance] = sel;
            self.fwd[instance] = fwd;
        }
    }

    fn update(
        &mut self,
        instance: usize,
        inputs: &[u64],
        cycle: u64,
        side: &mut SideView<'_>,
    ) -> Wake {
        if self.nf[instance].stalled(cycle) {
            // Registers held, no side effects — `eval`'s early return.
            return Wake::Next;
        }
        let ctx = self.ctx(instance);
        let iface_cfg = self.iface_cfg;
        let mut rin = RouterInputs::idle();
        for d in 0..4 {
            let mut fwd_word = inputs[IN_FWD0 + d];
            if self.nf[instance].link_faulty(d) {
                fwd_word = self.nf[instance].apply_link(d, cycle, fwd_word);
            }
            rin.fwd_in[d] = LinkFwd::from_bits(fwd_word);
            rin.room_in[d] = room_from_bits(inputs[IN_ROOM0 + d]);
        }
        let mut store = SideStore { view: side };
        let pick = iface_pick(
            &self.regs[instance].iface,
            &iface_cfg,
            &store,
            &self.room[instance][Port::Local.index()],
            cycle,
        );
        if let Some((vc, entry)) = pick {
            rin.fwd_in[Port::Local.index()] = LinkFwd::flit(vc, entry.flit);
        }
        let wr_inputs: [u16; NUM_VCS] = core::array::from_fn(|v| inputs[IN_WRPTR0 + v] as u16);
        let idle = self.idle_wake(instance, &rin, &wr_inputs, &store);
        let sel = self.sel[instance];
        let fwd_local = self.fwd[instance][Port::Local.index()];
        let mut edge = |regs: &mut RouterRegs| {
            clock(regs, &ctx, &rin, Some(&sel));
            iface_clock(
                &mut regs.iface,
                &iface_cfg,
                &mut store,
                pick,
                fwd_local,
                wr_inputs,
                cycle,
            );
        };
        match idle {
            Some(wake) => {
                // Debug builds hold the predicate to its word: the edge,
                // taken on a copy, must leave registers and rings alone.
                if cfg!(debug_assertions) {
                    let mut copy = self.regs[instance];
                    edge(&mut copy);
                    assert!(
                        copy == self.regs[instance] && !fwd_local.valid,
                        "router {instance}: idle predicate held on a working edge in cycle {cycle}"
                    );
                }
                wake
            }
            None => {
                edge(&mut self.regs[instance]);
                Wake::Next
            }
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_types::bits::words_for_bits;
    use noc_types::{Flit, Topology};
    use seqsim::SideMem;

    /// A single router block evaluated standalone: inject a HeadTail via
    /// the stimuli ring addressed to this router itself; it must come back
    /// out of the output ring two hops of latency later.
    #[test]
    fn standalone_block_loops_local_packet() {
        let cfg = NetworkConfig::new(2, 2, Topology::Torus, 4);
        let iface_cfg = IfaceConfig::default();
        let coords: Vec<Coord> = cfg.shape.coords().collect();
        let block = RouterBlock::new(cfg, iface_cfg, coords);
        let words = words_for_bits(block.state_bits());
        let mut cur = vec![0u64; words];
        let mut next = vec![0u64; words];
        block.reset(&mut cur);
        let mut side = SideMem::new(&[block.side_rings()]);
        // Host: write one stimulus into vc 2's ring for router 0 = (0,0),
        // destined to itself.
        let entry = crate::iface::StimEntry {
            ts: 0,
            flit: Flit::head_tail(Coord::new(0, 0), 0),
        };
        side.write(0, RING_STIM0 + 2, 0, entry.to_bits());
        let mut inputs = vec![0u64; 12];
        inputs[IN_WRPTR0 + 2] = 1; // host wr pointer = 1
        let mut outputs = vec![0u64; 8];
        let mut delivered = None;
        for cycle in 0..6u64 {
            block.eval(
                0,
                &cur,
                &inputs,
                cycle,
                &mut next,
                &mut outputs,
                &mut side.view(0),
            );
            core::mem::swap(&mut cur, &mut next);
            let regs = block.peek_regs(&cur);
            if regs.iface.out_wr > 0 && delivered.is_none() {
                delivered = Some(cycle);
            }
        }
        // Cycle 0: wr shadow latches. Cycle 1: pick -> local queue.
        // Cycle 2: local queue -> local output, captured.
        let regs = block.peek_regs(&cur);
        assert_eq!(regs.iface.out_wr, 1, "exactly one flit must be captured");
        assert_eq!(delivered, Some(2));
        let out = crate::iface::OutEntry::from_bits(side.read(0, RING_OUT, 0));
        assert_eq!(out.vc, 2);
        assert_eq!(out.flit, entry.flit);
        assert_eq!(out.cycle, 2);
        // Access delay was logged: injected at cycle 1, ts 0 -> delay 1.
        assert_eq!(regs.iface.acc_wr, 1);
        let acc = crate::iface::AccEntry::from_bits(side.read(0, RING_ACC, 0));
        assert_eq!(acc.delay, 1);
        // No neighbour traffic was produced.
        assert!(outputs[OUT_FWD0..OUT_FWD0 + 4].iter().all(|&w| w == 0));
    }

    #[test]
    fn eval_is_idempotent_under_reevaluation() {
        // Re-running eval with identical inputs must produce identical
        // next-state, outputs and side-memory effects (the §4.2 contract).
        let cfg = NetworkConfig::new(2, 2, Topology::Torus, 4);
        let block = RouterBlock::new(cfg, IfaceConfig::default(), cfg.shape.coords().collect());
        let words = words_for_bits(block.state_bits());
        let mut cur = vec![0u64; words];
        block.reset(&mut cur);
        let mut side = SideMem::new(&[block.side_rings()]);
        let entry = crate::iface::StimEntry {
            ts: 0,
            flit: Flit::head_tail(Coord::new(1, 0), 0),
        };
        side.write(0, RING_STIM0, 0, entry.to_bits());
        let mut inputs = vec![0u64; 12];
        inputs[IN_WRPTR0] = 1;
        let mut next_a = vec![0u64; words];
        let mut next_b = vec![0u64; words];
        let mut out_a = vec![0u64; 8];
        let mut out_b = vec![0u64; 8];
        block.eval(
            0,
            &cur,
            &inputs,
            0,
            &mut next_a,
            &mut out_a,
            &mut side.view(0),
        );
        block.eval(
            0,
            &cur,
            &inputs,
            0,
            &mut next_b,
            &mut out_b,
            &mut side.view(0),
        );
        assert_eq!(next_a, next_b);
        assert_eq!(out_a, out_b);
    }
}
