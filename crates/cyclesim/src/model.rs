//! The NoC modelled SystemC-style.
//!
//! One module per router, holding its register file and stimuli rings in
//! module state (`Rc<RefCell<_>>`, the Rust stand-in for C++ member
//! variables):
//!
//! * a **clocked process** — reads the pre-edge input wires, arbitrates,
//!   updates the register file and the stimuli interface, and bumps the
//!   module's `ver` signal;
//! * a **room process** (comb, sensitive to `ver`) — exports the per-VC
//!   room wires to the upstream neighbours;
//! * a **forward process** (comb, sensitive to `ver` and the incoming
//!   room wires) — arbitrates and exports the forward-link wires.
//!
//! The router logic is the same bit-exact code as every other engine; the
//! kernel machinery (sensitivity, two-phase signals, delta settling) is
//! what differs — and what costs the SystemC-style overhead the paper's
//! Table 3 measures.

use crate::kernel::{Kernel, KernelStats, SigId};
use noc_types::fault::FaultPlan;
use noc_types::flit::{room_from_bits, room_to_bits};
use noc_types::{Direction, LinkFwd, NetworkConfig, Port, NUM_PORTS, NUM_VCS};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;
use vc_router::iface::{iface_clock, iface_pick};
use vc_router::{
    comb_fwd, comb_room, comb_select, transfers, AccEntry, IfaceConfig, IfaceRings, OutEntry,
    RouterCtx, RouterInputs, RouterRegs, StimEntry,
};

/// The SystemC-like NoC engine.
pub struct CycleNoc {
    cfg: NetworkConfig,
    iface_cfg: IfaceConfig,
    kernel: Kernel,
    regs: Vec<Rc<RefCell<RouterRegs>>>,
    rings: Vec<Rc<RefCell<IfaceRings>>>,
    fwd_sigs: Vec<[SigId; 4]>,
    /// Pre-edge snapshot of the forward wires of the last completed
    /// cycle (probe support).
    probe_buf: Vec<[u64; 4]>,
    wr_sigs: Vec<[SigId; NUM_VCS]>,
    stim_wr: Vec<[u16; NUM_VCS]>,
    out_rd: Vec<u16>,
    acc_rd: Vec<u16>,
    cycle_cell: Rc<Cell<u64>>,
    cycle: u64,
    faults: Option<Arc<FaultPlan>>,
}

impl CycleNoc {
    /// Build and elaborate the model.
    pub fn new(cfg: NetworkConfig, iface_cfg: IfaceConfig) -> Self {
        Self::with_faults(cfg, iface_cfg, None)
    }

    /// Build with a deterministic fault plan. Stall windows gate the
    /// room/forward comb processes and the clocked register update; link
    /// faults rewrite the forward wires the clocked process consumes —
    /// the same application points as the native reference.
    pub fn with_faults(
        cfg: NetworkConfig,
        iface_cfg: IfaceConfig,
        faults: Option<Arc<FaultPlan>>,
    ) -> Self {
        iface_cfg.validate();
        let n = cfg.num_nodes();
        let wiring = noc::Wiring::new(&cfg);
        let mut k = Kernel::new();
        // The comb processes label their outputs "wires for cycle
        // `cyc + 1`" (they settle *after* edge `cyc`). The elaboration
        // settle precedes edge 0, so start the cell at MAX and wrap.
        let cycle_cell = Rc::new(Cell::new(u64::MAX));
        let nfs: Vec<noc_types::fault::NodeFaults> = (0..n)
            .map(|r| {
                faults
                    .as_ref()
                    .map(|p| p.node_faults(r))
                    .unwrap_or_default()
            })
            .collect();

        // Signals.
        let zero = k.signal(0); // tie-off for mesh edges (no flit, no room)
        let vers: Vec<SigId> = (0..n).map(|_| k.signal(0)).collect();
        let fwd_sigs: Vec<[SigId; 4]> = (0..n)
            .map(|_| core::array::from_fn(|_| k.signal(0)))
            .collect();
        let room_sigs: Vec<[SigId; 4]> = (0..n)
            .map(|_| core::array::from_fn(|_| k.signal(0xF)))
            .collect();
        let wr_sigs: Vec<[SigId; NUM_VCS]> = (0..n)
            .map(|_| core::array::from_fn(|_| k.signal(0)))
            .collect();

        // Module state.
        let regs: Vec<Rc<RefCell<RouterRegs>>> = (0..n)
            .map(|_| Rc::new(RefCell::new(RouterRegs::new())))
            .collect();
        let rings: Vec<Rc<RefCell<IfaceRings>>> = (0..n)
            .map(|_| Rc::new(RefCell::new(IfaceRings::new(&iface_cfg))))
            .collect();

        // Wire maps: the signal this router sees on its input side.
        let fwd_in_of = |r: usize, d: usize| -> SigId {
            match wiring.neighbour(r, d) {
                Some(nb) => fwd_sigs[nb][Direction::from_index(d).opposite().index()],
                None => zero,
            }
        };
        let room_in_of = |r: usize, d: usize| -> SigId {
            match wiring.neighbour(r, d) {
                Some(nb) => room_sigs[nb][Direction::from_index(d).opposite().index()],
                None => zero,
            }
        };

        for r in 0..n {
            let ctx = RouterCtx::new(&cfg, cfg.shape.coord(noc_types::NodeId(r as u16)));
            let depth = cfg.router.queue_depth;

            // Room process: G(x), function of registered state.
            {
                let regs = regs[r].clone();
                let out: [SigId; 4] = room_sigs[r];
                let nf = nfs[r].clone();
                let cyc = cycle_cell.clone();
                k.comb(&[vers[r]], move |bus| {
                    // A stalled router advertises no room (wires belong
                    // to the cycle after the edge we just settled from).
                    if nf.stalled(cyc.get().wrapping_add(1)) {
                        for d in 0..4 {
                            bus.write(out[d], 0);
                        }
                        return;
                    }
                    let room = comb_room(&regs.borrow(), depth);
                    for d in 0..4 {
                        bus.write(out[d], room_to_bits(room[d]));
                    }
                });
            }

            // Forward process: arbitration + transfer gating.
            {
                let regs = regs[r].clone();
                let room_in: [SigId; 4] = core::array::from_fn(|d| room_in_of(r, d));
                let out: [SigId; 4] = fwd_sigs[r];
                let nf = nfs[r].clone();
                let cyc = cycle_cell.clone();
                let mut sens = vec![vers[r]];
                sens.extend_from_slice(&room_in);
                k.comb(&sens, move |bus| {
                    if nf.stalled(cyc.get().wrapping_add(1)) {
                        for d in 0..4 {
                            bus.write(out[d], 0);
                        }
                        return;
                    }
                    let regs = regs.borrow();
                    let mut rin = [[true; NUM_VCS]; NUM_PORTS];
                    for d in 0..4 {
                        rin[d] = room_from_bits(bus.read(room_in[d]));
                    }
                    let sel = comb_select(&regs, &ctx);
                    let trans = transfers(&sel, &rin);
                    let fwd = comb_fwd(&regs, &trans);
                    for d in 0..4 {
                        bus.write(out[d], fwd[d].to_bits());
                    }
                });
            }

            // Clocked process: the register-update half plus the stimuli
            // interface.
            {
                let regs = regs[r].clone();
                let rings = rings[r].clone();
                let cyc = cycle_cell.clone();
                let icfg = iface_cfg;
                let fwd_in: [SigId; 4] = core::array::from_fn(|d| fwd_in_of(r, d));
                let room_in: [SigId; 4] = core::array::from_fn(|d| room_in_of(r, d));
                let wr: [SigId; NUM_VCS] = wr_sigs[r];
                let ver = vers[r];
                let nf = nfs[r].clone();
                k.clocked(move |bus| {
                    let cycle = cyc.get();
                    if nf.stalled(cycle) {
                        // Registers and rings held; the ver bump still
                        // happens so the comb processes re-settle (their
                        // outputs stay forced while the window lasts).
                        bus.write(ver, cycle.wrapping_add(1));
                        return;
                    }
                    let mut rin = RouterInputs::idle();
                    for d in 0..4 {
                        let mut w = bus.read(fwd_in[d]);
                        if nf.link_faulty(d) {
                            w = nf.apply_link(d, cycle, w);
                        }
                        rin.fwd_in[d] = LinkFwd::from_bits(w);
                        rin.room_in[d] = room_from_bits(bus.read(room_in[d]));
                    }
                    let (pick, sel, fwd_local) = {
                        let regs = regs.borrow();
                        let room_local = comb_room(&regs, depth)[Port::Local.index()];
                        let pick =
                            iface_pick(&regs.iface, &icfg, &*rings.borrow(), &room_local, cycle);
                        let sel = comb_select(&regs, &ctx);
                        let trans = transfers(&sel, &rin.room_in);
                        (pick, sel, comb_fwd(&regs, &trans)[Port::Local.index()])
                    };
                    if let Some((vc, entry)) = pick {
                        rin.fwd_in[Port::Local.index()] = LinkFwd::flit(vc, entry.flit);
                    }
                    let mut regs = regs.borrow_mut();
                    vc_router::clock::clock(&mut regs, &ctx, &rin, Some(&sel));
                    let wr_vals: [u16; NUM_VCS] = core::array::from_fn(|v| bus.read(wr[v]) as u16);
                    iface_clock(
                        &mut regs.iface,
                        &icfg,
                        &mut *rings.borrow_mut(),
                        pick,
                        fwd_local,
                        wr_vals,
                        cycle,
                    );
                    bus.write(ver, cycle.wrapping_add(1));
                });
            }
        }

        let mut k = k;
        k.initialize();
        CycleNoc {
            cfg,
            iface_cfg,
            kernel: k,
            regs,
            rings,
            probe_buf: vec![[0; 4]; n],
            fwd_sigs,
            wr_sigs,
            stim_wr: vec![[0; NUM_VCS]; n],
            out_rd: vec![0; n],
            acc_rd: vec![0; n],
            cycle_cell,
            cycle: 0,
            faults,
        }
    }

    /// Kernel activity counters.
    pub fn kernel_stats(&self) -> KernelStats {
        self.kernel.stats()
    }
}

impl noc::NocEngine for CycleNoc {
    fn name(&self) -> &'static str {
        "systemc"
    }

    fn config(&self) -> NetworkConfig {
        self.cfg
    }

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn step(&mut self) {
        // Snapshot the settled wires this edge consumes (probe support).
        for (r, buf) in self.probe_buf.iter_mut().enumerate() {
            for d in 0..4 {
                buf[d] = self.kernel.peek(self.fwd_sigs[r][d]);
            }
        }
        self.cycle_cell.set(self.cycle);
        self.kernel.clock_cycle();
        self.cycle += 1;
    }

    fn probe_link(&self, node: usize, dir: usize) -> Option<vc_router::OutEntry> {
        if self.cycle == 0 {
            return None;
        }
        let w = LinkFwd::from_bits(self.probe_buf[node][dir]);
        w.valid.then(|| vc_router::OutEntry {
            cycle: self.cycle - 1,
            vc: w.vc,
            flit: w.flit,
        })
    }

    fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    fn vc_occupancy(&self, node: usize) -> Option<[u32; NUM_VCS]> {
        let regs = self.regs[node].borrow();
        let mut occ = [0u32; NUM_VCS];
        for p in 0..NUM_PORTS {
            for (vc, o) in occ.iter_mut().enumerate() {
                *o += regs.queues[p * NUM_VCS + vc].occupancy() as u32;
            }
        }
        Some(occ)
    }

    fn iface(&self) -> IfaceConfig {
        self.iface_cfg
    }

    fn stim_free(&self, node: usize, vc: usize) -> usize {
        let dev_rd = self.regs[node].borrow().iface.stim_rd[vc];
        let fill = self.stim_wr[node][vc].wrapping_sub(dev_rd);
        self.iface_cfg.stim_cap - fill as usize
    }

    fn push_stim(&mut self, node: usize, vc: usize, entry: StimEntry) -> bool {
        if self.stim_free(node, vc) == 0 {
            return false;
        }
        let wr = &mut self.stim_wr[node][vc];
        let slot = *wr as usize % self.iface_cfg.stim_cap;
        self.rings[node].borrow_mut().stim[vc][slot] = entry.to_bits();
        *wr = wr.wrapping_add(1);
        self.kernel.poke(self.wr_sigs[node][vc], *wr as u64);
        true
    }

    fn drain_delivered(&mut self, node: usize) -> Vec<OutEntry> {
        let dev = self.regs[node].borrow().iface.out_wr;
        let rd = &mut self.out_rd[node];
        let pending = noc::engine::ring_pending(*rd, dev, self.iface_cfg.out_cap, "output");
        let rings = self.rings[node].borrow();
        let mut out = Vec::with_capacity(pending);
        for _ in 0..pending {
            out.push(OutEntry::from_bits(
                rings.out[*rd as usize % self.iface_cfg.out_cap],
            ));
            *rd = rd.wrapping_add(1);
        }
        out
    }

    fn drain_access(&mut self, node: usize) -> Vec<AccEntry> {
        let dev = self.regs[node].borrow().iface.acc_wr;
        let rd = &mut self.acc_rd[node];
        let pending = noc::engine::ring_pending(*rd, dev, self.iface_cfg.acc_cap, "access-delay");
        let rings = self.rings[node].borrow();
        let mut out = Vec::with_capacity(pending);
        for _ in 0..pending {
            out.push(AccEntry::from_bits(
                rings.acc[*rd as usize % self.iface_cfg.acc_cap],
            ));
            *rd = rd.wrapping_add(1);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc::NocEngine;
    use noc_types::{Coord, Flit, Topology};

    #[test]
    fn single_flit_packet_crosses_torus() {
        let cfg = NetworkConfig::new(3, 3, Topology::Torus, 4);
        let mut e = CycleNoc::new(cfg, IfaceConfig::default());
        let dest = Coord::new(2, 1);
        let entry = StimEntry {
            ts: 0,
            flit: Flit::head_tail(dest, 0),
        };
        assert!(e.push_stim(0, 0, entry));
        e.run(12);
        let got = e.drain_delivered(cfg.shape.node_id(dest).index());
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].flit, entry.flit);
    }

    #[test]
    fn kernel_activity_reflects_traffic() {
        let cfg = NetworkConfig::new(3, 3, Topology::Torus, 4);
        let mut idle = CycleNoc::new(cfg, IfaceConfig::default());
        idle.run(50);
        let idle_stats = idle.kernel_stats();
        let mut busy = CycleNoc::new(cfg, IfaceConfig::default());
        for i in 0..20u16 {
            busy.push_stim(
                (i % 9) as usize,
                (i % 2) as usize,
                StimEntry {
                    ts: i as u64,
                    flit: Flit::head_tail(Coord::new((i % 3) as u8, 2), (i % 9) as u8),
                },
            );
        }
        busy.run(50);
        let busy_stats = busy.kernel_stats();
        // Moving flits change forward-link signals -> more update events.
        // (Activations only grow when room bits toggle, i.e. queues fill.)
        assert!(busy_stats.updates > idle_stats.updates);
        assert!(busy_stats.activations >= idle_stats.activations);
    }
}
