//! The native reference engine.
//!
//! A hand-written cycle simulator over plain register files — the fastest
//! software backend and the golden model for differential testing. Each
//! system cycle is two evaluation passes, following the signal dependency
//! order of the router design:
//!
//! 1. every router's *room* outputs (functions of registered state) and
//!    every stimuli interface's injection pick;
//! 2. every router's arbitration and forward outputs (functions of
//!    registered state and the pass-1 room wires);
//!
//! then the clock edge updates all register files simultaneously.

use crate::engine::{queued_per_vc, ring_pending, HostPtrs, NocEngine};
use crate::wiring::Wiring;
use noc_types::fault::{FaultPlan, NodeFaults};
use noc_types::{Direction, LinkFwd, NetworkConfig, Port, NUM_PORTS, NUM_VCS};
use std::sync::Arc;
use vc_router::iface::{iface_clock, iface_pick};
use vc_router::{
    comb_fwd, comb_room, comb_select, transfers, AccEntry, IfaceConfig, IfaceRings, OutEntry,
    RouterCtx, RouterInputs, RouterRegs, Selection, StimEntry,
};

/// The native (plain-struct) NoC engine.
pub struct NativeNoc {
    cfg: NetworkConfig,
    iface_cfg: IfaceConfig,
    wiring: Wiring,
    ctxs: Vec<RouterCtx>,
    regs: Vec<RouterRegs>,
    rings: Vec<IfaceRings>,
    host: HostPtrs,
    cycle: u64,
    faults: Option<Arc<FaultPlan>>,
    /// Per-node fault view (all-empty when no plan is attached).
    nf: Vec<NodeFaults>,
    // Per-cycle scratch, preallocated.
    rooms: Vec<[[bool; NUM_VCS]; NUM_PORTS]>,
    room_ins: Vec<[[bool; NUM_VCS]; NUM_PORTS]>,
    sels: Vec<Selection>,
    fwds: Vec<[LinkFwd; NUM_PORTS]>,
    picks: Vec<Option<(u8, StimEntry)>>,
}

impl NativeNoc {
    /// Build the engine for a network configuration.
    pub fn new(cfg: NetworkConfig, iface_cfg: IfaceConfig) -> Self {
        let n = cfg.num_nodes();
        Self::with_depths_and_faults(cfg, iface_cfg, &vec![cfg.router.queue_depth; n], None)
    }

    /// Build a *heterogeneous* network (paper §7.1: "It is possible to
    /// select a different router functionality depending on the position
    /// in the network"): per-node input-queue depths, plus an optional
    /// deterministic fault plan (see [`noc_types::fault`]).
    pub fn with_depths_and_faults(
        cfg: NetworkConfig,
        iface_cfg: IfaceConfig,
        depths: &[usize],
        faults: Option<Arc<FaultPlan>>,
    ) -> Self {
        iface_cfg.validate();
        let n = cfg.num_nodes();
        assert_eq!(depths.len(), n, "one depth per node");
        let ctxs = cfg
            .shape
            .coords()
            .zip(depths)
            .map(|(c, &depth)| RouterCtx {
                depth,
                ..RouterCtx::new(&cfg, c)
            })
            .collect();
        let nf = (0..n)
            .map(|r| {
                faults
                    .as_ref()
                    .map_or_else(NodeFaults::default, |p| p.node_faults(r))
            })
            .collect();
        NativeNoc {
            cfg,
            iface_cfg,
            wiring: Wiring::new(&cfg),
            ctxs,
            regs: vec![RouterRegs::new(); n],
            rings: (0..n).map(|_| IfaceRings::new(&iface_cfg)).collect(),
            host: HostPtrs::new(n),
            cycle: 0,
            faults,
            nf,
            rooms: vec![[[true; NUM_VCS]; NUM_PORTS]; n],
            room_ins: vec![[[true; NUM_VCS]; NUM_PORTS]; n],
            sels: vec![
                Selection {
                    per_out: [None; NUM_PORTS]
                };
                n
            ],
            fwds: vec![[LinkFwd::IDLE; NUM_PORTS]; n],
            picks: vec![None; n],
        }
    }

    /// Direct register-file access (tests, invariant checks).
    pub fn regs(&self, node: usize) -> &RouterRegs {
        &self.regs[node]
    }
}

impl NocEngine for NativeNoc {
    fn name(&self) -> &'static str {
        "native"
    }

    fn config(&self) -> NetworkConfig {
        self.cfg
    }

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    fn step(&mut self) {
        let n = self.cfg.num_nodes();

        // Pass 1: room wires and injection picks. A stalled router
        // advertises no room and offers no stimulus.
        for r in 0..n {
            if self.nf[r].stalled(self.cycle) {
                self.rooms[r] = [[false; NUM_VCS]; NUM_PORTS];
                self.picks[r] = None;
                continue;
            }
            self.rooms[r] = comb_room(&self.regs[r], self.ctxs[r].depth);
            self.picks[r] = iface_pick(
                &self.regs[r].iface,
                &self.iface_cfg,
                &self.rings[r],
                &self.rooms[r][Port::Local.index()],
                self.cycle,
            );
        }

        // Pass 2: arbitration and forward wires. A stalled router drives
        // idle forward links.
        for r in 0..n {
            if self.nf[r].stalled(self.cycle) {
                self.sels[r] = Selection {
                    per_out: [None; NUM_PORTS],
                };
                self.fwds[r] = [LinkFwd::IDLE; NUM_PORTS];
                continue;
            }
            let mut room_in = [[true; NUM_VCS]; NUM_PORTS];
            for (d, slot) in room_in.iter_mut().enumerate().take(4) {
                *slot = match self.wiring.neighbour(r, d) {
                    // Our output in direction d feeds the neighbour's
                    // input port opposite(d); its room row is indexed by
                    // that input port.
                    Some(nb) => self.rooms[nb][Direction::from_index(d).opposite().index()],
                    None => [false; NUM_VCS],
                };
            }
            self.room_ins[r] = room_in;
            self.sels[r] = comb_select(&self.regs[r], &self.ctxs[r]);
            let trans = transfers(&self.sels[r], &room_in);
            self.fwds[r] = comb_fwd(&self.regs[r], &trans);
        }

        // Clock edge: all register files update simultaneously. A stalled
        // router holds its registers and ring pointers.
        for r in 0..n {
            if self.nf[r].stalled(self.cycle) {
                continue;
            }
            let mut inputs = RouterInputs {
                fwd_in: [LinkFwd::IDLE; NUM_PORTS],
                room_in: self.room_ins[r],
            };
            for d in 0..4 {
                if let Some(nb) = self.wiring.neighbour(r, d) {
                    inputs.fwd_in[d] = self.fwds[nb][Direction::from_index(d).opposite().index()];
                    if self.nf[r].link_faulty(d) {
                        // Link faults apply at the receiving input.
                        inputs.fwd_in[d] = LinkFwd::from_bits(self.nf[r].apply_link(
                            d,
                            self.cycle,
                            inputs.fwd_in[d].to_bits(),
                        ));
                    }
                }
            }
            if let Some((vc, entry)) = self.picks[r] {
                inputs.fwd_in[Port::Local.index()] = LinkFwd::flit(vc, entry.flit);
            }
            let sel = self.sels[r];
            vc_router::clock::clock(&mut self.regs[r], &self.ctxs[r], &inputs, Some(&sel));
            iface_clock(
                &mut self.regs[r].iface,
                &self.iface_cfg,
                &mut self.rings[r],
                self.picks[r],
                self.fwds[r][Port::Local.index()],
                self.host.stim_wr[r],
                self.cycle,
            );
        }
        self.cycle += 1;
    }

    fn probe_link(&self, node: usize, dir: usize) -> Option<vc_router::OutEntry> {
        if self.cycle == 0 || self.wiring.neighbour(node, dir).is_none() {
            return None;
        }
        let w = self.fwds[node][dir];
        Some(vc_router::OutEntry {
            cycle: self.cycle - 1,
            vc: w.vc,
            flit: if w.valid {
                w.flit
            } else {
                noc_types::Flit::from_bits(0)
            },
        })
        .filter(|_| w.valid)
    }

    fn vc_occupancy(&self, node: usize) -> Option<[u32; NUM_VCS]> {
        Some(queued_per_vc(&self.regs[node]))
    }

    fn queue_depth(&self, node: usize) -> usize {
        self.ctxs[node].depth
    }

    fn iface(&self) -> IfaceConfig {
        self.iface_cfg
    }

    fn stim_free(&self, node: usize, vc: usize) -> usize {
        let fill = self.host.stim_wr[node][vc].wrapping_sub(self.regs[node].iface.stim_rd[vc]);
        self.iface_cfg.stim_cap - fill as usize
    }

    fn push_stim(&mut self, node: usize, vc: usize, entry: StimEntry) -> bool {
        if self.stim_free(node, vc) == 0 {
            return false;
        }
        let wr = &mut self.host.stim_wr[node][vc];
        let slot = *wr as usize % self.iface_cfg.stim_cap;
        self.rings[node].stim[vc][slot] = entry.to_bits();
        *wr = wr.wrapping_add(1);
        true
    }

    fn drain_delivered(&mut self, node: usize) -> Vec<OutEntry> {
        let dev = self.regs[node].iface.out_wr;
        let rd = &mut self.host.out_rd[node];
        let pending = ring_pending(*rd, dev, self.iface_cfg.out_cap, "output");
        let mut out = Vec::with_capacity(pending);
        for _ in 0..pending {
            let slot = *rd as usize % self.iface_cfg.out_cap;
            out.push(OutEntry::from_bits(self.rings[node].out[slot]));
            *rd = rd.wrapping_add(1);
        }
        out
    }

    fn drain_access(&mut self, node: usize) -> Vec<AccEntry> {
        let dev = self.regs[node].iface.acc_wr;
        let rd = &mut self.host.acc_rd[node];
        let pending = ring_pending(*rd, dev, self.iface_cfg.acc_cap, "access-delay");
        let mut out = Vec::with_capacity(pending);
        for _ in 0..pending {
            let slot = *rd as usize % self.iface_cfg.acc_cap;
            out.push(AccEntry::from_bits(self.rings[node].acc[slot]));
            *rd = rd.wrapping_add(1);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_types::{Coord, Flit, Topology};

    fn engine(w: u8, h: u8, topo: Topology, depth: usize) -> NativeNoc {
        NativeNoc::new(
            NetworkConfig::new(w, h, topo, depth),
            IfaceConfig::default(),
        )
    }

    #[test]
    fn single_flit_packet_crosses_network() {
        let mut e = engine(3, 3, Topology::Torus, 4);
        let src = 0usize; // (0,0)
        let dest = Coord::new(2, 1); // node 5; torus: 1 west + 1 north = 2 hops
        let entry = StimEntry {
            ts: 0,
            flit: Flit::head_tail(dest, src as u8),
        };
        assert!(e.push_stim(src, 0, entry));
        e.run(12);
        let dest_node = e.config().shape.node_id(dest).index();
        let got = e.drain_delivered(dest_node);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].flit, entry.flit);
        // Everyone else got nothing.
        for node in 0..9 {
            if node != dest_node {
                assert!(e.drain_delivered(node).is_empty(), "stray flit at {node}");
            }
        }
        // Latency = access (1 shadow + pick) + hops + delivery.
        let acc = e.drain_access(src);
        assert_eq!(acc.len(), 1);
        assert!(
            got[0].cycle >= 3 && got[0].cycle <= 8,
            "cycle {}",
            got[0].cycle
        );
    }

    #[test]
    fn multi_flit_packet_delivered_in_order() {
        let mut e = engine(4, 4, Topology::Mesh, 2);
        let dest = Coord::new(3, 3);
        let flits = noc_types::PacketSpec {
            src: noc_types::NodeId(0),
            dest,
            class: noc_types::TrafficClass::BestEffort,
            flits: 5,
        }
        .flitise(|i| 0x100 + i as u16);
        for f in &flits {
            assert!(e.push_stim(0, 1, StimEntry { ts: 0, flit: *f }));
        }
        e.run(40);
        let dest_node = e.config().shape.node_id(dest).index();
        let got = e.drain_delivered(dest_node);
        assert_eq!(got.len(), 5);
        let payloads: Vec<u16> = got.iter().map(|o| o.flit.payload).collect();
        assert_eq!(&payloads[1..], &[0x100, 0x101, 0x102, 0x103]);
        // Contiguous delivery (wormhole): cycles strictly increasing.
        assert!(got.windows(2).all(|w| w[0].cycle < w[1].cycle));
    }

    #[test]
    fn stim_ring_backpressure() {
        let mut e = engine(2, 2, Topology::Torus, 4);
        let cap = IfaceConfig::default().stim_cap;
        let f = Flit::head_tail(Coord::new(1, 0), 0);
        // Timestamps far in the future: nothing injects, ring fills up.
        for i in 0..cap {
            assert!(
                e.push_stim(
                    0,
                    0,
                    StimEntry {
                        ts: 1 << 30,
                        flit: f
                    }
                ),
                "push {i} failed early"
            );
        }
        assert_eq!(e.stim_free(0, 0), 0);
        assert!(!e.push_stim(
            0,
            0,
            StimEntry {
                ts: 1 << 30,
                flit: f
            }
        ));
        e.run(4);
        // Still full: entries are not due.
        assert_eq!(e.stim_free(0, 0), 0);
    }

    #[test]
    fn timestamps_hold_injection_back() {
        let mut e = engine(2, 2, Topology::Torus, 4);
        let f = Flit::head_tail(Coord::new(1, 0), 0);
        e.push_stim(0, 2, StimEntry { ts: 50, flit: f });
        e.run(40);
        assert!(e.drain_delivered(1).is_empty());
        e.run(30);
        let got = e.drain_delivered(1);
        assert_eq!(got.len(), 1);
        assert!(got[0].cycle >= 51);
        let acc = e.drain_access(0);
        assert_eq!(acc.len(), 1);
        assert_eq!(acc[0].ts, 50);
        assert!(acc[0].delay <= 2, "delay {}", acc[0].delay);
    }
}
