//! The NoC as a netlist-granularity model on the event kernel.
//!
//! Per router roughly 78 processes and ~170–280 signals (depth
//! dependent) — the register state itself lives in signals, VHDL style:
//!
//! * per input queue (×20): a clocked *register* process owning nothing —
//!   the FIFO slots and rd/wr/occupancy pointers are individual signals —
//!   plus a combinational *front* process deriving the queue-status word;
//! * per input port (×5): a combinational *room* process (occupancy
//!   compare per VC);
//! * per (output, VC) pair (×20): a combinational *candidate* process
//!   implementing the wormhole-owner check and the queue-level
//!   round-robin head scan;
//! * per output port (×5): a combinational *VC-selector* process (the
//!   VC-level round-robin) and a *forward-mux* process gating the grant
//!   with the downstream room wire;
//! * one clocked *switch-control* process (owner table and round-robin
//!   pointers, held in `ctrl` signals);
//! * a stimuli-interface pair (clocked register update + combinational
//!   offer), and a global clocked cycle-counter process.
//!
//! Each moving flit therefore touches a dozen signals whose events fan
//! out into dozens of process activations — the per-signal bookkeeping
//! that makes event-driven RTL simulation slow, and that the paper's
//! sequential FPGA method is built to escape. Semantically this is the
//! same router as every other engine, bit for bit; the differential tests
//! enforce it.

use crate::kernel::{EventKernel, EventStats, SigId};
use noc::engine::ring_pending;
use noc::{NocEngine, Wiring};
use noc_types::fault::{FaultPlan, NodeFaults};
use noc_types::flit::room_from_bits;
use noc_types::{
    Direction, Flit, LinkFwd, NetworkConfig, NodeId, Port, NUM_PORTS, NUM_QUEUES, NUM_VCS,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use vc_router::iface::{iface_clock, iface_pick};
use vc_router::routing::route;
use vc_router::{AccEntry, IfaceConfig, IfaceRegs, IfaceRings, OutEntry, RouterCtx, StimEntry};

/// Pack a queue-status word: front flit (18) | valid (1) | occupancy (4).
fn q_st_pack(front: Option<u64>, occ: u64) -> u64 {
    match front {
        Some(f) => f | (1 << 18) | (occ << 19),
        None => occ << 19,
    }
}

fn q_st_front(bits: u64) -> Option<Flit> {
    ((bits >> 18) & 1 == 1).then(|| Flit::from_bits(bits & 0x3FFFF))
}

/// Dedup a declared read/write list (boundary ports repeat the shared
/// constant-zero signal).
fn uniq(mut v: Vec<SigId>) -> Vec<SigId> {
    v.sort_unstable();
    v.dedup();
    v
}

/// ctrl word layout per output: 4 × (owner 6b | inner_rr 5b) | outer_rr 2b.
fn ctrl_owner(bits: u64, vc: usize) -> Option<u8> {
    vc_router::regs::owner_decode(((bits >> (vc * 11)) & 0x3F) as u8)
}

fn ctrl_inner(bits: u64, vc: usize) -> u8 {
    ((bits >> (vc * 11 + 6)) & 0x1F) as u8
}

fn ctrl_outer(bits: u64) -> u8 {
    ((bits >> 44) & 0b11) as u8
}

fn ctrl_pack(owner: [Option<u8>; NUM_VCS], inner: [u8; NUM_VCS], outer: u8) -> u64 {
    let mut w = 0u64;
    for v in 0..NUM_VCS {
        w |= (vc_router::regs::owner_encode(owner[v]) as u64) << (v * 11);
        w |= (inner[v] as u64) << (v * 11 + 6);
    }
    w | ((outer as u64) << 44)
}

/// cand word: valid (1) << 5 | queue (5).
fn cand_pack(q: Option<u8>) -> u64 {
    match q {
        Some(q) => 0x20 | q as u64,
        None => 0,
    }
}

fn cand_unpack(bits: u64) -> Option<u8> {
    (bits & 0x20 != 0).then_some((bits & 0x1F) as u8)
}

/// sel word: valid (1) << 7 | vc (2) << 5 | queue (5).
fn sel_pack(g: Option<(u8, u8)>) -> u64 {
    match g {
        Some((vc, q)) => 0x80 | ((vc as u64) << 5) | q as u64,
        None => 0,
    }
}

fn sel_unpack(bits: u64) -> Option<(u8, u8)> {
    (bits & 0x80 != 0).then_some((((bits >> 5) & 0b11) as u8, (bits & 0x1F) as u8))
}

/// Shared stimuli-interface state of one router (registers + BRAM rings).
struct IfaceState {
    regs: IfaceRegs,
    rings: IfaceRings,
}

/// The VHDL-like NoC engine.
pub struct RtlNoc {
    cfg: NetworkConfig,
    iface_cfg: IfaceConfig,
    kernel: EventKernel,
    iface: Vec<Rc<RefCell<IfaceState>>>,
    fwd_sigs: Vec<[SigId; 4]>,
    /// Pre-edge snapshot of the forward wires of the last completed
    /// cycle (probe support).
    probe_buf: Vec<[u64; 4]>,
    wr_sigs: Vec<[SigId; NUM_VCS]>,
    /// Queue-occupancy register signals (host "memory peek" support).
    occ_sigs: Vec<[SigId; NUM_QUEUES]>,
    stim_wr: Vec<[u16; NUM_VCS]>,
    out_rd: Vec<u16>,
    acc_rd: Vec<u16>,
    cycle: u64,
    faults: Option<Arc<FaultPlan>>,
    instr: Option<RtlInstr>,
}

/// Registry handles publishing the event kernel's activity counters as
/// `rtl.*` series (deltas added once per system cycle).
struct RtlInstr {
    events: simtrace::Counter,
    activations: simtrace::Counter,
    deltas: simtrace::Counter,
    last: EventStats,
}

/// Per-queue register signals.
#[derive(Clone, Copy)]
struct QueueSigs {
    slots: [SigId; vc_router::MAX_QUEUE_DEPTH],
    rd: SigId,
    wr: SigId,
    occ: SigId,
    st: SigId,
}

impl RtlNoc {
    /// Elaborate the netlist for a network configuration.
    pub fn new(cfg: NetworkConfig, iface_cfg: IfaceConfig) -> Self {
        Self::with_faults(cfg, iface_cfg, None)
    }

    /// Elaborate with a deterministic fault plan. Stall windows gate the
    /// room and forward-mux processes (wires forced low) and every
    /// clocked register process of the router; link faults rewrite the
    /// forward word at the consuming queue-register process — the same
    /// application points as the native reference.
    pub fn with_faults(
        cfg: NetworkConfig,
        iface_cfg: IfaceConfig,
        faults: Option<Arc<FaultPlan>>,
    ) -> Self {
        iface_cfg.validate();
        let n = cfg.num_nodes();
        let depth = cfg.router.queue_depth;
        let wiring = Wiring::new(&cfg);
        let mut k = EventKernel::new();
        let nfs: Vec<NodeFaults> = (0..n)
            .map(|r| {
                faults
                    .as_ref()
                    .map(|p| p.node_faults(r))
                    .unwrap_or_default()
            })
            .collect();

        let clk = k.signal(0);
        k.add_clock(clk, 5);
        let zero = k.signal(0);
        // Global cycle-counter register: pre-edge value = current cycle.
        let cnt = k.signal(0);
        k.process_rw("cycle-counter", &[clk], &[clk, cnt], &[cnt], move |ctx| {
            if ctx.read(clk) == 1 {
                let v = ctx.read(cnt) + 1;
                ctx.write(cnt, v);
            }
        });

        // Signals.
        let queues: Vec<[QueueSigs; NUM_QUEUES]> = (0..n)
            .map(|_| {
                core::array::from_fn(|_| QueueSigs {
                    // Slots past the configured depth alias the shared
                    // constant-zero signal instead of allocating dead
                    // signals the spec-graph lint would flag.
                    slots: core::array::from_fn(|i| if i < depth { k.signal(0) } else { zero }),
                    rd: k.signal(0),
                    wr: k.signal(0),
                    occ: k.signal(0),
                    st: k.signal(0),
                })
            })
            .collect();
        let ctrl: Vec<[SigId; NUM_PORTS]> = (0..n)
            .map(|_| core::array::from_fn(|_| k.signal(ctrl_pack([None; 4], [0; 4], 0))))
            .collect();
        let cand: Vec<[SigId; NUM_QUEUES]> = (0..n)
            .map(|_| core::array::from_fn(|_| k.signal(0)))
            .collect();
        let sel: Vec<[SigId; NUM_PORTS]> = (0..n)
            .map(|_| core::array::from_fn(|_| k.signal(0)))
            .collect();
        let fwd: Vec<[SigId; NUM_PORTS]> = (0..n)
            .map(|_| core::array::from_fn(|_| k.signal(0)))
            .collect();
        let room: Vec<[SigId; NUM_PORTS]> = (0..n)
            .map(|_| core::array::from_fn(|_| k.signal(0xF)))
            .collect();
        let offer: Vec<SigId> = (0..n).map(|_| k.signal(0)).collect();
        let iface_ver: Vec<SigId> = (0..n).map(|_| k.signal(0)).collect();
        let wr_sigs: Vec<[SigId; NUM_VCS]> = (0..n)
            .map(|_| core::array::from_fn(|_| k.signal(0)))
            .collect();

        let iface: Vec<Rc<RefCell<IfaceState>>> = (0..n)
            .map(|_| {
                Rc::new(RefCell::new(IfaceState {
                    regs: IfaceRegs::default(),
                    rings: IfaceRings::new(&iface_cfg),
                }))
            })
            .collect();

        // The room wire our output port `o` sees (usize::MAX = constant
        // all-room, the Local capture path).
        let room_in_sig = |r: usize, o: usize| -> SigId {
            if o == Port::Local.index() {
                return usize::MAX;
            }
            match wiring.neighbour(r, o) {
                Some(nb) => room[nb][Direction::from_index(o).opposite().index()],
                None => zero,
            }
        };

        for r in 0..n {
            let ctx_r = RouterCtx::new(&cfg, cfg.shape.coord(NodeId(r as u16)));
            let has_stall = nfs[r].has_stalls();
            let has_link = (0..4).any(|d| nfs[r].link_faulty(d));

            for q in 0..NUM_QUEUES {
                let port = q / NUM_VCS;
                let vc = q % NUM_VCS;
                let qs = queues[r][q];
                let my_sels = sel[r];
                let rooms: [SigId; NUM_PORTS] = core::array::from_fn(|o| room_in_sig(r, o));
                let enq_sig = if port == Port::Local.index() {
                    offer[r]
                } else {
                    match wiring.neighbour(r, port) {
                        Some(nb) => fwd[nb][Direction::from_index(port).opposite().index()],
                        None => zero,
                    }
                };

                // Queue register process (clocked): FIFO slots and
                // pointers are signals; every register is re-assigned
                // each cycle (VHDL synchronous-process style).
                let nf = nfs[r].clone();
                let reads = uniq(
                    [clk, cnt, qs.rd, qs.wr, qs.occ, enq_sig]
                        .into_iter()
                        .chain(my_sels)
                        .chain(rooms.into_iter().filter(|&s| s != usize::MAX))
                        .collect(),
                );
                let writes = uniq(
                    qs.slots[..depth]
                        .iter()
                        .copied()
                        .chain([qs.rd, qs.wr, qs.occ])
                        .collect(),
                );
                k.process_rw("queue-reg", &[clk], &reads, &writes, move |ctx| {
                    if ctx.read(clk) != 1 {
                        return;
                    }
                    let cycle = ctx.read(cnt);
                    if nf.stalled(cycle) {
                        return; // registers held
                    }
                    let mut rd = ctx.read(qs.rd);
                    let mut wr = ctx.read(qs.wr);
                    let mut occ = ctx.read(qs.occ);
                    // Dequeue when granted and the downstream has room.
                    for (o, s) in my_sels.iter().enumerate() {
                        if let Some((g_vc, g_q)) = sel_unpack(ctx.read(*s)) {
                            if g_q as usize == q {
                                let room_ok = if rooms[o] == usize::MAX {
                                    true
                                } else {
                                    room_from_bits(ctx.read(rooms[o]))[g_vc as usize]
                                };
                                if room_ok {
                                    debug_assert!(occ > 0, "grant to empty queue");
                                    rd = (rd + 1) % depth as u64;
                                    occ -= 1;
                                }
                            }
                        }
                    }
                    // Enqueue the incoming flit for this VC (rewritten by
                    // any fault on the link it arrives over).
                    let mut enq_word = ctx.read(enq_sig);
                    if port != Port::Local.index() && nf.link_faulty(port) {
                        enq_word = nf.apply_link(port, cycle, enq_word);
                    }
                    let w = LinkFwd::from_bits(enq_word);
                    if w.valid && w.vc as usize == vc && (occ as usize) < depth {
                        ctx.write(qs.slots[wr as usize], w.flit.to_bits());
                        wr = (wr + 1) % depth as u64;
                        occ += 1;
                    }
                    ctx.write(qs.rd, rd);
                    ctx.write(qs.wr, wr);
                    ctx.write(qs.occ, occ);
                });

                // Front/status process (comb): the head-of-queue mux.
                let mut sens: Vec<SigId> = qs.slots[..depth].to_vec();
                sens.push(qs.rd);
                sens.push(qs.occ);
                k.process_rw("queue-front", &sens, &sens, &[qs.st], move |ctx| {
                    let occ = ctx.read(qs.occ);
                    let front = (occ > 0).then(|| ctx.read(qs.slots[ctx.read(qs.rd) as usize]));
                    ctx.write(qs.st, q_st_pack(front, occ));
                });
            }

            // Room processes (comb): occupancy compare per VC. A stall
            // window forces the wire low; `cnt` joins the sensitivity
            // (only where a window exists) so the edges of the window
            // re-evaluate the wire even though no occupancy changed.
            for p in 0..NUM_PORTS {
                let occs: [SigId; NUM_VCS] =
                    core::array::from_fn(|v| queues[r][p * NUM_VCS + v].occ);
                let out = room[r][p];
                let nf = nfs[r].clone();
                let mut sens: Vec<SigId> = occs.to_vec();
                if has_stall {
                    sens.push(cnt);
                }
                let reads = uniq(occs.iter().copied().chain([cnt]).collect());
                k.process_rw("room", &sens, &reads, &[out], move |ctx| {
                    if nf.stalled(ctx.read(cnt)) {
                        ctx.write(out, 0);
                        return;
                    }
                    let mut bits = 0u64;
                    for (v, s) in occs.iter().enumerate() {
                        if (ctx.read(*s) as usize) < depth {
                            bits |= 1 << v;
                        }
                    }
                    ctx.write(out, bits);
                });
            }

            // Candidate processes (comb), one per (output, VC): the
            // wormhole-owner check and the queue-level round-robin scan.
            let sts: [SigId; NUM_QUEUES] = core::array::from_fn(|q| queues[r][q].st);
            for o in 0..NUM_PORTS {
                for vc in 0..NUM_VCS {
                    let my_ctrl = ctrl[r][o];
                    let all_ctrls = ctrl[r];
                    let out = cand[r][o * NUM_VCS + vc];
                    let mut sens: Vec<SigId> = sts.to_vec();
                    sens.push(my_ctrl);
                    if has_link {
                        // The owner-exclusion scan below reads every
                        // output's owner table, so the process must wake
                        // on all of them. Only reachable when a link
                        // fault can strand a worm mid-transfer, so the
                        // clean-run event counts stay untouched.
                        sens.extend(all_ctrls.iter().filter(|&&c| c != my_ctrl));
                    }
                    let reads = uniq(sts.iter().copied().chain(all_ctrls).collect());
                    k.process_rw("candidate", &sens, &reads, &[out], move |ctx| {
                        let c = ctx.read(my_ctrl);
                        let q = match ctrl_owner(c, vc) {
                            Some(owner_q) => (q_st_front(ctx.read(sts[owner_q as usize]))
                                .is_some())
                            .then_some(owner_q),
                            None => {
                                let start = ctrl_inner(c, vc) as usize;
                                (0..NUM_QUEUES)
                                    .map(|j| (start + j) % NUM_QUEUES)
                                    .find(|&q| {
                                        // A queue still owning an output
                                        // VC (its worm's tail was dropped
                                        // by a link fault) may not bid
                                        // its next head until released.
                                        let owns_elsewhere = all_ctrls.iter().any(|&cs| {
                                            let cw = ctx.read(cs);
                                            (0..NUM_VCS).any(|v| ctrl_owner(cw, v) == Some(q as u8))
                                        });
                                        if owns_elsewhere {
                                            return false;
                                        }
                                        match q_st_front(ctx.read(sts[q])) {
                                            Some(f) if f.kind.is_head() => {
                                                let in_vc = (q % NUM_VCS) as u8;
                                                let (p, ovc) = route(&ctx_r, f.dest(), in_vc);
                                                p.index() == o && ovc as usize == vc
                                            }
                                            _ => false,
                                        }
                                    })
                                    .map(|q| q as u8)
                            }
                        };
                        ctx.write(out, cand_pack(q));
                    });
                }
            }

            // VC-selector processes (comb): VC-level round-robin.
            for o in 0..NUM_PORTS {
                let cands: [SigId; NUM_VCS] = core::array::from_fn(|v| cand[r][o * NUM_VCS + v]);
                let my_ctrl = ctrl[r][o];
                let out = sel[r][o];
                let mut sens: Vec<SigId> = cands.to_vec();
                sens.push(my_ctrl);
                k.process_rw("vc-select", &sens, &sens, &[out], move |ctx| {
                    let outer = ctrl_outer(ctx.read(my_ctrl)) as usize;
                    let mut grant = None;
                    for kv in 0..NUM_VCS {
                        let vc = (outer + kv) % NUM_VCS;
                        if let Some(q) = cand_unpack(ctx.read(cands[vc])) {
                            grant = Some((vc as u8, q));
                            break;
                        }
                    }
                    ctx.write(out, sel_pack(grant));
                });
            }

            // Forward-mux processes (comb).
            for o in 0..NUM_PORTS {
                let my_sel = sel[r][o];
                let room_sig = room_in_sig(r, o);
                let out = fwd[r][o];
                let nf = nfs[r].clone();
                let mut sens: Vec<SigId> = sts.to_vec();
                sens.push(my_sel);
                if room_sig != usize::MAX {
                    sens.push(room_sig);
                }
                if has_stall {
                    sens.push(cnt);
                }
                let mut reads: Vec<SigId> = sts.to_vec();
                reads.extend([my_sel, cnt]);
                if room_sig != usize::MAX {
                    reads.push(room_sig);
                }
                let reads = uniq(reads);
                k.process_rw("fwd-mux", &sens, &reads, &[out], move |ctx| {
                    if nf.stalled(ctx.read(cnt)) {
                        ctx.write(out, 0);
                        return;
                    }
                    let word = match sel_unpack(ctx.read(my_sel)) {
                        Some((vc, q)) => {
                            let room_ok = if room_sig == usize::MAX {
                                true
                            } else {
                                room_from_bits(ctx.read(room_sig))[vc as usize]
                            };
                            match (room_ok, q_st_front(ctx.read(sts[q as usize]))) {
                                (true, Some(f)) => LinkFwd::flit(vc, f).to_bits(),
                                _ => 0,
                            }
                        }
                        None => 0,
                    };
                    ctx.write(out, word);
                });
            }

            // Switch-control process (clocked; registers in ctrl signals).
            {
                let sels = sel[r];
                let ctrls = ctrl[r];
                let rooms: [SigId; NUM_PORTS] = core::array::from_fn(|o| room_in_sig(r, o));
                let nf = nfs[r].clone();
                let reads = uniq(
                    [clk, cnt]
                        .into_iter()
                        .chain(ctrls)
                        .chain(sels)
                        .chain(sts)
                        .chain(rooms.into_iter().filter(|&s| s != usize::MAX))
                        .collect(),
                );
                k.process_rw("switch-ctrl", &[clk], &reads, &ctrls, move |ctx| {
                    if ctx.read(clk) != 1 {
                        return;
                    }
                    if nf.stalled(ctx.read(cnt)) {
                        return; // owner table and rr pointers held
                    }
                    for o in 0..NUM_PORTS {
                        let c = ctx.read(ctrls[o]);
                        let mut owner: [Option<u8>; NUM_VCS] =
                            core::array::from_fn(|v| ctrl_owner(c, v));
                        let mut inner: [u8; NUM_VCS] = core::array::from_fn(|v| ctrl_inner(c, v));
                        let mut outer = ctrl_outer(c);
                        if let Some((vc, q)) = sel_unpack(ctx.read(sels[o])) {
                            let room_ok = if rooms[o] == usize::MAX {
                                true
                            } else {
                                room_from_bits(ctx.read(rooms[o]))[vc as usize]
                            };
                            if room_ok {
                                let f =
                                    q_st_front(ctx.read(sts[q as usize])).unwrap_or_else(|| {
                                        unreachable!("arbiter granted empty queue {q}")
                                    });
                                if f.kind.is_head() {
                                    inner[vc as usize] = ((q as usize + 1) % NUM_QUEUES) as u8;
                                }
                                if f.kind.is_tail() {
                                    owner[vc as usize] = None;
                                } else if f.kind.is_head() {
                                    owner[vc as usize] = Some(q);
                                }
                            }
                            outer = ((vc as usize + 1) % NUM_VCS) as u8;
                        }
                        ctx.write(ctrls[o], ctrl_pack(owner, inner, outer));
                    }
                });
            }

            // Stimuli interface: offer (comb) + register update (clocked).
            {
                let st = iface[r].clone();
                let my_room = room[r][Port::Local.index()];
                let my_offer = offer[r];
                let ver = iface_ver[r];
                let icfg = iface_cfg;
                let sens = [ver, my_room, cnt];
                k.process_rw("iface-offer", &sens, &sens, &[my_offer], move |ctx| {
                    let st = st.borrow();
                    let room_local = room_from_bits(ctx.read(my_room));
                    let pick = iface_pick(&st.regs, &icfg, &st.rings, &room_local, ctx.read(cnt));
                    let word = match pick {
                        Some((vc, e)) => LinkFwd::flit(vc, e.flit).to_bits(),
                        None => 0,
                    };
                    ctx.write(my_offer, word);
                });
            }
            {
                let st = iface[r].clone();
                let my_room = room[r][Port::Local.index()];
                let local_fwd = fwd[r][Port::Local.index()];
                let wr = wr_sigs[r];
                let ver = iface_ver[r];
                let icfg = iface_cfg;
                let nf = nfs[r].clone();
                let reads = uniq(
                    [clk, cnt, my_room, local_fwd]
                        .into_iter()
                        .chain(wr)
                        .collect(),
                );
                k.process_rw("iface-clock", &[clk], &reads, &[ver], move |ctx| {
                    if ctx.read(clk) != 1 {
                        return;
                    }
                    let cycle = ctx.read(cnt);
                    if nf.stalled(cycle) {
                        return; // no stim consume, no delivery
                    }
                    let mut st = st.borrow_mut();
                    let room_local = room_from_bits(ctx.read(my_room));
                    let pick = iface_pick(&st.regs, &icfg, &st.rings, &room_local, cycle);
                    let delivered = LinkFwd::from_bits(ctx.read(local_fwd));
                    let wr_vals: [u16; NUM_VCS] = core::array::from_fn(|v| ctx.read(wr[v]) as u16);
                    let IfaceState { regs, rings } = &mut *st;
                    iface_clock(regs, &icfg, rings, pick, delivered, wr_vals, cycle);
                    ctx.write(ver, cycle.wrapping_add(1));
                });
            }
        }

        let fwd_sigs: Vec<[SigId; 4]> = (0..n)
            .map(|r| core::array::from_fn(|d| fwd[r][d]))
            .collect();
        let occ_sigs: Vec<[SigId; NUM_QUEUES]> = (0..n)
            .map(|r| core::array::from_fn(|q| queues[r][q].occ))
            .collect();
        RtlNoc {
            cfg,
            iface_cfg,
            kernel: k,
            iface,
            probe_buf: vec![[0; 4]; n],
            fwd_sigs,
            wr_sigs,
            occ_sigs,
            stim_wr: vec![[0; NUM_VCS]; n],
            out_rd: vec![0; n],
            acc_rd: vec![0; n],
            cycle: 0,
            faults,
            instr: None,
        }
    }

    /// Kernel activity counters.
    pub fn kernel_stats(&self) -> EventStats {
        self.kernel.stats()
    }

    /// The underlying event kernel (static introspection).
    pub fn kernel(&self) -> &EventKernel {
        &self.kernel
    }

    /// The host-poked signals (stimuli write pointers): external
    /// drivers for the spec-graph adapter.
    pub fn poked_signals(&self) -> Vec<SigId> {
        self.wr_sigs.iter().flatten().copied().collect()
    }
}

impl NocEngine for RtlNoc {
    fn name(&self) -> &'static str {
        "rtl"
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
        self.kernel.advance_cycles(1);
        self.cycle += 1;
        if let Some(i) = self.instr.as_mut() {
            let s = self.kernel.stats();
            i.events.add(s.events - i.last.events);
            i.activations.add(s.activations - i.last.activations);
            i.deltas.add(s.deltas - i.last.deltas);
            i.last = s;
        }
    }

    fn attach_instrumentation(
        &mut self,
        registry: &simtrace::Registry,
        _tracer: &simtrace::Tracer,
    ) {
        let labels = [("engine", simtrace::lbl("rtl"))];
        self.instr = Some(RtlInstr {
            events: registry.counter("rtl.events", &labels),
            activations: registry.counter("rtl.activations", &labels),
            deltas: registry.counter("rtl.deltas", &labels),
            last: self.kernel.stats(),
        });
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
        let mut occ = [0u32; NUM_VCS];
        for q in 0..NUM_QUEUES {
            occ[q % NUM_VCS] += self.kernel.peek(self.occ_sigs[node][q]) as u32;
        }
        Some(occ)
    }

    fn iface(&self) -> IfaceConfig {
        self.iface_cfg
    }

    fn stim_free(&self, node: usize, vc: usize) -> usize {
        let dev_rd = self.iface[node].borrow().regs.stim_rd[vc];
        let fill = self.stim_wr[node][vc].wrapping_sub(dev_rd);
        self.iface_cfg.stim_cap - fill as usize
    }

    fn push_stim(&mut self, node: usize, vc: usize, entry: StimEntry) -> bool {
        if self.stim_free(node, vc) == 0 {
            return false;
        }
        let wr = &mut self.stim_wr[node][vc];
        let slot = *wr as usize % self.iface_cfg.stim_cap;
        self.iface[node].borrow_mut().rings.stim[vc][slot] = entry.to_bits();
        *wr = wr.wrapping_add(1);
        self.kernel.poke(self.wr_sigs[node][vc], *wr as u64);
        true
    }

    fn drain_delivered(&mut self, node: usize) -> Vec<OutEntry> {
        let st = self.iface[node].borrow();
        let rd = &mut self.out_rd[node];
        let pending = ring_pending(*rd, st.regs.out_wr, self.iface_cfg.out_cap, "output");
        let mut out = Vec::with_capacity(pending);
        for _ in 0..pending {
            out.push(OutEntry::from_bits(
                st.rings.out[*rd as usize % self.iface_cfg.out_cap],
            ));
            *rd = rd.wrapping_add(1);
        }
        out
    }

    fn drain_access(&mut self, node: usize) -> Vec<AccEntry> {
        let st = self.iface[node].borrow();
        let rd = &mut self.acc_rd[node];
        let pending = ring_pending(*rd, st.regs.acc_wr, self.iface_cfg.acc_cap, "access-delay");
        let mut out = Vec::with_capacity(pending);
        for _ in 0..pending {
            out.push(AccEntry::from_bits(
                st.rings.acc[*rd as usize % self.iface_cfg.acc_cap],
            ));
            *rd = rd.wrapping_add(1);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_types::{Coord, Topology};

    #[test]
    fn status_word_roundtrips() {
        assert_eq!(q_st_front(q_st_pack(None, 0)), None);
        let f = Flit::head(Coord::new(3, 4), 9);
        let bits = q_st_pack(Some(f.to_bits()), 2);
        assert_eq!(q_st_front(bits), Some(f));
        assert_eq!(bits >> 19, 2);
    }

    #[test]
    fn ctrl_word_roundtrips() {
        let owner = [Some(5), None, Some(19), None];
        let inner = [1u8, 7, 19, 0];
        let w = ctrl_pack(owner, inner, 3);
        for v in 0..4 {
            assert_eq!(ctrl_owner(w, v), owner[v]);
            assert_eq!(ctrl_inner(w, v), inner[v]);
        }
        assert_eq!(ctrl_outer(w), 3);
    }

    #[test]
    fn sel_and_cand_words_roundtrip() {
        assert_eq!(sel_unpack(sel_pack(None)), None);
        assert_eq!(sel_unpack(sel_pack(Some((3, 19)))), Some((3, 19)));
        assert_eq!(sel_unpack(sel_pack(Some((0, 0)))), Some((0, 0)));
        assert_eq!(cand_unpack(cand_pack(None)), None);
        assert_eq!(cand_unpack(cand_pack(Some(0))), Some(0));
        assert_eq!(cand_unpack(cand_pack(Some(19))), Some(19));
    }

    #[test]
    fn single_flit_packet_crosses_torus() {
        let cfg = NetworkConfig::new(3, 3, Topology::Torus, 4);
        let mut e = RtlNoc::new(cfg, IfaceConfig::default());
        let dest = Coord::new(2, 1);
        let entry = StimEntry {
            ts: 0,
            flit: Flit::head_tail(dest, 0),
        };
        assert!(e.push_stim(0, 0, entry));
        e.run(12);
        let got = e.drain_delivered(cfg.shape.node_id(dest).index());
        assert_eq!(got.len(), 1, "kernel stats: {:?}", e.kernel_stats());
        assert_eq!(got[0].flit, entry.flit);
    }

    #[test]
    fn event_counts_grow_with_traffic() {
        let cfg = NetworkConfig::new(3, 3, Topology::Torus, 4);
        let mut idle = RtlNoc::new(cfg, IfaceConfig::default());
        idle.run(30);
        let mut busy = RtlNoc::new(cfg, IfaceConfig::default());
        for i in 0..12u16 {
            busy.push_stim(
                (i % 9) as usize,
                (i % 2) as usize,
                StimEntry {
                    ts: i as u64,
                    flit: Flit::head_tail(Coord::new(2, (i % 3) as u8), (i % 9) as u8),
                },
            );
        }
        busy.run(30);
        assert!(busy.kernel_stats().events > idle.kernel_stats().events);
        assert!(busy.kernel_stats().activations > idle.kernel_stats().activations);
    }

    #[test]
    fn instrumentation_publishes_kernel_activity_counters() {
        let cfg = NetworkConfig::new(3, 3, Topology::Torus, 4);
        let mut e = RtlNoc::new(cfg, IfaceConfig::default());
        e.run(5);
        let before = e.kernel_stats();
        let registry = simtrace::Registry::new();
        e.attach_instrumentation(&registry, &simtrace::Tracer::disabled());
        e.push_stim(
            0,
            0,
            StimEntry {
                ts: 5,
                flit: Flit::head_tail(Coord::new(2, 1), 0),
            },
        );
        e.run(12);
        let labels = [("engine", simtrace::lbl("rtl"))];
        let events = registry.counter_value("rtl.events", &labels).unwrap();
        let deltas = registry.counter_value("rtl.deltas", &labels).unwrap();
        // Counters carry only the activity after attachment.
        assert_eq!(events, e.kernel_stats().events - before.events);
        assert_eq!(deltas, e.kernel_stats().deltas - before.deltas);
        assert!(registry
            .counter_value("rtl.activations", &labels)
            .is_some_and(|a| a > 0));
    }
}
