//! Deterministic fault descriptions shared bit-for-bit by every engine.
//!
//! A [`FaultPlan`] is a *pure description*: which router is stalled in
//! which cycle window, which input link is stuck idle or flips payload
//! bits, and what fraction of offered packets is dropped or corrupted at
//! injection. Every engine (native, sequential, compiled, SystemC-like,
//! VHDL-like) consumes the same plan through the same pure queries, so a
//! faulty run is exactly as bit- and cycle-reproducible as a clean one —
//! the differential suites extend to faulty runs unchanged.
//!
//! Fault semantics (identical in all engines):
//!
//! * **Router stall** — for every cycle in the window the router drives
//!   idle forward links and all-zero room words, holds all its registers
//!   across the clock edge, and neither consumes stimuli nor delivers
//!   flits. Conservation-neutral: neighbours see backpressure, nothing
//!   is lost.
//! * **Link stuck-idle** — the receiver's forward-link *input* word is
//!   forced to the idle encoding for every cycle in the window. The
//!   driver still observes room and dequeues normally, so a flit in
//!   flight on the link during the window is *dropped* (the fault model's
//!   only lossy site inside the network).
//! * **Link bit-flip** — the receiver's input word, when it carries a
//!   valid body or tail flit, has `mask` XOR-ed into its 16-bit payload.
//!   Head flits are never flipped (their payload is the route header;
//!   corrupting it would change *where* bits flow rather than *which*
//!   bits flow). Conservation-neutral.
//! * **Injection drop / corrupt** — decided per *packet* at its head
//!   flit by a pure hash of `(seed, node, vc, ts)`; a dropped packet is
//!   never offered to the engine, a corrupted one has its body/tail
//!   payloads XOR-ed with the plan's mask before it is offered. Applied
//!   host-side, upstream of every engine.
//!
//! Determinism contract: all windows start at cycle ≥ 1 (constructors
//! clamp) so that the cycle-0 settle of the event-driven kernels, which
//! precedes their first clock edge, can never observe a fault edge.

use crate::flit::{FlitKind, FLIT_BITS, PAYLOAD_BITS};

/// A half-open cycle window `[start, end)` in which a fault is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// First active cycle (clamped to ≥ 1 by [`Window::new`]).
    pub start: u64,
    /// First cycle after the fault clears.
    pub end: u64,
}

impl Window {
    /// A window active for cycles `start..end`. `start` is clamped to 1:
    /// cycle 0 faults are forbidden by the determinism contract (see the
    /// module docs).
    pub fn new(start: u64, end: u64) -> Window {
        Window {
            start: start.max(1),
            end,
        }
    }

    /// Is the fault active in `cycle`?
    #[inline]
    pub fn active(&self, cycle: u64) -> bool {
        self.start <= cycle && cycle < self.end
    }
}

/// What a faulty link does to the words it delivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFaultKind {
    /// The receiver reads the idle word; flits in flight are dropped.
    StuckIdle,
    /// Valid body/tail flits have `mask` XOR-ed into their payload.
    BitFlip {
        /// XOR mask applied to the 16-bit flit payload.
        mask: u16,
    },
}

/// One fault on one forward link, described at the *receiving* side:
/// the link entering input port `dir` of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFault {
    /// Cycles in which the fault is active.
    pub window: Window,
    /// What the fault does.
    pub kind: LinkFaultKind,
}

/// Packet-level faults applied at the stimuli interface, host-side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectFaults {
    /// Per-mille of offered packets silently dropped before injection.
    pub drop_per_mille: u16,
    /// Per-mille of offered packets whose body/tail payloads are XOR-ed
    /// with [`mask`](Self::mask).
    pub corrupt_per_mille: u16,
    /// Payload XOR mask for corrupted packets.
    pub mask: u16,
}

/// A deterministic, seed-derived fault scenario for one network.
///
/// The plan is immutable once built; every query is a pure function of
/// `(plan, cycle, site)`, which is what lets five different simulation
/// engines replay the identical faulty execution.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed the plan was derived from (also salts injection decisions).
    pub seed: u64,
    num_nodes: usize,
    stalls: Vec<Vec<Window>>,
    links: Vec<[Vec<LinkFault>; 4]>,
    /// Packet-level injection faults, if any.
    pub inject: Option<InjectFaults>,
}

impl FaultPlan {
    /// An empty plan for a network of `num_nodes` routers.
    pub fn new(num_nodes: usize, seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            num_nodes,
            stalls: vec![Vec::new(); num_nodes],
            links: vec![[Vec::new(), Vec::new(), Vec::new(), Vec::new()]; num_nodes],
            inject: None,
        }
    }

    /// Number of routers the plan covers.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Add a stall window to router `node`.
    pub fn add_stall(&mut self, node: usize, window: Window) {
        self.stalls[node].push(window);
    }

    /// Add a fault to the link entering input port `dir` (0..4 =
    /// N, E, S, W) of router `node`.
    pub fn add_link_fault(&mut self, node: usize, dir: usize, fault: LinkFault) {
        self.links[node][dir].push(fault);
    }

    /// Set the packet-level injection faults.
    pub fn set_inject(&mut self, inject: InjectFaults) {
        self.inject = Some(inject);
    }

    /// True when the plan describes no fault at all.
    pub fn is_empty(&self) -> bool {
        self.inject.is_none()
            && self.stalls.iter().all(|s| s.is_empty())
            && self.links.iter().flatten().all(|l| l.is_empty())
    }

    /// True when any link fault is `StuckIdle` — the only fault kind that
    /// can drop flits *inside* the network, which relaxes the flit
    /// conservation invariant from equality to a non-negative residual.
    pub fn has_stuck_idle(&self) -> bool {
        self.links
            .iter()
            .flatten()
            .flatten()
            .any(|f| matches!(f.kind, LinkFaultKind::StuckIdle))
    }

    /// Is router `node` stalled in `cycle`?
    #[inline]
    pub fn stalled(&self, node: usize, cycle: u64) -> bool {
        self.stalls[node].iter().any(|w| w.active(cycle))
    }

    /// Apply the link faults of `(node, dir)` to the forward-link word
    /// consumed at the clock edge ending `cycle`.
    #[inline]
    pub fn apply_link(&self, node: usize, dir: usize, cycle: u64, word: u64) -> u64 {
        apply_faults(&self.links[node][dir], cycle, word)
    }

    /// The faults touching one router, precomputed for an engine's
    /// per-node hot path.
    pub fn node_faults(&self, node: usize) -> NodeFaults {
        NodeFaults {
            stalls: self.stalls[node].clone(),
            links: self.links[node].clone(),
        }
    }

    /// Stall windows of every node, for reporting.
    pub fn stall_sites(&self) -> impl Iterator<Item = (usize, Window)> + '_ {
        self.stalls
            .iter()
            .enumerate()
            .flat_map(|(n, ws)| ws.iter().map(move |&w| (n, w)))
    }

    /// Link-fault sites `(node, dir, fault)`, for reporting.
    pub fn link_sites(&self) -> impl Iterator<Item = (usize, usize, LinkFault)> + '_ {
        self.links.iter().enumerate().flat_map(|(n, dirs)| {
            dirs.iter()
                .enumerate()
                .flat_map(move |(d, fs)| fs.iter().map(move |&f| (n, d, f)))
        })
    }

    /// One-line-per-fault human summary of the plan.
    pub fn describe(&self) -> String {
        use core::fmt::Write;
        let mut out = String::new();
        for (n, w) in self.stall_sites() {
            let _ = writeln!(out, "stall node {n} cycles {}..{}", w.start, w.end);
        }
        for (n, d, f) in self.link_sites() {
            let _ = writeln!(
                out,
                "link into node {n} port {d}: {:?} cycles {}..{}",
                f.kind, f.window.start, f.window.end
            );
        }
        if let Some(i) = &self.inject {
            let _ = writeln!(
                out,
                "inject: drop {}‰, corrupt {}‰ mask {:#06x}",
                i.drop_per_mille, i.corrupt_per_mille, i.mask
            );
        }
        out
    }
}

/// The faults touching one router, cloned out of a [`FaultPlan`] so the
/// per-delta hot path of an engine touches only node-local data.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeFaults {
    stalls: Vec<Window>,
    links: [Vec<LinkFault>; 4],
}

impl NodeFaults {
    /// True when this node has no fault; engines skip all checks then.
    pub fn is_empty(&self) -> bool {
        self.stalls.is_empty() && self.links.iter().all(|l| l.is_empty())
    }

    /// Is the node stalled in `cycle`?
    #[inline]
    pub fn stalled(&self, cycle: u64) -> bool {
        self.stalls.iter().any(|w| w.active(cycle))
    }

    /// True when the node has any stall window (in any cycle) — lets
    /// event-driven engines add clock sensitivity only where needed.
    pub fn has_stalls(&self) -> bool {
        !self.stalls.is_empty()
    }

    /// True when the input link from `dir` carries any fault (in any
    /// cycle) — lets engines skip per-cycle checks on clean links.
    pub fn link_faulty(&self, dir: usize) -> bool {
        !self.links[dir].is_empty()
    }

    /// Apply this node's input-link faults for `dir` to the word consumed
    /// at the clock edge ending `cycle`.
    #[inline]
    pub fn apply_link(&self, dir: usize, cycle: u64, word: u64) -> u64 {
        apply_faults(&self.links[dir], cycle, word)
    }
}

/// Apply a fault list to one forward-link word.
fn apply_faults(faults: &[LinkFault], cycle: u64, word: u64) -> u64 {
    let mut w = word;
    for f in faults {
        if !f.window.active(cycle) {
            continue;
        }
        match f.kind {
            LinkFaultKind::StuckIdle => w = 0,
            LinkFaultKind::BitFlip { mask } => w = flip_payload(w, mask),
        }
    }
    w
}

/// XOR `mask` into the payload of a forward-link word carrying a valid
/// body or tail flit; head flits and idle words pass through unchanged.
#[inline]
pub fn flip_payload(word: u64, mask: u16) -> u64 {
    let valid = (word >> (FLIT_BITS + 2)) & 1 != 0;
    if !valid {
        return word;
    }
    let kind = FlitKind::from_bits(word >> PAYLOAD_BITS);
    if kind.is_head() {
        return word;
    }
    word ^ mask as u64
}

/// The pure mixing hash all fault decisions derive from: a splitmix64
/// finaliser over the running combination of `(seed, a, b, c)`. Stable
/// across platforms; the same `(seed, site, cycle)` always maps to the
/// same decision, in every engine and on every run.
#[inline]
pub fn mix(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(a)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        .wrapping_add(b)
        .wrapping_mul(0x94D0_49BB_1331_11EB)
        .wrapping_add(c);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{Flit, LinkFwd};
    use crate::geom::Coord;

    #[test]
    fn window_clamps_cycle_zero() {
        let w = Window::new(0, 5);
        assert!(!w.active(0));
        assert!(w.active(1) && w.active(4) && !w.active(5));
    }

    #[test]
    fn stuck_idle_forces_zero() {
        let mut p = FaultPlan::new(4, 1);
        p.add_link_fault(
            2,
            1,
            LinkFault {
                window: Window::new(10, 20),
                kind: LinkFaultKind::StuckIdle,
            },
        );
        let w = LinkFwd::flit(1, Flit::head(Coord::new(1, 1), 3)).to_bits();
        assert_eq!(p.apply_link(2, 1, 15, w), 0);
        assert_eq!(p.apply_link(2, 1, 9, w), w, "outside window");
        assert_eq!(p.apply_link(2, 0, 15, w), w, "other port");
        assert_eq!(p.apply_link(1, 1, 15, w), w, "other node");
        assert!(p.has_stuck_idle());
        assert!(!p.is_empty());
    }

    #[test]
    fn bitflip_spares_heads_and_idle() {
        let mask = 0xA5A5u16;
        let body = LinkFwd::flit(
            2,
            Flit {
                kind: FlitKind::Body,
                payload: 0x1234,
            },
        )
        .to_bits();
        let flipped = flip_payload(body, mask);
        let f = LinkFwd::from_bits(flipped);
        assert_eq!(f.flit.payload, 0x1234 ^ mask);
        assert_eq!(f.flit.kind, FlitKind::Body);
        assert_eq!(f.vc, 2);
        assert!(f.valid);
        let head = LinkFwd::flit(1, Flit::head(Coord::new(2, 2), 9)).to_bits();
        assert_eq!(flip_payload(head, mask), head);
        assert_eq!(flip_payload(0, mask), 0);
    }

    #[test]
    fn node_faults_mirror_plan() {
        let mut p = FaultPlan::new(4, 7);
        p.add_stall(1, Window::new(5, 8));
        p.add_link_fault(
            1,
            3,
            LinkFault {
                window: Window::new(2, 4),
                kind: LinkFaultKind::BitFlip { mask: 1 },
            },
        );
        let nf = p.node_faults(1);
        assert!(!nf.is_empty());
        assert!(nf.stalled(5) && nf.stalled(7) && !nf.stalled(8));
        assert!(nf.link_faulty(3) && !nf.link_faulty(0));
        for cycle in 0..10 {
            for dir in 0..4 {
                let w = LinkFwd::flit(
                    0,
                    Flit {
                        kind: FlitKind::Tail,
                        payload: 0xFFFF,
                    },
                )
                .to_bits();
                assert_eq!(nf.apply_link(dir, cycle, w), p.apply_link(1, dir, cycle, w));
            }
        }
        assert!(p.node_faults(0).is_empty());
    }

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix(1, 2, 3, 4), mix(1, 2, 3, 4));
        assert_ne!(mix(1, 2, 3, 4), mix(1, 2, 3, 5));
        assert_ne!(mix(1, 2, 3, 4), mix(2, 2, 3, 4));
        // Per-mille decisions stay roughly calibrated.
        let hits = (0..10_000)
            .filter(|&i| mix(42, i, 0, 0) % 1000 < 100)
            .count();
        assert!((800..1200).contains(&hits), "hits {hits}");
    }

    #[test]
    fn describe_lists_every_site() {
        let mut p = FaultPlan::new(2, 3);
        p.add_stall(0, Window::new(1, 2));
        p.add_link_fault(
            1,
            2,
            LinkFault {
                window: Window::new(3, 4),
                kind: LinkFaultKind::StuckIdle,
            },
        );
        p.set_inject(InjectFaults {
            drop_per_mille: 10,
            corrupt_per_mille: 20,
            mask: 0xFF,
        });
        let d = p.describe();
        assert!(d.contains("stall node 0"));
        assert!(d.contains("link into node 1 port 2"));
        assert!(d.contains("inject"));
    }
}
