//! The stimuli interface (paper §5.2).
//!
//! "The stimuli are buffered per virtual channel (VC) in cyclic buffers in
//! the FPGA. The output values of the network are stored per router, and
//! not per VC, in a cyclic buffer. The data in the buffers has a timestamp
//! [...] Two extra cyclic buffers make it possible to log [...] the access
//! delay a flit notices before it enters the network."
//!
//! Each router's Local port is driven by one stimuli interface:
//!
//! * four *stimuli rings* (one per VC) hold timestamped flits written by
//!   the host; the interface injects the head-of-ring flit once its
//!   timestamp has been reached and the router's local input queue for
//!   that VC has room, arbitrating across VCs round-robin (one flit per
//!   cycle fits on the local link);
//! * one *output ring* captures every flit delivered at the local output
//!   port, timestamped;
//! * one *access-delay ring* logs, for every injected head flit, how long
//!   it waited between its generation timestamp and actual injection.
//!
//! The logic is written over the [`IfaceStore`] trait so the native engine
//! (plain `Vec` rings) and the sequential simulator (BRAM-like side
//! memory) share it verbatim.

use crate::regs::IfaceRegs;
use noc_types::{Flit, LinkFwd, NUM_VCS};

/// Ring capacities of a stimuli interface, in entries. All must be powers
/// of two below 2^15 so the free-running 16-bit pointers disambiguate
/// full/empty by subtraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IfaceConfig {
    /// Entries per VC stimuli ring. The paper fixes the simulation period
    /// to this size to prevent buffer underrun (§5.3, step 3).
    pub stim_cap: usize,
    /// Entries in the delivered-output ring.
    pub out_cap: usize,
    /// Entries in the access-delay log ring.
    pub acc_cap: usize,
}

impl Default for IfaceConfig {
    fn default() -> Self {
        IfaceConfig {
            stim_cap: 256,
            out_cap: 8192,
            acc_cap: 4096,
        }
    }
}

impl IfaceConfig {
    /// Check the capacity constraints, naming the first ring that breaks
    /// one.
    pub fn check(&self) -> Result<(), String> {
        for (name, c) in [
            ("stim_cap", self.stim_cap),
            ("out_cap", self.out_cap),
            ("acc_cap", self.acc_cap),
        ] {
            if !c.is_power_of_two() {
                return Err(format!("{name} must be a power of two, got {c}"));
            }
            if c >= 1 << 15 {
                return Err(format!("{name} must stay below 2^15, got {c}"));
            }
        }
        Ok(())
    }

    /// Panic unless [`check`](Self::check) passes.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }
}

/// A timestamped stimulus: a flit that may enter the network at or after
/// `ts`. Encoded as `flit[17:0] | ts << 18` (46-bit timestamp).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StimEntry {
    /// Earliest injection cycle (the generation timestamp).
    pub ts: u64,
    /// The flit.
    pub flit: Flit,
}

impl StimEntry {
    /// Encode to a ring word.
    pub fn to_bits(self) -> u64 {
        debug_assert!(self.ts < 1 << 46);
        self.flit.to_bits() | (self.ts << 18)
    }

    /// Decode from a ring word.
    pub fn from_bits(b: u64) -> Self {
        StimEntry {
            ts: b >> 18,
            flit: Flit::from_bits(b & 0x3FFFF),
        }
    }
}

/// A delivered-output record: `flit | vc << 18 | cycle << 20`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutEntry {
    /// Delivery cycle.
    pub cycle: u64,
    /// VC the flit arrived on.
    pub vc: u8,
    /// The delivered flit.
    pub flit: Flit,
}

impl OutEntry {
    /// Encode to a ring word.
    pub fn to_bits(self) -> u64 {
        debug_assert!(self.cycle < 1 << 44);
        self.flit.to_bits() | ((self.vc as u64) << 18) | (self.cycle << 20)
    }

    /// Decode from a ring word.
    pub fn from_bits(b: u64) -> Self {
        OutEntry {
            cycle: b >> 20,
            vc: ((b >> 18) & 0b11) as u8,
            flit: Flit::from_bits(b & 0x3FFFF),
        }
    }
}

/// An access-delay record: `vc | delay << 2 | ts << 22` (delay saturates
/// at 2^20 - 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccEntry {
    /// Generation timestamp of the head flit.
    pub ts: u64,
    /// Injection VC.
    pub vc: u8,
    /// Cycles the head flit waited before entering the network.
    pub delay: u64,
}

impl AccEntry {
    /// Encode to a ring word.
    pub fn to_bits(self) -> u64 {
        debug_assert!(self.ts < 1 << 42);
        let delay = self.delay.min((1 << 20) - 1);
        self.vc as u64 | (delay << 2) | (self.ts << 22)
    }

    /// Decode from a ring word.
    pub fn from_bits(b: u64) -> Self {
        AccEntry {
            ts: b >> 22,
            vc: (b & 0b11) as u8,
            delay: (b >> 2) & 0xFFFFF,
        }
    }
}

/// Storage backend of one stimuli interface (BRAM in the FPGA).
pub trait IfaceStore {
    /// Read stimuli ring `vc` at `slot` (already reduced modulo capacity
    /// by the caller).
    fn stim_read(&self, vc: usize, slot: usize) -> u64;
    /// Write the output ring at `slot`.
    fn out_write(&mut self, slot: usize, value: u64);
    /// Write the access-delay ring at `slot`.
    fn acc_write(&mut self, slot: usize, value: u64);
}

/// Plain in-memory rings (native engine and host side).
#[derive(Debug, Clone)]
pub struct IfaceRings {
    /// Per-VC stimuli rings.
    pub stim: [Vec<u64>; NUM_VCS],
    /// Delivered-output ring.
    pub out: Vec<u64>,
    /// Access-delay ring.
    pub acc: Vec<u64>,
}

impl IfaceRings {
    /// Allocate zeroed rings.
    pub fn new(cfg: &IfaceConfig) -> Self {
        cfg.validate();
        IfaceRings {
            stim: core::array::from_fn(|_| vec![0; cfg.stim_cap]),
            out: vec![0; cfg.out_cap],
            acc: vec![0; cfg.acc_cap],
        }
    }
}

impl IfaceStore for IfaceRings {
    fn stim_read(&self, vc: usize, slot: usize) -> u64 {
        self.stim[vc][slot]
    }
    fn out_write(&mut self, slot: usize, value: u64) {
        self.out[slot] = value;
    }
    fn acc_write(&mut self, slot: usize, value: u64) {
        self.acc[slot] = value;
    }
}

/// Combinational injection pick: the flit (if any) the interface drives
/// onto the router's local input link this cycle.
///
/// Scans VCs round-robin from `regs.vc_rr`; a VC is eligible when its ring
/// is non-empty (against the *registered* write-pointer shadow), the head
/// entry's timestamp has been reached, and the router's local input queue
/// for that VC has room.
pub fn iface_pick(
    regs: &IfaceRegs,
    cfg: &IfaceConfig,
    store: &dyn IfaceStore,
    room_local: &[bool; NUM_VCS],
    cycle: u64,
) -> Option<(u8, StimEntry)> {
    for k in 0..NUM_VCS {
        let v = (regs.vc_rr as usize + k) % NUM_VCS;
        let pending = regs.stim_wr_shadow[v].wrapping_sub(regs.stim_rd[v]);
        if pending == 0 || !room_local[v] {
            continue;
        }
        let entry =
            StimEntry::from_bits(store.stim_read(v, regs.stim_rd[v] as usize % cfg.stim_cap));
        if entry.ts <= cycle {
            return Some((v as u8, entry));
        }
    }
    None
}

/// Register-update half of the interface: consume the picked stimulus,
/// capture the local output flit, log access delay, refresh the
/// write-pointer shadows. `regs` is the *next*-state register file (starts
/// as a copy of the current state).
pub fn iface_clock(
    regs: &mut IfaceRegs,
    cfg: &IfaceConfig,
    store: &mut dyn IfaceStore,
    pick: Option<(u8, StimEntry)>,
    local_out: LinkFwd,
    stim_wr_inputs: [u16; NUM_VCS],
    cycle: u64,
) {
    if let Some((v, entry)) = pick {
        let vi = v as usize;
        if entry.flit.kind.is_head() {
            store.acc_write(
                regs.acc_wr as usize % cfg.acc_cap,
                AccEntry {
                    ts: entry.ts,
                    vc: v,
                    delay: cycle - entry.ts,
                }
                .to_bits(),
            );
            regs.acc_wr = regs.acc_wr.wrapping_add(1);
        }
        regs.stim_rd[vi] = regs.stim_rd[vi].wrapping_add(1);
        regs.vc_rr = ((vi + 1) % NUM_VCS) as u8;
    }
    if local_out.valid {
        store.out_write(
            regs.out_wr as usize % cfg.out_cap,
            OutEntry {
                cycle,
                vc: local_out.vc,
                flit: local_out.flit,
            }
            .to_bits(),
        );
        regs.out_wr = regs.out_wr.wrapping_add(1);
    }
    regs.stim_wr_shadow = stim_wr_inputs;
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_types::{Coord, FlitKind};

    #[test]
    fn entry_encodings_roundtrip() {
        let s = StimEntry {
            ts: 123_456_789,
            flit: Flit::head(Coord::new(3, 9), 0x5A),
        };
        assert_eq!(StimEntry::from_bits(s.to_bits()), s);
        let o = OutEntry {
            cycle: 1 << 40,
            vc: 3,
            flit: Flit {
                kind: FlitKind::Tail,
                payload: 0xFFFF,
            },
        };
        assert_eq!(OutEntry::from_bits(o.to_bits()), o);
        let a = AccEntry {
            ts: 999,
            vc: 2,
            delay: 77,
        };
        assert_eq!(AccEntry::from_bits(a.to_bits()), a);
    }

    #[test]
    fn check_and_validate_agree_on_the_capacity_bounds() {
        for (stim_cap, ok) in [(1 << 14, true), (1 << 15, false), (48, false)] {
            let cfg = IfaceConfig {
                stim_cap,
                ..IfaceConfig::default()
            };
            assert_eq!(cfg.check().is_ok(), ok, "stim_cap {stim_cap}");
            let validated = std::panic::catch_unwind(|| cfg.validate());
            assert_eq!(validated.is_ok(), ok, "stim_cap {stim_cap}");
        }
    }

    #[test]
    fn acc_delay_saturates() {
        let a = AccEntry {
            ts: 0,
            vc: 0,
            delay: 1 << 30,
        };
        assert_eq!(AccEntry::from_bits(a.to_bits()).delay, (1 << 20) - 1);
    }

    fn setup() -> (IfaceRegs, IfaceConfig, IfaceRings) {
        let cfg = IfaceConfig::default();
        (IfaceRegs::default(), cfg, IfaceRings::new(&cfg))
    }

    fn put_stim(rings: &mut IfaceRings, cfg: &IfaceConfig, vc: usize, wr: &mut u16, e: StimEntry) {
        rings.stim[vc][*wr as usize % cfg.stim_cap] = e.to_bits();
        *wr = wr.wrapping_add(1);
    }

    #[test]
    fn pick_respects_timestamp_room_and_rr() {
        let (mut regs, cfg, mut rings) = setup();
        let mut wr0 = 0u16;
        let mut wr2 = 0u16;
        let f = Flit::head_tail(Coord::new(1, 1), 0);
        put_stim(&mut rings, &cfg, 0, &mut wr0, StimEntry { ts: 10, flit: f });
        put_stim(&mut rings, &cfg, 2, &mut wr2, StimEntry { ts: 0, flit: f });
        regs.stim_wr_shadow = [wr0, 0, wr2, 0];
        let all_room = [true; NUM_VCS];
        // Cycle 0: vc0's entry not yet due; vc2 wins.
        let p = iface_pick(&regs, &cfg, &rings, &all_room, 0);
        assert_eq!(p.map(|(v, _)| v), Some(2));
        // Cycle 10: both due; rr at 0 -> vc0 wins.
        let p = iface_pick(&regs, &cfg, &rings, &all_room, 10);
        assert_eq!(p.map(|(v, _)| v), Some(0));
        // No room on vc0 -> vc2 wins.
        let mut no0 = all_room;
        no0[0] = false;
        let p = iface_pick(&regs, &cfg, &rings, &no0, 10);
        assert_eq!(p.map(|(v, _)| v), Some(2));
        // rr pointer past 0 -> vc2 wins even with room.
        regs.vc_rr = 1;
        let p = iface_pick(&regs, &cfg, &rings, &all_room, 10);
        assert_eq!(p.map(|(v, _)| v), Some(2));
    }

    #[test]
    fn clock_advances_pointers_and_logs() {
        let (mut regs, cfg, mut rings) = setup();
        let f = Flit::head(Coord::new(2, 2), 9);
        let pick = Some((1u8, StimEntry { ts: 5, flit: f }));
        let delivered = LinkFwd::flit(
            3,
            Flit {
                kind: FlitKind::Tail,
                payload: 7,
            },
        );
        iface_clock(
            &mut regs,
            &cfg,
            &mut rings,
            pick,
            delivered,
            [4, 5, 6, 7],
            12,
        );
        assert_eq!(regs.stim_rd[1], 1);
        assert_eq!(regs.vc_rr, 2);
        assert_eq!(regs.acc_wr, 1);
        assert_eq!(regs.out_wr, 1);
        assert_eq!(regs.stim_wr_shadow, [4, 5, 6, 7]);
        let acc = AccEntry::from_bits(rings.acc[0]);
        assert_eq!((acc.vc, acc.delay, acc.ts), (1, 7, 5));
        let out = OutEntry::from_bits(rings.out[0]);
        assert_eq!((out.cycle, out.vc), (12, 3));
        assert_eq!(out.flit.payload, 7);
    }

    #[test]
    fn body_flit_injection_does_not_log_access_delay() {
        let (mut regs, cfg, mut rings) = setup();
        let pick = Some((
            0u8,
            StimEntry {
                ts: 0,
                flit: Flit {
                    kind: FlitKind::Body,
                    payload: 1,
                },
            },
        ));
        iface_clock(&mut regs, &cfg, &mut rings, pick, LinkFwd::IDLE, [0; 4], 3);
        assert_eq!(regs.acc_wr, 0);
        assert_eq!(regs.stim_rd[0], 1);
    }
}
