//! The paper's running example systems.
//!
//! * [`RegisteredDemoKind`] / [`registered_demo`] — the three-block system
//!   with registered boundaries of Fig 2: combinational circuitries
//!   `F1(x)`, `F2(x)` (sharing implementation `F'1,2`) and `F3(x)`
//!   connected in a ring through registers. Simulated with the
//!   [`StaticEngine`](crate::static_sched::StaticEngine) it reproduces the
//!   static schedule of Fig 3.
//! * [`CombDemoKind`] / [`comb_demo`] — the three-block system with
//!   combinatorial boundaries of Fig 4: each block is a pair `(F, G)`
//!   where `F` updates the internal state and `G` drives the output link;
//!   downstream blocks read `G` of their predecessor *within the same
//!   system cycle*. Simulated with the
//!   [`DynamicEngine`](crate::dynamic_sched::DynamicEngine) it reproduces
//!   the dynamic (HBR) schedule with re-evaluations of Fig 5.

use crate::block::{BlockKind, CombInputs, SystemSpec};
use crate::side::SideView;
use noc_types::bits::{BitReader, BitWriter};

/// Word width of the demo systems' links and registers.
pub const DEMO_WIDTH: usize = 16;

/// Combinational block of the registered-boundary demo (Fig 2).
///
/// Stateless: its input and output registers are the engine's link banks,
/// exactly as Fig 2b maps `R1..3` and `R'1..3` into the state memory.
#[derive(Debug, Clone)]
pub struct RegisteredDemoKind {
    variant: u8,
}

impl RegisteredDemoKind {
    /// Variant 0 is the shared implementation `F'1,2`; variant 1 is `F'3`.
    pub fn new(variant: u8) -> Self {
        Self { variant }
    }

    /// The combinational function of this variant.
    pub fn f(&self, x: u64) -> u64 {
        match self.variant {
            0 => (x.wrapping_mul(3) + 1) & 0xFFFF,
            _ => ((x ^ (x >> 3)) + 7) & 0xFFFF,
        }
    }
}

impl BlockKind for RegisteredDemoKind {
    fn name(&self) -> &str {
        if self.variant == 0 {
            "F'1,2"
        } else {
            "F'3"
        }
    }

    fn state_bits(&self) -> usize {
        0
    }

    fn input_widths(&self) -> Vec<usize> {
        vec![DEMO_WIDTH]
    }

    fn output_widths(&self) -> Vec<usize> {
        vec![DEMO_WIDTH]
    }

    fn reset(&self, _state: &mut [u64]) {}

    fn eval(
        &self,
        _instance: usize,
        _cur: &[u64],
        inputs: &[u64],
        _cycle: u64,
        _next: &mut [u64],
        outputs: &mut [u64],
        _side: &mut SideView<'_>,
    ) {
        outputs[0] = self.f(inputs[0]);
    }
}

/// Build the Fig 2 system: `F1 → F2 → F3 → F1` in a ring, registers on
/// every boundary, with initial register values `r1..r3` on the links
/// feeding `F1..F3`. Returns the spec and the three link ids `[R1,R2,R3]`
/// (`Ri` feeds `Fi`).
pub fn registered_demo(r: [u64; 3]) -> (SystemSpec, [usize; 3]) {
    let mut spec = SystemSpec::new();
    let f12 = spec.add_kind(Box::new(RegisteredDemoKind::new(0)));
    let f3 = spec.add_kind(Box::new(RegisteredDemoKind::new(1)));
    let b1 = spec.add_block(f12);
    let b2 = spec.add_block(f12);
    let b3 = spec.add_block(f3);
    // Link written by F_i feeds F_{i+1}; the link feeding F1 is written by F3.
    let r2 = spec.wire((b1, 0), (b2, 0)); // R2 = F1 output register
    let r3 = spec.wire((b2, 0), (b3, 0)); // R3 = F2 output register
    let r1 = spec.wire((b3, 0), (b1, 0)); // R1 = F3 output register
    spec.set_link_reset(r1, r[0]);
    spec.set_link_reset(r2, r[1]);
    spec.set_link_reset(r3, r[2]);
    (spec, [r1, r2, r3])
}

/// Golden model of the registered demo: the *parallel* semantics, updating
/// all three registers simultaneously each cycle. Used to check that any
/// sequential schedule produces the identical trajectory.
pub fn registered_demo_reference(r: [u64; 3], cycles: u64) -> [u64; 3] {
    let f12 = RegisteredDemoKind::new(0);
    let f3 = RegisteredDemoKind::new(1);
    let mut reg = r;
    for _ in 0..cycles {
        let n2 = f12.f(reg[0]); // F1 reads R1, writes R2
        let n3 = f12.f(reg[1]); // F2 reads R2, writes R3
        let n1 = f3.f(reg[2]); //  F3 reads R3, writes R1
        reg = [n1, n2, n3];
    }
    reg
}

/// Block of the combinatorial-boundary demo (Fig 4).
///
/// State `s` (16 bits). Output `G(s, x)`; state update `F(s, x)`. Variant 0
/// ("source") has a registered output `G = s`, breaking the combinational
/// ring so the system is signal-acyclic — the same structural property the
/// NoC router has (its flow-control outputs are functions of registered
/// state only).
#[derive(Debug, Clone)]
pub struct CombDemoKind {
    variant: u8,
}

impl CombDemoKind {
    /// Variant 0: registered output (`G = s`); variant 1: combinational
    /// pass-through (`G = s ^ x`).
    pub fn new(variant: u8) -> Self {
        Self { variant }
    }

    /// Output function `G(s, x)`.
    pub fn g(&self, s: u64, x: u64) -> u64 {
        match self.variant {
            0 => s,
            _ => (s ^ x) & 0xFFFF,
        }
    }

    /// State-update function `F(s, x)`.
    pub fn f(&self, s: u64, x: u64) -> u64 {
        match self.variant {
            0 => (s + x) & 0xFFFF,
            _ => (s + x + 1) & 0xFFFF,
        }
    }
}

impl BlockKind for CombDemoKind {
    fn name(&self) -> &str {
        if self.variant == 0 {
            "FG-registered"
        } else {
            "FG-comb"
        }
    }

    fn state_bits(&self) -> usize {
        DEMO_WIDTH
    }

    fn input_widths(&self) -> Vec<usize> {
        vec![DEMO_WIDTH]
    }

    fn output_widths(&self) -> Vec<usize> {
        vec![DEMO_WIDTH]
    }

    fn reset(&self, state: &mut [u64]) {
        let mut w = BitWriter::new(state);
        w.put(DEMO_WIDTH, (1 + self.variant as u64) * 3);
    }

    fn eval(
        &self,
        _instance: usize,
        cur: &[u64],
        inputs: &[u64],
        _cycle: u64,
        next: &mut [u64],
        outputs: &mut [u64],
        _side: &mut SideView<'_>,
    ) {
        let s = BitReader::new(cur).take(DEMO_WIDTH);
        let x = inputs[0];
        BitWriter::new(next).put(DEMO_WIDTH, self.f(s, x));
        outputs[0] = self.g(s, x);
    }

    fn comb_inputs(&self, _port: usize) -> CombInputs {
        if self.variant == 0 {
            // `G = s`: registered output, the edge that breaks the ring.
            CombInputs::None
        } else {
            // `G = s ^ x`: the input feeds through combinationally.
            CombInputs::All
        }
    }
}

/// Build the Fig 4 system: ring `B0 → B1 → B2 → B0` where `B0` has a
/// registered output and `B1`, `B2` pass combinationally. Returns the spec
/// and the link ids `[y0, y1, y2]` (`yi` is the output of `Bi`).
pub fn comb_demo() -> (SystemSpec, [usize; 3]) {
    let mut spec = SystemSpec::new();
    let reg = spec.add_kind(Box::new(CombDemoKind::new(0)));
    let compass = spec.add_kind(Box::new(CombDemoKind::new(1)));
    let b0 = spec.add_block(reg);
    let b1 = spec.add_block(compass);
    let b2 = spec.add_block(compass);
    let y0 = spec.wire((b0, 0), (b1, 0));
    let y1 = spec.wire((b1, 0), (b2, 0));
    let y2 = spec.wire((b2, 0), (b0, 0));
    (spec, [y0, y1, y2])
}

/// Golden model of the combinatorial demo: parallel semantics with correct
/// combinational settling (topological evaluation of `G` before register
/// update). Returns the state `[s0, s1, s2]` after `cycles`.
pub fn comb_demo_reference(cycles: u64) -> [u64; 3] {
    let k0 = CombDemoKind::new(0);
    let k1 = CombDemoKind::new(1);
    let mut s = [3u64, 6, 6];
    for _ in 0..cycles {
        // Combinational settle (topological: y0 then y1 then y2).
        let y0 = k0.g(s[0], 0);
        let y1 = k1.g(s[1], y0);
        let y2 = k1.g(s[2], y1);
        // Clock edge.
        s = [k0.f(s[0], y2), k1.f(s[1], y0), k1.f(s[2], y1)];
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic_sched::{DynamicEngine, Scheduling};
    use crate::static_sched::StaticEngine;
    use noc_types::bits::BitReader;

    #[test]
    fn static_engine_matches_parallel_reference() {
        let init = [5u64, 11, 200];
        for cycles in [1u64, 2, 3, 10, 100] {
            let (spec, regs) = registered_demo(init);
            let mut eng = StaticEngine::new(spec);
            eng.run(cycles);
            let expect = registered_demo_reference(init, cycles);
            let got = [
                eng.link_value(regs[0]),
                eng.link_value(regs[1]),
                eng.link_value(regs[2]),
            ];
            assert_eq!(got, expect, "after {cycles} cycles");
        }
    }

    #[test]
    fn static_engine_order_independent() {
        let init = [1u64, 2, 3];
        let orders: [[usize; 3]; 4] = [[0, 1, 2], [2, 1, 0], [1, 2, 0], [2, 0, 1]];
        let mut results = Vec::new();
        for order in orders {
            let (spec, regs) = registered_demo(init);
            let mut eng = StaticEngine::with_order(spec, order.to_vec());
            eng.run(17);
            results.push([
                eng.link_value(regs[0]),
                eng.link_value(regs[1]),
                eng.link_value(regs[2]),
            ]);
        }
        assert!(results.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn fig3_static_schedule_golden() {
        let (spec, _) = registered_demo([1, 2, 3]);
        let mut eng = StaticEngine::new(spec);
        eng.enable_trace();
        eng.run(3);
        // Fig 3: three system cycles, each evaluating F'1,2 (as F1), F'1,2
        // (as F2), F'3 — delta cycles (c,0)(c,1)(c,2).
        let tuples = eng.trace().unwrap().tuples();
        let expect: Vec<(u64, u32, usize)> = (0..3u64)
            .flat_map(|c| (0..3u32).map(move |d| (c, d, d as usize)))
            .collect();
        assert_eq!(tuples, expect);
    }

    fn comb_state(eng: &DynamicEngine, b: usize) -> u64 {
        BitReader::new(eng.peek_state(b)).take(DEMO_WIDTH)
    }

    #[test]
    fn dynamic_engine_matches_parallel_reference() {
        for cycles in [1u64, 2, 3, 25] {
            let (spec, _) = comb_demo();
            let mut eng = DynamicEngine::new(spec);
            eng.run(cycles);
            let expect = comb_demo_reference(cycles);
            let got = [
                comb_state(&eng, 0),
                comb_state(&eng, 1),
                comb_state(&eng, 2),
            ];
            assert_eq!(got, expect, "after {cycles} cycles");
        }
    }

    #[test]
    fn dynamic_engine_order_independent_behaviour() {
        let orders: [[usize; 3]; 3] = [[0, 1, 2], [2, 1, 0], [1, 0, 2]];
        for order in orders {
            let (spec, _) = comb_demo();
            let mut eng = DynamicEngine::with_order(spec, order.to_vec());
            eng.run(25);
            let expect = comb_demo_reference(25);
            let got = [
                comb_state(&eng, 0),
                comb_state(&eng, 1),
                comb_state(&eng, 2),
            ];
            assert_eq!(got, expect, "order {order:?}");
        }
    }

    #[test]
    fn fig5_dynamic_schedule_has_reevaluations_in_bad_order() {
        // Reverse-topological order forces the Fig 5 cascade: changes
        // propagate B0→B1→B2 but evaluation visits B2,B1,B0.
        let (spec, _) = comb_demo();
        let mut eng = DynamicEngine::with_order(spec, vec![2, 1, 0]);
        eng.enable_trace();
        eng.step();
        let trace = eng.trace().unwrap();
        assert!(
            !trace.re_evaluations().is_empty(),
            "expected re-evaluations, got trace:\n{}",
            trace.render()
        );
        // Minimum one eval per block plus the re-evaluations.
        assert_eq!(trace.events.len() as u64, eng.stats().delta_cycles,);
        assert!(eng.stats().delta_cycles > 3);
    }

    #[test]
    fn dynamic_engine_topological_order_needs_no_reevaluation_when_quiescent() {
        // In topological order, a cycle where nothing changes on the links
        // costs exactly N delta cycles.
        let (spec, _) = comb_demo();
        let mut eng = DynamicEngine::new(spec);
        eng.run(40);
        // Steady state: values still change every cycle in this demo, so
        // instead check the minimum bound holds and re-evals are bounded.
        assert!(eng.stats().delta_cycles >= 40 * 3);
        assert!(eng.stats().max_deltas_in_cycle <= 9);
    }

    #[test]
    fn full_passes_matches_hbr_behaviour_with_more_deltas() {
        let (spec, _) = comb_demo();
        let mut hbr = DynamicEngine::new(spec);
        let (spec2, _) = comb_demo();
        let mut full = DynamicEngine::new(spec2);
        full.set_scheduling(Scheduling::FullPasses);
        hbr.run(20);
        full.run(20);
        for b in 0..3 {
            assert_eq!(comb_state(&hbr, b), comb_state(&full, b));
        }
        assert!(full.stats().delta_cycles >= hbr.stats().delta_cycles);
    }

    #[test]
    fn static_engine_is_wrong_for_comb_boundaries() {
        // Negative control for §4.1 vs §4.2: treating the combinatorial
        // demo's links as registered changes the behaviour.
        let (spec, _) = comb_demo();
        let mut eng = StaticEngine::new(spec);
        eng.run(5);
        let expect = comb_demo_reference(5);
        let got: Vec<u64> = (0..3)
            .map(|b| BitReader::new(eng.peek_state(b)).take(DEMO_WIDTH))
            .collect();
        assert_ne!(got, expect.to_vec());
    }
}
