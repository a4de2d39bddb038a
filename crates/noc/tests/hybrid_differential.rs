//! Differential suite for the analyzer-derived hybrid schedule.
//!
//! `Scheduling::Hybrid` must be a pure *performance* choice: under
//! identical seeded traffic it has to produce the bit-identical
//! delivered-flit and access-delay streams as the pure dynamic
//! round-robin schedule ([`SeqNoc::new`]), on every topology — and it
//! has to *earn* its keep by spending fewer delta cycles where the
//! dynamic order wastes them (the §4.2 re-evaluation warmup).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use noc::diff::{assert_traces_equal, collect_trace};
use noc::{NocEngine, SeqNoc, SimBuilder};
use noc_types::{NetworkConfig, Topology};
use seqsim::demo::comb_demo;
use seqsim::{DynamicEngine, Scheduling};
use speccheck::analyze_spec;
use std::sync::Arc;
use traffic::{BeConfig, TrafficConfig};
use vc_router::IfaceConfig;

fn traffic_for(cfg: NetworkConfig) -> TrafficConfig {
    TrafficConfig {
        net: cfg,
        be: BeConfig::fig1(0.10),
        gt_streams: Vec::new(),
        seed: 7,
    }
}

/// The sequential engine as the builder makes it (hybrid schedule) and
/// as [`SeqNoc::new`] makes it (pure HBR round-robin, the reference).
fn hybrid_and_dynamic(cfg: NetworkConfig) -> [Box<dyn NocEngine>; 2] {
    let hybrid = SimBuilder::new(cfg).try_build().expect("seq engine builds");
    [hybrid, Box::new(SeqNoc::new(cfg, IfaceConfig::default()))]
}

#[test]
fn hybrid_is_bit_identical_on_mesh_and_torus_suites() {
    for (w, h, topo) in [
        (4u8, 4u8, Topology::Mesh),
        (6, 6, Topology::Mesh),
        (4, 4, Topology::Torus),
        (6, 6, Topology::Torus),
    ] {
        let cfg = NetworkConfig::new(w, h, topo, 4);
        let [hybrid, dynamic] = hybrid_and_dynamic(cfg)
            .map(|mut e| collect_trace(e.as_mut(), &traffic_for(cfg), 400, 64));
        let delivered: usize = hybrid.delivered.iter().map(Vec::len).sum();
        assert!(delivered > 0, "{w}x{h} {topo:?}: no traffic delivered");
        assert_traces_equal("hybrid", &hybrid, "dynamic", &dynamic);
    }
}

#[test]
fn hybrid_spends_fewer_deltas_on_idle_6x6_mesh() {
    let cfg = NetworkConfig::new(6, 6, Topology::Mesh, 4);
    let cycles = 200u64;
    let mut totals = Vec::new();
    for mut e in hybrid_and_dynamic(cfg) {
        e.run(cycles);
        let stats = e.delta_stats().expect("seq engine exposes delta stats");
        assert_eq!(stats.system_cycles, cycles);
        totals.push(stats.delta_cycles);
    }
    let (hybrid, dynamic) = (totals[0], totals[1]);
    // Both include the same mandatory n-per-cycle floor; the schedules
    // differ only in warmup re-evaluations, where the two-colored SCC
    // order settles the checkerboard faster than block-id round-robin.
    assert!(
        hybrid < dynamic,
        "hybrid spent {hybrid} delta cycles, dynamic {dynamic}"
    );
}

#[test]
fn hybrid_matches_dynamic_cycle_by_cycle_on_comb_demo() {
    // Kernel-level lockstep: after every system cycle, every link value
    // and every register word must agree with the dynamic engine (the
    // Fig 5 system, whose dynamic behaviour is itself verified against
    // the closed-form reference in the kernel's own tests).
    let (spec, links) = comb_demo();
    let analysis = analyze_spec(&spec);
    let schedule = analysis.schedule.expect("comb demo is schedulable");

    let (spec_h, _) = comb_demo();
    let mut hybrid = DynamicEngine::new(spec_h);
    hybrid.set_scheduling(Scheduling::Hybrid(Arc::new(schedule)));
    let (spec_d, _) = comb_demo();
    let mut dynamic = DynamicEngine::new(spec_d);

    for cycle in 1..=40u64 {
        hybrid.step();
        dynamic.step();
        for &l in &links {
            assert_eq!(
                hybrid.link_value(l),
                dynamic.link_value(l),
                "cycle {cycle}, link {l}"
            );
        }
        for b in 0..3 {
            assert_eq!(
                hybrid.peek_state(b),
                dynamic.peek_state(b),
                "cycle {cycle}, block {b} state"
            );
        }
    }
}

/// A registered pass-through: output is a function of state only.
struct RegPass;

impl seqsim::BlockKind for RegPass {
    fn name(&self) -> &str {
        "reg-pass"
    }
    fn state_bits(&self) -> usize {
        8
    }
    fn input_widths(&self) -> Vec<usize> {
        vec![8]
    }
    fn output_widths(&self) -> Vec<usize> {
        vec![8]
    }
    fn comb_inputs(&self, _port: usize) -> seqsim::CombInputs {
        seqsim::CombInputs::None
    }
    fn reset(&self, _state: &mut [u64]) {}
    fn eval(
        &self,
        _instance: usize,
        cur: &[u64],
        inputs: &[u64],
        _cycle: u64,
        next: &mut [u64],
        outputs: &mut [u64],
        _side: &mut seqsim::SideView<'_>,
    ) {
        next[0] = (inputs[0] + 1) & 0xff;
        outputs[0] = cur[0];
    }
}

#[test]
fn hybrid_singleton_blocks_are_never_re_evaluated() {
    // A registered chain (external → a → b → sink) condenses to
    // singleton SCCs, so the §4.1 promise applies — under the hybrid
    // schedule each block evaluates exactly once per system cycle,
    // never as a re-evaluation, even though a's registered output
    // changes value every cycle.
    let mut spec = seqsim::SystemSpec::new();
    let k = spec.add_kind(Box::new(RegPass));
    let a = spec.add_block(k);
    let b = spec.add_block(k);
    spec.external((a, 0), 0);
    spec.wire((a, 0), (b, 0));
    spec.sink((b, 0));

    let analysis = analyze_spec(&spec);
    let schedule = analysis.schedule.expect("registered chain is schedulable");
    assert_eq!(analysis.sccs.len(), 2);
    assert!(schedule.runs.iter().all(|r| !r.fixed_point));
    assert_eq!(schedule.order, vec![a, b]);

    let mut e = DynamicEngine::new(spec);
    e.set_scheduling(Scheduling::Hybrid(Arc::new(schedule)));
    e.enable_trace();
    let cycles = 25u64;
    e.run(cycles);
    let trace = e.trace().expect("tracing enabled");
    assert_eq!(trace.events.len() as u64, cycles * 2, "{}", trace.render());
    assert!(trace.re_evaluations().is_empty(), "{}", trace.render());
    assert_eq!(e.stats().delta_cycles, cycles * 2);
}

#[test]
fn registered_ring_is_one_fixed_point_scc() {
    // A *ring* of registered blocks cannot be statically ordered in this
    // kernel: a registered output is only final after its producer's
    // first in-cycle evaluation, and in a cycle someone must go first.
    // The analyzer must classify it as a single fixed-point SCC (with a
    // small static bound) rather than pretend §4.1 applies.
    let mut spec = seqsim::SystemSpec::new();
    let k = spec.add_kind(Box::new(RegPass));
    let a = spec.add_block(k);
    let b = spec.add_block(k);
    spec.wire((a, 0), (b, 0));
    spec.wire((b, 0), (a, 0));
    let analysis = analyze_spec(&spec);
    assert_eq!(analysis.sccs.len(), 1);
    assert!(analysis.sccs[0].fixed_point);
    assert!(analysis.convergence_bound <= analysis.watchdog_budget);
}
