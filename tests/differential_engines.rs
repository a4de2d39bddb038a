//! The central bit-accuracy claim of the paper, enforced across all
//! engines behind the [`SimBuilder`] factory: the native reference, the
//! sequential (FPGA-method) simulator, its compiled kernel, the
//! SystemC-like model and the VHDL-like netlist must produce
//! bit-identical delivered-flit streams and access-delay logs for
//! identical seeded traffic — "without compromising the cycle and bit
//! level accuracy" (§1).

#![allow(clippy::unwrap_used, clippy::expect_used)]
use noc::diff::{assert_traces_equal, collect_trace, Trace};
use noc::{CompiledNoc, EngineKind, NativeNoc, NocEngine};
use noc_types::{NetworkConfig, Topology};
use traffic::{BeConfig, GtAllocator, StimuliGenerator, TrafficConfig};
use vc_router::IfaceConfig;

fn traffic_for(net: NetworkConfig, load: f64, gt: bool, seed: u64) -> TrafficConfig {
    let gt_streams = if gt {
        GtAllocator::new(net).auto_streams((1, 1), 1024, 16)
    } else {
        Vec::new()
    };
    TrafficConfig {
        net,
        be: BeConfig::fig1(load),
        gt_streams,
        seed,
    }
}

const KINDS: [(&str, EngineKind); 5] = [
    ("native", EngineKind::Native),
    ("seqsim", EngineKind::Seq),
    ("seqsim-compiled", EngineKind::SeqCompiled),
    ("systemc", EngineKind::CycleSim),
    ("rtl", EngineKind::Rtl),
];

fn all_traces(
    net: NetworkConfig,
    t: &TrafficConfig,
    cycles: u64,
    period: u64,
) -> Vec<(&'static str, Trace)> {
    KINDS
        .iter()
        .map(|&(name, kind)| {
            let mut e = soc_sim::sim(net)
                .engine(kind)
                .try_build()
                .expect("engine builds");
            (name, collect_trace(&mut *e, t, cycles, period))
        })
        .collect()
}

fn assert_all_equal(traces: &[(&'static str, Trace)]) {
    let (ref_name, ref_trace) = &traces[0];
    assert!(
        ref_trace.delivered.iter().any(|d| !d.is_empty()),
        "reference engine delivered nothing — vacuous comparison"
    );
    for (name, trace) in &traces[1..] {
        assert_traces_equal(ref_name, ref_trace, name, trace);
    }
}

#[test]
fn engines_agree_torus_mixed_traffic() {
    let net = NetworkConfig::new(3, 3, Topology::Torus, 2);
    let t = traffic_for(net, 0.10, true, 20_070_326);
    assert_all_equal(&all_traces(net, &t, 2_000, 256));
}

#[test]
fn engines_agree_mesh_be_traffic() {
    let net = NetworkConfig::new(4, 2, Topology::Mesh, 4);
    let t = traffic_for(net, 0.15, false, 99);
    assert_all_equal(&all_traces(net, &t, 2_000, 128));
}

#[test]
fn engines_agree_under_heavy_load() {
    // Near saturation: queues fill, room bits toggle, worms block —
    // the regime where engine divergence would show first.
    let net = NetworkConfig::new(3, 3, Topology::Torus, 2);
    let t = traffic_for(net, 0.45, true, 4242);
    assert_all_equal(&all_traces(net, &t, 1_500, 128));
}

#[test]
fn engines_agree_minimal_network() {
    // The paper's smallest supported network: 1-by-2.
    let net = NetworkConfig::new(2, 1, Topology::Torus, 4);
    let t = traffic_for(net, 0.3, false, 1);
    assert_all_equal(&all_traces(net, &t, 1_000, 128));
}

#[test]
fn engines_agree_across_queue_depths() {
    for depth in [2usize, 4, 8] {
        let net = NetworkConfig::new(3, 3, Topology::Torus, depth);
        let t = traffic_for(net, 0.2, false, depth as u64 * 31);
        let traces = all_traces(net, &t, 1_200, 128);
        assert_all_equal(&traces);
    }
}

#[test]
fn engines_agree_under_fault_plans() {
    // The robustness extension of the headline claim: a deterministic
    // fault plan (router stalls, stuck/flipped links, injection faults)
    // must be replayed bit-identically by every engine, so faulty
    // executions are as reproducible as clean ones.
    let net = NetworkConfig::new(3, 3, Topology::Torus, 4);
    for seed in [0xFA01u64, 0xFA02, 0xFA03] {
        let plan = std::sync::Arc::new(noc::random_plan(&net, seed, 1_200));
        assert!(!plan.is_empty(), "plan {seed:#x} is empty");
        let t = traffic_for(net, 0.15, false, seed);
        let traces: Vec<(&'static str, Trace)> = KINDS
            .iter()
            .map(|&(name, kind)| {
                let mut e = soc_sim::sim(net)
                    .engine(kind)
                    .faults(plan.clone())
                    .try_build()
                    .expect("faulty engine builds");
                (name, collect_trace(&mut *e, &t, 1_200, 128))
            })
            .collect();
        assert_all_equal(&traces);

        // The plan must actually bite: the faulty trace differs from a
        // clean run of the same traffic.
        let mut clean_engine = soc_sim::sim(net)
            .engine(EngineKind::Native)
            .try_build()
            .expect("native engine builds");
        let clean = collect_trace(&mut *clean_engine, &t, 1_200, 128);
        assert_ne!(
            clean, traces[0].1,
            "fault plan {seed:#x} had no observable effect"
        );
    }
}

#[test]
fn gated_compiled_engine_tracks_native_per_cycle_and_skips_what_is_idle() {
    // The campaign shape of the fig-1 point (6x6 torus, GT + BE 0.10,
    // stimuli loaded a 512-cycle period ahead), then a silent stretch,
    // then traffic again: `native` and the activity-gated compiled
    // engine must agree register for register after every cycle, and
    // the share of ops the gate skipped must be close to the share of
    // router-cycles with nothing to do — queues empty and the clock
    // edge leaving every register alone.
    let net = NetworkConfig::new(6, 6, Topology::Torus, 2);
    let n = net.num_nodes();
    let mut gen = StimuliGenerator::new(TrafficConfig {
        net,
        be: BeConfig::fig1(0.10),
        gt_streams: GtAllocator::new(net).auto_streams((2, 1), 2048, 128),
        seed: 7,
    });
    let mut native = NativeNoc::new(net, IfaceConfig::default());
    let mut compiled = CompiledNoc::new(net, IfaceConfig::default());
    let (mut idle, mut total) = (0u64, 0u64);
    let mut fig1_share = None;
    for (t0, loaded) in [
        (0u64, true),
        (512, true),
        (1024, true),
        (1536, false),
        (2048, true),
    ] {
        let w = gen.generate(t0, t0 + 512);
        if loaded {
            for (node, rings) in w.stim.into_iter().enumerate() {
                for (vc, entries) in rings.into_iter().enumerate() {
                    for e in entries {
                        assert!(native.push_stim(node, vc, e));
                        assert!(compiled.push_stim(node, vc, e));
                    }
                }
            }
        } else {
            // End of the fig-1 stretch: take its reading.
            let g = compiled.engine().gating_stats();
            fig1_share = Some((g.skipped_frac(), idle as f64 / total as f64));
        }
        for cycle in t0..t0 + 512 {
            let before: Vec<_> = (0..n).map(|node| *native.regs(node)).collect();
            native.step();
            compiled.step();
            for (node, was) in before.iter().enumerate() {
                assert_eq!(
                    *native.regs(node),
                    compiled.peek_regs(node),
                    "cycle {cycle} node {node}"
                );
                idle +=
                    (was == native.regs(node) && was.queues.iter().all(|q| q.is_empty())) as u64;
                total += 1;
            }
        }
        for node in 0..n {
            assert_eq!(native.drain_delivered(node), compiled.drain_delivered(node));
            assert_eq!(native.drain_access(node), compiled.drain_access(node));
        }
    }
    let (skipped, idle_share) = fig1_share.expect("the silent period came");
    assert!(
        idle_share > 0.2 && (idle_share - skipped).abs() < 0.05,
        "fig-1 stretch: {:.1} % of ops skipped, {:.1} % of router-cycles idle",
        100.0 * skipped,
        100.0 * idle_share
    );
    let g = compiled.engine().gating_stats();
    assert!(
        g.skipped_frac() > skipped,
        "the silent period adds skips: {g:?}"
    );
    assert!(g.input_wakes > 0 && g.timed_wakes > 0, "{g:?}");
}
