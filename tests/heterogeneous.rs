//! Heterogeneous networks (paper §7.1: "It is possible to select a
//! different router functionality depending on the position in the
//! network. The limiting factor is the number of registers in the
//! router."): per-node queue depths, one shared block implementation per
//! distinct depth, engines still bit-identical.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use noc::diff::{assert_traces_equal, collect_trace};
use noc::{run_fig1_point, CompiledNoc, NativeNoc, NocEngine, RunConfig, SeqNoc};
use noc_types::{NetworkConfig, Topology};
use traffic::{BeConfig, TrafficConfig};
use vc_router::IfaceConfig;

fn depths_checkerboard(cfg: &NetworkConfig, a: usize, b: usize) -> Vec<usize> {
    cfg.shape
        .coords()
        .map(|c| if (c.x + c.y) % 2 == 0 { a } else { b })
        .collect()
}

#[test]
fn hetero_native_seqsim_and_compiled_agree() {
    let net = NetworkConfig::new(4, 3, Topology::Torus, 4);
    let depths = depths_checkerboard(&net, 2, 8);
    let t = TrafficConfig {
        net,
        be: BeConfig::fig1(0.15),
        gt_streams: Vec::new(),
        seed: 77,
    };
    let iface = IfaceConfig::default();
    let mut a = NativeNoc::with_depths_and_faults(net, iface, &depths, None);
    let mut b = SeqNoc::with_depths_and_faults(net, iface, &depths, None);
    let mut c = CompiledNoc::with_depths_and_faults(net, iface, &depths, None);
    let ta = collect_trace(&mut a, &t, 2_000, 256);
    let tb = collect_trace(&mut b, &t, 2_000, 256);
    let tc = collect_trace(&mut c, &t, 2_000, 256);
    assert!(ta.delivered.iter().any(|d| !d.is_empty()));
    assert_traces_equal("native-hetero", &ta, "seqsim-hetero", &tb);
    assert_traces_equal("native-hetero", &ta, "compiled-hetero", &tc);
    for node in 0..net.num_nodes() {
        assert_eq!(b.peek_regs(node), c.peek_regs(node), "node {node}");
    }
}

#[test]
fn hetero_differs_from_homogeneous() {
    // Sanity: the depth map actually changes behaviour (deeper queues
    // absorb bursts differently), otherwise the test above is vacuous.
    let net = NetworkConfig::new(4, 3, Topology::Torus, 2);
    let t = TrafficConfig {
        net,
        be: BeConfig::fig1(0.35),
        gt_streams: Vec::new(),
        seed: 5,
    };
    let mut homo = NativeNoc::new(net, IfaceConfig::default());
    let depths = depths_checkerboard(&net, 2, 8);
    let mut hetero = NativeNoc::with_depths_and_faults(net, IfaceConfig::default(), &depths, None);
    let th = collect_trace(&mut homo, &t, 2_000, 256);
    let tx = collect_trace(&mut hetero, &t, 2_000, 256);
    assert_ne!(
        th.delivered, tx.delivered,
        "checkerboard depths should alter delivery timing at this load"
    );
}

#[test]
fn hetero_seqsim_state_memory_sizes_vary_per_instance() {
    // The engine's state memory must size each instance by its own kind:
    // a depth-8 router holds more bits than a depth-2 one.
    let net = NetworkConfig::new(2, 2, Topology::Torus, 4);
    let depths = vec![2usize, 8, 2, 8];
    let e = SeqNoc::with_depths_and_faults(net, IfaceConfig::default(), &depths, None);
    // peek_regs must decode with the right per-node depth: push nothing,
    // just verify the decode round-trips the reset state.
    for node in 0..4 {
        let regs = e.peek_regs(node);
        assert_eq!(regs.iface.out_wr, 0);
        assert!(regs.queues.iter().all(|q| q.is_empty()));
    }
}

#[test]
fn checked_hetero_run_reports_no_false_violation() {
    // The invariant checker bounds each node's queues by that node's own
    // depth: a depth-8 router in a network configured with depth 2 may
    // hold more than 5 x 2 flits per VC, and a checked run under load
    // must not call that a violation.
    let net = NetworkConfig::new(4, 4, Topology::Torus, 2);
    let depths = depths_checkerboard(&net, 2, 8);
    let iface = IfaceConfig::default();
    let engines: [Box<dyn NocEngine>; 3] = [
        Box::new(NativeNoc::with_depths_and_faults(net, iface, &depths, None)),
        Box::new(SeqNoc::with_depths_and_faults(net, iface, &depths, None)),
        Box::new(CompiledNoc::with_depths_and_faults(
            net, iface, &depths, None,
        )),
    ];
    let rc = RunConfig::new()
        .warmup(200)
        .measure(400)
        .drain(200)
        .period(64)
        .check(true);
    for mut engine in engines {
        let name = engine.name();
        for (node, &d) in depths.iter().enumerate() {
            assert_eq!(engine.queue_depth(node), d, "{name} node {node}");
        }
        let report =
            run_fig1_point(engine.as_mut(), 0.3, 3, &rc).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(report.invariant_checks > 0, "{name}: the run was audited");
        assert!(report.throughput.delivered_flits > 0, "{name}");
    }
}
