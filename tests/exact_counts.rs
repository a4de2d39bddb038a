//! The benchmark's exact-repeat counts, pinned in tier-1: the five
//! benchmark networks (6×6 fig-1, idle, heavy and checked, and the
//! 16×16 maximum), run at a short length through `Session::run` exactly
//! as the campaign benchmark builds them, must deliver the same flits
//! and spend the same delta cycles as when these values were recorded.
//! A speed change must leave every count here alone; a change that moves
//! one on purpose re-pins it and says so.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use noc::{EngineKind, RunConfig, RunReport};
use noc_types::{NetworkConfig, Topology};
use traffic::{BeConfig, GtAllocator, StimuliGenerator, TrafficConfig};

/// One benchmark network and the counts it is pinned to.
struct Pinned {
    name: &'static str,
    side: u8,
    gt: bool,
    be_load: f64,
    check: bool,
    /// Measured cycles (warm-up, drain and period are shared).
    measure: u64,
    /// Flits delivered in the measurement window, on every engine.
    delivered_flits: u64,
    /// `seqsim`'s delta cycles and re-evaluations in the window.
    seqsim_deltas: u64,
    re_evaluations: u64,
    /// `seqsim-compiled`'s delta cycles in the window.
    compiled_deltas: u64,
}

const SEED: u64 = 7;
const WARMUP: u64 = 256;
const DRAIN: u64 = 256;
const PERIOD: u64 = 128;

fn run(p: &Pinned, kind: EngineKind) -> RunReport {
    let net = NetworkConfig::new(p.side, p.side, Topology::Torus, 2);
    let rc = RunConfig::new()
        .warmup(WARMUP)
        .measure(p.measure)
        .drain(DRAIN)
        .period(PERIOD)
        .check(p.check);
    let mut session = soc_sim::sim(net)
        .engine(kind)
        .run_config(rc)
        .session()
        .expect("engine builds");
    let gt_streams = if p.gt {
        GtAllocator::new(net).auto_streams((2, 1), 2048, 128)
    } else {
        Vec::new()
    };
    let mut gen = StimuliGenerator::new(TrafficConfig {
        net,
        be: BeConfig::fig1(p.be_load),
        gt_streams,
        seed: SEED,
    });
    session.run(&mut gen).expect("campaign runs").clone()
}

fn assert_pinned(p: &Pinned) {
    let native = run(p, EngineKind::Native);
    let seqsim = run(p, EngineKind::Seq);
    let compiled = run(p, EngineKind::SeqCompiled);
    let d = seqsim.delta.as_ref().expect("seqsim reports deltas");
    let c = compiled
        .delta
        .as_ref()
        .expect("seqsim-compiled reports deltas");
    for r in [&native, &seqsim, &compiled] {
        assert_eq!(
            r.throughput.delivered_flits, p.delivered_flits,
            "{}: {} delivered flits",
            p.name, r.engine
        );
    }
    assert_eq!(d.delta_cycles, p.seqsim_deltas, "{}: seqsim deltas", p.name);
    assert_eq!(
        d.re_evaluations, p.re_evaluations,
        "{}: re-evaluations",
        p.name
    );
    assert_eq!(
        c.delta_cycles, p.compiled_deltas,
        "{}: compiled deltas",
        p.name
    );
    assert_eq!(
        d.system_cycles, c.system_cycles,
        "{}: window length",
        p.name
    );
}

#[test]
fn fig1_6x6_counts_are_pinned() {
    assert_pinned(&Pinned {
        name: "fig1_6x6",
        side: 6,
        gt: true,
        be_load: 0.10,
        check: false,
        measure: 1_024,
        delivered_flits: 6661,
        seqsim_deltas: 60_466,
        re_evaluations: 14_386,
        compiled_deltas: 46_080,
    });
}

#[test]
fn idle_6x6_counts_are_pinned() {
    assert_pinned(&Pinned {
        name: "idle_6x6",
        side: 6,
        gt: false,
        be_load: 0.0,
        check: false,
        measure: 1_024,
        delivered_flits: 0,
        seqsim_deltas: 46_080,
        re_evaluations: 0,
        compiled_deltas: 46_080,
    });
}

#[test]
fn heavy_6x6_counts_are_pinned() {
    assert_pinned(&Pinned {
        name: "heavy_6x6",
        side: 6,
        gt: true,
        be_load: 0.20,
        check: false,
        measure: 1_024,
        delivered_flits: 10_246,
        seqsim_deltas: 65_402,
        re_evaluations: 19_322,
        compiled_deltas: 46_080,
    });
}

#[test]
fn max_16x16_counts_are_pinned() {
    assert_pinned(&Pinned {
        name: "max_16x16",
        side: 16,
        gt: true,
        be_load: 0.04,
        check: false,
        measure: 256,
        delivered_flits: 6959,
        seqsim_deltas: 160_006,
        re_evaluations: 28_934,
        compiled_deltas: 131_072,
    });
}

#[test]
fn checked_6x6_counts_are_pinned() {
    assert_pinned(&Pinned {
        name: "checked_6x6",
        side: 6,
        gt: true,
        be_load: 0.10,
        check: true,
        measure: 512,
        delivered_flits: 3308,
        seqsim_deltas: 35_132,
        re_evaluations: 7484,
        compiled_deltas: 27_648,
    });
}
