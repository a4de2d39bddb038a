//! End-to-end observability: an instrumented five-phase run over the
//! sequential engine must yield (a) a valid Chrome trace-event document
//! with spans for all five runner phases plus per-cycle kernel events,
//! and (b) a valid metrics snapshot carrying delta-cycle counters,
//! re-evaluation counts and per-VC occupancy gauges.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use noc::{EngineKind, ObsConfig, RunConfig, SimBuilder};
use noc_types::{NetworkConfig, Topology, NUM_VCS};
use simtrace::{json, lbl, Registry, Tracer};
use traffic::{BeConfig, StimuliGenerator, TrafficConfig};

/// 700 cycles in periods of 128 (the last one 60 long), sampled every
/// 32 cycles; `check` switches to the per-cycle stepped path.
fn instrumented_mesh_run(check: bool) -> (ObsConfig, noc::RunReport) {
    let cfg = NetworkConfig::new(4, 4, Topology::Mesh, 2);
    let instr = ObsConfig::with(Registry::new(), Tracer::new(), 32);
    let rc = RunConfig::new()
        .warmup(100)
        .measure(400)
        .drain(200)
        .period(128)
        .backlog_limit(1 << 16)
        .check(check)
        .obs(instr.clone());
    let mut session = SimBuilder::new(cfg)
        .engine(EngineKind::Seq)
        .run_config(rc)
        .session()
        .expect("seq engine builds");
    let tcfg = TrafficConfig {
        net: cfg,
        be: BeConfig::fig1(0.10),
        gt_streams: Vec::new(),
        seed: 23,
    };
    let mut gen = StimuliGenerator::new(tcfg);
    let report = session.run(&mut gen).expect("run failed").clone();
    (instr, report)
}

#[test]
fn trace_covers_all_phases_and_kernel_cycles() {
    let (instr, report) = instrumented_mesh_run(false);
    let chrome = instr.tracer.to_chrome_json();
    json::validate(&chrome).expect("chrome trace must be valid JSON");

    let names = instr.tracer.event_names();
    for phase in [
        "phase.generate",
        "phase.load",
        "phase.simulate",
        "phase.retrieve",
        "phase.analyse",
    ] {
        assert!(names.contains(&phase), "missing span {phase}");
    }
    let cycles = names.iter().filter(|n| **n == "kernel.cycle").count() as u64;
    assert_eq!(
        cycles, report.cycles,
        "one kernel.cycle instant per simulated cycle"
    );
    assert!(
        names.contains(&"noc.occupancy"),
        "occupancy counter track missing"
    );
    // Every JSONL line is independently valid.
    for line in instr.tracer.to_jsonl().lines() {
        json::validate(line).expect("JSONL line must be valid JSON");
    }
}

#[test]
fn metrics_snapshot_has_kernel_and_noc_series() {
    let (instr, report) = instrumented_mesh_run(false);
    let snap = report
        .metrics
        .as_ref()
        .expect("instrumented run has metrics");
    json::validate(snap).expect("metrics snapshot must be valid JSON");

    let r = &instr.registry;
    let eng = [("engine", lbl("seqsim"))];
    let cycles = r.counter_value("kernel.cycles", &eng).unwrap();
    assert_eq!(cycles, report.cycles);
    let evals = r.counter_value("kernel.evals", &eng).unwrap();
    assert!(
        evals >= cycles * 16,
        "at least one eval per block per cycle"
    );
    let re = r.counter_value("kernel.re_evals", &eng).unwrap();
    let d = report.delta.as_ref().unwrap();
    // Counters cover the whole run; DeltaStats only the measurement
    // window (they are reset after warm-up).
    assert!(re >= d.re_evaluations);
    assert!(
        r.counter_value("kernel.hbr_retries", &eng).unwrap() > 0,
        "a loaded mesh forces HBR re-evaluations"
    );

    // Per-VC occupancy gauges exist for every node and VC.
    for node in 0..16usize {
        for vc in 0..NUM_VCS {
            assert!(
                r.gauge_value("noc.vc_occupancy", &[("node", lbl(node)), ("vc", lbl(vc))])
                    .is_some(),
                "missing occupancy gauge node {node} vc {vc}"
            );
        }
    }
    assert!(snap.contains("\"noc.vc_occupancy\""));
    assert!(snap.contains("\"kernel.re_evals\""));
    assert!(snap.contains("\"run.delta.system_cycles\""));

    // Sampler cadence, pinned for both simulate-phase paths. Samples
    // fall every 32 cycles counted from each period's start. The
    // period-strided path also samples at each period's end: 4 per full
    // period, 2 in the 60-cycle tail. The stepped (checked) path does not:
    // 1 in the tail.
    assert_eq!(report.cycles, 700);
    assert_eq!(r.counter_value("noc.samples", &[]), Some(22));
    let (checked, report) = instrumented_mesh_run(true);
    assert_eq!(report.cycles, 700);
    assert!(report.invariant_checks > 0);
    assert_eq!(checked.registry.counter_value("noc.samples", &[]), Some(21));
}

#[test]
fn plain_run_is_unobserved() {
    let cfg = NetworkConfig::new(3, 3, Topology::Torus, 2);
    let rc = RunConfig::new()
        .warmup(50)
        .measure(200)
        .drain(100)
        .period(128)
        .backlog_limit(1 << 16);
    let mut session = SimBuilder::new(cfg)
        .engine(EngineKind::Seq)
        .run_config(rc)
        .session()
        .expect("seq engine builds");
    let r = session.run_fig1(0.05, 3).expect("run failed");
    assert!(r.metrics.is_none(), "plain runs carry no metrics snapshot");
}
