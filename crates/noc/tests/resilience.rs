//! Resilience suite: durable checkpoints and kill-and-resume
//! bit-identity.
//!
//! The load-bearing property throughout is *bit-identity*: a campaign
//! resumed from a checkpoint — the newest cut, or an older one when the
//! run was killed before a later cut landed or that cut is corrupt —
//! must finish with exactly the statistics an uninterrupted run
//! produces, down to the float bits of every latency mean.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use noc::{
    ckpt, run_fig1_point, CampaignCkpt, CompiledNoc, EngineKind, NocEngine, ObsConfig, RunConfig,
    RunReport, SeqNoc, SimBuilder, SimError,
};
use noc_types::{NetworkConfig, Topology};
use std::path::PathBuf;
use std::sync::Arc;
use vc_router::IfaceConfig;

const LOAD: f64 = 0.10;
const SEED: u64 = 77;

fn net() -> NetworkConfig {
    NetworkConfig::new(4, 4, Topology::Torus, 2)
}

/// Short campaign: 1000 total cycles in periods of 128, checkpoint
/// cadence 256 → cuts at cycles 256, 512 and 768.
fn rc() -> RunConfig {
    RunConfig::new()
        .warmup(100)
        .measure(600)
        .drain(300)
        .period(128)
        .backlog_limit(1 << 16)
}

/// A scratch directory unique to this test, wiped before use.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("socsim-resilience-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every deterministic field of two reports, asserted bit-equal.
/// Wall-clock, phase profile and checkpoint bookkeeping are excluded —
/// they legitimately differ between an interrupted and a clean run.
fn assert_bit_identical(ctx: &str, a: &RunReport, b: &RunReport) {
    assert_eq!(a.cycles, b.cycles, "{ctx}: cycles");
    assert_eq!(a.saturated, b.saturated, "{ctx}: saturated");
    assert_eq!(a.unmatched, b.unmatched, "{ctx}: unmatched");
    assert_eq!(a.fault_anomalies, b.fault_anomalies, "{ctx}: anomalies");
    assert_eq!(
        a.throughput.offered_flits, b.throughput.offered_flits,
        "{ctx}: offered flits"
    );
    assert_eq!(
        a.throughput.injected_flits, b.throughput.injected_flits,
        "{ctx}: injected flits"
    );
    assert_eq!(
        a.throughput.delivered_flits, b.throughput.delivered_flits,
        "{ctx}: delivered flits"
    );
    assert_eq!(
        a.throughput.delivered_packets, b.throughput.delivered_packets,
        "{ctx}: delivered packets"
    );
    for (kind, x, y) in [
        ("gt", &a.gt, &b.gt),
        ("be", &a.be, &b.be),
        ("access", &a.access, &b.access),
    ] {
        assert_eq!(x.count, y.count, "{ctx}: {kind} count");
        assert_eq!(x.max, y.max, "{ctx}: {kind} max");
        assert_eq!(x.mean.to_bits(), y.mean.to_bits(), "{ctx}: {kind} mean");
        assert_eq!(x.p99, y.p99, "{ctx}: {kind} p99");
    }
    assert_eq!(a.delta, b.delta, "{ctx}: delta stats");
}

/// Scalar engines under test, freshly built per call.
fn scalar_engines() -> Vec<(&'static str, Box<dyn NocEngine>)> {
    vec![
        (
            "seqsim",
            Box::new(SeqNoc::new(net(), IfaceConfig::default())) as Box<dyn NocEngine>,
        ),
        (
            "seqsim-compiled",
            Box::new(CompiledNoc::new(net(), IfaceConfig::default())),
        ),
    ]
}

#[test]
fn scalar_resume_from_checkpoint_is_bit_identical() {
    for (name, mut engine) in scalar_engines() {
        let dir = scratch(&format!("scalar-{name}"));
        let rc_ck = rc().checkpoint_every(256, &dir);
        let baseline = run_fig1_point(engine.as_mut(), LOAD, SEED, &rc_ck).expect("baseline");
        assert_eq!(
            baseline.checkpoints_written, 3,
            "{name}: cuts at 256/512/768"
        );
        assert!(
            baseline.resumed_at.is_none(),
            "{name}: baseline starts fresh"
        );

        // A fresh engine resuming from the newest cut (cycle 768) must
        // land on the identical final state and statistics.
        let resume = |ctx: &str| {
            let (_, mut fresh) = scalar_engines()
                .into_iter()
                .find(|(n, _)| *n == name)
                .unwrap();
            let resumed = run_fig1_point(fresh.as_mut(), LOAD, SEED, &rc_ck.clone().resume(true))
                .expect("resumed run");
            assert_bit_identical(&format!("{name} {ctx}"), &resumed, &baseline);
            assert_eq!(
                engine.save_state(),
                fresh.save_state(),
                "{name} {ctx}: engine state bytes diverge after resume"
            );
            resumed.resumed_at
        };
        assert_eq!(resume("newest"), Some(768), "{name}: resumes at newest cut");

        // A run killed between the 256 and 512 cuts leaves only the
        // oldest file: resuming from it must still land bit-identically.
        // (The resume above re-cut nothing: 768 was its start.)
        for cut in [512u64, 768] {
            std::fs::remove_file(dir.join(format!("ckpt-{cut:012}.bin"))).expect("cut on disk");
        }
        assert_eq!(resume("earlier cut"), Some(256), "{name}: resumes at 256");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn faults_among_sleeping_routers_replay_bit_identically() {
    // The compiled engine puts idle routers to sleep; a fault plan must
    // still replay register for register. Node 5 stalls while it and its
    // neighbours sleep (its room outputs drop and come back: the
    // neighbours are woken by the changed links), and node 10 reads a
    // payload-flipping link that is idle most of the run (idle words
    // pass a flip unchanged — no phantom flit — and a router with any
    // fault never sleeps, so the flits that do pass are hit on time).
    use noc_types::fault::{FaultPlan, LinkFault, LinkFaultKind, Window};
    use noc_types::{Flit, FlitKind, NodeId};
    use vc_router::StimEntry;
    let cfg = net();
    let n = cfg.num_nodes();
    let mut plan = FaultPlan::new(n, 9);
    plan.add_stall(5, Window::new(300, 340));
    for dir in 0..4 {
        plan.add_link_fault(
            10,
            dir,
            LinkFault {
                window: Window::new(1, 2_000),
                kind: LinkFaultKind::BitFlip { mask: 0x0F0F },
            },
        );
    }
    let plan = Arc::new(plan);
    let depths = vec![cfg.router.queue_depth; n];
    let iface = IfaceConfig::default();
    let mut seq = SeqNoc::with_depths_and_faults(cfg, iface, &depths, Some(plan.clone()));
    let mut faulty = CompiledNoc::with_depths_and_faults(cfg, iface, &depths, Some(plan));
    let mut clean = CompiledNoc::new(cfg, IfaceConfig::default());
    // Three-flit packets from every node to nodes 5 and 10, in three
    // volleys: long before the stall, inside it, long after it.
    for (volley, ts) in [10u64, 310, 600].into_iter().enumerate() {
        for src in 0..n {
            let dest = cfg.shape.coord(NodeId([5, 10][(src + volley) % 2]));
            for (i, flit) in [
                Flit::head(dest, src as u8),
                Flit {
                    kind: FlitKind::Body,
                    payload: 0x1111 * volley as u16,
                },
                Flit {
                    kind: FlitKind::Tail,
                    payload: src as u16,
                },
            ]
            .into_iter()
            .enumerate()
            {
                let e = StimEntry {
                    ts: ts + i as u64,
                    flit,
                };
                for engine in [&mut seq as &mut dyn NocEngine, &mut faulty, &mut clean] {
                    assert!(engine.push_stim(src, 1, e));
                }
            }
        }
    }
    for cycle in 0..900 {
        seq.step();
        faulty.step();
        for node in 0..n {
            assert_eq!(
                seq.peek_regs(node),
                faulty.peek_regs(node),
                "cycle {cycle} node {node}"
            );
        }
    }
    clean.run(900);
    let mut bites = false;
    for node in 0..n {
        let got = faulty.drain_delivered(node);
        assert_eq!(seq.drain_delivered(node), got, "node {node}");
        assert_eq!(seq.drain_access(node), faulty.drain_access(node));
        bites |= clean.drain_delivered(node) != got;
    }
    assert!(bites, "the plan had no observable effect");
    let g = faulty.engine().gating_stats();
    assert!(g.skipped_frac() > 0.5, "most of the run is idle: {g:?}");
    assert!(
        g.ops_executed >= 2 * 3 * 900,
        "the two faulty routers never sleep: {g:?}"
    );
}

#[test]
fn corrupt_checkpoints_fall_back_then_start_fresh() {
    let dir = scratch("corrupt");
    let rc_ck = rc().checkpoint_every(256, &dir);
    let mut engine = CompiledNoc::new(net(), IfaceConfig::default());
    let baseline = run_fig1_point(&mut engine, LOAD, SEED, &rc_ck).expect("baseline");

    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "bin"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 3);

    // Truncate the newest file: resume skips it and falls back to the
    // previous cut, still bit-identical.
    let newest = files.last().unwrap();
    let data = std::fs::read(newest).unwrap();
    std::fs::write(newest, &data[..data.len() / 2]).unwrap();
    let mut fresh = CompiledNoc::new(net(), IfaceConfig::default());
    let resumed =
        run_fig1_point(&mut fresh, LOAD, SEED, &rc_ck.clone().resume(true)).expect("fallback");
    assert_eq!(
        resumed.resumed_at,
        Some(512),
        "falls back past the truncated cut"
    );
    assert_bit_identical("fallback", &resumed, &baseline);

    // Bit-flip every file (the fallback run re-wrote a valid cut at 768,
    // so re-list first): resume finds nothing valid and starts from
    // cycle 0 — lost progress, never a wrong answer.
    let files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "bin"))
        .collect();
    for f in &files {
        let mut data = std::fs::read(f).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0x10;
        std::fs::write(f, &data).unwrap();
    }
    let mut fresh = CompiledNoc::new(net(), IfaceConfig::default());
    let restarted =
        run_fig1_point(&mut fresh, LOAD, SEED, &rc_ck.clone().resume(true)).expect("fresh start");
    assert!(
        restarted.resumed_at.is_none(),
        "all files rejected → fresh start"
    );
    assert_bit_identical("fresh-start", &restarted, &baseline);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn engine_state_rejects_truncation_flips_and_foreign_engines() {
    for (name, mut engine) in scalar_engines() {
        // Populate real state first.
        run_fig1_point(engine.as_mut(), LOAD, SEED, &rc()).expect("run");
        let state = engine.save_state().expect("engine supports checkpoints");

        let (_, mut other) = scalar_engines()
            .into_iter()
            .find(|(n, _)| *n == name)
            .unwrap();
        other.load_state(&state).expect("clean restore");
        assert_eq!(other.save_state().unwrap(), state, "{name}: round trip");

        assert!(
            other.load_state(&state[..state.len() - 4]).is_err(),
            "{name}: truncated"
        );
        let mut flipped = state.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        assert!(other.load_state(&flipped).is_err(), "{name}: bit flip");
    }

    // Engine-distinct wire versions: a seq snapshot never restores into
    // the compiled engine.
    let mut seq = SeqNoc::new(net(), IfaceConfig::default());
    run_fig1_point(&mut seq, LOAD, SEED, &rc()).expect("seq run");
    let seq_state = NocEngine::save_state(&seq).unwrap();
    let mut compiled = CompiledNoc::new(net(), IfaceConfig::default());
    assert!(
        NocEngine::load_state(&mut compiled, &seq_state).is_err(),
        "cross-engine restore must fail"
    );

    // A checkpoint restores only into an identically built network:
    // shape, topology, queue depths and host rings all have to match,
    // and a refused restore leaves the target stepping as built.
    let torus = |w, h, depth| NetworkConfig::new(w, h, Topology::Torus, depth);
    let rings = IfaceConfig::default();
    let short = IfaceConfig {
        stim_cap: 64,
        ..rings
    };
    for (from, to) in [
        ((torus(3, 3, 2), rings), (torus(4, 4, 2), rings)),
        ((torus(4, 4, 2), rings), (torus(3, 3, 2), rings)),
        ((torus(4, 4, 2), rings), (torus(2, 8, 2), rings)),
        ((torus(3, 3, 2), rings), (torus(3, 3, 4), rings)),
        (
            (torus(3, 3, 2), rings),
            (NetworkConfig::new(3, 3, Topology::Mesh, 2), rings),
        ),
        ((torus(3, 3, 2), rings), (torus(3, 3, 2), short)),
    ] {
        for kind in [EngineKind::Seq, EngineKind::SeqCompiled] {
            let build = |(cfg, iface): (NetworkConfig, IfaceConfig)| {
                SimBuilder::new(cfg)
                    .engine(kind)
                    .iface(iface)
                    .try_build()
                    .unwrap()
            };
            let mut source = build(from);
            source.run(10);
            let state = source.save_state().unwrap();
            let (mut target, mut fresh) = (build(to), build(to));
            let got = target.load_state(&state);
            assert!(
                matches!(got, Err(SimError::Config(_))),
                "{kind:?} {from:?} -> {to:?}: {got:?}"
            );
            target.run(20);
            fresh.run(20);
            assert_eq!(
                target.save_state(),
                fresh.save_state(),
                "{kind:?} {from:?} -> {to:?}: the refused restore changed the target"
            );
        }
    }

    // Files left behind by the retired lane-batched engine: its state
    // container (wire version "BT" 1) is a typed error for both
    // engines, and neither that container nor a well-formed campaign
    // file of a batched campaign wrapping it is ever resumed from —
    // both are skipped and counted.
    let retired = seqsim::wire::seal(0x4254_0001, &seq_state[seqsim::wire::HEADER_LEN..]);
    for (name, mut engine) in scalar_engines() {
        assert!(
            matches!(engine.load_state(&retired), Err(SimError::Config(_))),
            "{name}: retired wire version"
        );
    }
    let dir = scratch("retired");
    let campaign = CampaignCkpt {
        fingerprint: ckpt::fingerprint("seqsim-batched|retired campaign|l2|t0"),
        t0: 512,
        saturated: false,
        delta_reset_done: true,
        engine_state: retired.clone(),
        host_state: Vec::new(),
    };
    let path = ckpt::write_checkpoint(&dir, 3, &campaign).expect("write");
    std::fs::write(path.with_file_name("ckpt-000000000768.bin"), &retired).expect("write");
    let (found, rejected) = ckpt::latest_valid(&dir, ckpt::fingerprint("a scalar campaign"));
    assert!(found.is_none());
    assert_eq!(rejected, 2);
    let obs = ObsConfig::new(0);
    let rc_resume = rc()
        .obs(obs.clone())
        .checkpoint_every(256, &dir)
        .resume(true);
    let fresh = run_fig1_point(&mut compiled, LOAD, SEED, &rc_resume).expect("fresh start");
    assert!(fresh.resumed_at.is_none(), "nothing valid to resume from");
    assert_eq!(
        obs.registry
            .counter(simtrace::recover::CHECKPOINTS_REJECTED, &[])
            .get(),
        2
    );
    let _ = std::fs::remove_dir_all(&dir);
}
