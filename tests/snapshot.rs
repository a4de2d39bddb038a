//! Checkpoint/restore of the sequential simulator — the paper's platform
//! exposes the complete simulator state (state memory, link memory,
//! buffers, pointers) in the host's address map (§5.1); reading it out
//! and writing it back must resume a bit-identical simulation.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use noc::{CompiledNoc, NocEngine, SeqNoc};
use noc_types::{NetworkConfig, Topology};
use traffic::{BeConfig, StimuliGenerator, TrafficConfig};
use vc_router::{IfaceConfig, OutEntry};

fn load_window<E: NocEngine + ?Sized>(e: &mut E, gen: &mut StimuliGenerator, t0: u64, t1: u64) {
    let w = gen.generate(t0, t1);
    for (node, rings) in w.stim.into_iter().enumerate() {
        for (vc, entries) in rings.into_iter().enumerate() {
            for entry in entries {
                assert!(e.push_stim(node, vc, entry), "ring full");
            }
        }
    }
}

fn drain_all<E: NocEngine + ?Sized>(e: &mut E, n: usize) -> Vec<Vec<OutEntry>> {
    (0..n).map(|node| e.drain_delivered(node)).collect()
}

#[test]
fn restore_resumes_bit_identically() {
    let net = NetworkConfig::new(3, 3, Topology::Torus, 2);
    let t = TrafficConfig {
        net,
        be: BeConfig::fig1(0.2),
        gt_streams: Vec::new(),
        seed: 314,
    };
    let mut e = SeqNoc::new(net, IfaceConfig::default());
    let mut gen = StimuliGenerator::new(t);
    let n = net.num_nodes();

    // Phase 1: run 400 cycles, drain, checkpoint mid-flight (packets are
    // in queues, worms are open).
    load_window(&mut e, &mut gen, 0, 400);
    e.run(400);
    let _ = drain_all(&mut e, n);
    let snap = e.snapshot();
    let gen_snap = gen.clone();

    // Phase 2a: continue 400 cycles, record everything.
    load_window(&mut e, &mut gen, 400, 800);
    e.run(400);
    let first = drain_all(&mut e, n);
    let stats_first = e.delta_stats().unwrap();

    // Phase 2b: rewind and replay.
    e.restore(&snap);
    let mut gen = gen_snap;
    assert_eq!(e.cycle(), 400);
    load_window(&mut e, &mut gen, 400, 800);
    e.run(400);
    let second = drain_all(&mut e, n);
    let stats_second = e.delta_stats().unwrap();

    assert_eq!(first, second, "replay diverged from the original run");
    assert_eq!(
        stats_first.delta_cycles, stats_second.delta_cycles,
        "delta accounting diverged"
    );
}

#[test]
fn compiled_restore_resumes_bit_identically() {
    // Same mid-flight checkpoint discipline as the interpreting engine,
    // on the compiled bytecode kernel: the snapshot packs the arena
    // (links + both state banks) and the side memory, so a restored run
    // must replay bit for bit — including the *raw state words*, not
    // just the delivered streams.
    let net = NetworkConfig::new(3, 3, Topology::Torus, 2);
    let t = TrafficConfig {
        net,
        be: BeConfig::fig1(0.2),
        gt_streams: Vec::new(),
        seed: 314,
    };
    let mut e = CompiledNoc::new(net, IfaceConfig::default());
    let mut gen = StimuliGenerator::new(t);
    let n = net.num_nodes();

    load_window(&mut e, &mut gen, 0, 400);
    e.run(400);
    let _ = drain_all(&mut e, n);
    let snap = e.snapshot();
    let gen_snap = gen.clone();

    load_window(&mut e, &mut gen, 400, 800);
    e.run(400);
    let first = drain_all(&mut e, n);
    let words_first: Vec<Vec<u64>> = (0..n).map(|b| e.engine().peek_state(b)).collect();

    e.restore(&snap);
    let mut gen = gen_snap;
    assert_eq!(e.cycle(), 400);
    load_window(&mut e, &mut gen, 400, 800);
    e.run(400);
    let second = drain_all(&mut e, n);
    let words_second: Vec<Vec<u64>> = (0..n).map(|b| e.engine().peek_state(b)).collect();

    assert_eq!(first, second, "replay diverged from the original run");
    assert_eq!(words_first, words_second, "raw state words diverged");
}

#[test]
fn compiled_snapshot_of_a_sleeping_network_resumes_bit_identically() {
    // The activity gate is not part of a snapshot: one cut while every
    // router sleeps must resume identically in the engine it was taken
    // from (asleep at restore time), in that engine after it has been
    // driven on (busy at restore time), and in a fresh engine (never
    // slept) — and identically to the interpreting engine throughout.
    let net = NetworkConfig::new(3, 3, Topology::Torus, 2);
    let n = net.num_nodes();
    let t = TrafficConfig {
        net,
        be: BeConfig::fig1(0.2),
        gt_streams: Vec::new(),
        seed: 2718,
    };
    let mut seq = SeqNoc::new(net, IfaceConfig::default());
    let mut e = CompiledNoc::new(net, IfaceConfig::default());
    let mut gen_seq = StimuliGenerator::new(t.clone());
    let mut gen = StimuliGenerator::new(t);
    load_window(&mut seq, &mut gen_seq, 0, 100);
    load_window(&mut e, &mut gen, 0, 100);
    seq.run(600);
    e.run(600);
    assert_eq!(drain_all(&mut seq, n), drain_all(&mut e, n));
    let asleep = e.engine().gating_stats();
    e.run(50);
    assert_eq!(
        e.engine().gating_stats().ops_executed,
        asleep.ops_executed,
        "the network must be fully asleep at the cut"
    );
    seq.run(50);
    let bytes = e.save_state().unwrap();
    // Nothing is offered over the cut; traffic resumes at 700.
    let _ = (gen_seq.generate(100, 700), gen.generate(100, 700));
    let gen_snap = gen.clone();

    let resume = |e: &mut CompiledNoc, mut gen: StimuliGenerator| {
        assert_eq!(e.cycle(), 650);
        // Timestamps lie ahead of the cut: timed wakes after a restore.
        load_window(e, &mut gen, 700, 900);
        e.run(400);
        let words: Vec<Vec<u64>> = (0..n).map(|b| e.engine().peek_state(b)).collect();
        (drain_all(e, n), words, e.delta_stats().unwrap())
    };
    e.load_state(&bytes).unwrap();
    let first = resume(&mut e, gen_snap.clone());
    e.load_state(&bytes).unwrap();
    let again = resume(&mut e, gen_snap.clone());
    let mut fresh = CompiledNoc::new(net, IfaceConfig::default());
    fresh.load_state(&bytes).unwrap();
    let in_fresh = resume(&mut fresh, gen_snap);
    assert_eq!(first, again, "restore into the busy engine diverged");
    assert_eq!(first, in_fresh, "restore into a fresh engine diverged");

    load_window(&mut seq, &mut gen_seq, 700, 900);
    seq.run(400);
    assert_eq!(drain_all(&mut seq, n), first.0);
    for b in 0..n {
        assert_eq!(seq.engine().peek_state(b).to_vec(), first.1[b], "block {b}");
    }
}

#[test]
fn compiled_snapshot_matches_interpreting_engine_states() {
    // Checkpoints taken on the two sequential backends at the same
    // cycle under the same traffic must agree word for word — the
    // compiled arena is just a re-laid-out view of the same registers.
    let net = NetworkConfig::new(3, 2, Topology::Mesh, 4);
    let t = TrafficConfig {
        net,
        be: BeConfig::fig1(0.25),
        gt_streams: Vec::new(),
        seed: 77,
    };
    let n = net.num_nodes();
    let mut seq = SeqNoc::new(net, IfaceConfig::default());
    let mut comp = CompiledNoc::new(net, IfaceConfig::default());
    let mut gen_a = StimuliGenerator::new(t.clone());
    let mut gen_b = StimuliGenerator::new(t);
    load_window(&mut seq, &mut gen_a, 0, 300);
    load_window(&mut comp, &mut gen_b, 0, 300);
    seq.run(300);
    comp.run(300);
    for b in 0..n {
        assert_eq!(
            seq.engine().peek_state(b).to_vec(),
            comp.engine().peek_state(b),
            "block {b} raw state words differ across backends"
        );
    }
    assert_eq!(drain_all(&mut seq, n), drain_all(&mut comp, n));
}

#[test]
fn snapshot_is_independent_of_later_mutation() {
    let net = NetworkConfig::new(2, 2, Topology::Torus, 4);
    let mut e = SeqNoc::new(net, IfaceConfig::default());
    let snap0 = e.snapshot();
    // Mutate heavily after the snapshot.
    let t = TrafficConfig {
        net,
        be: BeConfig::fig1(0.4),
        gt_streams: Vec::new(),
        seed: 9,
    };
    let mut gen = StimuliGenerator::new(t);
    load_window(&mut e, &mut gen, 0, 300);
    e.run(300);
    let _ = drain_all(&mut e, 4);
    // Restore to the pristine state: everything reads as reset.
    e.restore(&snap0);
    assert_eq!(e.cycle(), 0);
    for node in 0..4 {
        let regs = e.peek_regs(node);
        assert!(regs.queues.iter().all(|q| q.is_empty()));
        assert_eq!(regs.iface.out_wr, 0);
        assert!(e.drain_delivered(node).is_empty());
    }
}
