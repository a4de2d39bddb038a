//! Differential testing across engines.
//!
//! "Bit and cycle accurate" is the paper's headline property: the FPGA
//! simulator must behave exactly like the RTL. Here every backend must
//! produce, for identical seeded traffic, the identical sequence of
//! delivered-output records (flit bits, VC, delivery cycle) at every node,
//! and the identical access-delay log. A single flipped bit or one cycle
//! of skew anywhere fails the comparison.

use crate::engine::NocEngine;
use crate::fault::InjectApplier;
use noc_types::NUM_VCS;
use std::collections::VecDeque;
use traffic::{StimuliGenerator, TrafficConfig};
use vc_router::{AccEntry, OutEntry, StimEntry};

/// The observable behaviour of one engine run: per-node delivered records
/// and per-node access logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Delivered-output records per node, in delivery order.
    pub delivered: Vec<Vec<OutEntry>>,
    /// Access-delay records per node, in injection order.
    pub access: Vec<Vec<AccEntry>>,
    /// Flits still undelivered in host backlog at the end (same for all
    /// engines when they agree).
    pub backlog_left: usize,
}

/// Run `engine` under `tcfg`'s traffic for `cycles` cycles (loading every
/// `period`) and record its trace.
pub fn collect_trace(
    engine: &mut dyn NocEngine,
    tcfg: &TrafficConfig,
    cycles: u64,
    period: u64,
) -> Trace {
    let n = engine.config().num_nodes();
    let mut gen = StimuliGenerator::new(tcfg.clone());
    // Injection faults are applied host-side at the stimuli boundary, so
    // every engine running the same plan sees the identical post-fault
    // flit streams (the plan decides per packet ordinal, not per batch).
    let mut inject = engine
        .fault_plan()
        .and_then(|p| InjectApplier::from_plan(p, n));
    let mut backlog: Vec<[VecDeque<StimEntry>; NUM_VCS]> = (0..n)
        .map(|_| core::array::from_fn(|_| VecDeque::new()))
        .collect();
    let mut trace = Trace {
        delivered: vec![Vec::new(); n],
        access: vec![Vec::new(); n],
        backlog_left: 0,
    };
    let mut t0 = 0u64;
    while t0 < cycles {
        let t1 = (t0 + period).min(cycles);
        let w = gen.generate(t0, t1);
        for (node, rings) in w.stim.into_iter().enumerate() {
            for (vc, entries) in rings.into_iter().enumerate() {
                let entries = match inject.as_mut() {
                    Some(ap) => ap.filter(node, vc, entries),
                    None => entries,
                };
                backlog[node][vc].extend(entries);
            }
        }
        push_window(engine, &mut backlog, usize::MAX);
        engine.run(t1 - t0);
        for node in 0..n {
            trace.delivered[node].extend(engine.drain_delivered(node));
            trace.access[node].extend(engine.drain_access(node));
        }
        t0 = t1;
    }
    trace.backlog_left = backlog.iter().flat_map(|r| r.iter().map(|q| q.len())).sum();
    trace
}

/// Push backlogged stimuli into the engine's rings in (node, vc) order,
/// at most `limit` flits per ring, stopping early on a full ring.
/// Returns the number of flits accepted — the figure the invariant
/// checker's conservation ledger is built on.
pub fn push_window(
    engine: &mut dyn NocEngine,
    backlog: &mut [[VecDeque<StimEntry>; NUM_VCS]],
    limit: usize,
) -> u64 {
    let mut pushed = 0u64;
    for (node, rings) in backlog.iter_mut().enumerate() {
        for (vc, ring) in rings.iter_mut().enumerate() {
            let mut sent = 0usize;
            while sent < limit {
                let Some(&e) = ring.front() else { break };
                if engine.push_stim(node, vc, e) {
                    ring.pop_front();
                    sent += 1;
                    pushed += 1;
                } else {
                    break;
                }
            }
        }
    }
    pushed
}

/// Assert two traces are bit-identical, with a localised failure message.
pub fn assert_traces_equal(a_name: &str, a: &Trace, b_name: &str, b: &Trace) {
    assert_eq!(
        a.delivered.len(),
        b.delivered.len(),
        "node count differs between {a_name} and {b_name}"
    );
    for node in 0..a.delivered.len() {
        let (da, db) = (&a.delivered[node], &b.delivered[node]);
        let common = da.len().min(db.len());
        for i in 0..common {
            assert_eq!(
                da[i], db[i],
                "node {node}, delivery #{i}: {a_name}={:?} vs {b_name}={:?}",
                da[i], db[i]
            );
        }
        assert_eq!(
            da.len(),
            db.len(),
            "node {node}: {a_name} delivered {} records, {b_name} {}",
            da.len(),
            db.len()
        );
        let (aa, ab) = (&a.access[node], &b.access[node]);
        assert_eq!(
            aa, ab,
            "node {node}: access logs differ between {a_name} and {b_name}"
        );
    }
    assert_eq!(
        a.backlog_left, b.backlog_left,
        "backlog differs between {a_name} and {b_name}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::NativeNoc;
    use crate::seq::SeqNoc;
    use noc_types::{NetworkConfig, Topology};
    use seqsim::Scheduling;
    use traffic::{BeConfig, GtAllocator};
    use vc_router::IfaceConfig;

    fn tcfg(net: NetworkConfig, load: f64, with_gt: bool, seed: u64) -> TrafficConfig {
        let gt_streams = if with_gt {
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

    #[test]
    fn native_and_seqsim_agree_bit_for_bit() {
        let net = NetworkConfig::new(3, 3, Topology::Torus, 2);
        let t = tcfg(net, 0.10, true, 1234);
        let mut native = NativeNoc::new(net, IfaceConfig::default());
        let mut seq = SeqNoc::new(net, IfaceConfig::default());
        let a = collect_trace(&mut native, &t, 3_000, 256);
        let b = collect_trace(&mut seq, &t, 3_000, 256);
        assert!(
            a.delivered.iter().any(|d| !d.is_empty()),
            "no traffic delivered"
        );
        assert_traces_equal("native", &a, "seqsim", &b);
    }

    #[test]
    fn seqsim_full_passes_agrees_with_hbr() {
        let net = NetworkConfig::new(3, 2, Topology::Mesh, 4);
        let t = tcfg(net, 0.15, false, 77);
        let mut hbr = SeqNoc::new(net, IfaceConfig::default());
        let mut full = SeqNoc::new(net, IfaceConfig::default());
        full.engine_mut().set_scheduling(Scheduling::FullPasses);
        let a = collect_trace(&mut hbr, &t, 2_000, 200);
        let b = collect_trace(&mut full, &t, 2_000, 200);
        assert_traces_equal("seqsim-hbr", &a, "seqsim-fullpasses", &b);
        // The HBR scheduler must not be more expensive than full passes.
        assert!(
            hbr.delta_stats().unwrap().delta_cycles <= full.delta_stats().unwrap().delta_cycles
        );
    }

    #[test]
    fn seqsim_is_time_shift_invariant() {
        // Run B idles for exactly one load period, then receives the same
        // traffic shifted by that period (same load boundaries relative to
        // the timestamps). Every delivery must shift by exactly the
        // period — this also rotates the dynamic scheduler's round-robin
        // start position through many values, confirming the evaluation
        // order never leaks into behaviour.
        let net = NetworkConfig::new(3, 3, Topology::Torus, 2);
        let t = tcfg(net, 0.2, false, 5);
        let period = 128u64;
        let mut a_eng = SeqNoc::new(net, IfaceConfig::default());
        let a = collect_trace(&mut a_eng, &t, 1_500, period);

        let n = net.num_nodes();
        let mut b = SeqNoc::new(net, IfaceConfig::default());
        b.run(period); // idle leading period
        let mut gen = StimuliGenerator::new(t.clone());
        let mut t0 = 0u64;
        let mut delivered: Vec<Vec<vc_router::OutEntry>> = vec![Vec::new(); n];
        while t0 < 1_500 {
            let t1 = (t0 + period).min(1_500);
            let w = gen.generate(t0, t1);
            for (node, rings) in w.stim.into_iter().enumerate() {
                for (vc, entries) in rings.into_iter().enumerate() {
                    for mut e in entries {
                        e.ts += period;
                        assert!(b.push_stim(node, vc, e), "ring full in shifted run");
                    }
                }
            }
            b.run(t1 - t0);
            for (node, d) in delivered.iter_mut().enumerate() {
                d.extend(b.drain_delivered(node));
            }
            t0 = t1;
        }
        for node in 0..n {
            let want = &a.delivered[node];
            let got = &delivered[node];
            assert_eq!(got.len(), want.len(), "node {node} delivery count");
            for (g, w) in got.iter().zip(want.iter()) {
                assert_eq!(g.flit, w.flit, "node {node}");
                assert_eq!(g.vc, w.vc, "node {node}");
                assert_eq!(g.cycle, w.cycle + period, "node {node}");
            }
        }
    }
}
