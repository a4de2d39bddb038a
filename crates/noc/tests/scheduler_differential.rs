//! End-to-end differential: the sequential NoC engine must produce the
//! same simulation under the incremental worklist scheduler as under the
//! naive full-rescan scheduler — identical latency statistics, traffic
//! volumes and delta-cycle counts for a real routed workload.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use noc::{run_fig1_point, RunConfig, SeqNoc};
use noc_types::{NetworkConfig, Topology};
use seqsim::Scheduling;
use vc_router::IfaceConfig;

#[test]
fn worklist_and_naive_schedulers_agree_on_a_loaded_network() {
    let cfg = NetworkConfig::new(4, 4, Topology::Torus, 2);
    let rc = RunConfig {
        warmup: 300,
        measure: 1_500,
        drain: 800,
        period: 256,
        backlog_limit: 1 << 20,
        obs: None,
        check: false,
        ..RunConfig::default()
    };
    let mut reports = Vec::new();
    for scheduling in [Scheduling::HbrRoundRobin, Scheduling::HbrRoundRobinNaive] {
        let mut e = SeqNoc::new(cfg, IfaceConfig::default());
        e.engine_mut().set_scheduling(scheduling);
        let r = run_fig1_point(&mut e, 0.10, 7, &rc).expect("run failed");
        assert!(!r.saturated);
        reports.push(r);
    }
    let (a, b) = (&reports[0], &reports[1]);
    assert_eq!(a.delta, b.delta, "delta-cycle accounting diverged");
    assert_eq!(a.gt.count, b.gt.count);
    assert_eq!(a.gt.mean.to_bits(), b.gt.mean.to_bits());
    assert_eq!(a.gt.max, b.gt.max);
    assert_eq!(a.be.count, b.be.count);
    assert_eq!(a.be.mean.to_bits(), b.be.mean.to_bits());
    assert_eq!(a.throughput.delivered_flits, b.throughput.delivered_flits);
    assert_eq!(
        a.throughput.delivered_packets,
        b.throughput.delivered_packets
    );
    assert_eq!(a.unmatched, b.unmatched);
}
