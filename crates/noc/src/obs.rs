//! NoC-level observability: queue-occupancy gauges, link-activity
//! counters and backlog watermarks published into a [`simtrace`]
//! registry, plus the [`ObsConfig`] bundle the five-phase runner reads
//! from [`RunConfig::obs`](crate::runner::RunConfig::obs).
//!
//! This is the software equivalent of the paper's monitoring blocks
//! (§5.2: "we can monitor the internals of the simulated NoC [...] log
//! the traffic of a specific link") — but where the FPGA taps wires, we
//! sample the engine's register files ([`NocEngine::vc_occupancy`]) and
//! settled forward links ([`NocEngine::probe_link`]) between simulated
//! cycles.

use crate::engine::NocEngine;
use noc_types::NUM_VCS;
use simtrace::{lbl, Counter, Gauge, Registry, Tracer};

/// Observability configuration for a five-phase run, carried on
/// [`RunConfig::obs`](crate::runner::RunConfig::obs).
///
/// [`ObsConfig::disabled`] (= `obs: None`) is free: the tracer is a
/// no-op handle and no sampling happens. An enabled bundle makes the
/// runner wrap every phase in a tracer span, attach the engine's kernel
/// instrumentation, sample occupancy/link activity every
/// [`sample_every`](Self::sample_every) cycles during the simulate phase
/// and put a metrics snapshot on the
/// [`RunReport`](crate::runner::RunReport). Clones share the underlying
/// registry and tracer, so several runs can publish into one snapshot.
#[derive(Clone)]
pub struct ObsConfig {
    /// Metrics registry the run publishes into.
    pub registry: Registry,
    /// Event tracer (spans for the five phases, kernel events).
    pub tracer: Tracer,
    /// Cycle interval between occupancy/link samples during the simulate
    /// phase (0 disables sampling).
    pub sample_every: u64,
    enabled: bool,
}

impl ObsConfig {
    /// The no-op bundle (what `obs: None` means).
    pub fn disabled() -> Self {
        ObsConfig {
            registry: Registry::new(),
            tracer: Tracer::disabled(),
            sample_every: 0,
            enabled: false,
        }
    }

    /// An enabled bundle with a fresh registry and tracer, sampling the
    /// network every `sample_every` cycles.
    pub fn new(sample_every: u64) -> Self {
        Self::with(Registry::new(), Tracer::new(), sample_every)
    }

    /// An enabled bundle over caller-supplied handles (share one registry
    /// or tracer across several runs).
    pub fn with(registry: Registry, tracer: Tracer, sample_every: u64) -> Self {
        ObsConfig {
            registry,
            tracer,
            sample_every,
            enabled: true,
        }
    }

    /// Does this bundle observe anything at all?
    pub fn enabled(&self) -> bool {
        self.enabled
    }
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

impl std::fmt::Debug for ObsConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsConfig")
            .field("sample_every", &self.sample_every)
            .field("enabled", &self.enabled)
            .finish_non_exhaustive()
    }
}

/// Periodic sampler of a [`NocEngine`]'s observable state.
///
/// Holds pre-registered metric handles so the per-sample work is plain
/// atomic stores: per-node/per-VC occupancy gauges (`noc.vc_occupancy`,
/// whose peaks are the congestion watermarks), per-node/per-direction
/// link-activity counters (`noc.link_active_samples`, fed by
/// [`NocEngine::probe_link`]) and the host backlog gauge
/// (`noc.backlog_flits`, whose peak is the saturation watermark).
pub struct NocObserver {
    /// `occ[node][vc]` — occupancy gauge of one VC summed over a node's
    /// input ports.
    occ: Vec<Vec<Gauge>>,
    /// `link[node][dir]` — samples in which the outgoing link was
    /// carrying a valid flit.
    link: Vec<[Counter; 4]>,
    backlog: Gauge,
    samples: Counter,
    tracer: Tracer,
}

impl NocObserver {
    /// Register all handles for a `nodes`-node network.
    pub fn new(registry: &Registry, tracer: Tracer, nodes: usize) -> Self {
        let occ = (0..nodes)
            .map(|node| {
                (0..NUM_VCS)
                    .map(|vc| {
                        registry.gauge("noc.vc_occupancy", &[("node", lbl(node)), ("vc", lbl(vc))])
                    })
                    .collect()
            })
            .collect();
        let link = (0..nodes)
            .map(|node| {
                core::array::from_fn(|dir| {
                    registry.counter(
                        "noc.link_active_samples",
                        &[("node", lbl(node)), ("dir", lbl(dir))],
                    )
                })
            })
            .collect();
        NocObserver {
            occ,
            link,
            backlog: registry.gauge("noc.backlog_flits", &[]),
            samples: registry.counter("noc.samples", &[]),
            tracer,
        }
    }

    /// Take one sample of the engine (between simulated cycles).
    pub fn sample(&self, engine: &dyn NocEngine) {
        let mut totals = [0u64; NUM_VCS];
        for (node, gauges) in self.occ.iter().enumerate() {
            if let Some(occ) = engine.vc_occupancy(node) {
                for (vc, g) in gauges.iter().enumerate() {
                    g.set(occ[vc] as i64);
                    totals[vc] += occ[vc] as u64;
                }
            }
            for (dir, c) in self.link[node].iter().enumerate() {
                if engine.probe_link(node, dir).is_some() {
                    c.inc();
                }
            }
        }
        self.samples.inc();
        if self.tracer.enabled() {
            self.tracer.counter(
                "noc.occupancy",
                &[
                    ("vc0", totals[0] as f64),
                    ("vc1", totals[1] as f64),
                    ("vc2", totals[2] as f64),
                    ("vc3", totals[3] as f64),
                ],
            );
        }
    }

    /// Record the current host-side backlog (flits queued outside the
    /// device rings); the gauge's peak is the saturation watermark.
    pub fn record_backlog(&self, flits: u64) {
        self.backlog.set(flits as i64);
        if self.tracer.enabled() {
            self.tracer
                .counter("noc.backlog", &[("flits", flits as f64)]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::NativeNoc;
    use noc_types::{Coord, Flit, NetworkConfig, Topology};
    use vc_router::{IfaceConfig, StimEntry};

    #[test]
    fn disabled_bundle_is_inert() {
        let i = ObsConfig::disabled();
        assert!(!i.enabled());
        assert!(!i.tracer.enabled());
        assert_eq!(i.sample_every, 0);
    }

    #[test]
    fn observer_samples_occupancy_and_links() {
        let cfg = NetworkConfig::new(3, 3, Topology::Torus, 4);
        let mut e = NativeNoc::new(cfg, IfaceConfig::default());
        // Far destination keeps flits in flight across several cycles.
        for seq in 0..4u16 {
            let f = Flit::head_tail(Coord::new(2, 1), 0);
            assert!(e.push_stim(0, 0, StimEntry { ts: 0, flit: f }));
            let _ = seq;
        }
        let r = Registry::new();
        let obs = NocObserver::new(&r, Tracer::disabled(), cfg.num_nodes());
        let mut active = 0u64;
        for _ in 0..8 {
            e.step();
            obs.sample(&e);
        }
        for node in 0..cfg.num_nodes() {
            for dir in 0..4 {
                active += r
                    .counter_value(
                        "noc.link_active_samples",
                        &[("node", lbl(node)), ("dir", lbl(dir))],
                    )
                    .unwrap();
            }
        }
        assert!(active > 0, "flits in flight must show as link activity");
        assert_eq!(r.counter_value("noc.samples", &[]), Some(8));
        // Occupancy gauges exist for every node/vc.
        assert!(r
            .gauge_value(
                "noc.vc_occupancy",
                &[("node", lbl(4usize)), ("vc", lbl(0usize))]
            )
            .is_some());
    }

    #[test]
    fn backlog_watermark_is_the_peak() {
        let r = Registry::new();
        let obs = NocObserver::new(&r, Tracer::disabled(), 1);
        obs.record_backlog(3);
        obs.record_backlog(17);
        obs.record_backlog(5);
        assert_eq!(r.gauge_value("noc.backlog_flits", &[]), Some(5));
        let json = r.snapshot_json();
        assert!(json.contains("\"peak\":17"), "snapshot: {json}");
    }
}
