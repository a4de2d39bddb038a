//! The typed session façade: one engine bound to its [`RunConfig`],
//! with typed entry points replacing the free `run(engine, gen, &rc)`
//! function.
//!
//! A [`Session`] is what [`SimBuilder::session`](crate::SimBuilder::session)
//! returns. It owns the engine, remembers the run parameters, runs
//! five-phase campaigns and keeps the last [`RunReport`]. Running N
//! independent simulations is N sessions, fanned out by the caller
//! (`soc_sim::par_map` in `experiments` and the sweep examples):
//!
//! ```
//! use noc::{EngineKind, RunConfig, SimBuilder};
//! use noc_types::{NetworkConfig, Topology};
//!
//! let cfg = NetworkConfig::new(3, 3, Topology::Torus, 4);
//! let mut session = SimBuilder::new(cfg)
//!     .engine(EngineKind::SeqCompiled)
//!     .run_config(RunConfig::new().warmup(100).cycles(400).drain(200))
//!     .session()
//!     .expect("clean network");
//! let report = session.run_fig1(0.05, 7).expect("clean run");
//! assert!(report.throughput.delivered_packets > 0);
//! ```

use crate::engine::NocEngine;
use crate::runner::{fig1_generator, run_impl, RunConfig, RunReport};
use noc_types::NetworkConfig;
use seqsim::SimError;
use traffic::StimuliGenerator;

/// A simulator bound to its run parameters — see the [module
/// docs](self).
pub struct Session {
    engine: Box<dyn NocEngine>,
    rc: RunConfig,
    report: Option<RunReport>,
}

impl Session {
    pub(crate) fn new(engine: Box<dyn NocEngine>, rc: RunConfig) -> Self {
        Session {
            engine,
            rc,
            report: None,
        }
    }

    /// The engine's stable name (bench row id).
    pub fn name(&self) -> &'static str {
        self.engine.name()
    }

    /// The simulated network configuration.
    pub fn config(&self) -> NetworkConfig {
        self.engine.config()
    }

    /// The run parameters used by [`run`](Self::run) /
    /// [`run_fig1`](Self::run_fig1).
    pub fn run_config(&self) -> &RunConfig {
        &self.rc
    }

    /// Replace the run parameters for subsequent runs.
    pub fn set_run_config(&mut self, rc: RunConfig) {
        self.rc = rc;
    }

    /// Drive the session with a stimuli generator through the
    /// five-phase loop and return the report (also kept, see
    /// [`report`](Self::report)).
    ///
    /// # Errors
    ///
    /// Everything the five-phase loop reports (engine failures,
    /// delivery-protocol and invariant violations).
    pub fn run(&mut self, gen: &mut StimuliGenerator) -> Result<&RunReport, SimError> {
        let report = run_impl(self.engine.as_mut(), gen, &self.rc)?;
        Ok(self.report.insert(report))
    }

    /// Run the paper's Fig 1 workload at one BE load point, exactly
    /// like [`run_fig1_point`](crate::run_fig1_point) on this session's
    /// engine and run parameters.
    ///
    /// # Errors
    ///
    /// Everything the five-phase loop reports.
    pub fn run_fig1(&mut self, be_load: f64, seed: u64) -> Result<&RunReport, SimError> {
        let mut gen = fig1_generator(self.config(), be_load, seed);
        self.run(&mut gen)
    }

    /// The report of the most recent run (`None` before the first).
    pub fn report(&self) -> Option<&RunReport> {
        self.report.as_ref()
    }

    /// The engine, for host access between runs.
    pub fn engine(&self) -> &dyn NocEngine {
        self.engine.as_ref()
    }

    /// Mutable engine access.
    pub fn engine_mut(&mut self) -> &mut dyn NocEngine {
        self.engine.as_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{EngineKind, SimBuilder};
    use crate::runner::run_fig1_point;
    use noc_types::Topology;

    fn cfg() -> NetworkConfig {
        NetworkConfig::new(3, 2, Topology::Torus, 2)
    }

    fn rc() -> RunConfig {
        RunConfig::new()
            .warmup(100)
            .cycles(600)
            .drain(300)
            .period(128)
    }

    #[test]
    fn session_runs_and_keeps_the_report() {
        let mut s = SimBuilder::new(cfg())
            .engine(EngineKind::SeqCompiled)
            .run_config(rc())
            .session()
            .expect("clean network");
        assert_eq!(s.name(), "seqsim-compiled");
        assert!(s.report().is_none());
        let delivered = s
            .run_fig1(0.05, 7)
            .expect("clean run")
            .throughput
            .delivered_packets;
        assert!(delivered > 0);
        let kept = s.report().expect("report kept");
        assert_eq!(kept.throughput.delivered_packets, delivered);
        assert_eq!(s.engine().cycle(), kept.cycles);
    }

    /// The façade is a thin veneer: `Session::run` with a Fig 1
    /// generator equals `run_fig1_point` on a fresh engine of the same
    /// kind and seed, on every deterministic report field.
    #[test]
    fn session_run_matches_run_fig1_point() {
        for kind in [EngineKind::Seq, EngineKind::SeqCompiled] {
            let build = || SimBuilder::new(cfg()).engine(kind).run_config(rc());
            let mut session = build().session().expect("clean network");
            let mut gen = fig1_generator(cfg(), 0.05, 7);
            let a = session.run(&mut gen).expect("session run");

            let mut engine = build().try_build().expect("clean network");
            let b = run_fig1_point(engine.as_mut(), 0.05, 7, &rc()).expect("direct run");

            // Wall-clock fields aside, the reports agree bit for bit
            // (latency means compared by their float bits).
            let key = |r: &RunReport| {
                let latency =
                    [r.gt, r.be, r.access].map(|s| (s.count, s.max, s.mean.to_bits(), s.p99));
                (
                    (r.engine, r.cycles, r.saturated, r.unmatched),
                    (r.fault_anomalies, r.throughput, latency, r.delta.clone()),
                )
            };
            assert_eq!(key(a), key(&b), "{kind:?}");
        }
    }
}
