//! The unified engine-construction API: [`EngineKind`] names a backend,
//! [`SimBuilder`] builds it.
//!
//! Every place that used to hand-roll a `match` over engine names —
//! benches, experiments, examples, differential tests — goes through
//! the builder instead:
//!
//! ```
//! use noc::{EngineKind, SimBuilder};
//! use noc_types::{NetworkConfig, Topology};
//!
//! let cfg = NetworkConfig::new(3, 3, Topology::Torus, 4);
//! let mut engine = SimBuilder::new(cfg)
//!     .engine(EngineKind::SeqCompiled)
//!     .try_build()
//!     .expect("engine builds");
//! engine.run(100);
//! assert_eq!(engine.cycle(), 100);
//! ```
//!
//! The `noc` crate only knows the engines it defines (native and the
//! sequential-simulator family). The SystemC-like and VHDL-like
//! backends live in crates that *depend on*
//! `noc`, so they cannot be constructed here directly; instead the
//! builder carries a factory table and those kinds are satisfied by
//! [`SimBuilder::register`]. The `soc_sim` meta-crate's `sim(cfg)`
//! pre-registers both, so end users never see the difference.

use crate::compiled::CompiledNoc;
use crate::engine::NocEngine;
use crate::native::NativeNoc;
use crate::runner::RunConfig;
use crate::seq::SeqNoc;
use crate::session::Session;
use noc_types::fault::FaultPlan;
use noc_types::NetworkConfig;
use seqsim::{HybridSchedule, Scheduling, SimError, SystemSpec};
use speccheck::Severity;
use std::sync::Arc;
use vc_router::IfaceConfig;

/// Which simulation backend to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The hand-written reference engine (golden model).
    Native,
    /// The sequential simulator (paper scheduling: HBR + round-robin
    /// worklist).
    Seq,
    /// The sequential simulator's hybrid schedule lowered, at build
    /// time, into a flat bytecode kernel over one contiguous arena
    /// ([`crate::CompiledNoc`]). Bit-identical to [`EngineKind::Seq`],
    /// several times faster.
    SeqCompiled,
    /// The SystemC-like cycle-callback engine (registered by the
    /// `cyclesim` crate via [`SimBuilder::register`]).
    CycleSim,
    /// The VHDL-like netlist engine (registered by the `rtl` crate via
    /// [`SimBuilder::register`]).
    Rtl,
}

impl EngineKind {
    /// Stable identifier, usable as a bench row id or CLI argument.
    pub fn id(&self) -> &'static str {
        match self {
            EngineKind::Native => "native",
            EngineKind::Seq => "seqsim",
            EngineKind::SeqCompiled => "seqsim-compiled",
            EngineKind::CycleSim => "systemc",
            EngineKind::Rtl => "rtl",
        }
    }
}

/// Factory signature external crates register for their engine kinds.
/// The third argument is the deterministic fault plan, `None` for a
/// clean run.
pub type EngineFactory =
    fn(NetworkConfig, IfaceConfig, Option<Arc<FaultPlan>>) -> Box<dyn NocEngine>;

/// Builder for any [`NocEngine`] backend.
pub struct SimBuilder {
    cfg: NetworkConfig,
    iface: IfaceConfig,
    kind: EngineKind,
    faults: Option<Arc<FaultPlan>>,
    run_config: RunConfig,
    profile: Option<u64>,
    factories: Vec<(EngineKind, EngineFactory)>,
}

impl SimBuilder {
    /// Start building a simulator of `cfg`'s network. Defaults: the
    /// sequential engine, default interface rings, no faults.
    pub fn new(cfg: NetworkConfig) -> Self {
        SimBuilder {
            cfg,
            iface: IfaceConfig::default(),
            kind: EngineKind::Seq,
            faults: None,
            run_config: RunConfig::default(),
            profile: None,
            factories: Vec::new(),
        }
    }

    /// Select the backend.
    pub fn engine(mut self, kind: EngineKind) -> Self {
        self.kind = kind;
        self
    }

    /// Override the host-interface ring configuration.
    pub fn iface(mut self, iface: IfaceConfig) -> Self {
        self.iface = iface;
        self
    }

    /// Attach a deterministic fault plan. Every backend applies it at the
    /// same architectural points, so faulty runs stay bit-identical
    /// across engines. A plan sized for a different network is reported
    /// by [`try_build`](Self::try_build).
    pub fn faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The run parameters a [`Session`] built from this builder starts
    /// with ([`Session::set_run_config`](crate::Session::set_run_config)
    /// can change them later).
    pub fn run_config(mut self, rc: RunConfig) -> Self {
        self.run_config = rc;
        self
    }

    /// Attach a graph-attributed kernel profiler to the built engine,
    /// timing every `sample_every`-th system cycle (see
    /// [`NocEngine::attach_profiler`]). Kinds without a delta-cycle
    /// kernel (native, external factories without profiler support)
    /// ignore it — [`NocEngine::take_profile`] then returns `None`.
    pub fn profile(mut self, sample_every: u64) -> Self {
        self.profile = Some(sample_every);
        self
    }

    /// Register a factory for an externally-implemented kind
    /// ([`EngineKind::CycleSim`], [`EngineKind::Rtl`]). Later
    /// registrations for the same kind win, so a caller can also
    /// substitute its own engine for a built-in kind.
    pub fn register(mut self, kind: EngineKind, factory: EngineFactory) -> Self {
        self.factories.push((kind, factory));
        self
    }

    /// Build the engine, reporting misconfiguration as
    /// [`SimError::Config`] instead of panicking.
    ///
    /// For the sequential kinds the `speccheck` analyzer runs exactly
    /// once, on the assembled spec: error-severity diagnostics refuse
    /// the build, [`EngineKind::Seq`] adopts the derived hybrid
    /// schedule, and [`EngineKind::SeqCompiled`] lowers its block order.
    pub fn try_build(self) -> Result<Box<dyn NocEngine>, SimError> {
        let profile = self.profile;
        let mut engine = self.try_build_engine()?;
        if let Some(sample_every) = profile {
            engine.attach_profiler(sample_every);
        }
        Ok(engine)
    }

    fn try_build_engine(self) -> Result<Box<dyn NocEngine>, SimError> {
        if let Some(plan) = &self.faults {
            if plan.num_nodes() != self.cfg.num_nodes() {
                return Err(SimError::Config(format!(
                    "faults: plan sized for {} nodes, network has {}",
                    plan.num_nodes(),
                    self.cfg.num_nodes()
                )));
            }
        }
        self.iface
            .check()
            .map_err(|e| SimError::Config(format!("iface: {e}")))?;
        // Most-recent registration wins, including over built-ins.
        if let Some((_, f)) = self.factories.iter().rev().find(|(k, _)| *k == self.kind) {
            return Ok(f(self.cfg, self.iface, self.faults));
        }
        let (cfg, iface, faults) = (self.cfg, self.iface, self.faults);
        let depths = vec![cfg.router.queue_depth; cfg.num_nodes()];
        match self.kind {
            EngineKind::Native => Ok(Box::new(NativeNoc::with_depths_and_faults(
                cfg, iface, &depths, faults,
            ))),
            EngineKind::Seq => {
                let mut seq = SeqNoc::try_build(cfg, iface, &depths, faults)?;
                if let Some(schedule) = analyse(seq.engine().spec())? {
                    seq.engine_mut()
                        .set_scheduling(Scheduling::Hybrid(Arc::new(schedule)));
                }
                Ok(Box::new(seq))
            }
            EngineKind::SeqCompiled => Ok(Box::new(CompiledNoc::try_build(
                cfg, iface, &depths, faults,
            )?)),
            kind @ (EngineKind::CycleSim | EngineKind::Rtl) => Err(SimError::Config(format!(
                "engine kind {kind:?} is implemented outside the noc crate; \
                 build it through soc_sim::sim(cfg), or register a factory: \
                 SimBuilder::new(cfg).register(kind, |cfg, iface| ...)"
            ))),
        }
    }

    /// Build a typed [`Session`]: the engine plus its run parameters,
    /// with [`Session::run`](crate::Session::run) replacing the
    /// free-function runner.
    ///
    /// ```
    /// use noc::{EngineKind, RunConfig, SimBuilder};
    /// use noc_types::{NetworkConfig, Topology};
    ///
    /// let cfg = NetworkConfig::new(3, 3, Topology::Torus, 4);
    /// let mut session = SimBuilder::new(cfg)
    ///     .engine(EngineKind::SeqCompiled)
    ///     .run_config(RunConfig::new().warmup(100).cycles(400).drain(200))
    ///     .session()
    ///     .expect("clean network");
    /// let report = session.run_fig1(0.05, 7).expect("clean run");
    /// assert!(!report.saturated);
    /// ```
    ///
    /// # Errors
    ///
    /// Everything [`try_build`](Self::try_build) reports.
    pub fn session(self) -> Result<Session, SimError> {
        let rc = self.run_config.clone();
        Ok(Session::new(self.try_build()?, rc))
    }
}

/// Analyse a sequential NoC spec — the one place a build runs
/// `speccheck`. Error-severity diagnostics fold into one
/// [`SimError::Config`]; otherwise the derived hybrid schedule is
/// returned (`None` only for an empty spec).
pub(crate) fn analyse(spec: &SystemSpec) -> Result<Option<HybridSchedule>, SimError> {
    let a = speccheck::analyze_spec(spec);
    let errors: Vec<String> = a
        .with_severity(Severity::Error)
        .map(|d| d.to_string())
        .collect();
    if errors.is_empty() {
        return Ok(a.schedule);
    }
    Err(SimError::Config(format!(
        "spec analysis found {} error(s):\n{}",
        errors.len(),
        errors.join("\n")
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::build_noc_spec;
    use noc_types::Topology;

    fn cfg() -> NetworkConfig {
        NetworkConfig::new(3, 2, Topology::Torus, 2)
    }

    #[test]
    fn builds_every_builtin_kind() {
        for (kind, name) in [
            (EngineKind::Native, "native"),
            (EngineKind::Seq, "seqsim"),
            (EngineKind::SeqCompiled, "seqsim-compiled"),
        ] {
            let mut e = SimBuilder::new(cfg())
                .engine(kind)
                .try_build()
                .expect("builtin kind builds");
            assert_eq!(e.name(), name, "{kind:?}");
            e.run(5);
            assert_eq!(e.cycle(), 5);
        }
    }

    #[test]
    fn iface_override_reaches_the_engine() {
        let iface = IfaceConfig {
            stim_cap: 32,
            ..IfaceConfig::default()
        };
        let e = SimBuilder::new(cfg())
            .iface(iface)
            .try_build()
            .expect("default kind builds");
        assert_eq!(e.iface(), iface);
        assert_eq!(e.stim_capacity(), 32);
    }

    #[test]
    fn unregistered_external_kind_errors_with_guidance() {
        let err = SimBuilder::new(cfg())
            .engine(EngineKind::CycleSim)
            .try_build()
            .err()
            .expect("no factory registered");
        assert!(
            err.to_string()
                .contains("implemented outside the noc crate"),
            "{err}"
        );
    }

    #[test]
    fn try_build_reports_missing_factory_as_config_error() {
        let err = SimBuilder::new(cfg())
            .engine(EngineKind::Rtl)
            .try_build()
            .err()
            .expect("no factory registered");
        assert!(matches!(err, SimError::Config(_)), "{err:?}");
        // A fault plan sized for another network, or ring capacities the
        // interface cannot address, whatever the kind.
        let plan = Arc::new(FaultPlan::new(cfg().num_nodes() + 1, 7));
        let rings = IfaceConfig {
            stim_cap: 48,
            ..IfaceConfig::default()
        };
        for kind in [
            EngineKind::Native,
            EngineKind::Seq,
            EngineKind::SeqCompiled,
            EngineKind::CycleSim,
        ] {
            for (what, b) in [
                ("faults: ", SimBuilder::new(cfg()).faults(plan.clone())),
                ("iface: ", SimBuilder::new(cfg()).iface(rings)),
            ] {
                let err = b.engine(kind).try_build().err().expect("refused");
                assert!(
                    matches!(&err, SimError::Config(m) if m.starts_with(what)),
                    "{kind:?}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn lint_is_clean_for_builtin_networks() {
        let c = cfg();
        let depths = vec![c.router.queue_depth; c.num_nodes()];
        let (spec, _, _) = build_noc_spec(&c, IfaceConfig::default(), &depths, &None);
        let a = speccheck::analyze_spec(&spec);
        assert!(!a.has_errors(), "{:#?}", a.diagnostics);
        let schedule = a.schedule.as_ref().expect("schedulable");
        assert_eq!(schedule.order.len(), c.num_nodes());
        assert!(a.convergence_bound <= a.watchdog_budget);
        // The builder's helper returns the same schedule.
        let helper = analyse(&spec).expect("no errors").expect("schedulable");
        assert_eq!(helper.order, schedule.order);
    }

    #[test]
    fn schedules_deliver_identically() {
        use noc_types::{Coord, Flit};
        use vc_router::StimEntry;
        let built = |kind| {
            SimBuilder::new(cfg())
                .engine(kind)
                .try_build()
                .expect("builtin kind builds")
        };
        let mut runs = Vec::new();
        // Hybrid schedule, the pure-HBR reference, the compiled kernel.
        for mut e in [
            built(EngineKind::Seq),
            Box::new(SeqNoc::new(cfg(), IfaceConfig::default())),
            built(EngineKind::SeqCompiled),
        ] {
            for node in 0..cfg().num_nodes() {
                e.push_stim(
                    node,
                    node % 2,
                    StimEntry {
                        ts: 0,
                        flit: Flit::head_tail(Coord::new(2, 1), node as u8),
                    },
                );
            }
            e.run(20);
            let dest = cfg().shape.node_id(Coord::new(2, 1)).index();
            runs.push(e.drain_delivered(dest));
        }
        assert!(!runs[0].is_empty());
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2], "compiled kernel must be bit-identical");
    }

    #[test]
    fn profile_knob_attaches_a_profiler() {
        let mut e = SimBuilder::new(cfg())
            .engine(EngineKind::Seq)
            .profile(1)
            .try_build()
            .expect("seq engine builds");
        e.run(5);
        let report = e.take_profile(0.01).expect("seq engine profiles");
        assert_eq!(report.engine, "seqsim");
        assert_eq!(report.entries.len(), cfg().num_nodes());
        assert!(report.entries.iter().all(|b| b.evals >= 5));
        // The native golden model has no delta-cycle kernel to profile.
        let mut native = SimBuilder::new(cfg())
            .engine(EngineKind::Native)
            .profile(1)
            .try_build()
            .expect("native engine builds");
        native.run(5);
        assert!(native.take_profile(0.01).is_none());
    }

    #[test]
    fn registered_factory_wins() {
        let e = SimBuilder::new(cfg())
            .engine(EngineKind::CycleSim)
            .register(EngineKind::CycleSim, |cfg, iface, _faults| {
                Box::new(NativeNoc::new(cfg, iface))
            })
            .try_build()
            .expect("registered factory builds");
        assert_eq!(e.name(), "native");
    }
}
