//! Runtime invariant checking: flit conservation, queue and ring bounds.
//!
//! The checker is the robustness counterpart of the differential suites:
//! where those prove five engines agree with *each other*, the checker
//! proves a single run agrees with the *network's conservation laws*.
//! Enabled through `RunConfig::check` (or `--check` on the experiment
//! binary), it audits the engine through the public [`NocEngine`]
//! observation surface only — `stim_free`, `vc_occupancy`, the host-side
//! push/deliver counts — so it works unchanged on all five backends and
//! cannot perturb the simulation it is checking.
//!
//! The central invariant is flit conservation:
//!
//! ```text
//! pushed  ==  still-in-stim-rings + in-queues + delivered + fault-dropped
//! ```
//!
//! where `fault-dropped` is the residual of the other four terms. On a
//! clean run (and under every fault except stuck-at-idle links, which are
//! the one lossy site in the fault model) the residual must be exactly
//! zero; under a lossy plan it must be non-negative and monotonically
//! non-decreasing — flits may vanish into a faulty link, but they may
//! never be created or resurrected.

use crate::engine::NocEngine;
use noc_types::{NUM_PORTS, NUM_VCS};
use seqsim::SimError;
use simtrace::Registry;

/// Audits one engine run against the network's conservation laws.
///
/// The host feeds it every accepted stimulus ([`note_pushed`]) and every
/// drained delivery ([`note_delivered`]); [`check`](Self::check) then
/// audits the engine at any quiescent observation point (all deliveries
/// drained), typically once per load period.
///
/// [`note_pushed`]: Self::note_pushed
/// [`note_delivered`]: Self::note_delivered
pub struct InvariantChecker {
    /// Per-node, per-VC queue occupancy bound: one queue of the node's
    /// own depth per input port.
    queue_bound: Vec<u32>,
    stim_cap: usize,
    /// Whether the active fault plan contains lossy (stuck-at-idle) link
    /// faults; only then may the conservation residual be non-zero.
    lossy: bool,
    pushed: u64,
    delivered: u64,
    last_residual: i64,
    checks: u64,
    violations: u64,
    registry: Option<Registry>,
}

impl InvariantChecker {
    /// Build a checker for `engine`, reading the per-node queue depths,
    /// ring capacity and fault plan it was constructed with.
    pub fn new(engine: &dyn NocEngine) -> InvariantChecker {
        InvariantChecker {
            queue_bound: (0..engine.config().num_nodes())
                .map(|node| (NUM_PORTS * engine.queue_depth(node)) as u32)
                .collect(),
            stim_cap: engine.stim_capacity(),
            lossy: engine.fault_plan().is_some_and(|p| p.has_stuck_idle()),
            pushed: 0,
            delivered: 0,
            last_residual: 0,
            checks: 0,
            violations: 0,
            registry: None,
        }
    }

    /// Publish `check.*` series (checks run, violations, fault-dropped
    /// flits) into `registry` on every audit.
    pub fn with_registry(mut self, registry: Registry) -> InvariantChecker {
        self.registry = Some(registry);
        self
    }

    /// Record `flits` stimuli accepted by the engine (`push_stim` true).
    pub fn note_pushed(&mut self, flits: u64) {
        self.pushed += flits;
    }

    /// Record `flits` drained from the delivered-output rings.
    pub fn note_delivered(&mut self, flits: u64) {
        self.delivered += flits;
    }

    /// Audits run so far.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Violations detected so far (also counted in `check.violations`).
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Conservation residual at the last audit: flits dropped by lossy
    /// link faults. Zero on clean runs.
    pub fn fault_dropped(&self) -> i64 {
        self.last_residual
    }

    fn violation(&mut self, cycle: u64, invariant: &str, details: String) -> SimError {
        self.violations += 1;
        if let Some(reg) = &self.registry {
            reg.counter("check.violations", &[]).inc();
        }
        SimError::InvariantViolated {
            cycle,
            invariant: invariant.to_string(),
            details,
        }
    }

    /// Serialize the conservation ledger (pushed/delivered counts,
    /// residual, audit counters) for a durable checkpoint. The bounds
    /// and lossiness are rebuilt from the engine on resume.
    pub(crate) fn encode(&self, e: &mut seqsim::Enc) {
        e.u64(self.pushed);
        e.u64(self.delivered);
        e.i64(self.last_residual);
        e.u64(self.checks);
        e.u64(self.violations);
    }

    /// Restore a ledger captured by [`encode`](Self::encode) onto a
    /// checker freshly built for the same engine.
    pub(crate) fn decode_into(&mut self, d: &mut seqsim::Dec<'_>) -> Result<(), seqsim::WireError> {
        self.pushed = d.u64()?;
        self.delivered = d.u64()?;
        self.last_residual = d.i64()?;
        self.checks = d.u64()?;
        self.violations = d.u64()?;
        Ok(())
    }

    /// Audit the structural bounds only (stim rings, queue occupancy).
    /// Safe to call every cycle — unlike [`check`](Self::check) it does
    /// not need the delivered rings drained.
    pub fn check_bounds(&mut self, engine: &dyn NocEngine) -> Result<(), SimError> {
        self.audit_bounds(engine).map(|_| ())
    }

    /// Shared bounds sweep; returns `(ring_fill, queued)` for the
    /// conservation ledger.
    fn audit_bounds(&mut self, engine: &dyn NocEngine) -> Result<(u64, u64), SimError> {
        let cycle = engine.cycle();
        let n = engine.config().num_nodes();
        self.checks += 1;

        let mut ring_fill = 0u64;
        let mut queued = 0u64;
        for node in 0..n {
            for vc in 0..NUM_VCS {
                let free = engine.stim_free(node, vc);
                if free > self.stim_cap {
                    return Err(self.violation(
                        cycle,
                        "ring-bound",
                        format!(
                            "node {node} vc {vc}: stim ring reports {free} free \
                             slots of {} capacity",
                            self.stim_cap
                        ),
                    ));
                }
                ring_fill += (self.stim_cap - free) as u64;
            }
            if let Some(occ) = engine.vc_occupancy(node) {
                let bound = self.queue_bound[node];
                for (vc, &o) in occ.iter().enumerate() {
                    if o > bound {
                        return Err(self.violation(
                            cycle,
                            "queue-bound",
                            format!(
                                "node {node} vc {vc}: {o} flits queued, bound is \
                                 {bound} ({NUM_PORTS} ports x depth {})",
                                engine.queue_depth(node)
                            ),
                        ));
                    }
                    queued += o as u64;
                }
            }
        }
        Ok((ring_fill, queued))
    }

    /// Audit `engine` now: bounds plus flit conservation. Call at a
    /// quiescent observation point: every delivered-output ring drained
    /// (and counted), no stimuli in flight between host and engine.
    pub fn check(&mut self, engine: &dyn NocEngine) -> Result<(), SimError> {
        let cycle = engine.cycle();
        let (ring_fill, queued) = self.audit_bounds(engine)?;

        let accounted = ring_fill + queued + self.delivered;
        let residual = self.pushed as i64 - accounted as i64;
        if residual < 0 {
            return Err(self.violation(
                cycle,
                "conservation",
                format!(
                    "{} flits accounted for but only {} pushed — \
                     flits were created in flight",
                    accounted, self.pushed
                ),
            ));
        }
        if residual > 0 && !self.lossy {
            return Err(self.violation(
                cycle,
                "conservation",
                format!(
                    "{residual} flit(s) lost: pushed {} = rings {ring_fill} + \
                     queues {queued} + delivered {} + {residual}, but the fault \
                     plan has no lossy site",
                    self.pushed, self.delivered
                ),
            ));
        }
        if residual < self.last_residual {
            return Err(self.violation(
                cycle,
                "conservation",
                format!(
                    "fault-dropped count went backwards ({} -> {residual}): \
                     a dropped flit was resurrected",
                    self.last_residual
                ),
            ));
        }
        self.last_residual = residual;

        if let Some(reg) = &self.registry {
            reg.counter("check.checks", &[]).inc();
            reg.gauge("check.fault_dropped", &[]).set(residual);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{EngineKind, SimBuilder};
    use crate::diff::push_window;
    use noc_types::{NetworkConfig, Topology};
    use std::collections::VecDeque;
    use traffic::{BeConfig, StimuliGenerator, TrafficConfig};

    fn run_checked(kind: EngineKind) -> InvariantChecker {
        let cfg = NetworkConfig::new(3, 3, Topology::Torus, 4);
        let mut engine = SimBuilder::new(cfg)
            .engine(kind)
            .try_build()
            .expect("builtin kind builds");
        let tcfg = TrafficConfig {
            net: cfg,
            be: BeConfig::fig1(0.2),
            gt_streams: Vec::new(),
            seed: 11,
        };
        let mut gen = StimuliGenerator::new(tcfg);
        let mut checker = InvariantChecker::new(engine.as_ref());
        let n = cfg.num_nodes();
        let mut backlog: Vec<[VecDeque<_>; NUM_VCS]> = (0..n)
            .map(|_| core::array::from_fn(|_| VecDeque::new()))
            .collect();
        for t in 0..20u64 {
            let w = gen.generate(t * 16, (t + 1) * 16);
            for (node, rings) in w.stim.into_iter().enumerate() {
                for (vc, entries) in rings.into_iter().enumerate() {
                    backlog[node][vc].extend(entries);
                }
            }
            checker.note_pushed(push_window(engine.as_mut(), &mut backlog, usize::MAX));
            engine.run(16);
            for node in 0..n {
                checker.note_delivered(engine.drain_delivered(node).len() as u64);
                let _ = engine.drain_access(node);
            }
            checker
                .check(engine.as_ref())
                .expect("clean run must conserve flits");
        }
        checker
    }

    #[test]
    fn clean_runs_conserve_flits_on_every_builtin() {
        for kind in [EngineKind::Native, EngineKind::Seq, EngineKind::SeqCompiled] {
            let checker = run_checked(kind);
            assert!(checker.checks() >= 20);
            assert_eq!(checker.violations(), 0, "{kind:?}");
            assert_eq!(checker.fault_dropped(), 0, "{kind:?}");
        }
    }

    #[test]
    fn lost_flits_are_reported_as_typed_violations() {
        let cfg = NetworkConfig::new(2, 2, Topology::Torus, 4);
        let engine = SimBuilder::new(cfg)
            .try_build()
            .expect("default kind builds");
        let mut checker = InvariantChecker::new(engine.as_ref());
        // Claim a push that never happened backwards: pretend 5 flits were
        // pushed while the engine is empty -> 5 lost, no lossy site.
        checker.note_pushed(5);
        let err = checker.check(engine.as_ref()).unwrap_err();
        match err {
            SimError::InvariantViolated { invariant, .. } => {
                assert_eq!(invariant, "conservation")
            }
            other => panic!("expected InvariantViolated, got {other:?}"),
        }
        assert_eq!(checker.violations(), 1);
    }

    #[test]
    fn created_flits_are_reported() {
        let cfg = NetworkConfig::new(2, 2, Topology::Torus, 4);
        let engine = SimBuilder::new(cfg)
            .try_build()
            .expect("default kind builds");
        let mut checker = InvariantChecker::new(engine.as_ref());
        checker.note_delivered(3);
        let err = checker.check(engine.as_ref()).unwrap_err();
        assert!(matches!(err, SimError::InvariantViolated { .. }));
        assert!(err.to_string().contains("created"), "{err}");
    }
}
