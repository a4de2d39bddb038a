//! The engine abstraction every simulation backend implements.
//!
//! The host side (the paper's ARM software) sees the same interface on
//! every backend: push timestamped stimuli into per-VC rings, step system
//! cycles, drain delivered-output and access-delay rings. Ring pointers
//! follow the free-running 16-bit convention of
//! [`vc_router::regs::IfaceRegs`].

use noc_types::fault::FaultPlan;
use noc_types::{NetworkConfig, NUM_PORTS, NUM_VCS};
use seqsim::{DeltaStats, SimError};
use std::sync::Arc;
use vc_router::{AccEntry, IfaceConfig, OutEntry, RouterRegs, StimEntry};

/// A delivered flit with its destination node attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivered {
    /// Node whose local port delivered the flit.
    pub node: usize,
    /// The output-ring record.
    pub entry: OutEntry,
}

/// A bit- and cycle-accurate NoC simulation backend.
pub trait NocEngine {
    /// Engine name for reports: "native", "seqsim", "seqsim-compiled",
    /// "systemc" or "rtl".
    fn name(&self) -> &'static str;

    /// The simulated network's configuration.
    fn config(&self) -> NetworkConfig;

    /// Current system cycle.
    fn cycle(&self) -> u64;

    /// Simulate one system cycle.
    ///
    /// Panics on an unrecoverable engine failure; engines with fallible
    /// hot paths implement [`try_step`](Self::try_step) natively and
    /// derive this from it.
    fn step(&mut self);

    /// Simulate one system cycle, surfacing engine failures
    /// (non-convergence) as a typed [`SimError`] instead of a panic.
    /// Engines without fallible paths inherit this default.
    fn try_step(&mut self) -> Result<(), SimError> {
        self.step();
        Ok(())
    }

    /// The deterministic fault plan this engine was built with, if any.
    /// The host uses it to apply injection-level faults upstream of
    /// [`push_stim`](Self::push_stim) and to pick the right conservation
    /// invariant.
    fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        None
    }

    /// Input-queue depth of `node`'s router: the configured depth,
    /// unless the engine was built with per-node depths (paper §7.1's
    /// heterogeneous networks).
    fn queue_depth(&self, node: usize) -> usize {
        let _ = node;
        self.config().router.queue_depth
    }

    /// The host-interface ring configuration the engine was built with.
    fn iface(&self) -> IfaceConfig;

    /// Capacity of every stimuli ring in entries.
    fn stim_capacity(&self) -> usize {
        self.iface().stim_cap
    }

    /// Free entries in the stimuli ring of `(node, vc)`.
    fn stim_free(&self, node: usize, vc: usize) -> usize;

    /// Push one stimulus; returns `false` (and pushes nothing) when the
    /// ring is full.
    fn push_stim(&mut self, node: usize, vc: usize, entry: StimEntry) -> bool;

    /// Drain all new delivered-output records of `node`.
    fn drain_delivered(&mut self, node: usize) -> Vec<OutEntry>;

    /// Drain all new access-delay records of `node`.
    fn drain_access(&mut self, node: usize) -> Vec<AccEntry>;

    /// Probe the settled forward-link word on `node`'s output in
    /// direction `dir` as of the last completed cycle (the paper's "log
    /// the traffic of a specific link", §5.2). `None` where unsupported
    /// or at a mesh edge.
    fn probe_link(&self, node: usize, dir: usize) -> Option<vc_router::OutEntry> {
        let _ = (node, dir);
        None
    }

    /// Per-VC occupancy of `node`'s input queues, summed over the five
    /// input ports, as of the last completed cycle (a host "memory peek"
    /// at the FIFO counters). `None` where unsupported.
    fn vc_occupancy(&self, node: usize) -> Option<[u32; noc_types::NUM_VCS]> {
        let _ = node;
        None
    }

    /// Attach metrics/tracing instrumentation to the engine's internals
    /// (the sequential backend wires its delta-cycle kernel to the
    /// registry under an `engine` label). No-op where unsupported.
    fn attach_instrumentation(&mut self, registry: &simtrace::Registry, tracer: &simtrace::Tracer) {
        let _ = (registry, tracer);
    }

    /// Attach a per-block/per-SCC profiler to the engine's kernel,
    /// timing every `sample_every`-th system cycle (see
    /// `seqsim::KernelProfiler`). Returns `false` where unsupported.
    /// Sequential backends attribute blocks through the `speccheck`
    /// condensation; re-attaching resets any accumulated profile.
    fn attach_profiler(&mut self, sample_every: u64) -> bool {
        let _ = sample_every;
        false
    }

    /// Harvest the profile accumulated since
    /// [`attach_profiler`](Self::attach_profiler), detaching the
    /// profiler. `wall_s` is the caller-measured wall clock of the
    /// profiled region (flows into the report). `None` when no profiler
    /// was attached.
    fn take_profile(&mut self, wall_s: f64) -> Option<simtrace::ProfileReport> {
        let _ = wall_s;
        None
    }

    /// Delta-cycle statistics (sequential simulator only).
    fn delta_stats(&self) -> Option<DeltaStats> {
        None
    }

    /// Reset delta-cycle statistics after warm-up (no-op where
    /// unsupported).
    fn reset_delta_stats(&mut self) {}

    /// Simulate `n` system cycles.
    fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Simulate `n` system cycles, stopping at the first [`SimError`].
    fn try_run(&mut self, n: u64) -> Result<(), SimError> {
        for _ in 0..n {
            self.try_step()?;
        }
        Ok(())
    }

    /// Serialize the engine's complete simulation state (snapshot + host
    /// ring pointers) as durable checkpoint bytes, or `None` where the
    /// backend has no snapshot support. Call between system cycles — at
    /// the runner's period boundary the rings are drained and the state
    /// quiescent.
    fn save_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restore state captured by [`save_state`](Self::save_state) on an
    /// identically built engine; subsequent simulation is bit-identical
    /// to the original run.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] where the backend has no snapshot support or
    /// the bytes are malformed for this engine.
    fn load_state(&mut self, bytes: &[u8]) -> Result<(), SimError> {
        let _ = bytes;
        Err(SimError::Config(format!(
            "engine `{}` does not support checkpoint restore",
            self.name()
        )))
    }
}

/// Host-side ring pointer bookkeeping shared by the backends.
#[derive(Debug, Clone)]
pub struct HostPtrs {
    /// Host write pointer per (node, VC) stimuli ring.
    pub stim_wr: Vec<[u16; noc_types::NUM_VCS]>,
    /// Host read pointer per node output ring.
    pub out_rd: Vec<u16>,
    /// Host read pointer per node access-delay ring.
    pub acc_rd: Vec<u16>,
}

impl HostPtrs {
    /// Zeroed pointers for `n` nodes.
    pub fn new(n: usize) -> Self {
        HostPtrs {
            stim_wr: vec![[0; noc_types::NUM_VCS]; n],
            out_rd: vec![0; n],
            acc_rd: vec![0; n],
        }
    }

    /// Serialize the pointers for a durable checkpoint.
    pub fn encode(&self, e: &mut seqsim::Enc) {
        e.usize(self.stim_wr.len());
        for node in &self.stim_wr {
            for &p in node {
                e.u16(p);
            }
        }
        e.usize(self.out_rd.len());
        for &p in &self.out_rd {
            e.u16(p);
        }
        e.usize(self.acc_rd.len());
        for &p in &self.acc_rd {
            e.u16(p);
        }
    }

    /// Rebuild pointers encoded by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// [`seqsim::WireError`] on underrun or mismatched node counts.
    pub fn decode(d: &mut seqsim::Dec<'_>) -> Result<Self, seqsim::WireError> {
        let n = d.usize()?;
        let mut stim_wr = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let mut node = [0u16; noc_types::NUM_VCS];
            for p in &mut node {
                *p = d.u16()?;
            }
            stim_wr.push(node);
        }
        let n_out = d.usize()?;
        let mut out_rd = Vec::with_capacity(n_out.min(1 << 20));
        for _ in 0..n_out {
            out_rd.push(d.u16()?);
        }
        let n_acc = d.usize()?;
        let mut acc_rd = Vec::with_capacity(n_acc.min(1 << 20));
        for _ in 0..n_acc {
            acc_rd.push(d.u16()?);
        }
        if out_rd.len() != stim_wr.len() || acc_rd.len() != stim_wr.len() {
            return Err(seqsim::WireError::new("host pointer node-count mismatch"));
        }
        Ok(HostPtrs {
            stim_wr,
            out_rd,
            acc_rd,
        })
    }
}

/// Per-VC occupancy of one router's input queues, summed over the five
/// input ports — what every backend's
/// [`vc_occupancy`](NocEngine::vc_occupancy) reports.
pub(crate) fn queued_per_vc(regs: &RouterRegs) -> [u32; NUM_VCS] {
    let mut occ = [0u32; NUM_VCS];
    for p in 0..NUM_PORTS {
        for (vc, o) in occ.iter_mut().enumerate() {
            *o += regs.queues[p * NUM_VCS + vc].occupancy() as u32;
        }
    }
    occ
}

/// Count of entries between a host pointer and a device pointer, with an
/// overrun check against the ring capacity.
#[inline]
pub fn ring_pending(host_rd: u16, dev_wr: u16, cap: usize, what: &str) -> usize {
    let pending = dev_wr.wrapping_sub(host_rd) as usize;
    assert!(
        pending <= cap,
        "{what} ring overrun: {pending} pending > capacity {cap} — drain more often"
    );
    pending
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_pending_wraps() {
        assert_eq!(ring_pending(65530, 4, 8192, "out"), 10);
        assert_eq!(ring_pending(5, 5, 8192, "out"), 0);
    }

    #[test]
    #[should_panic(expected = "overrun")]
    fn ring_overrun_detected() {
        let _ = ring_pending(0, 300, 256, "out");
    }
}
