//! Per-block/per-SCC kernel profiler for the dynamic-schedule engine.
//!
//! The paper's throughput claim (§6) is an aggregate; this module
//! answers *where the time goes*. A [`KernelProfiler`] rides inside
//! [`DynamicEngine`](crate::DynamicEngine) as an `Option<Box<_>>` — the
//! disabled path is a single pointer null-check per evaluation, no
//! clock reads, no allocation. When attached it accumulates, per block:
//! evaluation counts, HBR-forced re-evaluations, and *sampled* self
//! time (every Nth system cycle is wall-clock timed; self time is
//! scaled to the full eval count at report time, keeping the overhead
//! of `Instant::now` off most cycles). Per multi-block SCC it tracks
//! convergence-bound consumption: the largest number of evaluation
//! rounds the SCC actually took in any one system cycle, to compare
//! against the static bound `speccheck` proved.
//!
//! Attribution (block names, block→SCC map, per-SCC bounds) comes from
//! the `speccheck` condensation via [`KernelProfiler::set_attribution`];
//! without it every block is its own singleton SCC. The harvest is a
//! [`simtrace::ProfileReport`] — ranked hotspots, flamegraph text and
//! diffs all live in `simtrace::prof`.

use simtrace::{ProfileEntry, ProfileReport, SccProfile};
use std::time::Instant;

/// Accumulates per-block self-time/eval/retry totals and per-SCC
/// convergence accounting for one engine.
#[derive(Debug, Clone)]
pub struct KernelProfiler {
    /// Wall-clock-time every `sample_every`-th system cycle (1 = every
    /// cycle).
    sample_every: u64,
    /// Is the currently open system cycle being timed?
    timing: bool,
    /// System cycles seen (drives the sampling decision).
    cycles: u64,
    /// Per-block total evaluations.
    evals: Vec<u64>,
    /// Per-block HBR-forced re-evaluations.
    retries: Vec<u64>,
    /// Per-block evaluations the compiled engine's activity gate
    /// skipped (the block was asleep).
    skipped: Vec<u64>,
    /// Per-block evaluations that were wall-clock timed.
    timed_evals: Vec<u64>,
    /// Per-block nanoseconds across the timed evaluations.
    timed_ns: Vec<u64>,
    /// Per-block evaluations inside the currently open cycle (consumed
    /// by the per-SCC round accounting, reset each cycle).
    cycle_evals: Vec<u32>,
    /// Block → SCC index.
    scc_of: Vec<usize>,
    /// Block names (flamegraph frames).
    names: Vec<String>,
    /// Per-SCC block counts.
    scc_blocks: Vec<usize>,
    /// Per-SCC static convergence bound (0 = unknown).
    scc_bound: Vec<u64>,
    /// Per-SCC worst-case rounds consumed in one system cycle.
    scc_consumed_max: Vec<u64>,
}

impl KernelProfiler {
    /// A profiler for `n_blocks` blocks, timing every
    /// `sample_every`-th system cycle. Until
    /// [`set_attribution`](Self::set_attribution) is called, every
    /// block is its own SCC named `block{i}`.
    pub fn new(n_blocks: usize, sample_every: u64) -> Self {
        KernelProfiler {
            sample_every: sample_every.max(1),
            timing: false,
            cycles: 0,
            evals: vec![0; n_blocks],
            retries: vec![0; n_blocks],
            skipped: vec![0; n_blocks],
            timed_evals: vec![0; n_blocks],
            timed_ns: vec![0; n_blocks],
            cycle_evals: vec![0; n_blocks],
            scc_of: (0..n_blocks).collect(),
            names: (0..n_blocks).map(|i| format!("block{i}")).collect(),
            scc_blocks: vec![1; n_blocks],
            scc_bound: vec![0; n_blocks],
            scc_consumed_max: vec![0; n_blocks],
        }
    }

    /// Attach the condensation: `names[b]` and `scc_of[b]` per block,
    /// `(blocks, bound)` per SCC (same indexing as `scc_of` values).
    ///
    /// # Panics
    /// If the shapes disagree with the block count or an SCC index is
    /// out of range.
    pub fn set_attribution(
        &mut self,
        names: Vec<String>,
        scc_of: Vec<usize>,
        sccs: Vec<(usize, u64)>,
    ) {
        let n = self.evals.len();
        assert_eq!(names.len(), n, "one name per block");
        assert_eq!(scc_of.len(), n, "one SCC index per block");
        assert!(
            scc_of.iter().all(|&s| s < sccs.len()),
            "SCC index out of range"
        );
        self.names = names;
        self.scc_of = scc_of;
        self.scc_blocks = sccs.iter().map(|&(b, _)| b).collect();
        self.scc_bound = sccs.iter().map(|&(_, b)| b).collect();
        self.scc_consumed_max = vec![0; sccs.len()];
    }

    /// Open a system cycle; decides whether this cycle is timed.
    #[inline]
    pub fn begin_cycle(&mut self) {
        self.timing = self.cycles.is_multiple_of(self.sample_every);
    }

    /// Called at the top of a block evaluation; returns the timestamp
    /// to hand back to [`end_eval`](Self::end_eval) (`None` on untimed
    /// cycles — no clock read happens).
    #[inline]
    pub fn begin_eval(&self) -> Option<Instant> {
        if self.timing {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Called at the bottom of a block evaluation.
    #[inline]
    pub fn end_eval(&mut self, block: usize, re_evaluation: bool, t0: Option<Instant>) {
        self.evals[block] += 1;
        self.cycle_evals[block] += 1;
        if re_evaluation {
            self.retries[block] += 1;
        }
        if let Some(t0) = t0 {
            self.timed_evals[block] += 1;
            self.timed_ns[block] += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Charge op wall time to `block` without counting an evaluation.
    /// Used by the compiled engine for its comb-pass opcodes: the time
    /// folds into the block's per-eval self time (the update op is the
    /// one counted evaluation), so report scaling stays correct.
    #[inline]
    pub fn end_op(&mut self, block: usize, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.timed_ns[block] += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Count one evaluation of `block` that the activity gate skipped.
    #[inline]
    pub fn note_skipped(&mut self, block: usize) {
        self.skipped[block] += 1;
    }

    /// Close a system cycle: fold this cycle's per-block eval counts
    /// into the per-SCC round maxima and reset them.
    pub fn end_cycle(&mut self) {
        for b in 0..self.cycle_evals.len() {
            let rounds = self.cycle_evals[b] as u64;
            if rounds > 0 {
                let s = self.scc_of[b];
                if rounds > self.scc_consumed_max[s] {
                    self.scc_consumed_max[s] = rounds;
                }
                self.cycle_evals[b] = 0;
            }
        }
        self.cycles += 1;
    }

    /// System cycles profiled so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Harvest the profile. `engine` labels the report (flamegraph
    /// root frame); `wall_s` is the caller-measured wall clock of the
    /// profiled region (0.0 when unknown). Per-block self time is the
    /// timed-sample mean scaled to the full eval count.
    pub fn report(&self, engine: &str, wall_s: f64) -> ProfileReport {
        let mut report = ProfileReport {
            engine: engine.to_string(),
            cycles: self.cycles,
            wall_s,
            entries: Vec::with_capacity(self.evals.len()),
            sccs: Vec::new(),
        };
        for b in 0..self.evals.len() {
            let scc = self.scc_of[b];
            let self_ns = if self.timed_evals[b] > 0 {
                // Scale the timed sample to the full eval count.
                (self.timed_ns[b] as f64 * self.evals[b] as f64 / self.timed_evals[b] as f64) as u64
            } else {
                0
            };
            report.entries.push(ProfileEntry {
                scc,
                block: b,
                name: self.names[b].clone(),
                fixed_point: self.scc_blocks[scc] > 1,
                evals: self.evals[b],
                hbr_retries: self.retries[b],
                skipped: self.skipped[b],
                self_ns,
            });
        }
        for s in 0..self.scc_blocks.len() {
            if self.scc_blocks[s] > 1 {
                report.sccs.push(SccProfile {
                    scc: s,
                    blocks: self.scc_blocks[s],
                    bound: self.scc_bound[s],
                    consumed_max: self.scc_consumed_max[s],
                    hbr_retries: (0..self.evals.len())
                        .filter(|&b| self.scc_of[b] == s)
                        .map(|b| self.retries[b])
                        .sum(),
                });
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_scales_sampled_time() {
        let mut p = KernelProfiler::new(2, 2); // time every 2nd cycle
        for cycle in 0..4u64 {
            p.begin_cycle();
            let timed = cycle % 2 == 0;
            for b in 0..2 {
                let t0 = p.begin_eval();
                assert_eq!(t0.is_some(), timed, "cycle {cycle}");
                p.end_eval(b, false, t0);
            }
            // Block 1 re-evaluates once per cycle.
            let t0 = p.begin_eval();
            p.end_eval(1, true, t0);
            p.end_cycle();
        }
        assert_eq!(p.cycles(), 4);
        let r = p.report("test", 1.0);
        assert_eq!(r.entries[0].evals, 4);
        assert_eq!(r.entries[1].evals, 8);
        assert_eq!(r.entries[1].hbr_retries, 4);
        // Timed on 2 of 4 cycles, scaled back to all evals: self time
        // is nonzero for both blocks.
        assert!(r.entries[0].self_ns > 0);
        assert!(r.entries[1].self_ns > 0);
        // Default attribution: singleton SCCs, so no SCC rows.
        assert!(r.sccs.is_empty());
        assert!(!r.entries[0].fixed_point);
    }

    #[test]
    fn scc_attribution_tracks_bound_consumption() {
        let mut p = KernelProfiler::new(3, 1);
        p.set_attribution(
            vec!["r0".into(), "r1".into(), "ni".into()],
            vec![0, 0, 1], // r0,r1 share a loop SCC; ni is singleton
            vec![(2, 6), (1, 1)],
        );
        // Cycle 0: r0 evaluated 3 times, r1 twice, ni once.
        p.begin_cycle();
        for (b, times) in [(0usize, 3), (1, 2), (2, 1)] {
            for i in 0..times {
                let t0 = p.begin_eval();
                p.end_eval(b, i > 0, t0);
            }
        }
        p.end_cycle();
        // Cycle 1: everything settles in one round.
        p.begin_cycle();
        for b in 0..3 {
            let t0 = p.begin_eval();
            p.end_eval(b, false, t0);
        }
        p.end_cycle();

        let r = p.report("seqsim", 0.0);
        assert_eq!(r.entries[0].name, "r0");
        assert!(r.entries[0].fixed_point);
        assert!(!r.entries[2].fixed_point);
        assert_eq!(r.sccs.len(), 1, "only the multi-block SCC is reported");
        let s = &r.sccs[0];
        assert_eq!(s.blocks, 2);
        assert_eq!(s.bound, 6);
        assert_eq!(s.consumed_max, 3, "worst round count of any member");
        assert_eq!(s.hbr_retries, 3);
    }
}
