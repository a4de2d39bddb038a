//! Delta-cycle accounting (paper §4 and §6).
//!
//! "A delta cycle is defined as a clock cycle in the sequential simulator
//! that evaluates one function but does not advance the simulation time. A
//! system cycle is a clock cycle in the simulated parallel system [...] A
//! system cycle consists of multiple delta cycles."
//!
//! §6: "The minimum number of delta cycles per system cycle is equal to the
//! number of routers of the NoC. In the extra delta cycles, unstable
//! routers are re-evaluated [...] The percentage of extra delta cycles is
//! between 1.5 and 2 times the input load."

/// Accumulated delta-cycle statistics for a simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// System cycles simulated.
    pub system_cycles: u64,
    /// Total delta cycles (block evaluations).
    pub delta_cycles: u64,
    /// Delta cycles beyond the first evaluation of each block per system
    /// cycle (re-evaluations, §4.2).
    pub re_evaluations: u64,
    /// Delta cycles spent in the most recent system cycle.
    pub deltas_last_cycle: u64,
    /// Largest delta-cycle count observed in a single system cycle.
    pub max_deltas_in_cycle: u64,
}

impl DeltaStats {
    /// Record one completed system cycle that took `deltas` evaluations of
    /// a system with `num_blocks` blocks.
    pub fn record_cycle(&mut self, deltas: u64, num_blocks: u64) {
        self.system_cycles += 1;
        self.delta_cycles += deltas;
        self.re_evaluations += deltas.saturating_sub(num_blocks);
        self.deltas_last_cycle = deltas;
        self.max_deltas_in_cycle = self.max_deltas_in_cycle.max(deltas);
    }

    /// Record `k` completed system cycles of `deltas` evaluations each:
    /// exactly `k` calls of [`record_cycle`](Self::record_cycle), in
    /// O(1). The compiled engine's idle fast-forward uses it — the FPGA
    /// spends the delta cycles of a sleeping block all the same.
    pub fn record_cycles(&mut self, k: u64, deltas: u64, num_blocks: u64) {
        if k == 0 {
            return;
        }
        self.system_cycles += k;
        self.delta_cycles += k * deltas;
        self.re_evaluations += k * deltas.saturating_sub(num_blocks);
        self.deltas_last_cycle = deltas;
        self.max_deltas_in_cycle = self.max_deltas_in_cycle.max(deltas);
    }

    /// Mean delta cycles per system cycle.
    pub fn avg_deltas_per_cycle(&self) -> f64 {
        if self.system_cycles == 0 {
            0.0
        } else {
            self.delta_cycles as f64 / self.system_cycles as f64
        }
    }

    /// Fraction of delta cycles that are re-evaluations, relative to the
    /// minimum (`num_blocks` per cycle). This is the paper's "percentage of
    /// extra delta cycles".
    pub fn extra_fraction(&self, num_blocks: u64) -> f64 {
        let min = self.system_cycles * num_blocks;
        if min == 0 {
            0.0
        } else {
            self.re_evaluations as f64 / min as f64
        }
    }

    /// Serialize all counters for a durable checkpoint.
    pub fn encode(&self, e: &mut crate::wire::Enc) {
        e.u64(self.system_cycles);
        e.u64(self.delta_cycles);
        e.u64(self.re_evaluations);
        e.u64(self.deltas_last_cycle);
        e.u64(self.max_deltas_in_cycle);
    }

    /// Rebuild counters encoded by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// [`crate::wire::WireError`] on underrun.
    pub fn decode(d: &mut crate::wire::Dec<'_>) -> Result<Self, crate::wire::WireError> {
        Ok(DeltaStats {
            system_cycles: d.u64()?,
            delta_cycles: d.u64()?,
            re_evaluations: d.u64()?,
            deltas_last_cycle: d.u64()?,
            max_deltas_in_cycle: d.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting() {
        let mut s = DeltaStats::default();
        s.record_cycle(36, 36);
        s.record_cycle(40, 36);
        s.record_cycle(38, 36);
        assert_eq!(s.system_cycles, 3);
        assert_eq!(s.delta_cycles, 114);
        assert_eq!(s.re_evaluations, 6);
        assert_eq!(s.deltas_last_cycle, 38);
        assert_eq!(s.max_deltas_in_cycle, 40);
        assert!((s.avg_deltas_per_cycle() - 38.0).abs() < 1e-12);
        assert!((s.extra_fraction(36) - 6.0 / 108.0).abs() < 1e-12);
    }

    #[test]
    fn record_cycles_equals_repeated_record_cycle() {
        for (k, deltas, blocks) in [(0u64, 36u64, 36u64), (1, 36, 36), (7, 40, 36), (512, 9, 36)] {
            let mut seed = DeltaStats::default();
            seed.record_cycle(38, 36);
            let (mut batch, mut single) = (seed.clone(), seed);
            batch.record_cycles(k, deltas, blocks);
            for _ in 0..k {
                single.record_cycle(deltas, blocks);
            }
            assert_eq!(batch, single, "k={k} deltas={deltas}");
        }
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = DeltaStats::default();
        assert_eq!(s.avg_deltas_per_cycle(), 0.0);
        assert_eq!(s.extra_fraction(10), 0.0);
    }
}
