//! Kernel instrumentation — the delta-cycle engines' connection to the
//! [`simtrace`] observability layer.
//!
//! The engines hold a [`KernelInstr`] unconditionally. The default
//! ([`KernelInstr::disabled`]) is a no-op tracer plus detached counters
//! (single relaxed atomics that nothing reads), so the uninstrumented
//! hot path costs a handful of uncontended atomic adds per *system*
//! cycle. Wiring a registry ([`KernelInstr::with_registry`]) swaps in
//! registered counters and an enabled tracer; the engine code does not
//! change.

use simtrace::{lbl, Counter, Hist, Registry, Tracer};

/// Instrumentation handles threaded through a delta-cycle engine.
#[derive(Clone)]
pub struct KernelInstr {
    /// Event tracer (disabled by default). When
    /// [`Tracer::detail`] is set, engines additionally emit one
    /// `kernel.eval` instant per delta cycle (block evaluation).
    pub tracer: Tracer,
    /// System cycles simulated (`kernel.cycles`).
    pub cycles: Counter,
    /// Delta cycles, i.e. block evaluations (`kernel.evals`).
    pub evals: Counter,
    /// Delta cycles beyond the per-cycle minimum of one evaluation per
    /// block (`kernel.re_evals`).
    pub re_evals: Counter,
    /// Re-evaluations forced by HBR invalidation in the dynamic
    /// scheduler — a block evaluated again after its first evaluation
    /// of the system cycle (`kernel.hbr_retries`).
    pub hbr_retries: Counter,
    /// Distribution of delta cycles per system cycle
    /// (`kernel.deltas_per_cycle`) — the percentile view of the paper's
    /// "1.5–2× input load" re-evaluation overhead.
    pub deltas_hist: Hist,
}

impl KernelInstr {
    /// The default no-op instrumentation.
    pub fn disabled() -> Self {
        KernelInstr {
            tracer: Tracer::disabled(),
            cycles: Counter::detached(),
            evals: Counter::detached(),
            re_evals: Counter::detached(),
            hbr_retries: Counter::detached(),
            deltas_hist: Hist::detached(),
        }
    }

    /// Instrumentation publishing into `registry` under an `engine`
    /// label, tracing into `tracer`.
    pub fn with_registry(registry: &Registry, tracer: Tracer, engine: &str) -> Self {
        let labels = [("engine", lbl(engine))];
        KernelInstr {
            tracer,
            cycles: registry.counter("kernel.cycles", &labels),
            evals: registry.counter("kernel.evals", &labels),
            re_evals: registry.counter("kernel.re_evals", &labels),
            hbr_retries: registry.counter("kernel.hbr_retries", &labels),
            deltas_hist: registry.hist("kernel.deltas_per_cycle", &labels),
        }
    }

    /// Record one completed system cycle of a system with `blocks`
    /// blocks that took `deltas` evaluations. Emits the per-cycle
    /// kernel event and counter track when tracing is on.
    #[inline]
    pub fn record_cycle(&self, cycle: u64, deltas: u64, blocks: u64) {
        self.cycles.inc();
        self.evals.add(deltas);
        let re = deltas.saturating_sub(blocks);
        self.re_evals.add(re);
        self.deltas_hist.record(deltas);
        if self.tracer.enabled() {
            self.tracer.instant(
                "kernel.cycle",
                "kernel",
                &[
                    ("cycle", cycle.into()),
                    ("deltas", deltas.into()),
                    ("re_evals", re.into()),
                ],
            );
            self.tracer.counter(
                "kernel.deltas",
                &[("deltas", deltas as f64), ("re_evals", re as f64)],
            );
        }
    }

    /// Record one block evaluation (one delta cycle). Only emits an
    /// event when the tracer is in detail mode; the counters for this
    /// are aggregated per cycle in [`record_cycle`](Self::record_cycle).
    #[inline]
    pub fn record_eval(&self, cycle: u64, delta: u32, block: usize, re_evaluation: bool) {
        if re_evaluation {
            self.hbr_retries.inc();
        }
        if self.tracer.detail() {
            self.tracer.instant(
                "kernel.eval",
                "kernel",
                &[
                    ("cycle", cycle.into()),
                    ("delta", (delta as u64).into()),
                    ("block", block.into()),
                    ("re_eval", (re_evaluation as u64).into()),
                ],
            );
        }
    }
}

impl Default for KernelInstr {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_into_detached_counters() {
        let i = KernelInstr::disabled();
        i.record_cycle(0, 40, 36);
        i.record_eval(0, 38, 3, true);
        assert_eq!(i.cycles.get(), 1);
        assert_eq!(i.evals.get(), 40);
        assert_eq!(i.re_evals.get(), 4);
        assert_eq!(i.hbr_retries.get(), 1);
        assert_eq!(i.tracer.len(), 0);
    }

    #[test]
    fn registry_wiring_publishes_counters_and_events() {
        let r = Registry::new();
        let t = Tracer::new();
        let i = KernelInstr::with_registry(&r, t.clone(), "dynamic");
        i.record_cycle(7, 20, 16);
        assert_eq!(
            r.counter_value("kernel.evals", &[("engine", lbl("dynamic"))]),
            Some(20)
        );
        assert_eq!(
            r.counter_value("kernel.re_evals", &[("engine", lbl("dynamic"))]),
            Some(4)
        );
        // One instant + one counter sample per cycle.
        assert_eq!(t.len(), 2);
        // Detail off: eval events are not recorded, retries still count.
        i.record_eval(7, 3, 1, true);
        assert_eq!(t.len(), 2);
        assert_eq!(
            r.counter_value("kernel.hbr_retries", &[("engine", lbl("dynamic"))]),
            Some(1)
        );
    }

    #[test]
    fn detailed_tracer_gets_eval_events() {
        let r = Registry::new();
        let t = Tracer::new_detailed();
        let i = KernelInstr::with_registry(&r, t.clone(), "dynamic");
        i.record_eval(1, 0, 5, false);
        assert_eq!(t.event_names(), vec!["kernel.eval"]);
    }
}
