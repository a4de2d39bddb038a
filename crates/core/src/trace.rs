//! Schedule tracing — regenerates the paper's Fig 3 (static schedule) and
//! Fig 5 (dynamic schedule with re-evaluations).

use crate::block::{BlockId, LinkId};

/// One delta cycle in a recorded schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// System cycle the evaluation belongs to.
    pub system_cycle: u64,
    /// Delta index within the system cycle (0-based).
    pub delta: u32,
    /// Which block was evaluated.
    pub block: BlockId,
    /// Output links whose value *changed* (underlined values in Fig 5).
    pub changed_links: Vec<LinkId>,
    /// Whether this was a re-evaluation (the block had already been
    /// evaluated in this system cycle).
    pub re_evaluation: bool,
}

/// A recording of the delta-cycle schedule of a run. It is unbounded:
/// the Fig 3/Fig 5 reproductions trace a handful of cycles.
#[derive(Debug, Clone, Default)]
pub struct ScheduleTrace {
    /// Recorded events in execution order.
    pub events: Vec<TraceEvent>,
}

impl ScheduleTrace {
    /// Record one event.
    pub fn push(&mut self, e: TraceEvent) {
        self.events.push(e);
    }

    /// Render the trace in the paper's `(system, delta)` notation, e.g.
    /// `(1,2): eval B0 *re-eval* [link 2 changed]`.
    pub fn render(&self) -> String {
        use core::fmt::Write;
        let mut out = String::new();
        for e in &self.events {
            let _ = write!(out, "({},{}): eval B{}", e.system_cycle, e.delta, e.block);
            if e.re_evaluation {
                let _ = write!(out, " *re-eval*");
            }
            if !e.changed_links.is_empty() {
                let links: Vec<String> = e.changed_links.iter().map(|l| format!("L{l}")).collect();
                let _ = write!(out, " [changed {}]", links.join(","));
            }
            out.push('\n');
        }
        out
    }

    /// The compact `(cycle,delta)->block` tuples, convenient for golden
    /// assertions.
    pub fn tuples(&self) -> Vec<(u64, u32, BlockId)> {
        self.events
            .iter()
            .map(|e| (e.system_cycle, e.delta, e.block))
            .collect()
    }

    /// The `(cycle, delta)` coordinates of re-evaluations — the paper's
    /// "delta cycle (1,1);(1,2);(2,0);(2,1)" enumeration for Fig 5.
    pub fn re_evaluations(&self) -> Vec<(u64, u32)> {
        self.events
            .iter()
            .filter(|e| e.re_evaluation)
            .map(|e| (e.system_cycle, e.delta))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_format() {
        let mut t = ScheduleTrace::default();
        t.push(TraceEvent {
            system_cycle: 0,
            delta: 0,
            block: 2,
            changed_links: vec![],
            re_evaluation: false,
        });
        t.push(TraceEvent {
            system_cycle: 1,
            delta: 2,
            block: 0,
            changed_links: vec![2],
            re_evaluation: true,
        });
        let s = t.render();
        assert!(s.contains("(0,0): eval B2"));
        assert!(s.contains("(1,2): eval B0 *re-eval* [changed L2]"));
        assert_eq!(t.re_evaluations(), vec![(1, 2)]);
        assert_eq!(t.tuples()[0], (0, 0, 2));
    }

    fn ev(cycle: u64, delta: u32) -> TraceEvent {
        TraceEvent {
            system_cycle: cycle,
            delta,
            block: 0,
            changed_links: vec![],
            re_evaluation: false,
        }
    }

    #[test]
    fn unlimited_trace_never_drops() {
        let mut t = ScheduleTrace::default();
        for i in 0..100 {
            t.push(ev(i, 0));
        }
        assert_eq!(t.events.len(), 100);
        assert_eq!(t.tuples()[99], (99, 0, 0));
    }
}
