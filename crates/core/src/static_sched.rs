//! Static-schedule engine for systems with registered boundaries
//! (paper §4.1, Fig 3).
//!
//! "The order in which the circuitry is evaluated to calculate new register
//! values can be arbitrary, because for all parts of the system a
//! previously calculated register value is used at input [...] After all
//! three functions are evaluated we should copy the new state to the
//! current state of the registers [...] this copy action is performed by
//! switching the offset pointer."
//!
//! Inter-block links are treated as *registered*: evaluations read the link
//! bank written in the previous system cycle and write a separate next
//! bank, which is swapped at the cycle boundary. This engine is only
//! correct for systems whose block outputs are functions of registered
//! state alone; for combinatorial boundaries use
//! [`DynamicEngine`](crate::dynamic_sched::DynamicEngine).

use crate::block::{LinkDriver, SystemSpec};
use crate::counters::DeltaStats;
use crate::instrument::KernelInstr;
use crate::side::SideMem;
use crate::state::StateMemory;
use crate::trace::{ScheduleTrace, TraceEvent};

/// Sequential engine with a static (fixed-order) schedule and
/// double-banked links.
pub struct StaticEngine {
    spec: SystemSpec,
    state: StateMemory,
    links_cur: Vec<u64>,
    links_next: Vec<u64>,
    side: SideMem,
    order: Vec<usize>,
    cycle: u64,
    stats: DeltaStats,
    trace: Option<ScheduleTrace>,
    instr: KernelInstr,
    in_buf: Vec<u64>,
    out_buf: Vec<u64>,
    /// Scratch for the links an evaluation changed; only filled while a
    /// trace is attached.
    changed_buf: Vec<usize>,
}

impl StaticEngine {
    /// Build an engine over `spec`, evaluating blocks in index order.
    pub fn new(spec: SystemSpec) -> Self {
        let order = (0..spec.blocks().len()).collect();
        Self::with_order(spec, order)
    }

    /// Build an engine with an explicit evaluation order (a permutation of
    /// block ids). The paper's §4.1 argues the result is order-independent;
    /// the tests verify it.
    pub fn with_order(spec: SystemSpec, order: Vec<usize>) -> Self {
        if let Err(ds) = spec.check() {
            let msgs: Vec<String> = ds.iter().map(|d| d.to_string()).collect();
            panic!("invalid SystemSpec:\n{}", msgs.join("\n"));
        }
        assert_eq!(
            order.len(),
            spec.blocks().len(),
            "order must cover all blocks"
        );
        {
            let mut seen = vec![false; order.len()];
            for &b in &order {
                assert!(!seen[b], "duplicate block {b} in order");
                seen[b] = true;
            }
        }
        let state_bits: Vec<usize> = spec
            .blocks()
            .iter()
            .map(|b| spec.kinds()[b.kind].state_bits())
            .collect();
        let mut state = StateMemory::new(&state_bits);
        for (b, inst) in spec.blocks().iter().enumerate() {
            spec.kinds()[inst.kind].reset(state.cur_mut(b));
            state.copy_cur_to_next(b);
        }
        let links_cur: Vec<u64> = spec.links().iter().map(|l| l.reset_value).collect();
        let links_next = links_cur.clone();
        let per_block_caps: Vec<Vec<usize>> = spec
            .blocks()
            .iter()
            .map(|b| spec.kinds()[b.kind].side_rings())
            .collect();
        let side = SideMem::new(&per_block_caps);
        let max_ports = spec
            .blocks()
            .iter()
            .map(|b| b.inputs.len().max(b.outputs.len()))
            .max()
            .unwrap_or(0);
        StaticEngine {
            spec,
            state,
            links_cur,
            links_next,
            side,
            order,
            cycle: 0,
            stats: DeltaStats::default(),
            trace: None,
            instr: KernelInstr::disabled(),
            in_buf: vec![0; max_ports],
            out_buf: vec![0; max_ports],
            changed_buf: Vec::with_capacity(max_ports),
        }
    }

    /// Enable schedule tracing (Fig 3 reproduction).
    pub fn enable_trace(&mut self) {
        self.trace = Some(ScheduleTrace::default());
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&ScheduleTrace> {
        self.trace.as_ref()
    }

    /// Attach metrics/tracing instrumentation (see [`KernelInstr`]).
    pub fn set_instrumentation(&mut self, instr: KernelInstr) {
        self.instr = instr;
    }

    /// Simulate one system cycle.
    pub fn step(&mut self) {
        let n = self.spec.blocks().len();
        for delta in 0..n {
            let b = self.order[delta];
            let inst = &self.spec.blocks()[b];
            for (i, &l) in inst.inputs.iter().enumerate() {
                self.in_buf[i] = self.links_cur[l];
            }
            let kind = &self.spec.kinds()[inst.kind];
            let n_out = inst.outputs.len();
            let (cur, next) = self.state.cur_and_next_mut(b);
            kind.eval(
                inst.instance_of_kind,
                cur,
                &self.in_buf[..inst.inputs.len()],
                self.cycle,
                next,
                &mut self.out_buf[..n_out],
                &mut self.side.view(b),
            );
            let tracing = self.trace.is_some();
            self.changed_buf.clear();
            for (o, &l) in inst.outputs.iter().enumerate() {
                if tracing && self.links_next[l] != self.out_buf[o] {
                    self.changed_buf.push(l);
                }
                self.links_next[l] = self.out_buf[o];
            }
            self.instr.record_eval(self.cycle, delta as u32, b, false);
            if let Some(t) = self.trace.as_mut() {
                t.push(TraceEvent {
                    system_cycle: self.cycle,
                    delta: delta as u32,
                    block: b,
                    changed_links: self.changed_buf.clone(),
                    re_evaluation: false,
                });
            }
        }
        // Constants and externals hold their value in the next bank too.
        for (l, spec) in self.spec.links().iter().enumerate() {
            if !matches!(spec.driver, LinkDriver::Block { .. }) {
                self.links_next[l] = self.links_cur[l];
            }
        }
        core::mem::swap(&mut self.links_cur, &mut self.links_next);
        self.state.swap();
        self.stats.record_cycle(n as u64, n as u64);
        self.instr.record_cycle(self.cycle, n as u64, n as u64);
        self.cycle += 1;
    }

    /// Simulate `n` system cycles.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Current system cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Current value of link `l` (the registered value readable this cycle).
    pub fn link_value(&self, l: usize) -> u64 {
        self.links_cur[l]
    }

    /// Host write to an external link.
    pub fn set_external(&mut self, l: usize, value: u64) {
        assert!(
            matches!(self.spec.links()[l].driver, LinkDriver::External),
            "link {l} is not external"
        );
        self.links_cur[l] = value;
        self.links_next[l] = value;
    }

    /// Current register state of block `b` (host peek over the memory
    /// interface).
    pub fn peek_state(&self, b: usize) -> &[u64] {
        self.state.cur(b)
    }

    /// Delta statistics so far.
    pub fn stats(&self) -> &DeltaStats {
        &self.stats
    }

    /// Side memory (host access to BRAM rings).
    pub fn side(&self) -> &SideMem {
        &self.side
    }

    /// Mutable side memory (host writes stimuli).
    pub fn side_mut(&mut self) -> &mut SideMem {
        &mut self.side
    }

    /// The system specification.
    pub fn spec(&self) -> &SystemSpec {
        &self.spec
    }
}
