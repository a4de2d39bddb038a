//! Dynamic-schedule engine for systems with combinatorial boundaries
//! (paper §4.2, Fig 5).
//!
//! Links have a single memory slot plus a Has-Been-Read bit. Each system
//! cycle starts by clearing every HBR bit, which guarantees each block is
//! evaluated at least once ("this is necessary as a router might change its
//! outputs independent of its inputs"). A round-robin scheduler then picks
//! non-stable blocks — a block is stable when it has been evaluated and all
//! links adjacent to it (inputs *and* outputs) carry the valid bit — until
//! the whole system is stable, at which point the state banks are swapped
//! and simulated time advances.

use crate::block::SystemSpec;
use crate::counters::DeltaStats;
use crate::error::SimError;
use crate::instrument::KernelInstr;
use crate::links::LinkMemory;
use crate::profiler::KernelProfiler;
use crate::side::SideMem;
use crate::state::StateMemory;
use crate::trace::{ScheduleTrace, TraceEvent};
use crate::worklist::Worklist;
use std::sync::Arc;

/// One contiguous run of a [`HybridSchedule`]'s evaluation order: the
/// blocks of one SCC of the condensed spec graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HybridRun {
    /// First index into [`HybridSchedule::order`].
    pub start: usize,
    /// Number of blocks in the run.
    pub len: usize,
    /// `false` for a singleton SCC: in condensation topological order
    /// the block's inputs are already settled when it is reached, so it
    /// is evaluated exactly once (§4.1 static behaviour). `true` for a
    /// multi-block (or self-looping) SCC, which the HBR worklist
    /// iterates to its fixed point (§4.2).
    pub fixed_point: bool,
}

/// An analyzer-derived evaluation order: the topological order of the
/// spec graph's SCC condensation, one [`HybridRun`] per SCC.
///
/// Executed by [`Scheduling::Hybrid`], the order is driven through the
/// engine's ordinary HBR worklist with the round-robin position reset to
/// the head of the order each system cycle. The HBR machinery is what
/// makes the schedule *safe* regardless of the analysis: a block whose
/// inputs change after its evaluation is simply re-evaluated, so
/// behaviour stays bit-identical to any other order (the engine's
/// order-independence property). What the analysis buys is that blocks
/// in singleton SCCs are provably never re-armed — they run exactly once
/// per cycle — and re-evaluation is confined to the multi-block SCCs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HybridSchedule {
    /// Evaluation order: a permutation of block ids, SCCs contiguous,
    /// condensation-topologically sorted.
    pub order: Vec<usize>,
    /// The SCC runs partitioning `order`.
    pub runs: Vec<HybridRun>,
}

impl HybridSchedule {
    /// Number of blocks in singleton (single-evaluation) runs.
    pub fn static_blocks(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| !r.fixed_point)
            .map(|r| r.len)
            .sum()
    }

    /// Panic unless `order` is a permutation of `0..n` and `runs`
    /// partitions it contiguously.
    pub fn assert_valid(&self, n: usize) {
        assert_eq!(self.order.len(), n, "schedule must cover all blocks");
        let mut seen = vec![false; n];
        for &b in &self.order {
            assert!(b < n && !seen[b], "schedule order is not a permutation");
            seen[b] = true;
        }
        let mut at = 0usize;
        for r in &self.runs {
            assert_eq!(r.start, at, "schedule runs must tile the order");
            assert!(r.len > 0, "empty schedule run");
            at += r.len;
        }
        assert_eq!(at, n, "schedule runs must cover the order");
    }
}

/// Scheduling policy of the sequential simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Scheduling {
    /// The paper's scheduler: HBR status bits + round-robin over
    /// non-stable blocks, driven by the incremental [`Worklist`] — O(1)
    /// scheduler work per delta cycle, same evaluation sequence as the
    /// naive scan (verified by `tests/worklist_differential.rs`).
    HbrRoundRobin,
    /// The same scheduler computed the obvious way: a full O(n × links)
    /// stability rescan per delta cycle. Retained as the differential
    /// reference for [`HbrRoundRobin`](Scheduling::HbrRoundRobin) and as
    /// the measurable pre-optimisation baseline.
    HbrRoundRobinNaive,
    /// Ablation baseline: repeat full evaluation passes over all blocks
    /// until a pass changes no link value (no HBR bookkeeping; typically
    /// many more delta cycles).
    FullPasses,
    /// An analyzer-derived [`HybridSchedule`] (see `speccheck`): the HBR
    /// worklist sweeps the condensation-topological order from its head
    /// every system cycle, evaluating singleton-SCC blocks exactly once
    /// and iterating only inside multi-block SCCs. Bit-identical to
    /// [`HbrRoundRobin`](Scheduling::HbrRoundRobin); fewer delta cycles
    /// wherever the order avoids avoidable re-evaluations.
    Hybrid(Arc<HybridSchedule>),
}

/// A host-visible checkpoint of a running engine.
///
/// Paper §5.1: "All registers and memory of the FPGA design, via the
/// memory interface, are available in the address map of the ARM9
/// processor" — the host can read and later rewrite the complete
/// simulator state. Snapshots capture the state memory, the link memory,
/// the side (BRAM) memory and the scheduler position; restoring one
/// resumes a bit-identical simulation.
#[derive(Debug, Clone)]
pub struct Snapshot {
    state: StateMemory,
    links: LinkMemory,
    side: SideMem,
    rr_pos: usize,
    cycle: u64,
    stats: DeltaStats,
}

impl Snapshot {
    /// Serialize the snapshot for a durable checkpoint.
    pub fn encode(&self, e: &mut crate::wire::Enc) {
        self.state.encode(e);
        self.links.encode(e);
        self.side.encode(e);
        e.usize(self.rr_pos);
        e.u64(self.cycle);
        self.stats.encode(e);
    }

    /// Rebuild a snapshot encoded by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// [`crate::wire::WireError`] when the payload is truncated or
    /// internally inconsistent.
    pub fn decode(d: &mut crate::wire::Dec<'_>) -> Result<Self, crate::wire::WireError> {
        Ok(Snapshot {
            state: StateMemory::decode(d)?,
            links: LinkMemory::decode(d)?,
            side: SideMem::decode(d)?,
            rr_pos: d.usize()?,
            cycle: d.u64()?,
            stats: DeltaStats::decode(d)?,
        })
    }
}

/// Sequential engine with the paper's dynamic (HBR-driven) schedule.
pub struct DynamicEngine {
    spec: SystemSpec,
    state: StateMemory,
    links: LinkMemory,
    side: SideMem,
    scheduling: Scheduling,
    /// Base evaluation order (a permutation of block ids); the round-robin
    /// scan walks this order.
    order: Vec<usize>,
    /// Position in `order` where the next round-robin scan starts.
    rr_pos: usize,
    /// Restart the round-robin scan at the head of `order` every system
    /// cycle (instead of continuing from where the last cycle stopped).
    /// Implied by [`Scheduling::Hybrid`] — a topological sweep must
    /// start at the condensation head — and settable on its own for
    /// differential testing.
    sweep_from_head: bool,
    evaluated: Vec<bool>,
    cycle: u64,
    stats: DeltaStats,
    trace: Option<ScheduleTrace>,
    instr: KernelInstr,
    in_buf: Vec<u64>,
    out_buf: Vec<u64>,
    /// Scratch for the links an evaluation changed; only filled while a
    /// trace is attached (the hot path tracks a bool instead).
    changed_buf: Vec<usize>,
    /// Incremental stability tracker (derived state, rebuilt per cycle);
    /// consulted only under [`Scheduling::HbrRoundRobin`] but kept
    /// consistent by `eval_block` under every policy.
    worklist: Worklist,
    /// Delta-cycle budget per system cycle, as a multiple of the block
    /// count; exceeded means a non-converging combinational loop.
    cap_factor: usize,
    /// Delta cycles spent in the system cycle currently open (between
    /// `begin_cycle` and `finish_cycle`): the per-cycle budget and the
    /// trace's delta numbering count from it.
    delta_in_cycle: u32,
    /// The first error this engine hit. Once set, every further
    /// `try_*` call returns a clone of it: a diverged engine holds a
    /// half-settled cycle whose state must not be advanced further.
    broken: Option<SimError>,
    /// Per-block/per-SCC profiler (`None` = off: the hot path pays one
    /// pointer null-check per evaluation, nothing else).
    profiler: Option<Box<KernelProfiler>>,
}

impl DynamicEngine {
    /// Build an engine over `spec` with round-robin base order `0..n`.
    pub fn new(spec: SystemSpec) -> Self {
        let order = (0..spec.blocks().len()).collect();
        Self::with_order(spec, order)
    }

    /// Build an engine with an explicit base order (a permutation of block
    /// ids). Evaluation order affects only the delta-cycle count, never the
    /// simulated behaviour; the tests verify both properties.
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
        let links = LinkMemory::new(spec.links());
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
        let n = spec.blocks().len();
        let worklist = Worklist::new(&spec, &order);
        DynamicEngine {
            spec,
            state,
            links,
            side,
            scheduling: Scheduling::HbrRoundRobin,
            order,
            rr_pos: 0,
            sweep_from_head: false,
            evaluated: vec![false; n],
            cycle: 0,
            stats: DeltaStats::default(),
            trace: None,
            instr: KernelInstr::disabled(),
            in_buf: vec![0; max_ports],
            out_buf: vec![0; max_ports],
            changed_buf: Vec::with_capacity(max_ports),
            worklist,
            cap_factor: 64,
            delta_in_cycle: 0,
            broken: None,
            profiler: None,
        }
    }

    /// Set the convergence watchdog budget: a system cycle may spend at
    /// most `cap_factor × blocks` delta cycles before
    /// [`SimError::Diverged`] is raised (default 64).
    pub fn set_delta_budget(&mut self, cap_factor: usize) {
        assert!(cap_factor > 0, "delta budget must be positive");
        self.cap_factor = cap_factor;
    }

    /// Select the scheduling policy (default [`Scheduling::HbrRoundRobin`]).
    ///
    /// Selecting [`Scheduling::Hybrid`] adopts the schedule's evaluation
    /// order (replacing the engine's base order, rebuilding the
    /// worklist) and turns on the per-cycle sweep reset. Call between
    /// system cycles.
    ///
    /// # Panics
    /// If a hybrid schedule does not cover this spec's blocks.
    pub fn set_scheduling(&mut self, s: Scheduling) {
        if let Scheduling::Hybrid(schedule) = &s {
            schedule.assert_valid(self.spec.blocks().len());
            self.order = schedule.order.clone();
            self.worklist = Worklist::new(&self.spec, &self.order);
            self.rr_pos = 0;
            self.sweep_from_head = true;
        }
        self.scheduling = s;
    }

    /// Restart the round-robin scan at the head of the base order every
    /// system cycle. [`Scheduling::Hybrid`] implies this; exposing it
    /// separately lets a differential test drive a plain
    /// [`Scheduling::HbrRoundRobin`] engine through the exact evaluation
    /// sequence a hybrid engine with the same order produces.
    pub fn set_sweep_reset(&mut self, on: bool) {
        self.sweep_from_head = on;
    }

    /// Enable schedule tracing (Fig 5 reproduction).
    pub fn enable_trace(&mut self) {
        self.trace = Some(ScheduleTrace::default());
    }

    /// Enable schedule tracing with an event cap: once `limit` events
    /// are held, further events are dropped and counted.
    pub fn enable_trace_limited(&mut self, limit: usize) {
        self.trace = Some(ScheduleTrace::with_limit(limit));
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&ScheduleTrace> {
        self.trace.as_ref()
    }

    /// Attach metrics/tracing instrumentation (see [`KernelInstr`]).
    pub fn set_instrumentation(&mut self, instr: KernelInstr) {
        self.instr = instr;
    }

    /// Attach a per-block/per-SCC profiler (see [`KernelProfiler`]).
    /// Replaces any previous profiler. Call between system cycles.
    pub fn attach_profiler(&mut self, p: KernelProfiler) {
        self.profiler = Some(Box::new(p));
    }

    /// Detach and return the profiler, if one was attached.
    pub fn take_profiler(&mut self) -> Option<Box<KernelProfiler>> {
        self.profiler.take()
    }

    /// The attached profiler, if any.
    pub fn profiler(&self) -> Option<&KernelProfiler> {
        self.profiler.as_deref()
    }

    /// Is block `b` stable? (evaluated, and every adjacent link read.)
    fn stable(&self, b: usize) -> bool {
        if !self.evaluated[b] {
            return false;
        }
        let inst = &self.spec.blocks()[b];
        inst.inputs
            .iter()
            .chain(inst.outputs.iter())
            .all(|&l| self.links.hbr(l))
    }

    /// Evaluate block `b` once (one delta cycle). Returns `true` when any
    /// output link value changed.
    fn eval_block(&mut self, b: usize, delta: u32) -> bool {
        // Timestamp covers the whole evaluation (input gather through
        // worklist updates), so per-block self time sums to the loop's
        // wall time minus only the scheduler's block-picking overhead.
        let prof_t0 = self.profiler.as_ref().and_then(|p| p.begin_eval());
        let inst = &self.spec.blocks()[b];
        for (i, &l) in inst.inputs.iter().enumerate() {
            self.in_buf[i] = self.links.value(l);
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
        let re_evaluation = self.evaluated[b];
        self.evaluated[b] = true;
        if !re_evaluation {
            self.worklist.on_first_eval(b);
        }
        for &l in &inst.inputs {
            if self.links.mark_read(l) {
                self.worklist.on_read(l);
            }
        }
        let tracing = self.trace.is_some();
        self.changed_buf.clear();
        let mut any_changed = false;
        for (o, &l) in inst.outputs.iter().enumerate() {
            let (changed, rearmed) = self.links.write_tracked(l, self.out_buf[o]);
            if changed {
                any_changed = true;
                if tracing {
                    self.changed_buf.push(l);
                }
            }
            if rearmed {
                self.worklist.on_rearm(l);
            }
            // Dangling outputs have no reader; auto-read keeps the writer
            // from looking eternally unstable.
            if self.spec.links()[l].consumer.is_none() && self.links.mark_read(l) {
                self.worklist.on_read(l);
            }
        }
        self.instr.record_eval(self.cycle, delta, b, re_evaluation);
        if let Some(p) = self.profiler.as_mut() {
            p.end_eval(b, re_evaluation, prof_t0);
        }
        if let Some(t) = self.trace.as_mut() {
            t.push(TraceEvent {
                system_cycle: self.cycle,
                delta,
                block: b,
                changed_links: self.changed_buf.clone(),
                re_evaluation,
            });
        }
        any_changed
    }

    /// Simulate one system cycle: reset HBR bits, evaluate until stable,
    /// swap the state banks.
    ///
    /// Panics if the cycle diverges; use [`try_step`](Self::try_step) to
    /// receive [`SimError::Diverged`] instead.
    pub fn step(&mut self) {
        match self.try_step() {
            Ok(()) => {}
            Err(e) => panic!("{e}"),
        }
    }

    /// Simulate one system cycle, surfacing divergence as a typed error
    /// instead of a panic. After an error the engine is *broken*: the
    /// half-settled cycle is not committed and every further `try_*`
    /// call returns the same error (restore a [`Snapshot`] to recover).
    pub fn try_step(&mut self) -> Result<(), SimError> {
        self.begin_cycle();
        self.try_stabilize()?;
        self.finish_cycle();
        Ok(())
    }

    /// Open a system cycle: reset every HBR bit ("Every system cycle is
    /// started by resetting all status bits to zero"), mark every block
    /// unevaluated and zero the cycle's delta counter.
    fn begin_cycle(&mut self) {
        self.links.reset_hbr();
        self.evaluated.iter_mut().for_each(|e| *e = false);
        self.worklist.begin_cycle();
        self.delta_in_cycle = 0;
        if self.sweep_from_head {
            self.rr_pos = 0;
        }
        if let Some(p) = self.profiler.as_mut() {
            p.begin_cycle();
        }
    }

    /// Evaluate until every block is stable under the configured
    /// scheduling policy, and return the number of delta cycles spent.
    /// The convergence watchdog surfaces as a typed error: once
    /// `cap_factor × blocks` delta cycles have been spent inside one
    /// system cycle without reaching the fixed point, returns
    /// [`SimError::Diverged`] naming the still-unstable blocks
    /// (identically under all three scheduling policies) and marks the
    /// engine broken.
    fn try_stabilize(&mut self) -> Result<u32, SimError> {
        if let Some(e) = &self.broken {
            return Err(e.clone());
        }
        let n = self.spec.blocks().len();
        let cap = (self.cap_factor * n) as u32;
        let before = self.delta_in_cycle;
        let mut delta = self.delta_in_cycle;
        // Cheap clone (at most one Arc bump) so the arms can borrow
        // `self` mutably.
        let scheduling = self.scheduling.clone();
        match scheduling {
            // Round-robin pick of the first non-stable block — the
            // incremental tracker's bitset scan returns exactly the
            // block the naive rescan below would find. A hybrid
            // schedule runs on the identical machinery: its analysis
            // went into the base order and the per-cycle sweep reset,
            // so the worklist sweep visits the condensation in
            // topological order and never re-arms a singleton SCC.
            Scheduling::HbrRoundRobin | Scheduling::Hybrid(_) => {
                while let Some(pos) = self.worklist.next_unstable(self.rr_pos) {
                    let b = self.order[pos];
                    debug_assert!(!self.stable(b));
                    self.rr_pos = (pos + 1) % n;
                    self.eval_block(b, delta);
                    delta += 1;
                    if delta >= cap {
                        return Err(self.diverge(cap, delta));
                    }
                }
            }
            Scheduling::HbrRoundRobinNaive => loop {
                // Reference implementation: full stability rescan per delta.
                let mut found = None;
                for i in 0..n {
                    let b = self.order[(self.rr_pos + i) % n];
                    if !self.stable(b) {
                        found = Some((i, b));
                        break;
                    }
                }
                let Some((i, b)) = found else { break };
                self.rr_pos = (self.rr_pos + i + 1) % n;
                self.eval_block(b, delta);
                delta += 1;
                if delta >= cap {
                    return Err(self.diverge(cap, delta));
                }
            },
            Scheduling::FullPasses => loop {
                let mut pass_changed = false;
                for i in 0..n {
                    let b = self.order[i];
                    pass_changed |= self.eval_block(b, delta);
                    delta += 1;
                    if delta >= cap {
                        return Err(self.diverge(cap, delta));
                    }
                }
                if !pass_changed {
                    break;
                }
            },
        }
        self.delta_in_cycle = delta;
        Ok(delta - before)
    }

    /// Record and return the divergence error for the current cycle.
    fn diverge(&mut self, cap: u32, delta: u32) -> SimError {
        self.delta_in_cycle = delta;
        let unstable_blocks: Vec<usize> = self
            .order
            .iter()
            .copied()
            .filter(|&b| !self.stable(b))
            .collect();
        let last_trace = self.trace.as_ref().map_or_else(Vec::new, |t| {
            let tail = t.events.len().saturating_sub(16);
            t.events[tail..].to_vec()
        });
        let e = SimError::Diverged {
            cycle: self.cycle,
            budget: cap,
            unstable_blocks,
            last_trace,
        };
        self.broken = Some(e.clone());
        e
    }

    /// Close a system cycle: swap the state banks, record the delta
    /// accounting and advance simulated time.
    fn finish_cycle(&mut self) {
        let n = self.spec.blocks().len();
        let delta = self.delta_in_cycle;
        self.state.swap();
        self.stats.record_cycle(delta as u64, n as u64);
        self.instr.record_cycle(self.cycle, delta as u64, n as u64);
        if let Some(p) = self.profiler.as_mut() {
            p.end_cycle();
        }
        self.cycle += 1;
        self.delta_in_cycle = 0;
    }

    /// Simulate `n` system cycles. Panics on divergence; see
    /// [`try_run`](Self::try_run).
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Simulate `n` system cycles, stopping at the first
    /// [`SimError::Diverged`].
    pub fn try_run(&mut self, n: u64) -> Result<(), SimError> {
        for _ in 0..n {
            self.try_step()?;
        }
        Ok(())
    }

    /// The first error this engine hit, if it is broken.
    pub fn error(&self) -> Option<&SimError> {
        self.broken.as_ref()
    }

    /// Current system cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Current value of link `l`.
    pub fn link_value(&self, l: usize) -> u64 {
        self.links.value(l)
    }

    /// Host write to an external link (between system cycles).
    pub fn set_external(&mut self, l: usize, value: u64) {
        self.links.write_external(l, value);
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

    /// Reset accumulated statistics (e.g. after warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = DeltaStats::default();
    }

    /// Capture a checkpoint (between system cycles).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            state: self.state.clone(),
            links: self.links.clone(),
            side: self.side.clone(),
            rr_pos: self.rr_pos,
            cycle: self.cycle,
            stats: self.stats.clone(),
        }
    }

    /// Restore a checkpoint taken from this engine (or an identically
    /// built one). Subsequent simulation is bit-identical to the
    /// original run.
    pub fn restore(&mut self, snap: &Snapshot) {
        self.state = snap.state.clone();
        self.links = snap.links.clone();
        self.side = snap.side.clone();
        self.rr_pos = snap.rr_pos;
        self.cycle = snap.cycle;
        self.stats = snap.stats.clone();
        self.evaluated.iter_mut().for_each(|e| *e = false);
        self.delta_in_cycle = 0;
        self.broken = None;
    }

    /// Side memory (host reads results).
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
