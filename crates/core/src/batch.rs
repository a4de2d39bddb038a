//! Lane-batched execution of a compiled program: N independent
//! simulations advanced in lockstep by one pass over the bytecode.
//!
//! The paper's core economy — all identical blocks share one
//! implementation — generalizes across *simulations*: N instances of the
//! same system (different seeds, fault plans, stimuli) can advance under
//! one walk of the [`CompiledProgram`]'s op list. The
//! [`Arena`](crate::compile::Arena)'s contiguous-`u64` layout turns into
//! a structure-of-arrays with a stride: link `l`, lane `j` lives at
//! `l * lanes + j`, so the per-op dispatch cost (decode, gather/scatter
//! table walk) is paid once per op instead of once per op per
//! simulation.
//!
//! Two lane representations coexist:
//!
//! * **Per-lane words** — one `u64` per lane per link/state word, the
//!   general case. Each op loops over the active lanes, gathering from
//!   and scattering into the strided slabs.
//! * **Bit-packed words** — for width-1 links between
//!   [`bit_parallel`](crate::block::BlockKind::bit_parallel) blocks, 64
//!   lanes share one `u64` (GSIM-style): one `eval` call on the packed
//!   words advances 64 lanes at once. The lowering proves the shape
//!   constraints statically and demotes any block whose neighbourhood
//!   does not cooperate back to per-lane evaluation.
//!
//! Per-lane divergence (a lane whose `FaultPlan` stalls a router, a lane
//! retired early by its host) is handled by *masked scatter*: every lane
//! has an active flag, per-lane ops skip inactive lanes, and bitwise ops
//! AND their writes with an active-mask word, so a halted lane's state
//! stays bit-exact across bank swaps.

use crate::block::{BitExpr, BlockInst, LinkDriver, SystemSpec};
use crate::compile::{CompileOptions, CompiledExec, CompiledProgram, Op, ProgramMode};
use crate::counters::DeltaStats;
use crate::error::SimError;
use crate::profiler::KernelProfiler;
use crate::side::SideMem;
use noc_types::bits::words_for_bits;
use noc_types::diag::codes;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Structural lane compatibility
// ---------------------------------------------------------------------------

/// Check that every lane spec shares one structure with `specs[0]`:
/// same blocks (kind, shape, state and ring geometry, comb
/// declarations), same links (width, driver class, consumer). Per-lane
/// *contents* — fault plans baked into kinds, link reset values,
/// constant tie-off values — may differ.
///
/// On mismatch returns [`SimError::Config`] carrying the
/// [`BATCH_DIVERGENT_TOPOLOGY`](codes::BATCH_DIVERGENT_TOPOLOGY) code.
pub fn check_lane_structure(specs: &[SystemSpec]) -> Result<(), SimError> {
    let Some(base) = specs.first() else {
        return Err(SimError::Config(
            "batched engine needs at least one lane".into(),
        ));
    };
    let fail = |lane: usize, what: String| {
        SimError::Config(format!(
            "{}: lane {lane} diverges from lane 0: {what}",
            codes::BATCH_DIVERGENT_TOPOLOGY
        ))
    };
    for (lane, spec) in specs.iter().enumerate().skip(1) {
        if spec.kinds().len() != base.kinds().len() {
            return Err(fail(
                lane,
                format!("{} kinds vs {}", spec.kinds().len(), base.kinds().len()),
            ));
        }
        for (k, (ka, kb)) in base.kinds().iter().zip(spec.kinds()).enumerate() {
            if ka.name() != kb.name()
                || ka.state_bits() != kb.state_bits()
                || ka.input_widths() != kb.input_widths()
                || ka.output_widths() != kb.output_widths()
                || ka.side_rings() != kb.side_rings()
                || ka.bit_parallel() != kb.bit_parallel()
            {
                return Err(fail(lane, format!("kind {k} shape differs")));
            }
            for p in 0..ka.output_widths().len() {
                if ka.comb_inputs(p) != kb.comb_inputs(p) {
                    return Err(fail(
                        lane,
                        format!("kind {k} comb declaration differs on port {p}"),
                    ));
                }
                // Bit semantics feed the packed-expression lowering: one
                // shared program evaluates every lane, so the declared
                // boolean model must be lane-invariant.
                if ka.bit_semantics(p) != kb.bit_semantics(p) {
                    return Err(fail(
                        lane,
                        format!("kind {k} bit semantics differ on output {p}"),
                    ));
                }
            }
            for p in 0..ka.input_widths().len() {
                if ka.input_bits_used(p) != kb.input_bits_used(p) {
                    return Err(fail(
                        lane,
                        format!("kind {k} input-bit liveness differs on input {p}"),
                    ));
                }
            }
        }
        if spec.blocks().len() != base.blocks().len() {
            return Err(fail(
                lane,
                format!("{} blocks vs {}", spec.blocks().len(), base.blocks().len()),
            ));
        }
        for (b, (ba, bb)) in base.blocks().iter().zip(spec.blocks()).enumerate() {
            if ba.kind != bb.kind
                || ba.instance_of_kind != bb.instance_of_kind
                || ba.inputs != bb.inputs
                || ba.outputs != bb.outputs
            {
                return Err(fail(lane, format!("block {b} wiring differs")));
            }
        }
        if spec.links().len() != base.links().len() {
            return Err(fail(
                lane,
                format!("{} links vs {}", spec.links().len(), base.links().len()),
            ));
        }
        for (l, (la, lb)) in base.links().iter().zip(spec.links()).enumerate() {
            let driver_class_matches = match (la.driver, lb.driver) {
                (
                    LinkDriver::Block {
                        block: b1,
                        port: p1,
                    },
                    LinkDriver::Block {
                        block: b2,
                        port: p2,
                    },
                ) => b1 == b2 && p1 == p2,
                // Constant *values* are per-lane contents.
                (LinkDriver::Const(_), LinkDriver::Const(_)) => true,
                (LinkDriver::External, LinkDriver::External) => true,
                _ => false,
            };
            if la.width != lb.width || !driver_class_matches || la.consumer != lb.consumer {
                return Err(fail(lane, format!("link {l} shape differs")));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Lowered batched program
// ---------------------------------------------------------------------------

/// One packed move: `buf[port] <-> packed[slab * lane_words + w]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PackedMove {
    port: u32,
    slab: u32,
}

/// A `(start, len)` window into the packed move tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PackedRange {
    start: u32,
    len: u32,
}

impl PackedRange {
    fn as_range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A [`BitExpr`] lowered onto packed slabs: every `In{port,bit}` leaf is
/// resolved to the slab holding that bit lanewise, so one evaluation
/// computes the output bit of up to 64 lanes at once.
#[derive(Debug, Clone)]
enum SlabExpr {
    /// All lanes `0` / all lanes `1`.
    Const(bool),
    /// The packed word of one slab.
    Slab(u32),
    /// Lanewise NOT.
    Not(Box<SlabExpr>),
    /// Lanewise AND.
    And(Box<SlabExpr>, Box<SlabExpr>),
    /// Lanewise OR.
    Or(Box<SlabExpr>, Box<SlabExpr>),
    /// Lanewise XOR.
    Xor(Box<SlabExpr>, Box<SlabExpr>),
}

impl SlabExpr {
    /// Evaluate over packed word `w` of every referenced slab.
    fn eval(&self, packed: &[u64], lane_words: usize, w: usize) -> u64 {
        match self {
            SlabExpr::Const(false) => 0,
            SlabExpr::Const(true) => !0u64,
            SlabExpr::Slab(s) => packed[*s as usize * lane_words + w],
            SlabExpr::Not(a) => !a.eval(packed, lane_words, w),
            SlabExpr::And(a, b) => a.eval(packed, lane_words, w) & b.eval(packed, lane_words, w),
            SlabExpr::Or(a, b) => a.eval(packed, lane_words, w) | b.eval(packed, lane_words, w),
            SlabExpr::Xor(a, b) => a.eval(packed, lane_words, w) ^ b.eval(packed, lane_words, w),
        }
    }

    /// Lower `e` (an output-bit expression of `inst`) onto packed
    /// slabs. `None` when the expression is opaque or references a bit
    /// whose arena word is not packed (the block then stays per-lane).
    fn lower(
        e: &BitExpr,
        inst: &BlockInst,
        scalar: &CompiledProgram,
        packed_of: &[Option<u32>],
    ) -> Option<SlabExpr> {
        let bin = |a: &BitExpr,
                   b: &BitExpr,
                   inst: &BlockInst,
                   scalar: &CompiledProgram,
                   packed_of: &[Option<u32>]|
         -> Option<(Box<SlabExpr>, Box<SlabExpr>)> {
            Some((
                Box::new(SlabExpr::lower(a, inst, scalar, packed_of)?),
                Box::new(SlabExpr::lower(b, inst, scalar, packed_of)?),
            ))
        };
        match e {
            BitExpr::Const(v) => Some(SlabExpr::Const(*v)),
            BitExpr::In { port, bit } => {
                let l = inst.inputs[*port];
                packed_of[scalar.bit_word(l, *bit)].map(SlabExpr::Slab)
            }
            BitExpr::Not(a) => Some(SlabExpr::Not(Box::new(SlabExpr::lower(
                a, inst, scalar, packed_of,
            )?))),
            BitExpr::And(a, b) => {
                let (a, b) = bin(a, b, inst, scalar, packed_of)?;
                Some(SlabExpr::And(a, b))
            }
            BitExpr::Or(a, b) => {
                let (a, b) = bin(a, b, inst, scalar, packed_of)?;
                Some(SlabExpr::Or(a, b))
            }
            BitExpr::Xor(a, b) => {
                let (a, b) = bin(a, b, inst, scalar, packed_of)?;
                Some(SlabExpr::Xor(a, b))
            }
            BitExpr::Opaque { .. } => None,
        }
    }
}

/// One packed-expression write: `packed[slab] = expr` (masked by the
/// active-lane word).
#[derive(Debug, Clone)]
struct ExprWrite {
    slab: u32,
    expr: SlabExpr,
}

/// One batched instruction.
#[derive(Debug, Clone)]
enum BatchOp {
    /// Execute the scalar op once per active lane over the strided
    /// slabs.
    PerLane(Op),
    /// Execute the kind's `eval` once per packed word, advancing up to
    /// 64 lanes per call (width-1 bitwise blocks only).
    Bitwise {
        kind: u32,
        block: u32,
        instance: u32,
        gather: PackedRange,
        scatter: PackedRange,
    },
    /// Evaluate the block's declared [`BitExpr`] semantics directly on
    /// packed slabs, one [`ExprWrite`] per output bit at this comb
    /// level. Requires bitflow-sliced input and output links (every
    /// referenced bit must live in its own packed sub-word); no `eval`
    /// call is made at all.
    Expr { block: u32, writes: Vec<ExprWrite> },
}

/// A [`CompiledProgram`] lowered for lane batching: per-lane ops keep
/// the scalar gather/scatter tables; provably width-1 bitwise blocks get
/// packed-slab ops. Group-size independent — one lowered program is
/// shared (via `Arc`) by every lane group.
#[derive(Debug)]
pub struct BatchedProgram {
    /// The scalar program (lane 0's structure; shared by construction).
    scalar: CompiledProgram,
    ops: Vec<BatchOp>,
    pgathers: Vec<PackedMove>,
    pscatters: Vec<PackedMove>,
    /// Arena word (link id, or per-bit sub-word of a sliced link) ->
    /// packed slab index (None = per-lane representation). Sub-words
    /// always pack: they hold one bit per lane by construction.
    packed_of_link: Vec<Option<u32>>,
    n_packed: usize,
    /// Per-lane deltas per cycle, identical to the scalar engine's
    /// accounting (`ops.len() - update_start`).
    scalar_deltas: u64,
}

impl BatchedProgram {
    /// Lower the scalar `prog` (compiled from `spec`) for batching.
    ///
    /// Only straight-line programs batch: fixed-point mode needs
    /// per-lane change detection with divergent pass counts, which
    /// defeats the lockstep walk. Cyclic specs are rejected with
    /// [`SimError::Config`].
    pub fn lower(spec: &SystemSpec, prog: CompiledProgram) -> Result<BatchedProgram, SimError> {
        let ProgramMode::StraightLine { .. } = prog.mode else {
            return Err(SimError::Config(
                "batched engine requires a straight-line (acyclic) program; \
                 this spec compiled to fixed-point mode"
                    .into(),
            ));
        };
        let blocks = spec.blocks();
        let kinds = spec.kinds();
        let links = spec.links();

        // Bitwise eligibility: the statically checkable half of the
        // `bit_parallel` proof obligation.
        let mut bitwise: Vec<bool> = blocks
            .iter()
            .map(|inst| {
                let k = &kinds[inst.kind];
                k.bit_parallel()
                    && k.state_bits() == 0
                    && k.side_rings().is_empty()
                    && k.input_widths().iter().all(|&w| w == 1)
                    && k.output_widths().iter().all(|&w| w == 1)
            })
            .collect();

        // A link can live packed only between bitwise parties; a block
        // stays bitwise only if *all* its links pack. Iterate the mutual
        // demotion to a fixed point (monotone, terminates).
        fn link_packs(links: &[crate::block::LinkSpec], bitwise: &[bool], l: usize) -> bool {
            let ls = &links[l];
            if ls.width != 1 {
                return false;
            }
            let driver_ok = match ls.driver {
                LinkDriver::Block { block, .. } => bitwise[block],
                LinkDriver::Const(_) | LinkDriver::External => true,
            };
            let consumer_ok = match ls.consumer {
                None => true,
                Some((b, _)) => bitwise[b],
            };
            driver_ok && consumer_ok
        }
        loop {
            let mut changed = false;
            for b in 0..blocks.len() {
                if !bitwise[b] {
                    continue;
                }
                let inst = &blocks[b];
                let ok = inst
                    .inputs
                    .iter()
                    .chain(inst.outputs.iter())
                    .all(|&l| link_packs(links, &bitwise, l));
                if !ok {
                    bitwise[b] = false;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Arena words: spec links first, then per-bit sub-words of
        // sliced links. Width-1 links between bitwise parties pack under
        // the rule above; sub-words pack unconditionally (each holds one
        // bit per lane by construction, whoever reads or writes it).
        let n_words = links.len() + prog.n_sub();
        let mut packed_of_link: Vec<Option<u32>> = vec![None; n_words];
        let mut n_packed = 0usize;
        for l in 0..links.len() {
            if link_packs(links, &bitwise, l) {
                packed_of_link[l] = Some(n_packed as u32);
                n_packed += 1;
            }
        }
        for w in links.len()..n_words {
            packed_of_link[w] = Some(n_packed as u32);
            n_packed += 1;
        }
        let slab_of = |l: usize| -> u32 {
            match packed_of_link[l] {
                Some(s) => s,
                None => unreachable!("bitwise op touches unpacked link {l}"),
            }
        };

        // Packed-expression eligibility: a stateless ring-free block
        // whose every output bit has a pure declared `BitExpr` and whose
        // every referenced bit (inputs and outputs) lives in a packed
        // word. In practice that means bitflow sliced the block's links:
        // unsliced multi-bit words never pack, and a width-1 output of a
        // non-`bit_parallel` block doesn't either.
        let expr_ok: Vec<bool> = blocks
            .iter()
            .enumerate()
            .map(|(b, inst)| {
                if bitwise[b] {
                    return false;
                }
                let k = &kinds[inst.kind];
                if k.state_bits() != 0 || !k.side_rings().is_empty() {
                    return false;
                }
                let out_widths = k.output_widths();
                if inst.outputs.len() != out_widths.len()
                    || inst.inputs.len() != k.input_widths().len()
                {
                    return false;
                }
                for (p, &width) in out_widths.iter().enumerate() {
                    let Some(sem) = k.bit_semantics(p) else {
                        return false;
                    };
                    if sem.bits.len() != width {
                        return false;
                    }
                    for bit in 0..width {
                        if packed_of_link[prog.bit_word(inst.outputs[p], bit)].is_none() {
                            return false;
                        }
                    }
                    for e in &sem.bits {
                        if !e.is_pure() {
                            return false;
                        }
                        for (port, in_bit) in e.deps() {
                            if packed_of_link[prog.bit_word(inst.inputs[port], in_bit)].is_none() {
                                return false;
                            }
                        }
                    }
                }
                true
            })
            .collect();

        let mut ops = Vec::with_capacity(prog.ops.len());
        let mut pgathers = Vec::new();
        let mut pscatters = Vec::new();
        for (i, &op) in prog.ops.iter().enumerate() {
            let b = op.block();
            if expr_ok[b] {
                if i >= prog.update_start {
                    // Stateless and ring-free: the clock edge is a no-op
                    // (still counted in `scalar_deltas`, like bitwise).
                    continue;
                }
                // One write per scatter move of this comb level: the
                // move's shift is the output bit index, its target word
                // the bit's packed sub-word.
                let inst = &blocks[b];
                let k = &kinds[inst.kind];
                let writes: Vec<ExprWrite> = op
                    .scatter()
                    .map(|r| {
                        prog.scatters[r.as_range()]
                            .iter()
                            .map(|m| {
                                let sem = k.bit_semantics(m.port as usize).unwrap_or_else(|| {
                                    unreachable!("expr block lost its semantics")
                                });
                                let e = &sem.bits[m.shift as usize];
                                let expr = SlabExpr::lower(e, inst, &prog, &packed_of_link)
                                    .unwrap_or_else(|| {
                                        unreachable!("expr eligibility proved lowerable")
                                    });
                                ExprWrite {
                                    slab: slab_of(m.link as usize),
                                    expr,
                                }
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                ops.push(BatchOp::Expr {
                    block: b as u32,
                    writes,
                });
                continue;
            }
            if !bitwise[b] {
                ops.push(BatchOp::PerLane(op));
                continue;
            }
            if i >= prog.update_start {
                // A bitwise block is stateless and ring-free: its clock
                // edge is a no-op. Skip it (still counted in
                // `scalar_deltas` so per-lane stats match the scalar
                // engine).
                continue;
            }
            // Full-input gather, this level's scatter, both pre-resolved
            // to packed slab indices.
            let inst = &blocks[b];
            let gstart = pgathers.len() as u32;
            for (port, &l) in inst.inputs.iter().enumerate() {
                pgathers.push(PackedMove {
                    port: port as u32,
                    slab: slab_of(l),
                });
            }
            let gather = PackedRange {
                start: gstart,
                len: pgathers.len() as u32 - gstart,
            };
            let sstart = pscatters.len() as u32;
            if let Some(r) = op.scatter() {
                for m in &prog.scatters[r.as_range()] {
                    pscatters.push(PackedMove {
                        port: m.port,
                        slab: slab_of(m.link as usize),
                    });
                }
            }
            let scatter = PackedRange {
                start: sstart,
                len: pscatters.len() as u32 - sstart,
            };
            let (kind, instance) = match op {
                Op::Comb { kind, instance, .. } | Op::CombPacked { kind, instance, .. } => {
                    (kind, instance)
                }
                _ => unreachable!("comb section held a non-comb op"),
            };
            ops.push(BatchOp::Bitwise {
                kind,
                block: b as u32,
                instance,
                gather,
                scatter,
            });
        }

        let scalar_deltas = (prog.ops.len() - prog.update_start) as u64;
        Ok(BatchedProgram {
            scalar: prog,
            ops,
            pgathers,
            pscatters,
            packed_of_link,
            n_packed,
            scalar_deltas,
        })
    }

    /// The scalar program this was lowered from.
    pub fn scalar(&self) -> &CompiledProgram {
        &self.scalar
    }

    /// Number of arena words (width-1 links and per-bit sub-words of
    /// sliced links) promoted to bit-packed representation.
    pub fn packed_links(&self) -> usize {
        self.n_packed
    }

    /// Number of bitwise (64-lanes-per-eval) ops: packed `eval` calls on
    /// width-1 blocks plus packed-expression ops on bitflow-sliced
    /// blocks.
    pub fn bitwise_ops(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| matches!(o, BatchOp::Bitwise { .. } | BatchOp::Expr { .. }))
            .count()
    }
}

// ---------------------------------------------------------------------------
// Lane-group core
// ---------------------------------------------------------------------------

/// Current- and next-bank state slices of one `(lane, block)` — the
/// lane-strided equivalent of [`Arena::cur_and_next_mut`].
///
/// [`Arena::cur_and_next_mut`]: crate::compile::Arena::cur_and_next_mut
fn cur_next_split(
    state: &mut [u64],
    cur: usize,
    bank_lane_words: usize,
    off: usize,
    len: usize,
    lanes: usize,
    lane: usize,
) -> (&[u64], &mut [u64]) {
    if len == 0 {
        return (&[], &mut []);
    }
    let cur_start = cur * bank_lane_words + off * lanes + lane * len;
    let next_start = (cur ^ 1) * bank_lane_words + off * lanes + lane * len;
    if cur_start < next_start {
        let (lo, hi) = state.split_at_mut(next_start);
        (&lo[cur_start..cur_start + len], &mut hi[..len])
    } else {
        let (lo, hi) = state.split_at_mut(cur_start);
        (&hi[..len], &mut lo[next_start..next_start + len])
    }
}

/// A bit-exact snapshot of one lane group.
#[derive(Debug, Clone)]
struct CoreSnapshot {
    links: Vec<u64>,
    state: Vec<u64>,
    packed: Vec<u64>,
    sides: Vec<SideMem>,
    cycle: u64,
    stats: Vec<DeltaStats>,
    active: Vec<bool>,
    active_words: Vec<u64>,
    cur: usize,
    poisoned: Vec<Option<(u64, String)>>,
}

impl CoreSnapshot {
    fn encode(&self, e: &mut crate::wire::Enc) {
        e.u64s(&self.links);
        e.u64s(&self.state);
        e.u64s(&self.packed);
        e.usize(self.sides.len());
        for s in &self.sides {
            s.encode(e);
        }
        e.u64(self.cycle);
        e.usize(self.stats.len());
        for s in &self.stats {
            s.encode(e);
        }
        e.bools(&self.active);
        e.u64s(&self.active_words);
        e.usize(self.cur);
        e.usize(self.poisoned.len());
        for p in &self.poisoned {
            match p {
                Some((cycle, payload)) => {
                    e.bool(true);
                    e.u64(*cycle);
                    e.str(payload);
                }
                None => e.bool(false),
            }
        }
    }

    fn decode(d: &mut crate::wire::Dec<'_>) -> Result<Self, crate::wire::WireError> {
        let links = d.u64s()?;
        let state = d.u64s()?;
        let packed = d.u64s()?;
        let n_sides = d.usize()?;
        let mut sides = Vec::new();
        for _ in 0..n_sides {
            sides.push(SideMem::decode(d)?);
        }
        let cycle = d.u64()?;
        let n_stats = d.usize()?;
        let mut stats = Vec::new();
        for _ in 0..n_stats {
            stats.push(DeltaStats::decode(d)?);
        }
        let active = d.bools()?;
        let active_words = d.u64s()?;
        let cur = d.usize()?;
        let n_poisoned = d.usize()?;
        let mut poisoned = Vec::new();
        for _ in 0..n_poisoned {
            poisoned.push(if d.bool()? {
                Some((d.u64()?, d.str()?))
            } else {
                None
            });
        }
        if cur > 1 || active.len() != stats.len() || poisoned.len() != active.len() {
            return Err(crate::wire::WireError::new(
                "inconsistent batched-core snapshot layout",
            ));
        }
        Ok(CoreSnapshot {
            links,
            state,
            packed,
            sides,
            cycle,
            stats,
            active,
            active_words,
            cur,
            poisoned,
        })
    }
}

/// One contiguous group of lanes, advanced single-threaded by one walk
/// of the batched op list per cycle. [`BatchedEngine`] shards lanes into
/// groups, one per worker.
struct BatchedCore {
    /// Per-lane specs (lane-divergent contents like fault plans live in
    /// the kinds). `specs[0]` is the structural reference.
    specs: Vec<SystemSpec>,
    prog: Arc<BatchedProgram>,
    lanes: usize,
    /// `(lanes + 63) / 64` — packed words per slab.
    lane_words: usize,
    /// `execs[lane][kind]` — per-lane decoded-state execution units.
    execs: Vec<Vec<Option<Box<dyn CompiledExec>>>>,
    /// `sides[lane]` — per-lane side-ring memory.
    sides: Vec<SideMem>,
    /// Per-lane link words: link `l`, lane `j` at `l * lanes + j`.
    links: Vec<u64>,
    /// Both state banks, lane-major per block: bank `k`, block `b`,
    /// lane `j` at `k * bank_lane_words + state_off[b] * lanes
    /// + j * state_len[b]`.
    state: Vec<u64>,
    /// Bit-packed slabs: slab `s`, word `w` at `s * lane_words + w`.
    packed: Vec<u64>,
    state_off: Vec<usize>,
    state_len: Vec<usize>,
    /// One bank's words across all lanes.
    bank_lane_words: usize,
    cur: usize,
    /// `dirty[lane][block]`: decoded exec state is newer than `state`.
    dirty: Vec<Vec<bool>>,
    in_buf: Vec<u64>,
    out_buf: Vec<u64>,
    scratch: Vec<u64>,
    cycle: u64,
    stats: Vec<DeltaStats>,
    /// Masked scatter: inactive lanes are skipped by per-lane ops and
    /// masked out of bitwise writes; their state is frozen bit-exactly.
    active: Vec<bool>,
    /// `active` as packed mask words (tail lanes zero).
    active_words: Vec<u64>,
    /// `poisoned[lane]`: the cycle and panic payload of a quarantined
    /// lane. A poisoned lane is also inactive, but unlike a halted lane
    /// its exec state was NOT synced back (it may be mid-evaluation);
    /// the bank holds the last consistent pre-panic words.
    poisoned: Vec<Option<(u64, String)>>,
    /// Chaos knob: deliberately panic `lane`'s next per-lane op at the
    /// given cycle (testing only; not part of snapshots).
    chaos_panic: Vec<Option<u64>>,
    profiler: Option<Box<KernelProfiler>>,
}

/// Render a `catch_unwind` payload as text (panic messages are almost
/// always `&str` or `String`).
fn panic_payload(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl BatchedCore {
    fn new(specs: Vec<SystemSpec>, prog: Arc<BatchedProgram>) -> BatchedCore {
        let lanes = specs.len();
        let lane_words = lanes.div_ceil(64);
        let base = &specs[0];
        let mut state_off = Vec::with_capacity(base.blocks().len());
        let mut state_len = Vec::with_capacity(base.blocks().len());
        let mut off = 0usize;
        for b in base.blocks() {
            let w = words_for_bits(base.kinds()[b.kind].state_bits());
            state_off.push(off);
            state_len.push(w);
            off += w;
        }
        let bank_lane_words = off * lanes;
        let n_links = base.links().len();

        let mut links = vec![0u64; n_links * lanes];
        let mut packed = vec![0u64; prog.n_packed * lane_words];
        for (j, spec) in specs.iter().enumerate() {
            for (l, ls) in spec.links().iter().enumerate() {
                if let Some(sl) = prog.scalar.slice_of(l) {
                    // Sliced link: spread the per-lane reset bits over
                    // the per-bit sub-word slabs (the parent's own word
                    // is dead in a sliced program).
                    for bit in 0..sl.width as usize {
                        if (ls.reset_value >> bit) & 1 == 1 {
                            let s = prog.packed_of_link[sl.base as usize + bit]
                                .unwrap_or_else(|| unreachable!("sub-words always pack"))
                                as usize;
                            packed[s * lane_words + j / 64] |= 1u64 << (j % 64);
                        }
                    }
                    continue;
                }
                match prog.packed_of_link[l] {
                    Some(s) => {
                        if ls.reset_value & 1 == 1 {
                            packed[s as usize * lane_words + j / 64] |= 1u64 << (j % 64);
                        }
                    }
                    None => links[l * lanes + j] = ls.reset_value,
                }
            }
        }

        let execs: Vec<Vec<Option<Box<dyn CompiledExec>>>> = specs
            .iter()
            .map(|spec| spec.kinds().iter().map(|k| k.compile()).collect())
            .collect();
        let sides: Vec<SideMem> = specs
            .iter()
            .map(|spec| {
                let rings: Vec<Vec<usize>> = spec
                    .blocks()
                    .iter()
                    .map(|b| spec.kinds()[b.kind].side_rings())
                    .collect();
                SideMem::new(&rings)
            })
            .collect();
        let max_ports = base
            .blocks()
            .iter()
            .map(|b| b.inputs.len().max(b.outputs.len()))
            .max()
            .unwrap_or(0);
        let max_words = state_len.iter().copied().max().unwrap_or(0);

        let mut active_words = vec![0u64; lane_words];
        for j in 0..lanes {
            active_words[j / 64] |= 1u64 << (j % 64);
        }

        let mut core = BatchedCore {
            dirty: vec![vec![false; base.blocks().len()]; lanes],
            in_buf: vec![0; max_ports],
            out_buf: vec![0; max_ports],
            scratch: vec![0; max_words],
            stats: vec![DeltaStats::default(); lanes],
            active: vec![true; lanes],
            active_words,
            poisoned: vec![None; lanes],
            chaos_panic: vec![None; lanes],
            cycle: 0,
            cur: 0,
            profiler: None,
            execs,
            sides,
            links,
            state: vec![0u64; 2 * bank_lane_words],
            packed,
            state_off,
            state_len,
            bank_lane_words,
            lane_words,
            lanes,
            prog,
            specs,
        };
        // Reset: per lane, per block, write reset state into the current
        // bank and mirror it into the next bank.
        for j in 0..core.lanes {
            for b in 0..core.specs[j].blocks().len() {
                let kind = core.specs[j].blocks()[b].kind;
                let (off, len) = (core.state_off[b], core.state_len[b]);
                let start = core.cur * core.bank_lane_words + off * core.lanes + j * len;
                core.specs[j].kinds()[kind].reset(&mut core.state[start..start + len]);
                let (cur, next) = cur_next_split(
                    &mut core.state,
                    core.cur,
                    core.bank_lane_words,
                    off,
                    len,
                    core.lanes,
                    j,
                );
                let tmp: Vec<u64> = cur.to_vec();
                next.copy_from_slice(&tmp);
            }
        }
        core.load_execs();
        core
    }

    /// (Re)load every lane's exec decoded state from the current bank.
    fn load_execs(&mut self) {
        for j in 0..self.lanes {
            for b in 0..self.specs[j].blocks().len() {
                let inst = &self.specs[j].blocks()[b];
                let (off, len) = (self.state_off[b], self.state_len[b]);
                let start = self.cur * self.bank_lane_words + off * self.lanes + j * len;
                if let Some(exec) = self.execs[j][inst.kind].as_mut() {
                    exec.load(inst.instance_of_kind, &self.state[start..start + len]);
                }
                self.dirty[j][b] = false;
            }
        }
    }

    /// Packed current-state words of `(lane, block)`.
    fn peek_state(&self, lane: usize, b: usize) -> Vec<u64> {
        let inst = &self.specs[lane].blocks()[b];
        let (off, len) = (self.state_off[b], self.state_len[b]);
        if self.dirty[lane][b] {
            if let Some(exec) = self.execs[lane][inst.kind].as_ref() {
                let mut out = vec![0u64; len];
                exec.store(inst.instance_of_kind, &mut out);
                return out;
            }
        }
        let start = self.cur * self.bank_lane_words + off * self.lanes + lane * len;
        self.state[start..start + len].to_vec()
    }

    /// Value of link `l` in `lane` (bit-extracted if packed,
    /// reassembled from its sub-word slabs if sliced).
    fn link_value(&self, lane: usize, l: usize) -> u64 {
        if let Some(sl) = self.prog.scalar.slice_of(l) {
            let mut v = 0u64;
            for bit in 0..sl.width as usize {
                let s = self.prog.packed_of_link[sl.base as usize + bit]
                    .unwrap_or_else(|| unreachable!("sub-words always pack"))
                    as usize;
                v |= ((self.packed[s * self.lane_words + lane / 64] >> (lane % 64)) & 1) << bit;
            }
            return v;
        }
        match self.prog.packed_of_link[l] {
            Some(s) => (self.packed[s as usize * self.lane_words + lane / 64] >> (lane % 64)) & 1,
            None => self.links[l * self.lanes + lane],
        }
    }

    /// Drive an external link in one lane.
    fn set_external(&mut self, lane: usize, l: usize, v: u64) {
        assert!(
            matches!(self.specs[lane].links()[l].driver, LinkDriver::External),
            "link {l} is not external"
        );
        match self.prog.packed_of_link[l] {
            Some(s) => {
                let word = &mut self.packed[s as usize * self.lane_words + lane / 64];
                let bit = 1u64 << (lane % 64);
                if v & 1 == 1 {
                    *word |= bit;
                } else {
                    *word &= !bit;
                }
            }
            None => self.links[l * self.lanes + lane] = v,
        }
    }

    /// Run lane `j`'s gather window of a per-lane op: the scalar
    /// [`GatherMove`](crate::compile::GatherMove) semantics (shift +
    /// accumulate, reassembling sliced links bit by bit) over the
    /// strided per-lane slabs, with packed words read via lane-bit
    /// extraction.
    #[inline]
    fn gather_lane(&mut self, r: std::ops::Range<usize>, j: usize, lanes: usize) {
        for i in r {
            let m = self.prog.scalar.gathers[i];
            let w = m.link as usize;
            let word = match self.prog.packed_of_link[w] {
                Some(s) => (self.packed[s as usize * self.lane_words + j / 64] >> (j % 64)) & 1,
                None => self.links[w * lanes + j],
            };
            let v = word << m.shift;
            if m.acc {
                self.in_buf[m.port as usize] |= v;
            } else {
                self.in_buf[m.port as usize] = v;
            }
        }
    }

    /// Run lane `j`'s scatter window of a per-lane op: the scalar
    /// [`ScatterMove`](crate::compile::ScatterMove) semantics (shift +
    /// mask, slicing output words bit by bit) with packed words written
    /// via lane-bit insertion.
    #[inline]
    fn scatter_lane(&mut self, r: std::ops::Range<usize>, j: usize, lanes: usize) {
        for i in r {
            let m = self.prog.scalar.scatters[i];
            let w = m.link as usize;
            let v = (self.out_buf[m.port as usize] >> m.shift) & m.mask;
            match self.prog.packed_of_link[w] {
                Some(s) => {
                    let slot = &mut self.packed[s as usize * self.lane_words + j / 64];
                    let bit = 1u64 << (j % 64);
                    if v & 1 == 1 {
                        *slot |= bit;
                    } else {
                        *slot &= !bit;
                    }
                }
                None => self.links[w * lanes + j] = v,
            }
        }
    }

    /// Retire a lane: sync decoded exec state into the current bank,
    /// freeze both banks, and mask the lane out of every future write.
    fn halt_lane(&mut self, lane: usize) {
        if !self.active[lane] {
            return;
        }
        for b in 0..self.specs[lane].blocks().len() {
            let inst_kind = self.specs[lane].blocks()[b].kind;
            let instance = self.specs[lane].blocks()[b].instance_of_kind;
            let (off, len) = (self.state_off[b], self.state_len[b]);
            if self.dirty[lane][b] {
                if let Some(exec) = self.execs[lane][inst_kind].as_ref() {
                    let start = self.cur * self.bank_lane_words + off * self.lanes + lane * len;
                    exec.store(instance, &mut self.state[start..start + len]);
                }
                self.dirty[lane][b] = false;
            }
            let (cur, next) = cur_next_split(
                &mut self.state,
                self.cur,
                self.bank_lane_words,
                off,
                len,
                self.lanes,
                lane,
            );
            let tmp: Vec<u64> = cur.to_vec();
            next.copy_from_slice(&tmp);
        }
        self.active[lane] = false;
        self.active_words[lane / 64] &= !(1u64 << (lane % 64));
    }

    /// Quarantine a lane whose evaluation panicked: mask it out of every
    /// future write and record the payload. Unlike [`halt_lane`]
    /// (`Self::halt_lane`) the decoded exec state is *not* synced back —
    /// a panic may have left it mid-evaluation — so the dirty flags are
    /// cleared and host peeks read the last consistent bank words.
    fn quarantine(&mut self, lane: usize, cycle: u64, payload: String) {
        if self.poisoned[lane].is_some() {
            return;
        }
        self.poisoned[lane] = Some((cycle, payload));
        self.active[lane] = false;
        self.active_words[lane / 64] &= !(1u64 << (lane % 64));
        self.dirty[lane].iter_mut().for_each(|d| *d = false);
    }

    fn snapshot(&self) -> CoreSnapshot {
        let mut state = self.state.clone();
        for j in 0..self.lanes {
            for b in 0..self.specs[j].blocks().len() {
                if !self.dirty[j][b] {
                    continue;
                }
                let inst = &self.specs[j].blocks()[b];
                if let Some(exec) = self.execs[j][inst.kind].as_ref() {
                    let (off, len) = (self.state_off[b], self.state_len[b]);
                    let start = self.cur * self.bank_lane_words + off * self.lanes + j * len;
                    exec.store(inst.instance_of_kind, &mut state[start..start + len]);
                }
            }
        }
        CoreSnapshot {
            links: self.links.clone(),
            state,
            packed: self.packed.clone(),
            sides: self.sides.clone(),
            cycle: self.cycle,
            stats: self.stats.clone(),
            active: self.active.clone(),
            active_words: self.active_words.clone(),
            cur: self.cur,
            poisoned: self.poisoned.clone(),
        }
    }

    fn restore(&mut self, snap: &CoreSnapshot) {
        self.links = snap.links.clone();
        self.state = snap.state.clone();
        self.packed = snap.packed.clone();
        self.sides = snap.sides.clone();
        self.cycle = snap.cycle;
        self.stats = snap.stats.clone();
        self.active = snap.active.clone();
        self.active_words = snap.active_words.clone();
        self.cur = snap.cur;
        self.poisoned = snap.poisoned.clone();
        self.load_execs();
    }

    /// Advance every active lane by `n` system cycles.
    fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Advance every active lane one system cycle: one walk over the
    /// batched op list, then the bank swap.
    fn step(&mut self) {
        if let Some(p) = self.profiler.as_mut() {
            p.begin_cycle();
        }
        self.run_ops();
        self.cur ^= 1;
        for j in 0..self.lanes {
            if self.active[j] {
                self.stats[j]
                    .record_cycle(self.prog.scalar_deltas, self.prog.scalar.n_blocks as u64);
            }
        }
        if let Some(p) = self.profiler.as_mut() {
            p.end_cycle();
        }
        self.cycle += 1;
    }

    fn run_ops(&mut self) {
        let cycle = self.cycle;
        let lanes = self.lanes;
        // Expression ops hold owned `SlabExpr` trees; iterate over a
        // cheap `Arc` clone of the program so `self` stays free for the
        // per-op bodies.
        let ops_prog = Arc::clone(&self.prog);
        for bop in ops_prog.ops.iter() {
            match bop {
                BatchOp::PerLane(op) => self.run_per_lane_op(*op, cycle, lanes),
                BatchOp::Expr { block, writes } => {
                    let t0 = self.profiler.as_ref().and_then(|p| p.begin_eval());
                    let b = *block as usize;
                    for w in 0..self.lane_words {
                        let act = self.active_words[w];
                        if act == 0 {
                            continue;
                        }
                        for wr in writes {
                            let val = wr.expr.eval(&self.packed, self.lane_words, w);
                            let slot = &mut self.packed[wr.slab as usize * self.lane_words + w];
                            *slot = (*slot & !act) | (val & act);
                        }
                    }
                    if let Some(p) = self.profiler.as_mut() {
                        p.end_op(b, t0);
                    }
                }
                &BatchOp::Bitwise {
                    kind,
                    block,
                    instance,
                    gather,
                    scatter,
                } => {
                    let t0 = self.profiler.as_ref().and_then(|p| p.begin_eval());
                    // One eval per packed word advances up to 64 lanes;
                    // inactive lanes are preserved via the active mask.
                    let BatchedCore {
                        specs,
                        prog,
                        packed,
                        in_buf,
                        out_buf,
                        sides,
                        active_words,
                        lane_words,
                        ..
                    } = self;
                    let b = block as usize;
                    let n_in = specs[0].blocks()[b].inputs.len();
                    let n_out = specs[0].blocks()[b].outputs.len();
                    let kindref = &specs[0].kinds()[kind as usize];
                    for w in 0..*lane_words {
                        let act = active_words[w];
                        if act == 0 {
                            continue;
                        }
                        for m in &prog.pgathers[gather.as_range()] {
                            in_buf[m.port as usize] = packed[m.slab as usize * *lane_words + w];
                        }
                        kindref.eval(
                            instance as usize,
                            &[],
                            &in_buf[..n_in],
                            cycle,
                            &mut [],
                            &mut out_buf[..n_out],
                            &mut sides[0].view(b),
                        );
                        for m in &prog.pscatters[scatter.as_range()] {
                            let slot = &mut packed[m.slab as usize * *lane_words + w];
                            *slot = (*slot & !act) | (out_buf[m.port as usize] & act);
                        }
                    }
                    if let Some(p) = self.profiler.as_mut() {
                        p.end_op(b, t0);
                    }
                }
            }
        }
    }

    /// Run one per-lane op over every active lane. Each lane's body runs
    /// under `catch_unwind`: a panicking lane (a buggy exec, or the
    /// chaos knob) is quarantined via [`quarantine`](Self::quarantine)
    /// and the remaining lanes continue untouched. Bitwise ops are not
    /// isolated this way — one eval advances up to 64 lanes at once, so
    /// a panic there cannot be attributed to a single lane.
    fn run_per_lane_op(&mut self, op: Op, cycle: u64, lanes: usize) {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        match op {
            Op::Comb {
                kind,
                pass,
                block,
                instance,
                gather,
                scatter,
            } => {
                let t0 = self.profiler.as_ref().and_then(|p| p.begin_eval());
                for j in 0..lanes {
                    if !self.active[j] {
                        continue;
                    }
                    let chaos = self.chaos_panic[j];
                    let res = catch_unwind(AssertUnwindSafe(|| {
                        if chaos == Some(cycle) {
                            panic!("chaos: injected panic in lane {j} at cycle {cycle}");
                        }
                        self.gather_lane(gather.as_range(), j, lanes);
                        let Some(exec) = self.execs[j][kind as usize].as_mut() else {
                            unreachable!("comb op for kind {kind} without exec");
                        };
                        exec.comb(
                            instance as usize,
                            pass as usize,
                            &self.in_buf,
                            cycle,
                            &mut self.out_buf,
                            &mut self.sides[j].view(block as usize),
                        );
                        self.scatter_lane(scatter.as_range(), j, lanes);
                    }));
                    if let Err(p) = res {
                        self.quarantine(j, cycle, panic_payload(p.as_ref()));
                    }
                }
                if let Some(p) = self.profiler.as_mut() {
                    p.end_op(block as usize, t0);
                }
            }
            Op::CombPacked {
                kind,
                block,
                instance,
                gather,
                scatter,
                ..
            } => {
                let t0 = self.profiler.as_ref().and_then(|p| p.begin_eval());
                let b = block as usize;
                for j in 0..lanes {
                    if !self.active[j] {
                        continue;
                    }
                    let chaos = self.chaos_panic[j];
                    let res = catch_unwind(AssertUnwindSafe(|| {
                        if chaos == Some(cycle) {
                            panic!("chaos: injected panic in lane {j} at cycle {cycle}");
                        }
                        self.gather_lane(gather.as_range(), j, lanes);
                        let n_in = self.specs[j].blocks()[b].inputs.len();
                        let n_out = self.specs[j].blocks()[b].outputs.len();
                        let (off, len) = (self.state_off[b], self.state_len[b]);
                        let start = self.cur * self.bank_lane_words + off * lanes + j * len;
                        // Split borrows: `state` read-only, `scratch` is the
                        // discarded next-state buffer — separate fields.
                        let BatchedCore {
                            specs,
                            state,
                            in_buf,
                            out_buf,
                            scratch,
                            sides,
                            ..
                        } = self;
                        specs[j].kinds()[kind as usize].eval(
                            instance as usize,
                            &state[start..start + len],
                            &in_buf[..n_in],
                            cycle,
                            &mut scratch[..len],
                            &mut out_buf[..n_out],
                            &mut sides[j].view(b),
                        );
                        self.scatter_lane(scatter.as_range(), j, lanes);
                    }));
                    if let Err(p) = res {
                        self.quarantine(j, cycle, panic_payload(p.as_ref()));
                    }
                }
                if let Some(p) = self.profiler.as_mut() {
                    p.end_op(b, t0);
                }
            }
            Op::Update {
                kind,
                block,
                instance,
                gather,
            } => {
                let t0 = self.profiler.as_ref().and_then(|p| p.begin_eval());
                for j in 0..lanes {
                    if !self.active[j] {
                        continue;
                    }
                    let chaos = self.chaos_panic[j];
                    let res = catch_unwind(AssertUnwindSafe(|| {
                        if chaos == Some(cycle) {
                            panic!("chaos: injected panic in lane {j} at cycle {cycle}");
                        }
                        self.gather_lane(gather.as_range(), j, lanes);
                        let Some(exec) = self.execs[j][kind as usize].as_mut() else {
                            unreachable!("update op for kind {kind} without exec");
                        };
                        // Lanes advance in lock-step, so no block
                        // sleeps here: the wake hint is not used.
                        let _ = exec.update(
                            instance as usize,
                            &self.in_buf,
                            cycle,
                            &mut self.sides[j].view(block as usize),
                        );
                        self.dirty[j][block as usize] = true;
                    }));
                    if let Err(p) = res {
                        self.quarantine(j, cycle, panic_payload(p.as_ref()));
                    }
                }
                if let Some(p) = self.profiler.as_mut() {
                    p.end_eval(block as usize, false, t0);
                }
            }
            Op::UpdatePacked {
                kind,
                block,
                instance,
                gather,
            } => {
                let t0 = self.profiler.as_ref().and_then(|p| p.begin_eval());
                let b = block as usize;
                for j in 0..lanes {
                    if !self.active[j] {
                        continue;
                    }
                    let chaos = self.chaos_panic[j];
                    let res = catch_unwind(AssertUnwindSafe(|| {
                        if chaos == Some(cycle) {
                            panic!("chaos: injected panic in lane {j} at cycle {cycle}");
                        }
                        self.gather_lane(gather.as_range(), j, lanes);
                        let n_in = self.specs[j].blocks()[b].inputs.len();
                        let n_out = self.specs[j].blocks()[b].outputs.len();
                        // Split borrows: state is a separate field from the
                        // buffers and sides; specs are read-only.
                        let BatchedCore {
                            specs,
                            state,
                            in_buf,
                            out_buf,
                            sides,
                            ..
                        } = self;
                        let (cur, next) = cur_next_split(
                            state,
                            self.cur,
                            self.bank_lane_words,
                            self.state_off[b],
                            self.state_len[b],
                            lanes,
                            j,
                        );
                        specs[j].kinds()[kind as usize].eval(
                            instance as usize,
                            cur,
                            &in_buf[..n_in],
                            cycle,
                            next,
                            &mut out_buf[..n_out],
                            &mut sides[j].view(b),
                        );
                    }));
                    if let Err(p) = res {
                        self.quarantine(j, cycle, panic_payload(p.as_ref()));
                    }
                }
                if let Some(p) = self.profiler.as_mut() {
                    p.end_eval(b, false, t0);
                }
            }
            Op::EvalFull { .. } => {
                unreachable!("eval_full op in straight-line batched program");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// A bit-exact snapshot of a whole batch (every lane of every group).
#[derive(Debug, Clone)]
pub struct BatchedSnapshot {
    cores: Vec<CoreSnapshot>,
}

impl BatchedSnapshot {
    /// Serialize the snapshot for a durable checkpoint.
    pub fn encode(&self, e: &mut crate::wire::Enc) {
        e.usize(self.cores.len());
        for c in &self.cores {
            c.encode(e);
        }
    }

    /// Rebuild a snapshot encoded by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// [`crate::wire::WireError`] when the payload is truncated or
    /// internally inconsistent.
    pub fn decode(d: &mut crate::wire::Dec<'_>) -> Result<Self, crate::wire::WireError> {
        let n = d.usize()?;
        let mut cores = Vec::new();
        for _ in 0..n {
            cores.push(CoreSnapshot::decode(d)?);
        }
        Ok(BatchedSnapshot { cores })
    }
}

/// The lane-batched engine: N structurally identical simulations
/// advanced in lockstep over one shared [`BatchedProgram`].
///
/// Lanes are split into contiguous groups, one [`BatchedCore`] each;
/// groups are fully independent (no inter-lane wiring exists), so a
/// multi-group [`run`](Self::run) spawns one scoped thread per group
/// with no per-cycle barrier — host synchronisation happens only between
/// `run` calls, mirroring the runner's period granularity.
pub struct BatchedEngine {
    groups: Vec<BatchedCore>,
    /// Lane id -> (group, lane-within-group).
    lane_of: Vec<(usize, usize)>,
    prog: Arc<BatchedProgram>,
    threads: usize,
}

impl BatchedEngine {
    /// Build a batched engine over `specs` (one per lane, all
    /// structurally identical), compiled with `opts`, sharded over at
    /// most `threads` lane groups.
    ///
    /// Fails with [`SimError::Config`] when the lanes diverge
    /// structurally ([`codes::BATCH_DIVERGENT_TOPOLOGY`]) or the spec
    /// needs fixed-point mode, and propagates lane 0's
    /// [`check`](SystemSpec::check) diagnostics.
    pub fn new(
        specs: Vec<SystemSpec>,
        opts: &CompileOptions,
        threads: usize,
    ) -> Result<BatchedEngine, SimError> {
        check_lane_structure(&specs)?;
        if let Err(diags) = specs[0].check() {
            return Err(SimError::Config(format!(
                "invalid lane spec: {}",
                diags
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join("; ")
            )));
        }
        let scalar = CompiledProgram::compile(&specs[0], opts);
        let prog = Arc::new(BatchedProgram::lower(&specs[0], scalar)?);
        let lanes = specs.len();
        let n_groups = threads.max(1).min(lanes);
        // Contiguous chunks, sizes differing by at most one.
        let base_sz = lanes / n_groups;
        let extra = lanes % n_groups;
        let mut lane_of = Vec::with_capacity(lanes);
        let mut groups = Vec::with_capacity(n_groups);
        let mut specs = specs.into_iter();
        for g in 0..n_groups {
            let sz = base_sz + usize::from(g < extra);
            let chunk: Vec<SystemSpec> = specs.by_ref().take(sz).collect();
            for local in 0..sz {
                lane_of.push((g, local));
            }
            groups.push(BatchedCore::new(chunk, Arc::clone(&prog)));
        }
        Ok(BatchedEngine {
            groups,
            lane_of,
            prog,
            threads: n_groups,
        })
    }

    /// Number of lanes in the batch.
    pub fn lanes(&self) -> usize {
        self.lane_of.len()
    }

    /// Number of lane groups (= worker threads used by multi-group
    /// runs).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The lowered program shared by every group.
    pub fn program(&self) -> &BatchedProgram {
        &self.prog
    }

    /// The spec of `lane` (its fault plan and contents are baked into
    /// the kinds).
    pub fn spec(&self, lane: usize) -> &SystemSpec {
        let (g, j) = self.lane_of[lane];
        &self.groups[g].specs[j]
    }

    /// Current system cycle (lanes advance in lockstep).
    pub fn cycle(&self) -> u64 {
        self.groups[0].cycle
    }

    /// Is `lane` still advancing?
    pub fn lane_active(&self, lane: usize) -> bool {
        let (g, j) = self.lane_of[lane];
        self.groups[g].active[j]
    }

    /// Retire `lane`: its state freezes bit-exactly and every future
    /// write to it is masked out.
    pub fn halt_lane(&mut self, lane: usize) {
        let (g, j) = self.lane_of[lane];
        self.groups[g].halt_lane(j);
    }

    /// The quarantine record of `lane`: the system cycle it was poisoned
    /// at and the panic payload, or `None` while the lane is healthy.
    pub fn lane_poisoned(&self, lane: usize) -> Option<(u64, &str)> {
        let (g, j) = self.lane_of[lane];
        self.groups[g].poisoned[j]
            .as_ref()
            .map(|(c, p)| (*c, p.as_str()))
    }

    /// Quarantine `lane` from the host side (e.g. an invariant violation
    /// detected by the runner): the lane is masked out like a panicking
    /// lane, with `payload` as its quarantine record.
    pub fn quarantine_lane(&mut self, lane: usize, cycle: u64, payload: String) {
        let (g, j) = self.lane_of[lane];
        self.groups[g].quarantine(j, cycle, payload);
    }

    /// Chaos knob (testing): deliberately panic `lane`'s next per-lane
    /// evaluation at system cycle `cycle`, exercising the quarantine
    /// path end to end.
    pub fn poison_lane_at(&mut self, lane: usize, cycle: u64) {
        let (g, j) = self.lane_of[lane];
        self.groups[g].chaos_panic[j] = Some(cycle);
    }

    /// Value of link `l` in `lane`.
    pub fn link_value(&self, lane: usize, l: usize) -> u64 {
        let (g, j) = self.lane_of[lane];
        self.groups[g].link_value(j, l)
    }

    /// Drive an [`External`](LinkDriver::External) link in one lane.
    ///
    /// # Panics
    /// If the link is not external.
    pub fn set_external(&mut self, lane: usize, l: usize, v: u64) {
        let (g, j) = self.lane_of[lane];
        self.groups[g].set_external(j, l, v);
    }

    /// Packed current-state words of block `b` in `lane`.
    pub fn peek_state(&self, lane: usize, b: usize) -> Vec<u64> {
        let (g, j) = self.lane_of[lane];
        self.groups[g].peek_state(j, b)
    }

    /// Side-ring memory of `lane`.
    pub fn side(&self, lane: usize) -> &SideMem {
        let (g, j) = self.lane_of[lane];
        &self.groups[g].sides[j]
    }

    /// Mutable side-ring memory of `lane`.
    pub fn side_mut(&mut self, lane: usize) -> &mut SideMem {
        let (g, j) = self.lane_of[lane];
        &mut self.groups[g].sides[j]
    }

    /// Delta statistics of `lane` (bit-identical to a scalar compiled
    /// run of the same spec).
    pub fn stats(&self, lane: usize) -> &DeltaStats {
        let (g, j) = self.lane_of[lane];
        &self.groups[g].stats[j]
    }

    /// Reset every lane's delta statistics.
    pub fn reset_stats(&mut self) {
        for g in &mut self.groups {
            for s in &mut g.stats {
                *s = DeltaStats::default();
            }
        }
    }

    /// Attach a profiler to group 0. Op self-time aggregates that
    /// group's lanes (lane-aggregated attribution); eval counts per
    /// cycle match the scalar engine's.
    pub fn attach_profiler(&mut self, p: KernelProfiler) {
        self.groups[0].profiler = Some(Box::new(p));
    }

    /// Detach and return the group-0 profiler.
    pub fn take_profiler(&mut self) -> Option<Box<KernelProfiler>> {
        self.groups[0].profiler.take()
    }

    /// Capture a bit-exact snapshot of the whole batch.
    pub fn snapshot(&self) -> BatchedSnapshot {
        BatchedSnapshot {
            cores: self.groups.iter().map(BatchedCore::snapshot).collect(),
        }
    }

    /// Restore a snapshot taken on an engine built from the same specs.
    pub fn restore(&mut self, snap: &BatchedSnapshot) {
        assert_eq!(
            snap.cores.len(),
            self.groups.len(),
            "snapshot group count mismatch"
        );
        for (g, s) in self.groups.iter_mut().zip(&snap.cores) {
            g.restore(s);
        }
    }

    /// Advance every active lane by `n` system cycles. With more than
    /// one group, each group runs on its own scoped thread for the whole
    /// `n`-cycle span (lanes are independent, so there is no per-cycle
    /// barrier to pay).
    pub fn run(&mut self, n: u64) {
        if self.groups.len() == 1 {
            self.groups[0].run(n);
            return;
        }
        std::thread::scope(|scope| {
            for g in &mut self.groups {
                scope.spawn(move || g.run(n));
            }
        });
    }
}

impl std::fmt::Debug for BatchedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchedEngine")
            .field("lanes", &self.lanes())
            .field("groups", &self.groups.len())
            .field("cycle", &self.cycle())
            .field("bitwise_ops", &self.prog.bitwise_ops())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockKind, CombInputs};
    use crate::compile::{CompiledEngine, Wake};
    use crate::demo::RegisteredDemoKind;
    use crate::side::SideView;

    /// 16-bit accumulator with a specialized exec: port 0 registered,
    /// port 1 the comb sum (exercises `Op::Comb` / `Op::Update` lanes).
    struct AccKind;

    impl BlockKind for AccKind {
        fn name(&self) -> &str {
            "acc"
        }
        fn state_bits(&self) -> usize {
            16
        }
        fn input_widths(&self) -> Vec<usize> {
            vec![16]
        }
        fn output_widths(&self) -> Vec<usize> {
            vec![16, 16]
        }
        fn reset(&self, state: &mut [u64]) {
            state[0] = 1;
        }
        fn eval(
            &self,
            _instance: usize,
            cur: &[u64],
            inputs: &[u64],
            _cycle: u64,
            next: &mut [u64],
            outputs: &mut [u64],
            _side: &mut SideView<'_>,
        ) {
            let s = cur[0];
            outputs[0] = s;
            outputs[1] = (s + inputs[0]) & 0xFFFF;
            next[0] = (s + inputs[0]) & 0xFFFF;
        }
        fn comb_inputs(&self, port: usize) -> CombInputs {
            if port == 0 {
                CombInputs::None
            } else {
                CombInputs::All
            }
        }
        fn compile(&self) -> Option<Box<dyn CompiledExec>> {
            Some(Box::new(AccExec { s: Vec::new() }))
        }
    }

    struct AccExec {
        s: Vec<u64>,
    }

    impl AccExec {
        fn slot(&mut self, instance: usize) -> &mut u64 {
            if self.s.len() <= instance {
                self.s.resize(instance + 1, 0);
            }
            &mut self.s[instance]
        }
    }

    impl CompiledExec for AccExec {
        fn load(&mut self, instance: usize, packed: &[u64]) {
            *self.slot(instance) = packed[0];
        }
        fn store(&self, instance: usize, packed: &mut [u64]) {
            packed[0] = self.s[instance];
        }
        fn comb(
            &mut self,
            instance: usize,
            pass: usize,
            inputs: &[u64],
            _cycle: u64,
            outputs: &mut [u64],
            _side: &mut SideView<'_>,
        ) {
            let s = self.s[instance];
            if pass == 0 {
                outputs[0] = s;
            } else {
                outputs[1] = (s + inputs[0]) & 0xFFFF;
            }
        }
        fn update(
            &mut self,
            instance: usize,
            inputs: &[u64],
            _cycle: u64,
            _side: &mut SideView<'_>,
        ) -> Wake {
            let slot = self.slot(instance);
            *slot = (*slot + inputs[0]) & 0xFFFF;
            Wake::Next
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    /// ext -> F' -> acc -> sinks: externals give lanes divergent
    /// contents; the acc covers the specialized exec path, F' the
    /// packed-fallback path.
    fn mixed_spec() -> (SystemSpec, usize, usize) {
        let mut spec = SystemSpec::new();
        let kf = spec.add_kind(Box::new(RegisteredDemoKind::new(0)));
        let ka = spec.add_kind(Box::new(AccKind));
        let f = spec.add_block(kf);
        let a = spec.add_block(ka);
        let ext = spec.external((f, 0), 0);
        // F' output is 16 bits wide, matching the acc input.
        spec.wire((f, 0), (a, 0));
        spec.sink((a, 0));
        let out = spec.sink((a, 1));
        (spec, ext, out)
    }

    fn mixed_lanes(n: usize) -> Vec<SystemSpec> {
        (0..n).map(|_| mixed_spec().0).collect()
    }

    /// Per-lane external value: lane-distinct, cycle-varying.
    fn ext_value(lane: usize, cycle: u64) -> u64 {
        ((lane as u64 + 1) * 7 + cycle * 3) & 0xFFFF
    }

    /// Reference scalar run of `mixed_spec` for one lane.
    fn scalar_reference(lane: usize, cycles: u64) -> CompiledEngine {
        let (spec, ext, _) = mixed_spec();
        let mut eng = CompiledEngine::new(spec);
        for c in 0..cycles {
            eng.set_external(ext, ext_value(lane, c));
            eng.step();
        }
        eng
    }

    fn assert_lane_matches(be: &BatchedEngine, lane: usize, scalar: &CompiledEngine) {
        for b in 0..be.spec(lane).blocks().len() {
            assert_eq!(
                be.peek_state(lane, b),
                scalar.peek_state(b),
                "lane {lane} block {b} state"
            );
        }
        for l in 0..be.spec(lane).links().len() {
            assert_eq!(
                be.link_value(lane, l),
                scalar.link_value(l),
                "lane {lane} link {l}"
            );
        }
        assert_eq!(be.stats(lane), scalar.stats(), "lane {lane} stats");
    }

    #[test]
    fn lanes_are_bit_identical_to_scalar_runs() {
        let lanes = 5usize;
        let (_, ext, _) = mixed_spec();
        let mut be = BatchedEngine::new(mixed_lanes(lanes), &CompileOptions::default(), 1)
            .expect("structurally identical lanes");
        let cycles = 9u64;
        for c in 0..cycles {
            for j in 0..lanes {
                be.set_external(j, ext, ext_value(j, c));
            }
            be.run(1);
        }
        for j in 0..lanes {
            let scalar = scalar_reference(j, cycles);
            assert_lane_matches(&be, j, &scalar);
        }
    }

    #[test]
    fn multi_group_matches_single_group() {
        let lanes = 5usize;
        let (_, ext, _) = mixed_spec();
        let mut one =
            BatchedEngine::new(mixed_lanes(lanes), &CompileOptions::default(), 1).expect("build");
        let mut two =
            BatchedEngine::new(mixed_lanes(lanes), &CompileOptions::default(), 2).expect("build");
        assert_eq!(two.threads(), 2);
        for c in 0..7u64 {
            for j in 0..lanes {
                one.set_external(j, ext, ext_value(j, c));
                two.set_external(j, ext, ext_value(j, c));
            }
            one.run(1);
            two.run(1);
        }
        for j in 0..lanes {
            for b in 0..one.spec(j).blocks().len() {
                assert_eq!(one.peek_state(j, b), two.peek_state(j, b));
            }
        }
    }

    #[test]
    fn halted_lane_freezes_bit_exactly_while_others_advance() {
        let lanes = 3usize;
        let (_, ext, _) = mixed_spec();
        let mut be =
            BatchedEngine::new(mixed_lanes(lanes), &CompileOptions::default(), 1).expect("build");
        for c in 0..4u64 {
            for j in 0..lanes {
                be.set_external(j, ext, ext_value(j, c));
            }
            be.run(1);
        }
        be.halt_lane(1);
        let frozen_state: Vec<Vec<u64>> = (0..be.spec(1).blocks().len())
            .map(|b| be.peek_state(1, b))
            .collect();
        let frozen_links: Vec<u64> = (0..be.spec(1).links().len())
            .map(|l| be.link_value(1, l))
            .collect();
        for c in 4..10u64 {
            for j in [0usize, 2] {
                be.set_external(j, ext, ext_value(j, c));
            }
            be.run(1);
        }
        assert!(!be.lane_active(1));
        assert_eq!(be.stats(1).system_cycles, 4, "stats freeze at halt");
        for b in 0..be.spec(1).blocks().len() {
            assert_eq!(be.peek_state(1, b), frozen_state[b], "halted block {b}");
        }
        for l in 0..be.spec(1).links().len() {
            assert_eq!(be.link_value(1, l), frozen_links[l], "halted link {l}");
        }
        // The surviving lanes still match their scalar references.
        for j in [0usize, 2] {
            let scalar = scalar_reference(j, 10);
            assert_lane_matches(&be, j, &scalar);
        }
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let lanes = 4usize;
        let (_, ext, _) = mixed_spec();
        let mut be =
            BatchedEngine::new(mixed_lanes(lanes), &CompileOptions::default(), 2).expect("build");
        let drive = |be: &mut BatchedEngine, from: u64, to: u64| {
            for c in from..to {
                for j in 0..lanes {
                    be.set_external(j, ext, ext_value(j, c));
                }
                be.run(1);
            }
        };
        drive(&mut be, 0, 5);
        let snap = be.snapshot();
        drive(&mut be, 5, 12);
        let tail: Vec<Vec<Vec<u64>>> = (0..lanes)
            .map(|j| {
                (0..be.spec(j).blocks().len())
                    .map(|b| be.peek_state(j, b))
                    .collect()
            })
            .collect();
        be.restore(&snap);
        assert_eq!(be.cycle(), 5);
        drive(&mut be, 5, 12);
        for j in 0..lanes {
            for b in 0..be.spec(j).blocks().len() {
                assert_eq!(be.peek_state(j, b), tail[j][b], "lane {j} block {b}");
            }
        }
    }

    // ---- bitwise packing ----

    /// Width-1 inverter, lanewise-bitwise by construction.
    struct NotGate;

    impl BlockKind for NotGate {
        fn name(&self) -> &str {
            "not1"
        }
        fn state_bits(&self) -> usize {
            0
        }
        fn input_widths(&self) -> Vec<usize> {
            vec![1]
        }
        fn output_widths(&self) -> Vec<usize> {
            vec![1]
        }
        fn reset(&self, _state: &mut [u64]) {}
        fn eval(
            &self,
            _instance: usize,
            _cur: &[u64],
            inputs: &[u64],
            _cycle: u64,
            _next: &mut [u64],
            outputs: &mut [u64],
            _side: &mut SideView<'_>,
        ) {
            outputs[0] = !inputs[0];
        }
        fn bit_parallel(&self) -> bool {
            true
        }
    }

    /// Width-1 AND, lanewise-bitwise by construction.
    struct AndGate;

    impl BlockKind for AndGate {
        fn name(&self) -> &str {
            "and1"
        }
        fn state_bits(&self) -> usize {
            0
        }
        fn input_widths(&self) -> Vec<usize> {
            vec![1, 1]
        }
        fn output_widths(&self) -> Vec<usize> {
            vec![1]
        }
        fn reset(&self, _state: &mut [u64]) {}
        fn eval(
            &self,
            _instance: usize,
            _cur: &[u64],
            inputs: &[u64],
            _cycle: u64,
            _next: &mut [u64],
            outputs: &mut [u64],
            _side: &mut SideView<'_>,
        ) {
            outputs[0] = inputs[0] & inputs[1];
        }
        fn bit_parallel(&self) -> bool {
            true
        }
    }

    /// ext0 -> NOT -> AND <- ext1, AND -> sink. Fully bitwise.
    fn gate_spec() -> (SystemSpec, usize, usize, usize) {
        let mut spec = SystemSpec::new();
        let kn = spec.add_kind(Box::new(NotGate));
        let ka = spec.add_kind(Box::new(AndGate));
        let n = spec.add_block(kn);
        let a = spec.add_block(ka);
        let e0 = spec.external((n, 0), 0);
        spec.wire((n, 0), (a, 0));
        let e1 = spec.external((a, 1), 0);
        let out = spec.sink((a, 0));
        (spec, e0, e1, out)
    }

    #[test]
    fn width1_blocks_pack_and_evaluate_64_lanes_per_word() {
        // 70 lanes: exercises the tail mask of the second packed word.
        let lanes = 70usize;
        let specs: Vec<SystemSpec> = (0..lanes).map(|_| gate_spec().0).collect();
        let (_, e0, e1, out) = gate_spec();
        let mut be = BatchedEngine::new(specs, &CompileOptions::default(), 1).expect("build");
        assert!(be.program().bitwise_ops() > 0, "gates must pack");
        assert!(be.program().packed_links() >= 4, "gate links must pack");
        for c in 0..3u64 {
            for j in 0..lanes {
                be.set_external(j, e0, (j as u64 >> (c % 2)) & 1);
                be.set_external(j, e1, (j as u64 / 3) & 1);
            }
            be.run(1);
            for j in 0..lanes {
                let expect = (!((j as u64 >> (c % 2)) & 1) & 1) & ((j as u64 / 3) & 1);
                assert_eq!(be.link_value(j, out), expect, "lane {j} cycle {c}");
            }
        }
    }

    #[test]
    fn bitwise_matches_scalar_engine_bit_for_bit() {
        let lanes = 67usize;
        let specs: Vec<SystemSpec> = (0..lanes).map(|_| gate_spec().0).collect();
        let mut be = BatchedEngine::new(specs, &CompileOptions::default(), 1).expect("build");
        let (_, e0, e1, out) = gate_spec();
        for j in 0..lanes {
            be.set_external(j, e0, (j as u64) & 1);
            be.set_external(j, e1, (j as u64 >> 1) & 1);
        }
        be.run(2);
        for j in 0..lanes {
            let (spec, s0, s1, sout) = gate_spec();
            let mut scalar = CompiledEngine::new(spec);
            scalar.set_external(s0, (j as u64) & 1);
            scalar.set_external(s1, (j as u64 >> 1) & 1);
            scalar.run(2);
            assert_eq!(be.link_value(j, out), scalar.link_value(sout), "lane {j}");
        }
    }

    #[test]
    fn bitwise_respects_halted_lane_mask() {
        let lanes = 66usize;
        let specs: Vec<SystemSpec> = (0..lanes).map(|_| gate_spec().0).collect();
        let (_, e0, e1, out) = gate_spec();
        let mut be = BatchedEngine::new(specs, &CompileOptions::default(), 1).expect("build");
        for j in 0..lanes {
            be.set_external(j, e0, 0);
            be.set_external(j, e1, 1);
        }
        be.run(1);
        // NOT(0) & 1 == 1 everywhere.
        assert_eq!(be.link_value(65, out), 1);
        be.halt_lane(65);
        for j in 0..lanes {
            be.set_external(j, e0, 1); // would flip the output to 0
        }
        be.run(1);
        assert_eq!(be.link_value(65, out), 1, "halted lane bits frozen");
        assert_eq!(be.link_value(64, out), 0, "active lane advanced");
    }

    /// 1-bit register (not bit-parallel): forces demotion of adjacent
    /// gates back to per-lane evaluation.
    struct BitReg;

    impl BlockKind for BitReg {
        fn name(&self) -> &str {
            "bitreg"
        }
        fn state_bits(&self) -> usize {
            1
        }
        fn input_widths(&self) -> Vec<usize> {
            vec![1]
        }
        fn output_widths(&self) -> Vec<usize> {
            vec![1]
        }
        fn reset(&self, state: &mut [u64]) {
            state[0] = 0;
        }
        fn eval(
            &self,
            _instance: usize,
            cur: &[u64],
            inputs: &[u64],
            _cycle: u64,
            next: &mut [u64],
            outputs: &mut [u64],
            _side: &mut SideView<'_>,
        ) {
            outputs[0] = cur[0];
            next[0] = inputs[0] & 1;
        }
        fn comb_inputs(&self, _port: usize) -> CombInputs {
            CombInputs::None
        }
    }

    #[test]
    fn gate_feeding_stateful_block_is_demoted_to_per_lane() {
        // ext -> NOT -> reg -> sink: the NOT's output link cannot pack
        // (consumer holds state), so the NOT falls back to per-lane.
        let build = || {
            let mut spec = SystemSpec::new();
            let kn = spec.add_kind(Box::new(NotGate));
            let kr = spec.add_kind(Box::new(BitReg));
            let n = spec.add_block(kn);
            let r = spec.add_block(kr);
            let ext = spec.external((n, 0), 0);
            spec.wire((n, 0), (r, 0));
            let out = spec.sink((r, 0));
            (spec, ext, out)
        };
        let lanes = 3usize;
        let specs: Vec<SystemSpec> = (0..lanes).map(|_| build().0).collect();
        let mut be = BatchedEngine::new(specs, &CompileOptions::default(), 1).expect("build");
        assert_eq!(be.program().bitwise_ops(), 0, "demotion must cascade");
        let (_, ext, out) = build();
        for j in 0..lanes {
            be.set_external(j, ext, (j as u64) & 1);
        }
        be.run(2);
        for j in 0..lanes {
            assert_eq!(be.link_value(j, out), !(j as u64) & 1, "lane {j}");
        }
    }

    // ---- bitflow slicing / packed expressions ----

    /// 4-bit register: out = state, next = in. Per-lane (no
    /// `bit_parallel`), so its sliced links exercise the per-lane
    /// sub-word gather/scatter path.
    struct Reg4;

    impl BlockKind for Reg4 {
        fn name(&self) -> &str {
            "reg4"
        }
        fn state_bits(&self) -> usize {
            4
        }
        fn input_widths(&self) -> Vec<usize> {
            vec![4]
        }
        fn output_widths(&self) -> Vec<usize> {
            vec![4]
        }
        fn reset(&self, state: &mut [u64]) {
            state[0] = 0b1010;
        }
        fn eval(
            &self,
            _instance: usize,
            cur: &[u64],
            inputs: &[u64],
            _cycle: u64,
            next: &mut [u64],
            outputs: &mut [u64],
            _side: &mut SideView<'_>,
        ) {
            outputs[0] = cur[0];
            next[0] = inputs[0] & 0xF;
        }
        fn comb_inputs(&self, _port: usize) -> CombInputs {
            CombInputs::None
        }
    }

    /// Stateless 4-bit mixer with exact declared bit semantics:
    /// out[i] = in[i] ^ in[i+1] for i < 3, out[3] = !in[3]. With its
    /// links sliced it lowers to a packed-expression op.
    struct Rot4;

    impl BlockKind for Rot4 {
        fn name(&self) -> &str {
            "rot4"
        }
        fn state_bits(&self) -> usize {
            0
        }
        fn input_widths(&self) -> Vec<usize> {
            vec![4]
        }
        fn output_widths(&self) -> Vec<usize> {
            vec![4]
        }
        fn reset(&self, _state: &mut [u64]) {}
        fn eval(
            &self,
            _instance: usize,
            _cur: &[u64],
            inputs: &[u64],
            _cycle: u64,
            _next: &mut [u64],
            outputs: &mut [u64],
            _side: &mut SideView<'_>,
        ) {
            let x = inputs[0];
            let mut o = 0u64;
            for i in 0..3 {
                o |= (((x >> i) ^ (x >> (i + 1))) & 1) << i;
            }
            o |= ((!(x >> 3)) & 1) << 3;
            outputs[0] = o;
        }
        fn bit_semantics(&self, port: usize) -> Option<crate::block::BitSemantics> {
            if port != 0 {
                return None;
            }
            let inb = |bit: usize| Box::new(BitExpr::In { port: 0, bit });
            let mut bits: Vec<BitExpr> = (0..3).map(|i| BitExpr::Xor(inb(i), inb(i + 1))).collect();
            bits.push(BitExpr::Not(inb(3)));
            Some(crate::block::BitSemantics { bits })
        }
    }

    /// ext -> reg4 -> rot4 -> reg4 -> sink, with both 4-bit interior
    /// links sliced into per-bit sub-words.
    fn sliced_spec() -> (SystemSpec, usize, CompileOptions) {
        let mut spec = SystemSpec::new();
        let kr = spec.add_kind(Box::new(Reg4));
        let kx = spec.add_kind(Box::new(Rot4));
        let r_in = spec.add_block(kr);
        let rot = spec.add_block(kx);
        let r_out = spec.add_block(kr);
        let ext = spec.external((r_in, 0), 0);
        let l1 = spec.wire((r_in, 0), (rot, 0));
        let l2 = spec.wire((rot, 0), (r_out, 0));
        spec.sink((r_out, 0));
        let opts = CompileOptions {
            slice: crate::compile::SlicePlan {
                links: vec![l1, l2],
            },
            ..Default::default()
        };
        (spec, ext, opts)
    }

    /// Lane-distinct, cycle-varying 4-bit external value.
    fn ext4(lane: usize, cycle: u64) -> u64 {
        (lane as u64 * 5 + cycle * 3 + 1) & 0xF
    }

    /// Plain (unsliced) scalar reference run of `sliced_spec`.
    fn sliced_scalar_reference(lane: usize, cycles: u64) -> CompiledEngine {
        let (spec, ext, _) = sliced_spec();
        let mut eng = CompiledEngine::new(spec);
        for c in 0..cycles {
            eng.set_external(ext, ext4(lane, c));
            eng.step();
        }
        eng
    }

    #[test]
    fn sliced_links_pack_and_expr_blocks_go_bitwise() {
        // 67 lanes: exercises the tail mask of the second packed word.
        let lanes = 67usize;
        let (_, ext, opts) = sliced_spec();
        let specs: Vec<SystemSpec> = (0..lanes).map(|_| sliced_spec().0).collect();
        let mut be = BatchedEngine::new(specs, &opts, 2).expect("build");
        assert!(
            be.program().bitwise_ops() > 0,
            "rot4 must lower to a packed-expression op"
        );
        assert!(
            be.program().packed_links() >= 8,
            "both sliced links' sub-words must pack"
        );
        let cycles = 9u64;
        for c in 0..cycles {
            for j in 0..lanes {
                be.set_external(j, ext, ext4(j, c));
            }
            be.run(1);
        }
        // Sliced + batched must be bit-identical to a plain scalar run.
        for j in 0..lanes {
            let scalar = sliced_scalar_reference(j, cycles);
            assert_lane_matches(&be, j, &scalar);
        }
    }

    #[test]
    fn sliced_snapshot_and_halt_stay_bit_exact() {
        let lanes = 66usize;
        let (_, ext, opts) = sliced_spec();
        let specs: Vec<SystemSpec> = (0..lanes).map(|_| sliced_spec().0).collect();
        let mut be = BatchedEngine::new(specs, &opts, 1).expect("build");
        let drive = |be: &mut BatchedEngine, from: u64, to: u64, skip: Option<usize>| {
            for c in from..to {
                for j in 0..lanes {
                    if Some(j) != skip {
                        be.set_external(j, ext, ext4(j, c));
                    }
                }
                be.run(1);
            }
        };
        drive(&mut be, 0, 4, None);
        let snap = be.snapshot();
        // Halt lane 65 (tail of the second packed word) and keep going.
        be.halt_lane(65);
        let frozen: Vec<u64> = (0..be.spec(65).links().len())
            .map(|l| be.link_value(65, l))
            .collect();
        drive(&mut be, 4, 9, Some(65));
        for (l, &v) in frozen.iter().enumerate() {
            assert_eq!(be.link_value(65, l), v, "halted lane link {l}");
        }
        for j in 0..3 {
            let scalar = sliced_scalar_reference(j, 9);
            assert_lane_matches(&be, j, &scalar);
        }
        // Restore rewinds every lane (packed sub-words included).
        let tail: Vec<Vec<u64>> = (0..lanes)
            .map(|j| {
                (0..be.spec(j).links().len())
                    .map(|l| be.link_value(j, l))
                    .collect()
            })
            .collect();
        be.restore(&snap);
        assert_eq!(be.cycle(), 4);
        be.halt_lane(65);
        drive(&mut be, 4, 9, Some(65));
        for j in 0..lanes {
            for (l, &v) in tail[j].iter().enumerate() {
                assert_eq!(be.link_value(j, l), v, "lane {j} link {l} after restore");
            }
        }
    }

    #[test]
    fn divergent_bit_semantics_are_rejected() {
        /// Same shape as `Rot4` but different declared semantics.
        struct Rot4Other;
        impl BlockKind for Rot4Other {
            fn name(&self) -> &str {
                "rot4"
            }
            fn state_bits(&self) -> usize {
                0
            }
            fn input_widths(&self) -> Vec<usize> {
                vec![4]
            }
            fn output_widths(&self) -> Vec<usize> {
                vec![4]
            }
            fn reset(&self, _state: &mut [u64]) {}
            fn eval(
                &self,
                _instance: usize,
                _cur: &[u64],
                inputs: &[u64],
                _cycle: u64,
                _next: &mut [u64],
                outputs: &mut [u64],
                _side: &mut SideView<'_>,
            ) {
                outputs[0] = inputs[0];
            }
            fn bit_semantics(&self, port: usize) -> Option<crate::block::BitSemantics> {
                if port != 0 {
                    return None;
                }
                Some(crate::block::BitSemantics {
                    bits: (0..4).map(|bit| BitExpr::In { port: 0, bit }).collect(),
                })
            }
        }
        let build = |other: bool| {
            let mut spec = SystemSpec::new();
            let kr = spec.add_kind(Box::new(Reg4));
            let kx: usize = if other {
                spec.add_kind(Box::new(Rot4Other))
            } else {
                spec.add_kind(Box::new(Rot4))
            };
            let r_in = spec.add_block(kr);
            let rot = spec.add_block(kx);
            spec.external((r_in, 0), 0);
            spec.wire((r_in, 0), (rot, 0));
            spec.sink((rot, 0));
            spec
        };
        let err = BatchedEngine::new(
            vec![build(false), build(true)],
            &CompileOptions::default(),
            1,
        )
        .expect_err("divergent semantics");
        assert!(err.to_string().contains(codes::BATCH_DIVERGENT_TOPOLOGY));
    }

    // ---- structural lint and mode rejection ----

    #[test]
    fn divergent_lane_topology_is_rejected_with_the_lint_code() {
        let (a, _, _) = mixed_spec();
        let (b, _, _, _) = gate_spec();
        let err = BatchedEngine::new(vec![a, b], &CompileOptions::default(), 1)
            .expect_err("divergent lanes");
        let msg = err.to_string();
        assert!(
            msg.contains(codes::BATCH_DIVERGENT_TOPOLOGY),
            "error must carry the lint code: {msg}"
        );
    }

    #[test]
    fn empty_batch_is_rejected() {
        assert!(BatchedEngine::new(Vec::new(), &CompileOptions::default(), 1).is_err());
    }

    #[test]
    fn cyclic_spec_is_rejected() {
        // A comb self-loop compiles to fixed-point mode, which cannot
        // batch.
        let build = || {
            let mut spec = SystemSpec::new();
            let kn = spec.add_kind(Box::new(NotGate));
            let n = spec.add_block(kn);
            spec.wire((n, 0), (n, 0));
            spec
        };
        let err = BatchedEngine::new(vec![build(), build()], &CompileOptions::default(), 1)
            .expect_err("cyclic");
        assert!(err.to_string().contains("straight-line"));
    }

    #[test]
    fn profiler_counts_match_scalar_attribution() {
        let lanes = 3usize;
        let mut be =
            BatchedEngine::new(mixed_lanes(lanes), &CompileOptions::default(), 1).expect("build");
        let n_blocks = be.spec(0).blocks().len();
        be.attach_profiler(KernelProfiler::new(n_blocks, 1));
        be.run(10);
        let report = be
            .take_profiler()
            .expect("attached")
            .report("seqsim-batched", 0.0, 0);
        assert_eq!(report.cycles, 10);
        for e in &report.entries {
            assert_eq!(e.evals, 10, "one update per block per cycle");
        }
    }
}
