//! Schedule compilation: lower a checked [`SystemSpec`] into a flat
//! bytecode program over one contiguous `u64` arena, plus the
//! interpreter engine that executes it.
//!
//! The hybrid scheduler ([`DynamicEngine`](crate::DynamicEngine) with a
//! `speccheck` schedule) still *interprets* the spec every delta cycle:
//! virtual `BlockKind::eval` calls, per-link change tracking, worklist
//! scans. This module compiles the schedule once, ahead of time:
//!
//! * **Arena** — every link value and both state banks live at fixed
//!   `u64` offsets in one contiguous allocation ([`Arena`]); a link read
//!   is one indexed load, the bank swap is an XOR of one offset.
//! * **Bytecode** — the per-cycle work is a flat [`Op`] list executed by
//!   a computed-dispatch `match` ([`CompiledEngine::step`]). Gather
//!   and scatter port↔link moves are table-driven
//!   ([`CompiledProgram::gathers`] / [`scatters`](CompiledProgram::scatters)).
//! * **HBR elision** — the port-level combinational graph is acyclic
//!   (the analyzer's single-evaluation proof), so the program is a
//!   straight line: one comb pass per dependency level, then one
//!   state-update pass. No change detection, no re-evaluation, no
//!   worklist — each value is written exactly once per cycle, after
//!   everything it depends on has settled.
//! * **Specialized opcodes** — every [`BlockKind`](crate::BlockKind) of
//!   the spec provides a [`CompiledExec`]
//!   ([`BlockKind::compile`](crate::BlockKind::compile)) that keeps its
//!   register state *decoded* between cycles, eliding the per-delta
//!   pack/unpack of the interpreting engines.
//!
//! This is a static-schedule compiler: it lowers acyclic specs whose
//! kinds all ship an exec, and [`CompiledProgram::compile`] refuses any
//! other. A combinational cycle is the paper's §4.2 case; such specs run
//! on the interpreting [`DynamicEngine`](crate::DynamicEngine), whose HBR
//! scheduler is that method.
//!
//! # Why the straight-line program is bit-identical
//!
//! Level ℓ of an output port is defined over the *declared* comb
//! dependencies
//! ([`BlockKind::comb_inputs`](crate::BlockKind::comb_inputs)): a port
//! at level ℓ depends only on links driven by ports at levels < ℓ (plus
//! registered state, constants and externals). The program scatters all
//! level-0 outputs, then all level-1 outputs, … so by the time an op
//! runs, every link it is allowed to read holds its settled value for
//! this cycle. An op scatters *only* the ports of its level, so a value
//! an exec computes from not-yet-settled inputs never reaches a link.
//! The final update pass then sees exactly the link values a
//! parallel-settled hardware cycle would produce.

use crate::block::{CombInputs, LinkDriver, SystemSpec};
use crate::counters::DeltaStats;
use crate::profiler::KernelProfiler;
use crate::side::{SideMem, SideView};
use noc_types::bits::words_for_bits;

// ---------------------------------------------------------------------------
// Specialized execution units
// ---------------------------------------------------------------------------

/// A specialized, decoded-state execution unit for one
/// [`BlockKind`](crate::BlockKind).
///
/// The compiled engine keeps one exec per kind; it owns the *decoded*
/// register state of every instance of that kind, so the per-cycle path
/// never packs/unpacks bit fields. The engine synchronizes decoded and
/// packed state only at snapshot/restore/peek boundaries via
/// [`load`](CompiledExec::load) / [`store`](CompiledExec::store).
pub trait CompiledExec: Send {
    /// Replace instance `instance`'s decoded state by unpacking `packed`
    /// (same encoding as [`BlockKind::reset`](crate::BlockKind::reset)
    /// state words).
    fn load(&mut self, instance: usize, packed: &[u64]);

    /// Pack instance `instance`'s decoded state into `packed`.
    fn store(&self, instance: usize, packed: &mut [u64]);

    /// Evaluate comb pass `pass` (0-based over the kind's distinct comb
    /// levels, ascending) for `instance`. `inputs` is port-indexed; only
    /// the ports gathered for this op (the union of the pass's declared
    /// comb dependencies) are fresh. Write the pass's output ports into
    /// the port-indexed `outputs`; the interpreter scatters them.
    fn comb(
        &mut self,
        instance: usize,
        pass: usize,
        inputs: &[u64],
        cycle: u64,
        outputs: &mut [u64],
        side: &mut SideView<'_>,
    );

    /// Commit the clock edge for `instance`: consume the settled
    /// `inputs` (all ports fresh) and advance the decoded register state
    /// in place. Runs at most once per system cycle; the returned
    /// [`Wake`] says when it has to run next. Engines that evaluate
    /// every block every cycle may ignore it.
    fn update(
        &mut self,
        instance: usize,
        inputs: &[u64],
        cycle: u64,
        side: &mut SideView<'_>,
    ) -> Wake;

    /// The exec as [`Any`](std::any::Any), so a host that knows the
    /// concrete type can borrow its decoded state instead of going
    /// through [`store`](CompiledExec::store) and an unpack.
    fn as_any(&self) -> &dyn std::any::Any;
}

/// When a block has to be evaluated again, as reported by
/// [`CompiledExec::update`] for the cycle it just committed.
///
/// Anything but [`Next`](Wake::Next) is a promise about the update that
/// returned it *and* the ones it lets the engine skip: no register and
/// no side-ring word changed, and none will for as long as every input
/// link keeps its current word (and, for [`At`](Wake::At), the named
/// cycle has not come). Comb outputs are functions of registers and
/// input links only, so the words the block last scattered stay right
/// for that whole time too — the engine skips all of the block's ops
/// and wakes it the moment one of its input links is written with a
/// different word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// Evaluate the block next cycle (the only answer for an update
    /// that did something, or whose behaviour depends on the cycle
    /// number in a way `At` cannot express).
    Next,
    /// Nothing to do before this cycle unless an input link changes.
    At(u64),
    /// Nothing to do until an input link changes.
    OnInput,
}

// ---------------------------------------------------------------------------
// Bytecode
// ---------------------------------------------------------------------------

/// A `(start, len)` window into one of the program's side tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRange {
    /// First entry index.
    pub start: u32,
    /// Number of entries.
    pub len: u32,
}

impl OpRange {
    /// The window as a `usize` range, for indexing the side table.
    pub fn as_range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// One gather move: load `arena.words[link]`, shift it left by `shift`
/// and either overwrite (`acc == false`) or OR into (`acc == true`)
/// `in_buf[port]`. Plain links use one move with `shift == 0, acc ==
/// false` (the old semantics exactly); a sliced link reassembles its
/// port word through one accumulating move per bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatherMove {
    /// Destination input port.
    pub port: u32,
    /// Source arena link offset.
    pub link: u32,
    /// Left shift applied to the loaded word (sub-word bit position).
    pub shift: u8,
    /// OR into the port word instead of overwriting it.
    pub acc: bool,
}

/// One scatter move: `arena.words[link] = (out_buf[port] >> shift) &
/// mask`. Plain links use `shift == 0` and the link-width mask; a
/// sliced link scatters one bit per move with `mask == 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScatterMove {
    /// Source output port.
    pub port: u32,
    /// Destination arena link offset.
    pub link: u32,
    /// Link width mask (applied after the shift).
    pub mask: u64,
    /// Right shift applied to the port word (sub-word bit position).
    pub shift: u8,
}

/// One bytecode instruction. `kind` / `block` / `instance` are
/// back-pointers into the spec (`block` also drives profiler
/// attribution); `gather` / `scatter` index the program's side tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Specialized comb pass via the kind's [`CompiledExec`].
    Comb {
        /// Kind id (exec table index).
        kind: u32,
        /// Block-local comb pass index (see [`CompiledExec::comb`]).
        pass: u32,
        /// Block id (attribution / side rings).
        block: u32,
        /// Instance index within the kind.
        instance: u32,
        /// Input moves (the pass's declared comb dependencies).
        gather: OpRange,
        /// Output moves (this level's ports only).
        scatter: OpRange,
    },
    /// Specialized clock edge via the kind's [`CompiledExec`].
    Update {
        /// Kind id (exec table index).
        kind: u32,
        /// Block id.
        block: u32,
        /// Instance index within the kind.
        instance: u32,
        /// Input moves (all input ports).
        gather: OpRange,
    },
}

impl Op {
    /// The block this op is attributed to.
    pub fn block(&self) -> usize {
        match *self {
            Op::Comb { block, .. } | Op::Update { block, .. } => block as usize,
        }
    }

    /// The scatter window, if this op writes links.
    pub fn scatter(&self) -> Option<OpRange> {
        match *self {
            Op::Comb { scatter, .. } => Some(scatter),
            Op::Update { .. } => None,
        }
    }
}

/// A bit-slicing plan: links the compiler decomposes into per-bit
/// arena sub-words.
///
/// Slicing is *unconditionally semantics-preserving*: the scatter
/// splits the driver's exact output bits into one word per bit and the
/// gather reassembles the exact same word at every consumer, so a
/// sliced program is bit-identical to the unsliced one by construction.
/// No engine build passes a non-empty plan.
///
/// Links that cannot be sliced (width outside `2..=64`, or not
/// block-driven) are silently skipped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlicePlan {
    /// Link ids to slice (any order; duplicates are ignored).
    pub links: Vec<usize>,
}

/// One sliced link of a compiled program: bits `0..width` of `link`
/// live one per arena word at offsets `base..base + width` (LSB
/// first). The link's own word offset is dead in a sliced program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceEntry {
    /// The source link id.
    pub link: u32,
    /// Arena word offset of the link's bit 0.
    pub base: u32,
    /// The link's width in bits.
    pub width: u32,
}

/// Options for [`CompiledProgram::compile`].
#[derive(Debug, Clone, Default)]
pub struct CompileOptions {
    /// Block evaluation order inside each pass (e.g. the hybrid
    /// schedule's topological order): a permutation of the block ids.
    /// Defaults to spec order; any permutation is bit-identical.
    pub order: Option<Vec<usize>>,
    /// Links to decompose into per-bit sub-words (see [`SlicePlan`]).
    pub slice: SlicePlan,
}

/// A compiled schedule: the bytecode, its gather/scatter side tables,
/// and the arena geometry it addresses.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    /// Number of comb dependency levels.
    pub levels: u32,
    /// The flat instruction list: `ops[..update_start]` are comb passes
    /// in level order and `ops[update_start..]` are updates.
    pub ops: Vec<Op>,
    /// Gather side table ([`OpRange`]-indexed).
    pub gathers: Vec<GatherMove>,
    /// Scatter side table ([`OpRange`]-indexed).
    pub scatters: Vec<ScatterMove>,
    /// First update op.
    pub update_start: usize,
    /// Number of blocks in the source spec.
    pub n_blocks: usize,
    /// Number of links in the source spec (= arena link words).
    pub n_links: usize,
    /// Sliced links, ascending by link id (empty without a slice plan).
    pub slices: Vec<SliceEntry>,
}

impl CompiledProgram {
    /// Lower `spec` into a straight-line program.
    ///
    /// # Panics
    /// - If `opts.order` is not a permutation of the block ids; the
    ///   message names the first block listed other than once.
    /// - If the port-level comb graph is cyclic; the message names the
    ///   links on or behind the cycle.
    /// - If a kind of the spec has no [`CompiledExec`]
    ///   ([`BlockKind::compile`](crate::BlockKind::compile) returns
    ///   `None`); the message names the kind.
    ///
    /// Specs refused for either of the last two reasons run on the
    /// interpreting [`DynamicEngine`](crate::DynamicEngine).
    pub fn compile(spec: &SystemSpec, opts: &CompileOptions) -> CompiledProgram {
        let blocks = spec.blocks();
        let kinds = spec.kinds();
        let links = spec.links();
        let nb = blocks.len();

        let order: Vec<usize> = match &opts.order {
            Some(o) => {
                let mut listed = vec![0usize; nb];
                for &b in o {
                    assert!(
                        b < nb,
                        "order lists block {b}, but the spec has {nb} blocks"
                    );
                    listed[b] += 1;
                }
                if let Some(b) = listed.iter().position(|&n| n != 1) {
                    panic!(
                        "order must list every block exactly once: block {b} is listed {} times",
                        listed[b]
                    );
                }
                o.clone()
            }
            None => (0..nb).collect(),
        };

        // ---- port-level comb levels (Kahn) ----
        let mut port_base = vec![0usize; nb + 1];
        for b in 0..nb {
            port_base[b + 1] = port_base[b] + blocks[b].outputs.len();
        }
        let np = port_base[nb];
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); np];
        let mut indeg = vec![0u32; np];
        for (b, inst) in blocks.iter().enumerate() {
            let kind = &kinds[inst.kind];
            for p in 0..inst.outputs.len() {
                let v = (port_base[b] + p) as u32;
                let ci = kind.comb_inputs(p);
                if ci.is_registered() {
                    continue;
                }
                for (i, &l) in inst.inputs.iter().enumerate() {
                    if !ci.depends_on(i) {
                        continue;
                    }
                    if let LinkDriver::Block { block, port } = links[l].driver {
                        adj[port_base[block] + port].push(v);
                        indeg[v as usize] += 1;
                    }
                }
            }
        }
        let mut level = vec![0u32; np];
        let mut queue: Vec<u32> = (0..np as u32).filter(|&v| indeg[v as usize] == 0).collect();
        let mut processed = 0usize;
        while let Some(u) = queue.pop() {
            processed += 1;
            for &v in &adj[u as usize] {
                let lv = level[u as usize] + 1;
                if lv > level[v as usize] {
                    level[v as usize] = lv;
                }
                indeg[v as usize] -= 1;
                if indeg[v as usize] == 0 {
                    queue.push(v);
                }
            }
        }
        if processed < np {
            let mut cyclic = Vec::new();
            for (b, inst) in blocks.iter().enumerate() {
                for (p, &l) in inst.outputs.iter().enumerate() {
                    if indeg[port_base[b] + p] > 0 {
                        cyclic.push(l);
                    }
                }
            }
            panic!(
                "combinational cycle through links {cyclic:?}: the compiled engine \
                 lowers acyclic specs only; run this spec on DynamicEngine"
            );
        }
        if let Some(k) = kinds.iter().find(|k| k.compile().is_none()) {
            panic!(
                "kind `{}` has no CompiledExec (BlockKind::compile): the compiled \
                 engine cannot lower it; run this spec on DynamicEngine",
                k.name()
            );
        }

        // ---- slice-plan resolution ----
        // `sub_base[l]` is the arena word of link `l`'s bit 0 when
        // sliced, `usize::MAX` otherwise. Ineligible links (width
        // outside 2..=64, or not block-driven — external/const words
        // are written through `Arena::set_link` which cannot fan out)
        // are skipped.
        let mut sub_base = vec![usize::MAX; links.len()];
        let mut n_sub = 0usize;
        let mut wanted = opts.slice.links.clone();
        wanted.sort_unstable();
        wanted.dedup();
        for l in wanted {
            if l < links.len()
                && (2..=64).contains(&links[l].width)
                && matches!(links[l].driver, LinkDriver::Block { .. })
            {
                sub_base[l] = links.len() + n_sub;
                n_sub += links[l].width;
            }
        }

        let mut prog = CompiledProgram {
            levels: 0,
            ops: Vec::new(),
            gathers: Vec::new(),
            scatters: Vec::new(),
            update_start: 0,
            n_blocks: nb,
            n_links: links.len(),
            slices: Vec::new(),
        };
        for (l, &base) in sub_base.iter().enumerate() {
            if base != usize::MAX {
                prog.slices.push(SliceEntry {
                    link: l as u32,
                    base: base as u32,
                    width: links[l].width as u32,
                });
            }
        }
        let mask_of = |l: usize| -> u64 {
            let w = links[l].width;
            if w >= 64 {
                u64::MAX
            } else {
                (1u64 << w) - 1
            }
        };
        let push_gather = |tbl: &mut Vec<GatherMove>, ports: &[usize], b: usize| -> OpRange {
            let start = tbl.len() as u32;
            for &i in ports {
                let l = blocks[b].inputs[i];
                if sub_base[l] == usize::MAX {
                    tbl.push(GatherMove {
                        port: i as u32,
                        link: l as u32,
                        shift: 0,
                        acc: false,
                    });
                } else {
                    for bit in 0..links[l].width {
                        tbl.push(GatherMove {
                            port: i as u32,
                            link: (sub_base[l] + bit) as u32,
                            shift: bit as u8,
                            acc: bit > 0,
                        });
                    }
                }
            }
            OpRange {
                start,
                len: tbl.len() as u32 - start,
            }
        };
        let push_scatter = |tbl: &mut Vec<ScatterMove>, p: usize, l: usize| {
            if sub_base[l] == usize::MAX {
                tbl.push(ScatterMove {
                    port: p as u32,
                    link: l as u32,
                    mask: mask_of(l),
                    shift: 0,
                });
            } else {
                for bit in 0..links[l].width {
                    tbl.push(ScatterMove {
                        port: p as u32,
                        link: (sub_base[l] + bit) as u32,
                        mask: 1,
                        shift: bit as u8,
                    });
                }
            }
        };

        // ---- straight-line emission ----
        let n_levels = if np == 0 {
            0
        } else {
            level.iter().max().map_or(0, |&m| m + 1)
        };
        for lvl in 0..n_levels {
            for &b in &order {
                let inst = &blocks[b];
                let kind = &kinds[inst.kind];
                let outs_at: Vec<usize> = (0..inst.outputs.len())
                    .filter(|&p| level[port_base[b] + p] == lvl)
                    .collect();
                if outs_at.is_empty() {
                    continue;
                }
                // Block-local pass index: how many distinct lower levels
                // this block's ports occupy.
                let pass = (0..inst.outputs.len())
                    .filter(|&p| level[port_base[b] + p] < lvl)
                    .map(|p| level[port_base[b] + p])
                    .collect::<std::collections::BTreeSet<_>>()
                    .len() as u32;
                let sstart = prog.scatters.len() as u32;
                for &p in &outs_at {
                    push_scatter(&mut prog.scatters, p, inst.outputs[p]);
                }
                let scatter = OpRange {
                    start: sstart,
                    len: prog.scatters.len() as u32 - sstart,
                };
                // Gather only the pass's declared comb dependencies.
                let mut deps = std::collections::BTreeSet::new();
                for &p in &outs_at {
                    match kind.comb_inputs(p) {
                        CombInputs::None => {}
                        CombInputs::All => {
                            deps.extend(0..inst.inputs.len());
                        }
                        CombInputs::Some(list) => deps.extend(list),
                    }
                }
                let deps: Vec<usize> = deps.into_iter().collect();
                let gather = push_gather(&mut prog.gathers, &deps, b);
                prog.ops.push(Op::Comb {
                    kind: inst.kind as u32,
                    pass,
                    block: b as u32,
                    instance: inst.instance_of_kind as u32,
                    gather,
                    scatter,
                });
            }
        }
        prog.update_start = prog.ops.len();
        for &b in &order {
            let inst = &blocks[b];
            let all_in: Vec<usize> = (0..inst.inputs.len()).collect();
            let gather = push_gather(&mut prog.gathers, &all_in, b);
            prog.ops.push(Op::Update {
                kind: inst.kind as u32,
                block: b as u32,
                instance: inst.instance_of_kind as u32,
                gather,
            });
        }
        prog.levels = n_levels;
        prog
    }

    /// Total per-bit sub-words the slice table adds to the arena.
    pub fn n_sub(&self) -> usize {
        self.slices.iter().map(|s| s.width as usize).sum()
    }

    /// Arena word holding bit `bit` of link `l`: the link's own word
    /// when unsliced, the per-bit sub-word otherwise.
    pub fn bit_word(&self, l: usize, bit: usize) -> usize {
        match self.slices.binary_search_by_key(&(l as u32), |s| s.link) {
            Ok(i) => self.slices[i].base as usize + bit,
            Err(_) => l,
        }
    }

    /// The slice entry of link `l`, if it is sliced.
    pub fn slice_of(&self, l: usize) -> Option<SliceEntry> {
        self.slices
            .binary_search_by_key(&(l as u32), |s| s.link)
            .ok()
            .map(|i| self.slices[i])
    }

    /// Render the program as text, one op per line (the `speclint
    /// --emit-program` artifact; `tests/compiled_program.rs` pins its
    /// CRC per network).
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("; seqsim compiled program\n");
        let _ = writeln!(out, "mode straight levels={}", self.levels);
        let _ = writeln!(out, "blocks {}", self.n_blocks);
        let _ = writeln!(out, "links {}", self.n_links);
        let _ = writeln!(out, "update_start {}", self.update_start);
        for sl in &self.slices {
            let _ = writeln!(out, "slice {} {} {}", sl.link, sl.base, sl.width);
        }
        let g = |r: OpRange| -> String {
            let moves: Vec<String> = self.gathers[r.as_range()]
                .iter()
                .map(|m| {
                    if m.shift == 0 && !m.acc {
                        format!("({},{})", m.port, m.link)
                    } else {
                        format!("({},{},{},{})", m.port, m.link, m.shift, u8::from(m.acc))
                    }
                })
                .collect();
            format!("[{}]", moves.join(","))
        };
        let s = |r: OpRange| -> String {
            let moves: Vec<String> = self.scatters[r.as_range()]
                .iter()
                .map(|m| {
                    if m.shift == 0 {
                        format!("({},{},{:#x})", m.port, m.link, m.mask)
                    } else {
                        format!("({},{},{:#x},{})", m.port, m.link, m.mask, m.shift)
                    }
                })
                .collect();
            format!("[{}]", moves.join(","))
        };
        for op in &self.ops {
            match *op {
                Op::Comb {
                    kind,
                    pass,
                    block,
                    instance,
                    gather,
                    scatter,
                } => {
                    let _ = writeln!(
                        out,
                        "op comb k={kind} p={pass} b={block} i={instance} g={} s={}",
                        g(gather),
                        s(scatter)
                    );
                }
                Op::Update {
                    kind,
                    block,
                    instance,
                    gather,
                } => {
                    let _ = writeln!(
                        out,
                        "op update k={kind} b={block} i={instance} g={}",
                        g(gather)
                    );
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------------

/// One contiguous `u64` allocation holding every link value (word
/// offset = [`LinkId`](crate::block::LinkId)) followed by both packed
/// state banks. The bank swap is the paper's offset-pointer switch.
#[derive(Debug, Clone, PartialEq)]
pub struct Arena {
    words: Vec<u64>,
    n_links: usize,
    /// Per-block word offset within a bank.
    state_off: Vec<usize>,
    /// Per-block word count.
    state_len: Vec<usize>,
    bank_words: usize,
    /// Current bank (0/1).
    cur: usize,
}

impl Arena {
    /// Allocate and reset an arena for `spec`: link words take their
    /// reset values, both state banks are zeroed.
    pub fn new(spec: &SystemSpec) -> Arena {
        Self::new_sliced(spec, &[])
    }

    /// Allocate an arena with extra per-bit sub-words for `slices` (a
    /// compiled program's slice table): sub-words sit between the
    /// source links and the state banks, seeded from the parent link's
    /// reset bits.
    pub fn new_sliced(spec: &SystemSpec, slices: &[SliceEntry]) -> Arena {
        let n_sub: usize = slices.iter().map(|s| s.width as usize).sum();
        let n_links = spec.links().len() + n_sub;
        let mut state_off = Vec::with_capacity(spec.blocks().len());
        let mut state_len = Vec::with_capacity(spec.blocks().len());
        let mut off = 0usize;
        for b in spec.blocks() {
            let w = words_for_bits(spec.kinds()[b.kind].state_bits());
            state_off.push(off);
            state_len.push(w);
            off += w;
        }
        let mut words = vec![0u64; n_links + 2 * off];
        for (l, ls) in spec.links().iter().enumerate() {
            words[l] = ls.reset_value;
        }
        for s in slices {
            let rv = spec.links()[s.link as usize].reset_value;
            for bit in 0..s.width as usize {
                words[s.base as usize + bit] = (rv >> bit) & 1;
            }
        }
        Arena {
            words,
            n_links,
            state_off,
            state_len,
            bank_words: off,
            cur: 0,
        }
    }

    /// Read link `l`.
    #[inline]
    pub fn link(&self, l: usize) -> u64 {
        self.words[l]
    }

    /// Write link `l`.
    #[inline]
    pub fn set_link(&mut self, l: usize, v: u64) {
        self.words[l] = v;
    }

    /// Current-state words of block `b`.
    #[inline]
    pub fn cur(&self, b: usize) -> &[u64] {
        let start = self.n_links + self.cur * self.bank_words + self.state_off[b];
        &self.words[start..start + self.state_len[b]]
    }

    /// Current-state words of block `b`, writable (reset / sync only).
    #[inline]
    pub fn cur_mut(&mut self, b: usize) -> &mut [u64] {
        let start = self.n_links + self.cur * self.bank_words + self.state_off[b];
        &mut self.words[start..start + self.state_len[b]]
    }

    /// Current- and next-state words of block `b` simultaneously.
    #[inline]
    pub fn cur_and_next_mut(&mut self, b: usize) -> (&[u64], &mut [u64]) {
        let len = self.state_len[b];
        if len == 0 {
            return (&[], &mut []);
        }
        let cur_start = self.n_links + self.cur * self.bank_words + self.state_off[b];
        let next_start = self.n_links + (self.cur ^ 1) * self.bank_words + self.state_off[b];
        if cur_start < next_start {
            let (lo, hi) = self.words.split_at_mut(next_start);
            (&lo[cur_start..cur_start + len], &mut hi[..len])
        } else {
            let (lo, hi) = self.words.split_at_mut(cur_start);
            (&hi[..len], &mut lo[next_start..next_start + len])
        }
    }

    /// Copy the current bank of block `b` into its next bank (reset).
    pub fn copy_cur_to_next(&mut self, b: usize) {
        let (cur, next) = self.cur_and_next_mut(b);
        let tmp: Vec<u64> = cur.to_vec();
        next.copy_from_slice(&tmp);
    }

    /// Switch the bank pointer: next becomes current. O(1).
    #[inline]
    pub fn swap(&mut self) {
        self.cur ^= 1;
    }

    /// Number of link words (state banks start here).
    pub fn n_links(&self) -> usize {
        self.n_links
    }

    /// Total arena words (links + both banks).
    pub fn total_words(&self) -> usize {
        self.words.len()
    }

    /// Serialize the arena (layout and every word) for a durable
    /// checkpoint.
    pub fn encode(&self, e: &mut crate::wire::Enc) {
        e.usize(self.n_links);
        e.usizes(&self.state_off);
        e.usizes(&self.state_len);
        e.usize(self.bank_words);
        e.usize(self.cur);
        e.u64s(&self.words);
    }

    /// Rebuild an arena encoded by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// [`crate::wire::WireError`] on underrun or an inconsistent layout.
    pub fn decode(d: &mut crate::wire::Dec<'_>) -> Result<Self, crate::wire::WireError> {
        let n_links = d.usize()?;
        let state_off = d.usizes()?;
        let state_len = d.usizes()?;
        let bank_words = d.usize()?;
        let cur = d.usize()?;
        let words = d.u64s()?;
        if state_off.len() != state_len.len() || cur > 1 || words.len() != n_links + 2 * bank_words
        {
            return Err(crate::wire::WireError::new("inconsistent arena layout"));
        }
        Ok(Arena {
            words,
            n_links,
            state_off,
            state_len,
            bank_words,
            cur,
        })
    }
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// A full engine snapshot: the arena (custom-exec state packed in),
/// side rings, cycle number and stats. Restore is bit-exact.
#[derive(Debug, Clone)]
pub struct CompiledSnapshot {
    arena: Arena,
    side: SideMem,
    cycle: u64,
    stats: DeltaStats,
}

impl CompiledSnapshot {
    /// Serialize the snapshot for a durable checkpoint.
    pub fn encode(&self, e: &mut crate::wire::Enc) {
        self.arena.encode(e);
        self.side.encode(e);
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
        Ok(CompiledSnapshot {
            arena: Arena::decode(d)?,
            side: SideMem::decode(d)?,
            cycle: d.u64()?,
            stats: DeltaStats::decode(d)?,
        })
    }
}

/// What the activity gate of the straight-line walk did since
/// construction or the last [`CompiledEngine::reset_stats`]. Skips are
/// reported here and nowhere else: [`DeltaStats`] keeps charging one
/// delta per block per cycle, because the FPGA evaluates a sleeping
/// block all the same.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatingStats {
    /// Ops executed.
    pub ops_executed: u64,
    /// Ops not executed because their block was asleep (the ops of
    /// fast-forwarded cycles included).
    pub ops_skipped: u64,
    /// Blocks woken by a different word arriving on an input link.
    pub input_wakes: u64,
    /// Blocks woken because their [`Wake::At`] cycle came.
    pub timed_wakes: u64,
    /// System cycles advanced arithmetically while no block was awake.
    pub fast_forwarded_cycles: u64,
}

impl GatingStats {
    /// Share of all ops that were skipped (0 before the first cycle).
    pub fn skipped_frac(&self) -> f64 {
        let total = self.ops_executed + self.ops_skipped;
        if total == 0 {
            0.0
        } else {
            self.ops_skipped as f64 / total as f64
        }
    }
}

/// `Gate::consumer_block` entry of a link word nothing reads.
const NO_READER: u32 = u32::MAX;

/// The block-level activity gate: which blocks the walk evaluates this
/// cycle, and what wakes the others.
#[derive(Debug)]
struct Gate {
    /// Per block: its ops run this cycle.
    awake: Vec<bool>,
    n_awake: usize,
    /// Per sleeping block: the cycle it wakes by itself (`u64::MAX` =
    /// only on input).
    wake_at: Vec<u64>,
    /// Lower bound on the earliest `wake_at` of a sleeping block.
    next_wake: u64,
    /// Per arena link word: the block that reads it, or [`NO_READER`].
    consumer_block: Vec<u32>,
    stats: GatingStats,
}

impl Gate {
    fn new(spec: &SystemSpec, prog: &CompiledProgram) -> Gate {
        let mut consumer_block = vec![NO_READER; spec.links().len() + prog.n_sub()];
        for (l, ls) in spec.links().iter().enumerate() {
            if let Some((b, _)) = ls.consumer {
                consumer_block[l] = b as u32;
            }
        }
        for s in &prog.slices {
            let reader = consumer_block[s.link as usize];
            consumer_block[s.base as usize..(s.base + s.width) as usize].fill(reader);
        }
        let nb = spec.blocks().len();
        Gate {
            awake: vec![true; nb],
            n_awake: nb,
            wake_at: vec![u64::MAX; nb],
            next_wake: u64::MAX,
            consumer_block,
            stats: GatingStats::default(),
        }
    }

    fn wake_all(&mut self) {
        self.awake.fill(true);
        self.n_awake = self.awake.len();
        self.next_wake = u64::MAX;
    }

    /// Link word `link` just changed: its reader has work to do.
    #[inline]
    fn wake_reader(&mut self, link: usize) {
        let b = self.consumer_block[link];
        if b != NO_READER && !self.awake[b as usize] {
            self.awake[b as usize] = true;
            self.n_awake += 1;
            self.stats.input_wakes += 1;
        }
    }

    /// Block `b`'s update at `cycle` found nothing to do before `until`.
    #[inline]
    fn sleep(&mut self, b: usize, until: u64, cycle: u64) {
        if until > cycle + 1 {
            self.awake[b] = false;
            self.n_awake -= 1;
            self.wake_at[b] = until;
            self.next_wake = self.next_wake.min(until);
        }
    }

    /// Wake every sleeper whose `wake_at` is `cycle` or earlier.
    #[inline]
    fn wake_due(&mut self, cycle: u64) {
        if cycle < self.next_wake {
            return;
        }
        let mut next = u64::MAX;
        for b in 0..self.awake.len() {
            if self.awake[b] {
                continue;
            }
            if self.wake_at[b] <= cycle {
                self.awake[b] = true;
                self.n_awake += 1;
                self.stats.timed_wakes += 1;
            } else {
                next = next.min(self.wake_at[b]);
            }
        }
        self.next_wake = next;
    }
}

/// Run one op's gather moves into the port-indexed `in_buf`.
#[inline]
fn gather_moves(moves: &[GatherMove], words: &[u64], in_buf: &mut [u64]) {
    for m in moves {
        let v = words[m.link as usize] << m.shift;
        if m.acc {
            in_buf[m.port as usize] |= v;
        } else {
            in_buf[m.port as usize] = v;
        }
    }
}

/// Run one straight-line op's scatter moves, waking the reader of every
/// link whose word actually changes.
#[inline]
fn scatter_moves(moves: &[ScatterMove], out_buf: &[u64], words: &mut [u64], gate: &mut Gate) {
    for m in moves {
        let v = (out_buf[m.port as usize] >> m.shift) & m.mask;
        let w = &mut words[m.link as usize];
        if *w != v {
            *w = v;
            gate.wake_reader(m.link as usize);
        }
    }
}

/// The compiled-schedule engine: executes a [`CompiledProgram`] over an
/// [`Arena`] with a computed-dispatch interpreter loop.
///
/// The straight-line walk is event-driven at block granularity: a block
/// whose [`CompiledExec::update`] reports nothing to do ([`Wake`]) is
/// put to sleep and all its ops are skipped until one of its input
/// links is written with a different word or its wake-up cycle comes;
/// with no block awake, [`run`](Self::run) advances time
/// arithmetically. Results, snapshots and [`DeltaStats`] are those of
/// evaluating every op every cycle; [`gating_stats`](Self::gating_stats)
/// reports what was skipped. Debug builds re-execute every skipped op
/// and assert it changes nothing.
pub struct CompiledEngine {
    spec: SystemSpec,
    prog: CompiledProgram,
    /// One exec per kind.
    execs: Vec<Box<dyn CompiledExec>>,
    arena: Arena,
    side: SideMem,
    /// Per block: decoded exec state is newer than the arena words.
    dirty: Vec<bool>,
    in_buf: Vec<u64>,
    out_buf: Vec<u64>,
    cycle: u64,
    stats: DeltaStats,
    profiler: Option<Box<KernelProfiler>>,
    gate: Gate,
}

impl CompiledEngine {
    /// Compile `spec` with default options and build an engine.
    ///
    /// # Panics
    /// If `spec.check()` fails, or [`CompiledProgram::compile`] refuses
    /// the spec.
    pub fn new(spec: SystemSpec) -> CompiledEngine {
        Self::with_options(spec, &CompileOptions::default())
    }

    /// Compile `spec` with `opts` and build an engine.
    ///
    /// # Panics
    /// If `spec.check()` fails, or [`CompiledProgram::compile`] refuses
    /// the spec.
    pub fn with_options(spec: SystemSpec, opts: &CompileOptions) -> CompiledEngine {
        if let Err(diags) = spec.check() {
            panic!("invalid spec: {diags:?}");
        }
        let prog = CompiledProgram::compile(&spec, opts);
        let execs: Vec<Box<dyn CompiledExec>> = spec
            .kinds()
            .iter()
            .map(|k| {
                k.compile().unwrap_or_else(|| {
                    unreachable!("CompiledProgram::compile accepted kind `{}`", k.name())
                })
            })
            .collect();
        let mut arena = Arena::new_sliced(&spec, &prog.slices);
        for (b, inst) in spec.blocks().iter().enumerate() {
            spec.kinds()[inst.kind].reset(arena.cur_mut(b));
            arena.copy_cur_to_next(b);
        }
        let rings: Vec<Vec<usize>> = spec
            .blocks()
            .iter()
            .map(|b| spec.kinds()[b.kind].side_rings())
            .collect();
        let side = SideMem::new(&rings);
        let max_ports = spec
            .blocks()
            .iter()
            .map(|b| b.inputs.len().max(b.outputs.len()))
            .max()
            .unwrap_or(0);
        let mut eng = CompiledEngine {
            dirty: vec![false; spec.blocks().len()],
            in_buf: vec![0; max_ports],
            out_buf: vec![0; max_ports],
            execs,
            arena,
            side,
            cycle: 0,
            stats: DeltaStats::default(),
            profiler: None,
            gate: Gate::new(&spec, &prog),
            prog,
            spec,
        };
        eng.load_execs();
        eng
    }

    /// (Re)load every custom exec's decoded state from the arena's
    /// current bank, and wake every block: the next cycle runs all comb
    /// passes before any update, which rebuilds whatever the execs cache
    /// between the two and sets every `dirty` flag again.
    fn load_execs(&mut self) {
        for (b, inst) in self.spec.blocks().iter().enumerate() {
            self.execs[inst.kind].load(inst.instance_of_kind, self.arena.cur(b));
            self.dirty[b] = false;
        }
        self.gate.wake_all();
    }

    /// The compiled program being executed.
    pub fn program(&self) -> &CompiledProgram {
        &self.prog
    }

    /// The source spec.
    pub fn spec(&self) -> &SystemSpec {
        &self.spec
    }

    /// Current system cycle (number of completed cycles).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Current value of link `l` (sliced links are reassembled from
    /// their per-bit sub-words).
    pub fn link_value(&self, l: usize) -> u64 {
        match self.prog.slice_of(l) {
            Some(s) => {
                let mut v = 0u64;
                for bit in 0..s.width as usize {
                    v |= self.arena.link(s.base as usize + bit) << bit;
                }
                v
            }
            None => self.arena.link(l),
        }
    }

    /// Drive an [`External`](LinkDriver::External) link.
    ///
    /// # Panics
    /// If the link is not external.
    pub fn set_external(&mut self, l: usize, v: u64) {
        assert!(
            matches!(self.spec.links()[l].driver, LinkDriver::External),
            "link {l} is not external"
        );
        if self.arena.link(l) != v {
            self.arena.set_link(l, v);
            self.gate.wake_reader(l);
        }
    }

    /// The specialized exec of kind `kind` (host-side borrow of decoded
    /// state via [`CompiledExec::as_any`]).
    pub fn exec(&self, kind: usize) -> &dyn CompiledExec {
        self.execs[kind].as_ref()
    }

    /// Packed current-state words of block `b` (packs decoded exec
    /// state on demand).
    pub fn peek_state(&self, b: usize) -> Vec<u64> {
        let inst = &self.spec.blocks()[b];
        if self.dirty[b] {
            let mut out = vec![0u64; self.arena.state_len[b]];
            self.execs[inst.kind].store(inst.instance_of_kind, &mut out);
            return out;
        }
        self.arena.cur(b).to_vec()
    }

    /// Delta statistics: one delta per block per cycle, asleep or not,
    /// and never a re-evaluation.
    pub fn stats(&self) -> &DeltaStats {
        &self.stats
    }

    /// Reset the delta statistics and the gating statistics.
    pub fn reset_stats(&mut self) {
        self.stats = DeltaStats::default();
        self.gate.stats = GatingStats::default();
    }

    /// What the activity gate executed, skipped and woke since
    /// construction or the last [`reset_stats`](Self::reset_stats).
    pub fn gating_stats(&self) -> GatingStats {
        self.gate.stats
    }

    /// Side-ring memory (host access to iface rings).
    pub fn side(&self) -> &SideMem {
        &self.side
    }

    /// Mutable side-ring memory.
    pub fn side_mut(&mut self) -> &mut SideMem {
        &mut self.side
    }

    /// Attach a profiler (op self time and eval counts are attributed
    /// to blocks through the opcode back-pointers).
    pub fn attach_profiler(&mut self, p: KernelProfiler) {
        self.profiler = Some(Box::new(p));
    }

    /// Detach and return the profiler.
    pub fn take_profiler(&mut self) -> Option<Box<KernelProfiler>> {
        self.profiler.take()
    }

    /// Capture a bit-exact snapshot (custom-exec state packed into the
    /// arena copy).
    pub fn snapshot(&self) -> CompiledSnapshot {
        let mut arena = self.arena.clone();
        for (b, inst) in self.spec.blocks().iter().enumerate() {
            if self.dirty[b] {
                self.execs[inst.kind].store(inst.instance_of_kind, arena.cur_mut(b));
            }
        }
        CompiledSnapshot {
            arena,
            side: self.side.clone(),
            cycle: self.cycle,
            stats: self.stats.clone(),
        }
    }

    /// Restore a snapshot taken on an engine built from the same spec.
    pub fn restore(&mut self, snap: &CompiledSnapshot) {
        self.arena = snap.arena.clone();
        self.side = snap.side.clone();
        self.cycle = snap.cycle;
        self.stats = snap.stats.clone();
        self.load_execs();
    }

    /// Advance one system cycle.
    pub fn step(&mut self) {
        if let Some(p) = self.profiler.as_mut() {
            p.begin_cycle();
        }
        self.run_straight(self.cycle);
        self.arena.swap();
        self.stats
            .record_cycle(self.straight_deltas(), self.prog.n_blocks as u64);
        if let Some(p) = self.profiler.as_mut() {
            p.end_cycle();
        }
        self.cycle += 1;
    }

    /// Run `n` system cycles. Stretches in which no block is awake are
    /// not walked: time jumps to the first timed wake-up (or the end of
    /// the run), with the same [`DeltaStats`], `cycle()` and state as
    /// stepping through them.
    pub fn run(&mut self, n: u64) {
        let end = self.cycle.saturating_add(n);
        while self.cycle < end {
            // A profiler is owed `begin_cycle`/`end_cycle` per simulated
            // cycle, so it keeps the per-cycle walk.
            if self.gate.n_awake == 0 && self.profiler.is_none() {
                let until = self.gate.next_wake.min(end);
                if until > self.cycle {
                    self.fast_forward(until - self.cycle);
                    continue;
                }
            }
            self.step();
        }
    }

    /// Deltas one straight-line cycle costs the FPGA: one per update op,
    /// asleep or not.
    fn straight_deltas(&self) -> u64 {
        (self.prog.ops.len() - self.prog.update_start) as u64
    }

    /// Advance `k` cycles in which every block sleeps (so no wake-up
    /// falls inside them).
    fn fast_forward(&mut self, k: u64) {
        if cfg!(debug_assertions) {
            // Nothing is awake, so the walk only re-executes and asserts.
            for i in 0..k {
                self.run_straight(self.cycle + i);
            }
        } else {
            self.gate.stats.ops_skipped += k * self.prog.ops.len() as u64;
        }
        self.gate.stats.fast_forwarded_cycles += k;
        self.stats
            .record_cycles(k, self.straight_deltas(), self.prog.n_blocks as u64);
        if k % 2 == 1 {
            self.arena.swap();
        }
        self.cycle += k;
    }

    /// The straight-line interpreter: one pass over the comb section
    /// (level order), one pass over the updates, both skipping the ops
    /// of sleeping blocks. A scatter stores (and wakes the link's
    /// reader) only when the word differs, so a block woken mid-pass
    /// still gets its update — and every comb op that could see the
    /// changed link — in the same cycle: levels put a link's driver
    /// before the comb ops that depend on it, and updates come last.
    ///
    /// In debug builds the ops of a sleeping block are executed anyway
    /// and asserted to change nothing (`asleep` is then the oracle
    /// path); release builds never enter an arm with `asleep` set.
    fn run_straight(&mut self, cycle: u64) {
        self.gate.wake_due(cycle);
        let mut skipped = 0u64;
        for idx in 0..self.prog.ops.len() {
            let op = self.prog.ops[idx];
            let asleep = !self.gate.awake[op.block()];
            if asleep {
                skipped += 1;
                if let (Op::Update { block, .. }, Some(p)) = (op, self.profiler.as_mut()) {
                    p.note_skipped(block as usize);
                }
                if !cfg!(debug_assertions) {
                    continue;
                }
            }
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
                    gather_moves(
                        &self.prog.gathers[gather.as_range()],
                        &self.arena.words,
                        &mut self.in_buf,
                    );
                    self.execs[kind as usize].comb(
                        instance as usize,
                        pass as usize,
                        &self.in_buf,
                        cycle,
                        &mut self.out_buf,
                        &mut self.side.view(block as usize),
                    );
                    let moves = &self.prog.scatters[scatter.as_range()];
                    if asleep {
                        for m in moves {
                            assert_eq!(
                                self.arena.words[m.link as usize],
                                (self.out_buf[m.port as usize] >> m.shift) & m.mask,
                                "sleeping block {block} would drive a new word on \
                                 link word {} in cycle {cycle}",
                                m.link
                            );
                        }
                        continue;
                    }
                    scatter_moves(moves, &self.out_buf, &mut self.arena.words, &mut self.gate);
                    if let Some(p) = self.profiler.as_mut() {
                        p.end_op(block as usize, t0);
                    }
                }
                Op::Update {
                    kind,
                    block,
                    instance,
                    gather,
                } => {
                    let t0 = self.profiler.as_ref().and_then(|p| p.begin_eval());
                    gather_moves(
                        &self.prog.gathers[gather.as_range()],
                        &self.arena.words,
                        &mut self.in_buf,
                    );
                    let wake = self.execs[kind as usize].update(
                        instance as usize,
                        &self.in_buf,
                        cycle,
                        &mut self.side.view(block as usize),
                    );
                    if asleep {
                        assert_ne!(
                            wake,
                            Wake::Next,
                            "block {block} slept through work in cycle {cycle}"
                        );
                        continue;
                    }
                    self.dirty[block as usize] = true;
                    match wake {
                        Wake::Next => {}
                        Wake::At(until) => self.gate.sleep(block as usize, until, cycle),
                        Wake::OnInput => self.gate.sleep(block as usize, u64::MAX, cycle),
                    }
                    if let Some(p) = self.profiler.as_mut() {
                        p.end_eval(block as usize, false, t0);
                    }
                }
            }
        }
        self.gate.stats.ops_skipped += skipped;
        self.gate.stats.ops_executed += self.prog.ops.len() as u64 - skipped;
    }
}

impl std::fmt::Debug for CompiledEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledEngine")
            .field("cycle", &self.cycle)
            .field("levels", &self.prog.levels)
            .field("ops", &self.prog.ops.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockKind;
    use crate::demo::{comb_demo, DEMO_WIDTH};
    use crate::dynamic_sched::DynamicEngine;
    use noc_types::bits::BitReader;

    fn state16(words: &[u64]) -> u64 {
        BitReader::new(words).take(DEMO_WIDTH)
    }

    /// A two-block comb ring (`x -> x | 1` feedback): cyclic at the port
    /// level, and its kind ships no exec either.
    struct OrKind;

    impl BlockKind for OrKind {
        fn name(&self) -> &str {
            "or-one"
        }
        fn state_bits(&self) -> usize {
            0
        }
        fn input_widths(&self) -> Vec<usize> {
            vec![8]
        }
        fn output_widths(&self) -> Vec<usize> {
            vec![8]
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
            outputs[0] = inputs[0] | 1;
        }
        // CombInputs::All by default: a comb cycle through both blocks.
    }

    fn comb_ring() -> SystemSpec {
        let mut spec = SystemSpec::new();
        let k = spec.add_kind(Box::new(OrKind));
        let a = spec.add_block(k);
        let b = spec.add_block(k);
        spec.wire((a, 0), (b, 0));
        spec.wire((b, 0), (a, 0));
        spec
    }

    #[test]
    #[should_panic(expected = "combinational cycle through links [0, 1]")]
    fn cyclic_spec_is_refused() {
        CompiledEngine::new(comb_ring());
    }

    #[test]
    #[should_panic(expected = "kind `FG-registered` has no CompiledExec")]
    fn kind_without_exec_is_refused() {
        CompiledEngine::new(comb_demo().0);
    }

    #[test]
    #[should_panic(expected = "block 0 is listed 2 times")]
    fn order_must_be_a_permutation() {
        CompiledEngine::with_options(
            follow_chain().0,
            &CompileOptions {
                order: Some(vec![0, 0, 2]),
                ..CompileOptions::default()
            },
        );
    }

    /// Toy kind with a specialized exec: a 16-bit accumulator whose
    /// port 0 is the registered value and port 1 the comb sum. With
    /// `lies` set its exec claims every update left it idle.
    struct AccKind {
        lies: bool,
    }

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
            Some(Box::new(AccExec {
                s: Vec::new(),
                lies: self.lies,
            }))
        }
    }

    struct AccExec {
        s: Vec<u64>,
        lies: bool,
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
            _pass: usize,
            inputs: &[u64],
            _cycle: u64,
            outputs: &mut [u64],
            _side: &mut SideView<'_>,
        ) {
            // Both ports on every pass: the engine scatters only the
            // ports of the op's level, and `inputs` may be stale on a
            // pass that gathers nothing.
            let s = self.s[instance];
            outputs[0] = s;
            outputs[1] = s.wrapping_add(inputs[0]) & 0xFFFF;
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
            if self.lies {
                Wake::OnInput
            } else {
                Wake::Next
            }
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    fn acc_pair() -> SystemSpec {
        // Registered ports close the ring; comb ports go to sinks.
        let mut spec = SystemSpec::new();
        let k = spec.add_kind(Box::new(AccKind { lies: false }));
        let a = spec.add_block(k);
        let b = spec.add_block(k);
        spec.wire((a, 0), (b, 0));
        spec.wire((b, 0), (a, 0));
        spec.sink((a, 1));
        spec.sink((b, 1));
        spec
    }

    /// ext -> A0 -> A1 -> A2 through the accumulators' comb sum ports:
    /// three comb levels. Returns the spec and the chain's output link.
    fn acc_chain() -> (SystemSpec, usize) {
        let mut spec = SystemSpec::new();
        let k = spec.add_kind(Box::new(AccKind { lies: false }));
        let b: Vec<usize> = (0..3).map(|_| spec.add_block(k)).collect();
        spec.external((b[0], 0), 2);
        spec.wire((b[0], 1), (b[1], 0));
        spec.wire((b[1], 1), (b[2], 0));
        let out = spec.sink((b[2], 1));
        for &x in &b {
            spec.sink((x, 0));
        }
        (spec, out)
    }

    fn acc_states(eng: &CompiledEngine) -> Vec<Vec<u64>> {
        (0..3).map(|b| eng.peek_state(b)).collect()
    }

    #[test]
    fn comb_chain_compiles_to_levelled_straight_line() {
        let (spec, out) = acc_chain();
        let mut eng = CompiledEngine::new(spec);
        assert_eq!(eng.program().levels, 3);
        eng.step();
        // Every accumulator resets to 1 and adds its input: 1 + 2 feeds
        // 1 + 3 feeds 1 + 4, all settled in the first cycle.
        assert_eq!(eng.link_value(out), 5);
    }

    #[test]
    fn straight_line_needs_minimum_deltas_only() {
        let mut eng = CompiledEngine::new(acc_chain().0);
        eng.run(40);
        assert_eq!(eng.stats().system_cycles, 40);
        assert_eq!(eng.stats().delta_cycles, 40 * 3, "one update per block");
        assert_eq!(eng.stats().re_evaluations, 0, "HBR fully elided");
    }

    #[test]
    fn order_is_irrelevant_in_straight_line_mode() {
        let mut results = Vec::new();
        for order in [vec![0usize, 1, 2], vec![2, 1, 0], vec![1, 2, 0]] {
            let mut eng = CompiledEngine::with_options(
                acc_chain().0,
                &CompileOptions {
                    order: Some(order),
                    ..CompileOptions::default()
                },
            );
            eng.run(25);
            results.push(acc_states(&eng));
        }
        assert!(results.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let mut eng = CompiledEngine::new(acc_chain().0);
        eng.run(13);
        let snap = eng.snapshot();
        eng.run(29);
        let tail = acc_states(&eng);
        eng.restore(&snap);
        assert_eq!(eng.cycle(), 13);
        eng.run(29);
        assert_eq!(acc_states(&eng), tail);
    }

    #[test]
    fn every_link_written_by_at_most_one_op() {
        let eng = CompiledEngine::new(acc_chain().0);
        let prog = eng.program();
        let mut writers = vec![0u32; prog.n_links];
        for op in &prog.ops {
            if let Some(r) = op.scatter() {
                for m in &prog.scatters[r.as_range()] {
                    writers[m.link as usize] += 1;
                }
            }
        }
        assert!(writers.iter().all(|&w| w <= 1));
    }

    #[test]
    fn profiler_attributes_ops_to_blocks() {
        let mut eng = CompiledEngine::new(acc_chain().0);
        eng.attach_profiler(KernelProfiler::new(3, 1));
        eng.run(10);
        let report = eng
            .take_profiler()
            .expect("attached")
            .report("seqsim-compiled", 0.0);
        assert_eq!(report.cycles, 10);
        for e in &report.entries {
            assert_eq!(e.evals, 10, "one update per block per cycle");
            assert_eq!(e.hbr_retries, 0);
            assert!(e.self_ns > 0, "comb op time folded into block self time");
        }
    }

    #[test]
    fn specialized_exec_matches_packed_dynamic_engine() {
        let mut eng = CompiledEngine::new(acc_pair());
        assert!(
            eng.program()
                .ops
                .iter()
                .any(|op| matches!(op, Op::Comb { .. })),
            "custom exec should produce specialized comb ops"
        );
        assert!(eng
            .program()
            .ops
            .iter()
            .any(|op| matches!(op, Op::Update { .. })));
        let mut dy = DynamicEngine::new(acc_pair());
        for cycle in 1..=40u64 {
            eng.step();
            dy.step();
            for b in 0..2 {
                assert_eq!(
                    eng.peek_state(b),
                    dy.peek_state(b).to_vec(),
                    "block {b} cycle {cycle}"
                );
            }
            for l in 0..eng.spec().links().len() {
                assert_eq!(
                    eng.link_value(l),
                    dy.link_value(l),
                    "link {l} cycle {cycle}"
                );
            }
        }
    }

    /// Toy kind for the activity gate: a 16-bit register that follows
    /// its input one cycle later, but only from cycle `HOLD_UNTIL` on
    /// (before that it holds). Its exec sleeps whenever the edge is a
    /// no-op: `At(HOLD_UNTIL)` while holding a different input,
    /// `OnInput` once register and input agree.
    struct FollowKind;
    const HOLD_UNTIL: u64 = 40;

    impl FollowKind {
        fn next(s: u64, input: u64, cycle: u64) -> u64 {
            if cycle >= HOLD_UNTIL {
                input
            } else {
                s
            }
        }
    }

    impl BlockKind for FollowKind {
        fn name(&self) -> &str {
            "follow"
        }
        fn state_bits(&self) -> usize {
            16
        }
        fn input_widths(&self) -> Vec<usize> {
            vec![16]
        }
        fn output_widths(&self) -> Vec<usize> {
            vec![16]
        }
        fn reset(&self, state: &mut [u64]) {
            state[0] = 0;
        }
        fn eval(
            &self,
            _instance: usize,
            cur: &[u64],
            inputs: &[u64],
            cycle: u64,
            next: &mut [u64],
            outputs: &mut [u64],
            _side: &mut SideView<'_>,
        ) {
            outputs[0] = cur[0];
            next[0] = Self::next(cur[0], inputs[0], cycle);
        }
        fn comb_inputs(&self, _port: usize) -> CombInputs {
            CombInputs::None
        }
        fn compile(&self) -> Option<Box<dyn CompiledExec>> {
            Some(Box::new(FollowExec { s: Vec::new() }))
        }
    }

    struct FollowExec {
        s: Vec<u64>,
    }

    impl CompiledExec for FollowExec {
        fn load(&mut self, instance: usize, packed: &[u64]) {
            if self.s.len() <= instance {
                self.s.resize(instance + 1, 0);
            }
            self.s[instance] = packed[0];
        }
        fn store(&self, instance: usize, packed: &mut [u64]) {
            packed[0] = self.s[instance];
        }
        fn comb(
            &mut self,
            instance: usize,
            _pass: usize,
            _inputs: &[u64],
            _cycle: u64,
            outputs: &mut [u64],
            _side: &mut SideView<'_>,
        ) {
            outputs[0] = self.s[instance];
        }
        fn update(
            &mut self,
            instance: usize,
            inputs: &[u64],
            cycle: u64,
            _side: &mut SideView<'_>,
        ) -> Wake {
            let s = self.s[instance];
            let next = FollowKind::next(s, inputs[0], cycle);
            self.s[instance] = next;
            if next != s {
                Wake::Next
            } else if s == inputs[0] {
                Wake::OnInput
            } else {
                Wake::At(HOLD_UNTIL)
            }
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    /// ext -> F0 -> F1 -> F2 -> sink.
    fn follow_chain() -> (SystemSpec, usize) {
        let mut spec = SystemSpec::new();
        let k = spec.add_kind(Box::new(FollowKind));
        let b: Vec<usize> = (0..3).map(|_| spec.add_block(k)).collect();
        let ext = spec.external((b[0], 0), 0);
        spec.wire((b[0], 0), (b[1], 0));
        spec.wire((b[1], 0), (b[2], 0));
        spec.sink((b[2], 0));
        (spec, ext)
    }

    fn snapshot_bytes(eng: &CompiledEngine) -> Vec<u8> {
        let mut e = crate::wire::Enc::new();
        eng.snapshot().encode(&mut e);
        e.into_bytes()
    }

    #[test]
    fn gated_walk_is_invisible_and_reports_its_skips() {
        // Three drivers of the same schedule: `run` in chunks (may
        // fast-forward), `step` every cycle, and the interpreting
        // engine as the ungated reference. A value is poked in before
        // the hold ends (timed wake) and another long after (input
        // wake rippling down the chain of sleepers).
        let pokes = [(7u64, 0x1234u64), (90, 0xBEEF)];
        let (spec, ext) = follow_chain();
        let mut run = CompiledEngine::new(spec);
        let mut step = CompiledEngine::new(follow_chain().0);
        let mut dy = DynamicEngine::new(follow_chain().0);
        let mut at = 0u64;
        for (when, v) in pokes.into_iter().chain([(200, 0)]) {
            run.run(when - at);
            for _ in at..when {
                step.step();
                dy.step();
            }
            at = when;
            assert_eq!(run.cycle(), when);
            assert_eq!(run.stats(), step.stats(), "cycle {when}");
            assert_eq!(snapshot_bytes(&run), snapshot_bytes(&step), "cycle {when}");
            for b in 0..3 {
                assert_eq!(run.peek_state(b), dy.peek_state(b).to_vec(), "block {b}");
            }
            for l in 0..run.spec().links().len() {
                assert_eq!(run.link_value(l), dy.link_value(l), "link {l}");
            }
            run.set_external(ext, v);
            step.set_external(ext, v);
            dy.set_external(ext, v);
        }
        // The last value arrived at the end of the chain.
        assert_eq!(state16(&run.peek_state(2)), 0xBEEF);

        let g = run.gating_stats();
        assert_eq!(g.timed_wakes, 1, "F0 held 0x1234 until HOLD_UNTIL");
        assert!(
            g.input_wakes >= 5,
            "two pokes wake F0, each ripples to F1, F2"
        );
        assert!(g.fast_forwarded_cycles > 100, "{g:?}");
        assert_eq!(
            g.ops_executed + g.ops_skipped,
            200 * run.program().ops.len() as u64
        );
        assert!(g.skipped_frac() > 0.8, "{g:?}");
        // Same skips whether or not time was fast-forwarded.
        let gs = step.gating_stats();
        assert_eq!(gs.fast_forwarded_cycles, 0);
        assert_eq!(
            (g.ops_executed, g.ops_skipped),
            (gs.ops_executed, gs.ops_skipped)
        );
        // The paper's accounting is ungated: one delta per block per cycle.
        assert_eq!(run.stats().delta_cycles, 200 * 3);
    }

    #[test]
    fn restore_wakes_every_block() {
        let (spec, ext) = follow_chain();
        let mut eng = CompiledEngine::new(spec);
        eng.set_external(ext, 5);
        eng.run(60);
        let asleep = eng.snapshot();
        eng.set_external(ext, 9);
        eng.run(20);
        let want: Vec<Vec<u64>> = (0..3).map(|b| eng.peek_state(b)).collect();
        // Taken while everything slept; restoring must not inherit the
        // sleep of the engine it is restored into (here: wide awake).
        eng.restore(&asleep);
        let executed = eng.gating_stats().ops_executed;
        eng.set_external(ext, 9);
        eng.run(20);
        assert!(
            eng.gating_stats().ops_executed >= executed + 6,
            "all ops ran once"
        );
        for b in 0..3 {
            assert_eq!(eng.peek_state(b), want[b], "block {b}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "would drive a new word")]
    fn debug_walk_catches_an_unsound_wake_hint() {
        let mut spec = SystemSpec::new();
        let k = spec.add_kind(Box::new(AccKind { lies: true }));
        let b = spec.add_block(k);
        spec.external((b, 0), 1);
        spec.sink((b, 0));
        spec.sink((b, 1));
        CompiledEngine::new(spec).run(3);
    }

    #[test]
    fn profiled_run_is_stepped_and_counts_skips_per_block() {
        let (spec, _) = follow_chain();
        let mut eng = CompiledEngine::new(spec);
        eng.attach_profiler(KernelProfiler::new(3, 1));
        eng.run(50);
        assert_eq!(eng.gating_stats().fast_forwarded_cycles, 0);
        let report = eng
            .take_profiler()
            .expect("attached")
            .report("seqsim-compiled", 0.0);
        assert_eq!(
            report.cycles, 50,
            "begin/end_cycle once per simulated cycle"
        );
        for e in &report.entries {
            assert_eq!(e.evals + e.skipped, 50, "block {}", e.block);
            assert!(e.skipped >= 48, "block {}", e.block);
        }
    }

    #[test]
    fn sliced_program_is_bit_identical_and_round_trips() {
        // Slice every block-driven multi-bit link of the chain: slicing
        // is semantics-preserving by construction, so the sliced engine
        // must match the plain one bit for bit on every link, state word
        // and delta count.
        let (spec, _) = acc_chain();
        let all: Vec<usize> = spec
            .links()
            .iter()
            .enumerate()
            .filter(|(_, ls)| ls.width > 1 && matches!(ls.driver, LinkDriver::Block { .. }))
            .map(|(l, _)| l)
            .collect();
        assert!(!all.is_empty());
        let opts = CompileOptions {
            slice: SlicePlan { links: all },
            ..CompileOptions::default()
        };
        let mut sliced = CompiledEngine::with_options(spec, &opts);
        assert!(!sliced.program().slices.is_empty());
        let mut plain = CompiledEngine::new(acc_chain().0);
        for cycle in 1..=25u64 {
            sliced.step();
            plain.step();
            for b in 0..3 {
                assert_eq!(
                    sliced.peek_state(b),
                    plain.peek_state(b),
                    "block {b} cycle {cycle}"
                );
            }
            for l in 0..plain.spec().links().len() {
                assert_eq!(
                    sliced.link_value(l),
                    plain.link_value(l),
                    "link {l} cycle {cycle}"
                );
            }
        }
        assert_eq!(sliced.stats(), plain.stats());

        // Snapshot/restore of a sliced engine resumes bit-identically.
        let snap = sliced.snapshot();
        sliced.run(7);
        let n_links = plain.spec().links().len();
        let tail: Vec<u64> = (0..n_links).map(|l| sliced.link_value(l)).collect();
        sliced.restore(&snap);
        sliced.run(7);
        for (l, &v) in tail.iter().enumerate() {
            assert_eq!(sliced.link_value(l), v, "link {l} after restore");
        }
    }

    #[test]
    fn set_external_drives_links() {
        let mut spec = SystemSpec::new();
        let k = spec.add_kind(Box::new(AccKind { lies: false }));
        let b = spec.add_block(k);
        let ext = spec.external((b, 0), 3);
        spec.sink((b, 0));
        let out = spec.sink((b, 1));
        let mut eng = CompiledEngine::new(spec);
        eng.step();
        assert_eq!(eng.link_value(out), 1 + 3);
        eng.set_external(ext, 10);
        eng.step();
        assert_eq!(eng.link_value(out), 4 + 10);
    }
}
