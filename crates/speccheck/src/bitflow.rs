//! Bit-level forward dataflow over a [`SpecGraph`].
//!
//! Where the rest of the analyzer reasons about whole links, this pass
//! reasons about individual *bits*: each `(link, bit)` is assigned a
//! value from the lattice
//!
//! ```text
//!            Unknown
//!        /  |    |   \
//!   Const0 Const1 Copy(l,b) ...      (flat middle layer)
//!        \  |    |   /
//!             Bot
//! ```
//!
//! computed as a monotone fixpoint of the blocks' declared
//! [`seqsim::BitSemantics`] transfer functions
//! ([`seqsim::BlockKind::bit_semantics`]). A block without declared
//! semantics drives every output bit to `Unknown`; a registered output
//! port (its [`CombInputs`](seqsim::CombInputs) is registered) has any
//! input-referencing bit forced to `Unknown` too, because a registered
//! output cannot copy a *same-cycle* input by construction. Each link
//! bit only ever moves **up** the lattice (new values are joined with
//! old), so the fixpoint terminates and every final claim is one the
//! transfer functions held at every iteration:
//!
//! * `Const0`/`Const1` — the bit provably holds that value in every
//!   converged cycle ([`codes::CONST_BIT`]);
//! * `Copy(l, b)` — the bit provably equals bit `b` of link `l` (the
//!   *root* of the copy chain — a `Copy` never points at another
//!   `Copy`) in every converged cycle;
//! * `Bot` — no writer ever produces the bit (the link-level
//!   `never-written` lint covers the user-facing report).
//!
//! A backward one-step liveness pass over
//! [`seqsim::BlockKind::input_bits_used`] masks marks bits no consumer
//! reads ([`codes::DEAD_BIT`]), and the two combine into the inferred
//! live width of each link ([`codes::NARROWABLE_LINK`]).
//!
//! The pass also derives a [`SlicePlan`]: the set of links whose single
//! writer declares complete per-bit semantics with **pairwise-disjoint
//! dependency sets** (bit `i` of the output is a function of input bits
//! no other output bit reads — bit-independence), restricted to links
//! adjacent to at least one fully-modelled ("pure") block whose
//! semantics are plain bitwise expressions. Slicing is unconditionally
//! semantics-preserving in `seqsim::compile` — the plan is *policy*
//! (slice only where a bitwise lowering could profit), not *legality*.
//! No engine consumes the plan today; it is analyzer output. The pass is
//! lint-only: `speclint` runs it next to [`crate::analyze_graph`], while
//! engine builds never do, since every finding it emits is info-severity.

use crate::graph::{LinkClass, SpecGraph};
use noc_types::diag::{codes, Diagnostic, Severity, Site};
use seqsim::{BitExpr, SlicePlan};

/// Abstract value of one link bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitValue {
    /// Lattice bottom: no writer has produced the bit (yet).
    Bot,
    /// Provably 0 in every converged cycle.
    Const0,
    /// Provably 1 in every converged cycle.
    Const1,
    /// Provably equal to bit `bit` of link `link` in every converged
    /// cycle. Always the *root* of a copy chain: the referenced bit is
    /// itself `Unknown` (or `Bot`), never another `Copy`.
    Copy {
        /// Source link.
        link: usize,
        /// Source bit (0 = LSB).
        bit: usize,
    },
    /// Lattice top: anything.
    Unknown,
}

impl BitValue {
    fn of_const(v: bool) -> Self {
        if v {
            BitValue::Const1
        } else {
            BitValue::Const0
        }
    }

    /// Least upper bound.
    fn join(self, other: Self) -> Self {
        if self == other {
            self
        } else if self == BitValue::Bot {
            other
        } else if other == BitValue::Bot {
            self
        } else {
            BitValue::Unknown
        }
    }

    /// Is this a constant claim?
    pub fn is_const(self) -> bool {
        matches!(self, BitValue::Const0 | BitValue::Const1)
    }
}

/// One narrowable link: fewer live bits than declared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Narrowable {
    /// The link.
    pub link: usize,
    /// Declared width in bits.
    pub width: usize,
    /// Inferred live width: `1 + ` the highest bit index that is
    /// neither provably constant nor dead (0 if every bit is).
    pub live_width: usize,
}

/// Result of the bit-level dataflow pass.
#[derive(Debug, Clone)]
pub struct Bitflow {
    /// Per link, per bit (LSB first): the fixpoint abstract value.
    /// Bits past 64 are never tracked (the width-overflow lint owns
    /// those links).
    pub values: Vec<Vec<BitValue>>,
    /// Per link, per bit: does some consumer read the bit? (All-false
    /// on links with no readers — the `never-read` lint owns those.)
    pub live: Vec<Vec<bool>>,
    /// The `const-bit` / `dead-bit` / `narrowable-link` findings.
    pub diagnostics: Vec<Diagnostic>,
    /// Links with fewer live bits than declared width.
    pub narrowable: Vec<Narrowable>,
    /// Links proven bit-independent and worth slicing (the input of
    /// `seqsim::CompileOptions::slice`).
    pub slice: SlicePlan,
    /// Total wire bits proven constant.
    pub const_bits: usize,
    /// Total bits no consumer reads (on links that have readers).
    pub dead_bits: usize,
}

impl Bitflow {
    /// The machine-readable summary `speclint --emit-bitflow` writes
    /// per target.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"const_bits\":{},\"dead_bits\":{},\"narrowable\":[{}],\"sliceable_links\":[{}]}}",
            self.const_bits,
            self.dead_bits,
            self.narrowable
                .iter()
                .map(|n| format!(
                    "{{\"link\":{},\"width\":{},\"live_width\":{}}}",
                    n.link, n.width, n.live_width
                ))
                .collect::<Vec<_>>()
                .join(","),
            self.slice
                .links
                .iter()
                .map(|l| l.to_string())
                .collect::<Vec<_>>()
                .join(","),
        )
    }
}

/// Tracked width of a link: the analyzer never models bits past the
/// 64-bit word (wider links are width-overflow errors anyway).
fn tracked_width(g: &SpecGraph, l: usize) -> usize {
    g.links[l].width.min(64)
}

/// Abstract transfer of one declared bit expression, evaluated in the
/// current fixpoint state. `registered` forces any input-referencing
/// expression to `Unknown` (a registered output holds *last* cycle's
/// function of state, never a same-cycle input copy).
fn abs_eval(e: &BitExpr, g: &SpecGraph, b: usize, values: &[Vec<BitValue>]) -> BitValue {
    use BitValue::*;
    match e {
        BitExpr::Const(v) => BitValue::of_const(*v),
        BitExpr::In { port, bit } => {
            let Some(Some(l)) = g.blocks[b].inputs.get(*port) else {
                return Unknown;
            };
            let l = *l;
            if l >= g.links.len() || *bit >= tracked_width(g, l) {
                return Unknown;
            }
            match values[l][*bit] {
                Bot => Bot,
                Const0 => Const0,
                Const1 => Const1,
                Copy { link, bit } => Copy { link, bit },
                // The source bit is opaque, but this output *is* that
                // bit — record the copy with its root right here.
                Unknown => Copy { link: l, bit: *bit },
            }
        }
        BitExpr::Not(a) => match abs_eval(a, g, b, values) {
            Bot => Bot,
            Const0 => Const1,
            Const1 => Const0,
            _ => Unknown,
        },
        BitExpr::And(x, y) => {
            let (x, y) = (abs_eval(x, g, b, values), abs_eval(y, g, b, values));
            if x == Const0 || y == Const0 {
                Const0
            } else if x == Bot || y == Bot {
                Bot
            } else if x == Const1 {
                y
            // `x == y` only proves equal *values* for copies of one
            // root bit — two `Unknown`s are unrelated.
            } else if y == Const1 || (x == y && matches!(x, Copy { .. })) {
                x
            } else {
                Unknown
            }
        }
        BitExpr::Or(x, y) => {
            let (x, y) = (abs_eval(x, g, b, values), abs_eval(y, g, b, values));
            if x == Const1 || y == Const1 {
                Const1
            } else if x == Bot || y == Bot {
                Bot
            } else if x == Const0 {
                y
            } else if y == Const0 || (x == y && matches!(x, Copy { .. })) {
                x
            } else {
                Unknown
            }
        }
        BitExpr::Xor(x, y) => {
            let (x, y) = (abs_eval(x, g, b, values), abs_eval(y, g, b, values));
            if x == Bot || y == Bot {
                Bot
            } else if x.is_const() && y.is_const() {
                BitValue::of_const((x == Const1) != (y == Const1))
            } else if x == Const0 {
                y
            } else if y == Const0 {
                x
            } else if x == y && matches!(x, Copy { .. }) {
                // v ^ v — two copies of the same root bit.
                Const0
            } else {
                Unknown
            }
        }
        BitExpr::Opaque { .. } => Unknown,
    }
}

/// Is the whole block expressible as bitwise expressions: every output
/// port carries complete (`Opaque`-free) per-bit semantics?
fn block_pure(g: &SpecGraph, b: usize) -> bool {
    let blk = &g.blocks[b];
    !blk.outputs.is_empty()
        && blk.outputs.len() == blk.bit_sem.len()
        && blk.bit_sem.iter().all(|s| {
            s.as_ref()
                .is_some_and(|s| s.bits.iter().all(BitExpr::is_pure))
        })
}

/// Do the per-bit dependency sets of `sem` overlap anywhere? Disjoint
/// sets prove bit-independence: slicing the output link can never
/// entangle two bits through the writer.
fn deps_pairwise_disjoint(sem: &seqsim::BitSemantics) -> bool {
    let mut seen = std::collections::HashSet::new();
    for bit in &sem.bits {
        for dep in bit.deps() {
            if !seen.insert(dep) {
                return false;
            }
        }
    }
    true
}

/// Run the bit-level dataflow pass over a graph.
///
/// Never panics on malformed graphs (dangling link ids, width
/// overflows, multiple writers): out-of-range references degrade to
/// `Unknown` and the structural lints own the report.
pub fn bitflow_graph(g: &SpecGraph) -> Bitflow {
    let n = g.links.len();
    let readers = g.readers();
    let writers = g.writers();

    // ---- forward value fixpoint ------------------------------------
    let mut values: Vec<Vec<BitValue>> = (0..n)
        .map(|l| {
            let w = tracked_width(g, l);
            match g.links[l].class {
                LinkClass::Wire => vec![BitValue::Bot; w],
                LinkClass::External => vec![BitValue::Unknown; w],
                LinkClass::Const(v) => (0..w)
                    .map(|i| BitValue::of_const((v >> i) & 1 == 1))
                    .collect(),
            }
        })
        .collect();

    let mut on_list = vec![true; g.blocks.len()];
    let mut work: std::collections::VecDeque<usize> = (0..g.blocks.len()).collect();
    while let Some(b) = work.pop_front() {
        on_list[b] = false;
        let blk = &g.blocks[b];
        for (p, l) in blk.outputs.iter().enumerate() {
            let Some(l) = *l else { continue };
            // Only wires take transfer values; Const/External links
            // have fixed abstract values (a block driving one is a
            // multiple-writer defect the structural pass reports).
            if l >= n || g.links[l].class != LinkClass::Wire {
                continue;
            }
            let sem = blk.bit_sem.get(p).and_then(|s| s.as_ref());
            let registered = blk.comb.get(p).is_some_and(|c| c.is_registered());
            for i in 0..tracked_width(g, l) {
                let new = match sem.and_then(|s| s.bits.get(i)) {
                    Some(e) if registered && !e.deps().is_empty() => BitValue::Unknown,
                    Some(e) => abs_eval(e, g, b, &values),
                    None => BitValue::Unknown,
                };
                let joined = values[l][i].join(new);
                if joined != values[l][i] {
                    values[l][i] = joined;
                    for &(rb, _) in &readers[l] {
                        if !on_list[rb] {
                            on_list[rb] = true;
                            work.push_back(rb);
                        }
                    }
                }
            }
        }
    }

    // ---- backward one-step liveness --------------------------------
    let mut live: Vec<Vec<bool>> = (0..n).map(|l| vec![false; tracked_width(g, l)]).collect();
    for (l, rs) in readers.iter().enumerate() {
        for &(b, p) in rs {
            match g.blocks[b].in_used.get(p) {
                Some(Some(mask)) => {
                    for (i, lv) in live[l].iter_mut().enumerate() {
                        // A mask shorter than the link errs live: only
                        // an explicit `false` may bury a bit.
                        *lv |= mask.get(i).copied().unwrap_or(true);
                    }
                }
                // No mask: the port may read everything.
                _ => live[l].iter_mut().for_each(|lv| *lv = true),
            }
        }
    }

    // ---- lints ------------------------------------------------------
    let mut diagnostics = Vec::new();
    let mut narrowable = Vec::new();
    let mut const_bits = 0usize;
    let mut dead_bits = 0usize;
    for l in 0..n {
        let width = tracked_width(g, l);
        if width == 0 {
            continue;
        }
        let has_readers = !readers[l].is_empty();

        if g.links[l].class == LinkClass::Wire {
            let consts: Vec<String> = (0..width)
                .filter(|&i| values[l][i].is_const())
                .map(|i| {
                    format!(
                        "bit {i} = {}",
                        if values[l][i] == BitValue::Const1 {
                            1
                        } else {
                            0
                        }
                    )
                })
                .collect();
            if !consts.is_empty() {
                const_bits += consts.len();
                diagnostics.push(Diagnostic {
                    severity: Severity::Info,
                    code: codes::CONST_BIT,
                    site: Site::Link(l),
                    message: format!(
                        "{} of {} wire bits are provably constant: {}",
                        consts.len(),
                        width,
                        consts.join(", ")
                    ),
                });
            }
        }

        if has_readers {
            let dead: Vec<String> = (0..width)
                .filter(|&i| !live[l][i])
                .map(|i| i.to_string())
                .collect();
            if !dead.is_empty() {
                dead_bits += dead.len();
                diagnostics.push(Diagnostic {
                    severity: Severity::Info,
                    code: codes::DEAD_BIT,
                    site: Site::Link(l),
                    message: format!(
                        "{} of {} bits are read by no consumer: bits {}",
                        dead.len(),
                        width,
                        dead.join(", ")
                    ),
                });
            }
        }

        // Narrowing claims only make sense on ordinary wires somebody
        // both writes and reads; dangling links have their own lints.
        if g.links[l].class == LinkClass::Wire
            && width >= 2
            && has_readers
            && !writers[l].is_empty()
        {
            let live_width = (0..width)
                .rev()
                .find(|&i| live[l][i] && !values[l][i].is_const())
                .map_or(0, |i| i + 1);
            if live_width < width {
                narrowable.push(Narrowable {
                    link: l,
                    width,
                    live_width,
                });
                diagnostics.push(Diagnostic {
                    severity: Severity::Info,
                    code: codes::NARROWABLE_LINK,
                    site: Site::Link(l),
                    message: format!(
                        "declared {width} bits but only {live_width} carry information \
                         (upper bits constant or dead)"
                    ),
                });
            }
        }
    }

    // ---- slice plan --------------------------------------------------
    let mut slice_links = Vec::new();
    for l in 0..n {
        let width = g.links[l].width;
        if g.links[l].class != LinkClass::Wire || !(2..=64).contains(&width) {
            continue;
        }
        let &[(wb, wp)] = &writers[l][..] else {
            continue;
        };
        let Some(Some(sem)) = g.blocks[wb].bit_sem.get(wp) else {
            continue;
        };
        if sem.bits.len() != width || !deps_pairwise_disjoint(sem) {
            continue;
        }
        // Policy: slicing pays only next to a block that is itself
        // pure bitwise expressions.
        if block_pure(g, wb) || readers[l].iter().any(|&(rb, _)| block_pure(g, rb)) {
            slice_links.push(l);
        }
    }

    Bitflow {
        values,
        live,
        diagnostics,
        narrowable,
        slice: SlicePlan { links: slice_links },
        const_bits,
        dead_bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqsim::{BitSemantics, CombInputs};

    /// A hand-built pure 2-bit block: out bit 0 = !in bit 1,
    /// out bit 1 = in bit 0 & in bit 1.
    fn gate_sem() -> BitSemantics {
        BitSemantics {
            bits: vec![
                BitExpr::Not(Box::new(BitExpr::In { port: 0, bit: 1 })),
                BitExpr::And(
                    Box::new(BitExpr::In { port: 0, bit: 0 }),
                    Box::new(BitExpr::In { port: 0, bit: 1 }),
                ),
            ],
        }
    }

    fn block(
        name: &str,
        inputs: &[Option<usize>],
        outputs: &[Option<usize>],
        comb: CombInputs,
        sem: Vec<Option<BitSemantics>>,
    ) -> crate::GraphBlock {
        crate::GraphBlock {
            name: name.to_string(),
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
            comb: vec![comb; outputs.len()],
            host_visible: false,
            bit_sem: sem,
            in_used: vec![None; inputs.len()],
        }
    }

    fn wire(width: usize) -> crate::GraphLink {
        crate::GraphLink {
            width,
            class: LinkClass::Wire,
        }
    }

    #[test]
    fn constants_fold_through_pure_gates() {
        // const(0b01) -> gate -> wire -> sink.
        // out bit 0 = !in1 = !0 = 1; out bit 1 = in0 & in1 = 1 & 0 = 0.
        let g = SpecGraph {
            blocks: vec![
                block(
                    "g",
                    &[Some(0)],
                    &[Some(1)],
                    CombInputs::All,
                    vec![Some(gate_sem())],
                ),
                block("sink", &[Some(1)], &[], CombInputs::All, vec![]),
            ],
            links: vec![
                crate::GraphLink {
                    width: 2,
                    class: LinkClass::Const(0b01),
                },
                wire(2),
            ],
        };
        let bf = bitflow_graph(&g);
        assert_eq!(bf.values[1], vec![BitValue::Const1, BitValue::Const0]);
        assert_eq!(bf.const_bits, 2);
        assert!(bf
            .diagnostics
            .iter()
            .any(|d| d.code == codes::CONST_BIT && d.site == Site::Link(1)));
    }

    #[test]
    fn copies_resolve_to_their_root() {
        // external -> id -> id -> sink: both wire bits are copies of
        // the *external* link's bits, not of each other.
        let id2 = || BitSemantics {
            bits: vec![
                BitExpr::In { port: 0, bit: 0 },
                BitExpr::In { port: 0, bit: 1 },
            ],
        };
        let g = SpecGraph {
            blocks: vec![
                block(
                    "a",
                    &[Some(0)],
                    &[Some(1)],
                    CombInputs::All,
                    vec![Some(id2())],
                ),
                block(
                    "b",
                    &[Some(1)],
                    &[Some(2)],
                    CombInputs::All,
                    vec![Some(id2())],
                ),
                block("sink", &[Some(2)], &[], CombInputs::All, vec![]),
            ],
            links: vec![
                crate::GraphLink {
                    width: 2,
                    class: LinkClass::External,
                },
                wire(2),
                wire(2),
            ],
        };
        let bf = bitflow_graph(&g);
        for l in [1, 2] {
            for bit in 0..2 {
                assert_eq!(bf.values[l][bit], BitValue::Copy { link: 0, bit });
            }
        }
        // Identity blocks are pure with disjoint deps: both wires are
        // sliceable.
        assert_eq!(bf.slice.links, vec![1, 2]);
    }

    #[test]
    fn registered_ports_never_claim_input_copies() {
        // Same identity semantics, registered output: the claim would
        // be a lie (the output holds last cycle's value), so the pass
        // must refuse it.
        let id2 = BitSemantics {
            bits: vec![
                BitExpr::In { port: 0, bit: 0 },
                BitExpr::In { port: 0, bit: 1 },
            ],
        };
        let g = SpecGraph {
            blocks: vec![
                block(
                    "r",
                    &[Some(0)],
                    &[Some(1)],
                    CombInputs::None,
                    vec![Some(id2)],
                ),
                block("sink", &[Some(1)], &[], CombInputs::All, vec![]),
            ],
            links: vec![
                crate::GraphLink {
                    width: 2,
                    class: LinkClass::External,
                },
                wire(2),
            ],
        };
        let bf = bitflow_graph(&g);
        assert_eq!(bf.values[1], vec![BitValue::Unknown, BitValue::Unknown]);
    }

    #[test]
    fn overlapping_deps_block_the_slice_plan() {
        // gate_sem reads in bit 1 from both output bits — not
        // bit-independent, so no slice even though it is pure.
        let g = SpecGraph {
            blocks: vec![
                block(
                    "g",
                    &[Some(0)],
                    &[Some(1)],
                    CombInputs::All,
                    vec![Some(gate_sem())],
                ),
                block("sink", &[Some(1)], &[], CombInputs::All, vec![]),
            ],
            links: vec![
                crate::GraphLink {
                    width: 2,
                    class: LinkClass::External,
                },
                wire(2),
            ],
        };
        let bf = bitflow_graph(&g);
        assert!(bf.slice.links.is_empty());
    }

    #[test]
    fn dead_and_const_bits_narrow_the_link() {
        // 4-bit wire: bit 3 constant 0, bit 2 masked off by the only
        // reader, bits 0..2 live -> live width 2.
        let sem = BitSemantics {
            bits: vec![
                BitExpr::In { port: 0, bit: 0 },
                BitExpr::In { port: 0, bit: 1 },
                BitExpr::In { port: 0, bit: 2 },
                BitExpr::Const(false),
            ],
        };
        let mut reader = block("sink", &[Some(1)], &[], CombInputs::All, vec![]);
        reader.in_used = vec![Some(vec![true, true, false, true])];
        let g = SpecGraph {
            blocks: vec![
                block(
                    "w",
                    &[Some(0)],
                    &[Some(1)],
                    CombInputs::All,
                    vec![Some(sem)],
                ),
                reader,
            ],
            links: vec![
                crate::GraphLink {
                    width: 4,
                    class: LinkClass::External,
                },
                wire(4),
            ],
        };
        let bf = bitflow_graph(&g);
        assert_eq!(bf.dead_bits, 1);
        assert!(bf.diagnostics.iter().any(|d| d.code == codes::DEAD_BIT));
        assert_eq!(
            bf.narrowable,
            vec![Narrowable {
                link: 1,
                width: 4,
                live_width: 2
            }]
        );
        assert!(bf
            .diagnostics
            .iter()
            .any(|d| d.code == codes::NARROWABLE_LINK));
    }

    #[test]
    fn comb_ring_of_copies_terminates_at_a_fixpoint() {
        // a and b copy each other combinationally: nothing external
        // ever reaches the ring, so both bits stay Bot (the ring has
        // its own convergence lints) — and the pass must terminate.
        let id1 = || BitSemantics {
            bits: vec![BitExpr::In { port: 0, bit: 0 }],
        };
        let g = SpecGraph {
            blocks: vec![
                block(
                    "a",
                    &[Some(1)],
                    &[Some(0)],
                    CombInputs::All,
                    vec![Some(id1())],
                ),
                block(
                    "b",
                    &[Some(0)],
                    &[Some(1)],
                    CombInputs::All,
                    vec![Some(id1())],
                ),
            ],
            links: vec![wire(1), wire(1)],
        };
        let bf = bitflow_graph(&g);
        assert_eq!(bf.values[0], vec![BitValue::Bot]);
        assert_eq!(bf.values[1], vec![BitValue::Bot]);
    }
}
