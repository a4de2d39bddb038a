//! Bitflow soundness property suite.
//!
//! The pass's contract is *soundness by construction*: every claim it
//! derives from truthful [`BlockKind::bit_semantics`] declarations must
//! hold on concrete engine runs. This suite generates random acyclic
//! specs out of blocks whose `eval` is **defined as** the concrete
//! evaluation of their declared bit expressions (so the declarations
//! are truthful by construction, the same trust boundary as `eval`
//! itself), drives them with random stimuli, and checks:
//!
//! * every bit claimed `Const0`/`Const1` holds that value in every
//!   converged cycle;
//! * every bit claimed `Copy(l, b)` equals bit `b` of link `l` in
//!   every converged cycle;
//! * flipping only *dead* bits of the external stimuli never changes
//!   any live bit anywhere in the system (paired-run check).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use seqsim::{BitExpr, BitSemantics, BlockKind, CombInputs, CompiledEngine, SideView, SystemSpec};
use speccheck::{bitflow_graph, BitValue, Severity, SpecGraph};

// ---------------------------------------------------------------------
// Deterministic PRNG (the suite must not depend on ambient entropy).
// ---------------------------------------------------------------------

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn chance(&mut self, pct: u64) -> bool {
        self.next() % 100 < pct
    }
}

// ---------------------------------------------------------------------
// Truthful-by-construction block kinds.
// ---------------------------------------------------------------------

/// A stateless block whose `eval` *is* the concrete evaluation of its
/// declared bit expressions, with an `input_bits_used` mask derived
/// from the expressions' actual dependency sets.
struct ExprKind {
    name: String,
    in_widths: Vec<usize>,
    bits: Vec<BitExpr>,
    /// Whether to declare the (exact) liveness masks or stay silent.
    declare_used: bool,
}

impl ExprKind {
    fn used_mask(&self, port: usize) -> Vec<bool> {
        let mut m = vec![false; self.in_widths[port]];
        for e in &self.bits {
            for (p, b) in e.deps() {
                if p == port && b < m.len() {
                    m[b] = true;
                }
            }
        }
        m
    }
}

impl BlockKind for ExprKind {
    fn name(&self) -> &str {
        &self.name
    }
    fn state_bits(&self) -> usize {
        0
    }
    fn input_widths(&self) -> Vec<usize> {
        self.in_widths.clone()
    }
    fn output_widths(&self) -> Vec<usize> {
        vec![self.bits.len()]
    }
    fn comb_inputs(&self, _port: usize) -> CombInputs {
        CombInputs::All
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
        outputs[0] = self.bits.iter().enumerate().fold(0u64, |acc, (i, e)| {
            acc | ((e.eval_concrete(inputs) as u64) << i)
        });
    }
    fn bit_semantics(&self, _port: usize) -> Option<BitSemantics> {
        Some(BitSemantics {
            bits: self.bits.clone(),
        })
    }
    fn input_bits_used(&self, port: usize) -> Option<Vec<bool>> {
        self.declare_used.then(|| self.used_mask(port))
    }
}

/// A free-running counter with *undeclared* semantics: an opaque
/// entropy source the pass must treat as `Unknown` (and whose output
/// link becomes the root of downstream `Copy` chains).
struct CounterKind {
    width: usize,
}

impl BlockKind for CounterKind {
    fn name(&self) -> &str {
        "counter"
    }
    fn state_bits(&self) -> usize {
        self.width
    }
    fn input_widths(&self) -> Vec<usize> {
        vec![]
    }
    fn output_widths(&self) -> Vec<usize> {
        vec![self.width]
    }
    fn comb_inputs(&self, _port: usize) -> CombInputs {
        CombInputs::None
    }
    fn reset(&self, state: &mut [u64]) {
        state[0] = 0;
    }
    fn eval(
        &self,
        _instance: usize,
        cur: &[u64],
        _inputs: &[u64],
        _cycle: u64,
        next: &mut [u64],
        outputs: &mut [u64],
        _side: &mut SideView<'_>,
    ) {
        let mask = if self.width == 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        };
        next[0] = cur[0].wrapping_add(3) & mask;
        outputs[0] = cur[0] & mask;
    }
}

// ---------------------------------------------------------------------
// Random spec generation.
// ---------------------------------------------------------------------

fn rand_expr(rng: &mut Lcg, in_widths: &[usize], depth: usize) -> BitExpr {
    if depth == 0 || rng.chance(35) {
        if rng.chance(25) || in_widths.is_empty() {
            BitExpr::Const(rng.chance(50))
        } else {
            let port = rng.below(in_widths.len());
            BitExpr::In {
                port,
                bit: rng.below(in_widths[port]),
            }
        }
    } else {
        let a = Box::new(rand_expr(rng, in_widths, depth - 1));
        match rng.below(4) {
            0 => BitExpr::Not(a),
            1 => BitExpr::And(a, Box::new(rand_expr(rng, in_widths, depth - 1))),
            2 => BitExpr::Or(a, Box::new(rand_expr(rng, in_widths, depth - 1))),
            _ => BitExpr::Xor(a, Box::new(rand_expr(rng, in_widths, depth - 1))),
        }
    }
}

/// What feeds one input port of a generated block.
#[derive(Clone, Copy)]
enum Source {
    /// Output `port` of earlier block `block` (width recorded).
    Open {
        block: usize,
        port: usize,
        width: usize,
    },
    External {
        width: usize,
    },
    Const {
        width: usize,
        value: u64,
    },
}

/// Deterministically generate a random layered spec. Returns the spec
/// and its external link ids — the build is a pure function of `seed`,
/// so calling it twice yields bit-identical systems.
fn build_spec(seed: u64) -> (SystemSpec, Vec<usize>) {
    let mut rng = Lcg(seed);
    let mut spec = SystemSpec::new();
    let n_blocks = 3 + rng.below(5);

    // An opaque entropy source first.
    let ctr_w = 1 + rng.below(6);
    let ctr = {
        let k = spec.add_kind(Box::new(CounterKind { width: ctr_w }));
        spec.add_block(k)
    };
    let mut open: Vec<(usize, usize, usize)> = vec![(ctr, 0, ctr_w)];

    // Plan each block's input sources, then materialize.
    let mut externals = Vec::new();
    for bi in 0..n_blocks {
        let n_in = 1 + rng.below(2);
        let mut sources: Vec<Source> = Vec::new();
        for _ in 0..n_in {
            if !open.is_empty() && rng.chance(55) {
                let i = rng.below(open.len());
                let (block, port, width) = open.swap_remove(i);
                sources.push(Source::Open { block, port, width });
            } else if rng.chance(60) {
                sources.push(Source::External {
                    width: 1 + rng.below(6),
                });
            } else {
                let width = 1 + rng.below(6);
                sources.push(Source::Const {
                    width,
                    value: rng.next() & ((1u64 << width) - 1),
                });
            }
        }
        let in_widths: Vec<usize> = sources
            .iter()
            .map(|s| match s {
                Source::Open { width, .. }
                | Source::External { width }
                | Source::Const { width, .. } => *width,
            })
            .collect();
        let out_w = 1 + rng.below(6);
        let bits: Vec<BitExpr> = (0..out_w)
            .map(|_| rand_expr(&mut rng, &in_widths, 3))
            .collect();
        let kind = ExprKind {
            name: format!("expr-{bi}"),
            in_widths,
            bits,
            declare_used: rng.chance(70),
        };
        let k = spec.add_kind(Box::new(kind));
        let b = spec.add_block(k);
        for (p, s) in sources.iter().enumerate() {
            match *s {
                Source::Open { block, port, .. } => {
                    spec.wire((block, port), (b, p));
                }
                Source::External { .. } => externals.push(spec.external((b, p), 0)),
                Source::Const { value, .. } => {
                    spec.tie_off((b, p), value);
                }
            }
        }
        open.push((b, 0, out_w));
    }
    for (b, p, _) in open {
        spec.sink((b, p));
    }
    (spec, externals)
}

// ---------------------------------------------------------------------
// The properties.
// ---------------------------------------------------------------------

#[test]
fn const_and_copy_claims_hold_on_concrete_runs() {
    let (mut checked_const, mut checked_copy) = (0usize, 0usize);
    for seed in 0..40u64 {
        let (spec, externals) = build_spec(seed * 0x9e37 + 1);
        let g = SpecGraph::from_spec(&spec);
        let bf = bitflow_graph(&g);
        // Every finding is advisory: engine builds rely on it to skip the pass.
        assert!(
            bf.diagnostics.iter().all(|d| d.severity == Severity::Info),
            "seed {seed}"
        );
        let mut eng = CompiledEngine::new(spec);
        let mut rng = Lcg(seed ^ 0xabcdef);
        for _cycle in 0..8 {
            for &e in &externals {
                let w = g.links[e].width;
                eng.set_external(e, rng.next() & ((1u64 << w) - 1));
            }
            eng.step();
            for (l, bits) in bf.values.iter().enumerate() {
                let v = eng.link_value(l);
                for (i, claim) in bits.iter().enumerate() {
                    let concrete = (v >> i) & 1;
                    match *claim {
                        BitValue::Const0 => {
                            checked_const += 1;
                            assert_eq!(concrete, 0, "seed {seed}: link {l} bit {i}");
                        }
                        BitValue::Const1 => {
                            checked_const += 1;
                            assert_eq!(concrete, 1, "seed {seed}: link {l} bit {i}");
                        }
                        BitValue::Copy { link, bit } => {
                            checked_copy += 1;
                            assert_eq!(
                                concrete,
                                (eng.link_value(link) >> bit) & 1,
                                "seed {seed}: link {l} bit {i} claimed copy of \
                                 link {link} bit {bit}"
                            );
                        }
                        BitValue::Bot | BitValue::Unknown => {}
                    }
                }
            }
        }
    }
    // The suite must actually exercise the claims it verifies.
    assert!(
        checked_const > 100,
        "only {checked_const} const claims checked"
    );
    assert!(
        checked_copy > 100,
        "only {checked_copy} copy claims checked"
    );
}

#[test]
fn flipping_dead_stimulus_bits_changes_no_live_bit() {
    let mut flipped_total = 0usize;
    for seed in 0..40u64 {
        let (spec_a, externals) = build_spec(seed * 0x51f1 + 7);
        let (spec_b, _) = build_spec(seed * 0x51f1 + 7);
        let g = SpecGraph::from_spec(&spec_a);
        let bf = bitflow_graph(&g);

        // Dead-bit masks of the external links (bits no consumer reads).
        let flip_mask: Vec<u64> = (0..g.links.len())
            .map(|l| {
                if !externals.contains(&l) {
                    return 0;
                }
                bf.live[l]
                    .iter()
                    .enumerate()
                    .filter(|&(_, &lv)| !lv)
                    .fold(0u64, |m, (i, _)| m | (1 << i))
            })
            .collect();
        if flip_mask.iter().all(|&m| m == 0) {
            continue;
        }

        let mut a = CompiledEngine::new(spec_a);
        let mut b = CompiledEngine::new(spec_b);
        let mut rng = Lcg(seed ^ 0x1234);
        for _cycle in 0..8 {
            for &e in &externals {
                let w = g.links[e].width;
                let v = rng.next() & ((1u64 << w) - 1);
                a.set_external(e, v);
                b.set_external(e, v ^ flip_mask[e]);
            }
            a.step();
            b.step();
            for (l, &mask) in flip_mask.iter().enumerate() {
                let (va, vb) = (a.link_value(l), b.link_value(l));
                // The flipped external bits themselves differ by
                // construction (exactly `flip_mask`); everything else
                // must be identical.
                assert_eq!(
                    va ^ vb,
                    mask,
                    "seed {seed}: link {l} diverged outside its dead bits"
                );
                flipped_total += (va ^ vb).count_ones() as usize;
            }
        }
    }
    assert!(flipped_total > 0, "no dead stimulus bit was ever exercised");
}
