//! Block-contract checking.
//!
//! The dynamic scheduler's correctness rests on two properties of every
//! [`crate::block::BlockKind`] (the contract §4.2 imposes on
//! the extracted RTL):
//!
//! 1. **Determinism/idempotence** — re-evaluating with identical current
//!    state and inputs must produce identical next state and outputs
//!    (re-evaluation must be harmless);
//! 2. **Output monotony under re-write** — a second evaluation must leave
//!    any side-memory effects in the same final state (last write wins).
//!
//! The paper performs the register extraction manually and notes
//! "automatic transformations should be possible"; this module is the
//! verification side of that tooling: given a block and a set of probe
//! vectors, it checks the contract mechanically. All block kinds in this
//! repository are tested through it.

use crate::block::BlockKind;
use crate::side::SideMem;
use noc_types::bits::words_for_bits;

/// A single probe vector for a block evaluation.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Current state words (must match the block's `state_bits`).
    pub cur: Vec<u64>,
    /// Input link values (must match the block's input count/widths).
    pub inputs: Vec<u64>,
    /// System cycle.
    pub cycle: u64,
}

/// Outcome of one contract violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Next-state words differed between two identical evaluations.
    NextStateDiffers {
        /// Index of the probe vector that exposed it.
        probe: usize,
    },
    /// Output link values differed between two identical evaluations.
    OutputsDiffer {
        /// Index of the probe vector that exposed it.
        probe: usize,
        /// Output port index.
        port: usize,
    },
    /// An output value exceeded its declared width.
    OutputOverflow {
        /// Index of the probe vector that exposed it.
        probe: usize,
        /// Output port index.
        port: usize,
        /// The offending value.
        value: u64,
    },
}

/// Check a block kind against the evaluation contract using the given
/// probe vectors. Returns all violations found (empty = clean).
pub fn check_block(kind: &dyn BlockKind, instance: usize, probes: &[Probe]) -> Vec<Violation> {
    let words = words_for_bits(kind.state_bits());
    let n_out = kind.output_widths().len();
    let mut violations = Vec::new();
    for (pi, p) in probes.iter().enumerate() {
        assert_eq!(p.cur.len(), words, "probe {pi}: wrong state width");
        assert_eq!(
            p.inputs.len(),
            kind.input_widths().len(),
            "probe {pi}: wrong input count"
        );
        let mut side = SideMem::new(&[kind.side_rings()]);
        let mut next_a = vec![0u64; words];
        let mut next_b = vec![0u64; words];
        let mut out_a = vec![0u64; n_out];
        let mut out_b = vec![0u64; n_out];
        kind.eval(
            instance,
            &p.cur,
            &p.inputs,
            p.cycle,
            &mut next_a,
            &mut out_a,
            &mut side.view(0),
        );
        kind.eval(
            instance,
            &p.cur,
            &p.inputs,
            p.cycle,
            &mut next_b,
            &mut out_b,
            &mut side.view(0),
        );
        if next_a != next_b {
            violations.push(Violation::NextStateDiffers { probe: pi });
        }
        for (port, (&a, &b)) in out_a.iter().zip(out_b.iter()).enumerate() {
            if a != b {
                violations.push(Violation::OutputsDiffer { probe: pi, port });
            }
            let width = kind.output_widths()[port];
            if width < 64 && a >= (1u64 << width) {
                violations.push(Violation::OutputOverflow {
                    probe: pi,
                    value: a,
                    port,
                });
            }
        }
    }
    violations
}

/// Generate pseudo-random probe vectors for a block: random (masked)
/// state and input words across several cycles. Deterministic in `seed`.
pub fn random_probes(kind: &dyn BlockKind, count: usize, seed: u64) -> Vec<Probe> {
    let words = words_for_bits(kind.state_bits());
    let in_widths = kind.input_widths();
    let mut x = seed | 1;
    let mut next = move || {
        // xorshift64*
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    (0..count)
        .map(|i| {
            // Random states exercise the decoder, but completely random
            // register files can violate the design's own invariants; a
            // reset state with random inputs is always meaningful, so
            // alternate.
            let cur = if i % 2 == 0 {
                let mut s = vec![0u64; words];
                kind.reset(&mut s);
                s
            } else {
                let mut s: Vec<u64> = (0..words).map(|_| next()).collect();
                // Trim the final partial word so packed fields stay in
                // range where possible.
                if !kind.state_bits().is_multiple_of(64) {
                    if let Some(last) = s.last_mut() {
                        *last &= (1u64 << (kind.state_bits() % 64)) - 1;
                    }
                }
                let _ = &mut s;
                s
            };
            let inputs = in_widths
                .iter()
                .map(|&w| {
                    let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
                    next() & mask
                })
                .collect();
            Probe {
                cur,
                inputs,
                cycle: i as u64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::{CombDemoKind, RegisteredDemoKind};
    use crate::side::SideView;

    #[test]
    fn demo_blocks_are_clean() {
        for kind in [&CombDemoKind::new(0), &CombDemoKind::new(1)] {
            let probes = random_probes(kind, 32, 7);
            assert!(check_block(kind, 0, &probes).is_empty());
        }
        let k = RegisteredDemoKind::new(0);
        let probes = random_probes(&k, 16, 9);
        assert!(check_block(&k, 0, &probes).is_empty());
    }

    /// A deliberately broken block: its output depends on an internal
    /// counter (hidden state), violating idempotence.
    struct Sneaky {
        hits: std::cell::Cell<u64>,
    }

    impl BlockKind for Sneaky {
        fn name(&self) -> &str {
            "sneaky"
        }
        fn state_bits(&self) -> usize {
            8
        }
        fn input_widths(&self) -> Vec<usize> {
            vec![8]
        }
        fn output_widths(&self) -> Vec<usize> {
            vec![8]
        }
        fn reset(&self, _s: &mut [u64]) {}
        fn eval(
            &self,
            _i: usize,
            _cur: &[u64],
            inputs: &[u64],
            _cycle: u64,
            next: &mut [u64],
            outputs: &mut [u64],
            _side: &mut SideView<'_>,
        ) {
            self.hits.set(self.hits.get() + 1);
            next[0] = inputs[0];
            outputs[0] = (inputs[0] + self.hits.get()) & 0xFF;
        }
    }

    #[test]
    fn hidden_state_is_caught() {
        let k = Sneaky {
            hits: std::cell::Cell::new(0),
        };
        let probes = random_probes(&k, 4, 3);
        let v = check_block(&k, 0, &probes);
        assert!(v
            .iter()
            .any(|v| matches!(v, Violation::OutputsDiffer { .. })));
    }

    /// A block that writes wider than its declared output.
    struct Wide;

    impl BlockKind for Wide {
        fn name(&self) -> &str {
            "wide"
        }
        fn state_bits(&self) -> usize {
            1
        }
        fn input_widths(&self) -> Vec<usize> {
            vec![]
        }
        fn output_widths(&self) -> Vec<usize> {
            vec![4]
        }
        fn reset(&self, _s: &mut [u64]) {}
        fn eval(
            &self,
            _i: usize,
            _cur: &[u64],
            _inputs: &[u64],
            _cycle: u64,
            next: &mut [u64],
            outputs: &mut [u64],
            _side: &mut SideView<'_>,
        ) {
            next[0] = 0;
            outputs[0] = 0x1F; // 5 bits into a 4-bit port
        }
    }

    #[test]
    fn overflow_is_caught() {
        let probes = random_probes(&Wide, 1, 1);
        let v = check_block(&Wide, 0, &probes);
        assert!(v
            .iter()
            .any(|v| matches!(v, Violation::OutputOverflow { value: 0x1F, .. })));
    }
}
