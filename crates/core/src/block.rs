//! Block kinds, block instances and system wiring.
//!
//! A *block* is the unit of sequential evaluation — in the paper's case
//! study one block is one router (plus its stimuli interface). Blocks of
//! the same *kind* share a single implementation, exactly as the FPGA holds
//! one copy of the combinational circuitry for all identical routers
//! (paper Fig 2b: "All identical functions Fi(x), Fj(x) can use the same
//! implementation").

use crate::side::SideView;
use noc_types::diag::{codes, Diagnostic, Severity, Site};

/// Index of a block kind within a [`SystemSpec`].
pub type KindId = usize;
/// Index of a block instance within a [`SystemSpec`].
pub type BlockId = usize;
/// Index of a link within a [`SystemSpec`].
pub type LinkId = usize;

/// Which of a block's *input* ports an *output* port depends on
/// combinationally — i.e. within the same system cycle, before the clock
/// edge. This is the declaration the static analyzer (`speccheck`) uses
/// to classify producer→consumer edges as *registered* (§4.1: the output
/// is a function of registered state only, final after the block's first
/// evaluation) or *combinational* (§4.2: a change on an input can
/// propagate through to the output mid-cycle, requiring HBR
/// re-evaluation).
///
/// The default is the conservative [`CombInputs::All`]; kinds whose
/// outputs are functions of state only (like the router's `room` words)
/// should override with [`CombInputs::None`] to unlock the fast path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CombInputs {
    /// The output may depend combinationally on every input
    /// (conservative default).
    All,
    /// The output is a function of registered state only — a
    /// *registered* output in the paper's sense.
    None,
    /// The output depends combinationally on exactly these input port
    /// indices.
    Some(Vec<usize>),
}

impl CombInputs {
    /// Does this output depend combinationally on input port `input`?
    pub fn depends_on(&self, input: usize) -> bool {
        match self {
            CombInputs::All => true,
            CombInputs::None => false,
            CombInputs::Some(list) => list.contains(&input),
        }
    }

    /// Is the output registered (no combinational input dependency)?
    pub fn is_registered(&self) -> bool {
        matches!(self, CombInputs::None)
    }
}

/// A shared block implementation: the combinational circuitry plus the
/// declaration of its register and port shape.
///
/// `eval` must be a *pure function* of `(cur, inputs, cycle, side)` —
/// the dynamic scheduler may call it several times per system cycle
/// (re-evaluation, §4.2) and the last call wins. Side-memory interaction
/// must therefore be pointer-based and idempotent: read any slot freely,
/// write slots addressed by pointers held in `cur`, and advance pointers
/// only through `next`.
///
/// Kinds must be [`Send`]: `Session`s move across `par_map` workers,
/// taking their `SystemSpec` along. (They need not be `Sync` — an
/// engine is only ever evaluated by one thread at a time, so interior
/// mutability like a per-kind decode cache stays safe.)
pub trait BlockKind: Send {
    /// Human-readable kind name (diagnostics, traces).
    fn name(&self) -> &str;

    /// Number of state (register) bits of one instance.
    fn state_bits(&self) -> usize;

    /// Widths in bits of the input links, in port order.
    fn input_widths(&self) -> Vec<usize>;

    /// Widths in bits of the output links, in port order.
    fn output_widths(&self) -> Vec<usize>;

    /// Number of side-memory rings per instance and their word capacities.
    /// Default: no side memory.
    fn side_rings(&self) -> Vec<usize> {
        Vec::new()
    }

    /// Which input ports output `port` depends on *combinationally*
    /// (within the same system cycle). Used by the static analyzer to
    /// classify edges as registered vs combinational; the conservative
    /// default declares every output combinational in every input. An
    /// override must be sound: declaring an input independent that
    /// actually feeds through combinationally breaks the derived hybrid
    /// schedule's single-evaluation guarantee.
    fn comb_inputs(&self, port: usize) -> CombInputs {
        let _ = port;
        CombInputs::All
    }

    /// Write the reset state into `state` (a zeroed word slice of
    /// `state_bits()` bits).
    fn reset(&self, state: &mut [u64]);

    /// Evaluate one instance combinationally.
    ///
    /// * `instance` — which instance of this kind is being evaluated (for
    ///   side-memory addressing).
    /// * `cur` — current-state words (read-only; stable for the whole
    ///   system cycle).
    /// * `inputs` — input link words, one `u64` per input port.
    /// * `cycle` — current system cycle (driven by the engine's global
    ///   control, like the paper's "global control" block).
    /// * `next` — next-state words; the *entire* state must be written.
    /// * `outputs` — output link words, one `u64` per output port; all
    ///   must be written.
    /// * `side` — this block's slice of the side memory (the FPGA's BRAM
    ///   stimuli/result buffers).
    #[allow(clippy::too_many_arguments)]
    fn eval(
        &self,
        instance: usize,
        cur: &[u64],
        inputs: &[u64],
        cycle: u64,
        next: &mut [u64],
        outputs: &mut [u64],
        side: &mut SideView<'_>,
    );

    /// A specialized execution unit for the compiled engine
    /// ([`crate::compile::CompiledEngine`]): keeps decoded per-instance
    /// state between cycles, splitting `eval` into per-level comb passes
    /// and one clock edge. Must be observably bit-identical to `eval`
    /// (the differential suites enforce this). The compiled engine
    /// requires one for every kind of the spec it lowers; the default
    /// `None` leaves the kind to the interpreting engines.
    fn compile(&self) -> Option<Box<dyn crate::compile::CompiledExec>> {
        None
    }
}

/// What drives a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDriver {
    /// Output `port` of block `block`.
    Block {
        /// Driving block instance.
        block: BlockId,
        /// Output port index on that block.
        port: usize,
    },
    /// A constant tie-off (mesh edge ports, configuration straps).
    Const(u64),
    /// Host-written register (the ARM writing FPGA registers over the
    /// memory interface, e.g. stimuli-ring write pointers).
    External,
}

/// A wire bundle crossing block boundaries, stored in link memory.
#[derive(Debug, Clone)]
pub struct LinkSpec {
    /// Width in bits (1..=64).
    pub width: usize,
    /// Driver of the link.
    pub driver: LinkDriver,
    /// Consuming block and input port, if connected.
    pub consumer: Option<(BlockId, usize)>,
    /// Initial value at reset.
    pub reset_value: u64,
}

/// One block instance.
#[derive(Debug, Clone)]
pub struct BlockInst {
    /// The shared implementation this instance uses.
    pub kind: KindId,
    /// Which instance of its kind this is (0-based), for side-memory
    /// addressing.
    pub instance_of_kind: usize,
    /// Input link ids, one per input port.
    pub inputs: Vec<LinkId>,
    /// Output link ids, one per output port.
    pub outputs: Vec<LinkId>,
}

/// A complete system description: kinds, instances and wiring.
///
/// Build with [`SystemSpec::new`], [`add_kind`](SystemSpec::add_kind),
/// [`add_block`](SystemSpec::add_block) and the wiring methods, then
/// validate and hand to an engine.
pub struct SystemSpec {
    kinds: Vec<Box<dyn BlockKind>>,
    blocks: Vec<BlockInst>,
    links: Vec<LinkSpec>,
    kind_instance_counts: Vec<usize>,
}

impl Default for SystemSpec {
    fn default() -> Self {
        Self::new()
    }
}

impl SystemSpec {
    /// Create an empty system.
    pub fn new() -> Self {
        Self {
            kinds: Vec::new(),
            blocks: Vec::new(),
            links: Vec::new(),
            kind_instance_counts: Vec::new(),
        }
    }

    /// Register a block kind (one shared implementation).
    pub fn add_kind(&mut self, kind: Box<dyn BlockKind>) -> KindId {
        self.kinds.push(kind);
        self.kind_instance_counts.push(0);
        self.kinds.len() - 1
    }

    /// Instantiate a block of `kind`. Its ports start unconnected; every
    /// input must be wired (or tied off) before validation.
    pub fn add_block(&mut self, kind: KindId) -> BlockId {
        let n_in = self.kinds[kind].input_widths().len();
        let n_out = self.kinds[kind].output_widths().len();
        let instance_of_kind = self.kind_instance_counts[kind];
        self.kind_instance_counts[kind] += 1;
        self.blocks.push(BlockInst {
            kind,
            instance_of_kind,
            inputs: vec![usize::MAX; n_in],
            outputs: vec![usize::MAX; n_out],
        });
        self.blocks.len() - 1
    }

    /// Wire output `from.1` of block `from.0` to input `to.1` of block
    /// `to.0`, creating a link. Widths must agree.
    pub fn wire(&mut self, from: (BlockId, usize), to: (BlockId, usize)) -> LinkId {
        let w_out = self.kinds[self.blocks[from.0].kind].output_widths()[from.1];
        let w_in = self.kinds[self.blocks[to.0].kind].input_widths()[to.1];
        assert_eq!(
            w_out, w_in,
            "width mismatch wiring block {} out {} ({w_out}b) to block {} in {} ({w_in}b)",
            from.0, from.1, to.0, to.1
        );
        let id = self.links.len();
        self.links.push(LinkSpec {
            width: w_out,
            driver: LinkDriver::Block {
                block: from.0,
                port: from.1,
            },
            consumer: Some((to.0, to.1)),
            reset_value: 0,
        });
        assert_eq!(
            self.blocks[from.0].outputs[from.1],
            usize::MAX,
            "output ({},{}) already wired",
            from.0,
            from.1
        );
        assert_eq!(
            self.blocks[to.0].inputs[to.1],
            usize::MAX,
            "input ({},{}) already wired",
            to.0,
            to.1
        );
        self.blocks[from.0].outputs[from.1] = id;
        self.blocks[to.0].inputs[to.1] = id;
        id
    }

    /// Tie input `to.1` of block `to.0` to a constant (e.g. mesh edge).
    pub fn tie_off(&mut self, to: (BlockId, usize), value: u64) -> LinkId {
        let width = self.kinds[self.blocks[to.0].kind].input_widths()[to.1];
        let id = self.links.len();
        self.links.push(LinkSpec {
            width,
            driver: LinkDriver::Const(value),
            consumer: Some((to.0, to.1)),
            reset_value: value,
        });
        assert_eq!(
            self.blocks[to.0].inputs[to.1],
            usize::MAX,
            "input ({},{}) already wired",
            to.0,
            to.1
        );
        self.blocks[to.0].inputs[to.1] = id;
        id
    }

    /// Connect input `to.1` of block `to.0` to a host-written register.
    pub fn external(&mut self, to: (BlockId, usize), reset_value: u64) -> LinkId {
        let width = self.kinds[self.blocks[to.0].kind].input_widths()[to.1];
        let id = self.links.len();
        self.links.push(LinkSpec {
            width,
            driver: LinkDriver::External,
            consumer: Some((to.0, to.1)),
            reset_value,
        });
        assert_eq!(
            self.blocks[to.0].inputs[to.1],
            usize::MAX,
            "input ({},{}) already wired",
            to.0,
            to.1
        );
        self.blocks[to.0].inputs[to.1] = id;
        id
    }

    /// Leave output `from.1` of block `from.0` dangling but observable (a
    /// probe point, e.g. an unconnected mesh edge output).
    pub fn sink(&mut self, from: (BlockId, usize)) -> LinkId {
        let width = self.kinds[self.blocks[from.0].kind].output_widths()[from.1];
        let id = self.links.len();
        self.links.push(LinkSpec {
            width,
            driver: LinkDriver::Block {
                block: from.0,
                port: from.1,
            },
            consumer: None,
            reset_value: 0,
        });
        assert_eq!(
            self.blocks[from.0].outputs[from.1],
            usize::MAX,
            "output ({},{}) already wired",
            from.0,
            from.1
        );
        self.blocks[from.0].outputs[from.1] = id;
        id
    }

    /// Set the reset value of a link (the register contents at power-up
    /// for registered boundaries, the initial wire sample otherwise).
    pub fn set_link_reset(&mut self, link: LinkId, value: u64) {
        assert!(
            self.links[link].width == 64 || value < (1u64 << self.links[link].width),
            "reset value wider than link"
        );
        self.links[link].reset_value = value;
    }

    /// Structurally check the spec: every port connected, every link
    /// width representable in the 64-bit link-memory word.
    ///
    /// Returns every finding as a typed [`Diagnostic`] (error severity —
    /// an engine must refuse such a spec). Deeper graph analysis —
    /// multiple writers, combinational loops, reachability, schedule
    /// derivation — lives in the `speccheck` crate, which builds on the
    /// same diagnostics.
    pub fn check(&self) -> Result<(), Vec<Diagnostic>> {
        let mut ds = Vec::new();
        for (b, inst) in self.blocks.iter().enumerate() {
            for (i, &l) in inst.inputs.iter().enumerate() {
                if l == usize::MAX {
                    ds.push(Diagnostic::new(
                        Severity::Error,
                        codes::UNCONNECTED_INPUT,
                        Site::InputPort { block: b, port: i },
                        format!("block {b} input {i} unconnected"),
                    ));
                }
            }
            for (o, &l) in inst.outputs.iter().enumerate() {
                if l == usize::MAX {
                    ds.push(Diagnostic::new(
                        Severity::Error,
                        codes::UNCONNECTED_OUTPUT,
                        Site::OutputPort { block: b, port: o },
                        format!("block {b} output {o} unconnected"),
                    ));
                }
            }
        }
        for (l, spec) in self.links.iter().enumerate() {
            if spec.width == 0 || spec.width > 64 {
                ds.push(Diagnostic::new(
                    Severity::Error,
                    codes::WIDTH_OVERFLOW,
                    Site::Link(l),
                    format!(
                        "link {l} is {} bits wide; the link memory holds 1..=64",
                        spec.width
                    ),
                ));
            }
        }
        if ds.is_empty() {
            Ok(())
        } else {
            Err(ds)
        }
    }

    /// The registered kinds.
    pub fn kinds(&self) -> &[Box<dyn BlockKind>] {
        &self.kinds
    }

    /// The block instances.
    pub fn blocks(&self) -> &[BlockInst] {
        &self.blocks
    }

    /// The links.
    pub fn links(&self) -> &[LinkSpec] {
        &self.links
    }

    /// Total register bits across all instances — the depth×width of the
    /// FPGA state memory (one bank).
    pub fn total_state_bits(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| self.kinds[b.kind].state_bits())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::RegisteredDemoKind;

    #[test]
    fn wiring_and_validation() {
        let mut spec = SystemSpec::new();
        let k = spec.add_kind(Box::new(RegisteredDemoKind::new(0)));
        let a = spec.add_block(k);
        let b = spec.add_block(k);
        spec.wire((a, 0), (b, 0));
        spec.wire((b, 0), (a, 0));
        spec.check().unwrap();
        assert_eq!(spec.links().len(), 2);
        assert_eq!(spec.blocks()[0].instance_of_kind, 0);
        assert_eq!(spec.blocks()[1].instance_of_kind, 1);
    }

    #[test]
    fn unconnected_input_reported() {
        let mut spec = SystemSpec::new();
        let k = spec.add_kind(Box::new(RegisteredDemoKind::new(0)));
        let a = spec.add_block(k);
        spec.sink((a, 0));
        let ds = spec.check().unwrap_err();
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, codes::UNCONNECTED_INPUT);
        assert_eq!(ds[0].severity, Severity::Error);
        assert_eq!(ds[0].site, Site::InputPort { block: a, port: 0 });
    }

    #[test]
    #[should_panic(expected = "already wired")]
    fn double_wiring_rejected() {
        let mut spec = SystemSpec::new();
        let k = spec.add_kind(Box::new(RegisteredDemoKind::new(0)));
        let a = spec.add_block(k);
        let b = spec.add_block(k);
        spec.wire((a, 0), (b, 0));
        spec.tie_off((b, 0), 0);
    }
}
