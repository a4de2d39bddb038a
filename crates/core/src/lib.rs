//! # seqsim — sequential simulation of parallel synchronous systems
//!
//! This crate is the Rust embodiment of the simulation method of
//! Wolkotte, Hölzenspies and Smit, *"Using an FPGA for Fast Bit Accurate
//! SoC Simulation"* (IPDPS 2007), §4: how to simulate a large parallel
//! system — many identical combinational blocks with registered state —
//! *sequentially*, one block evaluation ("delta cycle") at a time, while
//! remaining bit and cycle accurate.
//!
//! The key ideas, mapped to modules:
//!
//! * All registers of every block instance are extracted into a single
//!   **double-buffered state memory** ([`state::StateMemory`]); the
//!   current/next banks are exchanged by switching an offset pointer, not
//!   by copying (paper Fig 2b / §4.1).
//! * Blocks of the same kind share one implementation (the
//!   [`block::BlockKind`] trait object) — in the FPGA, one copy of the
//!   combinational logic; here, one `eval` function.
//! * Inter-block wires are held in a **link memory** ([`links::LinkMemory`]).
//!   For systems with *registered* boundaries the link memory is double
//!   buffered and a **static schedule** suffices ([`static_sched`], Fig 3).
//! * For systems with *combinatorial* boundaries each link has a single
//!   memory slot plus a **Has-Been-Read (HBR) status bit**; a round-robin
//!   **dynamic scheduler** re-evaluates blocks whose adjacent links are not
//!   all valid until the whole system is stable ([`dynamic_sched`], Fig 5,
//!   §4.2).
//! * A **system cycle** (one simulated clock edge) therefore consists of at
//!   least one *delta cycle* per block; the surplus is the re-evaluation
//!   overhead reported in the paper's §6 ("between 1.5 and 2 times the
//!   input load"). [`counters::DeltaStats`] tracks it.
//! * [`trace::ScheduleTrace`] records the exact delta-cycle schedule, used
//!   to regenerate the paper's Fig 3 and Fig 5.
//! * [`demo`] contains the paper's running examples: the three-block
//!   registered-boundary system (Fig 2) and the combinatorial-boundary
//!   system (Fig 4).
//!
//! The blocks simulated by this crate are *bit-accurate*: block state is a
//! plain bit vector, and `eval` is a pure function from (current state
//! bits, input link words) to (next state bits, output link words) — the
//! same contract a synthesised netlist has on the FPGA.
//!
//! ```
//! use seqsim::demo::{comb_demo, comb_demo_reference};
//! use seqsim::DynamicEngine;
//!
//! // The paper's Fig 4 example system, simulated sequentially with the
//! // dynamic (HBR) schedule of §4.2 ...
//! let (spec, _links) = comb_demo();
//! let mut engine = DynamicEngine::new(spec);
//! engine.run(10);
//!
//! // ... matches the parallel-hardware semantics bit for bit,
//! assert_eq!(
//!     noc_types::bits::BitReader::new(engine.peek_state(0)).take(16),
//!     comb_demo_reference(10)[0]
//! );
//! // ... at a delta-cycle cost of at least one evaluation per block.
//! assert!(engine.stats().delta_cycles >= 30);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Positional `for i in 0..n` loops indexing several parallel arrays are
// the natural shape for port/node-indexed hardware code; iterator zips
// would obscure which port is which.
#![allow(clippy::needless_range_loop)]
// Library failure paths must be typed (`SimError`), not panics hidden in
// unwraps. Tests may still unwrap.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod block;
pub mod check;
pub mod compile;
pub mod counters;
pub mod demo;
pub mod dynamic_sched;
pub mod error;
pub mod instrument;
pub mod links;
pub mod profiler;
pub mod side;
pub mod state;
pub mod static_sched;
pub mod systolic;
pub mod trace;
pub mod wire;
pub mod worklist;

pub use block::{
    BlockId, BlockInst, BlockKind, CombInputs, KindId, LinkDriver, LinkId, LinkSpec, SystemSpec,
};
pub use compile::{
    CompileOptions, CompiledEngine, CompiledExec, CompiledProgram, CompiledSnapshot, GatingStats,
    SlicePlan, Wake,
};
pub use counters::DeltaStats;
pub use dynamic_sched::{DynamicEngine, HybridRun, HybridSchedule, Scheduling, Snapshot};
pub use error::SimError;
pub use instrument::KernelInstr;
pub use links::LinkMemory;
pub use profiler::KernelProfiler;
pub use side::{SideMem, SideView};
pub use state::StateMemory;
pub use static_sched::StaticEngine;
pub use trace::{ScheduleTrace, TraceEvent};
pub use wire::{Dec, Enc, WireError};
pub use worklist::Worklist;
