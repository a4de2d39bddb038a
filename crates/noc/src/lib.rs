//! # noc — network assembly and the unified simulation harness
//!
//! Builds the paper's Network-on-Chip (§2) on top of each simulation
//! engine and drives it with the five-phase control loop of §5.3:
//!
//! * [`wiring`] — the neighbour/link structure of a torus or mesh;
//! * [`engine`] — the [`NocEngine`] trait every backend implements
//!   (native, sequential/FPGA-style, SystemC-like, VHDL-like) plus the
//!   host-side ring pointer bookkeeping;
//! * [`native`] — the hand-written reference engine (plain structs, two
//!   evaluation passes per cycle) — the golden model;
//! * [`seq`] — the sequential simulator backend: one
//!   [`seqsim::DynamicEngine`] running [`vc_router::RouterBlock`]s, the
//!   software twin of the paper's FPGA design (Fig 7);
//! * [`compiled`] — the same spec lowered once, at build time, into a
//!   flat bytecode kernel ([`seqsim::CompiledEngine`]) — bit-identical
//!   to [`seq`], several times faster;
//! * [`runner`] — the five-phase loop (generate / load / simulate /
//!   retrieve / analyse) with phase profiling and latency analysis;
//! * [`obs`] — observability for a run: occupancy gauges, link-activity
//!   counters and backlog watermarks sampled into a [`simtrace`]
//!   registry, phase spans in a [`simtrace::Tracer`] (§5.2's monitoring
//!   blocks, in software);
//! * [`diff`] — the differential harness asserting that every engine
//!   produces bit-identical delivered-flit streams;
//! * [`fault`] — seeded fault-plan generation and the host-side
//!   packet-injection fault stage (deterministic, engine-independent);
//! * [`check`] — the runtime invariant checker (flit conservation,
//!   queue/ring bounds) behind `RunConfig::check`.
//!
//! ```
//! use noc::{NocEngine, NativeNoc};
//! use noc_types::{Coord, Flit, NetworkConfig, Topology};
//! use vc_router::{IfaceConfig, StimEntry};
//!
//! // A 3x3 torus; send one single-flit packet from node 0 to (2,1).
//! let cfg = NetworkConfig::new(3, 3, Topology::Torus, 4);
//! let mut net = NativeNoc::new(cfg, IfaceConfig::default());
//! let flit = Flit::head_tail(Coord::new(2, 1), 0);
//! assert!(net.push_stim(0, 0, StimEntry { ts: 0, flit }));
//! net.run(10);
//! let dest = cfg.shape.node_id(Coord::new(2, 1)).index();
//! let delivered = net.drain_delivered(dest);
//! assert_eq!(delivered.len(), 1);
//! assert_eq!(delivered[0].flit, flit);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Positional `for i in 0..n` loops indexing several parallel arrays are
// the natural shape for port/node-indexed hardware code; iterator zips
// would obscure which port is which.
#![allow(clippy::needless_range_loop)]
// Hot failure paths return typed `SimError`s; panicking escape hatches in
// library code must be deliberate (`unwrap_or_else` + `unreachable!`
// with an argument for *why*), not a bare `unwrap()`.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod analysis;
pub mod build;
pub mod check;
pub mod ckpt;
pub mod compiled;
pub mod cs;
pub mod diff;
pub mod engine;
pub mod fault;
pub mod native;
pub mod obs;
pub mod runner;
pub mod seq;
pub mod session;
pub mod wiring;

pub use build::{EngineKind, SimBuilder};
pub use check::InvariantChecker;
pub use ckpt::{CampaignCkpt, CheckpointConfig};
pub use compiled::CompiledNoc;
pub use cs::{Circuit, CsError, CsNativeNoc, CsNoc};
pub use engine::NocEngine;
pub use fault::{random_plan, FaultPlan, InjectApplier};
pub use native::NativeNoc;
pub use obs::{NocObserver, ObsConfig};
pub use runner::{fig1_guarantee, run_fig1_point, RunConfig, RunReport};
pub use seq::SeqNoc;
pub use seqsim::SimError;
pub use session::Session;
pub use wiring::Wiring;
