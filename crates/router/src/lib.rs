//! # vc-router — the bit-accurate Kavaldjiev virtual-channel router
//!
//! Implements the packet-switched router of the paper's case study (§2.1,
//! after Kavaldjiev et al., "A virtual channel router for on-chip
//! networks", IEEE SOCC 2004):
//!
//! * 5 input and 5 output ports (North, East, South, West, Local);
//! * 4 virtual channels per port, one flit queue per (port, VC) — 20
//!   queues of configurable depth (paper default 4 flits, Fig 1 uses 2);
//! * queues connect *directly* to an asymmetric 20×5 crossbar (no
//!   per-port multiplexing of queues);
//! * access to each crossbar output is granted by a round-robin arbiter —
//!   implemented hierarchically: a VC-level round-robin that makes the
//!   per-hop service interval of an active VC at most `NUM_VCS` cycles
//!   (the basis of the GT latency guarantee), and a queue-level round-robin
//!   among head flits competing for a free (output, VC) pair;
//! * wormhole switching: an (output, VC) pair is owned by one packet from
//!   head to tail; flits of different packets never interleave within a VC;
//! * credit-style flow control: a router tells its upstream neighbours,
//!   per (port, VC), whether the input queue can accept a flit. These
//!   *room* wires are functions of registered state, while the *data*
//!   wires are functions of registered state **and** the incoming room
//!   wires — the combinational boundary that forces the dynamic
//!   (re-evaluating) schedule of the paper's §4.2.
//!
//! The router logic is written once, as pure functions over a plain
//! register file ([`regs::RouterRegs`]):
//! [`comb::comb_room`] (the `G(x)` of paper Fig 4),
//! [`comb::comb_select`]/[`comb::comb_fwd`] (the output half of `F(x)`)
//! and [`clock::clock`] (the register-update half). The native engine uses
//! them directly; the sequential-simulator block ([`block::RouterBlock`])
//! wraps them with bit-exact state (un)packing, mirroring the paper's
//! "extraction of all registers in the design and their mapping on a
//! memory position".

//! ```
//! use noc_types::{Coord, NetworkConfig, Port, Topology};
//! use vc_router::{route, RouterCtx};
//!
//! // Dimension-ordered routing on the paper's 6x6 torus: x first.
//! let cfg = NetworkConfig::new(6, 6, Topology::Torus, 4);
//! let ctx = RouterCtx::new(&cfg, Coord::new(1, 1));
//! let (port, vc) = route(&ctx, Coord::new(3, 4), 2);
//! assert_eq!(port, Port::East);
//! assert_eq!(vc, 2); // GT streams keep their reserved VC
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
// Positional `for i in 0..n` loops indexing several parallel arrays are
// the natural shape for port/node-indexed hardware code; iterator zips
// would obscure which port is which.
#![allow(clippy::needless_range_loop)]

pub mod block;
pub mod circuit;
pub mod clock;
pub mod comb;
pub mod iface;
pub mod layout;
pub mod queue;
pub mod regs;
pub mod routing;

pub use block::{CompiledRouter, RouterBlock};
pub use comb::{comb_fwd, comb_room, comb_select, transfers, RouterInputs, Selection};
pub use iface::{AccEntry, IfaceConfig, IfaceRings, IfaceStore, OutEntry, StimEntry};
pub use layout::RegisterLayout;
pub use queue::{FlitQueue, MAX_QUEUE_DEPTH};
pub use regs::{IfaceRegs, RouterRegs};
pub use routing::{gt_guarantee, route, RouterCtx};
