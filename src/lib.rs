//! # soc-sim — sequential bit/cycle-accurate SoC (NoC) simulation
//!
//! Meta-crate re-exporting the full public API of the workspace, a Rust
//! reproduction of Wolkotte, Hölzenspies and Smit, *"Using an FPGA for Fast
//! Bit Accurate SoC Simulation"*, IPDPS 2007.
//!
//! See the individual crates for the pieces:
//!
//! * [`seqsim`] — the paper's contribution: the sequential simulation
//!   framework (double-buffered state memory, HBR link memory, static and
//!   dynamic schedulers).
//! * [`vc_router`] — the bit-accurate virtual-channel wormhole router.
//! * [`rtl_kernel`] / [`cyclesim`] — the VHDL-like and SystemC-like
//!   baseline simulation kernels.
//! * [`noc`] — network assembly over all engines and the unified
//!   [`noc::NocEngine`] API.
//! * [`traffic`], [`stats`], [`platform`] — traffic generation, statistics
//!   and the ARM+FPGA platform model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod par;

pub use par::par_map;

/// A [`noc::SimBuilder`] with **every** engine kind registered,
/// including the SystemC-like ([`cyclesim::CycleNoc`]) and VHDL-like
/// ([`rtl_kernel::RtlNoc`]) backends that live outside the `noc` crate
/// and are therefore unavailable through `SimBuilder::new` alone.
///
/// ```
/// use noc::EngineKind;
///
/// let cfg = noc_types::NetworkConfig::new(3, 3, noc_types::Topology::Torus, 2);
/// let mut engine = soc_sim::sim(cfg)
///     .engine(EngineKind::Rtl)
///     .try_build()
///     .expect("engine builds");
/// engine.run(10);
/// assert_eq!(engine.name(), "rtl");
/// ```
pub fn sim(cfg: noc_types::NetworkConfig) -> noc::SimBuilder {
    noc::SimBuilder::new(cfg)
        .register(noc::EngineKind::CycleSim, |cfg, iface, faults| {
            Box::new(cyclesim::CycleNoc::with_faults(cfg, iface, faults))
        })
        .register(noc::EngineKind::Rtl, |cfg, iface, faults| {
            Box::new(rtl_kernel::RtlNoc::with_faults(cfg, iface, faults))
        })
}

pub use cyclesim;
pub use noc;
pub use noc_types;
pub use platform;
pub use rtl_kernel;
pub use seqsim;
pub use stats;
pub use traffic;
pub use vc_router;
