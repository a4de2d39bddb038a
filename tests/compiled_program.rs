//! Properties of the compiled bytecode program at NoC scale: each
//! program's shape and disassembly are pinned, the disassembly is a
//! faithful, re-parseable encoding of the program, and the arena has
//! single-writer discipline — every link offset is scattered to by at
//! most one opcode (exactly one for block-driven links), mirroring the
//! one-driver-per-wire rule of the hardware.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use noc::CompiledNoc;
use noc_types::{NetworkConfig, Topology};
use seqsim::compile::Arena;
use seqsim::CompiledProgram;
use vc_router::IfaceConfig;

/// The networks under test, each with its program's pinned op count,
/// arena words and CRC-32 of the disassembly.
fn networks() -> [(NetworkConfig, usize, usize, u32); 5] {
    [
        (
            NetworkConfig::new(4, 4, Topology::Torus, 4),
            48,
            1_184,
            0x9f4c_571f,
        ),
        (
            NetworkConfig::new(3, 2, Topology::Mesh, 2),
            18,
            320,
            0xa1d0_053d,
        ),
        (
            NetworkConfig::new(2, 1, Topology::Torus, 8),
            6,
            244,
            0x4a84_83e5,
        ),
        (NetworkConfig::fig1(), 108, 1_800, 0x0f89_b6ef),
        (
            NetworkConfig::new(16, 16, Topology::Torus, 2),
            768,
            12_800,
            0x6c4a_213b,
        ),
    ]
}

fn name(cfg: NetworkConfig) -> String {
    format!(
        "{}x{} {:?} depth {}",
        cfg.shape.w, cfg.shape.h, cfg.topology, cfg.router.queue_depth
    )
}

fn programs() -> Vec<(String, CompiledProgram)> {
    networks()
        .into_iter()
        .map(|(cfg, ..)| {
            let e = CompiledNoc::new(cfg, IfaceConfig::default());
            (name(cfg), e.engine().program().clone())
        })
        .collect()
}

#[test]
fn noc_programs_are_pinned() {
    for (cfg, ops, words, crc) in networks() {
        let name = name(cfg);
        let e = CompiledNoc::new(cfg, IfaceConfig::default());
        let prog = e.engine().program();
        assert_eq!(prog.levels, 2, "{name}: room pass, then forward pass");
        assert_eq!(prog.ops.len(), ops, "{name}: op count");
        assert_eq!(
            Arena::new(e.engine().spec()).total_words(),
            words,
            "{name}: arena words"
        );
        assert_eq!(
            seqsim::wire::crc32(prog.disassemble().as_bytes()),
            crc,
            "{name}: the lowering changed"
        );
    }
}

#[test]
fn disassembly_round_trips_at_noc_scale() {
    for (name, prog) in programs() {
        let text = prog.disassemble();
        let parsed = CompiledProgram::parse(&text)
            .unwrap_or_else(|e| panic!("{name}: disassembly does not re-parse: {e}"));
        assert_eq!(parsed, prog, "{name}: round-trip changed the program");
    }
}

#[test]
fn every_link_offset_has_at_most_one_writer() {
    for (name, prog) in programs() {
        let mut writers = vec![0u32; prog.n_links];
        for op in &prog.ops {
            if let Some(r) = op.scatter() {
                for mv in &prog.scatters[r.as_range()] {
                    writers[mv.link as usize] += 1;
                }
            }
        }
        assert!(
            writers.iter().all(|&w| w <= 1),
            "{name}: some arena link offset is written by more than one opcode"
        );
        // Every gathered (read) link is either block-driven — written by
        // exactly one scatter — or an external/tie-off initialized at
        // arena construction (never scattered).
        let gathered: std::collections::BTreeSet<u32> =
            prog.gathers.iter().map(|g| g.link).collect();
        assert!(
            gathered.iter().all(|&l| (l as usize) < prog.n_links),
            "{name}: gather reads outside the link region"
        );
    }
}
