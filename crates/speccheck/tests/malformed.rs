//! Table-driven malformed-spec suite: every diagnostic the analyzer can
//! emit is seeded here at least once, and the expected machine-readable
//! code is asserted. Graph-level defects that the `SystemSpec` builder
//! makes unconstructible (multiple writers, dangling link ids) are built
//! directly in the analyzer's [`SpecGraph`] IR; everything a real
//! `SystemSpec` *can* express is also exercised end to end through
//! [`analyze_spec`].

#![allow(clippy::unwrap_used, clippy::expect_used)]

use seqsim::{BlockKind, CombInputs, SideView, SystemSpec};
use speccheck::{
    analyze_graph, analyze_spec, codes, AnalyzeOptions, GraphBlock, GraphLink, LinkClass, Severity,
    SpecGraph,
};

/// Shorthand for a graph block.
fn block(
    name: &str,
    inputs: &[Option<usize>],
    outputs: &[Option<usize>],
    comb: CombInputs,
) -> GraphBlock {
    GraphBlock {
        name: name.to_string(),
        inputs: inputs.to_vec(),
        outputs: outputs.to_vec(),
        comb: vec![comb; outputs.len()],
        host_visible: false,
    }
}

/// Shorthand for `n` ordinary 8-bit wires.
fn wires(n: usize) -> Vec<GraphLink> {
    (0..n)
        .map(|_| GraphLink {
            width: 8,
            class: LinkClass::Wire,
        })
        .collect()
}

struct Case {
    name: &'static str,
    graph: SpecGraph,
    /// Codes that must appear (set containment, not equality — some
    /// fixtures trip secondary findings too).
    expect_codes: &'static [&'static str],
    expect_severity: Severity,
    /// Whether a hybrid schedule may still be derived (no errors).
    expect_schedule: bool,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "two blocks drive one link",
            graph: SpecGraph {
                blocks: vec![
                    block("a", &[Some(1)], &[Some(0)], CombInputs::None),
                    block("b", &[Some(0)], &[Some(0)], CombInputs::None),
                    block("sink", &[Some(0)], &[Some(1)], CombInputs::None),
                ],
                links: wires(2),
            },
            expect_codes: &[codes::MULTIPLE_WRITER],
            expect_severity: Severity::Error,
            expect_schedule: false,
        },
        Case {
            name: "unconnected input port",
            graph: SpecGraph {
                blocks: vec![block("a", &[None], &[Some(0)], CombInputs::None)],
                links: wires(1),
            },
            expect_codes: &[codes::UNCONNECTED_INPUT],
            expect_severity: Severity::Error,
            expect_schedule: false,
        },
        Case {
            name: "unconnected output port",
            graph: SpecGraph {
                blocks: vec![
                    block("a", &[Some(0)], &[None], CombInputs::None),
                    block("b", &[Some(0)], &[Some(0)], CombInputs::None),
                ],
                links: wires(1),
            },
            expect_codes: &[codes::UNCONNECTED_OUTPUT],
            expect_severity: Severity::Error,
            expect_schedule: false,
        },
        Case {
            name: "input references a link id past the table",
            graph: SpecGraph {
                blocks: vec![block("a", &[Some(99)], &[Some(0)], CombInputs::None)],
                links: wires(1),
            },
            expect_codes: &[codes::UNCONNECTED_INPUT],
            expect_severity: Severity::Error,
            expect_schedule: false,
        },
        Case {
            name: "link wider than the 64-bit word",
            graph: SpecGraph {
                blocks: vec![block("a", &[Some(0)], &[Some(0)], CombInputs::None)],
                links: vec![GraphLink {
                    width: 65,
                    class: LinkClass::Wire,
                }],
            },
            expect_codes: &[codes::WIDTH_OVERFLOW],
            expect_severity: Severity::Error,
            expect_schedule: false,
        },
        Case {
            name: "zero-width link",
            graph: SpecGraph {
                blocks: vec![block("a", &[Some(0)], &[Some(0)], CombInputs::None)],
                links: vec![GraphLink {
                    width: 0,
                    class: LinkClass::Wire,
                }],
            },
            expect_codes: &[codes::WIDTH_OVERFLOW],
            expect_severity: Severity::Error,
            expect_schedule: false,
        },
        Case {
            name: "combinational self-loop on one block",
            graph: SpecGraph {
                blocks: vec![block("a", &[Some(0)], &[Some(0)], CombInputs::All)],
                links: wires(1),
            },
            expect_codes: &[codes::COMB_SELF_LOOP],
            expect_severity: Severity::Error,
            expect_schedule: false,
        },
        Case {
            name: "wire consumed but never written",
            graph: SpecGraph {
                blocks: vec![block("a", &[Some(0)], &[Some(1)], CombInputs::None)],
                links: wires(2),
            },
            expect_codes: &[codes::NEVER_WRITTEN],
            expect_severity: Severity::Warning,
            expect_schedule: true,
        },
        Case {
            name: "external register nobody reads",
            graph: SpecGraph {
                blocks: vec![
                    block("a", &[Some(0)], &[Some(1)], CombInputs::None),
                    block("b", &[Some(1)], &[Some(0)], CombInputs::None),
                ],
                links: vec![
                    GraphLink {
                        width: 8,
                        class: LinkClass::Wire,
                    },
                    GraphLink {
                        width: 8,
                        class: LinkClass::Wire,
                    },
                    GraphLink {
                        width: 8,
                        class: LinkClass::External,
                    },
                ],
            },
            expect_codes: &[codes::NEVER_READ],
            expect_severity: Severity::Warning,
            expect_schedule: true,
        },
        Case {
            name: "island unreachable from any external source",
            graph: SpecGraph {
                blocks: vec![
                    // Reachable: consumes the external register.
                    block("fed", &[Some(0)], &[Some(1)], CombInputs::None),
                    block("fed-sink", &[Some(1)], &[Some(2)], CombInputs::None),
                    // Closed pair no external value can influence.
                    block("island-a", &[Some(3)], &[Some(4)], CombInputs::None),
                    block("island-b", &[Some(4)], &[Some(3)], CombInputs::None),
                ],
                links: vec![
                    GraphLink {
                        width: 8,
                        class: LinkClass::External,
                    },
                    GraphLink {
                        width: 8,
                        class: LinkClass::Wire,
                    },
                    GraphLink {
                        width: 8,
                        class: LinkClass::Wire,
                    },
                    GraphLink {
                        width: 8,
                        class: LinkClass::Wire,
                    },
                    GraphLink {
                        width: 8,
                        class: LinkClass::Wire,
                    },
                ],
            },
            expect_codes: &[codes::UNREACHABLE_BLOCK],
            expect_severity: Severity::Warning,
            expect_schedule: true,
        },
        Case {
            name: "combinational ring has no static bound",
            graph: SpecGraph {
                blocks: vec![
                    block("r0", &[Some(2)], &[Some(0)], CombInputs::All),
                    block("r1", &[Some(0)], &[Some(1)], CombInputs::All),
                    block("r2", &[Some(1)], &[Some(2)], CombInputs::All),
                ],
                links: wires(3),
            },
            expect_codes: &[codes::CONVERGENCE_BUDGET],
            expect_severity: Severity::Warning,
            expect_schedule: true,
        },
    ]
}

#[test]
fn every_seeded_defect_reports_its_code() {
    for case in cases() {
        let a = analyze_graph(&case.graph, &AnalyzeOptions::default());
        let ds = &a.diagnostics;
        for code in case.expect_codes {
            assert!(
                ds.iter().any(|d| d.code == *code),
                "case `{}`: expected code {code}, got {ds:#?}",
                case.name,
            );
        }
        assert_eq!(
            ds.iter().map(|d| d.severity).max(),
            Some(case.expect_severity),
            "case `{}`: wrong max severity: {ds:#?}",
            case.name,
        );
        assert_eq!(
            a.schedule.is_some(),
            case.expect_schedule,
            "case `{}`: schedule derivation disagrees with error status",
            case.name
        );
    }
}

#[test]
fn diagnostics_carry_the_expected_severity_class() {
    // Errors refuse a schedule; warnings and infos never do.
    for case in cases() {
        let a = analyze_graph(&case.graph, &AnalyzeOptions::default());
        assert_eq!(
            a.has_errors(),
            !case.expect_schedule,
            "case `{}`",
            case.name
        );
    }
}

// ---------------------------------------------------------------------
// End-to-end: defects expressible in a real `SystemSpec` travel through
// `SpecGraph::from_spec` and keep their codes.
// ---------------------------------------------------------------------

/// A configurable one-in/one-out test kind.
struct TestKind {
    out_width: usize,
    comb: CombInputs,
}

impl BlockKind for TestKind {
    fn name(&self) -> &str {
        "test-kind"
    }
    fn state_bits(&self) -> usize {
        8
    }
    fn input_widths(&self) -> Vec<usize> {
        vec![self.out_width]
    }
    fn output_widths(&self) -> Vec<usize> {
        vec![self.out_width]
    }
    fn comb_inputs(&self, _port: usize) -> CombInputs {
        self.comb.clone()
    }
    fn reset(&self, _state: &mut [u64]) {}
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
        next[0] = cur[0];
        outputs[0] = inputs[0];
    }
}

#[test]
fn spec_with_unconnected_input_is_an_error_end_to_end() {
    let mut spec = SystemSpec::new();
    let k = spec.add_kind(Box::new(TestKind {
        out_width: 8,
        comb: CombInputs::None,
    }));
    let a = spec.add_block(k);
    spec.sink((a, 0));
    // The builder-level check and the analyzer agree on the code.
    let ds = spec.check().unwrap_err();
    assert!(ds.iter().any(|d| d.code == codes::UNCONNECTED_INPUT));
    let an = analyze_spec(&spec);
    assert!(an.has_errors());
    assert!(an
        .diagnostics
        .iter()
        .any(|d| d.code == codes::UNCONNECTED_INPUT));
    assert!(an.schedule.is_none());
}

#[test]
fn spec_with_65_bit_port_is_a_width_overflow() {
    let mut spec = SystemSpec::new();
    let k = spec.add_kind(Box::new(TestKind {
        out_width: 65,
        comb: CombInputs::None,
    }));
    let a = spec.add_block(k);
    spec.external((a, 0), 0);
    spec.sink((a, 0));
    let ds = spec.check().unwrap_err();
    assert!(ds.iter().any(|d| d.code == codes::WIDTH_OVERFLOW));
    let an = analyze_spec(&spec);
    assert!(an
        .diagnostics
        .iter()
        .any(|d| d.code == codes::WIDTH_OVERFLOW));
    assert!(an.schedule.is_none());
}

#[test]
fn spec_wired_to_itself_combinationally_is_a_self_loop() {
    let mut spec = SystemSpec::new();
    let k = spec.add_kind(Box::new(TestKind {
        out_width: 8,
        comb: CombInputs::All,
    }));
    let a = spec.add_block(k);
    spec.wire((a, 0), (a, 0));
    spec.check().expect("structurally complete");
    let an = analyze_spec(&spec);
    assert!(an
        .diagnostics
        .iter()
        .any(|d| d.code == codes::COMB_SELF_LOOP));
    assert!(an.has_errors());
    assert!(an.schedule.is_none());
}

#[test]
fn registered_self_loop_is_legal() {
    // The same wiring with a registered output is an ordinary
    // accumulator — no diagnostic, schedule derived.
    let mut spec = SystemSpec::new();
    let k = spec.add_kind(Box::new(TestKind {
        out_width: 8,
        comb: CombInputs::None,
    }));
    let a = spec.add_block(k);
    spec.wire((a, 0), (a, 0));
    let an = analyze_spec(&spec);
    assert!(
        an.diagnostics
            .iter()
            .all(|d| d.code != codes::COMB_SELF_LOOP),
        "{:#?}",
        an.diagnostics
    );
    assert!(!an.has_errors());
    assert!(an.schedule.is_some());
}
