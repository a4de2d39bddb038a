//! Lint every built-in topology with the `speccheck` static analyzer
//! and report the derived scheduling classification.
//!
//! ```text
//! cargo run --release --bin speclint -- \
//!     [--all-topologies] [--format text|json] [--out FILE] \
//!     [--emit-program FILE] [--emit-bitflow FILE]
//! ```
//!
//! `--emit-program FILE` additionally lowers the bench network (the
//! paper's 6x6 torus) through the schedule compiler and writes the
//! bytecode program's disassembly to `FILE` — a reviewable CI artifact
//! that also re-parses via `seqsim::CompiledProgram::parse`.
//!
//! `--emit-bitflow FILE` writes the per-target bit-level dataflow
//! summaries (constant/dead bit counts, narrowable links, the slice
//! plan) as a JSON array — the artifact CI uploads so bitflow
//! regressions show up in review, not in production campaigns.
//!
//! Each target is analyzed before any cycle is simulated: the block/link
//! graph is extracted, SCC-condensed, and linted (multiple writers, dead
//! links, width overflow, combinational loops, convergence budget).
//! The exit status is non-zero iff any target produces an
//! error-severity diagnostic — CI runs this as a hard gate.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use noc::{SimBuilder, SimError};
use noc_types::{NetworkConfig, Topology};
use rtl_kernel::RtlNoc;
use seqsim::demo::{comb_demo, registered_demo};
use seqsim::systolic::SystolicArray;
use speccheck::{analyze_graph, analyze_spec, Analysis, AnalyzeOptions, Severity};
use std::io::Write as _;
use std::path::PathBuf;
use vc_router::IfaceConfig;

/// One analyzed target: a built-in topology plus its analysis report.
struct Row {
    name: String,
    analysis: Analysis,
}

/// Value of `--flag FILE` in the argument list, if present.
fn flag_path(args: &[String], flag: &str) -> Result<Option<PathBuf>, SimError> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) => Ok(Some(PathBuf::from(v))),
            None => Err(SimError::Config(format!("{flag} requires a file argument"))),
        },
    }
}

/// Value of `--flag WORD` in the argument list, if present.
fn flag_word(args: &[String], flag: &str) -> Result<Option<String>, SimError> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) => Ok(Some(v.clone())),
            None => Err(SimError::Config(format!("{flag} requires an argument"))),
        },
    }
}

/// Lint the built-in target set.
fn all_targets() -> Vec<Row> {
    let mut rows = Vec::new();
    // NoC networks on the sequential engine, both topologies, several
    // sizes.
    for (w, h) in [(3u8, 3u8), (4, 4), (6, 6)] {
        for topo in [Topology::Torus, Topology::Mesh] {
            let cfg = NetworkConfig::new(w, h, topo, 4);
            let name = format!("{}-{w}x{h}", topo_id(topo));
            let analysis = SimBuilder::new(cfg).lint();
            rows.push(Row { name, analysis });
        }
    }
    // The kernel-level demo systems (§4.1 / §4.2 regimes).
    let (spec, _) = comb_demo();
    rows.push(Row {
        name: "comb-demo".into(),
        analysis: analyze_spec(&spec),
    });
    let (spec, _) = registered_demo([1, 2, 3]);
    rows.push(Row {
        name: "registered-demo".into(),
        analysis: analyze_spec(&spec),
    });
    // The output-stationary systolic multiplier on the static engine.
    let array = SystolicArray::new(4);
    rows.push(Row {
        name: "systolic-4x4".into(),
        analysis: analyze_spec(array.spec()),
    });
    // The event-driven netlist backend: same analyzer, different front
    // end (signals are links, processes are blocks).
    let cfg = NetworkConfig::new(3, 3, Topology::Torus, 4);
    let e = RtlNoc::new(cfg, IfaceConfig::default());
    rows.push(Row {
        name: "rtl-torus-3x3".into(),
        analysis: analyze_graph(&e.spec_graph(), &AnalyzeOptions::default()),
    });
    rows
}

fn topo_id(t: Topology) -> &'static str {
    match t {
        Topology::Torus => "torus",
        Topology::Mesh => "mesh",
    }
}

fn severity_str(s: Option<Severity>) -> &'static str {
    match s {
        None => "clean",
        Some(Severity::Info) => "info",
        Some(Severity::Warning) => "warning",
        Some(Severity::Error) => "error",
    }
}

fn render_json(rows: &[Row]) -> String {
    let mut s = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "  {{\"name\": \"{}\", \"report\": {}}}{}\n",
            r.name,
            r.analysis.to_json(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push(']');
    s
}

fn render_text(rows: &[Row]) -> String {
    let mut s = String::new();
    for r in rows {
        let a = &r.analysis;
        s.push_str(&format!(
            "{:20} {:>4} blocks {:>4} links  {:>4} static / {:>4} fixed-point  \
             bound {:>6}  {}\n",
            r.name,
            a.n_blocks,
            a.n_links,
            a.schedule
                .as_ref()
                .map(|h| h.order.len()
                    - h.runs
                        .iter()
                        .filter(|x| x.fixed_point)
                        .map(|x| x.len)
                        .sum::<usize>())
                .unwrap_or(0),
            a.schedule
                .as_ref()
                .map(|h| h
                    .runs
                    .iter()
                    .filter(|x| x.fixed_point)
                    .map(|x| x.len)
                    .sum::<usize>())
                .unwrap_or(a.n_blocks),
            if a.convergence_bound == u64::MAX {
                "inf".to_string()
            } else {
                a.convergence_bound.to_string()
            },
            severity_str(a.max_severity()),
        ));
        for d in &a.diagnostics {
            s.push_str(&format!("    {d}\n"));
        }
    }
    s
}

fn run() -> Result<i32, SimError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `--all-topologies` is the default (and only) target set; the flag
    // is accepted for explicitness in CI invocations.
    let _ = args.iter().any(|a| a == "--all-topologies");
    let format = flag_word(&args, "--format")?.unwrap_or_else(|| "text".into());
    if format != "text" && format != "json" {
        return Err(SimError::Config(format!(
            "--format must be text or json, got {format}"
        )));
    }
    let out = flag_path(&args, "--out")?;

    if let Some(path) = flag_path(&args, "--emit-program")? {
        let cfg = NetworkConfig::fig1();
        let e = noc::CompiledNoc::new(cfg, IfaceConfig::default());
        let prog = e.engine().program();
        let text = prog.disassemble();
        // The artifact must stay machine-readable: a program that fails
        // to re-parse is a bug in the disassembler, not the spec.
        seqsim::CompiledProgram::parse(&text)
            .map_err(|e| SimError::Config(format!("emitted program does not re-parse: {e}")))?;
        std::fs::write(&path, &text)
            .map_err(|e| SimError::Config(format!("cannot write {}: {e}", path.display())))?;
        eprintln!(
            "speclint: wrote compiled 6x6 torus program to {} ({} ops, {} links)",
            path.display(),
            prog.ops.len(),
            prog.n_links
        );
    }

    let rows = all_targets();

    if let Some(path) = flag_path(&args, "--emit-bitflow")? {
        let mut s = String::from("[\n");
        for (i, r) in rows.iter().enumerate() {
            s.push_str(&format!(
                "  {{\"name\": \"{}\", \"bitflow\": {}}}{}\n",
                r.name,
                r.analysis.bitflow.to_json(),
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        s.push_str("]\n");
        std::fs::write(&path, &s)
            .map_err(|e| SimError::Config(format!("cannot write {}: {e}", path.display())))?;
        eprintln!(
            "speclint: wrote bitflow summaries for {} targets to {}",
            rows.len(),
            path.display()
        );
    }

    let rendered = if format == "json" {
        render_json(&rows)
    } else {
        render_text(&rows)
    };
    match out {
        Some(path) => {
            let mut f = std::fs::File::create(&path)
                .map_err(|e| SimError::Config(format!("cannot create {}: {e}", path.display())))?;
            f.write_all(rendered.as_bytes())
                .map_err(|e| SimError::Config(format!("cannot write {}: {e}", path.display())))?;
            f.write_all(b"\n")
                .map_err(|e| SimError::Config(format!("cannot write {}: {e}", path.display())))?;
        }
        None => println!("{rendered}"),
    }

    let errors: Vec<&Row> = rows.iter().filter(|r| r.analysis.has_errors()).collect();
    if errors.is_empty() {
        eprintln!(
            "speclint: {} targets, no error-severity diagnostics",
            rows.len()
        );
        Ok(0)
    } else {
        for r in &errors {
            eprintln!(
                "speclint: {} has error-severity diagnostics ({})",
                r.name,
                r.analysis
                    .with_severity(Severity::Error)
                    .map(|d| d.code)
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
        Ok(1)
    }
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("speclint: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn built_in_target_set_lints_clean() {
        let rows = all_targets();
        assert_eq!(rows.len(), 10);
        assert!(rows.iter().all(|r| !r.analysis.has_errors()));
    }
}
