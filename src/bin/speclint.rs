//! Lint every built-in topology with the `speccheck` static analyzer
//! and report the derived scheduling classification.
//!
//! ```text
//! cargo run --release --bin speclint -- \
//!     [--format text|json] [--out FILE] [--emit-program FILE]
//! ```
//!
//! `--emit-program FILE` additionally lowers the bench network (the
//! paper's 6x6 torus) through the schedule compiler and writes the
//! bytecode program's disassembly to `FILE` — a reviewable CI artifact
//! that also re-parses via `seqsim::CompiledProgram::parse`.
//!
//! Each target is analyzed before any cycle is simulated: the block/link
//! graph is extracted, SCC-condensed, and linted (multiple writers, dead
//! links, width overflow, combinational loops, convergence budget). Any
//! other argument is refused.
//! The exit status is non-zero iff any target produces an
//! error-severity diagnostic — CI runs this as a hard gate.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use noc::{SeqNoc, SimError};
use noc_types::{NetworkConfig, Topology};
use rtl_kernel::RtlNoc;
use seqsim::demo::{comb_demo, registered_demo};
use seqsim::systolic::SystolicArray;
use speccheck::{analyze_graph, Analysis, AnalyzeOptions, Severity, SpecGraph};
use std::io::Write as _;
use std::path::PathBuf;
use vc_router::IfaceConfig;

/// One analyzed target: a built-in topology and its analysis report.
struct Row {
    name: String,
    analysis: Analysis,
}

/// The flags `speclint` accepts; each takes one value.
const FLAGS: [&str; 3] = ["--format", "--out", "--emit-program"];

/// Refuse any argument that is neither a known flag nor a known flag's
/// value, and a known flag without its value.
fn check_args(args: &[String]) -> Result<(), SimError> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !FLAGS.contains(&a.as_str()) {
            return Err(SimError::Config(format!("unknown argument {a}")));
        }
        if it.next().is_none() {
            return Err(SimError::Config(format!("{a} requires an argument")));
        }
    }
    Ok(())
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

/// Sizes of the NoC targets; each is linted as a torus and as a mesh.
const NOC_SIZES: [(u8, u8); 3] = [(3, 3), (4, 4), (6, 6)];

/// The built-in target set as spec graphs.
fn targets() -> Vec<(String, SpecGraph)> {
    let mut targets = Vec::new();
    // NoC networks on the sequential engine, both topologies, several
    // sizes.
    for (w, h) in NOC_SIZES {
        for topo in [Topology::Torus, Topology::Mesh] {
            let cfg = NetworkConfig::new(w, h, topo, 4);
            let seq = SeqNoc::new(cfg, IfaceConfig::default());
            targets.push((
                format!("{}-{w}x{h}", topo_id(topo)),
                SpecGraph::from_spec(seq.engine().spec()),
            ));
        }
    }
    // The kernel-level demo systems (§4.1 / §4.2 regimes).
    let (spec, _) = comb_demo();
    targets.push(("comb-demo".into(), SpecGraph::from_spec(&spec)));
    let (spec, _) = registered_demo([1, 2, 3]);
    targets.push(("registered-demo".into(), SpecGraph::from_spec(&spec)));
    // The output-stationary systolic multiplier on the static engine.
    let array = SystolicArray::new(4);
    targets.push(("systolic-4x4".into(), SpecGraph::from_spec(array.spec())));
    // The event-driven netlist backend: same analyzer, different front
    // end (signals are links, processes are blocks).
    let cfg = NetworkConfig::new(3, 3, Topology::Torus, 4);
    let e = RtlNoc::new(cfg, IfaceConfig::default());
    targets.push(("rtl-torus-3x3".into(), e.spec_graph()));
    targets
}

/// Lint the built-in target set, once per target.
fn all_targets() -> Vec<Row> {
    targets()
        .into_iter()
        .map(|(name, g)| Row {
            name,
            analysis: analyze_graph(&g, &AnalyzeOptions::default()),
        })
        .collect()
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
    check_args(&args)?;
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
        // The six NoC rows come first: each schedules every router, within
        // the divergence watchdog's budget.
        let nodes = NOC_SIZES
            .iter()
            .flat_map(|&(w, h)| [usize::from(w) * usize::from(h); 2]);
        for (r, nodes) in rows.iter().zip(nodes) {
            let a = &r.analysis;
            let schedule = a.schedule.as_ref().expect("schedulable");
            assert_eq!(schedule.order.len(), nodes, "{}", r.name);
            assert!(a.convergence_bound <= a.watchdog_budget, "{}", r.name);
        }
    }

    #[test]
    fn unknown_and_incomplete_arguments_are_refused() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(check_args(&args(&["--format", "json", "--out", "r.json"])).is_ok());
        for (bad, named) in [
            (&["--fromat", "json"][..], "--fromat"),
            (&["--all-topologies"], "--all-topologies"),
            (&["--format", "json", "extra"], "extra"),
            (&["--out"], "--out"),
            (&["--emit-bitflow", "x.json"], "--emit-bitflow"),
        ] {
            let err = check_args(&args(bad)).expect_err("refused");
            assert!(
                matches!(&err, SimError::Config(m) if m.contains(named)),
                "{bad:?}: {err}"
            );
        }
    }
}
