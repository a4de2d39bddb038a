//! `simprof` — summarize and diff kernel profiles.
//!
//! ```text
//! simprof summary PROFILE.json [--top N]
//! simprof diff OLD.json NEW.json [--top N]
//! simprof flame PROFILE.json [--out FILE]
//! ```
//!
//! * `summary` prints a profile's ranked hotspots and per-SCC
//!   convergence accounting (bound vs. worst observed consumption).
//! * `diff` joins two profiles by block name and prints the top-N
//!   self-time regressions (`simprof diff old.json new.json`).
//! * `flame` emits the collapsed-stack flamegraph text (feed it to
//!   `flamegraph.pl`, `inferno-flamegraph` or speedscope).

#![allow(clippy::unwrap_used, clippy::expect_used)]
use simtrace::ProfileReport;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: simprof summary PROFILE.json [--top N]\n       \
         simprof diff OLD.json NEW.json [--top N]\n       \
         simprof flame PROFILE.json [--out FILE]"
    );
    ExitCode::from(2)
}

fn load_profile(path: &str) -> Result<ProfileReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    ProfileReport::from_json(&text).map_err(|e| format!("parsing {path}: {e}"))
}

/// Nanoseconds as a human-readable column.
fn ns(v: u64) -> String {
    if v >= 1_000_000_000 {
        format!("{:.2}s", v as f64 / 1e9)
    } else if v >= 1_000_000 {
        format!("{:.2}ms", v as f64 / 1e6)
    } else if v >= 1_000 {
        format!("{:.1}us", v as f64 / 1e3)
    } else {
        format!("{v}ns")
    }
}

fn ns_signed(v: i64) -> String {
    if v < 0 {
        format!("-{}", ns(v.unsigned_abs()))
    } else {
        format!("+{}", ns(v as u64))
    }
}

fn summary(report: &ProfileReport, top: usize) {
    let total = report.self_ns_total();
    println!(
        "profile: engine={} cycles={} wall={:.3}s self-time={} ({} blocks, {} evals, {} skipped)",
        report.engine,
        report.cycles,
        report.wall_s,
        ns(total),
        report.entries.len(),
        report.evals_total(),
        report.skipped_total()
    );
    if report.wall_s > 0.0 {
        println!(
            "coverage: self-time / wall = {:.1} %",
            100.0 * total as f64 / (report.wall_s * 1e9)
        );
    }
    println!("\ntop {top} blocks by self time:");
    println!(
        "{:>5} {:>6} {:<24} {:>10} {:>12} {:>10} {:>12} {:>6}",
        "rank", "scc", "block", "self", "evals", "retries", "skipped", "share"
    );
    for (rank, e) in report.hotspots(top).iter().enumerate() {
        let share = if total > 0 {
            100.0 * e.self_ns as f64 / total as f64
        } else {
            0.0
        };
        println!(
            "{:>5} {:>5}{} {:<24} {:>10} {:>12} {:>10} {:>12} {share:>5.1}%",
            rank + 1,
            e.scc,
            if e.fixed_point { "*" } else { " " },
            e.name,
            ns(e.self_ns),
            e.evals,
            e.hbr_retries,
            e.skipped,
        );
    }
    if report.sccs.is_empty() {
        // Compiled-kernel reports (and acyclic specs on the worklist
        // engine) legitimately have no fixed-point SCC rows: the comb
        // opcode time is already rolled up into each block's self time
        // via the opcode→block back-pointers.
        if report.engine.contains("compiled") {
            println!(
                "\nstraight-line compiled program: no fixed-point SCCs, HBR checks \
                 elided; opcode self time is attributed per block above"
            );
        }
    } else {
        println!("\nmulti-block SCCs (fixed-point convergence):");
        println!(
            "{:>5} {:>7} {:>7} {:>9} {:>10}",
            "scc", "blocks", "bound", "consumed", "retries"
        );
        for s in &report.sccs {
            println!(
                "{:>5} {:>7} {:>7} {:>9} {:>10}",
                s.scc, s.blocks, s.bound, s.consumed_max, s.hbr_retries
            );
        }
        println!("(* = block inside a fixed-point SCC)");
    }
}

fn diff(old: &ProfileReport, new: &ProfileReport, top: usize) {
    println!(
        "diff: {} ({} cycles) -> {} ({} cycles), top {top} regressions by self-time delta",
        old.engine, old.cycles, new.engine, new.cycles
    );
    println!(
        "{:<24} {:>10} {:>10} {:>10} {:>8} {:>12} {:>12}",
        "block", "old", "new", "delta", "ratio", "old evals", "new evals"
    );
    for row in old.diff(new).into_iter().take(top) {
        println!(
            "{:<24} {:>10} {:>10} {:>10} {:>7.2}x {:>12} {:>12}",
            row.name,
            ns(row.old_self_ns),
            ns(row.new_self_ns),
            ns_signed(row.delta_ns()),
            row.ratio(),
            row.old_evals,
            row.new_evals
        );
    }
    let (t_old, t_new) = (old.self_ns_total() as i64, new.self_ns_total() as i64);
    println!(
        "total self-time: {} -> {} ({})",
        ns(t_old as u64),
        ns(t_new as u64),
        ns_signed(t_new - t_old)
    );
}

/// One parsed command line.
#[derive(Debug, PartialEq)]
enum Cmd {
    Summary {
        path: String,
        top: usize,
    },
    Diff {
        old: String,
        new: String,
        top: usize,
    },
    Flame {
        path: String,
        out: Option<String>,
    },
}

/// Parse the command line against each subcommand's allow-list: exactly
/// its number of file arguments plus its one value flag (`--top N` for
/// `summary`/`diff`, `--out FILE` for `flame`). Anything else — an
/// unknown flag, a value flag without its value, a missing or extra file
/// — is refused with the offending argument named.
fn parse(args: &[String]) -> Result<Cmd, String> {
    let (cmd, rest) = args.split_first().ok_or("missing subcommand")?;
    let (files, value_flag) = match cmd.as_str() {
        "summary" => (1, "--top"),
        "diff" => (2, "--top"),
        "flame" => (1, "--out"),
        _ => return Err(format!("unknown subcommand {cmd}")),
    };
    let mut pos: Vec<&String> = Vec::new();
    let mut value: Option<&String> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        if a == value_flag {
            value = Some(
                it.next()
                    .ok_or_else(|| format!("{a} requires an argument"))?,
            );
        } else if a.starts_with('-') {
            return Err(format!("unknown argument {a}"));
        } else if pos.len() == files {
            return Err(format!("unexpected argument {a}"));
        } else {
            pos.push(a);
        }
    }
    let top = || match value {
        None => Ok(10),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--top requires an integer, got {v}")),
    };
    match (cmd.as_str(), pos.as_slice()) {
        ("summary", [path]) => Ok(Cmd::Summary {
            path: path.to_string(),
            top: top()?,
        }),
        ("diff", [old, new]) => Ok(Cmd::Diff {
            old: old.to_string(),
            new: new.to_string(),
            top: top()?,
        }),
        ("flame", [path]) => Ok(Cmd::Flame {
            path: path.to_string(),
            out: value.cloned(),
        }),
        _ => Err(format!(
            "{cmd} takes {files} file argument(s), got {}",
            pos.len()
        )),
    }
}

fn run(cmd: Cmd) -> Result<(), String> {
    match cmd {
        Cmd::Summary { path, top } => summary(&load_profile(&path)?, top),
        Cmd::Diff { old, new, top } => diff(&load_profile(&old)?, &load_profile(&new)?, top),
        Cmd::Flame { path, out } => {
            let folded = load_profile(&path)?.collapsed();
            match out {
                Some(out) => {
                    std::fs::write(&out, &folded).map_err(|e| format!("writing {out}: {e}"))?;
                    eprintln!("wrote {out} ({} stacks)", folded.lines().count());
                }
                None => print!("{folded}"),
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("simprof: {e}");
            return usage();
        }
    };
    match run(cmd) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("simprof: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn mistyped_flags_and_stray_words_are_refused_by_name() {
        for (line, named) in [
            ("summary p.json --tpo 3", "--tpo"),
            ("summary p.json --top", "--top"),
            ("summary p.json extra words", "extra"),
            ("flame p.json --out", "--out"),
        ] {
            let err = parse(&args(line)).expect_err(line);
            assert!(err.contains(named), "{line}: {err}");
        }
        assert!(parse(&args("diff old.json")).is_err(), "one file short");
        assert!(parse(&args("summary p.json --top x")).is_err());
        assert!(parse(&args("bench-check")).is_err());
    }

    #[test]
    fn valid_forms_parse() {
        assert_eq!(
            parse(&args("summary p.json --top 5")),
            Ok(Cmd::Summary {
                path: "p.json".into(),
                top: 5
            })
        );
        assert_eq!(
            parse(&args("diff --top 3 old.json new.json")),
            Ok(Cmd::Diff {
                old: "old.json".into(),
                new: "new.json".into(),
                top: 3
            })
        );
        assert_eq!(
            parse(&args("flame p.json --out p.folded")),
            Ok(Cmd::Flame {
                path: "p.json".into(),
                out: Some("p.folded".into())
            })
        );
        assert_eq!(
            parse(&args("flame p.json")),
            Ok(Cmd::Flame {
                path: "p.json".into(),
                out: None
            })
        );
    }
}
