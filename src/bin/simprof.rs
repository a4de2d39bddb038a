//! `simprof` — summarize, diff and gate kernel profiles.
//!
//! ```text
//! simprof summary PROFILE.json [--top N]
//! simprof diff OLD.json NEW.json [--top N]
//! simprof flame PROFILE.json [--out FILE]
//! simprof bench-check BASELINE.json CURRENT.json [--max-drop PCT]
//! ```
//!
//! * `summary` prints a profile's ranked hotspots and per-SCC
//!   convergence accounting (bound vs. worst observed consumption).
//! * `diff` joins two profiles by block name and prints the top-N
//!   self-time regressions (`simprof diff old.json new.json`).
//! * `flame` emits the collapsed-stack flamegraph text (feed it to
//!   `flamegraph.pl`, `inferno-flamegraph` or speedscope).
//! * `bench-check` compares two `bench_kernel` outputs row by row and
//!   exits non-zero when any row's `cycles_per_sec` dropped more than
//!   `--max-drop` percent (default 25) — the CI regression gate behind
//!   `scripts/bench.sh`. Rows absent from the baseline are recorded in a
//!   `BASELINE.seen.json` sidecar; once such a row shows up in two
//!   consecutive runs it gates against the previous run's rate instead
//!   of staying ungated until the baseline is re-recorded.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use simtrace::json::JsonValue;
use simtrace::ProfileReport;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: simprof summary PROFILE.json [--top N]\n       \
         simprof diff OLD.json NEW.json [--top N]\n       \
         simprof flame PROFILE.json [--out FILE]\n       \
         simprof bench-check BASELINE.json CURRENT.json [--max-drop PCT]"
    );
    ExitCode::from(2)
}

/// Value of `--flag V`, if present.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
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

/// One `bench_kernel` row relevant to the gate.
struct BenchRow {
    id: String,
    cycles_per_sec: f64,
}

/// A parsed `bench_kernel` output: its rows plus the run-configuration
/// flag the gate must not silently compare across.
struct BenchFile {
    /// `"quick": true/false` from the header (`None` on pre-v3 files
    /// that never recorded it).
    quick: Option<bool>,
    rows: Vec<BenchRow>,
}

fn load_bench(path: &str) -> Result<BenchFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = simtrace::json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    let rows = doc
        .get("rows")
        .and_then(JsonValue::items)
        .ok_or_else(|| format!("{path}: no \"rows\" array — not a bench_kernel output?"))?;
    let mut out = Vec::with_capacity(rows.len());
    for r in rows {
        out.push(BenchRow {
            id: r
                .get("id")
                .and_then(JsonValue::str)
                .ok_or_else(|| format!("{path}: bench row missing id"))?
                .to_string(),
            cycles_per_sec: r
                .get("cycles_per_sec")
                .and_then(JsonValue::num)
                .ok_or_else(|| format!("{path}: bench row missing cycles_per_sec"))?,
        });
    }
    Ok(BenchFile {
        quick: doc.get("quick").and_then(JsonValue::bool),
        rows: out,
    })
}

fn quick_label(q: Option<bool>) -> &'static str {
    match q {
        Some(true) => "quick",
        Some(false) => "full",
        None => "unknown",
    }
}

/// Sidecar next to `baseline` recording the rows the previous
/// bench-check run saw that the baseline lacks. Same shape as a
/// `bench_kernel` output, so [`load_bench`] reads it back.
fn seen_path(baseline: &str) -> String {
    format!("{baseline}.seen.json")
}

fn write_seen(path: &str, quick: Option<bool>, rows: &[&BenchRow]) -> std::io::Result<()> {
    let mut s = String::from("{\n");
    if let Some(q) = quick {
        s.push_str(&format!("  \"quick\": {q},\n"));
    }
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"id\": \"{}\", \"cycles_per_sec\": {:.1}}}{}\n",
            r.id,
            r.cycles_per_sec,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s)
}

/// The percentage change from `base` to `cur` (0 when `base` is 0).
fn pct_change(base: f64, cur: f64) -> f64 {
    if base > 0.0 {
        100.0 * (cur - base) / base
    } else {
        0.0
    }
}

/// Compare bench rows by id; any drop beyond `max_drop_pct` fails.
fn bench_check(baseline: &str, current: &str, max_drop_pct: f64) -> Result<bool, String> {
    let base_file = load_bench(baseline)?;
    let cur_file = load_bench(current)?;
    let (base, cur) = (&base_file.rows, &cur_file.rows);
    let mut ok = true;
    let mut compared = 0usize;
    println!(
        "bench-check: {} vs {} (fail on >{max_drop_pct:.0}% throughput drop)",
        baseline, current
    );
    // Cycle budgets (and therefore measured rates) differ between quick
    // and full runs: a cross-mode comparison is apples to oranges, and a
    // quick-mode baseline makes the gate permanently lenient. Warn
    // loudly rather than silently passing.
    if base_file.quick != cur_file.quick || base_file.quick.is_none() {
        println!(
            "  WARNING comparing a {} baseline against a {} run — cycle \
             budgets differ, percentages are not meaningful; re-record the \
             baseline with a matching full bench run",
            quick_label(base_file.quick),
            quick_label(cur_file.quick)
        );
    } else if base_file.quick == Some(true) {
        println!(
            "  WARNING both files are --quick runs: short budgets are noisy; \
             the committed baseline should be a full run"
        );
    }
    // Rows the baseline lacks would otherwise stay ungated until someone
    // re-records it. Instead the sidecar remembers them run to run: the
    // first sighting just records, the second sighting onward gates the
    // row against its own previous rate.
    let seen = load_bench(&seen_path(baseline))
        .ok()
        .filter(|s| s.quick == cur_file.quick);
    let mut new_rows: Vec<&BenchRow> = Vec::new();
    for c in cur {
        if base.iter().any(|b| b.id == c.id) {
            continue;
        }
        new_rows.push(c);
        let prev = seen
            .as_ref()
            .and_then(|s| s.rows.iter().find(|p| p.id == c.id));
        match prev {
            Some(p) => {
                let change = pct_change(p.cycles_per_sec, c.cycles_per_sec);
                let failed = change < -max_drop_pct;
                if failed {
                    ok = false;
                }
                println!(
                    "  {} {:<40} {:>12.1} -> {:>12.1} cycles/s ({:+.1}%, vs previous run; \
                     row absent from baseline)",
                    if failed { "FAIL" } else { "  ok" },
                    c.id,
                    p.cycles_per_sec,
                    c.cycles_per_sec,
                    change
                );
            }
            None => println!(
                "  NEW     {:<40} (no baseline counterpart — gated from its next run)",
                c.id
            ),
        }
    }
    if let Err(e) = write_seen(&seen_path(baseline), cur_file.quick, &new_rows) {
        println!("  WARNING could not record the new-row sidecar: {e}");
    }
    // In a like-for-like comparison a vanished row is a lost benchmark
    // and fails the gate; across quick/full modes the smaller sweep
    // budgets legitimately emit fewer rows, so it only warns.
    let same_mode = base_file.quick.is_some() && base_file.quick == cur_file.quick;
    for b in base {
        let Some(c) = cur.iter().find(|c| c.id == b.id) else {
            println!(
                "  MISSING {:<40} (row absent from current run{})",
                b.id,
                if same_mode { "" } else { " — not gated" }
            );
            if same_mode {
                ok = false;
            }
            continue;
        };
        compared += 1;
        let change = pct_change(b.cycles_per_sec, c.cycles_per_sec);
        let failed = change < -max_drop_pct;
        if failed {
            ok = false;
        }
        if failed || change.abs() > max_drop_pct / 2.0 {
            println!(
                "  {} {:<40} {:>12.1} -> {:>12.1} cycles/s ({:+.1}%)",
                if failed { "FAIL" } else { "  ok" },
                b.id,
                b.cycles_per_sec,
                c.cycles_per_sec,
                change
            );
        }
    }
    println!(
        "bench-check: {compared} rows compared, verdict: {}",
        if ok { "PASS" } else { "FAIL" }
    );
    Ok(ok)
}

fn real_main() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let top: usize = flag(&args, "--top")
        .map(|v| v.parse().map_err(|_| "--top requires an integer"))
        .transpose()?
        .unwrap_or(10);
    match args.first().map(String::as_str) {
        Some("summary") => {
            let Some(path) = args.get(1) else {
                return Ok(usage());
            };
            summary(&load_profile(path)?, top);
            Ok(ExitCode::SUCCESS)
        }
        Some("diff") => {
            let (Some(old), Some(new)) = (args.get(1), args.get(2)) else {
                return Ok(usage());
            };
            diff(&load_profile(old)?, &load_profile(new)?, top);
            Ok(ExitCode::SUCCESS)
        }
        Some("flame") => {
            let Some(path) = args.get(1) else {
                return Ok(usage());
            };
            let folded = load_profile(path)?.collapsed();
            match flag(&args, "--out") {
                Some(out) => {
                    std::fs::write(out, &folded).map_err(|e| format!("writing {out}: {e}"))?;
                    eprintln!("wrote {out} ({} stacks)", folded.lines().count());
                }
                None => print!("{folded}"),
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("bench-check") => {
            let (Some(base), Some(cur)) = (args.get(1), args.get(2)) else {
                return Ok(usage());
            };
            let max_drop: f64 = flag(&args, "--max-drop")
                .map(|v| v.parse().map_err(|_| "--max-drop requires a number"))
                .transpose()?
                .unwrap_or(25.0);
            if bench_check(base, cur, max_drop)? {
                Ok(ExitCode::SUCCESS)
            } else {
                Ok(ExitCode::FAILURE)
            }
        }
        _ => Ok(usage()),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("simprof: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_json(quick: bool, rows: &[(&str, f64)]) -> String {
        let body: Vec<String> = rows
            .iter()
            .map(|(id, cps)| format!("    {{\"id\": \"{id}\", \"cycles_per_sec\": {cps:.1}}}"))
            .collect();
        format!(
            "{{\n  \"quick\": {quick},\n  \"rows\": [\n{}\n  ]\n}}\n",
            body.join(",\n")
        )
    }

    #[test]
    fn new_rows_gate_on_their_second_consecutive_sighting() {
        let dir = std::env::temp_dir().join(format!("socsim-simprof-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let cur = dir.join("cur.json");
        let (base_s, cur_s) = (base.to_str().unwrap(), cur.to_str().unwrap());
        let _ = std::fs::remove_file(seen_path(base_s));
        std::fs::write(&base, bench_json(false, &[("old-row", 1000.0)])).unwrap();

        // First sighting of new-row: recorded, not gated.
        std::fs::write(
            &cur,
            bench_json(false, &[("old-row", 1000.0), ("new-row", 800.0)]),
        )
        .unwrap();
        assert!(bench_check(base_s, cur_s, 25.0).unwrap());
        // Second sighting with a >25% drop vs the previous run: gated.
        std::fs::write(
            &cur,
            bench_json(false, &[("old-row", 1000.0), ("new-row", 300.0)]),
        )
        .unwrap();
        assert!(!bench_check(base_s, cur_s, 25.0).unwrap());
        // A steady rate passes, and the sidecar tracks the newest value.
        std::fs::write(
            &cur,
            bench_json(false, &[("old-row", 1000.0), ("new-row", 310.0)]),
        )
        .unwrap();
        assert!(bench_check(base_s, cur_s, 25.0).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sidecar_from_a_different_mode_does_not_gate() {
        let dir = std::env::temp_dir().join(format!("socsim-simprof-mode-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let cur = dir.join("cur.json");
        let (base_s, cur_s) = (base.to_str().unwrap(), cur.to_str().unwrap());
        let _ = std::fs::remove_file(seen_path(base_s));
        std::fs::write(&base, bench_json(true, &[("old-row", 1000.0)])).unwrap();
        std::fs::write(
            &cur,
            bench_json(true, &[("old-row", 1000.0), ("new-row", 800.0)]),
        )
        .unwrap();
        assert!(bench_check(base_s, cur_s, 25.0).unwrap());
        // Same row collapses in a *full* run: the quick-mode sidecar
        // must not gate it (budgets differ), only re-record it.
        std::fs::write(
            &cur,
            bench_json(false, &[("old-row", 1000.0), ("new-row", 100.0)]),
        )
        .unwrap();
        assert!(bench_check(base_s, cur_s, 25.0).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
