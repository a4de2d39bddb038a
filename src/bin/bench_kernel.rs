//! Kernel throughput harness — simulated cycles per wall-clock second
//! for every engine (the software-side counterpart of the paper's
//! Table 3), written as machine-readable JSON.
//!
//! ```text
//! cargo run --release --bin bench_kernel [--quick] [--out FILE] [--engines a,b,c]
//! ```
//!
//! `--engines` filters the matrix to a comma-separated list of engine
//! ids (e.g. `--engines seqsim,seqsim-compiled` re-runs just the
//! compiled-vs-hybrid comparison in seconds); `speccheck` selects the
//! analyzer row. An id the harness does not know is refused with exit
//! status 2.
//!
//! Two workloads per engine on the paper's 6x6 torus (depth 2):
//!
//! * `idle` — no traffic; measures the raw evaluation floor.
//! * `loaded` — the Fig 1 workload (GT streams + BE 0.10, seed 7)
//!   through the five-phase runner; the reported rate is the *simulate
//!   phase alone* via [`RunReport::sim_cycles_per_sec`].
//!
//! Plus a `seqsim-compiled` row (the hybrid schedule lowered at build
//! time into a flat bytecode kernel, `schedule: "compiled"`) and an idle
//! scaling sweep from 2 to 256 routers for the sequential and native
//! kernels. Every row carries a `schedule` field: `"hybrid"` for the
//! sequential engine (it adopts the `speccheck` SCC schedule at build
//! time), `"compiled"` for the bytecode kernel, `"dynamic"` for every
//! other engine. A final `speccheck/analyze` row times the build-time
//! analyzer pass itself (spec assembly + graph extraction +
//! condensation + lints).
//!
//! `--quick` shrinks every cycle budget (the CI smoke configuration);
//! the output schema is identical. The JSON is self-checked with
//! [`simtrace::json::validate`] before it is written.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use noc::{run_fig1_point, EngineKind, NocEngine, RunConfig, RunReport};
use noc_types::{NetworkConfig, Topology};
use std::fmt::Write as _;
use std::time::Instant;

/// One measured configuration.
struct Row {
    /// Stable row id, `<engine>/<workload>/<w>x<h>`.
    id: String,
    /// Engine id used in the harness (`cyclesim` ≠ kernel name).
    engine: &'static str,
    /// What the engine reported via [`NocEngine::name`].
    kernel: &'static str,
    workload: &'static str,
    routers: usize,
    /// `"hybrid"` when the engine adopted the analyzer's SCC-condensed
    /// schedule at build time, `"compiled"` when that schedule was
    /// lowered into a bytecode program, `"dynamic"` otherwise.
    schedule: &'static str,
    cycles: u64,
    wall_s: f64,
    cycles_per_sec: f64,
    deltas_per_sec: Option<f64>,
}

/// One engine configuration of the bench matrix.
struct EngineSpec {
    id: &'static str,
    kind: EngineKind,
    /// Idle cycle budget at 6x6 for the full (non-quick) run; loaded
    /// budgets come from the shared [`RunConfig`].
    idle_cycles: u64,
}

impl EngineSpec {
    fn make(&self, cfg: NetworkConfig) -> Box<dyn NocEngine> {
        soc_sim::sim(cfg)
            .engine(self.kind)
            .try_build()
            .expect("bench engine builds")
    }

    /// The `schedule` label the rows report: the sequential worklist
    /// engine adopts the analyzer's hybrid schedule; the compiled
    /// engine lowers that same schedule into its bytecode program at
    /// build time.
    fn schedule(&self) -> &'static str {
        match self.kind {
            EngineKind::Seq => "hybrid",
            EngineKind::SeqCompiled => "compiled",
            _ => "dynamic",
        }
    }
}

fn engines() -> Vec<EngineSpec> {
    vec![
        EngineSpec {
            id: "native",
            kind: EngineKind::Native,
            idle_cycles: 50_000,
        },
        EngineSpec {
            id: "seqsim",
            kind: EngineKind::Seq,
            idle_cycles: 20_000,
        },
        EngineSpec {
            id: "seqsim-compiled",
            kind: EngineKind::SeqCompiled,
            idle_cycles: 50_000,
        },
        EngineSpec {
            id: "cyclesim",
            kind: EngineKind::CycleSim,
            idle_cycles: 20_000,
        },
        EngineSpec {
            id: "rtl",
            kind: EngineKind::Rtl,
            idle_cycles: 5_000,
        },
    ]
}

/// Every id `--engines` accepts: the engine table plus the analyzer row.
fn known_ids() -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = engines().iter().map(|e| e.id).collect();
    ids.push("speccheck");
    ids
}

/// Split a comma-separated `--engines` list, refusing any id not in
/// `known` (a typo or a retired engine would otherwise select nothing
/// and the run would "succeed" with zero rows).
fn parse_engines(list: &str, known: &[&str]) -> Result<Vec<String>, String> {
    let ids: Vec<String> = list
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    match ids.iter().find(|id| !known.contains(&id.as_str())) {
        Some(bad) => Err(format!(
            "unknown engine id {bad:?}; valid ids: {}",
            known.join(", ")
        )),
        None => Ok(ids),
    }
}

/// Idle throughput: warm up, reset the delta counters, time `cycles`
/// plain steps.
fn bench_idle(
    id: &'static str,
    mut e: Box<dyn NocEngine>,
    schedule: &'static str,
    cfg: NetworkConfig,
    cycles: u64,
) -> Row {
    e.run((cycles / 10).max(100)); // warm-up (decode caches, allocator)
    e.reset_delta_stats();
    let start = Instant::now();
    e.run(cycles);
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    let deltas = e
        .delta_stats()
        .map(|d| d.delta_cycles as f64 / wall)
        .filter(|&r| r > 0.0);
    Row {
        id: format!("{id}/idle/{}x{}", cfg.shape.w, cfg.shape.h),
        engine: id,
        kernel: e.name(),
        workload: "idle",
        routers: cfg.num_nodes(),
        schedule,
        cycles,
        wall_s: wall,
        cycles_per_sec: cycles as f64 / wall,
        deltas_per_sec: deltas,
    }
}

/// Loaded throughput: the Fig 1 workload through the five-phase runner;
/// the rate is the simulate phase alone (shared measurement path with
/// the experiments binary).
fn bench_loaded(
    id: &'static str,
    mut e: Box<dyn NocEngine>,
    schedule: &'static str,
    cfg: NetworkConfig,
    rc: &RunConfig,
) -> Row {
    let r: RunReport = run_fig1_point(&mut *e, 0.10, 7, rc).expect("run failed");
    assert!(!r.saturated, "{id}: bench workload saturated");
    let sim_wall = r
        .profile
        .iter()
        .find(|p| p.0 == "simulate")
        .map(|p| p.1.as_secs_f64())
        .unwrap_or(0.0);
    Row {
        id: format!("{id}/loaded/{}x{}", cfg.shape.w, cfg.shape.h),
        engine: id,
        kernel: r.engine,
        workload: "loaded",
        routers: cfg.num_nodes(),
        schedule,
        cycles: r.cycles,
        wall_s: sim_wall,
        cycles_per_sec: r.sim_cycles_per_sec(),
        deltas_per_sec: r.deltas_per_sec(),
    }
}

fn push_row(out: &mut String, row: &Row) {
    out.push_str("    {\"id\": ");
    simtrace::json::write_str(out, &row.id);
    out.push_str(", \"engine\": ");
    simtrace::json::write_str(out, row.engine);
    out.push_str(", \"kernel\": ");
    simtrace::json::write_str(out, row.kernel);
    out.push_str(", \"workload\": ");
    simtrace::json::write_str(out, row.workload);
    out.push_str(", \"schedule\": ");
    simtrace::json::write_str(out, row.schedule);
    let _ = write!(
        out,
        ", \"routers\": {}, \"cycles\": {}, \"wall_s\": ",
        row.routers, row.cycles
    );
    simtrace::json::write_f64(out, row.wall_s);
    out.push_str(", \"cycles_per_sec\": ");
    simtrace::json::write_f64(out, row.cycles_per_sec);
    out.push_str(", \"deltas_per_sec\": ");
    match row.deltas_per_sec {
        Some(d) => simtrace::json::write_f64(out, d),
        None => out.push_str("null"),
    }
    out.push('}');
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .map(|i| args[i + 1].clone())
        .unwrap_or_else(|| "BENCH_kernel.json".to_string());
    // `--engines a,b,c` restricts the matrix to the listed engine ids
    // (the scaling sweep and the analyzer row included).
    let only: Option<Vec<String>> = args.iter().position(|a| a == "--engines").map(|i| {
        let list = args
            .get(i + 1)
            .expect("--engines needs a comma-separated list");
        parse_engines(list, &known_ids()).unwrap_or_else(|msg| {
            eprintln!("bench_kernel: {msg}");
            std::process::exit(2);
        })
    });
    let keep = |id: &str| only.as_ref().is_none_or(|l| l.iter().any(|x| x == id));
    let div = if quick { 10 } else { 1 };

    let cfg = NetworkConfig::fig1();
    let rc = RunConfig {
        warmup: 300,
        measure: 5_000 / div,
        drain: 0,
        period: 256,
        backlog_limit: 1 << 20,
        obs: None,
        check: false,
        ..RunConfig::default()
    };

    let mut rows: Vec<Row> = Vec::new();
    eprintln!(
        "# 6x6 matrix ({} mode)",
        if quick { "quick" } else { "full" }
    );
    for spec in engines() {
        if !keep(spec.id) {
            continue;
        }
        let row = bench_idle(
            spec.id,
            spec.make(cfg),
            spec.schedule(),
            cfg,
            (spec.idle_cycles / div).max(200),
        );
        eprintln!("  {:<32} {:>10.1} cycles/s", row.id, row.cycles_per_sec);
        rows.push(row);
        let row = bench_loaded(spec.id, spec.make(cfg), spec.schedule(), cfg, &rc);
        eprintln!("  {:<32} {:>10.1} cycles/s", row.id, row.cycles_per_sec);
        rows.push(row);
    }

    // Checkpoint overhead: the compiled engine's loaded workload with a
    // durable checkpoint cut every 1024 cycles — compare against the
    // plain `seqsim-compiled/loaded` row to price the resilience layer.
    if keep("seqsim-compiled") {
        let dir = std::env::temp_dir().join(format!("socsim-bench-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rc_ckpt = rc.clone().checkpoint_every(1024, &dir);
        eprintln!("# checkpoint overhead (every 1024 cycles)");
        let spec = EngineSpec {
            id: "seqsim-compiled",
            kind: EngineKind::SeqCompiled,
            idle_cycles: 0,
        };
        let mut row = bench_loaded(spec.id, spec.make(cfg), spec.schedule(), cfg, &rc_ckpt);
        row.id = format!(
            "seqsim-compiled/loaded-ckpt/{}x{}",
            cfg.shape.w, cfg.shape.h
        );
        row.workload = "loaded-ckpt";
        eprintln!("  {:<32} {:>10.1} cycles/s", row.id, row.cycles_per_sec);
        rows.push(row);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Idle scaling sweep, 2 -> 256 routers (paper §7: the sequential
    // kernel trades speed for size linearly).
    let shapes: &[(usize, usize)] = if quick {
        &[(2, 2), (4, 4), (8, 8)]
    } else {
        &[
            (2, 1),
            (2, 2),
            (4, 2),
            (4, 4),
            (8, 4),
            (8, 8),
            (16, 8),
            (16, 16),
        ]
    };
    eprintln!("# scaling sweep ({} points)", shapes.len());
    for spec in engines()
        .into_iter()
        .filter(|s| s.id == "seqsim" || s.id == "native")
        .filter(|s| keep(s.id))
    {
        for &(w, h) in shapes {
            let swept = NetworkConfig::new(w as u8, h as u8, Topology::Torus, 2);
            let row = bench_idle(
                spec.id,
                spec.make(swept),
                spec.schedule(),
                swept,
                (4_000 / div).max(200),
            );
            eprintln!("  {:<32} {:>10.1} cycles/s", row.id, row.cycles_per_sec);
            rows.push(row);
        }
    }

    // Build-time analyzer cost on the bench network: spec assembly,
    // graph extraction, SCC condensation and the lint passes — what
    // every sequential-engine build pays before cycle zero.
    if keep("speccheck") {
        let reps = if quick { 5u64 } else { 50 };
        eprintln!("# speccheck analyzer ({reps} passes)");
        let start = Instant::now();
        let mut analysis = None;
        for _ in 0..reps {
            analysis = Some(soc_sim::sim(cfg).lint());
        }
        let wall = start.elapsed().as_secs_f64().max(1e-9);
        let analysis = analysis.expect("at least one analyzer pass");
        assert!(!analysis.has_errors(), "bench topology must lint clean");
        let row = Row {
            id: format!("speccheck/analyze/{}x{}", cfg.shape.w, cfg.shape.h),
            engine: "speccheck",
            kernel: "speccheck",
            workload: "analyze",
            routers: cfg.num_nodes(),
            schedule: "hybrid",
            cycles: reps,
            wall_s: wall,
            cycles_per_sec: reps as f64 / wall,
            deltas_per_sec: None,
        };
        eprintln!("  {:<32} {:>10.1} passes/s", row.id, row.cycles_per_sec);
        rows.push(row);
    }

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"soc-sim/bench_kernel/v8\",\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    json.push_str(
        "  \"workloads\": {\"idle\": \"no traffic\", \"loaded\": \"fig1 GT + BE 0.10, seed 7, simulate phase only\", \"analyze\": \"speccheck static pass, cycles = passes\"},\n",
    );
    json.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        push_row(&mut json, row);
        if i + 1 < rows.len() {
            json.push(',');
        }
        json.push('\n');
    }
    json.push_str("  ]\n}\n");

    simtrace::json::validate(&json).expect("bench harness emitted invalid JSON");
    std::fs::write(&out_path, &json).expect("write bench output");
    eprintln!("wrote {out_path} ({} rows)", rows.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_list_is_validated_against_the_known_ids() {
        let known = known_ids();
        assert_eq!(
            parse_engines(" seqsim, seqsim-compiled,,speccheck ", &known),
            Ok(vec![
                "seqsim".to_string(),
                "seqsim-compiled".to_string(),
                "speccheck".to_string()
            ])
        );
        for retired in [
            "seqsim-sharded",
            "seqsim-dynamic",
            "seqsim-batched",
            "seqsim-naive",
            "seqsmi",
        ] {
            let err = parse_engines(&format!("native,{retired}"), &known)
                .expect_err("unknown id must be refused");
            assert!(err.contains(retired), "{err}");
            assert!(
                err.contains("seqsim-compiled"),
                "names the valid set: {err}"
            );
        }
    }
}
