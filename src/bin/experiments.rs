//! Run every paper reproduction end to end and emit a Markdown summary —
//! the data source for EXPERIMENTS.md. Slower than the individual
//! examples (it runs real sweeps); use `--quick` for a fast pass.
//!
//! ```text
//! cargo run --release --bin experiments \
//!     [--quick] [--trace FILE] [--metrics FILE] [--check] [--faults SEED] \
//!     [--profile FILE] [--checkpoint-dir DIR] [--checkpoint-every N] [--resume]
//! ```
//!
//! `--trace FILE` writes a Chrome trace-event JSON of the sequential
//! (Table 3/§6) run — open it in Perfetto or `chrome://tracing`.
//! `--metrics FILE` writes that run's metrics snapshot as JSON.
//! `--check` runs the invariant checker on every run: structural bounds
//! every cycle, flit conservation every period; any violation aborts
//! with a typed error and a non-zero exit.
//! `--faults SEED` derives a deterministic fault plan from SEED and
//! proves all five engines stay bit-identical while replaying it.
//! `--profile FILE` runs a loaded 6x6 mesh on the sequential engine with
//! the graph-attributed kernel profiler on, writes the ranked-hotspot
//! JSON to FILE (plus FILE.folded flamegraph text) and prints the
//! hotspot table — then feed the outputs to `simprof`.
//! `--checkpoint-dir DIR` makes the Table 3/§6 sequential run cut a
//! durable checkpoint every `--checkpoint-every N` cycles (default 1024)
//! into DIR; with `--resume`, that run restarts from the newest valid
//! checkpoint there instead of cycle 0 — kill the process mid-run and
//! re-invoke with `--resume` to watch it pick up bit-identically.
//! Any other argument is refused with a non-zero exit.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use noc::diff::{assert_traces_equal, collect_trace};
use noc::{fig1_guarantee, run_fig1_point, EngineKind, ObsConfig, RunConfig, SimBuilder, SimError};
use noc_types::NetworkConfig;
use platform::{FpgaDevice, FpgaTimingModel, PhaseParams, ResourceModel, Scenario};
use simtrace::{Registry, Tracer};
use soc_sim::par_map;
use std::path::PathBuf;
use std::sync::Arc;
use vc_router::{IfaceConfig, RegisterLayout};

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

/// The flags `experiments` accepts without a value.
const SWITCHES: [&str; 3] = ["--quick", "--check", "--resume"];

/// The flags `experiments` accepts with one value each.
const VALUE_FLAGS: [&str; 6] = [
    "--trace",
    "--metrics",
    "--faults",
    "--profile",
    "--checkpoint-dir",
    "--checkpoint-every",
];

/// Refuse any argument that is neither a known flag nor a known flag's
/// value, and a value flag without its value.
fn check_args(args: &[String]) -> Result<(), SimError> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if SWITCHES.contains(&a.as_str()) {
            continue;
        }
        if !VALUE_FLAGS.contains(&a.as_str()) {
            return Err(SimError::Config(format!("unknown argument {a}")));
        }
        if it.next().is_none() {
            return Err(SimError::Config(format!("{a} requires an argument")));
        }
    }
    Ok(())
}

/// Value of `--flag N` in the argument list, if present.
fn flag_u64(args: &[String], flag: &str) -> Result<Option<u64>, SimError> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1).map(|v| v.parse::<u64>()) {
            Some(Ok(v)) => Ok(Some(v)),
            Some(Err(_)) | None => Err(SimError::Config(format!(
                "{flag} requires an integer argument"
            ))),
        },
    }
}

/// Profile the sequential engine on a loaded 6x6 mesh: graph-attributed
/// per-block/per-SCC self time and the flamegraph export — everything
/// `simprof` consumes.
///
/// The invariant checker stays off here even under `--check`: its
/// per-cycle audits run inside the simulate phase but outside block
/// evaluation, so they dilute self-time coverage (measured: 89 % → 42 %)
/// without profiling anything — the checked sweeps above already cover
/// the invariants.
fn profile_hotspots(quick: bool, path: &PathBuf) -> Result<(), SimError> {
    let scale = if quick { 1 } else { 3 };
    let cfg = NetworkConfig::new(6, 6, noc_types::Topology::Mesh, 2);
    let rc = RunConfig {
        warmup: 300,
        measure: 2_000 * scale,
        drain: 0,
        period: 256,
        backlog_limit: 1 << 20,
        check: false,
        ..RunConfig::default()
    };
    // sample_every = 1: time every system cycle, so self time is measured
    // rather than extrapolated and coverage vs. wall is tight.
    let mut e = SimBuilder::new(cfg)
        .engine(EngineKind::Seq)
        .profile(1)
        .try_build()?;
    let r = run_fig1_point(&mut *e, 0.10, 7, &rc)?;
    let sim_wall = r
        .profile
        .iter()
        .find(|p| p.0 == "simulate")
        .map(|p| p.1.as_secs_f64())
        .unwrap_or(0.0);
    let prof = e.take_profile(sim_wall).ok_or_else(|| {
        SimError::Config("sequential engine produced no kernel profile".to_string())
    })?;
    std::fs::write(path, prof.to_json())
        .map_err(|e| SimError::Config(format!("writing {}: {e}", path.display())))?;
    let folded_path = path.with_extension("folded");
    let folded = prof.collapsed();
    std::fs::write(&folded_path, &folded)
        .map_err(|e| SimError::Config(format!("writing {}: {e}", folded_path.display())))?;

    println!("## simprof — kernel hotspots (6x6 mesh, BE 0.10 + GT, profiler on)\n");
    let total = prof.self_ns_total();
    println!("| rank | scc | block | self | evals | hbr retries | share |");
    println!("|---|---|---|---|---|---|---|");
    for (rank, b) in prof.hotspots(10).iter().enumerate() {
        println!(
            "| {} | {}{} | {} | {:.2} ms | {} | {} | {:.1} % |",
            rank + 1,
            b.scc,
            if b.fixed_point { "*" } else { "" },
            b.name,
            b.self_ns as f64 / 1e6,
            b.evals,
            b.hbr_retries,
            if total > 0 {
                100.0 * b.self_ns as f64 / total as f64
            } else {
                0.0
            }
        );
    }
    for s in &prof.sccs {
        println!(
            "\nscc {}: {} blocks, convergence bound {}, worst consumption {}, {} hbr retries",
            s.scc, s.blocks, s.bound, s.consumed_max, s.hbr_retries
        );
    }
    let coverage = if sim_wall > 0.0 {
        total as f64 / (sim_wall * 1e9)
    } else {
        0.0
    };
    println!(
        "\nself-time coverage of the simulate phase: {:.1} % ({:.2} ms of {:.2} ms)",
        coverage * 100.0,
        total as f64 / 1e6,
        sim_wall * 1e3
    );
    assert!(
        (0.5..=1.1).contains(&coverage),
        "profiled self time ({:.1} %) should account for the simulate wall clock",
        coverage * 100.0
    );
    assert!(
        folded
            .lines()
            .all(|l| l.rsplit_once(' ').is_some_and(
                |(stack, v)| stack.split(';').count() == 3 && v.parse::<u64>().is_ok()
            )),
        "flamegraph text must be well-formed collapsed stacks"
    );
    eprintln!(
        "profile: {} | flame: {} ({} stacks)",
        path.display(),
        folded_path.display(),
        folded.lines().count()
    );
    println!();
    Ok(())
}

/// Replay one fault plan on all five engines and prove bit-identity.
fn fault_differential(seed: u64) -> Result<(), SimError> {
    let cfg = NetworkConfig::new(4, 4, noc_types::Topology::Torus, 4);
    let cycles = 800u64;
    let plan = Arc::new(noc::random_plan(&cfg, seed, cycles));
    println!("## Fault injection — five-engine differential (plan seed {seed})\n");
    println!("```\n{}```\n", plan.describe());
    let tcfg = traffic::TrafficConfig {
        net: cfg,
        be: traffic::BeConfig::fig1(0.10),
        gt_streams: Vec::new(),
        seed: 42,
    };
    let kinds = [
        EngineKind::Native,
        EngineKind::Seq,
        EngineKind::SeqCompiled,
        EngineKind::CycleSim,
        EngineKind::Rtl,
    ];
    let mut reference: Option<noc::diff::Trace> = None;
    println!("| engine | delivered flits | bit-identical |");
    println!("|---|---|---|");
    for kind in kinds {
        let mut e = soc_sim::sim(cfg)
            .engine(kind)
            .faults(plan.clone())
            .try_build()?;
        let t = collect_trace(e.as_mut(), &tcfg, cycles, 128);
        let delivered: usize = t.delivered.iter().map(Vec::len).sum();
        match reference.as_ref() {
            None => {
                println!("| {} | {delivered} | (reference) |", kind.id());
                reference = Some(t);
            }
            Some(r) => {
                if *r != t {
                    // assert_traces_equal pinpoints the first divergence.
                    assert_traces_equal("native", r, kind.id(), &t);
                }
                println!("| {} | {delivered} | yes |", kind.id());
            }
        }
    }
    println!("\nall five engines replayed the faulty run bit-identically\n");
    Ok(())
}

fn real_main() -> Result<(), SimError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_args(&args)?;
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let trace_path = flag_path(&args, "--trace")?;
    let metrics_path = flag_path(&args, "--metrics")?;
    let faults_seed = flag_u64(&args, "--faults")?;
    let profile_path = flag_path(&args, "--profile")?;
    let checkpoint_dir = flag_path(&args, "--checkpoint-dir")?;
    let checkpoint_every = flag_u64(&args, "--checkpoint-every")?.unwrap_or(1024);
    let resume = args.iter().any(|a| a == "--resume");
    if resume && checkpoint_dir.is_none() {
        return Err(SimError::Config(
            "--resume needs --checkpoint-dir DIR to resume from".to_string(),
        ));
    }
    let scale = if quick { 1 } else { 3 };
    let cfg = NetworkConfig::fig1();
    let icfg = IfaceConfig::default();
    println!("# Reproduction summary (auto-generated by `cargo run --bin experiments`)\n");

    // ---- Figure 1 ----
    let rc = RunConfig {
        warmup: 1_000 * scale,
        measure: 6_000 * scale,
        drain: 2_000 * scale,
        period: 512,
        backlog_limit: 16_384,
        obs: None,
        check,
        ..RunConfig::default()
    };
    let guarantee = fig1_guarantee(cfg);
    let loads = [0.0f64, 0.04, 0.08, 0.11, 0.14];
    let raw = par_map(loads.to_vec(), |l| {
        let mut e = match SimBuilder::new(cfg)
            .iface(icfg)
            .engine(EngineKind::Native)
            .try_build()
        {
            Ok(e) => e,
            Err(err) => return (l, Err(err)),
        };
        (l, run_fig1_point(&mut *e, l, 1337, &rc))
    });
    let mut points: Vec<(f64, noc::RunReport)> = Vec::with_capacity(raw.len());
    for (l, r) in raw {
        points.push((l, r?));
    }
    println!("## Figure 1 — GT/BE latency vs BE load (6x6 torus, depth 2)\n");
    println!("| BE load | guarantee | GT mean | GT max | BE mean |");
    println!("|---|---|---|---|---|");
    let mut gt_max_ok = true;
    for (l, r) in &points {
        gt_max_ok &= r.gt.max <= guarantee;
        println!(
            "| {l:.2} | {guarantee} | {:.1} | {} | {:.1} |",
            r.gt.mean, r.gt.max, r.be.mean
        );
    }
    println!("\nGT max <= guarantee at every point: **{gt_max_ok}**\n");
    assert!(gt_max_ok);
    if check {
        let audits: u64 = points.iter().map(|(_, r)| r.invariant_checks).sum();
        println!("invariant checker: {audits} audits across the sweep, zero violations\n");
    }

    // ---- Table 1 ----
    let l4 = RegisterLayout::new(4);
    println!("## Table 1 — registers per router (depth 4)\n");
    println!("| group | this repo | paper |");
    println!("|---|---|---|");
    for (g, p) in l4.groups().iter().zip(RegisterLayout::paper_groups()) {
        println!("| {} | {} | {} |", g.name, g.bits, p.bits);
    }
    println!("| total | {} | 2112 |\n", l4.total_bits());

    // ---- Table 2 ----
    let model = ResourceModel::paper_build();
    let dev = FpgaDevice::virtex2_8000();
    let (clb, ram) = model.totals();
    println!("## Table 2 — FPGA resources (256 routers)\n");
    println!(
        "model: {clb} CLB ({:.0} %), {ram} BRAM ({:.0} %) — paper: 7053 (15 %), 139 (82 %)",
        100.0 * clb as f64 / dev.slices as f64,
        100.0 * ram as f64 / dev.brams as f64
    );
    println!(
        "direct instantiation max: {} routers at 6-bit datapath (paper ~24); sequential: {}\n",
        model.max_direct_routers(&dev, 6),
        model.max_sequential_routers(&dev)
    );

    // ---- Table 3 + §6 ----
    let timing = FpgaTimingModel::default();
    let params = PhaseParams::default();
    // Observe the sequential run when either output was requested.
    let obs_cfg = (trace_path.is_some() || metrics_path.is_some())
        .then(|| ObsConfig::with(Registry::new(), Tracer::new(), 64));
    let mut rc_seq = RunConfig::new()
        .warmup(300)
        .measure(1_500 * scale)
        .drain(0)
        .period(256)
        .backlog_limit(1 << 20)
        .check(check);
    if let Some(obs) = obs_cfg.clone() {
        rc_seq = rc_seq.obs(obs);
    }
    if let Some(dir) = checkpoint_dir.as_ref() {
        rc_seq = rc_seq
            .with_checkpoint(noc::CheckpointConfig::new(checkpoint_every, dir.clone()))
            .resume(resume);
    }
    let mut seq = SimBuilder::new(cfg)
        .iface(icfg)
        .engine(EngineKind::Seq)
        .run_config(rc_seq)
        .session()?;
    let r = {
        let mut alloc = traffic::GtAllocator::new(cfg);
        let gt_streams = alloc.auto_streams((2, 1), 2048, 128);
        let tcfg = traffic::TrafficConfig {
            net: cfg,
            be: traffic::BeConfig::fig1(0.10),
            gt_streams,
            seed: 7,
        };
        let mut gen = traffic::StimuliGenerator::new(tcfg);
        seq.run(&mut gen)?.clone()
    };
    if let Some(dir) = checkpoint_dir.as_ref() {
        match r.resumed_at {
            Some(cycle) => eprintln!(
                "checkpoints: resumed from cycle {cycle}, wrote {} more into {}",
                r.checkpoints_written,
                dir.display()
            ),
            None => eprintln!(
                "checkpoints: wrote {} into {}",
                r.checkpoints_written,
                dir.display()
            ),
        }
    }
    if let (Some(p), Some(obs)) = (trace_path.as_ref(), obs_cfg.as_ref()) {
        obs.tracer
            .write_chrome(p)
            .map_err(|e| SimError::Config(format!("writing trace {}: {e}", p.display())))?;
        eprintln!("trace: {} events -> {}", obs.tracer.len(), p.display());
    }
    if let (Some(p), Some(obs)) = (metrics_path.as_ref(), obs_cfg.as_ref()) {
        obs.registry
            .write_snapshot(p)
            .map_err(|e| SimError::Config(format!("writing metrics {}: {e}", p.display())))?;
        eprintln!("metrics: {} series -> {}", obs.registry.len(), p.display());
    }
    let Some(d) = r.delta.clone() else {
        return Err(SimError::Config(
            "sequential engine reported no delta-cycle statistics".to_string(),
        ));
    };
    println!("## Table 3 — simulated cycles per second (modelled FPGA rows)\n");
    println!(
        "| FPGA avg | FPGA fastest | theoretical max | paper |\n|---|---|---|---|\n| {:.1} kHz | {:.1} kHz | {:.1} kHz | 22 / 61.6 / 91.6 kHz |",
        params.table3_fpga_average(&timing) / 1e3,
        params.table3_fpga_fastest(&timing) / 1e3,
        timing.max_sim_freq_hz(36.0) / 1e3
    );
    println!(
        "\nspeed-up vs the paper's SystemC (215 Hz): {:.0}x average, {:.0}x fastest (paper claims 80-300x)\n",
        params.table3_fpga_average(&timing) / 215.0,
        params.table3_fpga_fastest(&timing) / 215.0
    );
    println!("## §6 — delta-cycle overhead\n");
    println!(
        "measured at BE 0.10 + GT: {:.1} deltas/cycle (min 36), extra = {:.1} % = {:.2}x the offered load ({:.3})\n",
        d.avg_deltas_per_cycle(),
        d.extra_fraction(36) * 100.0,
        d.extra_fraction(36) / r.throughput.offered_load(),
        r.throughput.offered_load()
    );

    // ---- Table 4 ----
    println!("## Table 4 — phase shares (model)\n");
    println!("| scenario | generate | load | simulate | retrieve | analyse |");
    println!("|---|---|---|---|---|---|");
    for (name, sc) in [
        ("light", Scenario::grid6x6(0.05, false)),
        ("heavy", Scenario::grid6x6(0.14, true)),
    ] {
        let s = params.evaluate(&timing, &sc).shares();
        println!(
            "| {name} | {:.0} % | {:.0} % | {:.0} % | {:.0} % | {:.0} % |",
            s[0] * 100.0,
            s[1] * 100.0,
            s[2] * 100.0,
            s[3] * 100.0,
            s[4] * 100.0
        );
    }
    println!("\npaper ranges: 45-65 / 10-20 / 0-2 / 5-15 / 5-40 %\n");

    // ---- §8 RNG ablation ----
    let hw = Scenario::grid6x6(0.10, false);
    let sw = Scenario {
        soft_rng: true,
        ..hw
    };
    println!("## §8 — RNG offload\n");
    println!(
        "modelled speed-up from the FPGA RNG: {:.0} % (paper: ~50 %)\n",
        (params.evaluate(&timing, &hw).cps() / params.evaluate(&timing, &sw).cps() - 1.0) * 100.0
    );

    // ---- Fault-injection differential (opt-in) ----
    if let Some(seed) = faults_seed {
        fault_differential(seed)?;
    }

    // ---- Kernel profile (opt-in) ----
    if let Some(path) = profile_path.as_ref() {
        profile_hotspots(quick, path)?;
    }

    println!("done — all headline claims verified in this run.");
    Ok(())
}

fn main() {
    if let Err(e) = real_main() {
        eprintln!("experiments failed: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_and_incomplete_arguments_are_refused() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(check_args(&args(&["--quick", "--check", "--faults", "2007"])).is_ok());
        for (bad, named) in [
            (&["--quick", "--chek"][..], "--chek"),
            (&["--all-topologies"], "--all-topologies"),
            (&["--quick", "extra"], "extra"),
            (&["--quick", "--profile"], "--profile"),
        ] {
            let err = check_args(&args(bad)).expect_err("refused");
            assert!(
                matches!(&err, SimError::Config(m) if m.contains(named)),
                "{bad:?}: {err}"
            );
        }
    }
}
