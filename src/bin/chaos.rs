//! Chaos harness: inject real failures into real campaigns and assert
//! the resilience layer recovers — bit-identically.
//!
//! ```text
//! cargo run --release --bin chaos -- [--dir DIR]
//! ```
//!
//! Three scenarios run back to back, each against a clean baseline of the
//! same campaign:
//!
//! 1. **panic** — [`ChaosConfig::panic_at`] crashes the runner mid
//!    simulate phase; the supervisor catches the panic at the thread
//!    boundary and retries from the newest checkpoint.
//! 2. **hang** — [`ChaosConfig::hang_at`] wedges the runner; the
//!    heartbeat watchdog declares a stall, cancels the run and retries
//!    from the newest checkpoint.
//! 3. **corrupt checkpoint** — the newest checkpoint file is bit-flipped
//!    on disk; resume skips it with a warning and falls back to the
//!    previous cut, still bit-identical.
//!
//! Recovery bookkeeping is published as `recover.*` counters into a
//! [`Registry`] and printed as a metrics snapshot at the end — the same
//! series the runner and supervisor feed in instrumented runs. Artifacts
//! (checkpoint directories, the summary JSON) land under `--dir`
//! (default: a fresh directory under the system temp dir) so CI can
//! upload them. Exits non-zero when any scenario fails to recover.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use noc::{run_fig1_point, ChaosConfig, CompiledNoc, RunConfig, RunReport, SimError, Supervisor};
use noc_types::{NetworkConfig, Topology};
use simtrace::Registry;
use std::path::{Path, PathBuf};
use std::time::Duration;
use vc_router::IfaceConfig;

const LOAD: f64 = 0.10;
const SEED: u64 = 77;

fn net() -> NetworkConfig {
    NetworkConfig::new(4, 4, Topology::Torus, 2)
}

/// 1000-cycle campaign in periods of 128; checkpoint cadence 256 cuts at
/// cycles 256, 512 and 768.
fn rc() -> RunConfig {
    RunConfig::new()
        .warmup(100)
        .measure(600)
        .drain(300)
        .period(128)
        .backlog_limit(1 << 16)
}

/// Compare every deterministic report field; returns the first mismatch.
fn check_identical(a: &RunReport, b: &RunReport) -> Result<(), String> {
    let diff = |field: &str, same: bool| {
        if same {
            Ok(())
        } else {
            Err(format!("{field} diverged"))
        }
    };
    diff("cycles", a.cycles == b.cycles)?;
    diff("saturated", a.saturated == b.saturated)?;
    diff("unmatched", a.unmatched == b.unmatched)?;
    diff("fault_anomalies", a.fault_anomalies == b.fault_anomalies)?;
    diff(
        "throughput",
        a.throughput.offered_flits == b.throughput.offered_flits
            && a.throughput.injected_flits == b.throughput.injected_flits
            && a.throughput.delivered_flits == b.throughput.delivered_flits
            && a.throughput.delivered_packets == b.throughput.delivered_packets,
    )?;
    for (kind, x, y) in [
        ("gt", &a.gt, &b.gt),
        ("be", &a.be, &b.be),
        ("access", &a.access, &b.access),
    ] {
        diff(
            kind,
            x.count == y.count
                && x.max == y.max
                && x.mean.to_bits() == y.mean.to_bits()
                && x.p99 == y.p99,
        )?;
    }
    diff("delta", a.delta == b.delta)
}

/// A chaos supervisor: generous stall timings so a loaded CI box never
/// mistakes a slow-but-healthy attempt for a hang.
fn supervisor(registry: &Registry) -> Supervisor {
    let mut sup = Supervisor::new()
        .max_attempts(3)
        .backoff(Duration::from_millis(10))
        .stall_timeout(Duration::from_millis(1_500))
        .poll(Duration::from_millis(25))
        .with_registry(registry.clone());
    sup.grace = Duration::from_millis(100);
    sup
}

fn baseline() -> Result<RunReport, SimError> {
    let mut engine = CompiledNoc::new(net(), IfaceConfig::default());
    run_fig1_point(&mut engine, LOAD, SEED, &rc())
}

/// Scenario 1/2: a supervised campaign with injected chaos must recover
/// and match the clean baseline.
fn supervised_scenario(
    name: &str,
    chaos: ChaosConfig,
    expect_failure: &str,
    dir: &Path,
    registry: &Registry,
    clean: &RunReport,
) -> Result<String, String> {
    let cfg = net();
    let rc_chaos = rc().checkpoint_every(256, dir).chaos(chaos);
    let out = supervisor(registry)
        .run_campaign(&rc_chaos, move |rc| {
            let mut engine = CompiledNoc::new(cfg, IfaceConfig::default());
            run_fig1_point(&mut engine, LOAD, SEED, &rc)
        })
        .map_err(|e| format!("{name}: campaign did not recover: {e}"))?;
    registry
        .counter(simtrace::recover::CHECKPOINTS_WRITTEN, &[])
        .add(out.report.checkpoints_written);
    if out.attempts != 2 {
        return Err(format!(
            "{name}: expected 2 attempts, took {}",
            out.attempts
        ));
    }
    if !out.failures[0].to_lowercase().contains(expect_failure) {
        return Err(format!(
            "{name}: failure history {:?} does not mention `{expect_failure}`",
            out.failures
        ));
    }
    let resumed_at = out
        .report
        .resumed_at
        .ok_or_else(|| format!("{name}: retry did not resume from a checkpoint"))?;
    check_identical(&out.report, clean).map_err(|e| format!("{name}: {e}"))?;
    Ok(format!(
        "{name}: recovered in {} attempts (resumed at cycle {resumed_at}), bit-identical",
        out.attempts
    ))
}

/// Scenario 3: a bit-flipped newest checkpoint is skipped; resume falls
/// back to the previous cut and still matches the baseline.
fn corrupt_checkpoint_scenario(
    dir: &Path,
    registry: &Registry,
    clean: &RunReport,
) -> Result<String, String> {
    let rc_ck = rc().checkpoint_every(256, dir);
    let mut engine = CompiledNoc::new(net(), IfaceConfig::default());
    run_fig1_point(&mut engine, LOAD, SEED, &rc_ck)
        .map_err(|e| format!("corrupt-ckpt: seeding run: {e}"))?;

    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("corrupt-ckpt: reading {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "bin"))
        .collect();
    files.sort();
    let newest = files
        .last()
        .ok_or("corrupt-ckpt: no checkpoint files written")?;
    let mut data = std::fs::read(newest).map_err(|e| format!("corrupt-ckpt: read: {e}"))?;
    let mid = data.len() / 2;
    data[mid] ^= 0x10;
    std::fs::write(newest, &data).map_err(|e| format!("corrupt-ckpt: write: {e}"))?;

    let mut fresh = CompiledNoc::new(net(), IfaceConfig::default());
    let resumed = run_fig1_point(&mut fresh, LOAD, SEED, &rc_ck.resume(true))
        .map_err(|e| format!("corrupt-ckpt: resumed run: {e}"))?;
    registry
        .counter(simtrace::recover::CHECKPOINTS_REJECTED, &[])
        .inc();
    match resumed.resumed_at {
        Some(768) => Err("corrupt-ckpt: resumed from the corrupt cut".to_string()),
        Some(at) => {
            check_identical(&resumed, clean).map_err(|e| format!("corrupt-ckpt: {e}"))?;
            Ok(format!(
                "corrupt-ckpt: bit-flipped newest cut skipped, fell back to cycle {at}, \
                 bit-identical"
            ))
        }
        None => Err("corrupt-ckpt: resume found no valid fallback checkpoint".to_string()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dir = match args.iter().position(|a| a == "--dir") {
        Some(i) => PathBuf::from(
            args.get(i + 1)
                .expect("--dir requires a directory argument"),
        ),
        None => std::env::temp_dir().join(format!("socsim-chaos-{}", std::process::id())),
    };
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    let registry = Registry::new();

    println!("# chaos harness — artifacts in {}\n", dir.display());
    let clean = baseline().expect("clean baseline run");

    let results = [
        supervised_scenario(
            "panic",
            ChaosConfig::new().panic_at(400),
            "panic",
            &dir.join("panic"),
            &registry,
            &clean,
        ),
        supervised_scenario(
            "hang",
            ChaosConfig::new().hang_at(400, 5_000),
            "stall",
            &dir.join("hang"),
            &registry,
            &clean,
        ),
        corrupt_checkpoint_scenario(&dir.join("corrupt"), &registry, &clean),
    ];

    let mut failed = false;
    for r in &results {
        match r {
            Ok(msg) => println!("ok   {msg}"),
            Err(msg) => {
                failed = true;
                println!("FAIL {msg}");
            }
        }
    }

    let snapshot = registry.snapshot_json();
    println!("\n## recover.* counters\n{snapshot}");
    std::fs::write(dir.join("chaos-metrics.json"), &snapshot).expect("write metrics artifact");

    if failed {
        println!("\nchaos harness FAILED");
        std::process::exit(1);
    }
    println!("\nchaos harness passed: all scenarios recovered");
}
