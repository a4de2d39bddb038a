//! The repository's campaign benchmark — see `benchmark/README.md`.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! benchmark merge [DIR]
//! benchmark compare A.json B.json [BENCHMARK.json]
//! ```
//!
//! A `--workload` run is one process: closed loop, one thread, one
//! campaign at a time. It measures set-up, then runs the three engines
//! interleaved for `REPEATS` untraced campaigns each through
//! `Session::run`, checks every campaign's simulated statistics, and —
//! with `--trace 1` — drives one more campaign per engine itself with a
//! span around every layer call. The last stdout line is the result
//! object of the benchmark contract; the full document goes to
//! `benchmark/out/result.NAME.json`.

mod micro;
mod report;
mod summary;
mod trace;
mod traced;
mod workload;

use report::{Metric, Outcome};
use soc_sim::noc::{EngineKind, RunReport};
use soc_sim::platform::FpgaTimingModel;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use summary::Summary;
use trace::Trace;
use workload::{
    report_digest, Workload, COMPILED, DEFAULT_SEED, ENGINES, NATIVE, NOMINAL_SECONDS, REPEATS,
    SEQSIM, SETUP_BUILDS, WORKLOADS,
};

const OUT_DIR: &str = "benchmark/out";
/// The untraced repeats' phases, as `RunReport::profile` names them.
const PHASES: [&str; 5] = ["generate", "load", "simulate", "retrieve", "analyse"];
/// A campaign root span must be at least this covered by child spans.
const MIN_COVERAGE: f64 = 0.95;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let pass = |ok: bool| {
        if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        }
    };
    match args.first().map(String::as_str) {
        Some("merge") => {
            let dir = args.get(1).map_or(OUT_DIR, String::as_str);
            Ok(pass(!report::merge(Path::new(dir))?))
        }
        Some("compare") => {
            let [a, b] = [1, 2].map(|i| args.get(i).ok_or("compare needs A.json and B.json"));
            let bounds = args.get(3).map_or("BENCHMARK.json", String::as_str);
            Ok(pass(report::compare(
                Path::new(a?),
                Path::new(b?),
                Path::new(bounds),
            )?))
        }
        _ => {
            let opts = Options::parse(args)?;
            let outcome = run_workload(&opts)?;
            write_out(
                &format!("result.{}.json", outcome.workload),
                &outcome.to_json(),
            )?;
            for f in &outcome.failures {
                eprintln!("benchmark: FAILED: {f}");
            }
            println!("{}", outcome.contract_line(opts.trace));
            Ok(ExitCode::SUCCESS)
        }
    }
}

/// Write one file into the output directory.
fn write_out(name: &str, contents: &str) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join(name);
    std::fs::write(&path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

struct Options {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            workload: &WORKLOADS[0],
            seed: DEFAULT_SEED,
            seconds: NOMINAL_SECONDS,
            trace: false,
            quick: false,
        };
        let mut named = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            let number = |v: &String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    o.workload = Workload::by_name(v).ok_or(format!("unknown workload {v}"))?;
                    named = true;
                }
                "--seed" => o.seed = number(value()?)?,
                "--seconds" => o.seconds = number(value()?)?.max(1),
                "--trace" => o.trace = number(value()?)? != 0,
                "--quick" => o.quick = true,
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        if !named {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("--workload is required: {}", names.join(", ")));
        }
        Ok(o)
    }

    /// `--seconds` and `--quick` scale the measured cycles, never the
    /// repeat count of a full run.
    fn measure(&self) -> u64 {
        let scaled = self.workload.measure * self.seconds / NOMINAL_SECONDS;
        (if self.quick { scaled / 10 } else { scaled }).max(workload::PERIOD)
    }

    fn repeats(&self) -> usize {
        if self.quick {
            2
        } else {
            REPEATS
        }
    }
}

/// One untraced campaign through the public door: a fresh session and a
/// fresh generator, timed around `Session::run` alone.
fn campaign(
    w: &Workload,
    kind: EngineKind,
    seed: u64,
    measure: u64,
) -> Result<(f64, RunReport), String> {
    let mut session = soc_sim::sim(w.net())
        .engine(kind)
        .run_config(w.run_config(measure))
        .session()
        .map_err(|e| e.to_string())?;
    let mut gen = w.generator(seed);
    let started = Instant::now();
    let report = session.run(&mut gen).map_err(|e| e.to_string())?.clone();
    let wall = started.elapsed().as_secs_f64();
    if report.saturated {
        return Err("network saturated".into());
    }
    if report.unmatched > 0 {
        return Err(format!(
            "{} offered packets never delivered",
            report.unmatched
        ));
    }
    Ok((wall, report))
}

/// Median host seconds from `soc_sim::sim(cfg)` to a ready session plus
/// its stimuli generator, for the set-up-heaviest engine.
fn measure_setup(w: &Workload, seed: u64, measure: u64) -> Result<Summary, String> {
    let mut samples = Vec::with_capacity(SETUP_BUILDS);
    // One untimed build first: the process's first allocations are not
    // what a median of builds is meant to report.
    for timed in std::iter::once(false).chain(std::iter::repeat_n(true, SETUP_BUILDS)) {
        let started = Instant::now();
        let session = soc_sim::sim(w.net())
            .engine(EngineKind::SeqCompiled)
            .run_config(w.run_config(measure))
            .session();
        let gen = w.generator(seed);
        let elapsed = started.elapsed().as_secs_f64();
        session.map_err(|e| e.to_string())?;
        drop(gen);
        if timed {
            samples.push(elapsed);
        }
    }
    Ok(Summary::of(&samples))
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or("no VmHWM in /proc/self/status".into())
}

fn run_workload(opts: &Options) -> Result<Outcome, String> {
    let w = opts.workload;
    let (seed, measure) = (opts.seed, opts.measure());
    let committed = seed == DEFAULT_SEED && measure == w.measure;
    let mut failures: Vec<String> = Vec::new();

    let calib_ns = micro::calibrate();
    let setup = measure_setup(w, seed, measure)?;
    let reps = untraced_repeats(opts, committed, &mut failures)?;
    let peak_rss = peak_rss_mb()?;
    let mut ops = (opts.repeats() * ENGINES.len()) as u64;

    let mut end_to_end = Vec::new();
    for ((label, _), r) in ENGINES.iter().zip(&reps) {
        end_to_end.push(Metric::new(
            format!("cps.{label}"),
            "1/s",
            Summary::of(&r.cps),
        ));
    }
    let deltas_per_cycle = reps[SEQSIM]
        .report
        .delta
        .as_ref()
        .map_or(0.0, |d| d.avg_deltas_per_cycle());
    end_to_end.push(Metric::new("setup_s", "s", setup));
    end_to_end.push(Metric::exact("peak_rss_mb", "MB", peak_rss));
    end_to_end.push(Metric::exact(
        "fpga_model_cps",
        "1/s",
        FpgaTimingModel::default().max_sim_freq_hz(deltas_per_cycle),
    ));

    let mut per_layer = Vec::new();
    if opts.trace {
        ops += ENGINES.len() as u64;
        per_layer = traced_pass(w, seed, measure, &reps, &mut failures)?;
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        per_layer.push(Metric::exact("host.nproc", "count", nproc as f64));
        per_layer.push(Metric::exact("host.calib_ns", "ns", calib_ns));
    }

    Ok(Outcome {
        workload: w.name,
        seed,
        measure,
        digest: report_digest(&reps[NATIVE].report),
        digest_committed: committed,
        ops,
        failures,
        end_to_end,
        per_layer,
    })
}

/// Per-engine samples of the untraced repeats.
struct Repeats {
    wall_s: Vec<f64>,
    cps: Vec<f64>,
    phase_s: [Vec<f64>; PHASES.len()],
    accounted: Vec<f64>,
    /// The last clean report (simulated statistics repeat exactly).
    report: RunReport,
}

/// The end-to-end measurement: the engines interleaved, `repeats` clean
/// campaigns wanted from each. A failed campaign is recorded in
/// `failures` and contributes no sample.
fn untraced_repeats(
    opts: &Options,
    committed: bool,
    failures: &mut Vec<String>,
) -> Result<Vec<Repeats>, String> {
    let w = opts.workload;
    let mut samples: [(Vec<f64>, Vec<RunReport>); ENGINES.len()] = Default::default();
    for repeat in 0..opts.repeats() {
        let mut native_digest = None;
        for ((label, kind), (walls, reports)) in ENGINES.iter().zip(&mut samples) {
            let (wall, report) = match campaign(w, *kind, opts.seed, opts.measure()) {
                Ok(done) => done,
                Err(why) => {
                    failures.push(format!("{}/{label} repeat {repeat}: {why}", w.name));
                    continue;
                }
            };
            // The sheet's rule: every simulated statistic identical to
            // the golden model's, and to the committed digest where one
            // applies.
            let digest = report_digest(&report);
            let golden = native_digest.get_or_insert_with(|| digest.clone());
            if digest != *golden || (committed && digest != w.expected_digest) {
                failures.push(format!(
                    "{}/{label} repeat {repeat}: statistics digest {digest}, native {golden}, \
                     committed {}",
                    w.name,
                    if committed { w.expected_digest } else { "n/a" }
                ));
                continue;
            }
            walls.push(wall);
            reports.push(report);
        }
    }
    ENGINES
        .iter()
        .zip(samples)
        .map(|((label, _), (wall_s, reports))| {
            let phase_of = |r: &RunReport, phase: &str| {
                let row = r.profile.iter().find(|p| p.0 == phase);
                row.map_or(0.0, |p| p.1.as_secs_f64())
            };
            let phase_s = PHASES.map(|phase| reports.iter().map(|r| phase_of(r, phase)).collect());
            let accounted = (reports.iter().zip(&wall_s))
                .map(|(r, wall)| PHASES.iter().map(|p| phase_of(r, p)).sum::<f64>() / wall)
                .collect();
            let cps = (reports.iter().zip(&wall_s))
                .map(|(r, wall)| r.cycles as f64 / wall)
                .collect();
            let report = reports
                .into_iter()
                .last()
                .ok_or_else(|| format!("no clean {label} campaign on {}: {failures:?}", w.name))?;
            Ok(Repeats {
                wall_s,
                cps,
                phase_s,
                accounted,
                report,
            })
        })
        .collect()
}

/// The per-layer measurement: phase shares of the untraced repeats, the
/// set-up layers, one harness-driven campaign per engine, the router
/// micro-timings. Writes the trace file.
fn traced_pass(
    w: &Workload,
    seed: u64,
    measure: u64,
    reps: &[Repeats],
    failures: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    for ((label, _), r) in ENGINES.iter().zip(reps) {
        for (samples, phase) in r.phase_s.iter().zip(PHASES) {
            let name = format!("noc.phase.{phase}_s.{label}");
            out.push(Metric::new(name, "s", Summary::of(samples)));
        }
        let name = format!("noc.phase.accounted_frac.{label}");
        out.push(Metric::new(name, "ratio", Summary::of(&r.accounted)));
    }

    let mut tr = Trace::new();
    tr.start_run(format!("{}/setup/{seed}", w.name));
    let layers = micro::setup_layers(w, &mut tr);
    let nodes = w.net().num_nodes() as f64;
    let per = |total_s: f64, n: f64| if n > 0.0 { total_s * 1e9 / n } else { 0.0 };
    let mut counts: Vec<(String, f64)> = Vec::new();
    let (mut generate_s, mut analyse_s, mut offered, mut delivered) = (0.0, 0.0, 0u64, 0u64);
    for (e, ((label, kind), r)) in ENGINES.iter().zip(reps).enumerate() {
        tr.start_run(format!("{}/{label}/{seed}", w.name));
        let run = match traced::traced_campaign(w, *kind, seed, measure, &mut tr) {
            Ok(run) => run,
            Err(why) => {
                failures.push(format!("{}/{label} traced: {why}", w.name));
                continue;
            }
        };
        // The trace is only worth reading if the harness-driven loop did
        // the same work as `Session::run` and its spans account for the
        // campaign.
        let untraced = report_digest(&r.report);
        let coverage = tr.coverage(run.root);
        if run.digest != untraced || run.saturated || run.unmatched > 0 {
            failures.push(format!(
                "{}/{label} traced: invalid trace, digest {} vs Session::run {untraced}",
                w.name, run.digest
            ));
        } else if coverage < MIN_COVERAGE {
            failures.push(format!(
                "{}/{label} traced: spans cover {coverage:.3} of the campaign",
                w.name
            ));
        }
        // The checkpoint probe is extra work, not tracing overhead.
        let wall =
            tr.spans[run.root].dur_ns() as f64 * 1e-9 - (run.save_state_s + run.load_state_s);
        let cycles = run.cycles as f64;
        generate_s += tr.total_s("traffic.generate");
        analyse_s += tr.total_s("stats.analyse");
        offered += run.offered_flits;
        delivered += run.delivered_flits;
        for (name, unit, v) in [
            (
                "noc.push_stim_ns",
                "ns",
                per(tr.total_s("noc.load"), run.stim_pushed as f64),
            ),
            (
                "noc.drain_ns_per_node",
                "ns",
                per(tr.total_s("noc.retrieve"), run.periods as f64 * nodes),
            ),
            ("noc.try_run_ns_per_cycle", "ns", per(run.try_run_s, cycles)),
            (
                "noc.try_step_ns_per_cycle",
                "ns",
                per(run.try_step_s, cycles),
            ),
            (
                "noc.check_bounds_ns_per_cycle",
                "ns",
                per(run.check_bounds_s, cycles),
            ),
            (
                "trace.overhead_frac",
                "ratio",
                wall / Summary::of(&r.wall_s).median - 1.0,
            ),
        ] {
            out.push(Metric::exact(format!("{name}.{label}"), unit, v));
        }
        if let Some(d) = run.delta.as_ref() {
            let dpc = d.avg_deltas_per_cycle();
            let ns = per(tr.total_s("noc.simulate"), cycles * dpc);
            out.push(Metric::exact(
                format!("seqsim.deltas_per_cycle.{label}"),
                "count",
                dpc,
            ));
            out.push(Metric::exact(
                format!("seqsim.ns_per_delta.{label}"),
                "ns",
                ns,
            ));
            if e == SEQSIM {
                let re = d.re_evaluations as f64;
                out.push(Metric::exact("seqsim.re_evaluations", "count", re));
            }
        }
        // `native` has no checkpoint support; nothing to report there.
        if run.state_bytes > 0 {
            for (name, unit, v) in [
                ("noc.save_state_s", "s", run.save_state_s),
                ("noc.load_state_s", "s", run.load_state_s),
                ("noc.state_bytes", "B", run.state_bytes as f64),
            ] {
                out.push(Metric::exact(format!("{name}.{label}"), unit, v));
            }
        }
        for (name, v) in [
            ("stim_pushed", run.stim_pushed),
            ("stim_refused", run.stim_refused),
            ("delivered_flits", run.delivered_flits),
            ("offered_flits", run.offered_flits),
            ("periods", run.periods),
            ("cycles", run.cycles),
        ] {
            counts.push((format!("{label}.{name}"), v as f64));
        }
        // Every engine moves the same flits (the digests agree), so the
        // golden model's counts stand for all three.
        if e == NATIVE {
            for (name, v) in [
                ("noc.stim_pushed", run.stim_pushed),
                ("noc.stim_refused", run.stim_refused),
                ("noc.delivered_flits", run.delivered_flits),
                ("traffic.offered_flits", run.offered_flits),
            ] {
                out.push(Metric::exact(name, "count", v as f64));
            }
        }
    }

    let router = micro::router_micro(w, seed);
    let cps = |e: usize| Summary::of(&reps[e].cps).median;
    for (name, unit, v) in [
        (
            "traffic.generate_ns_per_flit",
            "ns",
            per(generate_s, offered as f64),
        ),
        (
            "stats.analyse_ns_per_flit",
            "ns",
            per(analyse_s, delivered as f64),
        ),
        ("seqsim.compile_s", "s", layers.compile_s),
        ("seqsim.program_ops", "count", layers.program_ops as f64),
        ("seqsim.arena_words", "words", layers.arena_words as f64),
        ("speccheck.analyze_s", "s", layers.analyze_s),
        ("speccheck.diagnostics", "count", layers.diagnostics as f64),
        ("router.comb_select_ns", "ns", router.comb_select_ns),
        ("router.unpack_ns", "ns", router.unpack_ns),
        ("router.pack_ns", "ns", router.pack_ns),
        ("router.quiescent_frac", "ratio", router.quiescent_frac),
        ("rel_native.compiled", "ratio", cps(COMPILED) / cps(NATIVE)),
        ("rel_native.seqsim", "ratio", cps(SEQSIM) / cps(NATIVE)),
    ] {
        out.push(Metric::exact(name, unit, v));
    }

    write_out(
        &format!("trace.{}.json", w.name),
        &tr.to_json(w.name, seed, &counts),
    )?;
    Ok(out)
}
