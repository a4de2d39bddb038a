//! The five workloads, the three measured engines and the
//! simulated-statistics digest every campaign is checked with.

use soc_sim::noc::{ckpt, EngineKind, RunConfig, RunReport};
use soc_sim::noc_types::{NetworkConfig, Topology};
use soc_sim::stats::{LatencySummary, ThroughputCounter};
use soc_sim::traffic::{BeConfig, GtAllocator, StimuliGenerator, TrafficConfig};

/// Run extents shared by every workload (the `RunConfig` defaults the
/// repository's own Fig 1 sweeps use).
pub const WARMUP: u64 = 2_000;
pub const DRAIN: u64 = 4_000;
pub const PERIOD: u64 = 512;
const QUEUE_DEPTH: usize = 2;

/// `--seconds` value at which `Workload::measure` applies unscaled; it is
/// also `run_seconds` in BENCHMARK.json. Other values scale `measure`
/// linearly — never the repeat count.
pub const NOMINAL_SECONDS: u64 = 15;

/// The seed the committed `expected_digest`s were recorded with.
pub const DEFAULT_SEED: u64 = 7;

/// Interleaved repeats per engine (n of every `cps.*` median).
pub const REPEATS: usize = 5;

/// Session builds behind the `setup_s` median.
pub const SETUP_BUILDS: usize = 15;

/// The engines ROADMAP item 2 keeps, in interleaving order. The label is
/// the `E` suffix of the metric names.
pub const ENGINES: [(&str, EngineKind); 3] = [
    ("native", EngineKind::Native),
    ("compiled", EngineKind::SeqCompiled),
    ("seqsim", EngineKind::Seq),
];
/// Positions in `ENGINES`.
pub const NATIVE: usize = 0;
pub const COMPILED: usize = 1;
pub const SEQSIM: usize = 2;

/// One benchmark workload. Why each exists is recorded in
/// `BENCHMARK.json` and `README.md`.
pub struct Workload {
    pub name: &'static str,
    /// Torus side length (the network is `side × side`).
    pub side: u8,
    /// Allocate the Fig 1 GT streams.
    pub gt: bool,
    /// Offered BE load in flits/cycle/node.
    pub be_load: f64,
    /// Measured cycles at `NOMINAL_SECONDS`.
    pub measure: u64,
    /// Run with `RunConfig::check(true)` (stepped + audited path).
    pub check: bool,
    /// Digest of the simulated statistics at `DEFAULT_SEED` and the
    /// unscaled `measure`.
    pub expected_digest: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "fig1_6x6",
        side: 6,
        gt: true,
        be_load: 0.10,
        measure: 60_000,
        check: false,
        expected_digest: "7f7ea2cf291cd350",
    },
    Workload {
        name: "idle_6x6",
        side: 6,
        gt: false,
        be_load: 0.0,
        measure: 200_000,
        check: false,
        expected_digest: "f3bfb5a557ebd248",
    },
    Workload {
        name: "heavy_6x6",
        side: 6,
        gt: true,
        be_load: 0.20,
        measure: 50_000,
        check: false,
        expected_digest: "b673aca060d710cf",
    },
    Workload {
        name: "max_16x16",
        side: 16,
        gt: true,
        be_load: 0.04,
        measure: 10_000,
        check: false,
        expected_digest: "3470ac71e382b6a2",
    },
    Workload {
        name: "checked_6x6",
        side: 6,
        gt: true,
        be_load: 0.10,
        measure: 10_000,
        check: true,
        expected_digest: "7c3dd2e6e351b26d",
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn net(&self) -> NetworkConfig {
        NetworkConfig::new(self.side, self.side, Topology::Torus, QUEUE_DEPTH)
    }

    pub fn run_config(&self, measure: u64) -> RunConfig {
        RunConfig::new()
            .warmup(WARMUP)
            .measure(measure)
            .drain(DRAIN)
            .period(PERIOD)
            .check(self.check)
    }

    /// The stimuli source — the only thing the simulator sees of `seed`.
    /// Built exactly as `Session::run_fig1` builds its generator.
    pub fn generator(&self, seed: u64) -> StimuliGenerator {
        let net = self.net();
        let gt_streams = if self.gt {
            GtAllocator::new(net).auto_streams((2, 1), 2048, 128)
        } else {
            Vec::new()
        };
        StimuliGenerator::new(TrafficConfig {
            net,
            be: BeConfig::fig1(self.be_load),
            gt_streams,
            seed,
        })
    }
}

/// FNV-1a digest over every simulated statistic a campaign reports. A
/// change that only speeds the simulator up must leave it unchanged.
pub fn digest(
    cycles: u64,
    tp: &ThroughputCounter,
    gt: &LatencySummary,
    be: &LatencySummary,
    access: &LatencySummary,
) -> String {
    let mut s = format!(
        "{cycles}|{}|{}|{}|{}|{}|{}|{}",
        tp.offered_flits,
        tp.injected_flits,
        tp.delivered_flits,
        tp.delivered_packets,
        tp.cycles,
        tp.gen_cycles,
        tp.nodes
    );
    for l in [gt, be, access] {
        s.push_str(&format!(
            "|{}|{:016x}|{}|{}|{}|{}|{}",
            l.count,
            l.mean.to_bits(),
            l.min,
            l.max,
            l.p50,
            l.p90,
            l.p99
        ));
    }
    format!("{:016x}", ckpt::fingerprint(&s))
}

pub fn report_digest(r: &RunReport) -> String {
    digest(r.cycles, &r.throughput, &r.gt, &r.be, &r.access)
}
