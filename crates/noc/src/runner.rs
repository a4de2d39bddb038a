//! The five-phase simulation loop (paper §5.3).
//!
//! "After all routes are determined, a loop is started that has five
//! phases. 1) generating the traffic for each node in a stimuli table [...]
//! 2) The generated stimuli have to be written into the input buffers [...]
//! 3) After filling the buffers we start the simulation [...] and evaluate
//! x system cycles [...] 4) After a single simulation period, we have to
//! empty the output buffers [...] 5) After the data is retrieved [...] it
//! is analyzed and the desired statistics are stored."
//!
//! The loop also reproduces the paper's back-pressure handling: stimuli
//! that do not fit in the rings stay in a host-side backlog and are
//! written later; a network that stops accepting traffic for too long is
//! reported as overloaded and the simulation stops (§5.3).

use crate::check::InvariantChecker;
use crate::ckpt::{self, CampaignCkpt, CheckpointConfig};
use crate::engine::NocEngine;
use crate::fault::InjectApplier;
use crate::obs::{NocObserver, ObsConfig};
use noc_types::{Coord, NetworkConfig, NodeId, Reassembler, ReceivedPacket, TrafficClass, NUM_VCS};
use seqsim::DeltaStats;
use seqsim::SimError;
use seqsim::{Dec, Enc, WireError};
use simtrace::lbl;
use stats::{LatencyStats, LatencySummary, PhaseProfiler, ThroughputCounter};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};
use traffic::{OfferedPacket, StimuliGenerator};
use vc_router::{AccEntry, OutEntry, StimEntry};

/// Runner parameters.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Warm-up cycles (excluded from statistics).
    pub warmup: u64,
    /// Measured cycles.
    pub measure: u64,
    /// Extra cycles to let in-flight packets drain after generation stops.
    pub drain: u64,
    /// Simulation period: cycles per generate/load/simulate/retrieve/
    /// analyse round (the paper fixes it to the stimuli-buffer size).
    pub period: u64,
    /// Host backlog (flits per node-VC) beyond which the network is
    /// declared overloaded and the run stops early.
    pub backlog_limit: usize,
    /// Observability: `None` runs dark (no overhead); `Some` wraps every
    /// phase in tracer spans, attaches kernel instrumentation, samples
    /// the network and snapshots metrics onto the report.
    pub obs: Option<ObsConfig>,
    /// Run the invariant checker: structural bounds audited every cycle,
    /// flit conservation audited every period. A violation aborts the
    /// run with [`SimError::InvariantViolated`].
    pub check: bool,
    /// Durable checkpointing: `Some` cuts a crash-consistent checkpoint
    /// file on the configured cadence at the quiescent point after the
    /// analyse phase, and (when [`CheckpointConfig::resume`] is set)
    /// resumes from the newest valid one instead of starting at cycle 0.
    pub checkpoint: Option<CheckpointConfig>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            warmup: 2_000,
            measure: 10_000,
            drain: 4_000,
            period: 512,
            backlog_limit: 8_192,
            obs: None,
            check: false,
            checkpoint: None,
        }
    }
}

impl RunConfig {
    /// Start from the defaults and chain the setters below:
    ///
    /// ```
    /// use noc::RunConfig;
    /// let rc = RunConfig::new().cycles(5_000).warmup(500).check(true);
    /// assert_eq!(rc.measure, 5_000);
    /// ```
    ///
    /// The struct-literal style (`RunConfig { measure: 5_000,
    /// ..Default::default() }`) keeps working; the fields stay public.
    pub fn new() -> Self {
        Self::default()
    }

    /// Warm-up cycles excluded from statistics.
    pub fn warmup(mut self, n: u64) -> Self {
        self.warmup = n;
        self
    }

    /// Measured cycles.
    pub fn measure(mut self, n: u64) -> Self {
        self.measure = n;
        self
    }

    /// Measured cycles — alias for [`measure`](Self::measure), reading
    /// better at call sites: `RunConfig::new().cycles(10_000)`.
    pub fn cycles(self, n: u64) -> Self {
        self.measure(n)
    }

    /// Drain cycles after generation stops.
    pub fn drain(mut self, n: u64) -> Self {
        self.drain = n;
        self
    }

    /// Cycles per generate/load/simulate/retrieve/analyse round.
    pub fn period(mut self, n: u64) -> Self {
        self.period = n;
        self
    }

    /// Host backlog limit before the run is declared saturated.
    pub fn backlog_limit(mut self, n: usize) -> Self {
        self.backlog_limit = n;
        self
    }

    /// Attach an observability bundle.
    pub fn obs(mut self, obs: ObsConfig) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Enable (or disable) the runtime invariant checker.
    pub fn check(mut self, on: bool) -> Self {
        self.check = on;
        self
    }

    /// Cut a durable checkpoint every `every` cycles into `dir` (keeping
    /// the newest 3 files; see [`CheckpointConfig`] for the knobs).
    pub fn checkpoint_every(mut self, every: u64, dir: impl Into<std::path::PathBuf>) -> Self {
        self.checkpoint = Some(CheckpointConfig::new(every, dir));
        self
    }

    /// Attach a fully-configured checkpoint policy.
    pub fn with_checkpoint(mut self, ck: CheckpointConfig) -> Self {
        self.checkpoint = Some(ck);
        self
    }

    /// Resume from the newest valid checkpoint (no-op without a
    /// checkpoint config, or when the directory holds none).
    pub fn resume(mut self, on: bool) -> Self {
        if let Some(c) = self.checkpoint.as_mut() {
            c.resume = on;
        }
        self
    }
}

/// Everything measured in one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Engine name.
    pub engine: &'static str,
    /// GT packet latency (generation to tail delivery).
    pub gt: LatencySummary,
    /// BE packet latency.
    pub be: LatencySummary,
    /// Access delay of injected head flits (paper's dedicated log buffer).
    pub access: LatencySummary,
    /// Traffic volumes over the measurement window.
    pub throughput: ThroughputCounter,
    /// Wall-clock share per phase (Table 4's software-side equivalent).
    pub profile: Vec<(&'static str, Duration, f64)>,
    /// Delta-cycle statistics over the measurement window (sequential
    /// engine only).
    pub delta: Option<DeltaStats>,
    /// Metrics snapshot (JSON) when the run was instrumented
    /// ([`RunConfig::obs`]); `None` for plain runs.
    pub metrics: Option<String>,
    /// The network stopped accepting the offered load.
    pub saturated: bool,
    /// Offered packets never delivered (in-flight or lost at stop).
    pub unmatched: usize,
    /// Delivery-stream anomalies tolerated because a fault plan was
    /// active (truncated worms, corrupted sequence numbers, misrouted
    /// worm continuations). Always 0 on a clean run — on a clean run the
    /// same conditions are errors, not counts.
    pub fault_anomalies: u64,
    /// Invariant audits performed (0 unless [`RunConfig::check`]).
    pub invariant_checks: u64,
    /// Flits dropped by lossy link faults per the conservation ledger
    /// (0 unless [`RunConfig::check`] and a lossy plan).
    pub fault_dropped: u64,
    /// Durable checkpoints written during this run (0 unless
    /// [`RunConfig::checkpoint`]).
    pub checkpoints_written: u64,
    /// The cycle this run resumed from, when it restarted from a
    /// checkpoint instead of cycle 0.
    pub resumed_at: Option<u64>,
    /// Total wall-clock time.
    pub wall: Duration,
    /// System cycles simulated.
    pub cycles: u64,
}

impl RunReport {
    /// Simulated clock cycles per wall-clock second — the paper's Table 3
    /// metric.
    pub fn cps(&self) -> f64 {
        self.cycles as f64 / self.wall.as_secs_f64().max(1e-12)
    }

    /// Simulated cycles per second of the *simulate phase alone*
    /// (excluding generate/load/retrieve/analyse).
    pub fn sim_cycles_per_sec(&self) -> f64 {
        self.profile
            .iter()
            .find(|p| p.0 == "simulate")
            .map(|p| self.cycles as f64 / p.1.as_secs_f64().max(1e-12))
            .unwrap_or(0.0)
    }
}

/// Phase-5 delivery analysis for one simulation: the offered-packet
/// journal, per-node worm reassembly, latency/throughput accounting and
/// the fault-anomaly ledger.
struct DeliveryAnalyzer {
    cfg: NetworkConfig,
    faulty: bool,
    warmup: u64,
    gen_end: u64,
    journal: HashMap<(u16, u16), OfferedPacket>,
    reasm: Vec<Reassembler>,
    gt: LatencyStats,
    be: LatencyStats,
    access: LatencyStats,
    tp: ThroughputCounter,
    fault_anomalies: u64,
}

/// What [`DeliveryAnalyzer::finish`] hands back for the report.
struct DeliveryOutcome {
    gt: LatencySummary,
    be: LatencySummary,
    access: LatencySummary,
    throughput: ThroughputCounter,
    fault_anomalies: u64,
    unmatched: usize,
}

impl DeliveryAnalyzer {
    fn new(cfg: NetworkConfig, faulty: bool, rc: &RunConfig) -> Self {
        let n = cfg.num_nodes();
        DeliveryAnalyzer {
            cfg,
            faulty,
            warmup: rc.warmup,
            gen_end: rc.warmup + rc.measure,
            journal: HashMap::new(),
            reasm: (0..n).map(|_| Reassembler::new()).collect(),
            gt: LatencyStats::new(),
            be: LatencyStats::new(),
            access: LatencyStats::new(),
            tp: ThroughputCounter {
                nodes: n as u64,
                ..Default::default()
            },
            fault_anomalies: 0,
        }
    }

    /// Is `ts` inside the measurement window?
    fn measured(&self, ts: u64) -> bool {
        ts >= self.warmup && ts < self.gen_end
    }

    /// Journal a generated window's offered packets.
    fn note_offered(&mut self, offered: &[OfferedPacket]) {
        for p in offered {
            self.journal.insert((p.src.0, p.seq), *p);
            if self.measured(p.ts) {
                self.tp.offered_flits += p.flits as u64;
            }
        }
    }

    /// Record drained access-delay entries.
    fn note_access(&mut self, entries: &[AccEntry]) {
        for a in entries {
            if self.measured(a.ts) {
                self.access.record(a.delay);
            }
        }
    }

    /// Reassemble one node's drained output entries, match completed
    /// packets against the journal, record latencies.
    ///
    /// On a clean run every protocol violation is an
    /// [`SimError::InvariantViolated`]; under an active fault plan the
    /// same conditions are the expected downstream signature of injected
    /// faults and are counted in the anomaly ledger instead.
    fn note_delivered(&mut self, node: usize, entries: Vec<OutEntry>) -> Result<(), SimError> {
        for e in entries {
            if let Err(violation) = self.reasm[node].try_push(e.cycle, e.vc, e.flit) {
                // Truncated worms are the expected downstream shape of a
                // dropped head or tail; on a clean run they mean a
                // router bug.
                if self.faulty {
                    self.fault_anomalies += 1;
                } else {
                    return Err(SimError::InvariantViolated {
                        cycle: e.cycle,
                        invariant: "delivery-protocol".to_string(),
                        details: format!(
                            "node {node} vc {}: {violation:?} with no fault plan active",
                            e.vc
                        ),
                    });
                }
            }
        }
        for pkt in self.reasm[node].drain_completed() {
            let seq = pkt.first_body.unwrap_or(0);
            let offered = match self.journal.remove(&(pkt.src_tag as u16, seq)) {
                Some(o) => o,
                None if self.faulty => {
                    // A corrupted sequence number or a worm spliced by a
                    // swallowed tail: unmatchable, skip it.
                    self.fault_anomalies += 1;
                    continue;
                }
                None => {
                    return Err(SimError::InvariantViolated {
                        cycle: pkt.tail_cycle,
                        invariant: "delivery-journal".to_string(),
                        details: format!(
                            "delivered packet (src {}, seq {seq}) was never offered",
                            pkt.src_tag
                        ),
                    });
                }
            };
            let dest_node = self.cfg.shape.node_id(offered.dest).index();
            if pkt.flits as u16 != offered.flits || dest_node != node {
                if self.faulty {
                    // Length or destination damaged in flight.
                    self.fault_anomalies += 1;
                    continue;
                }
                return Err(SimError::InvariantViolated {
                    cycle: pkt.tail_cycle,
                    invariant: "delivery-journal".to_string(),
                    details: format!(
                        "packet (src {}, seq {seq}): delivered {} flits at \
                         node {node}, offered {} flits to node {dest_node}",
                        pkt.src_tag, pkt.flits, offered.flits
                    ),
                });
            }
            // Volumes and latencies are attributed to the measurement
            // window by *offer* time, so delivered rates stay comparable
            // to offered rates.
            if self.measured(offered.ts) {
                self.tp.delivered_packets += 1;
                self.tp.delivered_flits += pkt.flits as u64;
                let latency = pkt.tail_cycle - offered.ts;
                match offered.class {
                    TrafficClass::GuaranteedThroughput => self.gt.record(latency),
                    TrafficClass::BestEffort => self.be.record(latency),
                }
            }
        }
        Ok(())
    }

    /// Close the books: fix the injected-flit count and the window
    /// extents, summarize the latency distributions.
    fn finish(mut self, injected_flits: u64) -> DeliveryOutcome {
        self.tp.injected_flits = injected_flits;
        self.tp.cycles = self.gen_end - self.warmup;
        self.tp.gen_cycles = self.gen_end;
        DeliveryOutcome {
            gt: self.gt.summary(),
            be: self.be.summary(),
            access: self.access.summary(),
            throughput: self.tp,
            fault_anomalies: self.fault_anomalies,
            unmatched: self.journal.len(),
        }
    }

    /// Serialize the analyzer's run state (journal, in-flight worms,
    /// latency words, throughput ledger, anomaly count) for a durable
    /// checkpoint. The config-derived fields (`cfg`, `faulty`, window
    /// extents) are rebuilt by the constructor on resume.
    fn encode(&self, e: &mut Enc) {
        let mut keys: Vec<(u16, u16)> = self.journal.keys().copied().collect();
        keys.sort_unstable();
        e.usize(keys.len());
        for k in keys {
            let p = &self.journal[&k];
            e.u64(p.ts);
            e.u16(p.src.0);
            e.u8(p.dest.x);
            e.u8(p.dest.y);
            e.u8(match p.class {
                TrafficClass::GuaranteedThroughput => 1,
                TrafficClass::BestEffort => 0,
            });
            e.u8(p.ring_vc);
            e.u16(p.flits);
            e.u16(p.seq);
        }
        e.usize(self.reasm.len());
        for r in &self.reasm {
            for slot in r.open_slots() {
                e.bool(slot.is_some());
                if let Some(pkt) = slot {
                    encode_received(e, pkt);
                }
            }
        }
        e.u64s(&self.gt.to_words());
        e.u64s(&self.be.to_words());
        e.u64s(&self.access.to_words());
        e.u64(self.tp.offered_flits);
        e.u64(self.tp.injected_flits);
        e.u64(self.tp.delivered_flits);
        e.u64(self.tp.delivered_packets);
        e.u64(self.tp.cycles);
        e.u64(self.tp.gen_cycles);
        e.u64(self.tp.nodes);
        e.u64(self.fault_anomalies);
    }

    /// Restore state captured by [`encode`](Self::encode) onto an
    /// analyzer freshly built for the same run.
    fn decode_into(&mut self, d: &mut Dec<'_>) -> Result<(), WireError> {
        self.journal.clear();
        let entries = d.usize()?;
        for _ in 0..entries {
            let ts = d.u64()?;
            let src = NodeId(d.u16()?);
            let dest = Coord::new(d.u8()?, d.u8()?);
            let class = match d.u8()? {
                1 => TrafficClass::GuaranteedThroughput,
                0 => TrafficClass::BestEffort,
                t => return Err(WireError::new(format!("unknown traffic-class tag {t}"))),
            };
            let p = OfferedPacket {
                ts,
                src,
                dest,
                class,
                ring_vc: d.u8()?,
                flits: d.u16()?,
                seq: d.u16()?,
            };
            self.journal.insert((p.src.0, p.seq), p);
        }
        let nodes = d.usize()?;
        if nodes != self.reasm.len() {
            return Err(WireError::new(format!(
                "checkpoint reassembly covers {nodes} nodes, run has {}",
                self.reasm.len()
            )));
        }
        for r in self.reasm.iter_mut() {
            let mut slots: [Option<ReceivedPacket>; NUM_VCS] = Default::default();
            for slot in slots.iter_mut() {
                if d.bool()? {
                    *slot = Some(decode_received(d)?);
                }
            }
            // Completed packets are drained every period; a cut happens
            // at the quiescent point, so the backlog is empty.
            *r = Reassembler::from_state(slots, Vec::new());
        }
        let stats = |words: Vec<u64>| {
            LatencyStats::from_words(&words)
                .ok_or_else(|| WireError::new("malformed latency-stats words"))
        };
        self.gt = stats(d.u64s()?)?;
        self.be = stats(d.u64s()?)?;
        self.access = stats(d.u64s()?)?;
        self.tp.offered_flits = d.u64()?;
        self.tp.injected_flits = d.u64()?;
        self.tp.delivered_flits = d.u64()?;
        self.tp.delivered_packets = d.u64()?;
        self.tp.cycles = d.u64()?;
        self.tp.gen_cycles = d.u64()?;
        self.tp.nodes = d.u64()?;
        self.fault_anomalies = d.u64()?;
        Ok(())
    }
}

/// Serialize one in-flight reassembly slot.
fn encode_received(e: &mut Enc, pkt: &ReceivedPacket) {
    e.u8(pkt.src_tag);
    e.u8(pkt.vc);
    e.usize(pkt.flits);
    e.bool(pkt.first_body.is_some());
    e.u16(pkt.first_body.unwrap_or(0));
    e.u32(pkt.checksum);
    e.u64(pkt.head_cycle);
    e.u64(pkt.tail_cycle);
}

/// Mirror of [`encode_received`].
fn decode_received(d: &mut Dec<'_>) -> Result<ReceivedPacket, WireError> {
    let src_tag = d.u8()?;
    let vc = d.u8()?;
    let flits = d.usize()?;
    let has_body = d.bool()?;
    let body = d.u16()?;
    Ok(ReceivedPacket {
        src_tag,
        vc,
        flits,
        first_body: has_body.then_some(body),
        checksum: d.u32()?,
        head_cycle: d.u64()?,
        tail_cycle: d.u64()?,
    })
}

/// Serialize the host side of a run: analyzer, backlog queues,
/// pushed-flit count and the optional inject applier and
/// invariant-checker ledgers.
fn encode_host_state(
    e: &mut Enc,
    an: &DeliveryAnalyzer,
    backlog: &[[VecDeque<StimEntry>; NUM_VCS]],
    pushed: u64,
    inject: Option<&InjectApplier>,
    checker: Option<&InvariantChecker>,
) {
    an.encode(e);
    e.usize(backlog.len());
    for rings in backlog {
        for q in rings {
            e.usize(q.len());
            for entry in q {
                e.u64(entry.to_bits());
            }
        }
    }
    e.u64(pushed);
    e.bool(inject.is_some());
    if let Some(ap) = inject {
        ap.encode(e);
    }
    e.bool(checker.is_some());
    if let Some(ck) = checker {
        ck.encode(e);
    }
}

/// Mirror of [`encode_host_state`]: restore onto freshly-built host
/// state for the same configuration. A mismatch between the
/// checkpoint's optional sections and the run's (fault plan present vs
/// absent, checker on vs off) is an error in both directions — it means
/// the checkpoint belongs to a differently-configured campaign.
fn decode_host_state(
    d: &mut Dec<'_>,
    an: &mut DeliveryAnalyzer,
    backlog: &mut [[VecDeque<StimEntry>; NUM_VCS]],
    pushed: &mut u64,
    inject: Option<&mut InjectApplier>,
    checker: Option<&mut InvariantChecker>,
) -> Result<(), WireError> {
    an.decode_into(d)?;
    let nodes = d.usize()?;
    if nodes != backlog.len() {
        return Err(WireError::new(format!(
            "checkpoint backlog covers {nodes} nodes, run has {}",
            backlog.len()
        )));
    }
    for rings in backlog.iter_mut() {
        for q in rings.iter_mut() {
            q.clear();
            let len = d.usize()?;
            for _ in 0..len {
                q.push_back(StimEntry::from_bits(d.u64()?));
            }
        }
    }
    *pushed = d.u64()?;
    match (d.bool()?, inject) {
        (true, Some(ap)) => ap.decode_into(d)?,
        (false, None) => {}
        (true, None) => {
            return Err(WireError::new(
                "checkpoint carries inject-applier state, run has no fault plan",
            ))
        }
        (false, Some(_)) => {
            return Err(WireError::new(
                "run has a fault plan, checkpoint carries no inject-applier state",
            ))
        }
    }
    match (d.bool()?, checker) {
        (true, Some(ck)) => ck.decode_into(d)?,
        (false, None) => {}
        (true, None) => {
            return Err(WireError::new(
                "checkpoint carries a checker ledger, run has checking off",
            ))
        }
        (false, Some(_)) => {
            return Err(WireError::new(
                "run has checking on, checkpoint carries no checker ledger",
            ))
        }
    }
    Ok(())
}

/// The campaign identity a checkpoint is fingerprinted with: engine
/// name, network config, run extents and the caller's tag. The constant
/// `l1` field is part of the on-disk format: dropping it would change
/// every fingerprint and orphan the checkpoints already written.
fn campaign_fingerprint(engine: &str, cfg: &NetworkConfig, rc: &RunConfig) -> u64 {
    let tag = rc.checkpoint.as_ref().map_or(0, |c| c.tag);
    ckpt::fingerprint(&format!(
        "{engine}|{cfg:?}|w{}|m{}|d{}|p{}|l1|t{tag}",
        rc.warmup, rc.measure, rc.drain, rc.period
    ))
}

/// The five-phase loop over one scalar engine. Crate-internal:
/// [`crate::Session`] is the public door.
///
/// Observability is part of [`RunConfig`]: with `obs: None` the run is
/// dark and free of overhead; with `obs: Some(..)` every phase of every
/// period becomes a tracer span, the engine's kernel instrumentation is
/// attached to the registry, the network is sampled during the simulate
/// phase, and the report carries a metrics snapshot.
///
/// Returns the engine's own typed failures ([`SimError::Diverged`]) and
/// — on a clean run — delivery-protocol violations or, with
/// [`RunConfig::check`], invariant violations as
/// [`SimError::InvariantViolated`]. Under an active fault plan,
/// delivery-protocol violations are the expected downstream signature of
/// injected faults and are tolerated and counted in
/// [`RunReport::fault_anomalies`] instead.
pub(crate) fn run_impl(
    engine: &mut dyn NocEngine,
    gen: &mut StimuliGenerator,
    rc: &RunConfig,
) -> Result<RunReport, SimError> {
    if rc.period == 0 {
        return Err(SimError::Config("period: must be at least 1 cycle".into()));
    }
    let disabled = ObsConfig::disabled();
    let instr = rc.obs.as_ref().unwrap_or(&disabled);
    let cfg = engine.config();
    let n = cfg.num_nodes();
    let started = Instant::now();
    let mut prof = PhaseProfiler::new();

    let observer = if instr.enabled() {
        engine.attach_instrumentation(&instr.registry, &instr.tracer);
        Some(NocObserver::new(&instr.registry, instr.tracer.clone(), n))
    } else {
        None
    };

    let faulty = engine.fault_plan().is_some();
    let fault_drops =
        (instr.enabled() && faulty).then(|| instr.registry.counter("fault.injected_drops", &[]));
    let mut inject = engine
        .fault_plan()
        .and_then(|p| InjectApplier::from_plan(p, n));
    let mut checker = if rc.check {
        let ck = InvariantChecker::new(engine);
        Some(if instr.enabled() {
            ck.with_registry(instr.registry.clone())
        } else {
            ck
        })
    } else {
        None
    };
    let mut an = DeliveryAnalyzer::new(cfg, faulty, rc);
    let mut backlog: Vec<[VecDeque<StimEntry>; NUM_VCS]> = (0..n)
        .map(|_| core::array::from_fn(|_| VecDeque::new()))
        .collect();

    let mut pushed_flits: u64 = 0;
    let mut saturated = false;
    let mut delta_reset_done = false;
    // Retrieval scratch, reused across periods.
    let mut retrieved: Vec<(usize, Vec<vc_router::OutEntry>)> = Vec::with_capacity(n);
    let mut acc_entries = Vec::new();

    let gen_end = rc.warmup + rc.measure;
    let total_end = gen_end + rc.drain;

    let ck_cfg = rc.checkpoint.clone();
    let fp = campaign_fingerprint(engine.name(), &cfg, rc);
    let mut ckpt_enabled = ck_cfg.is_some();
    let mut last_ckpt = 0u64;
    let mut checkpoints_written = 0u64;
    let mut resumed_at: Option<u64> = None;

    let mut t0 = 0u64;
    if let Some(c) = ck_cfg.as_ref().filter(|c| c.resume) {
        let (found, rejected) = ckpt::latest_valid(&c.dir, fp);
        if instr.enabled() && rejected > 0 {
            instr
                .registry
                .counter(simtrace::recover::CHECKPOINTS_REJECTED, &[])
                .add(rejected);
        }
        if let Some(saved) = found {
            let bad = |e: WireError| SimError::Config(format!("campaign checkpoint: {e}"));
            engine.load_state(&saved.engine_state)?;
            let mut d = Dec::new(&saved.host_state);
            decode_host_state(
                &mut d,
                &mut an,
                &mut backlog,
                &mut pushed_flits,
                inject.as_mut(),
                checker.as_mut(),
            )
            .map_err(bad)?;
            if !d.finished() {
                return Err(bad(WireError::new("trailing bytes")));
            }
            saturated = saved.saturated;
            delta_reset_done = saved.delta_reset_done;
            t0 = saved.t0;
            last_ckpt = saved.t0;
            resumed_at = Some(saved.t0);
            // Fast-forward the generator to the cut: offered packets up
            // to t0 are already journalled (or delivered), so the replay
            // window's output is discarded.
            let replay_to = saved.t0.min(gen_end);
            if replay_to > 0 {
                let _ = gen.generate(0, replay_to);
            }
            if instr.enabled() {
                instr
                    .registry
                    .counter(simtrace::recover::RESUMES, &[])
                    .inc();
            }
        }
    }
    while t0 < total_end && !saturated {
        let t1 = (t0 + rc.period).min(total_end);

        // Phase 1: generate (while the traffic window is open).
        if t0 < gen_end {
            let mut span = instr.tracer.span("phase.generate", "runner");
            span.arg("t0", t0);
            let w = prof.time("generate", || gen.generate(t0, t1.min(gen_end)));
            an.note_offered(&w.offered);
            for (node, rings) in w.stim.into_iter().enumerate() {
                for (vc, entries) in rings.into_iter().enumerate() {
                    // Packet-level injection faults apply at the stimuli
                    // boundary, before back-pressure, so their decisions
                    // depend only on packet ordinals — identical for
                    // every engine.
                    let entries = match inject.as_mut() {
                        Some(ap) => {
                            let before = entries.len();
                            let kept = ap.filter(node, vc, entries);
                            if let Some(c) = fault_drops.as_ref() {
                                c.add((before - kept.len()) as u64);
                            }
                            kept
                        }
                        None => entries,
                    };
                    backlog[node][vc].extend(entries);
                }
            }
        }

        // Phase 2: load stimuli into the device rings (back-pressure:
        // whatever does not fit stays in the backlog).
        let pushed_before = pushed_flits;
        {
            let _span = instr.tracer.span("phase.load", "runner");
            prof.time("load", || {
                for node in 0..n {
                    for vc in 0..NUM_VCS {
                        while let Some(&e) = backlog[node][vc].front() {
                            if engine.push_stim(node, vc, e) {
                                backlog[node][vc].pop_front();
                                pushed_flits += 1;
                            } else {
                                break;
                            }
                        }
                        if backlog[node][vc].len() > rc.backlog_limit {
                            saturated = true;
                        }
                    }
                }
            });
        }
        if let Some(ck) = checker.as_mut() {
            ck.note_pushed(pushed_flits - pushed_before);
        }
        if let Some(obs) = observer.as_ref() {
            let queued: u64 = backlog
                .iter()
                .flat_map(|rings| rings.iter())
                .map(|q| q.len() as u64)
                .sum();
            obs.record_backlog(queued);
        }

        // Phase 3: simulate one period.
        if !delta_reset_done && t0 >= rc.warmup {
            engine.reset_delta_stats();
            delta_reset_done = true;
        }
        {
            let mut span = instr.tracer.span("phase.simulate", "runner");
            span.arg("cycles", t1 - t0);
            prof.time("simulate", || -> Result<(), SimError> {
                let every = instr.sample_every;
                match checker.as_mut() {
                    // Checked runs step one cycle at a time so structural
                    // bounds are audited at every clock edge.
                    Some(ck) => {
                        let mut c = t0;
                        while c < t1 {
                            engine.try_step()?;
                            c += 1;
                            ck.check_bounds(engine)?;
                            if let Some(obs) = observer.as_ref() {
                                if every > 0 && (c - t0).is_multiple_of(every) {
                                    obs.sample(engine);
                                }
                            }
                        }
                    }
                    // Unchecked runs advance the whole period in one call;
                    // a sampling observer splits it at every period-relative
                    // sample boundary and samples after each advance, so
                    // also at the period's end.
                    None => {
                        let sampler = observer.as_ref().filter(|_| every > 0);
                        let mut c = t0;
                        while c < t1 {
                            let next = match sampler {
                                Some(_) => t1.min(c + every - (c - t0) % every),
                                None => t1,
                            };
                            engine.try_run(next - c)?;
                            c = next;
                            if let Some(obs) = sampler {
                                obs.sample(engine);
                            }
                        }
                    }
                }
                Ok(())
            })?;
        }

        // Phase 4: retrieve the output and access-delay buffers.
        retrieved.clear();
        acc_entries.clear();
        {
            let _span = instr.tracer.span("phase.retrieve", "runner");
            prof.time("retrieve", || {
                for node in 0..n {
                    retrieved.push((node, engine.drain_delivered(node)));
                    acc_entries.extend(engine.drain_access(node));
                }
            });
        }
        if let Some(ck) = checker.as_mut() {
            let drained: u64 = retrieved.iter().map(|(_, e)| e.len() as u64).sum();
            ck.note_delivered(drained);
            // The rings are drained and counted: a quiescent point, so
            // the full conservation ledger can be audited.
            ck.check(engine)?;
        }

        // Phase 5: analyse.
        {
            let _analyse_span = instr.tracer.span("phase.analyse", "runner");
            prof.time("analyse", || -> Result<(), SimError> {
                an.note_access(&acc_entries);
                for (node, entries) in retrieved.drain(..) {
                    an.note_delivered(node, entries)?;
                }
                Ok(())
            })?;
        }

        // Checkpoint cut: the analyse phase just drained every ring, so
        // this is a quiescent point — engine state plus host state fully
        // describe the campaign.
        if let Some(c) = ck_cfg.as_ref() {
            if ckpt_enabled && t1 - last_ckpt >= c.every && t1 < total_end {
                match engine.save_state() {
                    Some(engine_state) => {
                        let mut e = Enc::new();
                        encode_host_state(
                            &mut e,
                            &an,
                            &backlog,
                            pushed_flits,
                            inject.as_ref(),
                            checker.as_ref(),
                        );
                        let cut = CampaignCkpt {
                            fingerprint: fp,
                            t0: t1,
                            saturated,
                            delta_reset_done,
                            engine_state,
                            host_state: e.into_bytes(),
                        };
                        match ckpt::write_checkpoint(&c.dir, c.keep, &cut) {
                            Ok(_) => {
                                checkpoints_written += 1;
                                last_ckpt = t1;
                                if instr.enabled() {
                                    instr
                                        .registry
                                        .counter(simtrace::recover::CHECKPOINTS_WRITTEN, &[])
                                        .inc();
                                }
                            }
                            // A full disk must degrade the run to
                            // checkpoint-less, never abort it.
                            Err(err) => {
                                eprintln!("warning: checkpoint at cycle {t1} failed: {err}");
                            }
                        }
                    }
                    None => {
                        eprintln!(
                            "warning: engine `{}` has no checkpoint support; \
                             checkpointing disabled for this run",
                            engine.name()
                        );
                        ckpt_enabled = false;
                    }
                }
            }
        }

        t0 = t1;
    }

    // Injected = pushed minus what still sits in the device rings.
    let cap = engine.stim_capacity();
    let ring_fill: u64 = (0..n)
        .map(|node| {
            (0..NUM_VCS)
                .map(|vc| (cap - engine.stim_free(node, vc)) as u64)
                .sum::<u64>()
        })
        .sum();
    let out = an.finish(pushed_flits.saturating_sub(ring_fill));

    let delta = engine.delta_stats();
    let metrics = if instr.enabled() {
        // Publish the run-level aggregates so a snapshot alone tells the
        // whole story: delta-cycle accounting (measurement window) and
        // the saturation verdict.
        if let Some(d) = delta.as_ref() {
            let labels = [("engine", lbl(engine.name()))];
            let r = &instr.registry;
            r.gauge("run.delta.system_cycles", &labels)
                .set(d.system_cycles as i64);
            r.gauge("run.delta.delta_cycles", &labels)
                .set(d.delta_cycles as i64);
            r.gauge("run.delta.re_evaluations", &labels)
                .set(d.re_evaluations as i64);
            r.gauge("run.delta.max_deltas_in_cycle", &labels)
                .set(d.max_deltas_in_cycle as i64);
        }
        instr
            .registry
            .gauge("run.saturated", &[])
            .set(saturated as i64);
        instr
            .registry
            .gauge("run.cycles", &[])
            .set(engine.cycle() as i64);
        Some(instr.registry.snapshot_json())
    } else {
        None
    };
    Ok(RunReport {
        engine: engine.name(),
        gt: out.gt,
        be: out.be,
        access: out.access,
        throughput: out.throughput,
        profile: prof.rows(),
        delta,
        metrics,
        saturated,
        unmatched: out.unmatched,
        fault_anomalies: out.fault_anomalies,
        invariant_checks: checker.as_ref().map_or(0, |ck| ck.checks()),
        fault_dropped: checker
            .as_ref()
            .map_or(0, |ck| ck.fault_dropped().max(0) as u64),
        checkpoints_written,
        resumed_at,
        wall: started.elapsed(),
        cycles: engine.cycle(),
    })
}

/// Convenience: route, allocate and run the paper's Fig 1 workload at one
/// BE load point on a given engine.
///
/// # Errors
///
/// Propagates every failure class of the five-phase loop (see
/// [`crate::Session::run`]).
pub fn run_fig1_point(
    engine: &mut dyn NocEngine,
    be_load: f64,
    seed: u64,
    rc: &RunConfig,
) -> Result<RunReport, SimError> {
    let mut gen = fig1_generator(engine.config(), be_load, seed);
    run_impl(engine, &mut gen, rc)
}

/// Route, allocate and package the paper's Fig 1 workload for `cfg`'s
/// network as a stimuli generator.
pub(crate) fn fig1_generator(cfg: NetworkConfig, be_load: f64, seed: u64) -> StimuliGenerator {
    let mut alloc = traffic::GtAllocator::new(cfg);
    let gt_streams = alloc.auto_streams((2, 1), 2048, 128);
    StimuliGenerator::new(traffic::TrafficConfig {
        net: cfg,
        be: traffic::BeConfig::fig1(be_load),
        gt_streams,
        seed,
    })
}

/// The analytic GT guarantee for the Fig 1 workload on `cfg`'s network
/// (the worst admitted stream).
pub fn fig1_guarantee(cfg: noc_types::NetworkConfig) -> u64 {
    let mut alloc = traffic::GtAllocator::new(cfg);
    alloc
        .auto_streams((2, 1), 2048, 128)
        .iter()
        .map(|s| s.guarantee())
        .max()
        .unwrap_or(0)
}

/// Check used by tests: was anything delivered at all?
pub fn delivered_something(r: &RunReport) -> bool {
    r.throughput.delivered_packets > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::NativeNoc;
    use noc_types::{NetworkConfig, Topology};
    use vc_router::IfaceConfig;

    fn small_run(load: f64) -> RunReport {
        let cfg = NetworkConfig::new(4, 4, Topology::Torus, 2);
        let mut e = NativeNoc::new(cfg, IfaceConfig::default());
        let rc = RunConfig {
            warmup: 500,
            measure: 3_000,
            drain: 2_000,
            period: 256,
            backlog_limit: 4_096,
            obs: None,
            check: true,
            ..RunConfig::default()
        };
        run_fig1_point(&mut e, load, 7, &rc).expect("clean run must succeed")
    }

    #[test]
    fn fig1_point_runs_and_measures() {
        let r = small_run(0.05);
        // The checker audited every cycle and every period, silently.
        assert!(r.invariant_checks > 5_500, "{}", r.invariant_checks);
        assert_eq!(r.fault_anomalies, 0);
        assert_eq!(r.fault_dropped, 0);
        assert!(!r.saturated, "4x4 at BE 0.05 must not saturate");
        assert!(r.gt.count > 0, "GT packets measured");
        assert!(r.be.count > 0, "BE packets measured");
        // GT packets are much larger, hence slower (paper Fig 1 note).
        assert!(r.gt.mean > r.be.mean);
        // Everything offered in the window got delivered after drain.
        assert!(r.unmatched < 20, "{} packets left in flight", r.unmatched);
        assert!(r.cps() > 0.0);
    }

    #[test]
    fn zero_be_load_still_runs_gt() {
        let r = small_run(0.0);
        assert!(r.gt.count > 0);
        assert_eq!(r.be.count, 0);
    }

    #[test]
    fn profile_phases_are_all_present() {
        let r = small_run(0.05);
        let names: Vec<&str> = r.profile.iter().map(|p| p.0).collect();
        for phase in ["generate", "load", "simulate", "retrieve", "analyse"] {
            assert!(names.contains(&phase), "missing phase {phase}");
        }
        let share_sum: f64 = r.profile.iter().map(|p| p.2).sum();
        assert!((share_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn faulty_run_is_tolerated_by_the_checker() {
        // A lossy fault plan must NOT trip the conservation checker:
        // the ledger knows stuck-idle links swallow flits and accepts a
        // monotone non-negative residual, reported as `fault_dropped`.
        let cfg = NetworkConfig::new(4, 4, Topology::Torus, 4);
        let plan = std::sync::Arc::new(crate::fault::random_plan(&cfg, 0xBEEF, 4_000));
        assert!(plan.has_stuck_idle(), "seed must yield a lossy plan");
        let mut e = crate::build::SimBuilder::new(cfg)
            .engine(crate::build::EngineKind::Native)
            .faults(plan)
            .try_build()
            .expect("faulty native engine builds");
        let rc = RunConfig {
            warmup: 500,
            measure: 3_000,
            drain: 2_000,
            period: 256,
            backlog_limit: 4_096,
            obs: None,
            check: true,
            ..RunConfig::default()
        };
        let r =
            run_fig1_point(&mut *e, 0.10, 7, &rc).expect("faulty run must not trip the checker");
        assert!(r.invariant_checks > 0);
        assert!(r.fault_dropped > 0, "stuck-idle plan dropped nothing");
    }

    #[test]
    fn faulty_instrumented_run_counts_injection_drops() {
        let cfg = NetworkConfig::new(4, 4, Topology::Torus, 4);
        let plan = std::sync::Arc::new(crate::fault::random_plan(&cfg, 0xBEEF, 4_000));
        let mut e = crate::build::SimBuilder::new(cfg)
            .engine(crate::build::EngineKind::Native)
            .faults(plan)
            .try_build()
            .expect("faulty native engine builds");
        let obs = ObsConfig::new(0);
        let registry = obs.registry.clone();
        let rc = RunConfig {
            warmup: 500,
            measure: 3_000,
            drain: 1_000,
            period: 256,
            backlog_limit: 4_096,
            obs: Some(obs),
            check: false,
            ..RunConfig::default()
        };
        run_fig1_point(&mut *e, 0.10, 7, &rc).expect("faulty run succeeds");
        let drops = registry.counter_value("fault.injected_drops", &[]);
        assert!(drops.is_some(), "drop counter registered on faulty runs");
    }

    #[test]
    fn overload_is_detected() {
        // BE load near 1.0 must saturate a 4x4 torus quickly.
        let cfg = NetworkConfig::new(4, 4, Topology::Torus, 2);
        let mut e = NativeNoc::new(cfg, IfaceConfig::default());
        let rc = RunConfig {
            warmup: 0,
            measure: 20_000,
            drain: 0,
            period: 256,
            backlog_limit: 512,
            obs: None,
            check: false,
            ..RunConfig::default()
        };
        let r = run_fig1_point(&mut e, 0.9, 3, &rc).expect("overloaded run still succeeds");
        assert!(r.saturated, "0.9 load must overload the network");
        assert!(r.cycles < 20_000, "saturation must stop the run early");
    }

    #[test]
    fn zero_period_is_a_config_error() {
        let cfg = NetworkConfig::new(3, 3, Topology::Torus, 2);
        // An empty period cannot make progress, with a generation window
        // (the generator is asked for an empty interval) or without one.
        for (w, m) in [(10, 50), (0, 0)] {
            let mut e = NativeNoc::new(cfg, IfaceConfig::default());
            let rc = RunConfig::new().warmup(w).cycles(m).drain(10).period(0);
            let err = run_fig1_point(&mut e, 0.05, 7, &rc).expect_err("period 0 refused");
            assert!(
                matches!(&err, SimError::Config(msg) if msg.starts_with("period: ")),
                "{err:?}"
            );
        }
    }
}
