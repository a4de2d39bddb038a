//! The traced pass: the harness drives the five-phase loop itself over
//! the `Box<dyn NocEngine>` a `SimBuilder` hands out, with a span around
//! every call into a layer and counts taken at the same boundaries. The
//! loop mirrors `Session::run` step for step (clean runs only: no fault
//! plan, no observer, no checkpoints); `main` proves that by comparing
//! its statistics digest with the untraced report's.

use crate::trace::Trace;
use crate::workload::{digest, Workload, DRAIN, PERIOD, WARMUP};
use soc_sim::noc::{EngineKind, InvariantChecker, NocEngine};
use soc_sim::noc_types::{NetworkConfig, Reassembler, TrafficClass, NUM_VCS};
use soc_sim::seqsim::DeltaStats;
use soc_sim::stats::{LatencyStats, ThroughputCounter};
use soc_sim::traffic::{OfferedPacket, StimuliGenerator};
use soc_sim::vc_router::{AccEntry, OutEntry, StimEntry};
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// Host-side stimuli not yet accepted by the device rings.
pub type Backlog = Vec<[VecDeque<StimEntry>; NUM_VCS]>;

pub fn new_backlog(nodes: usize) -> Backlog {
    (0..nodes)
        .map(|_| core::array::from_fn(|_| VecDeque::new()))
        .collect()
}

/// Append one generated window's stimuli to the backlog; returns the
/// number of flits offered.
pub fn enqueue(backlog: &mut Backlog, stim: Vec<[Vec<StimEntry>; NUM_VCS]>) -> u64 {
    let mut offered = 0;
    for (rings, window) in backlog.iter_mut().zip(stim) {
        for (ring, entries) in rings.iter_mut().zip(window) {
            offered += entries.len() as u64;
            ring.extend(entries);
        }
    }
    offered
}

/// Phase 2: move backlog entries into the device rings until each ring
/// refuses. Returns `(accepted, refused)` push attempts and the longest
/// backlog left behind.
pub fn load(engine: &mut dyn NocEngine, backlog: &mut Backlog) -> (u64, u64, usize) {
    let (mut pushed, mut refused, mut longest) = (0, 0, 0);
    for (node, rings) in backlog.iter_mut().enumerate() {
        for (vc, ring) in rings.iter_mut().enumerate() {
            while let Some(&e) = ring.front() {
                if engine.push_stim(node, vc, e) {
                    ring.pop_front();
                    pushed += 1;
                } else {
                    refused += 1;
                    break;
                }
            }
            longest = longest.max(ring.len());
        }
    }
    (pushed, refused, longest)
}

/// Phase 5 on the harness side: the offered-packet journal, per-node worm
/// reassembly and latency/throughput accounting, from the public `stats`
/// and `noc_types` pieces `Session::run` uses internally.
struct Analyzer {
    cfg: NetworkConfig,
    gen_end: u64,
    journal: HashMap<(u16, u16), OfferedPacket>,
    reasm: Vec<Reassembler>,
    gt: LatencyStats,
    be: LatencyStats,
    access: LatencyStats,
    tp: ThroughputCounter,
}

impl Analyzer {
    fn new(cfg: NetworkConfig, gen_end: u64) -> Analyzer {
        let n = cfg.num_nodes();
        Analyzer {
            cfg,
            gen_end,
            journal: HashMap::new(),
            reasm: (0..n).map(|_| Reassembler::new()).collect(),
            gt: LatencyStats::new(),
            be: LatencyStats::new(),
            access: LatencyStats::new(),
            tp: ThroughputCounter {
                nodes: n as u64,
                ..Default::default()
            },
        }
    }

    fn measured(&self, ts: u64) -> bool {
        (WARMUP..self.gen_end).contains(&ts)
    }

    fn note_offered(&mut self, offered: &[OfferedPacket]) {
        for p in offered {
            self.journal.insert((p.src.0, p.seq), *p);
            if self.measured(p.ts) {
                self.tp.offered_flits += p.flits as u64;
            }
        }
    }

    fn note_access(&mut self, entries: &[AccEntry]) {
        for a in entries {
            if self.measured(a.ts) {
                self.access.record(a.delay);
            }
        }
    }

    fn note_delivered(&mut self, node: usize, entries: &[OutEntry]) -> Result<(), String> {
        for e in entries {
            self.reasm[node]
                .try_push(e.cycle, e.vc, e.flit)
                .map_err(|v| format!("node {node} cycle {}: {v:?}", e.cycle))?;
        }
        for pkt in self.reasm[node].drain_completed() {
            let seq = pkt.first_body.unwrap_or(0);
            let offered = self
                .journal
                .remove(&(pkt.src_tag as u16, seq))
                .ok_or_else(|| format!("packet (src {}, seq {seq}) never offered", pkt.src_tag))?;
            let dest = self.cfg.shape.node_id(offered.dest).index();
            if pkt.flits as u16 != offered.flits || dest != node {
                return Err(format!(
                    "packet (src {}, seq {seq}) damaged in flight",
                    pkt.src_tag
                ));
            }
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
}

/// What one traced campaign measured besides its spans.
#[derive(Default)]
pub struct TracedRun {
    /// Statistics digest, comparable with `workload::report_digest`.
    pub digest: String,
    /// Offered packets never delivered, and the overload verdict.
    pub unmatched: usize,
    pub saturated: bool,
    /// Span id of the campaign root (the `Session::run` equivalent).
    pub root: usize,
    pub cycles: u64,
    pub periods: u64,
    pub offered_flits: u64,
    pub stim_pushed: u64,
    pub stim_refused: u64,
    pub delivered_flits: u64,
    /// Seconds inside `try_run` / `try_step` / `check_bounds`.
    pub try_run_s: f64,
    pub try_step_s: f64,
    pub check_bounds_s: f64,
    /// Mid-campaign checkpoint cost; zeros where the engine has none.
    pub save_state_s: f64,
    pub load_state_s: f64,
    pub state_bytes: usize,
    pub delta: Option<DeltaStats>,
}

/// Drive one campaign of `w` on a fresh `kind` engine under `tr`. The
/// `campaign` root span covers what `Session::run` covers; building the
/// engine and the generator are spans of their own beside it.
pub fn traced_campaign(
    w: &Workload,
    kind: EngineKind,
    seed: u64,
    measure: u64,
    tr: &mut Trace,
) -> Result<TracedRun, String> {
    let built = tr.span("noc.build", || {
        soc_sim::sim(w.net()).engine(kind).try_build()
    });
    let mut engine = built.map_err(|e| e.to_string())?;
    let mut gen = tr.span("traffic.build", || w.generator(seed));
    let root = tr.begin("campaign");
    let run = five_phases(w, engine.as_mut(), &mut gen, measure, tr, root);
    tr.end(root);
    run
}

fn five_phases(
    w: &Workload,
    engine: &mut dyn NocEngine,
    gen: &mut StimuliGenerator,
    measure: u64,
    tr: &mut Trace,
    root: usize,
) -> Result<TracedRun, String> {
    let cfg = w.net();
    let n = cfg.num_nodes();
    let gen_end = WARMUP + measure;
    let total_end = gen_end + DRAIN;
    let snapshot_at = WARMUP + measure / 2;
    let backlog_limit = w.run_config(measure).backlog_limit;
    let mut checker = w.check.then(|| InvariantChecker::new(engine));
    let mut an = Analyzer::new(cfg, gen_end);
    let mut backlog = new_backlog(n);
    let mut retrieved: Vec<Vec<OutEntry>> = Vec::with_capacity(n);
    let mut acc_entries: Vec<AccEntry> = Vec::new();
    let mut run = TracedRun {
        root,
        ..TracedRun::default()
    };
    let mut delta_reset_done = false;
    let mut snapshot_done = false;

    let mut t0 = 0u64;
    while t0 < total_end && !run.saturated {
        let t1 = (t0 + PERIOD).min(total_end);
        run.periods += 1;

        if t0 < gen_end {
            let win = tr.span("traffic.generate", || gen.generate(t0, t1.min(gen_end)));
            tr.span("harness.enqueue", || {
                an.note_offered(&win.offered);
                run.offered_flits += enqueue(&mut backlog, win.stim);
            });
        }

        let (pushed, refused, longest) = tr.span("noc.load", || load(engine, &mut backlog));
        run.stim_pushed += pushed;
        run.stim_refused += refused;
        run.saturated = longest > backlog_limit;
        if let Some(ck) = checker.as_mut() {
            ck.note_pushed(pushed);
        }

        if !delta_reset_done && t0 >= WARMUP {
            engine.reset_delta_stats();
            delta_reset_done = true;
        }
        tr.span("noc.simulate", || match checker.as_mut() {
            // Checked campaigns step one cycle at a time so the bounds
            // are audited at every clock edge, as in `Session::run`.
            Some(ck) => {
                for _ in t0..t1 {
                    let a = Instant::now();
                    engine.try_step()?;
                    let b = Instant::now();
                    ck.check_bounds(engine)?;
                    run.try_step_s += (b - a).as_secs_f64();
                    run.check_bounds_s += b.elapsed().as_secs_f64();
                }
                Ok(())
            }
            None => {
                let a = Instant::now();
                let r = engine.try_run(t1 - t0);
                run.try_run_s += a.elapsed().as_secs_f64();
                r
            }
        })
        .map_err(|e| e.to_string())?;

        retrieved.clear();
        acc_entries.clear();
        tr.span("noc.retrieve", || {
            for node in 0..n {
                retrieved.push(engine.drain_delivered(node));
                acc_entries.extend(engine.drain_access(node));
            }
        });
        let drained: u64 = retrieved.iter().map(|e| e.len() as u64).sum();
        run.delivered_flits += drained;
        if let Some(ck) = checker.as_mut() {
            tr.span("noc.check", || {
                ck.note_delivered(drained);
                ck.check(engine)
            })
            .map_err(|e| e.to_string())?;
        }

        tr.span("stats.analyse", || {
            an.note_access(&acc_entries);
            for (node, entries) in retrieved.iter().enumerate() {
                an.note_delivered(node, entries)?;
            }
            Ok::<(), String>(())
        })?;

        // The rings are drained: the quiescent point at which
        // `Session::run` would cut a checkpoint. Saving and restoring the
        // same bytes leaves the campaign unchanged.
        if !snapshot_done && t1 >= snapshot_at {
            snapshot_done = true;
            if let Some(bytes) = tr.span("noc.save_state", || engine.save_state()) {
                run.state_bytes = bytes.len();
                tr.span("noc.load_state", || engine.load_state(&bytes))
                    .map_err(|e| e.to_string())?;
                run.save_state_s = tr.total_s("noc.save_state");
                run.load_state_s = tr.total_s("noc.load_state");
            }
        }
        t0 = t1;
    }

    // Injected = pushed minus what still sits in the device rings.
    let cap = engine.stim_capacity();
    let ring_fill: u64 = (0..n)
        .flat_map(|node| (0..NUM_VCS).map(move |vc| (node, vc)))
        .map(|(node, vc)| (cap - engine.stim_free(node, vc)) as u64)
        .sum();
    an.tp.injected_flits = run.stim_pushed.saturating_sub(ring_fill);
    an.tp.cycles = measure;
    an.tp.gen_cycles = gen_end;
    run.cycles = engine.cycle();
    run.unmatched = an.journal.len();
    run.delta = engine.delta_stats();
    run.digest = digest(
        run.cycles,
        &an.tp,
        &an.gt.summary(),
        &an.be.summary(),
        &an.access.summary(),
    );
    Ok(run)
}
