//! Single-layer measurements that need no campaign: the set-up layers
//! (spec assembly, `speccheck`, program lowering), the router's exec
//! pieces over a corpus of real register files, and the host calibration
//! loop.

use crate::summary::Summary;
use crate::trace::Trace;
use crate::traced::{enqueue, load, new_backlog};
use crate::workload::{Workload, PERIOD, WARMUP};
use soc_sim::noc::{NativeNoc, NocEngine, SeqNoc};
use soc_sim::noc_types::{NodeId, NUM_QUEUES};
use soc_sim::seqsim::compile::Arena;
use soc_sim::seqsim::{CompileOptions, CompiledProgram};
use soc_sim::vc_router::{comb_select, IfaceConfig, RegisterLayout, RouterCtx, RouterRegs};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median wall time, in ns, of a fixed integer spin loop. Not a metric of
/// the simulator: two result files whose `host.calib_ns` differ were
/// taken on hosts (or under loads) that must not be compared.
pub fn calibrate() -> f64 {
    let runs: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for i in 0..2_000_000u64 {
                x = black_box(x ^ i)
                    .wrapping_mul(0x2545_f491_4f6c_dd1d)
                    .rotate_left(17);
            }
            black_box(x);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    Summary::of(&runs).median
}

/// What the set-up layers cost and produce for one network.
pub struct SetupLayers {
    pub analyze_s: f64,
    pub diagnostics: usize,
    pub compile_s: f64,
    pub program_ops: usize,
    pub arena_words: usize,
}

/// The three layers under `SimBuilder::session` for the sequential
/// engines, called one at a time from outside: assemble the spec, analyse
/// it, lower it with the analyser's order (as `CompiledNoc` does).
pub fn setup_layers(w: &Workload, tr: &mut Trace) -> SetupLayers {
    let root = tr.begin("setup");
    let seq = tr.span("noc.spec_build", || {
        SeqNoc::new(w.net(), IfaceConfig::default())
    });
    let spec = seq.engine().spec();
    let analysis = tr.span("speccheck.analyze", || speccheck::analyze_spec(spec));
    let diagnostics = analysis.diagnostics.len();
    let opts = CompileOptions {
        order: analysis.schedule.map(|h| h.order),
        ..CompileOptions::default()
    };
    let program = tr.span("seqsim.compile", || CompiledProgram::compile(spec, &opts));
    tr.end(root);
    SetupLayers {
        analyze_s: tr.total_s("speccheck.analyze"),
        diagnostics,
        compile_s: tr.total_s("seqsim.compile"),
        program_ops: program.ops.len(),
        arena_words: Arena::new_sliced(spec, &program.slices).total_words(),
    }
}

/// Router-exec timings over the harvested corpus.
pub struct RouterMicro {
    pub comb_select_ns: f64,
    pub unpack_ns: f64,
    pub pack_ns: f64,
    pub quiescent_frac: f64,
}

/// Cycles of the workload the corpus is harvested from, and how often.
const HARVEST_CYCLES: u64 = WARMUP + 8 * PERIOD;
const HARVEST_EVERY: u64 = 64;
/// Cap on corpus entries kept for timing (`quiescent_frac` counts all).
const CORPUS_MAX: usize = 4096;

/// Time `comb_select`, `RouterRegs::unpack` and `RouterRegs::pack` over
/// register files harvested from a `native` run of this workload's own
/// stimuli, so the mix of empty, head-blocked and streaming routers is
/// the workload's, not a synthetic one.
pub fn router_micro(w: &Workload, seed: u64) -> RouterMicro {
    let cfg = w.net();
    let n = cfg.num_nodes();
    let depth = cfg.router.queue_depth;
    let mut net = NativeNoc::new(cfg, IfaceConfig::default());
    let mut gen = w.generator(seed);
    let mut backlog = new_backlog(n);
    let mut corpus: Vec<(RouterCtx, RouterRegs)> = Vec::new();
    let (mut seen, mut quiescent) = (0u64, 0u64);
    let keep_every = (HARVEST_CYCLES / HARVEST_EVERY * n as u64).div_ceil(CORPUS_MAX as u64);

    for t0 in (0..HARVEST_CYCLES).step_by(PERIOD as usize) {
        enqueue(&mut backlog, gen.generate(t0, t0 + PERIOD).stim);
        load(&mut net, &mut backlog);
        for _ in 0..PERIOD / HARVEST_EVERY {
            net.try_run(HARVEST_EVERY)
                .expect("native engine is infallible");
            for node in 0..n {
                let regs = net.regs(node);
                quiescent += (0..NUM_QUEUES).all(|q| regs.queues[q].is_empty()) as u64;
                if seen % keep_every == 0 {
                    let ctx = RouterCtx::new(&cfg, cfg.shape.coord(NodeId(node as u16)));
                    corpus.push((ctx, *regs));
                }
                seen += 1;
            }
        }
        for node in 0..n {
            net.drain_delivered(node);
            net.drain_access(node);
        }
    }

    let words = RegisterLayout::new(depth).state_bits().div_ceil(64);
    let packed: Vec<Vec<u64>> = corpus
        .iter()
        .map(|(_, regs)| {
            let mut w = vec![0u64; words];
            regs.pack(depth, &mut w);
            w
        })
        .collect();
    let mut scratch = vec![0u64; words];
    RouterMicro {
        comb_select_ns: ns_per_item(corpus.len(), || {
            for (ctx, regs) in &corpus {
                black_box(comb_select(black_box(regs), ctx));
            }
        }),
        unpack_ns: ns_per_item(packed.len(), || {
            for w in &packed {
                black_box(RouterRegs::unpack(depth, black_box(w)));
            }
        }),
        pack_ns: ns_per_item(corpus.len(), || {
            for (_, regs) in &corpus {
                black_box(regs).pack(depth, &mut scratch);
                black_box(&mut scratch);
            }
        }),
        quiescent_frac: quiescent as f64 / seen as f64,
    }
}

/// Median over five batches of the time one `pass` over `items` items
/// takes per item; each batch repeats `pass` for at least 10 ms.
fn ns_per_item(items: usize, mut pass: impl FnMut()) -> f64 {
    pass();
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut passes = 0u64;
            while t.elapsed() < Duration::from_millis(10) {
                pass();
                passes += 1;
            }
            t.elapsed().as_nanos() as f64 / (passes * items as u64) as f64
        })
        .collect();
    Summary::of(&batches).median
}
