//! The zero-cost-when-disabled guarantee, enforced: with observability
//! off (`obs: None`, no profiler attached) the sequential kernel's
//! steady-state hot loop must not allocate at all. Detached metric
//! handles are plain atomics, the disabled tracer is a `None` check,
//! and the absent profiler is one `Option` null-check per eval — none
//! of which may touch the allocator.
//!
//! The checked loop (`RunConfig::check(true)`: one `try_step` and one
//! `InvariantChecker::check_bounds` per cycle) is held to the same rule
//! on `seqsim-compiled`, `seqsim` and `native` under load: the audit
//! reads each router's registers five times a cycle, and a read that
//! packs or copies state into a fresh buffer would show here.
//!
//! A counting `GlobalAlloc` wrapper measures it directly; the workspace
//! denies `unsafe_code`, and this file opts back in for exactly that
//! wrapper (a `GlobalAlloc` impl is unavoidably `unsafe`).

#![allow(unsafe_code)]
#![allow(clippy::unwrap_used, clippy::expect_used)]

use noc::diff::push_window;
use noc::{EngineKind, InvariantChecker, SimBuilder};
use noc_types::{NetworkConfig, Topology, NUM_VCS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use traffic::{BeConfig, StimuliGenerator, TrafficConfig};
use vc_router::StimEntry;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

// One test function only: the counter is process-global, and a second
// concurrently-running test would pollute the measurement window.
#[test]
fn dark_hot_loop_does_not_allocate() {
    let cfg = NetworkConfig::new(4, 4, Topology::Torus, 2);
    let mut engine = SimBuilder::new(cfg)
        .engine(EngineKind::Seq)
        .try_build()
        .expect("seq engine builds");

    // Warm up: first cycles grow worklists, link scratch and ring
    // buffers to their steady-state capacity.
    engine.run(500);

    let before = allocs();
    engine.run(2_000);
    let during = allocs() - before;
    assert_eq!(
        during, 0,
        "dark sequential hot loop allocated {during} times in 2000 cycles \
         — the disabled observability path must be allocation-free"
    );

    // The same loop with instrumentation attached is allowed to allocate
    // (spans, samples); this run just proves the measurement above is
    // live and the counter works.
    let registry = simtrace::Registry::new();
    let tracer = simtrace::Tracer::new();
    engine.attach_instrumentation(&registry, &tracer);
    let before = allocs();
    engine.run(50);
    assert!(
        allocs() > before,
        "instrumented run must exercise the allocator (sanity check)"
    );

    // The checked loop under load. Stimuli are generated, pushed and
    // drained between measured stretches of 64 cycles, so the routers
    // stay busy while only `try_step` + `check_bounds` are counted; the
    // first four stretches are warm-up.
    const STRETCH: u64 = 64;
    const WARM: u64 = 4;
    const STRETCHES: u64 = WARM + 20;
    let n = cfg.num_nodes();
    for kind in [EngineKind::SeqCompiled, EngineKind::Seq, EngineKind::Native] {
        let mut engine = SimBuilder::new(cfg)
            .engine(kind)
            .try_build()
            .expect("engine builds");
        let name = engine.name();
        let mut checker = InvariantChecker::new(engine.as_ref());
        let mut gen = StimuliGenerator::new(TrafficConfig {
            net: cfg,
            be: BeConfig::fig1(0.2),
            gt_streams: Vec::new(),
            seed: 5,
        });
        let mut backlog: Vec<[VecDeque<StimEntry>; NUM_VCS]> = (0..n)
            .map(|_| core::array::from_fn(|_| VecDeque::new()))
            .collect();
        let (mut counted, mut delivered) = (0u64, 0usize);
        for s in 0..STRETCHES {
            let w = gen.generate(s * STRETCH, (s + 1) * STRETCH);
            for (node, rings) in w.stim.into_iter().enumerate() {
                for (vc, entries) in rings.into_iter().enumerate() {
                    backlog[node][vc].extend(entries);
                }
            }
            push_window(engine.as_mut(), &mut backlog, usize::MAX);
            let before = allocs();
            for _ in 0..STRETCH {
                engine.try_step().expect("clean step");
                checker.check_bounds(engine.as_ref()).expect("bounds hold");
            }
            let during = allocs() - before;
            for node in 0..n {
                let got = engine.drain_delivered(node).len();
                let _ = engine.drain_access(node);
                if s >= WARM {
                    delivered += got;
                }
            }
            if s >= WARM {
                counted += during;
            }
        }
        let cycles = (STRETCHES - WARM) * STRETCH;
        assert!(delivered > 0, "{name}: the checked loop ran unloaded");
        assert_eq!(
            counted, 0,
            "{name}: checked hot loop allocated {counted} times in {cycles} \
             loaded cycles — the audit reads must borrow the register file"
        );
    }
}
