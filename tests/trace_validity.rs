//! Property tests for the serialized observability formats: whatever
//! names, labels and values flow into the registry or tracer, every
//! emitted JSONL line must parse as standalone JSON with string
//! escaping that round-trips byte-for-byte, and the Chrome trace array
//! must stay well-formed — including when a run stops early
//! (saturation) instead of completing cleanly.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use noc::{EngineKind, NativeNoc, ObsConfig, RunConfig, SimBuilder};
use noc_types::{NetworkConfig, Topology};
use simtrace::json::{self, JsonValue};
use simtrace::{lbl, Registry, Tracer};
use vc_router::IfaceConfig;

/// Deterministic xorshift64* PRNG — no external crates.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A hostile string: quotes, backslashes, control characters,
    /// multi-byte unicode, JSON syntax characters.
    fn string(&mut self) -> String {
        const POOL: &[&str] = &[
            "\"",
            "\\",
            "\n",
            "\t",
            "\r",
            "\u{0}",
            "\u{1b}",
            "{",
            "}",
            "[",
            "]",
            ":",
            ",",
            "é",
            "…",
            "日",
            "\u{1F600}",
            "a",
            "b",
            "7",
            " ",
            "_",
            "/",
            "\u{7f}",
        ];
        let len = (self.next() % 12) as usize;
        (0..len)
            .map(|_| POOL[(self.next() as usize) % POOL.len()])
            .collect()
    }
}

#[test]
fn metric_snapshots_escape_arbitrary_names_and_labels() {
    let mut rng = Rng(0xDEAD_BEEF);
    for round in 0..50 {
        let registry = Registry::new();
        let mut names = Vec::new();
        for _ in 0..8 {
            let name = rng.string();
            let label_v = rng.string();
            registry
                .counter(&name, &[("k", lbl(&label_v))])
                .add(rng.next() % 1_000);
            registry.gauge(&rng.string(), &[]).set(rng.next() as i64);
            registry.hist(&rng.string(), &[]).record(rng.next() % 4_096);
            names.push((name, label_v));
        }
        let snap = registry.snapshot_json();
        json::validate(&snap).unwrap_or_else(|e| panic!("round {round}: invalid snapshot: {e}"));
        // Escapes must round-trip: the typed re-parse sees the exact
        // original names and label values.
        let typed = simtrace::MetricsSnapshot::from_json(&snap).expect("snapshot parses");
        for (name, label_v) in &names {
            assert!(
                typed
                    .counters
                    .iter()
                    .any(|(id, _)| &id.name == name && id.labels.iter().any(|(_, v)| v == label_v)),
                "round {round}: name/label {name:?}/{label_v:?} lost in round-trip"
            );
        }
    }
}

#[test]
fn tracer_jsonl_and_chrome_survive_hostile_args() {
    // Event/category names are `&'static str` by API design, so the
    // hostile names come from a static pool; arbitrary runtime strings
    // flow in through the arg values.
    const NAMES: &[&str] = &[
        "plain",
        "with \"quotes\"",
        "back\\slash",
        "new\nline",
        "tab\tand\rcr",
        "ctrl\u{0}\u{1b}\u{7f}",
        "json{}[]:,",
        "unicode é…日\u{1F600}",
    ];
    let mut rng = Rng(0xF00D);
    let tracer = Tracer::new();
    for _ in 0..40 {
        let pick = |r: &mut Rng| NAMES[(r.next() as usize) % NAMES.len()];
        let mut span = tracer.span(pick(&mut rng), pick(&mut rng));
        let arg = rng.string();
        span.arg("hostile", arg.as_str());
        drop(span);
        tracer.instant(pick(&mut rng), pick(&mut rng), &[]);
        tracer.counter(pick(&mut rng), &[("v", rng.next() as f64 / 7.0)]);
    }
    let chrome = tracer.to_chrome_json();
    json::validate(&chrome).expect("chrome trace must be valid JSON");
    let doc = json::parse(&chrome).expect("chrome trace parses");
    assert!(
        matches!(doc.get("traceEvents"), Some(JsonValue::Arr(_))),
        "chrome trace must carry a traceEvents array"
    );
    for line in tracer.to_jsonl().lines() {
        json::validate(line).expect("every JSONL line stands alone");
    }
}

#[test]
fn early_stopped_run_emits_wellformed_trace() {
    // A 4x4 torus at BE 0.9 with a tiny backlog limit saturates and
    // stops the run early — the trace must still be a complete, closed
    // document.
    let cfg = NetworkConfig::new(4, 4, Topology::Torus, 2);
    let mut engine = NativeNoc::new(cfg, IfaceConfig::default());
    let obs = ObsConfig::with(Registry::new(), Tracer::new(), 32);
    let rc = RunConfig {
        warmup: 0,
        measure: 20_000,
        drain: 0,
        period: 256,
        backlog_limit: 512,
        obs: Some(obs.clone()),
        check: false,
        ..RunConfig::default()
    };
    let r = noc::run_fig1_point(&mut engine, 0.9, 3, &rc).expect("saturated run still returns Ok");
    assert!(r.saturated, "premise: the run must stop early");
    let chrome = obs.tracer.to_chrome_json();
    json::validate(&chrome).expect("chrome trace valid after early stop");
    let doc = json::parse(&chrome).expect("chrome trace parses after early stop");
    assert!(matches!(doc.get("traceEvents"), Some(JsonValue::Arr(_))));
    for line in obs.tracer.to_jsonl().lines() {
        json::validate(line).expect("JSONL line valid after early stop");
    }
}

#[test]
fn profiling_does_not_perturb_delivery() {
    // Bit-identity with the profiler attached: the differential
    // guarantee must hold with profiling on, cycle by cycle.
    let cfg = NetworkConfig::new(4, 4, Topology::Torus, 2);
    let tcfg = traffic::TrafficConfig {
        net: cfg,
        be: traffic::BeConfig::fig1(0.10),
        gt_streams: Vec::new(),
        seed: 42,
    };
    let mut plain = SimBuilder::new(cfg)
        .engine(EngineKind::Seq)
        .try_build()
        .expect("seq engine builds");
    let mut profiled = SimBuilder::new(cfg)
        .engine(EngineKind::Seq)
        .profile(4)
        .try_build()
        .expect("profiled seq engine builds");
    let a = noc::diff::collect_trace(plain.as_mut(), &tcfg, 600, 128);
    let b = noc::diff::collect_trace(profiled.as_mut(), &tcfg, 600, 128);
    noc::diff::assert_traces_equal("seqsim", &a, "seqsim+profiler", &b);
    let prof = profiled.take_profile(0.1).expect("profiler harvests");
    assert!(prof.evals_total() > 0);
}
