//! Result files: what one workload run writes, how the runs of a set are
//! merged and printed, and how two sets are compared.

use crate::summary::Summary;
use crate::workload::WORKLOADS;
use simtrace::json::{parse, write_f64, write_str, JsonValue};
use std::path::Path;

/// One named measurement of one workload.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub summary: Summary,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, summary: Summary) -> Metric {
        Metric {
            name: name.into(),
            unit,
            summary,
        }
    }

    /// A quantity that is not sampled: a count, a ratio of medians, a
    /// total over the one traced pass.
    pub fn exact(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric::new(name, unit, Summary::exact(value))
    }
}

/// Everything one `--workload` run found.
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub measure: u64,
    pub digest: String,
    /// Whether `digest` was also held against the committed one.
    pub digest_committed: bool,
    pub ops: u64,
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    /// Empty unless the traced pass ran.
    pub per_layer: Vec<Metric>,
}

fn metrics_json(out: &mut String, metrics: &[Metric]) {
    out.push('{');
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        write_str(out, &m.name);
        out.push_str(&format!(":{{\"unit\":\"{}\"", m.unit));
        let s = &m.summary;
        for (key, v) in [
            ("median", s.median),
            ("q1", s.q1),
            ("q3", s.q3),
            ("min", s.min),
            ("max", s.max),
        ] {
            out.push_str(&format!(",\"{key}\":"));
            write_f64(out, v);
        }
        out.push_str(&format!(",\"n\":{}}}", s.n));
    }
    out.push_str("\n  }");
}

impl Outcome {
    /// The full result document (`benchmark/out/result.<workload>.json`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\":\"soc-sim/benchmark/v1\",\n  \"workload\":");
        write_str(&mut out, self.workload);
        out.push_str(&format!(
            ",\n  \"seed\":{},\n  \"measure\":{},\n  \"digest\":\"{}\",\n  \
             \"digest_committed\":{},\n  \"ops\":{},\n  \"ops_failed\":{},\n  \"failures\":[",
            self.seed,
            self.measure,
            self.digest,
            self.digest_committed,
            self.ops,
            self.failures.len()
        ));
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(&mut out, f);
        }
        out.push_str("],\n  \"end_to_end\":");
        metrics_json(&mut out, &self.end_to_end);
        out.push_str(",\n  \"per_layer\":");
        metrics_json(&mut out, &self.per_layer);
        out.push_str("\n}\n");
        out
    }

    /// The one-line result the benchmark contract asks for: medians of
    /// the end-to-end metrics, or of the per-layer ones when tracing.
    pub fn contract_line(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.failures.is_empty(),
            self.ops,
            self.failures.len()
        );
        for (i, m) in metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(&mut out, &m.name);
            out.push_str(":{\"value\":");
            write_f64(&mut out, m.summary.median);
            out.push_str(&format!(",\"unit\":\"{}\"}}", m.unit));
        }
        out.push_str("}}");
        out
    }
}

/// A JSON file's text and its parsed tree.
fn read_json(path: &Path) -> Result<(String, JsonValue), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((text, doc))
}

fn members(v: Option<&JsonValue>) -> &[(String, JsonValue)] {
    match v {
        Some(JsonValue::Obj(m)) => m,
        _ => &[],
    }
}

fn field(m: &JsonValue, key: &str) -> f64 {
    m.get(key).and_then(JsonValue::num).unwrap_or(f64::NAN)
}

/// Merge the per-workload result files in `dir` into `dir/results.json`,
/// print every metric as `name unit value`, and report whether any
/// campaign failed.
pub fn merge(dir: &Path) -> Result<bool, String> {
    let mut merged = String::from("{\"schema\":\"soc-sim/benchmark-set/v1\",\"workloads\":{");
    let mut any_failed = false;
    for (i, w) in WORKLOADS.iter().enumerate() {
        let (text, doc) = read_json(&dir.join(format!("result.{}.json", w.name)))?;
        println!("# workload {}", w.name);
        for section in ["end_to_end", "per_layer"] {
            for (name, m) in members(doc.get(section)) {
                let unit = m.get("unit").and_then(JsonValue::str).unwrap_or("?");
                println!("{name} {unit} {}", field(m, "median"));
            }
        }
        let ops = doc.get("ops").and_then(JsonValue::u64).unwrap_or(0);
        let failed = doc.get("ops_failed").and_then(JsonValue::u64).unwrap_or(1);
        println!("ops count {ops}\nops_failed count {failed}");
        for f in doc
            .get("failures")
            .and_then(JsonValue::items)
            .unwrap_or(&[])
        {
            println!("# FAILED: {}", f.str().unwrap_or("?"));
        }
        any_failed |= failed > 0;
        if i > 0 {
            merged.push(',');
        }
        write_str(&mut merged, w.name);
        merged.push(':');
        merged.push_str(text.trim_end());
    }
    merged.push_str("}}\n");
    let out = dir.join("results.json");
    std::fs::write(&out, merged).map_err(|e| format!("{}: {e}", out.display()))?;
    Ok(any_failed)
}

/// `compare A.json B.json`: one row per workload × end-to-end metric of
/// two merged sets, judged with the bounds `bounds_file` (BENCHMARK.json)
/// fixes. Returns whether every row is `same`.
///
/// * `unresolved` — either side's interquartile spread is wider than the
///   bound, so the sets cannot tell a regression of that size from noise;
/// * `worse` — B's median is worse than A's by more than the bound;
/// * `same` — neither.
pub fn compare(a: &Path, b: &Path, bounds_file: &Path) -> Result<bool, String> {
    let (a, b, bounds) = (read_json(a)?.1, read_json(b)?.1, read_json(bounds_file)?.1);
    let bounds = bounds
        .get("end_to_end")
        .and_then(JsonValue::items)
        .ok_or("bounds file has no end_to_end list")?;
    println!(
        "{:<12} {:<15} {:>12} {:>7} {:>12} {:>7} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A iqr", "B median", "B iqr", "B/A", "bound"
    );
    let mut all_same = true;
    for (workload, doc_a) in members(a.get("workloads")) {
        let doc_b = b
            .get("workloads")
            .and_then(|w| w.get(workload))
            .ok_or(format!("set B lacks workload {workload}"))?;
        for rule in bounds {
            let name = rule.get("name").and_then(JsonValue::str).unwrap_or("?");
            let bound = field(rule, "bound");
            let higher = rule.get("better").and_then(JsonValue::str) == Some("higher");
            let side = |doc: &JsonValue| {
                let m = doc.get("end_to_end").and_then(|e| e.get(name));
                m.map(|m| {
                    let median = field(m, "median");
                    (median, (field(m, "q3") - field(m, "q1")).abs() / median)
                })
                .ok_or(format!("{workload} lacks metric {name}"))
            };
            let ((ma, sa), (mb, sb)) = (side(doc_a)?, side(doc_b)?);
            // Relative change in the "worse" direction, base = A's median.
            let worsening = if higher {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let verdict = if sa > bound || sb > bound {
                "unresolved"
            } else if worsening > bound {
                "worse"
            } else {
                "same"
            };
            all_same &= verdict == "same";
            println!(
                "{workload:<12} {name:<15} {ma:>12.5e} {:>6.2}% {mb:>12.5e} {:>6.2}% {:>8.4} {:>5.1}%  {verdict}",
                sa * 100.0,
                sb * 100.0,
                mb / ma,
                bound * 100.0
            );
        }
    }
    println!("# B/A is B's median over A's median (base: set A); iqr is (q3-q1)/median");
    Ok(all_same)
}
