//! # prof — graph-attributed kernel profiles
//!
//! The data model behind `simprof`: a [`ProfileReport`] holds one run's
//! per-block self-time/eval/HBR-retry totals, attributed to the SCCs of
//! the `speccheck` condensation the scheduler actually ran. The kernels
//! fill it in (see `seqsim::KernelProfiler`); this module owns the
//! serialized forms:
//!
//! * [`ProfileReport::to_json`] / [`ProfileReport::from_json`] — the
//!   ranked-hotspot JSON report, deterministic byte-for-byte;
//! * [`ProfileReport::collapsed`] — collapsed-stack flamegraph text
//!   (`engine;sccN;block self_ns` per line) for `flamegraph.pl`,
//!   speedscope or `inferno`;
//! * [`ProfileReport::diff`] — per-block deltas between two runs, the
//!   regression view `simprof diff` prints.

use crate::json::{self, JsonValue};

/// One block's profile totals, attributed to its SCC.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileEntry {
    /// Index of the SCC this block belongs to in the condensation.
    pub scc: usize,
    /// Block index inside the engine.
    pub block: usize,
    /// Human-readable block name (from the spec graph).
    pub name: String,
    /// True when the block sits in a multi-block SCC that needs
    /// fixed-point iteration (HBR retries) to stabilize.
    pub fixed_point: bool,
    /// Total evaluations of this block.
    pub evals: u64,
    /// Evaluations that were HBR-forced re-evaluations.
    pub hbr_retries: u64,
    /// Evaluations an activity-gated engine skipped because the block
    /// was asleep (not part of `evals`; 0 on ungated engines).
    pub skipped: u64,
    /// Estimated self time in nanoseconds (sampled, then scaled to the
    /// full eval count).
    pub self_ns: u64,
}

/// Convergence accounting for one multi-block SCC.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SccProfile {
    /// SCC index in the condensation.
    pub scc: usize,
    /// Number of blocks in the SCC.
    pub blocks: usize,
    /// Static convergence bound from `speccheck` (delta cycles the SCC
    /// is allowed to take).
    pub bound: u64,
    /// Largest number of delta rounds the SCC actually consumed in any
    /// one system cycle.
    pub consumed_max: u64,
    /// HBR retries charged to the SCC across the run.
    pub hbr_retries: u64,
}

/// A complete profile of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileReport {
    /// Engine id the profile came from (e.g. `seqsim`,
    /// `seqsim-compiled`).
    pub engine: String,
    /// System cycles covered.
    pub cycles: u64,
    /// Wall-clock seconds of the profiled region (0 when unknown; the
    /// runner fills it in).
    pub wall_s: f64,
    /// Per-block rows, ascending block index.
    pub entries: Vec<ProfileEntry>,
    /// Per-SCC convergence rows for multi-block SCCs only.
    pub sccs: Vec<SccProfile>,
}

/// One row of a profile diff: a block's totals in both runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffRow {
    /// Block name (join key between the two reports).
    pub name: String,
    /// Self time in the baseline run (ns).
    pub old_self_ns: u64,
    /// Self time in the new run (ns).
    pub new_self_ns: u64,
    /// Evals in the baseline run.
    pub old_evals: u64,
    /// Evals in the new run.
    pub new_evals: u64,
}

impl DiffRow {
    /// Signed self-time delta in nanoseconds (`new - old`).
    pub fn delta_ns(&self) -> i64 {
        self.new_self_ns as i64 - self.old_self_ns as i64
    }

    /// `new / old` self-time ratio (`inf` when the block is new).
    pub fn ratio(&self) -> f64 {
        if self.old_self_ns == 0 {
            if self.new_self_ns == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.new_self_ns as f64 / self.old_self_ns as f64
        }
    }
}

impl ProfileReport {
    /// Total self time across all blocks, nanoseconds.
    pub fn self_ns_total(&self) -> u64 {
        self.entries.iter().map(|e| e.self_ns).sum()
    }

    /// Total evaluations across all blocks.
    pub fn evals_total(&self) -> u64 {
        self.entries.iter().map(|e| e.evals).sum()
    }

    /// Total gate-skipped evaluations across all blocks.
    pub fn skipped_total(&self) -> u64 {
        self.entries.iter().map(|e| e.skipped).sum()
    }

    /// The `n` hottest blocks by self time (ties broken by eval count,
    /// then block index for determinism).
    pub fn hotspots(&self, n: usize) -> Vec<&ProfileEntry> {
        let mut rows: Vec<&ProfileEntry> = self.entries.iter().collect();
        rows.sort_by(|a, b| {
            b.self_ns
                .cmp(&a.self_ns)
                .then(b.evals.cmp(&a.evals))
                .then(a.block.cmp(&b.block))
        });
        rows.truncate(n);
        rows
    }

    /// Collapsed-stack flamegraph text: one line per block,
    /// `engine;sccN[+fp];name self_ns`. Stack frames never contain
    /// spaces or semicolons (both are escaped to `_`), values are the
    /// sampled-and-scaled self time in nanoseconds.
    pub fn collapsed(&self) -> String {
        let mut out = String::with_capacity(self.entries.len() * 48);
        for e in &self.entries {
            if e.self_ns == 0 && e.evals == 0 {
                continue;
            }
            out.push_str(&frame(&self.engine));
            out.push(';');
            out.push_str("scc");
            out.push_str(&e.scc.to_string());
            if e.fixed_point {
                out.push_str("+fp");
            }
            out.push(';');
            out.push_str(&frame(&e.name));
            out.push(' ');
            out.push_str(&e.self_ns.to_string());
            out.push('\n');
        }
        out
    }

    /// Deterministic JSON rendering of the full report, hotspots
    /// pre-ranked under `"ranked"` as block indices.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096 + self.entries.len() * 128);
        out.push_str("{\"engine\":");
        json::write_str(&mut out, &self.engine);
        out.push_str(",\"cycles\":");
        out.push_str(&self.cycles.to_string());
        out.push_str(",\"wall_s\":");
        json::write_f64(&mut out, self.wall_s);
        out.push_str(",\"self_ns_total\":");
        out.push_str(&self.self_ns_total().to_string());
        out.push_str(",\"ranked\":[");
        for (i, e) in self.hotspots(usize::MAX).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&e.block.to_string());
        }
        out.push_str("],\"blocks\":[");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"block\":");
            out.push_str(&e.block.to_string());
            out.push_str(",\"name\":");
            json::write_str(&mut out, &e.name);
            out.push_str(",\"scc\":");
            out.push_str(&e.scc.to_string());
            out.push_str(",\"fixed_point\":");
            out.push_str(if e.fixed_point { "true" } else { "false" });
            out.push_str(",\"evals\":");
            out.push_str(&e.evals.to_string());
            out.push_str(",\"hbr_retries\":");
            out.push_str(&e.hbr_retries.to_string());
            out.push_str(",\"skipped\":");
            out.push_str(&e.skipped.to_string());
            out.push_str(",\"self_ns\":");
            out.push_str(&e.self_ns.to_string());
            out.push('}');
        }
        out.push_str("],\"sccs\":[");
        for (i, s) in self.sccs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"scc\":");
            out.push_str(&s.scc.to_string());
            out.push_str(",\"blocks\":");
            out.push_str(&s.blocks.to_string());
            out.push_str(",\"bound\":");
            out.push_str(&s.bound.to_string());
            out.push_str(",\"consumed_max\":");
            out.push_str(&s.consumed_max.to_string());
            out.push_str(",\"hbr_retries\":");
            out.push_str(&s.hbr_retries.to_string());
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Parse a report back from its [`ProfileReport::to_json`] form.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let doc = json::parse(s)?;
        let u = |v: &JsonValue, key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(JsonValue::u64)
                .ok_or_else(|| format!("profile row missing {key}"))
        };
        let mut report = ProfileReport {
            engine: doc
                .get("engine")
                .and_then(JsonValue::str)
                .ok_or("profile missing engine")?
                .to_string(),
            cycles: u(&doc, "cycles")?,
            wall_s: doc.get("wall_s").and_then(JsonValue::num).unwrap_or(0.0),
            entries: Vec::new(),
            sccs: Vec::new(),
        };
        for b in doc.get("blocks").and_then(JsonValue::items).unwrap_or(&[]) {
            report.entries.push(ProfileEntry {
                scc: u(b, "scc")? as usize,
                block: u(b, "block")? as usize,
                name: b
                    .get("name")
                    .and_then(JsonValue::str)
                    .ok_or("block row missing name")?
                    .to_string(),
                fixed_point: matches!(b.get("fixed_point"), Some(JsonValue::Bool(true))),
                evals: u(b, "evals")?,
                hbr_retries: u(b, "hbr_retries")?,
                // Absent in profiles written before gating existed.
                skipped: b.get("skipped").and_then(JsonValue::u64).unwrap_or(0),
                self_ns: u(b, "self_ns")?,
            });
        }
        for s in doc.get("sccs").and_then(JsonValue::items).unwrap_or(&[]) {
            report.sccs.push(SccProfile {
                scc: u(s, "scc")? as usize,
                blocks: u(s, "blocks")? as usize,
                bound: u(s, "bound")?,
                consumed_max: u(s, "consumed_max")?,
                hbr_retries: u(s, "hbr_retries")?,
            });
        }
        Ok(report)
    }

    /// Per-block deltas between `self` (baseline) and `new`, joined by
    /// block name, sorted by regression severity (largest self-time
    /// increase first). Blocks present in only one run still appear,
    /// with zeros on the missing side.
    pub fn diff(&self, new: &ProfileReport) -> Vec<DiffRow> {
        let mut rows: Vec<DiffRow> = Vec::new();
        for e in &self.entries {
            let row = rows_entry(&mut rows, &e.name);
            row.old_self_ns += e.self_ns;
            row.old_evals += e.evals;
        }
        for e in &new.entries {
            let row = rows_entry(&mut rows, &e.name);
            row.new_self_ns += e.self_ns;
            row.new_evals += e.evals;
        }
        rows.sort_by(|a, b| {
            b.delta_ns()
                .cmp(&a.delta_ns())
                .then_with(|| a.name.cmp(&b.name))
        });
        rows
    }
}

fn rows_entry<'a>(rows: &'a mut Vec<DiffRow>, name: &str) -> &'a mut DiffRow {
    if let Some(i) = rows.iter().position(|r| r.name == name) {
        &mut rows[i]
    } else {
        rows.push(DiffRow {
            name: name.to_string(),
            ..DiffRow::default()
        });
        let last = rows.len() - 1;
        &mut rows[last]
    }
}

/// Sanitize a string for use as a collapsed-stack frame: spaces and
/// semicolons become `_` so downstream flamegraph tools keep the stack
/// intact.
fn frame(s: &str) -> String {
    s.chars()
        .map(|c| if c == ' ' || c == ';' { '_' } else { c })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProfileReport {
        ProfileReport {
            engine: "seqsim".into(),
            cycles: 100,
            wall_s: 0.5,
            entries: vec![
                ProfileEntry {
                    scc: 0,
                    block: 0,
                    name: "router 0".into(),
                    fixed_point: true,
                    evals: 400,
                    hbr_retries: 40,
                    skipped: 0,
                    self_ns: 9000,
                },
                ProfileEntry {
                    scc: 1,
                    block: 1,
                    name: "ni;1".into(),
                    fixed_point: false,
                    evals: 100,
                    hbr_retries: 0,
                    skipped: 25,
                    self_ns: 1000,
                },
            ],
            sccs: vec![SccProfile {
                scc: 0,
                blocks: 2,
                bound: 5,
                consumed_max: 3,
                hbr_retries: 40,
            }],
        }
    }

    #[test]
    fn json_round_trip_is_lossless_and_deterministic() {
        let r = sample();
        let j = r.to_json();
        assert_eq!(j, r.to_json());
        crate::json::validate(&j).expect("profile json valid");
        let back = ProfileReport::from_json(&j).expect("parse back");
        assert_eq!(back, r);
        // Ranked order: block 0 (9000 ns) before block 1.
        assert!(j.contains("\"ranked\":[0,1]"));
    }

    #[test]
    fn collapsed_stacks_are_wellformed() {
        let folded = sample().collapsed();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(
            lines,
            ["seqsim;scc0+fp;router_0 9000", "seqsim;scc1;ni_1 1000",]
        );
        for line in &lines {
            let (stack, value) = line.rsplit_once(' ').expect("value separator");
            assert_eq!(stack.split(';').count(), 3);
            value.parse::<u64>().expect("numeric value");
        }
    }

    #[test]
    fn diff_ranks_regressions_and_handles_missing_blocks() {
        let old = sample();
        let mut new = sample();
        new.entries[1].self_ns = 8000; // ni regressed 8x
        new.entries.remove(0); // router vanished
        new.entries.push(ProfileEntry {
            name: "fresh".into(),
            self_ns: 50,
            ..ProfileEntry::default()
        });
        let rows = old.diff(&new);
        assert_eq!(rows[0].name, "ni;1");
        assert_eq!(rows[0].delta_ns(), 7000);
        assert!((rows[0].ratio() - 8.0).abs() < 1e-9);
        let fresh = rows.iter().find(|r| r.name == "fresh").expect("fresh row");
        assert!(fresh.ratio().is_infinite());
        let gone = rows
            .iter()
            .find(|r| r.name == "router 0")
            .expect("gone row");
        assert_eq!(gone.new_self_ns, 0);
        assert_eq!(gone.delta_ns(), -9000);
    }

    #[test]
    fn hotspots_truncate_and_tiebreak() {
        let r = sample();
        let top = r.hotspots(1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].block, 0);
    }
}
