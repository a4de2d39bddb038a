//! The lint pass and the hybrid-schedule derivation.
//!
//! Diagnostics map to the paper's scheduling theory as follows. §4.1
//! licenses a *static* schedule (one evaluation per block per cycle)
//! exactly when every input a block consumes is already settled when it
//! is reached — true for singleton SCCs of the full producer→consumer
//! graph visited in condensation-topological order, because registered
//! outputs are final after their producer's first evaluation and
//! singleton blocks are reached after all their producers. §4.2's HBR
//! fixed point is only needed *inside* multi-block SCCs, where feedback
//! makes a one-pass order impossible; the analyzer bounds the worst-case
//! re-evaluation work per SCC from the combinational port graph's depth
//! and checks the sum against the engine's divergence watchdog.

use crate::graph::{LinkClass, SpecGraph};
use crate::scc::strongly_connected_components;
use noc_types::diag::{codes, Diagnostic, Severity, Site};
use seqsim::{HybridRun, HybridSchedule, SystemSpec};
use std::collections::VecDeque;

/// Analyzer tunables.
#[derive(Debug, Clone)]
pub struct AnalyzeOptions {
    /// The engine's divergence-watchdog budget as a multiple of the
    /// block count (see `DynamicEngine::set_delta_budget`; default 64).
    pub cap_factor: usize,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions { cap_factor: 64 }
    }
}

/// One SCC of the full block graph, as the schedule sees it.
#[derive(Debug, Clone)]
pub struct SccInfo {
    /// Member block ids (ascending).
    pub blocks: Vec<usize>,
    /// Whether the run falls back to the HBR fixed point (§4.2).
    pub fixed_point: bool,
    /// Longest combinational chain (link levels) inside the SCC;
    /// `None` when the combinational port graph is cyclic (no static
    /// bound exists).
    pub comb_depth: Option<usize>,
    /// Worst-case delta cycles this SCC can spend per system cycle
    /// under the hybrid schedule (`u64::MAX` when unbounded).
    pub bound: u64,
}

/// The result of one analyzer run.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Block count of the analyzed graph.
    pub n_blocks: usize,
    /// Link count of the analyzed graph.
    pub n_links: usize,
    /// Producer→consumer edges classified combinational.
    pub comb_edges: usize,
    /// Producer→consumer edges classified registered.
    pub registered_edges: usize,
    /// Every finding, sorted by `(code, site)` with exact repeats
    /// removed (see [`normalize_diagnostics`]) so reports are stable
    /// across analyzer-internal ordering changes.
    pub diagnostics: Vec<Diagnostic>,
    /// The SCCs of the full block graph in schedule (topological)
    /// order.
    pub sccs: Vec<SccInfo>,
    /// The derived hybrid schedule; `None` when error-severity
    /// diagnostics make the graph unschedulable.
    pub schedule: Option<HybridSchedule>,
    /// Worst-case delta cycles per system cycle summed over all SCCs
    /// (`u64::MAX` when some SCC is unbounded).
    pub convergence_bound: u64,
    /// The watchdog budget the bound is checked against
    /// (`cap_factor × blocks`).
    pub watchdog_budget: u64,
}

impl Analysis {
    /// The highest severity among the diagnostics, if any.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Any error-severity findings?
    pub fn has_errors(&self) -> bool {
        self.max_severity() == Some(Severity::Error)
    }

    /// The diagnostics of exactly `severity`.
    pub fn with_severity(&self, severity: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(move |d| d.severity == severity)
    }

    /// Block → SCC index map over the schedule-ordered
    /// [`sccs`](Self::sccs) — the attribution table a profiler needs to
    /// charge block self-time to its condensation component.
    pub fn scc_of(&self) -> Vec<usize> {
        let mut map = vec![0usize; self.n_blocks];
        for (s, scc) in self.sccs.iter().enumerate() {
            for &b in &scc.blocks {
                map[b] = s;
            }
        }
        map
    }

    /// Render the whole report as one JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push('{');
        s.push_str(&format!(
            "\"blocks\":{},\"links\":{},\"comb_edges\":{},\"registered_edges\":{},",
            self.n_blocks, self.n_links, self.comb_edges, self.registered_edges
        ));
        s.push_str(&format!(
            "\"sccs\":{},\"static_blocks\":{},\"fixed_point_blocks\":{},",
            self.sccs.len(),
            self.schedule.as_ref().map_or(0, |h| h.static_blocks()),
            self.schedule
                .as_ref()
                .map_or(0, |h| h.order.len() - h.static_blocks()),
        ));
        if self.convergence_bound == u64::MAX {
            s.push_str("\"convergence_bound\":null,");
        } else {
            s.push_str(&format!(
                "\"convergence_bound\":{},",
                self.convergence_bound
            ));
        }
        s.push_str(&format!("\"watchdog_budget\":{},", self.watchdog_budget));
        s.push_str(&format!(
            "\"max_severity\":{},",
            self.max_severity()
                .map_or("null".to_string(), |sev| format!("\"{sev}\""))
        ));
        s.push_str("\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&d.to_json());
        }
        s.push_str("]}");
        s
    }
}

/// Analyze a [`SystemSpec`] (extract the graph, then
/// [`analyze_graph`] with default options).
pub fn analyze_spec(spec: &SystemSpec) -> Analysis {
    analyze_graph(&SpecGraph::from_spec(spec), &AnalyzeOptions::default())
}

/// Run the structural lints and derive the hybrid schedule for `g`.
pub fn analyze_graph(g: &SpecGraph, opts: &AnalyzeOptions) -> Analysis {
    let n = g.blocks.len();
    let nl = g.links.len();
    let writers = g.writers();
    let readers = g.readers();
    let mut ds: Vec<Diagnostic> = Vec::new();

    // ---- port-level structural checks -------------------------------
    for (b, blk) in g.blocks.iter().enumerate() {
        for (i, l) in blk.inputs.iter().enumerate() {
            match *l {
                None => ds.push(Diagnostic::new(
                    Severity::Error,
                    codes::UNCONNECTED_INPUT,
                    Site::InputPort { block: b, port: i },
                    format!("block {b} ({}) input {i} unconnected", blk.name),
                )),
                Some(l) if l >= nl => ds.push(Diagnostic::new(
                    Severity::Error,
                    codes::UNCONNECTED_INPUT,
                    Site::InputPort { block: b, port: i },
                    format!("block {b} input {i} references nonexistent link {l}"),
                )),
                Some(_) => {}
            }
        }
        for (o, l) in blk.outputs.iter().enumerate() {
            match *l {
                None => ds.push(Diagnostic::new(
                    Severity::Error,
                    codes::UNCONNECTED_OUTPUT,
                    Site::OutputPort { block: b, port: o },
                    format!("block {b} ({}) output {o} unconnected", blk.name),
                )),
                Some(l) if l >= nl => ds.push(Diagnostic::new(
                    Severity::Error,
                    codes::UNCONNECTED_OUTPUT,
                    Site::OutputPort { block: b, port: o },
                    format!("block {b} output {o} references nonexistent link {l}"),
                )),
                Some(_) => {}
            }
        }
    }

    // ---- link-level checks ------------------------------------------
    for (l, link) in g.links.iter().enumerate() {
        if link.width == 0 || link.width > 64 {
            ds.push(Diagnostic::new(
                Severity::Error,
                codes::WIDTH_OVERFLOW,
                Site::Link(l),
                format!(
                    "link {l} is {} bits wide; the link memory holds 1..=64",
                    link.width
                ),
            ));
        }
        let block_writers = writers[l].len();
        let non_block_writer = !matches!(link.class, LinkClass::Wire);
        if block_writers + usize::from(non_block_writer) > 1 {
            let who: Vec<String> = writers[l]
                .iter()
                .map(|&(b, p)| format!("block {b} output {p}"))
                .chain(non_block_writer.then(|| "a non-block driver".to_string()))
                .collect();
            ds.push(Diagnostic::new(
                Severity::Error,
                codes::MULTIPLE_WRITER,
                Site::Link(l),
                format!("link {l} is driven by {}", who.join(" and ")),
            ));
        }
        if matches!(link.class, LinkClass::Wire) && block_writers == 0 {
            ds.push(Diagnostic::new(
                Severity::Warning,
                codes::NEVER_WRITTEN,
                Site::Link(l),
                format!(
                    "link {l} is a wire no output port drives; it holds its reset value forever"
                ),
            ));
        }
        if readers[l].is_empty() {
            let (severity, what) = match link.class {
                // The explicit-sink idiom (mesh edge probes).
                LinkClass::Wire if block_writers > 0 => (Severity::Info, "an explicit sink/probe"),
                // Dead but harmless.
                LinkClass::Const(_) => (Severity::Info, "an unused constant tie-off"),
                _ => (Severity::Warning, "written but never consumed"),
            };
            ds.push(Diagnostic::new(
                severity,
                codes::NEVER_READ,
                Site::Link(l),
                format!("link {l} has no consumer ({what})"),
            ));
        }
    }

    // ---- combinational self-loops -----------------------------------
    for (b, blk) in g.blocks.iter().enumerate() {
        for (p, l) in blk.outputs.iter().enumerate() {
            let Some(l) = *l else { continue };
            if l >= nl {
                continue;
            }
            for &(c, i) in &readers[l] {
                if c == b && blk.comb[p].depends_on(i) {
                    ds.push(Diagnostic::new(
                        Severity::Error,
                        codes::COMB_SELF_LOOP,
                        Site::OutputPort { block: b, port: p },
                        format!(
                            "block {b} ({}) output {p} feeds back combinationally into \
                             its own input {i} through link {l}: no HBR fixed point is \
                             structurally guaranteed",
                            blk.name
                        ),
                    ));
                }
            }
        }
    }

    // ---- full block graph + reachability ----------------------------
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut comb_edges = 0usize;
    let mut registered_edges = 0usize;
    for l in 0..nl {
        let comb = g.link_is_comb(l, &writers);
        for &(wb, _) in &writers[l] {
            for &(rb, _) in &readers[l] {
                if comb {
                    comb_edges += 1;
                } else {
                    registered_edges += 1;
                }
                if wb != rb && !adj[wb].contains(&rb) {
                    adj[wb].push(rb);
                }
            }
        }
    }
    adj.iter_mut().for_each(|v| v.sort_unstable());

    let mut sources: Vec<usize> = (0..n)
        .filter(|&b| {
            g.blocks[b].host_visible
                || g.blocks[b]
                    .inputs
                    .iter()
                    .flatten()
                    .any(|&l| l < nl && matches!(g.links[l].class, LinkClass::External))
        })
        .collect();
    if !sources.is_empty() {
        let mut reached = vec![false; n];
        let mut queue: VecDeque<usize> = sources.drain(..).collect();
        queue.iter().for_each(|&b| reached[b] = true);
        while let Some(b) = queue.pop_front() {
            for &c in &adj[b] {
                if !reached[c] {
                    reached[c] = true;
                    queue.push_back(c);
                }
            }
        }
        for b in 0..n {
            if !reached[b] {
                ds.push(Diagnostic::new(
                    Severity::Warning,
                    codes::UNREACHABLE_BLOCK,
                    Site::Block(b),
                    format!(
                        "block {b} ({}) is unreachable from every external/host input",
                        g.blocks[b].name
                    ),
                ));
            }
        }
    }
    // (A closed autonomous system — no external or host inputs at all —
    // skips the reachability check: everything is "unreachable" by the
    // host and deliberately so, like the paper's Fig 2/Fig 4 demos.)

    // ---- combinational port (link-level) graph ----------------------
    // Nodes are links; `l1 → l2` when some block reads `l1` at an input
    // its output driving `l2` combinationally depends on. Longest-path
    // levels bound how far a mid-cycle change can propagate; a cycle
    // here means no static convergence bound exists.
    let mut ladj: Vec<Vec<usize>> = vec![Vec::new(); nl];
    let mut indeg = vec![0usize; nl];
    for blk in &g.blocks {
        for (p, lo) in blk.outputs.iter().enumerate() {
            let Some(lo) = *lo else { continue };
            if lo >= nl {
                continue;
            }
            for (i, li) in blk.inputs.iter().enumerate() {
                let Some(li) = *li else { continue };
                if li >= nl || !blk.comb[p].depends_on(i) {
                    continue;
                }
                if !ladj[li].contains(&lo) {
                    ladj[li].push(lo);
                    indeg[lo] += 1;
                }
            }
        }
    }
    let mut level = vec![0usize; nl];
    let mut queue: VecDeque<usize> = (0..nl).filter(|&l| indeg[l] == 0).collect();
    let mut processed = 0usize;
    while let Some(l) = queue.pop_front() {
        processed += 1;
        for &m in &ladj[l] {
            level[m] = level[m].max(level[l] + 1);
            indeg[m] -= 1;
            if indeg[m] == 0 {
                queue.push_back(m);
            }
        }
    }
    let comb_cyclic = processed < nl;
    if comb_cyclic {
        let cyclic: Vec<usize> = (0..nl).filter(|&l| indeg[l] > 0).collect();
        ds.push(Diagnostic::new(
            Severity::Warning,
            codes::CONVERGENCE_BUDGET,
            Site::System,
            format!(
                "combinational cycle through links {cyclic:?}: no static convergence \
                 bound exists; the divergence watchdog is the only backstop"
            ),
        ));
    }

    // ---- SCC condensation + hybrid schedule -------------------------
    let comps = strongly_connected_components(&adj);
    let self_looped: Vec<bool> = (0..n).map(|b| adj[b].contains(&b)).collect();
    let mut sccs: Vec<SccInfo> = Vec::with_capacity(comps.len());
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut runs: Vec<HybridRun> = Vec::with_capacity(comps.len());
    let mut bound_total: u64 = 0;
    // Tarjan emits reverse topological order; the schedule wants
    // topological.
    for comp in comps.iter().rev() {
        let fixed_point = comp.len() > 1 || self_looped[comp[0]];
        let members = if comp.len() > 1 {
            two_color_order(g, comp, &writers, &readers)
        } else {
            comp.clone()
        };
        // Depth of combinational chains whose endpoints both live in
        // this SCC (`None` when the comb graph is cyclic).
        let comb_depth = if comb_cyclic {
            None
        } else {
            let in_comp = |b: usize| comp.binary_search(&b).is_ok();
            let mut depth = 0usize;
            for l in 0..nl {
                let internal = writers[l].iter().any(|&(b, _)| in_comp(b))
                    && readers[l].iter().any(|&(b, _)| in_comp(b));
                if internal && g.link_is_comb(l, &writers) {
                    depth = depth.max(level[l] + 1);
                }
            }
            Some(depth)
        };
        let bound = if !fixed_point {
            1
        } else {
            match comb_depth {
                // Every member evaluates once, plus in the worst case one
                // re-evaluation per member per combinational level, plus
                // one settling sweep.
                Some(d) => (comp.len() as u64).saturating_mul(d as u64 + 2),
                None => u64::MAX,
            }
        };
        bound_total = bound_total.saturating_add(bound);
        runs.push(HybridRun {
            start: order.len(),
            len: members.len(),
            fixed_point,
        });
        order.extend_from_slice(&members);
        sccs.push(SccInfo {
            blocks: comp.clone(),
            fixed_point,
            comb_depth,
            bound,
        });
    }
    let watchdog_budget = (opts.cap_factor as u64).saturating_mul(n as u64);
    if bound_total > watchdog_budget && !comb_cyclic {
        ds.push(Diagnostic::new(
            Severity::Warning,
            codes::CONVERGENCE_BUDGET,
            Site::System,
            format!(
                "worst-case convergence bound {bound_total} delta cycles exceeds the \
                 divergence watchdog budget {watchdog_budget} ({}×{n}); raise the \
                 budget or break the combinational coupling",
                opts.cap_factor
            ),
        ));
    }

    let has_errors = ds.iter().any(|d| d.severity == Severity::Error);
    let schedule = if has_errors || n == 0 {
        None
    } else {
        let h = HybridSchedule { order, runs };
        h.assert_valid(n);
        Some(h)
    };

    normalize_diagnostics(&mut ds);

    Analysis {
        n_blocks: n,
        n_links: nl,
        comb_edges,
        registered_edges,
        diagnostics: ds,
        sccs,
        schedule,
        convergence_bound: bound_total,
        watchdog_budget,
    }
}

/// Canonicalize a diagnostic list for emission: sort by
/// `(code, site, severity, message)` and drop exact repeats, so the
/// report is deterministic under analyzer-internal ordering changes and
/// a defect detected by two passes surfaces once.
pub fn normalize_diagnostics(ds: &mut Vec<Diagnostic>) {
    fn site_key(s: &Site) -> (u8, usize, usize) {
        match *s {
            Site::System => (0, 0, 0),
            Site::Block(b) => (1, b, 0),
            Site::Link(l) => (2, l, 0),
            Site::InputPort { block, port } => (3, block, port),
            Site::OutputPort { block, port } => (4, block, port),
        }
    }
    ds.sort_by(|a, b| {
        (a.code, site_key(&a.site), a.severity, a.message.as_str()).cmp(&(
            b.code,
            site_key(&b.site),
            b.severity,
            b.message.as_str(),
        ))
    });
    ds.dedup();
}

/// Order a multi-block SCC's members by greedy two-coloring of their
/// *combinational* adjacency (red-black / Gauss–Seidel style): all
/// color-0 blocks first, then color-1, each ascending.
///
/// Rationale: a registered output changes value only across system
/// cycles, so within a cycle it is final after its producer's first
/// evaluation. A consumer that evaluates *after* every producer it
/// combinationally depends on reads only final values and is never
/// re-armed. On a bipartite SCC (the NoC mesh: combinational `fwd`
/// edges connect grid neighbours) the two-coloring makes the entire
/// second color class read only settled first-class outputs — halving
/// the worst-case re-evaluations versus an arbitrary order.
fn two_color_order(
    g: &SpecGraph,
    comp: &[usize],
    writers: &[Vec<(usize, usize)>],
    readers: &[Vec<(usize, usize)>],
) -> Vec<usize> {
    let in_comp: std::collections::HashMap<usize, usize> =
        comp.iter().enumerate().map(|(i, &b)| (b, i)).collect();
    // Undirected combinational adjacency within the component.
    let mut nadj: Vec<Vec<usize>> = vec![Vec::new(); comp.len()];
    for l in 0..g.links.len() {
        if !g.link_is_comb(l, writers) {
            continue;
        }
        for &(wb, _) in &writers[l] {
            for &(rb, _) in &readers[l] {
                let (Some(&wi), Some(&ri)) = (in_comp.get(&wb), in_comp.get(&rb)) else {
                    continue;
                };
                if wi != ri {
                    if !nadj[wi].contains(&ri) {
                        nadj[wi].push(ri);
                    }
                    if !nadj[ri].contains(&wi) {
                        nadj[ri].push(wi);
                    }
                }
            }
        }
    }
    nadj.iter_mut().for_each(|v| v.sort_unstable());
    // Greedy BFS coloring (deterministic: ascending roots/neighbours).
    let mut color = vec![u8::MAX; comp.len()];
    let mut queue = VecDeque::new();
    for root in 0..comp.len() {
        if color[root] != u8::MAX {
            continue;
        }
        color[root] = 0;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            for &w in &nadj[v] {
                if color[w] == u8::MAX {
                    color[w] = 1 - color[v];
                    queue.push_back(w);
                }
            }
        }
    }
    let mut out: Vec<usize> = Vec::with_capacity(comp.len());
    for want in [0u8, 1] {
        for (i, &b) in comp.iter().enumerate() {
            if color[i] == want {
                out.push(b);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqsim::demo::{comb_demo, registered_demo};

    #[test]
    fn comb_demo_condenses_to_one_fixed_point_scc() {
        let (spec, _) = comb_demo();
        let a = analyze_spec(&spec);
        assert!(!a.has_errors(), "{:?}", a.diagnostics);
        // The full graph is the ring B0→B1→B2→B0: one SCC, fixed point.
        assert_eq!(a.sccs.len(), 1);
        assert!(a.sccs[0].fixed_point);
        let h = a.schedule.expect("schedule");
        assert_eq!(h.static_blocks(), 0);
        assert_eq!(h.order.len(), 3);
        // One registered edge (B0's output) and two comb edges.
        assert_eq!(a.registered_edges, 1);
        assert_eq!(a.comb_edges, 2);
        assert!(a.convergence_bound <= a.watchdog_budget);
    }

    #[test]
    fn registered_demo_is_all_comb_ring() {
        // Fig 2's blocks are stateless pass-throughs (`out = f(in)`),
        // so under *wire* semantics the ring is one combinational SCC —
        // the structural fact that makes the StaticEngine's
        // double-banked links (not a one-pass dynamic order) the right
        // §4.1 execution for it.
        let (spec, _) = registered_demo([1, 2, 3]);
        let a = analyze_spec(&spec);
        assert!(!a.has_errors());
        assert_eq!(a.sccs.len(), 1);
        assert!(a.sccs[0].fixed_point);
        // Comb ring ⇒ no static convergence bound.
        assert_eq!(a.sccs[0].comb_depth, None);
        assert!(a
            .diagnostics
            .iter()
            .any(|d| d.code == codes::CONVERGENCE_BUDGET));
    }

    #[test]
    fn acyclic_comb_graph_has_no_convergence_budget_lint() {
        let (spec, _) = comb_demo();
        let a = analyze_spec(&spec);
        assert!(a
            .diagnostics
            .iter()
            .all(|d| d.code != codes::CONVERGENCE_BUDGET));
    }

    #[test]
    fn chain_of_registered_blocks_schedules_statically() {
        use seqsim::demo::CombDemoKind;
        use seqsim::SystemSpec;
        // B0 → B1 → B2, all with registered outputs, plus an external
        // poke into B0 so reachability has a source.
        let mut spec = SystemSpec::new();
        let k = spec.add_kind(Box::new(CombDemoKind::new(0)));
        let b0 = spec.add_block(k);
        let b1 = spec.add_block(k);
        let b2 = spec.add_block(k);
        spec.external((b0, 0), 0);
        spec.wire((b0, 0), (b1, 0));
        spec.wire((b1, 0), (b2, 0));
        spec.sink((b2, 0));
        let a = analyze_spec(&spec);
        assert!(!a.has_errors(), "{:?}", a.diagnostics);
        let h = a.schedule.expect("schedule");
        // An acyclic chain: every SCC is a singleton, evaluated once, in
        // topological order.
        assert_eq!(h.static_blocks(), 3);
        assert_eq!(h.order, vec![b0, b1, b2]);
        assert_eq!(a.convergence_bound, 3);
    }

    #[test]
    fn two_coloring_is_a_permutation_on_a_ring() {
        let (spec, _) = comb_demo();
        let a = analyze_spec(&spec);
        let h = a.schedule.expect("schedule");
        let mut sorted = h.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn json_report_is_well_formed_enough() {
        let (spec, _) = comb_demo();
        let a = analyze_spec(&spec);
        let j = a.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"blocks\":3"));
        assert!(j.contains("\"diagnostics\":["));
    }
}
