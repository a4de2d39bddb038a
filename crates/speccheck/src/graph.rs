//! The analyzer's neutral block/link IR.
//!
//! [`SpecGraph`] is deliberately lower-level than
//! [`seqsim::SystemSpec`]: ports reference links by id and nothing
//! enforces single writers, connectedness or width bounds — those are
//! exactly the properties the analyzer *checks*. A graph extracted from
//! a well-formed `SystemSpec` is well-formed by construction; graphs
//! built by other front ends (the `rtl` netlist adapter, the malformed
//! fixtures of the diagnostic test suite) may carry any defect.

use seqsim::{CombInputs, SystemSpec};

/// What kind of storage/driver a link has beyond ordinary block wiring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkClass {
    /// An ordinary wire bundle driven by a block output port.
    Wire,
    /// A constant tie-off.
    Const(u64),
    /// A host-written register (stimuli write pointers, clocks).
    External,
}

/// One link (wire bundle / signal) of the graph.
#[derive(Debug, Clone)]
pub struct GraphLink {
    /// Width in bits (the link memory holds 1..=64; the analyzer flags
    /// everything else).
    pub width: usize,
    /// Driver class.
    pub class: LinkClass,
}

/// One block (or netlist process) of the graph.
#[derive(Debug, Clone)]
pub struct GraphBlock {
    /// Kind name (diagnostics).
    pub name: String,
    /// Link consumed by each input port (`None` = unconnected).
    pub inputs: Vec<Option<usize>>,
    /// Link driven by each output port (`None` = unconnected).
    pub outputs: Vec<Option<usize>>,
    /// Combinational input dependency of each output port.
    pub comb: Vec<CombInputs>,
    /// Whether the host can reach this block outside the link graph
    /// (side-memory stimuli rings); such blocks count as externally
    /// driven for the reachability check.
    pub host_visible: bool,
}

/// A complete block/link graph.
#[derive(Debug, Clone, Default)]
pub struct SpecGraph {
    /// The blocks.
    pub blocks: Vec<GraphBlock>,
    /// The links.
    pub links: Vec<GraphLink>,
}

impl SpecGraph {
    /// Extract the graph of a [`SystemSpec`], classifying every output
    /// port through [`seqsim::BlockKind::comb_inputs`].
    pub fn from_spec(spec: &SystemSpec) -> Self {
        let blocks = spec
            .blocks()
            .iter()
            .map(|inst| {
                let kind = &spec.kinds()[inst.kind];
                let n_out = inst.outputs.len();
                GraphBlock {
                    name: kind.name().to_string(),
                    inputs: inst
                        .inputs
                        .iter()
                        .map(|&l| (l != usize::MAX).then_some(l))
                        .collect(),
                    outputs: inst
                        .outputs
                        .iter()
                        .map(|&l| (l != usize::MAX).then_some(l))
                        .collect(),
                    comb: (0..n_out).map(|p| kind.comb_inputs(p)).collect(),
                    host_visible: !kind.side_rings().is_empty(),
                }
            })
            .collect();
        let links = spec
            .links()
            .iter()
            .map(|l| GraphLink {
                width: l.width,
                class: match l.driver {
                    seqsim::LinkDriver::Block { .. } => LinkClass::Wire,
                    seqsim::LinkDriver::Const(v) => LinkClass::Const(v),
                    seqsim::LinkDriver::External => LinkClass::External,
                },
            })
            .collect();
        SpecGraph { blocks, links }
    }

    /// Per link: the `(block, output port)` pairs driving it.
    pub fn writers(&self) -> Vec<Vec<(usize, usize)>> {
        let mut w = vec![Vec::new(); self.links.len()];
        for (b, blk) in self.blocks.iter().enumerate() {
            for (p, l) in blk.outputs.iter().enumerate() {
                if let Some(l) = *l {
                    if l < w.len() {
                        w[l].push((b, p));
                    }
                }
            }
        }
        w
    }

    /// Per link: the `(block, input port)` pairs consuming it.
    pub fn readers(&self) -> Vec<Vec<(usize, usize)>> {
        let mut r = vec![Vec::new(); self.links.len()];
        for (b, blk) in self.blocks.iter().enumerate() {
            for (i, l) in blk.inputs.iter().enumerate() {
                if let Some(l) = *l {
                    if l < r.len() {
                        r[l].push((b, i));
                    }
                }
            }
        }
        r
    }

    /// Is link `l` *combinationally* driven — i.e. does some writer's
    /// output port depend combinationally on one of that writer's
    /// inputs? Registered links (every writer a function of state only)
    /// are final after their writer's first evaluation of the cycle.
    pub fn link_is_comb(&self, l: usize, writers: &[Vec<(usize, usize)>]) -> bool {
        writers[l]
            .iter()
            .any(|&(b, p)| !self.blocks[b].comb[p].is_registered())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqsim::demo::comb_demo;

    #[test]
    fn from_spec_extracts_ports_and_classes() {
        let (spec, links) = comb_demo();
        let g = SpecGraph::from_spec(&spec);
        assert_eq!(g.blocks.len(), 3);
        assert_eq!(g.links.len(), 3);
        let writers = g.writers();
        // y0 is B0's registered output; y1/y2 are comb pass-throughs.
        assert!(!g.link_is_comb(links[0], &writers));
        assert!(g.link_is_comb(links[1], &writers));
        assert!(g.link_is_comb(links[2], &writers));
        assert_eq!(writers[links[0]], vec![(0, 0)]);
        assert_eq!(g.readers()[links[0]], vec![(1, 0)]);
    }
}
