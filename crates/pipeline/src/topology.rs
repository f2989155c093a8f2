//! DAG pipeline topologies: reconvergent stage graphs.
//!
//! A real processor's stage boundaries form a DAG, not a chain —
//! execute results fan out to both the bypass network and the register
//! file, and reconvergent paths meet again at writeback. The TIMBER
//! error relay's *max over the fanin cone* consolidation rule (paper
//! §5.1, Fig. 4) only becomes visible on such topologies: a boundary
//! fed by two upstream TIMBER flops must prepare for the worse of
//! their borrowings.
//!
//! [`Topology`] describes the boundary DAG. `PipelineSim::on_topology`
//! carries borrowed time and relay chains along its edges, and hands
//! the topology to the scheme's `reset`, so the TIMBER flip-flop's
//! relay (`timber_schemes::LawScheme`) sends select outputs along the
//! same edges.

/// A DAG of stage boundaries in topological index order.
///
/// The successor lists are stored flat, so a simulator walks a
/// boundary's fanout without allocating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// `succs[starts[b]..starts[b + 1]]` are the boundaries that
    /// boundary `b` launches into, ascending.
    starts: Vec<usize>,
    succs: Vec<usize>,
}

impl Topology {
    /// Builds a topology from per-boundary predecessor lists.
    ///
    /// # Panics
    ///
    /// Panics if `preds` is empty or any predecessor index is not
    /// strictly smaller than its boundary (indices must already be a
    /// topological order).
    pub fn new(preds: Vec<Vec<usize>>) -> Topology {
        assert!(!preds.is_empty(), "topology needs at least one boundary");
        let mut edges = Vec::new();
        for (b, ps) in preds.iter().enumerate() {
            for &p in ps {
                assert!(
                    p < b,
                    "predecessor {p} of boundary {b} violates topological order"
                );
                edges.push((p, b));
            }
        }
        edges.sort_unstable();
        Topology {
            starts: (0..=preds.len())
                .map(|b| edges.partition_point(|&(p, _)| p < b))
                .collect(),
            succs: edges.into_iter().map(|(_, b)| b).collect(),
        }
    }

    /// A linear chain of `n` boundaries (the classic 5-stage pipe).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn linear(n: usize) -> Topology {
        assert!(n > 0, "topology needs at least one boundary");
        Topology {
            starts: (0..=n).map(|b| b.min(n - 1)).collect(),
            succs: (1..n).collect(),
        }
    }

    /// The canonical reconvergent shape: boundary 0 fans out to 1 and
    /// 2, which reconverge at 3 (execute → {bypass, regfile} →
    /// writeback).
    pub fn diamond() -> Topology {
        Topology::new(vec![vec![], vec![0], vec![0], vec![1, 2]])
    }

    /// Number of boundaries.
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// True when the topology has no boundaries (never constructed).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The boundaries `b` launches into, ascending; empty for a sink.
    pub fn successors(&self, b: usize) -> &[usize] {
        &self.succs[self.starts[b]..self.starts[b + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doubles::BorrowAll;
    use crate::reference::MarginedFlop;
    use crate::sim::{PipelineConfig, PipelineSim};
    use timber_netlist::Picos;
    use timber_variability::{CompositeVariability, SensitizationModel, StagePathProfile};

    #[test]
    fn topology_constructors_validate() {
        let lin = Topology::linear(5);
        assert_eq!(lin.len(), 5);
        assert_eq!(lin.successors(0), &[1]);
        assert_eq!(lin.successors(4), &[] as &[usize]);
        assert_eq!(
            lin,
            Topology::new(vec![vec![], vec![0], vec![1], vec![2], vec![3]])
        );
        assert_eq!(Topology::linear(1).successors(0), &[] as &[usize]);
        let d = Topology::diamond();
        assert_eq!(d.successors(0), &[1, 2]);
        assert_eq!(d.successors(1), &[3]);
        assert_eq!(d.successors(2), &[3]);
        assert_eq!(d.successors(3), &[] as &[usize]);
        assert!(!d.is_empty());
    }

    #[test]
    #[should_panic(expected = "topological order")]
    fn forward_edges_rejected() {
        let _ = Topology::new(vec![vec![1], vec![]]);
    }

    /// Sensitization forcing each boundary's critical path every cycle.
    fn forced(criticals: &[i64]) -> SensitizationModel {
        let profiles = criticals
            .iter()
            .map(|&c| {
                let mut p = StagePathProfile::from_critical(Picos(c));
                p.p_critical = 1.0;
                p.p_near = 0.0;
                p
            })
            .collect();
        SensitizationModel::new(profiles, 1)
    }

    #[test]
    fn nominal_run_is_clean_on_diamond() {
        let topo = Topology::diamond();
        let mut scheme = MarginedFlop::new();
        let sens = SensitizationModel::uniform(4, Picos(900), 3);
        let var = CompositeVariability::nominal();
        let cfg = PipelineConfig::new(4, Picos(1000));
        let stats = PipelineSim::new(cfg, &mut scheme, &sens, &var)
            .on_topology(&topo)
            .run(10_000);
        assert_eq!(stats.corrupted, 0);
        assert_eq!(stats.cycles, 10_000);
        assert_eq!(stats.instructions, 10_000);
    }

    #[test]
    fn reconvergence_takes_worst_incoming_borrow() {
        // Force the two middle boundaries of the diamond to borrow
        // different amounts (critical 1080 and 1040, others safe); the
        // sink must inherit the max, not the last one written.
        let topo = Topology::diamond();
        let mut scheme = BorrowAll { flagged: false };
        let sens = forced(&[900, 1080, 1040, 900]);
        let var = CompositeVariability::nominal();
        let cfg = PipelineConfig::new(4, Picos(1000));
        let mut sim = PipelineSim::new(cfg, &mut scheme, &sens, &var).on_topology(&topo);
        let _ = sim.run(1);
        // After cycle 0: boundaries 1 and 2 borrowed 80 and 40; the
        // sink's incoming carry must be the max (80), and both chains
        // merge into one of depth 1.
        assert_eq!(sim.carry()[3], Picos(80));
        assert_eq!(sim.carry()[1], Picos::ZERO, "boundary 0 was clean");
        assert_eq!(sim.chain_depths()[..4], [0, 0, 0, 1]);
    }

    #[test]
    fn chains_span_dag_paths() {
        // All four boundaries always critical at 1040: every boundary
        // borrows every cycle, chains grow along 0 -> {1,2} -> 3.
        let topo = Topology::diamond();
        let mut scheme = BorrowAll { flagged: false };
        let sens = forced(&[1040; 4]);
        let var = CompositeVariability::nominal();
        let cfg = PipelineConfig::new(4, Picos(1000));
        let stats = PipelineSim::new(cfg, &mut scheme, &sens, &var)
            .on_topology(&topo)
            .run(50);
        assert_eq!(stats.masked, 4 * 50);
        // Multi-boundary chains must appear.
        assert!(
            stats.chain_histogram.len() >= 3,
            "{:?}",
            stats.chain_histogram
        );
        assert_eq!(stats.corrupted, 0);
    }

    #[test]
    #[should_panic(expected = "one boundary per stage")]
    fn topology_must_match_the_stage_count() {
        let mut scheme = MarginedFlop::new();
        let sens = SensitizationModel::uniform(5, Picos(900), 3);
        let var = CompositeVariability::nominal();
        let cfg = PipelineConfig::new(5, Picos(1000));
        let _ = PipelineSim::new(cfg, &mut scheme, &sens, &var).on_topology(&Topology::diamond());
    }
}
