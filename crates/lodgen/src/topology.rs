//! Mapping topologies between peers.
//!
//! The paper's motivation is that the LOD cloud has *arbitrary* mapping
//! topologies — possibly with cycles — which defeats two-tiered rewriting
//! systems. The generators here produce the standard shapes
//! `tests/federation.rs` and `tests/strategies_agree.rs` run over.

use crate::rng::SeededRng;

/// A mapping topology over `n` peers, yielding directed edges
/// `(source, target)`.
#[derive(Clone, Debug, PartialEq)]
pub enum Topology {
    /// `0 → 1 → 2 → …` (acyclic chain).
    Chain,
    /// A chain closed into a cycle: `0 → 1 → … → n-1 → 0`. Exercises the
    /// mapping-cycle scenario that motivates the paper.
    Ring,
    /// Every non-hub peer maps into the hub.
    Star {
        /// Index of the hub peer.
        hub: usize,
    },
    /// Every ordered pair of distinct peers.
    Clique,
    /// Each ordered pair `(i, j)`, `i ≠ j`, is an edge with probability
    /// `edge_prob` (seeded).
    Random {
        /// Edge probability in `[0, 1]`.
        edge_prob: f64,
        /// RNG seed.
        seed: u64,
    },
    /// Bidirectional chain: `i → i+1` and `i+1 → i`. Small cycles
    /// everywhere.
    BidiChain,
}

impl Topology {
    /// The directed edges of the topology over `n` peers.
    pub fn edges(&self, n: usize) -> Vec<(usize, usize)> {
        match self {
            Topology::Chain => (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect(),
            Topology::Ring => {
                if n < 2 {
                    return Vec::new();
                }
                (0..n).map(|i| (i, (i + 1) % n)).collect()
            }
            Topology::Star { hub } => (0..n).filter(|&i| i != *hub).map(|i| (i, *hub)).collect(),
            Topology::Clique => {
                let mut out = Vec::with_capacity(n * n.saturating_sub(1));
                for i in 0..n {
                    for j in 0..n {
                        if i != j {
                            out.push((i, j));
                        }
                    }
                }
                out
            }
            Topology::Random { edge_prob, seed } => {
                let mut rng = SeededRng::seed_from_u64(*seed);
                let mut out = Vec::new();
                for i in 0..n {
                    for j in 0..n {
                        if i != j && rng.gen_bool(edge_prob.clamp(0.0, 1.0)) {
                            out.push((i, j));
                        }
                    }
                }
                out
            }
            Topology::BidiChain => {
                let mut out = Vec::new();
                for i in 0..n.saturating_sub(1) {
                    out.push((i, i + 1));
                    out.push((i + 1, i));
                }
                out
            }
        }
    }

    /// A short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Topology::Chain => "chain",
            Topology::Ring => "ring",
            Topology::Star { .. } => "star",
            Topology::Clique => "clique",
            Topology::Random { .. } => "random",
            Topology::BidiChain => "bidi-chain",
        }
    }

    /// `true` iff the topology contains a directed cycle (for reporting:
    /// cyclic topologies are the ones two-tier rewriting cannot handle).
    pub fn is_cyclic(&self, n: usize) -> bool {
        // Small n: just run a DFS over the edge list.
        let edges = self.edges(n);
        let mut adj = vec![Vec::new(); n];
        for (a, b) in edges {
            adj[a].push(b);
        }
        // 0 = unvisited, 1 = on stack, 2 = done.
        let mut state = vec![0u8; n];
        fn dfs(v: usize, adj: &[Vec<usize>], state: &mut [u8]) -> bool {
            state[v] = 1;
            for &w in &adj[v] {
                if state[w] == 1 || (state[w] == 0 && dfs(w, adj, state)) {
                    return true;
                }
            }
            state[v] = 2;
            false
        }
        (0..n).any(|v| state[v] == 0 && dfs(v, &adj, &mut state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_edges() {
        assert_eq!(Topology::Chain.edges(3), vec![(0, 1), (1, 2)]);
        assert!(Topology::Chain.edges(1).is_empty());
        assert!(!Topology::Chain.is_cyclic(5));
    }

    #[test]
    fn ring_edges_and_cycle() {
        assert_eq!(Topology::Ring.edges(3), vec![(0, 1), (1, 2), (2, 0)]);
        assert!(Topology::Ring.is_cyclic(3));
        assert!(Topology::Ring.edges(1).is_empty());
    }

    #[test]
    fn star_edges() {
        let e = Topology::Star { hub: 1 }.edges(3);
        assert_eq!(e, vec![(0, 1), (2, 1)]);
        assert!(!Topology::Star { hub: 0 }.is_cyclic(4));
    }

    #[test]
    fn clique_edges() {
        let e = Topology::Clique.edges(3);
        assert_eq!(e.len(), 6);
        assert!(Topology::Clique.is_cyclic(3));
    }

    #[test]
    fn random_is_seeded() {
        let t1 = Topology::Random {
            edge_prob: 0.5,
            seed: 9,
        };
        let t2 = Topology::Random {
            edge_prob: 0.5,
            seed: 9,
        };
        assert_eq!(t1.edges(6), t2.edges(6));
        let empty = Topology::Random {
            edge_prob: 0.0,
            seed: 9,
        };
        assert!(empty.edges(6).is_empty());
        let full = Topology::Random {
            edge_prob: 1.0,
            seed: 9,
        };
        assert_eq!(full.edges(4).len(), 12);
    }

    #[test]
    fn bidi_chain_cycles() {
        let e = Topology::BidiChain.edges(3);
        assert_eq!(e.len(), 4);
        assert!(Topology::BidiChain.is_cyclic(3));
    }
}
