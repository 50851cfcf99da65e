//! Topology analysis helpers over the transaction network.
//!
//! These back the paper's discussion of "gathering behaviour" (§3.2,
//! Figure 2): victims of one fraudster are 2-hop neighbours of each other
//! through the fraud hub. The datagen crate uses these to validate that the
//! synthetic world exhibits the same structure, and examples use them to
//! surface suspicious hubs.

use crate::csr::TxGraph;
use crate::ids::NodeId;

/// Nodes reachable from `start` in exactly `k` undirected hops or fewer,
/// excluding `start` itself. Returned sorted and deduplicated.
pub fn k_hop_neighborhood(graph: &TxGraph, start: NodeId, k: usize) -> Vec<NodeId> {
    let n = graph.node_count();
    let mut dist = vec![u32::MAX; n];
    dist[start.index()] = 0;
    let mut frontier = vec![start.0];
    let mut out = Vec::new();
    for hop in 1..=k as u32 {
        let mut next = Vec::new();
        for &u in &frontier {
            for &v in graph.und_neighbors(NodeId(u)) {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = hop;
                    next.push(v);
                    out.push(NodeId(v));
                }
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    out.sort_unstable();
    out
}

/// True when `a` and `b` share at least one common undirected neighbour —
/// the "2-hop neighbours" relation the paper observes among co-victims.
pub fn are_two_hop_neighbors(graph: &TxGraph, a: NodeId, b: NodeId) -> bool {
    let (small, large) = if graph.degree(a) <= graph.degree(b) {
        (a, b)
    } else {
        (b, a)
    };
    let nb = graph.und_neighbors(large);
    // nb is sorted by construction (CSR from sorted edges).
    graph
        .und_neighbors(small)
        .iter()
        .any(|v| nb.binary_search(v).is_ok())
}

/// Nodes whose in-degree is at least `min_in` and whose in/out ratio is at
/// least `ratio` — candidate "gathering" hubs (fraudsters receive from many,
/// pay out to few). Merchants also match; classification disambiguates.
pub fn gathering_hubs(graph: &TxGraph, min_in: usize, ratio: f64) -> Vec<NodeId> {
    (0..graph.node_count() as u32)
        .map(NodeId)
        .filter(|&n| {
            let ind = graph.in_degree(n);
            let outd = graph.out_degree(n).max(1);
            ind >= min_in && ind as f64 / outd as f64 >= ratio
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TxGraphBuilder, UserId};

    /// Star: victims 1..=5 each pay fraudster 0; plus chain 6 -> 7.
    fn fraud_star() -> TxGraph {
        let mut b = TxGraphBuilder::new();
        for v in 1..=5 {
            b.add_edge(UserId(v), UserId(0), 1.0);
        }
        b.add_edge(UserId(6), UserId(7), 1.0);
        b.build()
    }

    #[test]
    fn victims_are_two_hop_neighbors_via_hub() {
        let g = fraud_star();
        let v1 = g.node_of(UserId(1)).unwrap();
        let v2 = g.node_of(UserId(2)).unwrap();
        let v6 = g.node_of(UserId(6)).unwrap();
        assert!(are_two_hop_neighbors(&g, v1, v2));
        assert!(!are_two_hop_neighbors(&g, v1, v6));
    }

    #[test]
    fn k_hop_expands_correctly() {
        let g = fraud_star();
        let v1 = g.node_of(UserId(1)).unwrap();
        let hub = g.node_of(UserId(0)).unwrap();
        let one_hop = k_hop_neighborhood(&g, v1, 1);
        assert_eq!(one_hop, vec![hub]);
        let two_hop = k_hop_neighborhood(&g, v1, 2);
        // hub + the other four victims.
        assert_eq!(two_hop.len(), 5);
        assert!(!two_hop.contains(&v1));
    }

    #[test]
    fn gathering_hub_detection_finds_the_fraudster() {
        let g = fraud_star();
        let hubs = gathering_hubs(&g, 4, 2.0);
        assert_eq!(hubs, vec![g.node_of(UserId(0)).unwrap()]);
    }
}
