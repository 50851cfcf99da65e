//! Compressed-sparse-row storage of the transaction network.
//!
//! Both directions of every edge are materialised: `out_*` arrays answer
//! "who did this user pay?" and `in_*` arrays answer "who paid this user?".
//! Random walks for DeepWalk treat the network as undirected (a fraudster
//! and its victims must co-occur in walks regardless of money direction),
//! so the graph also exposes a merged undirected adjacency.

use crate::ids::{NodeId, UserId};
use std::collections::HashMap;

/// A weighted directed transaction network in CSR form.
///
/// Built by [`crate::TxGraphBuilder`]; immutable afterwards. Node indices
/// are dense (`0..node_count`), and the mapping back to external
/// [`UserId`]s is kept in both directions.
#[derive(Debug, Clone)]
pub struct TxGraph {
    user_ids: Vec<UserId>,
    index_of: HashMap<UserId, NodeId>,
    out_offsets: Vec<u32>,
    out_targets: Vec<u32>,
    out_weights: Vec<f32>,
    in_offsets: Vec<u32>,
    in_targets: Vec<u32>,
    in_weights: Vec<f32>,
    und_offsets: Vec<u32>,
    und_targets: Vec<u32>,
    und_weights: Vec<f32>,
}

impl TxGraph {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        user_ids: Vec<UserId>,
        index_of: HashMap<UserId, NodeId>,
        out_offsets: Vec<u32>,
        out_targets: Vec<u32>,
        out_weights: Vec<f32>,
        in_offsets: Vec<u32>,
        in_targets: Vec<u32>,
        in_weights: Vec<f32>,
        und_offsets: Vec<u32>,
        und_targets: Vec<u32>,
        und_weights: Vec<f32>,
    ) -> Self {
        debug_assert_eq!(user_ids.len() + 1, out_offsets.len());
        debug_assert_eq!(user_ids.len() + 1, in_offsets.len());
        debug_assert_eq!(user_ids.len() + 1, und_offsets.len());
        Self {
            user_ids,
            index_of,
            out_offsets,
            out_targets,
            out_weights,
            in_offsets,
            in_targets,
            in_weights,
            und_offsets,
            und_targets,
            und_weights,
        }
    }

    /// Number of user nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.user_ids.len()
    }

    /// Number of distinct directed edges (parallel transfers collapsed).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.out_targets.len()
    }

    /// The external user id of a node.
    #[inline]
    pub fn user_of(&self, node: NodeId) -> UserId {
        self.user_ids[node.index()]
    }

    /// The dense node index of a user, if the user appears in the network.
    #[inline]
    pub fn node_of(&self, user: UserId) -> Option<NodeId> {
        self.index_of.get(&user).copied()
    }

    /// All users in node order (row `i` of an embedding matrix is
    /// `users()[i]`).
    #[inline]
    pub fn users(&self) -> &[UserId] {
        &self.user_ids
    }

    /// Outgoing neighbour node indices of `node` (users this node paid).
    #[inline]
    fn out_neighbors(&self, node: NodeId) -> &[u32] {
        let (a, b) = self.range(&self.out_offsets, node);
        &self.out_targets[a..b]
    }

    /// Weights parallel to [`Self::out_neighbors`]. Weight is the number of
    /// collapsed parallel transfers.
    #[inline]
    pub fn out_weights(&self, node: NodeId) -> &[f32] {
        let (a, b) = self.range(&self.out_offsets, node);
        &self.out_weights[a..b]
    }

    /// Incoming neighbour node indices of `node` (users who paid this node).
    #[inline]
    pub fn in_neighbors(&self, node: NodeId) -> &[u32] {
        let (a, b) = self.range(&self.in_offsets, node);
        &self.in_targets[a..b]
    }

    /// Weights parallel to [`Self::in_neighbors`].
    #[inline]
    pub fn in_weights(&self, node: NodeId) -> &[f32] {
        let (a, b) = self.range(&self.in_offsets, node);
        &self.in_weights[a..b]
    }

    /// Undirected neighbour node indices (union of in and out, weights
    /// summed when an edge exists in both directions).
    #[inline]
    pub fn und_neighbors(&self, node: NodeId) -> &[u32] {
        let (a, b) = self.range(&self.und_offsets, node);
        &self.und_targets[a..b]
    }

    /// Weights parallel to [`Self::und_neighbors`].
    #[inline]
    pub fn und_weights(&self, node: NodeId) -> &[f32] {
        let (a, b) = self.range(&self.und_offsets, node);
        &self.und_weights[a..b]
    }

    /// Out-degree (distinct payees).
    #[inline]
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out_neighbors(node).len()
    }

    /// In-degree (distinct payers).
    #[inline]
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.in_neighbors(node).len()
    }

    /// Undirected degree (distinct counterparties).
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        self.und_neighbors(node).len()
    }

    /// Iterate all directed edges as `(src, dst, weight)` triples.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f32)> + '_ {
        (0..self.node_count()).flat_map(move |u| {
            let node = NodeId(u as u32);
            self.out_neighbors(node)
                .iter()
                .zip(self.out_weights(node))
                .map(move |(&v, &w)| (node, NodeId(v), w))
        })
    }

    #[inline]
    fn range(&self, offsets: &[u32], node: NodeId) -> (usize, usize) {
        let i = node.index();
        (offsets[i] as usize, offsets[i + 1] as usize)
    }
}

#[cfg(test)]
mod tests {
    use crate::{TransactionRecord, TxGraphBuilder, UserId};

    fn diamond() -> crate::TxGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3, and a reverse edge 3 -> 0.
        let records = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)]
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| TransactionRecord::simple(UserId(a), UserId(b), 100, i as i64))
            .collect::<Vec<_>>();
        TxGraphBuilder::new().add_records(&records).build()
    }

    #[test]
    fn degrees_match_structure() {
        let g = diamond();
        let n0 = g.node_of(UserId(0)).unwrap();
        let n3 = g.node_of(UserId(3)).unwrap();
        assert_eq!(g.out_degree(n0), 2);
        assert_eq!(g.in_degree(n0), 1);
        assert_eq!(g.in_degree(n3), 2);
        assert_eq!(g.out_degree(n3), 1);
        // Undirected degree of 0: neighbours {1, 2, 3}.
        assert_eq!(g.degree(n0), 3);
    }

    #[test]
    fn edges_iterator_counts_every_directed_edge() {
        let g = diamond();
        assert_eq!(g.edges().count(), g.edge_count());
        assert_eq!(g.edge_count(), 5);
    }

    #[test]
    fn user_node_round_trip() {
        let g = diamond();
        for &u in g.users() {
            let n = g.node_of(u).unwrap();
            assert_eq!(g.user_of(n), u);
        }
        assert!(g.node_of(UserId(999)).is_none());
    }

    #[test]
    fn in_and_out_weight_totals_agree() {
        let g = diamond();
        let out_total: f32 = (0..g.node_count())
            .flat_map(|i| g.out_weights(crate::NodeId(i as u32)).iter().copied())
            .sum();
        let in_total: f32 = (0..g.node_count())
            .flat_map(|i| g.in_weights(crate::NodeId(i as u32)).iter().copied())
            .sum();
        assert_eq!(out_total, in_total);
    }
}
