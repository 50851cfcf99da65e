//! Aggregates raw transaction records into a weighted [`TxGraph`].
//!
//! Parallel transfers between the same ordered pair of users collapse into a
//! single directed edge whose weight is the transfer count — the paper's
//! transaction network is a relationship graph, not a multigraph, and the
//! repeat count is exactly the "gathering" signal Figure 2 illustrates.

use crate::csr::TxGraph;
use crate::ids::{NodeId, UserId};
use crate::record::TransactionRecord;
use std::collections::HashMap;

/// Incremental builder for [`TxGraph`].
///
/// Records can be streamed in any order across multiple `add_*` calls;
/// `build()` produces the immutable CSR graph.
#[derive(Debug, Default)]
pub struct TxGraphBuilder {
    /// Directed edge -> collapsed transfer count.
    edge_weights: HashMap<(UserId, UserId), f32>,
    /// Insertion-ordered set of users, so node ids are deterministic for a
    /// given record stream.
    users: Vec<UserId>,
    index_of: HashMap<UserId, NodeId>,
}

impl TxGraphBuilder {
    /// A builder with no records.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one record. Self-transfers are ignored.
    fn add_record(&mut self, record: &TransactionRecord) -> &mut Self {
        if record.is_self_transfer() {
            return self;
        }
        self.intern(record.transferor);
        self.intern(record.transferee);
        *self
            .edge_weights
            .entry((record.transferor, record.transferee))
            .or_insert(0.0) += 1.0;
        self
    }

    /// Add a batch of records (builder-style, consumes and returns `self`).
    pub fn add_records(mut self, records: &[TransactionRecord]) -> Self {
        for r in records {
            self.add_record(r);
        }
        self
    }

    /// Add an explicit weighted edge (used by tests and by pipelines that
    /// pre-aggregate in MaxCompute).
    pub fn add_edge(&mut self, from: UserId, to: UserId, weight: f32) -> &mut Self {
        if from == to || weight <= 0.0 {
            return self;
        }
        self.intern(from);
        self.intern(to);
        *self.edge_weights.entry((from, to)).or_insert(0.0) += weight;
        self
    }

    fn intern(&mut self, user: UserId) -> NodeId {
        if let Some(&n) = self.index_of.get(&user) {
            return n;
        }
        let n = NodeId(self.users.len() as u32);
        self.users.push(user);
        self.index_of.insert(user, n);
        n
    }

    /// Finalise into an immutable CSR graph.
    pub fn build(self) -> TxGraph {
        let n = self.users.len();

        // Collect edges as dense index triples.
        let mut edges: Vec<(u32, u32, f32)> = self
            .edge_weights
            .iter()
            .map(|(&(a, b), &w)| (self.index_of[&a].0, self.index_of[&b].0, w))
            .collect();
        // Sort for deterministic CSR layout regardless of hash order.
        edges.sort_unstable_by_key(|x| (x.0, x.1));

        let (out_offsets, out_targets, out_weights) =
            csr_from_sorted(n, edges.iter().map(|&(s, d, w)| (s, d, w)));

        let mut rev: Vec<(u32, u32, f32)> = edges.iter().map(|&(s, d, w)| (d, s, w)).collect();
        rev.sort_unstable_by_key(|x| (x.0, x.1));
        let (in_offsets, in_targets, in_weights) = csr_from_sorted(n, rev.iter().copied());

        // Undirected adjacency: merge both directions, summing weights of
        // reciprocal edges.
        let mut und: Vec<(u32, u32, f32)> = Vec::with_capacity(edges.len() * 2);
        und.extend(edges.iter().copied());
        und.extend(rev.iter().copied());
        und.sort_unstable_by_key(|x| (x.0, x.1));
        let mut merged: Vec<(u32, u32, f32)> = Vec::with_capacity(und.len());
        for (s, d, w) in und {
            match merged.last_mut() {
                Some(last) if last.0 == s && last.1 == d => last.2 += w,
                _ => merged.push((s, d, w)),
            }
        }
        let (und_offsets, und_targets, und_weights) = csr_from_sorted(n, merged.iter().copied());

        TxGraph::from_parts(
            self.users,
            self.index_of,
            out_offsets,
            out_targets,
            out_weights,
            in_offsets,
            in_targets,
            in_weights,
            und_offsets,
            und_targets,
            und_weights,
        )
    }
}

/// Build CSR arrays from `(src, dst, w)` triples sorted by `(src, dst)`.
fn csr_from_sorted(
    n: usize,
    edges: impl Iterator<Item = (u32, u32, f32)> + Clone,
) -> (Vec<u32>, Vec<u32>, Vec<f32>) {
    let mut offsets = vec![0u32; n + 1];
    for (s, _, _) in edges.clone() {
        offsets[s as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let m = offsets[n] as usize;
    let mut targets = Vec::with_capacity(m);
    let mut weights = Vec::with_capacity(m);
    for (_, d, w) in edges {
        targets.push(d);
        weights.push(w);
    }
    (offsets, targets, weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(a: u64, b: u64, t: i64) -> TransactionRecord {
        TransactionRecord::simple(UserId(a), UserId(b), 100, t)
    }

    #[test]
    fn parallel_edges_collapse_with_weight() {
        let g = TxGraphBuilder::new()
            .add_records(&[rec(1, 2, 0), rec(1, 2, 1), rec(1, 2, 2)])
            .build();
        assert_eq!(g.edge_count(), 1);
        let n1 = g.node_of(UserId(1)).unwrap();
        assert_eq!(g.out_weights(n1), &[3.0]);
    }

    #[test]
    fn self_transfers_are_dropped() {
        let g = TxGraphBuilder::new()
            .add_records(&[rec(1, 1, 0), rec(1, 2, 1)])
            .build();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn node_ids_are_insertion_ordered_and_deterministic() {
        let recs = [rec(10, 20, 0), rec(30, 10, 1)];
        let g1 = TxGraphBuilder::new().add_records(&recs).build();
        let g2 = TxGraphBuilder::new().add_records(&recs).build();
        assert_eq!(g1.users(), g2.users());
        assert_eq!(g1.users(), &[UserId(10), UserId(20), UserId(30)]);
    }

    #[test]
    fn reciprocal_edges_merge_in_undirected_view() {
        let g = TxGraphBuilder::new()
            .add_records(&[rec(1, 2, 0), rec(2, 1, 1), rec(2, 1, 2)])
            .build();
        let n1 = g.node_of(UserId(1)).unwrap();
        assert_eq!(g.und_neighbors(n1).len(), 1);
        assert_eq!(g.und_weights(n1), &[3.0]);
    }

    #[test]
    fn explicit_weighted_edges() {
        let mut b = TxGraphBuilder::new();
        b.add_edge(UserId(1), UserId(2), 5.0);
        b.add_edge(UserId(1), UserId(2), 2.5);
        b.add_edge(UserId(1), UserId(1), 9.0); // ignored: self edge
        b.add_edge(UserId(1), UserId(3), 0.0); // ignored: non-positive
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        let n1 = g.node_of(UserId(1)).unwrap();
        assert_eq!(g.out_weights(n1), &[7.5]);
    }
}
