//! Dense node-embedding matrix, the output of every NRL method.

use serde::{Deserialize, Serialize};
use titant_txgraph::NodeId;

/// A row-major `|V| × d` embedding matrix. Row `i` embeds node `NodeId(i)`
/// of the graph the embeddings were trained on.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EmbeddingMatrix {
    dim: usize,
    data: Vec<f32>,
}

impl EmbeddingMatrix {
    /// Zero-initialised matrix.
    pub fn zeros(nodes: usize, dim: usize) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        Self {
            dim,
            data: vec![0.0; nodes * dim],
        }
    }

    /// Wrap an existing buffer.
    ///
    /// # Panics
    /// Panics when the buffer is not a multiple of `dim`.
    pub fn from_raw(dim: usize, data: Vec<f32>) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        assert_eq!(data.len() % dim, 0, "ragged embedding buffer");
        Self { dim, data }
    }

    /// Embedding dimensionality `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of node rows.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.data.len() / self.dim
    }

    /// The embedding of a node.
    #[inline]
    pub fn row(&self, node: NodeId) -> &[f32] {
        let a = node.index() * self.dim;
        &self.data[a..a + self.dim]
    }

    /// Mutable access to a node's embedding.
    #[inline]
    fn row_mut(&mut self, node: NodeId) -> &mut [f32] {
        let a = node.index() * self.dim;
        &mut self.data[a..a + self.dim]
    }

    /// Cosine similarity between two nodes' embeddings (0 when either is a
    /// zero vector).
    pub fn cosine(&self, a: NodeId, b: NodeId) -> f32 {
        let (ra, rb) = (self.row(a), self.row(b));
        let mut dot = 0.0f64;
        let mut na = 0.0f64;
        let mut nb = 0.0f64;
        for i in 0..self.dim {
            dot += f64::from(ra[i]) * f64::from(rb[i]);
            na += f64::from(ra[i]) * f64::from(ra[i]);
            nb += f64::from(rb[i]) * f64::from(rb[i]);
        }
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            (dot / (na.sqrt() * nb.sqrt())) as f32
        }
    }

    /// L2-normalise every row in place (zero rows stay zero).
    pub fn normalize(&mut self) {
        for r in 0..self.node_count() {
            let row = self.row_mut(NodeId(r as u32));
            let norm: f32 = row.iter().map(|v| v * v).sum::<f32>().sqrt();
            if norm > 0.0 {
                for v in row {
                    *v /= norm;
                }
            }
        }
    }

    /// The `k` nearest nodes to `node` by cosine similarity (excluding
    /// itself). O(|V| · d); intended for diagnostics and examples.
    pub fn nearest(&self, node: NodeId, k: usize) -> Vec<(NodeId, f32)> {
        let mut sims: Vec<(NodeId, f32)> = (0..self.node_count() as u32)
            .filter(|&i| i != node.0)
            .map(|i| (NodeId(i), self.cosine(node, NodeId(i))))
            .collect();
        sims.sort_unstable_by(|a, b| b.1.total_cmp(&a.1));
        sims.truncate(k);
        sims
    }

    /// The raw buffer (for bulk upload into the feature store).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_rows() {
        let mut m = EmbeddingMatrix::zeros(3, 4);
        assert_eq!(m.node_count(), 3);
        assert_eq!(m.dim(), 4);
        m.row_mut(NodeId(1)).copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.row(NodeId(1)), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.row(NodeId(0)), &[0.0; 4]);
    }

    #[test]
    fn cosine_of_identical_rows_is_one() {
        let mut m = EmbeddingMatrix::zeros(2, 3);
        m.row_mut(NodeId(0)).copy_from_slice(&[1.0, 2.0, 2.0]);
        m.row_mut(NodeId(1)).copy_from_slice(&[2.0, 4.0, 4.0]);
        assert!((m.cosine(NodeId(0), NodeId(1)) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_orthogonal_rows_is_zero() {
        let mut m = EmbeddingMatrix::zeros(2, 2);
        m.row_mut(NodeId(0)).copy_from_slice(&[1.0, 0.0]);
        m.row_mut(NodeId(1)).copy_from_slice(&[0.0, 1.0]);
        assert!(m.cosine(NodeId(0), NodeId(1)).abs() < 1e-6);
    }

    #[test]
    fn zero_vector_cosine_is_zero() {
        let mut m = EmbeddingMatrix::zeros(2, 2);
        m.row_mut(NodeId(0)).copy_from_slice(&[1.0, 1.0]);
        assert_eq!(m.cosine(NodeId(0), NodeId(1)), 0.0);
    }

    #[test]
    fn normalize_makes_unit_rows() {
        let mut m = EmbeddingMatrix::zeros(2, 2);
        m.row_mut(NodeId(0)).copy_from_slice(&[3.0, 4.0]);
        m.normalize();
        let r = m.row(NodeId(0));
        assert!((r[0] - 0.6).abs() < 1e-6);
        assert!((r[1] - 0.8).abs() < 1e-6);
        // Zero row untouched.
        assert_eq!(m.row(NodeId(1)), &[0.0, 0.0]);
    }

    #[test]
    fn nearest_ranks_by_similarity() {
        let mut m = EmbeddingMatrix::zeros(3, 2);
        m.row_mut(NodeId(0)).copy_from_slice(&[1.0, 0.0]);
        m.row_mut(NodeId(1)).copy_from_slice(&[0.9, 0.1]);
        m.row_mut(NodeId(2)).copy_from_slice(&[0.0, 1.0]);
        let nn = m.nearest(NodeId(0), 2);
        assert_eq!(nn[0].0, NodeId(1));
        assert_eq!(nn[1].0, NodeId(2));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_buffer_rejected() {
        EmbeddingMatrix::from_raw(3, vec![0.0; 4]);
    }
}
