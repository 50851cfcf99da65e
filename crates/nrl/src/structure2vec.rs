//! Structure2Vec (Dai, Dai & Song 2016) — the supervised NRL alternative.
//!
//! The paper feeds S2V "the fraud ground truth as the edge labels" (§5.1)
//! and observes that the label information helps less than the label
//! imbalance hurts, leaving DeepWalk ahead (§5.2). This implementation is
//! the mean-field variant: each node carries a latent vector updated by
//!
//! ```text
//! mu_v^t = relu( W1 * x_v + W2 * mean_{u in N(v)} mu_u^{t-1} )
//! ```
//!
//! where `x_v` are structural input features (degrees, weight sums,
//! reciprocity), and each node's latent is L2-normalised after every round
//! (the GraphSAGE stabilisation — unnormalised mean-field propagation has
//! spectral radius above one on dense fraud rings and diverges). A logistic
//! readout over edge endpoint embeddings is trained on the edge fraud
//! labels; gradients flow into `W1`/`W2` through the final propagation
//! round, treating the normalisation as a constant scale (truncated
//! backpropagation — one round — keeps training linear in the edge count;
//! the substitution is recorded in DESIGN.md).

use crate::embedding::EmbeddingMatrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use titant_txgraph::{NodeId, TxGraph};

/// Number of structural input features per node.
pub const N_STRUCT_FEATURES: usize = 8;

/// S2V hyperparameters.
#[derive(Debug, Clone)]
pub struct Structure2VecConfig {
    /// Embedding dimensionality (paper: 32).
    pub dim: usize,
    /// Mean-field propagation rounds.
    pub rounds: usize,
    /// Training epochs over the labelled edge set.
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// Weight multiplier on positive (fraud) edges. 1.0 = the paper's
    /// unweighted setting, which is what makes imbalance bite.
    pub pos_weight: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Structure2VecConfig {
    fn default() -> Self {
        Self {
            dim: 32,
            rounds: 2,
            epochs: 3,
            learning_rate: 0.01,
            pos_weight: 1.0,
            seed: 0x52_7632,
        }
    }
}

/// A labelled edge: `(transferor, transferee, is_fraud)`.
pub type LabeledEdge = (NodeId, NodeId, bool);

/// Trained S2V model: parameters plus the final node embeddings.
pub struct Structure2Vec {
    embeddings: EmbeddingMatrix,
}

impl Structure2Vec {
    /// Train on a graph with edge fraud labels and return the model.
    pub fn train(
        graph: &TxGraph,
        labeled_edges: &[LabeledEdge],
        config: &Structure2VecConfig,
    ) -> Self {
        let n = graph.node_count();
        let d = config.dim;
        let p = N_STRUCT_FEATURES;
        assert!(d > 0 && config.rounds > 0, "invalid S2V config");
        if n == 0 {
            return Self {
                embeddings: EmbeddingMatrix::zeros(0, d),
            };
        }

        let x = structural_features(graph);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let scale = (1.0 / d as f32).sqrt();
        let mut w1: Vec<f32> = (0..d * p)
            .map(|_| (rng.gen::<f32>() - 0.5) * scale)
            .collect();
        let mut w2: Vec<f32> = (0..d * d)
            .map(|_| (rng.gen::<f32>() - 0.5) * scale)
            .collect();
        let mut readout: Vec<f32> = (0..2 * d)
            .map(|_| (rng.gen::<f32>() - 0.5) * scale)
            .collect();
        let mut bias = 0.0f32;

        let mut order: Vec<u32> = (0..labeled_edges.len() as u32).collect();
        let mut mu = vec![0f32; n * d];
        let mut mu_prev = vec![0f32; n * d];
        let mut neighbor_mean = vec![0f32; n * d];
        let mut preact = vec![0f32; n * d];

        for _epoch in 0..config.epochs {
            forward(
                graph,
                &x,
                &w1,
                &w2,
                config.rounds,
                &mut mu,
                &mut mu_prev,
                &mut neighbor_mean,
                &mut preact,
                d,
            );

            if labeled_edges.is_empty() {
                break;
            }
            order.shuffle(&mut rng);
            let lr = config.learning_rate;
            for &ei in &order {
                let (u, v, y) = labeled_edges[ei as usize];
                let (ui, vi) = (u.index() * d, v.index() * d);
                // Forward readout on [mu_u ; mu_v].
                let mut z = bias;
                for k in 0..d {
                    z += readout[k] * mu[ui + k] + readout[d + k] * mu[vi + k];
                }
                let pr = sigmoid(z);
                let weight = if y { config.pos_weight } else { 1.0 };
                let g = (pr - if y { 1.0 } else { 0.0 }) * weight;

                // Gradients into readout + endpoint embeddings.
                bias -= lr * g;
                for k in 0..d {
                    let d_mu_u = g * readout[k];
                    let d_mu_v = g * readout[d + k];
                    readout[k] -= lr * g * mu[ui + k];
                    readout[d + k] -= lr * g * mu[vi + k];
                    // Truncated backprop through the final relu round.
                    backprop_node(
                        u.index(),
                        k,
                        d_mu_u,
                        lr,
                        &preact,
                        &x,
                        &neighbor_mean,
                        &mut w1,
                        &mut w2,
                        d,
                    );
                    backprop_node(
                        v.index(),
                        k,
                        d_mu_v,
                        lr,
                        &preact,
                        &x,
                        &neighbor_mean,
                        &mut w1,
                        &mut w2,
                        d,
                    );
                }
            }
        }

        // Final forward pass with the trained parameters.
        forward(
            graph,
            &x,
            &w1,
            &w2,
            config.rounds,
            &mut mu,
            &mut mu_prev,
            &mut neighbor_mean,
            &mut preact,
            d,
        );
        Self {
            embeddings: EmbeddingMatrix::from_raw(d, mu),
        }
    }

    /// The learned node embeddings (row `i` = `NodeId(i)`).
    pub fn embeddings(&self) -> &EmbeddingMatrix {
        &self.embeddings
    }

    /// Consume the model, returning the embeddings.
    pub fn into_embeddings(self) -> EmbeddingMatrix {
        self.embeddings
    }
}

#[inline]
fn sigmoid(z: f32) -> f32 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Gradient step on W1/W2 for one output coordinate `k` of node `node`.
#[allow(clippy::too_many_arguments)]
#[inline]
fn backprop_node(
    node: usize,
    k: usize,
    d_mu: f32,
    lr: f32,
    preact: &[f32],
    x: &[f32],
    neighbor_mean: &[f32],
    w1: &mut [f32],
    w2: &mut [f32],
    d: usize,
) {
    let base = node * d;
    // relu' gate.
    if preact[base + k] <= 0.0 {
        return;
    }
    let p = N_STRUCT_FEATURES;
    let xb = node * p;
    for j in 0..p {
        w1[k * p + j] -= lr * d_mu * x[xb + j];
    }
    for j in 0..d {
        w2[k * d + j] -= lr * d_mu * neighbor_mean[base + j];
    }
}

/// Mean-field forward propagation; fills `mu`, `neighbor_mean` (inputs to
/// the final round) and `preact` (final-round pre-activations).
#[allow(clippy::too_many_arguments)]
fn forward(
    graph: &TxGraph,
    x: &[f32],
    w1: &[f32],
    w2: &[f32],
    rounds: usize,
    mu: &mut Vec<f32>,
    mu_prev: &mut Vec<f32>,
    neighbor_mean: &mut [f32],
    preact: &mut [f32],
    d: usize,
) {
    let n = graph.node_count();
    let p = N_STRUCT_FEATURES;
    mu.iter_mut().for_each(|v| *v = 0.0);
    for round in 0..rounds {
        std::mem::swap(mu, mu_prev);
        let use_neighbors = round > 0;
        for i in 0..n {
            let base = i * d;
            let xb = i * p;
            // Mean of neighbour embeddings from the previous round.
            let neigh = graph.und_neighbors(NodeId(i as u32));
            let nm = &mut neighbor_mean[base..base + d];
            nm.iter_mut().for_each(|v| *v = 0.0);
            if use_neighbors && !neigh.is_empty() {
                for &u in neigh {
                    let ub = u as usize * d;
                    for k in 0..d {
                        nm[k] += mu_prev[ub + k];
                    }
                }
                let inv = 1.0 / neigh.len() as f32;
                nm.iter_mut().for_each(|v| *v *= inv);
            }
            let mut norm = 0.0f32;
            for k in 0..d {
                let mut z = 0.0f32;
                for j in 0..p {
                    z += w1[k * p + j] * x[xb + j];
                }
                for j in 0..d {
                    z += w2[k * d + j] * nm[j];
                }
                preact[base + k] = z;
                let a = z.max(0.0);
                mu[base + k] = a;
                norm += a * a;
            }
            // Row L2 normalisation keeps propagation contractive.
            let norm = norm.sqrt();
            if norm > 1e-12 {
                for k in 0..d {
                    mu[base + k] /= norm;
                }
            }
        }
    }
}

/// Structural input features per node: log-scaled degrees, weight sums,
/// reciprocity and mean edge weights.
fn structural_features(graph: &TxGraph) -> Vec<f32> {
    let n = graph.node_count();
    let mut x = vec![0f32; n * N_STRUCT_FEATURES];
    for i in 0..n {
        let node = NodeId(i as u32);
        let ind = graph.in_degree(node) as f32;
        let outd = graph.out_degree(node) as f32;
        let und = graph.degree(node) as f32;
        let in_w: f32 = graph.in_weights(node).iter().sum();
        let out_w: f32 = graph.out_weights(node).iter().sum();
        let recip = if und > 0.0 {
            (ind + outd - und) / und
        } else {
            0.0
        };
        let f = &mut x[i * N_STRUCT_FEATURES..(i + 1) * N_STRUCT_FEATURES];
        f[0] = (1.0 + ind).ln();
        f[1] = (1.0 + outd).ln();
        f[2] = (1.0 + und).ln();
        f[3] = (1.0 + in_w).ln();
        f[4] = (1.0 + out_w).ln();
        f[5] = recip;
        f[6] = if ind > 0.0 { in_w / ind } else { 0.0 };
        f[7] = if outd > 0.0 { out_w / outd } else { 0.0 };
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use titant_txgraph::{TxGraphBuilder, UserId};

    /// Fraud star (hub receives from many) + benign pairs.
    fn labeled_world() -> (TxGraph, Vec<LabeledEdge>) {
        let mut b = TxGraphBuilder::new();
        for v in 1..=10u64 {
            b.add_edge(UserId(v), UserId(0), 1.0);
        }
        for i in 0..10u64 {
            b.add_edge(UserId(100 + 2 * i), UserId(101 + 2 * i), 1.0);
        }
        let g = b.build();
        let mut edges = Vec::new();
        for v in 1..=10u64 {
            edges.push((
                g.node_of(UserId(v)).unwrap(),
                g.node_of(UserId(0)).unwrap(),
                true,
            ));
        }
        for i in 0..10u64 {
            edges.push((
                g.node_of(UserId(100 + 2 * i)).unwrap(),
                g.node_of(UserId(101 + 2 * i)).unwrap(),
                false,
            ));
        }
        (g, edges)
    }

    #[test]
    fn embeddings_have_requested_shape() {
        let (g, edges) = labeled_world();
        let model = Structure2Vec::train(
            &g,
            &edges,
            &Structure2VecConfig {
                dim: 8,
                ..Default::default()
            },
        );
        assert_eq!(model.embeddings().node_count(), g.node_count());
        assert_eq!(model.embeddings().dim(), 8);
    }

    #[test]
    fn fraud_hub_separates_from_benign_nodes() {
        let (g, edges) = labeled_world();
        let model = Structure2Vec::train(
            &g,
            &edges,
            &Structure2VecConfig {
                dim: 8,
                epochs: 10,
                learning_rate: 0.05,
                ..Default::default()
            },
        );
        let emb = model.embeddings();
        let hub = g.node_of(UserId(0)).unwrap();
        let benign = g.node_of(UserId(100)).unwrap();
        let benign2 = g.node_of(UserId(102)).unwrap();
        // The hub's embedding should differ from benign nodes more than
        // benign nodes differ among themselves.
        let dist = |a: NodeId, b: NodeId| -> f32 {
            emb.row(a)
                .iter()
                .zip(emb.row(b))
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f32>()
                .sqrt()
        };
        assert!(
            dist(hub, benign) > dist(benign, benign2),
            "hub-benign {} vs benign-benign {}",
            dist(hub, benign),
            dist(benign, benign2)
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (g, edges) = labeled_world();
        let cfg = Structure2VecConfig {
            dim: 4,
            epochs: 2,
            ..Default::default()
        };
        let m1 = Structure2Vec::train(&g, &edges, &cfg);
        let m2 = Structure2Vec::train(&g, &edges, &cfg);
        assert_eq!(m1.embeddings().as_slice(), m2.embeddings().as_slice());
    }

    #[test]
    fn structural_features_capture_hub_asymmetry() {
        let (g, _) = labeled_world();
        let x = structural_features(&g);
        let hub = g.node_of(UserId(0)).unwrap().index();
        let leaf = g.node_of(UserId(1)).unwrap().index();
        // Hub has high in-degree, zero out-degree.
        assert!(x[hub * N_STRUCT_FEATURES] > x[leaf * N_STRUCT_FEATURES]);
        assert_eq!(x[hub * N_STRUCT_FEATURES + 1], 0.0);
    }

    #[test]
    fn empty_graph_handled() {
        let g = TxGraphBuilder::new().build();
        let model = Structure2Vec::train(&g, &[], &Structure2VecConfig::default());
        assert_eq!(model.embeddings().node_count(), 0);
    }

    #[test]
    fn no_labels_still_produces_structural_embeddings() {
        let (g, _) = labeled_world();
        let model = Structure2Vec::train(
            &g,
            &[],
            &Structure2VecConfig {
                dim: 4,
                ..Default::default()
            },
        );
        // Without labels the embeddings are a random projection of the
        // structural features — still non-trivial for connected nodes.
        let emb = model.embeddings();
        let hub = g.node_of(UserId(0)).unwrap();
        assert!(emb.row(hub).iter().any(|&v| v != 0.0));
    }
}
