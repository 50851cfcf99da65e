//! Distributed DeepWalk word2vec on the parameter server.
//!
//! Implements §4.3's description verbatim: "Worker nodes receive the node
//! sequences by Random walk algorithm. For every iteration, each worker
//! first read a batch of sequence data and generate negative word list.
//! The embeddings are then pulled from server nodes and are updated by
//! gradient descent. Subsequently, the updated embeddings are uploaded to
//! server nodes. … server nodes pull the new embeddings and aggregate them
//! by executing the model average operation."
//!
//! Concretely: per round every worker pulls the full embedding block,
//! runs one pass of `titant-nrl`'s SGNS kernel ([`Sgns`]) over its walk
//! shard, and pushes its updated copy back. The server averages the
//! pushes: the k-th of a round lands with `push_average(…, 1/(k+1))`, which
//! leaves the exact mean of the workers' copies. The PS traffic counters
//! record exactly the bytes Figure 10's cost model needs.

use crate::ps::ParamServer;
use std::ops::Range;
use titant_nrl::{EmbeddingMatrix, Sgns};
use titant_txgraph::walk::WalkCorpus;

/// Distributed SGNS hyperparameters.
#[derive(Debug, Clone)]
pub struct DistWord2VecConfig {
    pub dim: usize,
    pub window: usize,
    pub negatives: usize,
    /// Synchronisation rounds (each = one local pass per worker).
    pub rounds: usize,
    pub learning_rate: f32,
    pub n_workers: usize,
    pub n_servers: usize,
    pub seed: u64,
}

impl Default for DistWord2VecConfig {
    fn default() -> Self {
        Self {
            dim: 32,
            window: 5,
            negatives: 5,
            rounds: 2,
            learning_rate: 0.025,
            n_workers: 4,
            n_servers: 2,
            seed: 0xd15d,
        }
    }
}

/// Train embeddings for `n_nodes` over `corpus`. The PS stores both the
/// input (`syn0`) and output (`syn1`) matrices back to back.
pub fn train(
    corpus: &WalkCorpus,
    n_nodes: usize,
    config: &DistWord2VecConfig,
    ps: &ParamServer,
) -> EmbeddingMatrix {
    let d = config.dim;
    assert!(n_nodes > 0 && d > 0, "empty model");
    assert_eq!(
        ps.dim(),
        2 * n_nodes * d,
        "PS must hold syn0 and syn1 ({} floats)",
        2 * n_nodes * d
    );
    let sgns = Sgns::new(corpus, n_nodes, d, config.window, config.negatives);
    let shards = worker_shards(corpus.walk_count(), config.n_workers);

    for round in 0..config.rounds {
        // Moves onto titant-parallel's `Pool` once kunpeng may depend on it
        // (ROADMAP 1(f)); a new dependency edge rewrites benchmark/Cargo.lock.
        #[allow(clippy::disallowed_methods)]
        let locals: Vec<Vec<f32>> = std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .iter()
                .enumerate()
                .map(|(w, walks)| {
                    let sgns = &sgns;
                    let seed = config
                        .seed
                        .wrapping_add((round * shards.len() + w) as u64 * 0x9e37);
                    scope.spawn(move || worker_pass(sgns, corpus, walks.clone(), config, ps, seed))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("w2v worker panicked"))
                .collect()
        });
        // Model-average aggregation on the server side.
        for (k, local) in locals.iter().enumerate() {
            ps.push_average(0..ps.dim(), local, 1.0 / (k + 1) as f32);
        }
    }

    let params = ps.snapshot();
    EmbeddingMatrix::from_raw(d, params[..n_nodes * d].to_vec())
}

/// Contiguous walk shards, one per worker.
fn worker_shards(n_walks: usize, n_workers: usize) -> Vec<Range<usize>> {
    let workers = n_workers.max(1).min(n_walks.max(1));
    let chunk = n_walks.div_ceil(workers);
    (0..workers)
        .map(|w| (w * chunk).min(n_walks)..((w + 1) * chunk).min(n_walks))
        .collect()
}

/// One worker's round: pull the full model (`syn0 ++ syn1`), train one
/// local pass over `walks`, return the updated copy.
fn worker_pass(
    sgns: &Sgns,
    corpus: &WalkCorpus,
    walks: Range<usize>,
    config: &DistWord2VecConfig,
    ps: &ParamServer,
    seed: u64,
) -> Vec<f32> {
    let mut params = vec![0f32; ps.dim()];
    ps.pull(0..ps.dim(), &mut params);
    sgns.pass(corpus, walks, &mut params, config.learning_rate, seed);
    params
}

/// Random init for the PS backing a distributed word2vec model: syn0 in
/// `(-0.5/dim, 0.5/dim)`, syn1 zero.
pub fn ps_init(n_nodes: usize, dim: usize, seed: u64) -> impl Fn(usize) -> f32 {
    move |i| {
        if i < n_nodes * dim {
            // Cheap stateless hash-based uniform in (-0.5/dim, 0.5/dim).
            let mut h = (i as u64)
                .wrapping_add(seed)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15);
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
            h ^= h >> 33;
            ((h >> 40) as f32 / (1u64 << 24) as f32 - 0.5) / dim as f32
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use titant_txgraph::{TxGraphBuilder, UserId, WalkConfig, WalkEngine};

    fn two_cluster_corpus() -> (WalkCorpus, usize) {
        let mut b = TxGraphBuilder::new();
        for cluster in 0..2u64 {
            let base = cluster * 6;
            for i in 0..6 {
                for j in (i + 1)..6 {
                    b.add_edge(UserId(base + i), UserId(base + j), 1.0);
                }
            }
        }
        b.add_edge(UserId(0), UserId(6), 1.0);
        let g = b.build();
        let corpus = WalkEngine::new(
            &g,
            WalkConfig {
                walk_length: 10,
                walks_per_node: 40,
                threads: 1,
                ..Default::default()
            },
        )
        .generate();
        (corpus, g.node_count())
    }

    #[test]
    fn distributed_training_separates_clusters() {
        let (corpus, n) = two_cluster_corpus();
        let cfg = DistWord2VecConfig {
            dim: 8,
            rounds: 6,
            learning_rate: 0.05,
            n_workers: 4,
            ..Default::default()
        };
        let ps = ParamServer::new(2 * n * cfg.dim, cfg.n_servers, ps_init(n, cfg.dim, 1));
        let emb = train(&corpus, n, &cfg, &ps);
        use titant_txgraph::NodeId;
        let intra = emb.cosine(NodeId(1), NodeId(2));
        let inter = emb.cosine(NodeId(1), NodeId(8));
        assert!(
            intra > inter,
            "intra {intra} should exceed inter {inter} after PS training"
        );
    }

    #[test]
    fn traffic_matches_round_structure() {
        let (corpus, n) = two_cluster_corpus();
        let model_bytes = (2 * n * 4 * 4) as u64;
        let new_ps = || ParamServer::new(2 * n * 4, 2, ps_init(n, 4, 2));
        for rounds in [1, 3] {
            let cfg = DistWord2VecConfig {
                dim: 4,
                rounds,
                n_workers: 2,
                ..Default::default()
            };
            let ps = new_ps();
            train(&corpus, n, &cfg, &ps);
            // Per round each worker pulls + pushes the full model once.
            assert_eq!(ps.pulled_bytes(), rounds as u64 * 2 * model_bytes);
            assert_eq!(ps.pushed_bytes(), rounds as u64 * 2 * model_bytes);
            if rounds > 1 {
                continue;
            }
            // After one round the PS holds the mean of the two workers'
            // copies, replayed here against an identical PS.
            let sgns = Sgns::new(&corpus, n, cfg.dim, cfg.window, cfg.negatives);
            let twin = new_ps();
            let locals: Vec<Vec<f32>> = worker_shards(corpus.walk_count(), 2)
                .into_iter()
                .enumerate()
                .map(|(w, walks)| {
                    let seed = cfg.seed.wrapping_add(w as u64 * 0x9e37);
                    worker_pass(&sgns, &corpus, walks, &cfg, &twin, seed)
                })
                .collect();
            assert_ne!(locals[0], locals[1]);
            let mean: Vec<f32> = locals[0]
                .iter()
                .zip(&locals[1])
                .map(|(a, b)| (a + b) / 2.0)
                .collect();
            assert_eq!(ps.snapshot(), mean);
        }
    }

    #[test]
    fn single_worker_matches_expected_shape() {
        let (corpus, n) = two_cluster_corpus();
        let cfg = DistWord2VecConfig {
            dim: 4,
            rounds: 1,
            n_workers: 1,
            ..Default::default()
        };
        let ps = ParamServer::new(2 * n * cfg.dim, 1, ps_init(n, cfg.dim, 3));
        let emb = train(&corpus, n, &cfg, &ps);
        assert_eq!(emb.node_count(), n);
        assert_eq!(emb.dim(), 4);
        assert!(emb.as_slice().iter().any(|&v| v.abs() > 1e-6));
    }
}
