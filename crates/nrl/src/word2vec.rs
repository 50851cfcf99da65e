//! Skip-gram with negative sampling (SGNS) over walk corpora.
//!
//! The core of the paper's distributed DeepWalk reimplementation (§4.3):
//! "Skip-gram with negative sampling in word2vec is applied to generate
//! user node embeddings". [`Sgns`] is a port of the reference word2vec
//! kernel — unigram^0.75 negative table, window shrinking, table sigmoid —
//! and the one SGNS kernel in the workspace: `titant-kunpeng`'s
//! parameter-server trainer wraps the same pass.
//!
//! [`Word2VecTrainer`] runs it data-parallel and deterministically. Each
//! epoch is [`ROUNDS_PER_EPOCH`] sync rounds; a round cuts its slice of the
//! walks into [`SHARDS`] contiguous shards, each shard trains one local pass
//! on a private copy of `syn0 ++ syn1`, and the round ends with
//! `base + Σ_s (local_s − base)` summed in shard order. Shard RNGs are
//! seeded from `(seed, round, shard)`, so the embeddings are a function of
//! the corpus and the config: the thread count changes wall time only.

use crate::embedding::EmbeddingMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use titant_parallel::{chunk_ranges, item_seed, Pool};
use titant_txgraph::walk::WalkCorpus;

/// Shards per sync round. A constant, not the thread count, so results do
/// not depend on the machine; DESIGN.md §7 gives the measurements behind it.
pub const SHARDS: usize = 2;
/// Sync rounds per epoch; the learning rate steps down once per round.
pub const ROUNDS_PER_EPOCH: usize = 64;

/// SGNS hyperparameters. Paper defaults: `dim = 32`; word2vec defaults for
/// the rest.
#[derive(Debug, Clone)]
pub struct Word2VecConfig {
    /// Embedding dimensionality (paper: 32; Figure 11 sweeps 8–64).
    pub dim: usize,
    /// Maximum context window (randomly shrunk per position, as in the
    /// reference implementation).
    pub window: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// Passes over the corpus.
    pub epochs: usize,
    /// Initial learning rate, decayed linearly to `min_lr`.
    pub initial_lr: f32,
    /// Floor for the decayed learning rate.
    pub min_lr: f32,
    /// Worker threads that run a round's shards and merge; `0` =
    /// auto-detect via [`std::thread::available_parallelism`]. Changes wall
    /// time only: the embeddings are identical at any count.
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Word2VecConfig {
    fn default() -> Self {
        Self {
            dim: 32,
            window: 5,
            negatives: 5,
            epochs: 2,
            initial_lr: 0.025,
            min_lr: 1e-4,
            threads: 0,
            seed: 0x576f_7264,
        }
    }
}

const SIGMOID_TABLE_SIZE: usize = 1024;
const SIGMOID_BOUND: f32 = 6.0;

/// Precomputed sigmoid lookup, identical role to word2vec's expTable.
fn build_sigmoid_table() -> Vec<f32> {
    (0..SIGMOID_TABLE_SIZE)
        .map(|i| {
            let x = (i as f32 / SIGMOID_TABLE_SIZE as f32 * 2.0 - 1.0) * SIGMOID_BOUND;
            1.0 / (1.0 + (-x).exp())
        })
        .collect()
}

#[inline]
fn fast_sigmoid(table: &[f32], x: f32) -> f32 {
    if x >= SIGMOID_BOUND {
        1.0
    } else if x <= -SIGMOID_BOUND {
        0.0
    } else {
        let idx = ((x + SIGMOID_BOUND) / (2.0 * SIGMOID_BOUND) * (SIGMOID_TABLE_SIZE as f32 - 1.0))
            as usize;
        table[idx]
    }
}

/// The SGNS kernel: one local pass over a range of walks, updating a flat
/// `syn0 ++ syn1` parameter block (`2 · n_nodes · dim` floats) in place.
pub struct Sgns {
    dim: usize,
    window: usize,
    negatives: usize,
    n_nodes: usize,
    neg_table: Vec<u32>,
    sigmoid_table: Vec<f32>,
}

impl Sgns {
    /// A kernel over `n_nodes` node ids, negatives drawn from the
    /// unigram^0.75 distribution of `corpus`.
    pub fn new(
        corpus: &WalkCorpus,
        n_nodes: usize,
        dim: usize,
        window: usize,
        negatives: usize,
    ) -> Self {
        assert!(n_nodes > 0, "empty vocabulary");
        assert!(dim > 0, "dim must be positive");
        assert!(window > 0, "window must be positive");
        let mut counts = vec![0u64; n_nodes];
        for &t in &corpus.tokens {
            counts[t as usize] += 1;
        }
        Self {
            dim,
            window,
            negatives,
            n_nodes,
            neg_table: build_negative_table(&counts),
            sigmoid_table: build_sigmoid_table(),
        }
    }

    /// Train one pass over walks `walks` of `corpus` at learning rate `lr`,
    /// drawing window shrinks and negatives from an RNG seeded with `seed`.
    pub fn pass(
        &self,
        corpus: &WalkCorpus,
        walks: Range<usize>,
        params: &mut [f32],
        lr: f32,
        seed: u64,
    ) {
        let dim = self.dim;
        assert_eq!(
            params.len(),
            2 * self.n_nodes * dim,
            "params are syn0 ++ syn1"
        );
        let (syn0, syn1) = params.split_at_mut(self.n_nodes * dim);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut neu1e = vec![0f32; dim];
        for w in walks {
            let walk = corpus.walk(w);
            for (ci, &center) in walk.iter().enumerate() {
                // Random window shrink, as in the reference implementation.
                let b = rng.gen_range(0..self.window);
                let start = ci.saturating_sub(self.window - b);
                let end = (ci + self.window - b + 1).min(walk.len());
                for (pos, &context) in walk.iter().enumerate().take(end).skip(start) {
                    if pos == ci {
                        continue;
                    }
                    let c = context as usize * dim;
                    let input = &mut syn0[c..c + dim];
                    neu1e.iter_mut().for_each(|v| *v = 0.0);
                    // One positive target + `negatives` sampled targets.
                    for n in 0..=self.negatives {
                        let (target, label) = if n == 0 {
                            (center, 1.0f32)
                        } else {
                            let table = &self.neg_table;
                            let mut neg = table[rng.gen_range(0..table.len())];
                            if neg == center {
                                neg = table[rng.gen_range(0..table.len())];
                            }
                            (neg, 0.0)
                        };
                        let t = target as usize * dim;
                        let output = &mut syn1[t..t + dim];
                        let mut f = 0.0f32;
                        for d in 0..dim {
                            f += input[d] * output[d];
                        }
                        let g = (label - fast_sigmoid(&self.sigmoid_table, f)) * lr;
                        for d in 0..dim {
                            neu1e[d] += g * output[d];
                            output[d] += g * input[d];
                        }
                    }
                    for d in 0..dim {
                        input[d] += neu1e[d];
                    }
                }
            }
        }
    }
}

/// Trains SGNS embeddings from a walk corpus.
pub struct Word2VecTrainer {
    config: Word2VecConfig,
}

impl Word2VecTrainer {
    /// Create a trainer.
    pub fn new(config: Word2VecConfig) -> Self {
        assert!(config.dim > 0, "dim must be positive");
        assert!(config.window > 0, "window must be positive");
        assert!(config.epochs > 0, "epochs must be positive");
        Self { config }
    }

    /// Train embeddings for a vocabulary of `n_nodes` node ids over the
    /// corpus. Returns the input-side (`syn0`) embedding matrix.
    pub fn train(&self, corpus: &WalkCorpus, n_nodes: usize) -> EmbeddingMatrix {
        let cfg = &self.config;
        let dim = cfg.dim;
        let sgns = Sgns::new(corpus, n_nodes, dim, cfg.window, cfg.negatives);
        let block = 2 * n_nodes * dim;

        // syn0 random in (-0.5/dim, 0.5/dim); syn1 zeros — word2vec init.
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut base: Vec<f32> = (0..n_nodes * dim)
            .map(|_| (rng.gen::<f32>() - 0.5) / dim as f32)
            .collect();
        base.resize(block, 0.0);

        let pool = Pool::new(cfg.threads);
        let mut locals = vec![0f32; SHARDS * block];
        let rounds = chunk_ranges(corpus.walk_count(), ROUNDS_PER_EPOCH);
        let steps = cfg.epochs * rounds.len();
        for step in 0..steps {
            let lr = (cfg.initial_lr * (1.0 - step as f32 / steps as f32)).max(cfg.min_lr);
            let round = &rounds[step % rounds.len()];
            let shards = chunk_ranges(round.len(), SHARDS);
            let locals = &mut locals[..shards.len() * block];
            pool.for_chunks_mut(locals, block, |first, chunk| {
                for (s, local) in (first..).zip(chunk.chunks_mut(block)) {
                    local.copy_from_slice(&base);
                    let walks = round.start + shards[s].start..round.start + shards[s].end;
                    let seed = item_seed(cfg.seed, (step * SHARDS + s) as u64);
                    sgns.pass(corpus, walks, local, lr, seed);
                }
            });
            // base + Σ_s (local_s − base), summed in shard order.
            let locals = &*locals;
            pool.for_chunks_mut(&mut base, dim, |first_row, chunk| {
                let offset = first_row * dim;
                for (i, b) in chunk.iter_mut().enumerate() {
                    let b0 = *b;
                    for local in locals.chunks(block) {
                        *b += local[offset + i] - b0;
                    }
                }
            });
        }

        base.truncate(n_nodes * dim);
        EmbeddingMatrix::from_raw(dim, base)
    }
}

/// Unigram^0.75 sampling table (word2vec's table of 1e8 slots, scaled to the
/// vocabulary size).
fn build_negative_table(counts: &[u64]) -> Vec<u32> {
    let table_size = (counts.len() * 64).clamp(1 << 12, 1 << 23);
    let mut table = vec![0u32; table_size];
    let total: f64 = counts.iter().map(|&c| (c as f64).powf(0.75)).sum();
    if total == 0.0 {
        // Degenerate corpus: uniform table.
        for (i, slot) in table.iter_mut().enumerate() {
            *slot = (i % counts.len()) as u32;
        }
        return table;
    }
    let mut node = 0usize;
    let mut cum = (counts[0] as f64).powf(0.75) / total;
    for (i, slot) in table.iter_mut().enumerate() {
        *slot = node as u32;
        if (i as f64 + 1.0) / table_size as f64 > cum && node + 1 < counts.len() {
            node += 1;
            cum += (counts[node] as f64).powf(0.75) / total;
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use titant_txgraph::{TxGraphBuilder, UserId, WalkConfig, WalkEngine};

    /// Two 6-cliques joined by a single bridge edge.
    fn two_cluster_corpus(dim_hint: usize) -> (WalkCorpus, usize) {
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
        let _ = dim_hint;
        (corpus, g.node_count())
    }

    #[test]
    fn clusters_separate_in_embedding_space() {
        use titant_txgraph::NodeId;
        let (corpus, n) = two_cluster_corpus(8);
        let train = |threads: usize| {
            Word2VecTrainer::new(Word2VecConfig {
                dim: 8,
                epochs: 4,
                initial_lr: 0.05,
                threads,
                ..Default::default()
            })
            .train(&corpus, n)
        };
        let e1 = train(1);
        let e4 = train(4);
        for (threads, emb) in [(1, &e1), (4, &e4)] {
            let intra = emb.cosine(NodeId(1), NodeId(2));
            let inter = emb.cosine(NodeId(1), NodeId(8));
            assert!(
                intra > inter + 0.1,
                "{threads} threads: intra-cluster cosine {intra} should exceed inter-cluster {inter}"
            );
        }
        assert_eq!(e1.as_slice(), e4.as_slice());
    }

    #[test]
    fn embedding_shape_matches_vocab() {
        let (corpus, n) = two_cluster_corpus(4);
        let emb = Word2VecTrainer::new(Word2VecConfig {
            dim: 4,
            epochs: 1,
            ..Default::default()
        })
        .train(&corpus, n);
        assert_eq!(emb.node_count(), n);
        assert_eq!(emb.dim(), 4);
    }

    #[test]
    fn single_thread_training_is_deterministic() {
        let (corpus, n) = two_cluster_corpus(4);
        let train = |threads: usize| {
            Word2VecTrainer::new(Word2VecConfig {
                dim: 4,
                epochs: 1,
                threads,
                ..Default::default()
            })
            .train(&corpus, n)
        };
        let e1 = train(1);
        assert_eq!(e1.as_slice(), train(1).as_slice());
        assert_eq!(e1.as_slice(), train(2).as_slice());
        assert_eq!(e1.as_slice(), train(4).as_slice());
    }

    #[test]
    fn negative_table_respects_frequencies() {
        let counts = vec![1000u64, 10, 10, 10];
        let table = build_negative_table(&counts);
        let freq0 = table.iter().filter(|&&t| t == 0).count() as f64 / table.len() as f64;
        // 1000^.75 / (1000^.75 + 3*10^.75) ~ 0.91.
        assert!(freq0 > 0.8, "node 0 frequency {freq0}");
        // Every node appears.
        for v in 0..4u32 {
            assert!(table.contains(&v), "node {v} missing from table");
        }
    }

    #[test]
    fn sigmoid_table_matches_exact_sigmoid() {
        let table = build_sigmoid_table();
        for &x in &[-5.0f32, -1.0, 0.0, 1.0, 5.0] {
            let approx = fast_sigmoid(&table, x);
            let exact = 1.0 / (1.0 + (-x).exp());
            assert!((approx - exact).abs() < 0.02, "x={x}: {approx} vs {exact}");
        }
        assert_eq!(fast_sigmoid(&table, 100.0), 1.0);
        assert_eq!(fast_sigmoid(&table, -100.0), 0.0);
    }
}
