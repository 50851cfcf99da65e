//! Random-walk engine: linearises network topology into node sequences.
//!
//! DeepWalk's first stage (paper §3.2): starting `walks_per_node` truncated
//! random walks of length `walk_length` from every node, so that topological
//! neighbours co-occur within a window in the generated sequences. Walks use
//! the undirected view of the transaction network — money direction is
//! irrelevant to proximity — and can be uniform or edge-weight-proportional
//! (repeat transfers pull nodes closer).

use crate::alias::AliasTable;
use crate::csr::TxGraph;
use crate::ids::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use titant_parallel::{item_seed, Pool};

/// Neighbour-selection strategy at each walk step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkStrategy {
    /// Choose uniformly among neighbours (original DeepWalk).
    Uniform,
    /// Choose proportionally to collapsed transfer counts.
    Weighted,
}

/// Random-walk parameters. The paper's production setting is
/// `walk_length = 50`, `walks_per_node = 100`.
#[derive(Debug, Clone)]
pub struct WalkConfig {
    /// Number of nodes per walk (the start node counts).
    pub walk_length: usize,
    /// How many walks start at each node ("number of sampling" in Table 2).
    pub walks_per_node: usize,
    /// Neighbour selection strategy.
    pub strategy: WalkStrategy,
    /// RNG seed. Each start node's walks draw from an RNG seeded with
    /// `(seed, start)`, so the corpus is a function of the graph and this
    /// config alone.
    pub seed: u64,
    /// Worker threads for walk generation; `0` = auto-detect via
    /// [`std::thread::available_parallelism`]. Changes wall time only.
    pub threads: usize,
}

impl Default for WalkConfig {
    fn default() -> Self {
        Self {
            walk_length: 50,
            walks_per_node: 100,
            strategy: WalkStrategy::Uniform,
            seed: 0x7174_616e, // "titan"
            threads: 0,
        }
    }
}

/// A batch of walks stored flat: `tokens[offsets[i]..offsets[i+1]]` is walk
/// `i`. Flat storage keeps the SGNS trainer's scan cache-friendly.
#[derive(Debug, Clone, Default)]
pub struct WalkCorpus {
    /// Concatenated node indices of all walks.
    pub tokens: Vec<u32>,
    /// Walk boundaries; `offsets.len() == walk_count + 1`.
    pub offsets: Vec<u64>,
}

impl WalkCorpus {
    /// Number of walks.
    pub fn walk_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total token count.
    pub fn token_count(&self) -> usize {
        self.tokens.len()
    }

    /// Walk `i` as a slice of node indices.
    pub fn walk(&self, i: usize) -> &[u32] {
        let a = self.offsets[i] as usize;
        let b = self.offsets[i + 1] as usize;
        &self.tokens[a..b]
    }

    /// Iterate all walks.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.walk_count()).map(move |i| self.walk(i))
    }

    fn push_walk(&mut self, walk: &[u32]) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.tokens.extend_from_slice(walk);
        self.offsets.push(self.tokens.len() as u64);
    }

    fn merge(&mut self, other: WalkCorpus) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        let base = self.tokens.len() as u64;
        self.tokens.extend_from_slice(&other.tokens);
        self.offsets
            .extend(other.offsets.iter().skip(1).map(|&o| o + base));
    }
}

/// Generates random-walk corpora over a [`TxGraph`].
pub struct WalkEngine<'g> {
    graph: &'g TxGraph,
    config: WalkConfig,
    /// Per-node alias tables, built lazily only for the weighted strategy.
    alias: Option<Vec<Option<AliasTable>>>,
}

impl<'g> WalkEngine<'g> {
    /// Create an engine; for [`WalkStrategy::Weighted`] this pre-builds one
    /// alias table per node with ≥1 neighbour.
    pub fn new(graph: &'g TxGraph, config: WalkConfig) -> Self {
        let alias = match config.strategy {
            WalkStrategy::Uniform => None,
            WalkStrategy::Weighted => Some(
                (0..graph.node_count())
                    .map(|i| {
                        let n = NodeId(i as u32);
                        let w = graph.und_weights(n);
                        if w.is_empty() {
                            None
                        } else {
                            Some(AliasTable::new(w))
                        }
                    })
                    .collect(),
            ),
        };
        Self {
            graph,
            config,
            alias,
        }
    }

    /// Generate the full corpus: `walks_per_node` walks from every node,
    /// in start-node order, split across `config.threads` workers.
    pub fn generate(&self) -> WalkCorpus {
        Pool::new(self.config.threads)
            .map_ranges(self.graph.node_count(), |_, starts| {
                self.generate_shard(starts)
            })
            .into_iter()
            .reduce(|mut corpus, shard| {
                corpus.merge(shard);
                corpus
            })
            .unwrap_or_default()
    }

    /// Generate the walks that start at nodes `starts`.
    fn generate_shard(&self, starts: Range<usize>) -> WalkCorpus {
        let mut corpus = WalkCorpus::default();
        let walks = starts.len() * self.config.walks_per_node;
        corpus.tokens.reserve(walks * self.config.walk_length);
        corpus.offsets.reserve(walks + 1);
        let mut buf = Vec::with_capacity(self.config.walk_length);
        for start in starts {
            let mut rng = StdRng::seed_from_u64(item_seed(self.config.seed, start as u64));
            for _ in 0..self.config.walks_per_node {
                self.walk_from(NodeId(start as u32), &mut rng, &mut buf);
                if buf.len() >= 2 {
                    corpus.push_walk(&buf);
                }
            }
        }
        corpus
    }

    /// One truncated random walk; terminates early at sink nodes. Writes
    /// into `out` to avoid per-walk allocation.
    fn walk_from<R: Rng>(&self, start: NodeId, rng: &mut R, out: &mut Vec<u32>) {
        out.clear();
        out.push(start.0);
        let mut cur = start;
        for _ in 1..self.config.walk_length {
            let neigh = self.graph.und_neighbors(cur);
            if neigh.is_empty() {
                break;
            }
            let next = match (&self.alias, self.config.strategy) {
                (Some(tables), WalkStrategy::Weighted) => {
                    let table = tables[cur.index()]
                        .as_ref()
                        .expect("non-empty neighbourhood must have alias table");
                    neigh[table.sample(rng)]
                }
                _ => neigh[rng.gen_range(0..neigh.len())],
            };
            out.push(next);
            cur = NodeId(next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TransactionRecord, TxGraphBuilder, UserId};

    fn line_graph(n: u64) -> TxGraph {
        let recs: Vec<_> = (0..n - 1)
            .map(|i| TransactionRecord::simple(UserId(i), UserId(i + 1), 100, i as i64))
            .collect();
        TxGraphBuilder::new().add_records(&recs).build()
    }

    #[test]
    fn corpus_counts_match_config() {
        let g = line_graph(10);
        let cfg = WalkConfig {
            walk_length: 5,
            walks_per_node: 3,
            threads: 1,
            ..Default::default()
        };
        let corpus = WalkEngine::new(&g, cfg).generate();
        assert_eq!(corpus.walk_count(), 10 * 3);
        for w in corpus.iter() {
            assert!(w.len() >= 2 && w.len() <= 5);
        }
    }

    #[test]
    fn walks_follow_edges() {
        let g = line_graph(6);
        let cfg = WalkConfig {
            walk_length: 8,
            walks_per_node: 5,
            threads: 1,
            ..Default::default()
        };
        let corpus = WalkEngine::new(&g, cfg).generate();
        for w in corpus.iter() {
            for pair in w.windows(2) {
                let (a, b) = (NodeId(pair[0]), pair[1]);
                assert!(
                    g.und_neighbors(a).contains(&b),
                    "step {} -> {} is not an edge",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let g = line_graph(8);
        let cfg = WalkConfig {
            walk_length: 6,
            walks_per_node: 4,
            threads: 1,
            seed: 99,
            ..Default::default()
        };
        let c1 = WalkEngine::new(&g, cfg.clone()).generate();
        let c2 = WalkEngine::new(&g, cfg).generate();
        assert_eq!(c1.tokens, c2.tokens);
        assert_eq!(c1.offsets, c2.offsets);
    }

    #[test]
    fn parallel_generation_covers_all_nodes() {
        let g = line_graph(20);
        let generate = |threads: usize| {
            let cfg = WalkConfig {
                walk_length: 4,
                walks_per_node: 2,
                threads,
                ..Default::default()
            };
            WalkEngine::new(&g, cfg).generate()
        };
        let corpus = generate(4);
        assert_eq!(corpus.walk_count(), 20 * 2);
        let mut starts = [0usize; 20];
        for w in corpus.iter() {
            starts[w[0] as usize] += 1;
        }
        assert!(starts.iter().all(|&c| c == 2));
        // The same corpus at any thread count.
        for threads in [1, 2] {
            let other = generate(threads);
            assert_eq!(corpus.tokens, other.tokens, "{threads} threads");
            assert_eq!(corpus.offsets, other.offsets, "{threads} threads");
        }
    }

    #[test]
    fn zero_threads_autodetects() {
        let g = line_graph(12);
        let auto = WalkConfig {
            walk_length: 4,
            walks_per_node: 2,
            threads: 0,
            ..Default::default()
        };
        let pinned = WalkConfig {
            threads: titant_parallel::resolve_threads(0),
            ..auto.clone()
        };
        let ca = WalkEngine::new(&g, auto).generate();
        let cp = WalkEngine::new(&g, pinned).generate();
        assert_eq!(ca.walk_count(), 12 * 2);
        assert_eq!(ca.tokens, cp.tokens, "0 must behave as the detected count");
    }

    #[test]
    fn isolated_node_produces_no_walks() {
        // Node 5 has no edges: builder only sees it via a pruned edge.
        let mut b = TxGraphBuilder::new();
        b.add_edge(UserId(0), UserId(1), 1.0);
        b.add_edge(UserId(5), UserId(6), 0.0); // ignored, users not interned
        let g = b.build();
        let cfg = WalkConfig {
            walk_length: 4,
            walks_per_node: 2,
            threads: 1,
            ..Default::default()
        };
        let corpus = WalkEngine::new(&g, cfg).generate();
        // Only nodes 0 and 1 exist, both connected.
        assert_eq!(corpus.walk_count(), 4);
    }

    #[test]
    fn weighted_walks_prefer_heavy_edges() {
        // Star: centre 0 with heavy edge to 1 (w=9) and light to 2 (w=1).
        let mut b = TxGraphBuilder::new();
        b.add_edge(UserId(0), UserId(1), 9.0);
        b.add_edge(UserId(0), UserId(2), 1.0);
        let g = b.build();
        let cfg = WalkConfig {
            walk_length: 2,
            walks_per_node: 3000,
            strategy: WalkStrategy::Weighted,
            threads: 1,
            ..Default::default()
        };
        let corpus = WalkEngine::new(&g, cfg).generate();
        let n0 = g.node_of(UserId(0)).unwrap().0;
        let n1 = g.node_of(UserId(1)).unwrap().0;
        let (mut to1, mut total) = (0usize, 0usize);
        for w in corpus.iter().filter(|w| w[0] == n0) {
            total += 1;
            if w[1] == n1 {
                to1 += 1;
            }
        }
        let f = to1 as f64 / total as f64;
        assert!(f > 0.85, "heavy edge frequency {f} should be ~0.9");
    }
}
