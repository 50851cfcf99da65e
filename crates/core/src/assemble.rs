//! Dataset assembly for a rolling dataset slice: basic features ⊕ node
//! embeddings for both transfer parties, labelled as-of the T+1 cutoff.

use titant_datagen::{DatasetSlice, World};
use titant_models::Dataset;
use titant_nrl::EmbeddingMatrix;
use titant_parallel::Pool;
use titant_txgraph::{TxGraph, UserId};

/// Below this many rows the per-chunk spawn cost outweighs the copy work.
const PAR_ASSEMBLE_MIN_ROWS: usize = 4 * 1024;

/// Which embeddings a configuration appends to the basic features.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmbeddingChoice {
    /// Basic features only.
    None,
    /// Basic + DeepWalk.
    DeepWalk,
    /// Basic + Structure2Vec.
    Structure2Vec,
    /// Basic + both.
    Both,
}

/// Unlabelled dataset of embedding columns (`2 * dim` wide: transferor then
/// transferee) for the given records. Users outside the network window get
/// zero vectors — the production cold-start.
///
/// Row materialization is sharded across the pool's workers. Each worker
/// fills a disjoint row-aligned span of one preallocated value buffer, so
/// the output is byte-identical to the serial path for any thread count.
fn embedding_columns(
    world: &World,
    record_idx: &[usize],
    graph: &TxGraph,
    emb: &EmbeddingMatrix,
    tag: &str,
    pool: &Pool,
) -> Dataset {
    let d = emb.dim();
    let mut names = Vec::with_capacity(2 * d);
    for side in ["p", "r"] {
        for k in 0..d {
            names.push(format!("{tag}_{side}{k}"));
        }
    }
    let width = 2 * d;
    if width == 0 {
        let mut data = Dataset::new(0);
        for _ in record_idx {
            data.push_unlabeled_row(&[]);
        }
        return data;
    }
    let mut values = vec![0f32; record_idx.len() * width];
    let fill_span = |first_row: usize, span: &mut [f32]| {
        for (offset, chunk) in span.chunks_exact_mut(width).enumerate() {
            let rec = &world.records()[record_idx[first_row + offset]];
            fill(&mut chunk[..d], graph, emb, rec.transferor);
            fill(&mut chunk[d..], graph, emb, rec.transferee);
        }
    };
    if pool.threads() > 1 && record_idx.len() >= PAR_ASSEMBLE_MIN_ROWS {
        pool.for_chunks_mut(&mut values, width, |first_row, span| {
            fill_span(first_row, span)
        });
    } else {
        fill_span(0, &mut values);
    }
    Dataset::from_parts(width, values, Vec::new()).with_feature_names(names)
}

#[inline]
fn fill(out: &mut [f32], graph: &TxGraph, emb: &EmbeddingMatrix, user: UserId) {
    match graph.node_of(user) {
        None => out.iter_mut().for_each(|v| *v = 0.0),
        Some(node) => out.copy_from_slice(emb.row(node)),
    }
}

/// Assemble labelled train/test datasets for a slice.
///
/// * `embeddings` — `(tag, matrix)` pairs to append, in order (the Table 1
///   "+DW+S2V" configuration passes both).
/// * Train labels use reports received by the slice's label cutoff; test
///   labels are evaluation-time.
/// * Embedding rows are materialized across the pool's workers (same
///   output for any thread count).
pub fn slice_datasets(
    world: &World,
    slice: &DatasetSlice,
    graph: &TxGraph,
    embeddings: &[(&str, &EmbeddingMatrix)],
    pool: &Pool,
) -> (Dataset, Dataset) {
    let (mut train, train_idx) =
        world.basic_dataset(slice.train_days.clone(), slice.label_cutoff());
    let (mut test, test_idx) = world.basic_dataset(slice.test_day..slice.test_day + 1, i64::MAX);
    for (tag, emb) in embeddings {
        train = train.hconcat(&embedding_columns(world, &train_idx, graph, emb, tag, pool));
        test = test.hconcat(&embedding_columns(world, &test_idx, graph, emb, tag, pool));
    }
    (train, test)
}

/// Chronological fit/validation split: the oldest `val_fraction` of rows
/// become the validation set (their labels have matured; the newest rows
/// are systematically under-labelled because fraud reports lag).
pub fn fit_val_split(train: &Dataset, val_fraction: f64) -> (Dataset, Dataset) {
    assert!((0.0..1.0).contains(&val_fraction), "fraction in [0,1)");
    let n = train.n_rows();
    let val_end = (n as f64 * val_fraction) as usize;
    let val_rows: Vec<usize> = (0..val_end).collect();
    let fit_rows: Vec<usize> = (val_end..n).collect();
    (train.subset(&fit_rows), train.subset(&val_rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use titant_datagen::WorldConfig;
    use titant_nrl::{DeepWalk, DeepWalkConfig, Word2VecConfig};
    use titant_txgraph::WalkConfig;

    fn tiny_world() -> World {
        World::generate(WorldConfig::tiny(3))
    }

    fn tiny_slice(world: &World) -> DatasetSlice {
        let start = world.config().feature_start_day;
        DatasetSlice {
            index: 0,
            graph_days: 0..start,
            train_days: start..world.config().n_days - 1,
            test_day: world.config().n_days - 1,
        }
    }

    #[test]
    fn datasets_have_expected_widths() {
        let world = tiny_world();
        let slice = tiny_slice(&world);
        let graph = world.build_graph(slice.graph_days.clone());
        let emb = DeepWalk::new(DeepWalkConfig {
            walk: WalkConfig {
                walk_length: 6,
                walks_per_node: 3,
                ..Default::default()
            },
            word2vec: Word2VecConfig {
                dim: 4,
                epochs: 1,
                ..Default::default()
            },
        })
        .embed(&graph);
        let (train, test) =
            slice_datasets(&world, &slice, &graph, &[("dw", &emb)], &Pool::serial());
        assert_eq!(train.n_cols(), titant_datagen::N_BASIC_FEATURES + 8);
        assert_eq!(test.n_cols(), train.n_cols());
        assert!(train.n_rows() > test.n_rows());
        assert!(train.is_labeled() && test.is_labeled());
    }

    #[test]
    fn fit_val_split_is_chronological() {
        let world = tiny_world();
        let slice = tiny_slice(&world);
        let graph = world.build_graph(slice.graph_days.clone());
        let (train, _) = slice_datasets(&world, &slice, &graph, &[], &Pool::serial());
        let (fit, val) = fit_val_split(&train, 0.25);
        assert_eq!(fit.n_rows() + val.n_rows(), train.n_rows());
        // Oldest rows go to validation.
        assert_eq!(val.row(0), train.row(0));
        assert_eq!(fit.row(0), train.row(val.n_rows()));
    }

    /// The pooled materialization path must be byte-identical to the serial
    /// one. The repeated index list pushes the row count past the parallel
    /// threshold so the sharded path actually runs.
    #[test]
    fn pooled_embedding_columns_match_serial() {
        let world = tiny_world();
        let slice = tiny_slice(&world);
        let graph = world.build_graph(slice.graph_days.clone());
        let emb = DeepWalk::new(DeepWalkConfig {
            walk: WalkConfig {
                walk_length: 6,
                walks_per_node: 3,
                ..Default::default()
            },
            word2vec: Word2VecConfig {
                dim: 4,
                epochs: 1,
                ..Default::default()
            },
        })
        .embed(&graph);
        let (_, test_idx) = world.basic_dataset(slice.test_day..slice.test_day + 1, i64::MAX);
        let idx: Vec<usize> = test_idx
            .iter()
            .cycle()
            .take(super::PAR_ASSEMBLE_MIN_ROWS + 77)
            .copied()
            .collect();
        let serial = embedding_columns(&world, &idx, &graph, &emb, "dw", &Pool::serial());
        for threads in [2usize, 3, 8] {
            let pooled = embedding_columns(&world, &idx, &graph, &emb, "dw", &Pool::new(threads));
            assert_eq!(pooled.n_rows(), serial.n_rows());
            for i in 0..serial.n_rows() {
                assert_eq!(pooled.row(i), serial.row(i), "row {i}, threads {threads}");
            }
        }
    }

    #[test]
    fn unknown_users_embed_as_zeros() {
        let world = tiny_world();
        let slice = tiny_slice(&world);
        // Empty graph: nobody is known.
        let graph = world.build_graph(0..0);
        let emb = titant_nrl::EmbeddingMatrix::zeros(0, 4);
        let (_train, test_idx) = world.basic_dataset(slice.test_day..slice.test_day + 1, i64::MAX);
        let _ = _train;
        let cols = embedding_columns(&world, &test_idx, &graph, &emb, "dw", &Pool::serial());
        for i in 0..cols.n_rows() {
            assert!(cols.row(i).iter().all(|&v| v == 0.0));
        }
    }
}
