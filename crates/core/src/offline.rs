//! The offline periodical-training pipeline (the left half of Figure 3).
//!
//! One run reproduces what TitAnt does every day:
//!
//! 1. transaction logs land in **MaxCompute**; a MapReduce job aggregates
//!    them into weighted transfer edges (the paper's network construction);
//! 2. the transaction network is built and **DeepWalk** learns user node
//!    embeddings (KunPeng's distributed trainer at cluster scale; the
//!    shared-memory trainer here);
//! 3. the classifier (**GBDT** by the paper's final choice) trains on basic
//!    features ⊕ embeddings, and the alert operating point is tuned on the
//!    mature-labelled validation slice;
//! 4. per-user serving features and embeddings are uploaded to
//!    **Ali-HBase** under the new version, and a [`ModelFile`] is emitted
//!    for the Model Server.

use crate::assemble::{self, fit_val_split};
use crate::error::TitAntError;
use crate::layout;
use std::collections::HashMap;
use std::sync::Arc;
use titant_alihbase::{RegionedTable, StoreConfig};
use titant_datagen::{DatasetSlice, World};
use titant_eval as eval;
use titant_maxcompute::{Account, ColumnType, MaxCompute, Schema, Table};
use titant_models::{Classifier, GbdtConfig};
use titant_modelserver::{FeatureCodec, ModelFile, ServableModel, UserFeatures};
use titant_nrl::{DeepWalk, DeepWalkConfig, EmbeddingMatrix, Word2VecConfig};
use titant_parallel::Pool;
use titant_txgraph::{TxGraph, TxGraphBuilder, UserId, WalkConfig};

/// Regions of the uploaded serving table. A constant, not the thread count,
/// so the served layout (and every counter read from it) is the same on any
/// machine.
const SERVING_REGIONS: usize = 2;

/// Offline-pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Node-embedding dimensionality (paper: 32; 0 disables embeddings).
    pub embedding_dim: usize,
    /// DeepWalk walks per node (paper: 100).
    pub walks_per_node: usize,
    /// Walk length (paper: 50).
    pub walk_length: usize,
    /// Worker threads for every parallel stage (walks, SGNS, MapReduce,
    /// GBDT, assembly, upload). `0` auto-detects via
    /// [`std::thread::available_parallelism`].
    pub threads: usize,
    /// Classifier configuration (paper: 400 trees, depth 3, subsample 0.4).
    pub gbdt: GbdtConfig,
    /// Fraction of the training window (oldest rows) used to tune the alert
    /// operating point.
    pub val_fraction: f64,
    /// Read replicas per serving region in the uploaded feature table
    /// (1 = no replication). Replicas enable the online path's failover
    /// and hedged reads.
    pub serving_replicas: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            embedding_dim: 32,
            walks_per_node: 20,
            walk_length: 50,
            threads: 0,
            gbdt: GbdtConfig::default(),
            val_fraction: 0.25,
            serving_replicas: 1,
        }
    }
}

impl PipelineConfig {
    /// A fast configuration for tests and the quickstart example.
    pub fn quick() -> Self {
        Self {
            embedding_dim: 8,
            walks_per_node: 5,
            walk_length: 10,
            threads: 2,
            gbdt: GbdtConfig {
                n_trees: 60,
                subsample: 0.8,
                ..Default::default()
            },
            ..Default::default()
        }
    }
}

/// Everything one offline run produces.
pub struct OfflineArtifacts {
    /// The transaction network of the 90-day window.
    pub graph: TxGraph,
    /// DeepWalk user node embeddings (empty matrix when disabled).
    pub embeddings: EmbeddingMatrix,
    /// The deployable model.
    pub model_file: ModelFile,
    /// The populated feature store.
    pub feature_table: Arc<RegionedTable>,
    /// Upload version (the test day, i.e. "T+1").
    pub version: u64,
    /// Training-time diagnostics.
    pub train_rows: usize,
}

/// The offline pipeline driver.
pub struct OfflinePipeline {
    config: PipelineConfig,
}

impl OfflinePipeline {
    /// Create a pipeline.
    pub fn new(config: PipelineConfig) -> Self {
        Self { config }
    }

    /// Run one offline training cycle for `slice`.
    ///
    /// Fallible: every stage that touches the batch layer or the feature
    /// store propagates its error instead of panicking, so the T+1 driver
    /// (and anything else that retrains daily) can skip a bad day and keep
    /// serving yesterday's model.
    pub fn run(
        &self,
        world: &World,
        slice: &DatasetSlice,
    ) -> Result<OfflineArtifacts, TitAntError> {
        if slice.test_day >= world.config().n_days {
            return Err(TitAntError::SliceOutOfRange {
                test_day: slice.test_day,
                n_days: world.config().n_days,
            });
        }

        // One resolved thread count + one pool drives every stage.
        let threads = titant_parallel::resolve_threads(self.config.threads);
        let pool = Pool::new(threads);

        // 1. Network construction: log ingestion and edge aggregation
        // through the MaxCompute batch layer.
        let graph = self.build_graph_via_maxcompute(world, slice, threads)?;

        // 2. User node embeddings.
        let embeddings = if self.config.embedding_dim == 0 {
            EmbeddingMatrix::zeros(graph.node_count(), 1)
        } else {
            DeepWalk::new(DeepWalkConfig {
                walk: WalkConfig {
                    walk_length: self.config.walk_length,
                    walks_per_node: self.config.walks_per_node,
                    strategy: titant_txgraph::WalkStrategy::Weighted,
                    threads,
                    ..Default::default()
                },
                word2vec: Word2VecConfig {
                    dim: self.config.embedding_dim,
                    threads,
                    ..Default::default()
                },
            })
            .embed(&graph)
        };

        // 3. Train the classifier and tune the alert operating point.
        let emb_pairs: Vec<(&str, &EmbeddingMatrix)> = if self.config.embedding_dim > 0 {
            vec![("dw", &embeddings)]
        } else {
            Vec::new()
        };
        let (train, _test) =
            assemble::slice_datasets_with_pool(world, slice, &graph, &emb_pairs, &pool);
        let (fit, val) = fit_val_split(&train, self.config.val_fraction);

        let mut gbdt_config = self.config.gbdt.clone();
        if gbdt_config.threads == 0 {
            gbdt_config.threads = threads;
        }
        // Persist the user-configured thread count, not the resolved one:
        // the shipped artifact must not vary with the training machine.
        let model = gbdt_config.fit(&fit).with_threads(self.config.gbdt.threads);
        let val_scores = model.predict_batch(&val);
        let (rate, _f1) = eval::best_f1_rate(&val_scores, val.labels());
        let alert_threshold = score_at_rate(&val_scores, rate);

        // 4. Upload per-user serving features + the model file.
        let version = slice.test_day as u64;
        let feature_table =
            Arc::new(self.upload_features(world, slice, &graph, &embeddings, version, &pool)?);

        let model_file = ModelFile {
            version,
            alert_threshold,
            n_features: train.n_cols(),
            model: ServableModel::Gbdt(model),
        };

        Ok(OfflineArtifacts {
            graph,
            embeddings,
            model_file,
            feature_table,
            version,
            train_rows: train.n_rows(),
        })
    }

    /// Ingest window records into a MaxCompute table and aggregate them to
    /// weighted edges with a distributed SQL GROUP BY (the coordinator
    /// fans the scan over `threads` Fuxi-slot segments and merges the
    /// per-segment counts), then build the CSR graph.
    ///
    /// This used to be a hand-coded MapReduce job; the SQL plan computes
    /// the same `((from, to), count)` aggregation, and `GROUP BY` emits
    /// groups in `BTreeMap` key order — identical to the MapReduce
    /// engine's sorted-key reduce order — so the edge table (and the
    /// built graph) is byte-for-byte what the old job produced.
    fn build_graph_via_maxcompute(
        &self,
        world: &World,
        slice: &DatasetSlice,
        threads: usize,
    ) -> Result<TxGraph, TitAntError> {
        let mc = MaxCompute::new(2, threads, 3);
        mc.create_account(&Account::new("titant", "offline"));
        let session = mc
            .login("titant", "offline")
            .map_err(|e| TitAntError::MaxCompute(e.to_string()))?;

        let mut logs = Table::new(Schema::new(vec![
            ("transferor", ColumnType::Int),
            ("transferee", ColumnType::Int),
        ]));
        for r in world.records_in(slice.graph_days.clone()) {
            if !r.is_self_transfer() {
                logs.push_row(vec![
                    (r.transferor.0 as i64).into(),
                    (r.transferee.0 as i64).into(),
                ]);
            }
        }
        session.create_table("transaction_logs", logs);

        let edges = session
            .sql_distributed(
                "SELECT transferor, transferee, COUNT(*) FROM transaction_logs \
                 GROUP BY transferor, transferee",
                threads.max(1),
            )
            .map_err(|e| TitAntError::MaxCompute(e.to_string()))?;

        let mut builder = TxGraphBuilder::new();
        for i in 0..edges.n_rows() {
            builder.add_edge(
                UserId(edges.cell(i, 0).as_i64().unwrap() as u64),
                UserId(edges.cell(i, 1).as_i64().unwrap() as u64),
                edges.cell(i, 2).as_i64().unwrap() as f32,
            );
        }
        Ok(builder.build())
    }

    /// Per-user feature snapshot: the last observed values in the training
    /// window (production T+1 serves yesterday's snapshot), plus the node
    /// embedding for users inside the network window.
    ///
    /// The table is pre-split into [`SERVING_REGIONS`] regions at user-id
    /// quantiles, and the upload is sharded by region: each region's
    /// contiguous id range is written by one worker, so no two writers share
    /// a region's lock. Neither the contents nor the region layout depend on
    /// the thread count.
    fn upload_features(
        &self,
        world: &World,
        slice: &DatasetSlice,
        graph: &TxGraph,
        embeddings: &EmbeddingMatrix,
        version: u64,
        pool: &Pool,
    ) -> Result<RegionedTable, TitAntError> {
        let dim = if self.config.embedding_dim > 0 {
            embeddings.dim()
        } else {
            0
        };
        let codec = FeatureCodec {
            embedding_dim: dim,
            payer_width: layout::PAYER_SLOTS.len(),
            receiver_width: layout::RECEIVER_SLOTS.len(),
            // The offline stage never writes velocity cells: those belong
            // to the streaming tier (titant-stream) and merge over this
            // upload at read time.
            velocity_width: 0,
        };

        // Latest snapshot per user over the train window. Serial: insertion
        // order is last-write-wins and must follow record order.
        let mut payer_snap: HashMap<u64, Vec<f32>> = HashMap::new();
        let mut recv_snap: HashMap<u64, Vec<f32>> = HashMap::new();
        for i in world.record_range(slice.train_days.clone()) {
            let Some(row) = world.features_of(i) else {
                continue;
            };
            let (p, r, _c) = layout::split_row(row);
            let rec = &world.records()[i];
            payer_snap.insert(rec.transferor.0, p);
            recv_snap.insert(rec.transferee.0, r);
        }

        let mut user_set: std::collections::HashSet<u64> = payer_snap.keys().copied().collect();
        user_set.extend(recv_snap.keys().copied());
        for &user in graph.users() {
            user_set.insert(user.0);
        }
        let mut users: Vec<u64> = user_set.into_iter().collect();
        users.sort_unstable();

        let store_config = StoreConfig {
            replicas: self.config.serving_replicas.max(1),
            ..Default::default()
        };
        let table = RegionedTable::with_user_splits(&users, SERVING_REGIONS, store_config)?;
        // `with_user_splits` cuts at the `chunk_ranges` boundaries, so shard
        // == region.
        let shards = titant_parallel::chunk_ranges(users.len(), SERVING_REGIONS);

        // Whole rows are encoded and landed through `put_rows` in multi-user
        // batches: one region-lock acquisition and one all-or-nothing WAL
        // frame per batch instead of one of each per cell. Batch boundaries
        // only affect physical framing, never table contents, so the
        // thread-count-independence of the upload is preserved.
        const USERS_PER_BATCH: usize = 64;
        let encode_user = |user: u64| {
            let embedding = match (dim, graph.node_of(UserId(user))) {
                (0, _) | (_, None) => vec![0.0; dim],
                (_, Some(node)) => embeddings.row(node).to_vec(),
            };
            let features = UserFeatures {
                payer_side: payer_snap
                    .get(&user)
                    .cloned()
                    .unwrap_or_else(|| vec![0.0; layout::PAYER_SLOTS.len()]),
                receiver_side: recv_snap
                    .get(&user)
                    .cloned()
                    .unwrap_or_else(|| vec![0.0; layout::RECEIVER_SLOTS.len()]),
                embedding,
                velocity: Vec::new(),
            };
            codec.encode_user(user, &features, version)
        };
        pool.map_ranges(shards.len(), |_, owned| -> std::io::Result<()> {
            for shard in &shards[owned] {
                for chunk in users[shard.clone()].chunks(USERS_PER_BATCH) {
                    let mut cells = Vec::new();
                    for &user in chunk {
                        cells.extend(encode_user(user));
                    }
                    table.put_rows(cells)?;
                }
            }
            Ok(())
        })
        .into_iter()
        .collect::<std::io::Result<()>>()?;
        table.flush()?;
        Ok(table)
    }
}

/// Compute mature training labels with a distributed SQL label-join.
///
/// Production TitAnt joins the transaction log against the case/report
/// table in MaxCompute to label the training window; here the same join
/// runs through the SQL engine: `train_txns` (one row per training
/// transaction) inner-joins `fraud_reports` (one row per fraudulent
/// transaction with the day its victim report landed) on transaction id,
/// keeping only reports mature by the slice's label cutoff. Unreported
/// fraud carries `report_day == i64::MAX` and is filtered by the same
/// predicate — exactly the [`World::label_as_of`] rule.
///
/// Returns one label per record of `slice.train_days`, in record order.
/// The join fans out over `segments` Fuxi subtasks; the result is
/// byte-identical for any segment count.
pub fn labels_via_sql(
    world: &World,
    slice: &DatasetSlice,
    segments: usize,
) -> Result<Vec<f32>, TitAntError> {
    let mc = MaxCompute::new(2, segments.max(1), 3);
    mc.create_account(&Account::new("titant", "labels"));
    let session = mc
        .login("titant", "labels")
        .map_err(|e| TitAntError::MaxCompute(e.to_string()))?;

    let range = world.record_range(slice.train_days.clone());

    let mut txns = Table::new(Schema::new(vec![("txn", ColumnType::Int)]));
    for i in range.clone() {
        txns.push_row(vec![(i as i64).into()]);
    }
    session.create_table("train_txns", txns);

    let mut reports = Table::new(Schema::new(vec![
        ("txn", ColumnType::Int),
        ("report_day", ColumnType::Int),
    ]));
    for i in range.clone() {
        if world.is_fraud(i) {
            reports.push_row(vec![(i as i64).into(), world.report_day(i).into()]);
        }
    }
    session.create_table("fraud_reports", reports);

    let matured = session
        .sql_distributed(
            &format!(
                "SELECT txn FROM train_txns JOIN fraud_reports \
                 ON train_txns.txn = fraud_reports.txn \
                 WHERE report_day <= {}",
                slice.label_cutoff()
            ),
            segments.max(1),
        )
        .map_err(|e| TitAntError::MaxCompute(e.to_string()))?;

    let mut labels = vec![0.0f32; range.len()];
    for r in 0..matured.n_rows() {
        let txn = matured.cell(r, 0).as_i64().unwrap() as usize;
        labels[txn - range.start] = 1.0;
    }
    Ok(labels)
}

/// Score threshold achieving the given alert rate on validation scores.
fn score_at_rate(scores: &[f32], rate: f64) -> f32 {
    if scores.is_empty() || rate <= 0.0 {
        return f32::INFINITY;
    }
    let k = ((scores.len() as f64 * rate).round() as usize).clamp(1, scores.len());
    let mut sorted = scores.to_vec();
    sorted.sort_unstable_by(|a, b| b.total_cmp(a));
    sorted[k - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use titant_datagen::WorldConfig;

    fn tiny_setup() -> (World, DatasetSlice) {
        let world = World::generate(WorldConfig::tiny(5));
        let start = world.config().feature_start_day;
        let slice = DatasetSlice {
            index: 0,
            graph_days: 0..start,
            train_days: start..world.config().n_days - 1,
            test_day: world.config().n_days - 1,
        };
        (world, slice)
    }

    #[test]
    fn pipeline_produces_complete_artifacts() {
        let (world, slice) = tiny_setup();
        let artifacts = OfflinePipeline::new(PipelineConfig::quick())
            .run(&world, &slice)
            .unwrap();
        assert!(artifacts.graph.node_count() > 50);
        assert_eq!(artifacts.embeddings.dim(), 8);
        assert_eq!(
            artifacts.model_file.n_features,
            titant_datagen::N_BASIC_FEATURES + 16
        );
        assert!(artifacts.model_file.alert_threshold.is_finite());
        assert!(artifacts.train_rows > 100);
        // Feature table holds at least the graph users.
        let codec = FeatureCodec {
            embedding_dim: 8,
            payer_width: layout::PAYER_SLOTS.len(),
            receiver_width: layout::RECEIVER_SLOTS.len(),
            velocity_width: 0,
        };
        let some_user = artifacts.graph.users()[0];
        assert!(codec
            .get_user(&artifacts.feature_table, some_user.0, u64::MAX)
            .unwrap()
            .is_some());
    }

    #[test]
    fn batch_layer_and_direct_graphs_agree() {
        let (world, slice) = tiny_setup();
        let via_mc = OfflinePipeline::new(PipelineConfig::quick());
        let direct = world.build_graph(slice.graph_days.clone());
        let mc_graph = via_mc
            .build_graph_via_maxcompute(&world, &slice, 2)
            .unwrap();
        assert_eq!(mc_graph.node_count(), direct.node_count());
        assert_eq!(mc_graph.edge_count(), direct.edge_count());
    }

    /// The SQL GROUP BY that replaced the hand-coded MapReduce job must
    /// reproduce its output table cell-for-cell: same `(from, to, count)`
    /// triples in the same sorted-key order, for any segment count.
    #[test]
    fn sql_edge_aggregation_matches_the_old_mapreduce_job() {
        use titant_maxcompute::Value;
        let (world, slice) = tiny_setup();
        let mc = MaxCompute::new(2, 4, 3);
        mc.create_account(&Account::new("titant", "offline"));
        let session = mc.login("titant", "offline").unwrap();

        let mut logs = Table::new(Schema::new(vec![
            ("transferor", ColumnType::Int),
            ("transferee", ColumnType::Int),
        ]));
        for r in world.records_in(slice.graph_days.clone()) {
            if !r.is_self_transfer() {
                logs.push_row(vec![
                    (r.transferor.0 as i64).into(),
                    (r.transferee.0 as i64).into(),
                ]);
            }
        }
        session.create_table("transaction_logs", logs);

        let via_mr = session
            .mapreduce(
                "transaction_logs",
                Schema::new(vec![
                    ("from", ColumnType::Int),
                    ("to", ColumnType::Int),
                    ("weight", ColumnType::Int),
                ]),
                &|row: &[Value]| vec![((row[0].as_i64().unwrap(), row[1].as_i64().unwrap()), 1u32)],
                &|k: &(i64, i64), vs: &[u32]| {
                    vec![vec![k.0.into(), k.1.into(), (vs.len() as i64).into()]]
                },
                2,
            )
            .unwrap();

        for segments in [1, 2, 4] {
            let via_sql = session
                .sql_distributed(
                    "SELECT transferor, transferee, COUNT(*) FROM transaction_logs \
                     GROUP BY transferor, transferee",
                    segments,
                )
                .unwrap();
            assert_eq!(via_sql.n_rows(), via_mr.n_rows());
            for i in 0..via_mr.n_rows() {
                for c in 0..3 {
                    assert_eq!(via_sql.cell(i, c), via_mr.cell(i, c), "row {i} col {c}");
                }
            }
        }
    }

    /// The SQL label-join must reproduce [`World::label_as_of`] at the
    /// slice's label cutoff for every training record, and be identical
    /// across segment counts.
    #[test]
    fn sql_label_join_matches_label_as_of() {
        let (world, slice) = tiny_setup();
        let range = world.record_range(slice.train_days.clone());
        let expected: Vec<f32> = range
            .clone()
            .map(|i| world.label_as_of(i, slice.label_cutoff()))
            .collect();
        assert!(
            expected.iter().any(|&l| l > 0.5),
            "fixture must contain matured fraud"
        );
        let serial = labels_via_sql(&world, &slice, 1).unwrap();
        assert_eq!(serial, expected);
        assert_eq!(labels_via_sql(&world, &slice, 4).unwrap(), expected);
    }

    #[test]
    fn out_of_range_slice_is_rejected() {
        let (world, mut slice) = tiny_setup();
        slice.test_day = 10_000;
        let result = OfflinePipeline::new(PipelineConfig::quick()).run(&world, &slice);
        assert!(matches!(
            result.err(),
            Some(TitAntError::SliceOutOfRange { .. })
        ));
    }

    #[test]
    fn score_at_rate_picks_the_kth_score() {
        let scores = [0.9f32, 0.5, 0.7, 0.1];
        assert_eq!(score_at_rate(&scores, 0.25), 0.9);
        assert_eq!(score_at_rate(&scores, 0.5), 0.7);
        assert_eq!(score_at_rate(&scores, 0.0), f32::INFINITY);
    }

    #[test]
    fn embeddings_disabled_yields_basic_only_model() {
        let (world, slice) = tiny_setup();
        let artifacts = OfflinePipeline::new(PipelineConfig {
            embedding_dim: 0,
            ..PipelineConfig::quick()
        })
        .run(&world, &slice)
        .unwrap();
        assert_eq!(
            artifacts.model_file.n_features,
            titant_datagen::N_BASIC_FEATURES
        );
    }

    /// The feature store must not depend on the thread count: the same
    /// region layout, users, cells, and bytes — embeddings included —
    /// regardless of how walks, SGNS shards and the upload are spread over
    /// workers.
    #[test]
    fn upload_is_identical_across_thread_counts() {
        let (world, slice) = tiny_setup();
        let dump = |threads: usize| {
            let artifacts = OfflinePipeline::new(PipelineConfig {
                embedding_dim: 8,
                threads,
                ..PipelineConfig::quick()
            })
            .run(&world, &slice)
            .unwrap();
            let rows = artifacts.feature_table.scan_rows(
                &titant_alihbase::RowKey::from_str(""),
                &titant_alihbase::RowKey::from_str("\u{10FFFF}"),
            );
            assert!(!rows.is_empty());
            (artifacts.feature_table.region_count(), rows)
        };
        let serial = dump(1);
        assert_eq!(serial.0, SERVING_REGIONS);
        assert_eq!(serial, dump(2));
        assert_eq!(serial, dump(4));
    }
}
