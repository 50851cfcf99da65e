//! Shared experiment machinery: world construction, feature assembly,
//! embedding caches and the train/evaluate protocol.

use std::collections::HashMap;
use titant_datagen::{DatasetSlice, World, WorldConfig};
use titant_eval as eval;
use titant_models::{
    BinningStrategy, C50Config, Classifier, Dataset, Discretizer, GbdtConfig, Id3Config,
    IsolationForestConfig, LogisticRegressionConfig,
};
use titant_nrl::{DeepWalk, DeepWalkConfig, EmbeddingMatrix, Structure2Vec, Structure2VecConfig};
use titant_txgraph::{TxGraph, UserId, WalkConfig};

/// Experiment scale, selectable via the `TITANT_SCALE` environment variable
/// (`tiny`, `small`, `default`, `paper`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI-sized: hundreds of users, seconds end to end.
    Tiny,
    /// Quick look: a few thousand users.
    Small,
    /// The DESIGN.md default (~20 k users).
    Default,
    /// Paper-shaped walk counts (slow).
    Paper,
}

impl Scale {
    /// Read from `TITANT_SCALE`, defaulting to [`Scale::Default`].
    pub fn from_env() -> Self {
        match std::env::var("TITANT_SCALE").unwrap_or_default().as_str() {
            "tiny" => Scale::Tiny,
            "small" => Scale::Small,
            "paper" => Scale::Paper,
            _ => Scale::Default,
        }
    }

    /// The world configuration for this scale (111 days, 7 datasets).
    pub fn world_config(self, seed: u64) -> WorldConfig {
        let base = WorldConfig {
            seed,
            ..Default::default()
        };
        match self {
            Scale::Tiny => WorldConfig {
                n_users: 1_500,
                fraudster_rate: 0.02,
                ..base
            },
            Scale::Small => WorldConfig {
                n_users: 6_000,
                fraudster_rate: 0.013,
                ..base
            },
            Scale::Default | Scale::Paper => base,
        }
    }

    /// Walks per node for DeepWalk at this scale (the paper uses 100).
    pub fn walks_per_node(self) -> usize {
        match self {
            Scale::Tiny => 10,
            Scale::Small => 15,
            Scale::Default => 20,
            Scale::Paper => 100,
        }
    }

    /// Worker threads.
    pub fn threads(self) -> usize {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
            .min(16)
    }
}

/// Which embeddings are appended to the basic features.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EmbeddingKind {
    /// Unsupervised DeepWalk.
    DeepWalk,
    /// Supervised Structure2Vec.
    Structure2Vec,
}

/// A Table-1 feature configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureConfig {
    /// Include the 52 basic features (always true in the paper's configs;
    /// `false` is used by embedding-only diagnostics).
    pub basic: bool,
    pub deepwalk: bool,
    pub structure2vec: bool,
}

impl FeatureConfig {
    /// Basic features only.
    pub const BASIC: Self = Self {
        basic: true,
        deepwalk: false,
        structure2vec: false,
    };
    /// Basic + S2V.
    pub const S2V: Self = Self {
        basic: true,
        deepwalk: false,
        structure2vec: true,
    };
    /// Basic + DW.
    pub const DW: Self = Self {
        basic: true,
        deepwalk: true,
        structure2vec: false,
    };
    /// Basic + DW + S2V.
    pub const DW_S2V: Self = Self {
        basic: true,
        deepwalk: true,
        structure2vec: true,
    };

    /// Paper-style label fragment ("", "+S2V", "+DW", "+DW+S2V").
    pub fn label(&self) -> String {
        let mut s = String::new();
        if self.deepwalk {
            s.push_str("+DW");
        }
        if self.structure2vec {
            s.push_str("+S2V");
        }
        s
    }
}

/// The detection methods of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    IsolationForest,
    Id3,
    C50,
    LogisticRegression,
    Gbdt,
}

impl ModelKind {
    /// Paper-style name.
    pub fn label(&self) -> &'static str {
        match self {
            ModelKind::IsolationForest => "IF",
            ModelKind::Id3 => "ID3",
            ModelKind::C50 => "C5.0",
            ModelKind::LogisticRegression => "LR",
            ModelKind::Gbdt => "GBDT",
        }
    }
}

/// Evaluation results of one configuration on one test day.
#[derive(Debug, Clone, Copy)]
pub struct Metrics {
    /// Test-day F1 at the threshold tuned on the training scores.
    pub f1: f64,
    /// Recall among the top 1 % most suspicious test transactions.
    pub rec_at_top1pct: f64,
    /// Test ROC-AUC (not in the paper; useful for diagnostics).
    pub auc: f64,
    /// Oracle F1: the best achievable on the test day (diagnostics only —
    /// quantifies how much the threshold transfer costs).
    pub oracle_f1: f64,
    /// The alert rate carried over from validation.
    pub alert_rate: f64,
}

/// One world plus per-slice caches of graphs and embeddings.
pub struct Experiment {
    world: World,
    scale: Scale,
    /// slice index -> graph over its network window.
    graphs: HashMap<usize, TxGraph>,
    /// (slice, kind, dim, walks) -> embeddings.
    embeddings: HashMap<(usize, EmbeddingKind, usize, usize), EmbeddingMatrix>,
}

impl Experiment {
    /// Build the shared world at the given scale.
    pub fn new(scale: Scale, seed: u64) -> Self {
        Self {
            world: World::generate(scale.world_config(seed)),
            scale,
            graphs: HashMap::new(),
            embeddings: HashMap::new(),
        }
    }

    /// The underlying world.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The scale the experiment runs at.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The transaction network of a slice's 90-day window (cached).
    pub fn graph(&mut self, slice: &DatasetSlice) -> &TxGraph {
        if !self.graphs.contains_key(&slice.index) {
            let g = self.world.build_graph(slice.graph_days.clone());
            self.graphs.insert(slice.index, g);
        }
        &self.graphs[&slice.index]
    }

    /// Embeddings for a slice (cached). `walks` only affects DeepWalk.
    pub fn embeddings(
        &mut self,
        slice: &DatasetSlice,
        kind: EmbeddingKind,
        dim: usize,
        walks: usize,
    ) -> &EmbeddingMatrix {
        let key = (slice.index, kind, dim, walks);
        if !self.embeddings.contains_key(&key) {
            self.graph(slice); // ensure cached
            let graph = &self.graphs[&slice.index];
            let threads = self.scale.threads();
            let emb = match kind {
                EmbeddingKind::DeepWalk => {
                    let cfg = DeepWalkConfig {
                        walk: WalkConfig {
                            walks_per_node: walks,
                            seed: 0xd3ad ^ slice.index as u64,
                            // Weighted by collapsed transfer count: repeat
                            // relationships (rings, regular counterparties)
                            // dominate one-off edges, which is what makes
                            // the embedding clusters reflect durable
                            // structure instead of incidental contacts.
                            strategy: titant_txgraph::WalkStrategy::Weighted,
                            ..Default::default()
                        },
                        ..DeepWalkConfig::paper_defaults(dim)
                    }
                    .with_threads(threads)
                    .with_walks_per_node(walks);
                    DeepWalk::new(cfg).embed(graph)
                }
                EmbeddingKind::Structure2Vec => {
                    // S2V consumes edge fraud labels known by the end of the
                    // network window (reports lag, so this is already
                    // incomplete — part of why imbalance bites).
                    let labels = self.world.edge_labels(
                        graph,
                        slice.graph_days.clone(),
                        slice.label_cutoff(),
                    );
                    Structure2Vec::train(
                        graph,
                        &labels,
                        &Structure2VecConfig {
                            dim,
                            // Tuned on the synthetic world (see
                            // EXPERIMENTS.md): mild positive reweighting
                            // compensates some of the edge-label imbalance,
                            // though not all of it — DW stays ahead, the
                            // paper's headline ordering.
                            pos_weight: 10.0,
                            learning_rate: 0.05,
                            seed: 0x52 ^ slice.index as u64,
                            ..Default::default()
                        },
                    )
                    .into_embeddings()
                }
            };
            self.embeddings.insert(key, emb);
        }
        &self.embeddings[&key]
    }

    /// Assemble train/test datasets for a slice and feature configuration.
    /// Embedding dimensionality is `dim` per method per transfer party.
    pub fn datasets(
        &mut self,
        slice: &DatasetSlice,
        features: FeatureConfig,
        dim: usize,
        walks: usize,
    ) -> (Dataset, Dataset) {
        let (train_basic, train_idx) = self
            .world
            .basic_dataset(slice.train_days.clone(), slice.label_cutoff());
        let (test_basic, test_idx) = self
            .world
            .basic_dataset(slice.test_day..slice.test_day + 1, i64::MAX);

        let mut kinds: Vec<EmbeddingKind> = Vec::new();
        if features.deepwalk {
            kinds.push(EmbeddingKind::DeepWalk);
        }
        if features.structure2vec {
            kinds.push(EmbeddingKind::Structure2Vec);
        }
        if kinds.is_empty() {
            return (train_basic, test_basic);
        }

        let (mut train, mut test) = if features.basic {
            (train_basic, test_basic)
        } else {
            // Embedding-only diagnostics: keep labels, drop basic columns.
            let strip =
                |d: &Dataset| Dataset::from_parts(1, vec![0.0; d.n_rows()], d.labels().to_vec());
            (strip(&train_basic), strip(&test_basic))
        };
        let stripped = !features.basic;
        for kind in kinds {
            // Materialise embeddings (and graph) before borrowing them.
            self.embeddings(slice, kind, dim, walks);
            let graph = &self.graphs[&slice.index];
            let emb = &self.embeddings[&(slice.index, kind, dim, walks)];
            let tag = match kind {
                EmbeddingKind::DeepWalk => "dw",
                EmbeddingKind::Structure2Vec => "s2v",
            };
            let tr = embedding_dataset(&self.world, &train_idx, graph, emb, tag);
            let te = embedding_dataset(&self.world, &test_idx, graph, emb, tag);
            train = train.hconcat(&tr);
            test = test.hconcat(&te);
        }
        if stripped {
            // Remove the placeholder zero column introduced by strip().
            let cols: Vec<usize> = (1..train.n_cols()).collect();
            train = select_columns(&train, &cols);
            test = select_columns(&test, &cols);
        }
        (train, test)
    }

    /// Train `model` on `train`, evaluate on `test` with the T+1 protocol:
    /// the chronologically *oldest* ~25 % of the training window is held out
    /// to tune the alert operating point. Oldest, not newest: fraud reports
    /// lag by days, so the newest rows are systematically under-labelled —
    /// tuning there would see almost no positives. And it must be held out:
    /// tuning on fitted rows picks thresholds that only exist because trees
    /// memorise their training data.
    pub fn train_and_eval(&self, model: ModelKind, train: &Dataset, test: &Dataset) -> Metrics {
        let n = train.n_rows();
        let val_end = (n as f64 * 0.25) as usize;
        let val_rows: Vec<usize> = (0..val_end).collect();
        let fit_rows: Vec<usize> = (val_end..n).collect();
        let fit = train.subset(&fit_rows);
        let val = train.subset(&val_rows);

        let scores = score_with(model, &fit, &val, test);
        evaluate(&scores, &val, test)
    }

    /// Like [`Self::train_and_eval`] but with an explicit GBDT
    /// configuration (the Figure 12 tree-count sweep).
    pub fn train_and_eval_gbdt(
        &self,
        gbdt: &GbdtConfig,
        train: &Dataset,
        test: &Dataset,
    ) -> Metrics {
        let n = train.n_rows();
        let val_end = (n as f64 * 0.25) as usize;
        let val_rows: Vec<usize> = (0..val_end).collect();
        let fit_rows: Vec<usize> = (val_end..n).collect();
        let fit = train.subset(&fit_rows);
        let val = train.subset(&val_rows);
        let model = gbdt.fit(&fit);
        let scores = Scores {
            val: raw_scores(&model, &val),
            test: raw_scores(&model, test),
        };
        evaluate(&scores, &val, test)
    }
}

struct Scores {
    val: Vec<f32>,
    test: Vec<f32>,
}

/// GBDT ranking scores: the *unclamped* additive score. `predict_proba`
/// clamps the squared-error objective to [0, 1], which collapses the
/// confident head and tail of the ranking into giant tie groups — and a
/// rate threshold landing inside a tie group flags the whole group,
/// wrecking precision. Raw scores are a monotone refinement, so rankings
/// (AUC, rec@top) are identical and the operating point transfers cleanly.
fn raw_scores(model: &titant_models::Gbdt, data: &Dataset) -> Vec<f32> {
    (0..data.n_rows())
        .map(|i| model.raw_score(data.row(i)) as f32)
        .collect()
}

/// Transfer the *alert rate*, not the raw threshold: scores drift between
/// daily models while rankings stay stable, and production alert budgets
/// are rates anyway.
fn evaluate(scores: &Scores, val: &Dataset, test: &Dataset) -> Metrics {
    let (rate, _val_f1) = eval::best_f1_rate(&scores.val, val.labels());
    Metrics {
        f1: eval::f1_at_rate(&scores.test, test.labels(), rate),
        rec_at_top1pct: eval::rec_at_top(&scores.test, test.labels(), 0.01),
        auc: eval::roc_auc(&scores.test, test.labels()),
        oracle_f1: eval::best_f1_threshold(&scores.test, test.labels()).1,
        alert_rate: rate,
    }
}

/// Persist an experiment's rendered output under `results/`.
pub fn save_results(name: &str, content: &str) {
    let dir = std::path::Path::new("results");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(name);
    if std::fs::write(&path, content).is_ok() {
        eprintln!("results written to {}", path.display());
    }
}

/// Fit the requested model on `fit` and score the validation and test sets.
fn score_with(model: ModelKind, fit: &Dataset, val: &Dataset, test: &Dataset) -> Scores {
    match model {
        ModelKind::IsolationForest => {
            // Unsupervised: fit on the training features only (100 trees,
            // paper §5.1); anomaly scores double as fraud scores.
            let forest = IsolationForestConfig::default().fit(fit);
            Scores {
                val: forest.predict_batch(val),
                test: forest.predict_batch(test),
            }
        }
        ModelKind::Id3 => {
            // Coarse equal-width bins: the paper's "cannot support
            // continuous values well" baseline. No pruning -> overfits.
            let disc = Discretizer::fit(fit, 5, BinningStrategy::EqualWidth);
            let tree = Id3Config {
                max_depth: 8,
                ..Default::default()
            }
            .fit(&disc.transform(fit));
            Scores {
                val: tree.predict_batch(&disc.transform(val)),
                test: tree.predict_batch(&disc.transform(test)),
            }
        }
        ModelKind::C50 => {
            // Finer equal-frequency bins + gain ratio + pessimistic pruning:
            // the "better discretization and segmentation" the paper credits
            // for C5.0's edge over ID3.
            let disc = Discretizer::fit(fit, 8, BinningStrategy::EqualFrequency);
            let tree = C50Config {
                max_depth: 12,
                min_cases: 15,
                ..Default::default()
            }
            .fit(&disc.transform(fit));
            Scores {
                val: tree.predict_batch(&disc.transform(val)),
                test: tree.predict_batch(&disc.transform(test)),
            }
        }
        ModelKind::LogisticRegression => {
            // Discretization tuned per feature family (the paper sweeps bin
            // sizes and keeps the best LR): the 52 basic features use the
            // paper's 200 bins; appended embedding coordinates get coarse
            // 8-bin budgets — with one weight per bin, 200-bin embeddings
            // would hand LR thousands of near-empty fraud bins to overfit.
            let n_basic = titant_datagen::N_BASIC_FEATURES.min(fit.n_cols());
            let cfg = if fit.n_cols() > n_basic {
                let mut budgets = vec![200usize; n_basic];
                budgets.resize(fit.n_cols(), 8);
                LogisticRegressionConfig {
                    bins_per_column: Some(budgets),
                    ..Default::default()
                }
            } else {
                LogisticRegressionConfig::default()
            };
            let lr = cfg.fit(fit);
            Scores {
                val: lr.predict_batch(val),
                test: lr.predict_batch(test),
            }
        }
        ModelKind::Gbdt => {
            let gbdt = GbdtConfig::default().fit(fit);
            Scores {
                val: raw_scores(&gbdt, val),
                test: raw_scores(&gbdt, test),
            }
        }
    }
}

/// Unlabelled dataset of embedding columns for both parties of each record
/// (public: the tuning binary assembles custom feature sets with it).
pub fn embedding_dataset(
    world: &World,
    record_idx: &[usize],
    graph: &TxGraph,
    emb: &EmbeddingMatrix,
    tag: &str,
) -> Dataset {
    let d = emb.dim();
    let mut names = Vec::with_capacity(2 * d);
    for side in ["p", "r"] {
        for k in 0..d {
            names.push(format!("{tag}_{side}{k}"));
        }
    }
    let mut data = Dataset::new(2 * d).with_feature_names(names);
    let mut row = vec![0f32; 2 * d];
    for &i in record_idx {
        let rec = &world.records()[i];
        fill_embedding(&mut row[..d], graph, emb, rec.transferor);
        fill_embedding(&mut row[d..], graph, emb, rec.transferee);
        data.push_unlabeled_row(&row);
    }
    data
}

#[inline]
fn fill_embedding(out: &mut [f32], graph: &TxGraph, emb: &EmbeddingMatrix, user: UserId) {
    match graph.node_of(user) {
        // Users absent from the 90-day window get zero vectors (the same
        // cold-start the production system faces for new accounts).
        None => out.iter_mut().for_each(|v| *v = 0.0),
        Some(node) => out.copy_from_slice(emb.row(node)),
    }
}

/// A dataset with only the selected columns (labels preserved).
fn select_columns(data: &Dataset, cols: &[usize]) -> Dataset {
    let mut values = Vec::with_capacity(data.n_rows() * cols.len());
    for i in 0..data.n_rows() {
        let row = data.row(i);
        for &c in cols {
            values.push(row[c]);
        }
    }
    Dataset::from_parts(cols.len(), values, data.labels().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_defaults() {
        // Not setting the env var here; just exercise the mapping.
        assert_eq!(Scale::Tiny.walks_per_node(), 10);
        assert_eq!(Scale::Paper.walks_per_node(), 100);
        assert!(Scale::Default.threads() >= 1);
    }

    #[test]
    fn feature_config_labels_match_paper() {
        assert_eq!(FeatureConfig::BASIC.label(), "");
        assert_eq!(FeatureConfig::DW.label(), "+DW");
        assert_eq!(FeatureConfig::S2V.label(), "+S2V");
        assert_eq!(FeatureConfig::DW_S2V.label(), "+DW+S2V");
    }

    #[test]
    fn tiny_experiment_end_to_end() {
        let mut exp = Experiment::new(Scale::Tiny, 11);
        let slice = DatasetSlice::paper(0);
        let (train, test) = exp.datasets(&slice, FeatureConfig::BASIC, 8, 5);
        assert!(train.n_rows() > 100);
        assert!(test.n_rows() > 10);
        assert_eq!(train.n_cols(), titant_datagen::N_BASIC_FEATURES);
        let m = exp.train_and_eval(ModelKind::Gbdt, &train, &test);
        assert!(m.f1 >= 0.0 && m.f1 <= 1.0);
        assert!(m.auc > 0.5, "GBDT should beat random, auc = {}", m.auc);
    }

    #[test]
    fn embedding_columns_have_double_width() {
        let mut exp = Experiment::new(Scale::Tiny, 13);
        let slice = DatasetSlice::paper(0);
        let (train, _test) = exp.datasets(&slice, FeatureConfig::DW, 8, 5);
        assert_eq!(
            train.n_cols(),
            titant_datagen::N_BASIC_FEATURES + 16,
            "basic + 2 * dim"
        );
    }
}
