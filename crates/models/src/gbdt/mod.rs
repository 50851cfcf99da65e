//! Gradient Boosting Decision Trees (paper §3.3, Friedman 1999/2002).
//!
//! TitAnt's production classifier. The paper's configuration: 400 trees of
//! depth 3, root-mean-square error as the objective (least-squares boosting
//! on 0/1 labels), and a 0.4 subsampling rate for both samples and features
//! "to prevent overfitting" (§5.1) — i.e. Friedman's *stochastic* gradient
//! boosting.
//!
//! The implementation is histogram-based: every feature is pre-binned once
//! into ≤`bins` equal-frequency buckets ([`binned::BinnedMatrix`]), and each
//! tree node accumulates per-bin gradient/hessian sums to evaluate all
//! split candidates in one pass — the same design as LightGBM/XGBoost's
//! `hist` mode, scaled down.

pub mod binned;
pub mod flat;
pub mod tree;

use crate::dataset::Dataset;
use crate::traits::Classifier;
use binned::BinnedMatrix;
use flat::FlatForest;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;
use titant_parallel::Pool;
use tree::{RegTree, TreeParams};

/// Below this many rows the per-round element-wise passes (gradients,
/// score updates) run inline; scoped-spawn overhead would dominate.
const PAR_ROWS_MIN: usize = 8 * 1024;

/// Loss minimised by the ensemble.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GbdtObjective {
    /// Least squares on 0/1 labels — the paper's "root mean square error"
    /// objective. Scores are clamped to `[0, 1]`.
    SquaredError,
    /// Logistic loss; scores pass through a sigmoid.
    Logistic,
}

/// GBDT training parameters; defaults mirror the paper's production setting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GbdtConfig {
    /// Boosting rounds (paper: 400).
    pub n_trees: usize,
    /// Maximum tree depth (paper: 3).
    pub max_depth: usize,
    /// Shrinkage applied to every leaf.
    pub learning_rate: f64,
    /// Fraction of rows sampled (without replacement) per tree (paper: 0.4).
    pub subsample: f64,
    /// Fraction of features sampled per tree (paper: 0.4).
    pub colsample: f64,
    /// Objective function (paper: squared error).
    pub objective: GbdtObjective,
    /// L2 regularisation on leaf values.
    pub reg_lambda: f64,
    /// Minimum rows per leaf.
    pub min_samples_leaf: usize,
    /// Histogram bins per feature.
    pub bins: usize,
    /// RNG seed for row/feature subsampling.
    pub seed: u64,
    /// Worker threads for training and batch prediction; `0` = auto-detect
    /// via [`std::thread::available_parallelism`]. Training is
    /// **deterministic for a fixed seed regardless of thread count**: the
    /// parallel split search, row partition and element-wise passes are
    /// bit-identical to the single-threaded trainer.
    pub threads: usize,
}

impl Default for GbdtConfig {
    fn default() -> Self {
        Self {
            n_trees: 400,
            max_depth: 3,
            learning_rate: 0.1,
            subsample: 0.4,
            colsample: 0.4,
            objective: GbdtObjective::SquaredError,
            reg_lambda: 1.0,
            min_samples_leaf: 4,
            bins: 64,
            seed: 0x6bd7,
            threads: 0,
        }
    }
}

/// A trained gradient-boosted ensemble.
#[derive(Debug, Clone)]
pub struct Gbdt {
    trees: Vec<RegTree>,
    base_score: f64,
    objective: GbdtObjective,
    n_features: usize,
    /// Batch-prediction worker count carried over from the training config
    /// (`0` = auto). Row-parallel scoring never changes the per-row result.
    threads: usize,
    /// Compiled flat form, built once per model (at fit time, on first use
    /// after deserialization, or eagerly via [`Gbdt::flat`]).
    flat: OnceLock<FlatForest>,
    /// Reusable batch-prediction worker pool, built on first batch call
    /// instead of once per `predict_batch` invocation.
    pool: OnceLock<Pool>,
}

/// Manual serde impls: the compiled flat form and the worker pool are
/// serving-time state, not model state — only the five fields the derived
/// impl used to emit are persisted, so the artifact format is unchanged and
/// a loaded model recompiles on its own.
impl Serialize for Gbdt {
    fn serialize(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("trees".to_string(), self.trees.serialize()),
            ("base_score".to_string(), self.base_score.serialize()),
            ("objective".to_string(), self.objective.serialize()),
            ("n_features".to_string(), self.n_features.serialize()),
            ("threads".to_string(), self.threads.serialize()),
        ])
    }
}

/// A tree that could not be walked — empty, a child out of range or not
/// after its split, a split feature past `n_features` — is an error here,
/// not a panic or a hang on the first score.
impl Deserialize for Gbdt {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let entries = value
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for struct `Gbdt`"))?;
        let trees: Vec<RegTree> = Deserialize::deserialize(serde::field(entries, "trees")?)?;
        let n_features = Deserialize::deserialize(serde::field(entries, "n_features")?)?;
        for (t, tree) in trees.iter().enumerate() {
            tree.check(n_features)
                .map_err(|e| serde::Error::custom(format!("GBDT tree {t}: {e}")))?;
        }
        Ok(Gbdt {
            trees,
            base_score: Deserialize::deserialize(serde::field(entries, "base_score")?)?,
            objective: Deserialize::deserialize(serde::field(entries, "objective")?)?,
            n_features,
            threads: Deserialize::deserialize(serde::field(entries, "threads")?)?,
            flat: OnceLock::new(),
            pool: OnceLock::new(),
        })
    }
}

impl GbdtConfig {
    /// Train on raw continuous/mixed features.
    ///
    /// # Panics
    /// Panics on unlabelled or empty data, or invalid fractions.
    pub fn fit(&self, data: &Dataset) -> Gbdt {
        assert!(data.is_labeled(), "GBDT needs labels");
        assert!(data.n_rows() > 1, "GBDT needs at least two rows");
        assert!(
            self.subsample > 0.0 && self.subsample <= 1.0,
            "subsample must be in (0, 1]"
        );
        assert!(
            self.colsample > 0.0 && self.colsample <= 1.0,
            "colsample must be in (0, 1]"
        );
        let n = data.n_rows();
        let pool = Pool::new(self.threads);
        let matrix = BinnedMatrix::build_with_pool(data, self.bins, &pool);

        let base_score = match self.objective {
            GbdtObjective::SquaredError => {
                data.labels().iter().map(|&y| y as f64).sum::<f64>() / n as f64
            }
            GbdtObjective::Logistic => {
                let p = data.positive_rate().clamp(1e-6, 1.0 - 1e-6);
                (p / (1.0 - p)).ln()
            }
        };

        let mut scores = vec![base_score; n];
        let mut grad = vec![0f32; n];
        let mut hess = vec![0f32; n];
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut trees = Vec::with_capacity(self.n_trees);

        let n_rows_sampled = ((n as f64 * self.subsample).round() as usize).clamp(1, n);
        let n_feats = data.n_cols();
        let n_feats_sampled =
            ((n_feats as f64 * self.colsample).round() as usize).clamp(1, n_feats);
        let mut row_pool: Vec<u32> = (0..n as u32).collect();
        let mut feat_pool: Vec<u32> = (0..n_feats as u32).collect();

        let params = TreeParams {
            max_depth: self.max_depth,
            reg_lambda: self.reg_lambda,
            min_samples_leaf: self.min_samples_leaf,
        };

        let elementwise_pool = if n >= PAR_ROWS_MIN {
            pool.clone()
        } else {
            Pool::serial()
        };
        for _ in 0..self.n_trees {
            // Gradients of the current ensemble: element-wise over disjoint
            // row chunks, so the values are thread-count independent.
            elementwise_pool.for_chunks_mut2(&mut grad, &mut hess, |off, gc, hc| {
                for (k, (g, h)) in gc.iter_mut().zip(hc.iter_mut()).enumerate() {
                    let i = off + k;
                    let y = f64::from(data.label(i));
                    match self.objective {
                        GbdtObjective::SquaredError => {
                            *g = (scores[i] - y) as f32;
                            *h = 1.0;
                        }
                        GbdtObjective::Logistic => {
                            let p = 1.0 / (1.0 + (-scores[i]).exp());
                            *g = (p - y) as f32;
                            *h = (p * (1.0 - p)).max(1e-6) as f32;
                        }
                    }
                }
            });
            // Stochastic GB: sample rows and features without replacement.
            // The RNG is consumed on this thread only, so subsampling is
            // untouched by the worker count.
            row_pool.shuffle(&mut rng);
            let rows = &row_pool[..n_rows_sampled];
            feat_pool.shuffle(&mut rng);
            let mut feats: Vec<u32> = feat_pool[..n_feats_sampled].to_vec();
            feats.sort_unstable();

            let mut tree = RegTree::fit(&matrix, rows, &feats, &grad, &hess, &params, &pool);
            // Update scores of *all* rows with the shrunken tree output.
            elementwise_pool.for_chunks_mut(&mut scores, 1, |off, chunk| {
                for (k, s) in chunk.iter_mut().enumerate() {
                    *s += self.learning_rate * tree.predict_binned(&matrix, (off + k) as u32);
                }
            });
            tree.scale_leaves(self.learning_rate);
            trees.push(tree);
        }

        Gbdt::from_trees(trees, base_score, self.objective, n_feats).with_threads(self.threads)
    }
}

impl Gbdt {
    /// The ensemble `base_score + Σ trees`, each tree already shrunk by the
    /// learning rate, scoring `n_features`-wide rows. Compiles the serving
    /// form while the trainer still owns the model, so the first request
    /// never pays the lowering cost.
    pub fn from_trees(
        trees: Vec<RegTree>,
        base_score: f64,
        objective: GbdtObjective,
        n_features: usize,
    ) -> Self {
        let model = Gbdt {
            trees,
            base_score,
            objective,
            n_features,
            threads: 0,
            flat: OnceLock::new(),
            pool: OnceLock::new(),
        };
        model.flat();
        model
    }

    /// The trees, in boosting order.
    pub fn trees(&self) -> &[RegTree] {
        &self.trees
    }

    /// Number of trees in the ensemble.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Override the batch-prediction worker count (`0` = auto). The thread
    /// count is a serving knob, not a model property: callers that resolve
    /// `threads: 0` before training use this to persist the *configured*
    /// value, keeping the serialized artifact independent of the training
    /// machine's core count. Drops any already-built pool so the next batch
    /// call spawns with the new count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self.pool = OnceLock::new();
        self
    }

    /// The compiled flat form, lowering the ensemble on first call. Fit
    /// builds it eagerly; deserialization paths call this once at load.
    pub fn flat(&self) -> &FlatForest {
        self.flat
            .get_or_init(|| FlatForest::compile(&self.trees, self.base_score, self.n_features))
    }

    /// Whether the flat form has already been compiled (no compile work on
    /// the request path once this returns true).
    pub fn is_compiled(&self) -> bool {
        self.flat.get().is_some()
    }

    /// The reusable batch-prediction pool, spawned lazily on first use.
    fn pool(&self) -> &Pool {
        self.pool.get_or_init(|| Pool::new(self.threads))
    }

    /// The objective's output map from raw additive score to probability.
    #[inline]
    fn transform(&self, s: f64) -> f32 {
        match self.objective {
            GbdtObjective::SquaredError => s.clamp(0.0, 1.0) as f32,
            GbdtObjective::Logistic => (1.0 / (1.0 + (-s).exp())) as f32,
        }
    }

    /// Raw additive score before the objective's output transform, served
    /// by the compiled [`FlatForest`].
    pub fn raw_score(&self, features: &[f32]) -> f64 {
        self.flat().raw_score(features)
    }

    /// The original per-tree `RegNode` enum walk. Kept as the ground truth
    /// the compiled engine is gated against (`predict` gate, the
    /// flat-equivalence property test); bit-identical to
    /// [`FlatForest::raw_score`] by construction.
    pub fn raw_score_reference(&self, features: &[f32]) -> f64 {
        debug_assert_eq!(features.len(), self.n_features);
        let mut s = self.base_score;
        for t in &self.trees {
            s += t.predict_raw(features);
        }
        s
    }

    /// Total split gain attributed to each feature (importance).
    pub fn feature_importance(&self) -> Vec<f64> {
        let mut imp = vec![0.0; self.n_features];
        for t in &self.trees {
            t.accumulate_importance(&mut imp);
        }
        imp
    }
}

impl Classifier for Gbdt {
    fn predict_proba(&self, features: &[f32]) -> f32 {
        self.transform(self.raw_score(features))
    }

    /// Row-parallel batch scoring: rows are scored independently over
    /// contiguous chunks and concatenated in chunk order, so the output
    /// equals the serial row-by-row map exactly. Each chunk is scored
    /// with the blocked tree-at-a-time kernel; raw sums keep
    /// tree order, so every element still matches `predict_proba` of that
    /// row bit for bit. The worker pool is built once and reused across
    /// calls (a fresh scoped-pool spawn per batch used to sit on the
    /// serving path).
    fn predict_batch(&self, data: &Dataset) -> Vec<f32> {
        let n = data.n_rows();
        let pool = self.pool();
        let flat = self.flat();
        let score = |rows: std::ops::Range<usize>| {
            let mut out = vec![0f32; rows.len()];
            flat.predict_blocked_into(data, rows, |s| self.transform(s), &mut out);
            out
        };
        if pool.threads() <= 1 || n < 1024 {
            return score(0..n);
        }
        pool.map_ranges(n, |_, rows| score(rows)).concat()
    }

    fn name(&self) -> &'static str {
        "GBDT"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nonlinear target: label = 1 iff (x > 0.5) XOR (y > 0.5), a pattern a
    /// linear model cannot express but depth-2+ trees can.
    fn xor_continuous(n: usize) -> Dataset {
        let mut d = Dataset::new(2);
        let mut state = 13u64;
        let mut rand01 = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f32 / (1u64 << 31) as f32
        };
        for _ in 0..n {
            let (x, y) = (rand01(), rand01());
            let label = ((x > 0.5) != (y > 0.5)) as u8 as f32;
            d.push_row(&[x, y], label);
        }
        d
    }

    fn quick_cfg() -> GbdtConfig {
        GbdtConfig {
            n_trees: 60,
            learning_rate: 0.3,
            subsample: 0.8,
            colsample: 1.0,
            ..Default::default()
        }
    }

    #[test]
    fn learns_xor_with_squared_error() {
        let d = xor_continuous(1500);
        let m = quick_cfg().fit(&d);
        assert!(m.predict_proba(&[0.9, 0.1]) > 0.7);
        assert!(m.predict_proba(&[0.1, 0.9]) > 0.7);
        assert!(m.predict_proba(&[0.9, 0.9]) < 0.3);
        assert!(m.predict_proba(&[0.1, 0.1]) < 0.3);
    }

    #[test]
    fn learns_xor_with_logistic() {
        let d = xor_continuous(1500);
        let m = GbdtConfig {
            objective: GbdtObjective::Logistic,
            ..quick_cfg()
        }
        .fit(&d);
        assert!(m.predict_proba(&[0.9, 0.1]) > 0.7);
        assert!(m.predict_proba(&[0.9, 0.9]) < 0.3);
    }

    #[test]
    fn scores_in_unit_interval() {
        let d = xor_continuous(300);
        let m = quick_cfg().fit(&d);
        for i in 0..d.n_rows() {
            let p = m.predict_proba(d.row(i));
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn more_trees_fit_training_data_better() {
        let d = xor_continuous(800);
        let small = GbdtConfig {
            n_trees: 5,
            ..quick_cfg()
        }
        .fit(&d);
        let large = GbdtConfig {
            n_trees: 100,
            ..quick_cfg()
        }
        .fit(&d);
        let err = |m: &Gbdt| -> f64 {
            (0..d.n_rows())
                .map(|i| {
                    let p = m.predict_proba(d.row(i)) as f64;
                    (p - d.label(i) as f64).powi(2)
                })
                .sum::<f64>()
                / d.n_rows() as f64
        };
        assert!(err(&large) < err(&small));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let d = xor_continuous(200);
        let m1 = quick_cfg().fit(&d);
        let m2 = quick_cfg().fit(&d);
        assert_eq!(m1.predict_proba(&[0.3, 0.8]), m2.predict_proba(&[0.3, 0.8]));
    }

    /// Wider nonlinear dataset for the cross-thread determinism tests:
    /// 8 features, enough rows to clear the parallel-path thresholds.
    fn wide_nonlinear(n: usize) -> Dataset {
        let mut d = Dataset::new(8);
        let mut state = 29u64;
        let mut rand01 = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f32 / (1u64 << 31) as f32
        };
        for _ in 0..n {
            let row: Vec<f32> = (0..8).map(|_| rand01()).collect();
            let label = ((row[1] > 0.5) != (row[6] > 0.4)) as u8 as f32;
            d.push_row(&row, label);
        }
        d
    }

    /// The seeded determinism contract of the tentpole: for a fixed seed,
    /// the model trained with 1, 2 and 4 worker threads produces
    /// bit-identical predictions on every training row. 10 000 rows × 8
    /// features clears every parallel threshold (binning, split search,
    /// partition, element-wise passes), so the parallel code paths are what
    /// is being compared, not the serial fallbacks.
    #[test]
    fn multithreaded_training_matches_single_threaded() {
        let d = wide_nonlinear(10_000);
        let cfg = |threads: usize| GbdtConfig {
            n_trees: 12,
            subsample: 0.9,
            colsample: 1.0,
            threads,
            ..Default::default()
        };
        let reference = cfg(1).fit(&d);
        let ref_preds = reference.predict_batch(&d);
        for threads in [2usize, 4] {
            let m = cfg(threads).fit(&d);
            let preds = m.predict_batch(&d);
            assert_eq!(
                preds, ref_preds,
                "threads={threads}: parallel training diverged from serial"
            );
        }
    }

    /// The tentpole's end-to-end contract: the compiled flat engine and the
    /// retained reference walk serve the same bits, per row and per batch,
    /// and `fit` compiles the flat form eagerly.
    #[test]
    fn flat_engine_matches_reference_engine_bitwise() {
        let d = wide_nonlinear(2_000);
        let m = GbdtConfig {
            n_trees: 15,
            subsample: 0.8,
            colsample: 1.0,
            ..Default::default()
        }
        .fit(&d);
        assert!(m.is_compiled(), "fit should compile the flat form eagerly");
        let mut ref_batch = Vec::with_capacity(d.n_rows());
        for i in 0..d.n_rows() {
            let row = d.row(i);
            let raw = m.raw_score_reference(row);
            assert_eq!(m.raw_score(row).to_bits(), raw.to_bits(), "row {i}");
            let proba = m.transform(raw).to_bits();
            assert_eq!(m.predict_proba(row).to_bits(), proba);
            ref_batch.push(proba);
        }
        let flat_batch: Vec<u32> = m.predict_batch(&d).iter().map(|p| p.to_bits()).collect();
        assert_eq!(flat_batch, ref_batch);
    }

    /// Satellite: the batch pool is built once and reused — repeated calls
    /// return identical output and `with_threads` takes effect by dropping
    /// the cached pool.
    #[test]
    fn predict_batch_pool_is_reused_and_resettable() {
        let d = wide_nonlinear(3_000);
        let m = GbdtConfig {
            n_trees: 8,
            subsample: 0.8,
            colsample: 1.0,
            threads: 3,
            ..Default::default()
        }
        .fit(&d);
        let first = m.predict_batch(&d);
        let pool_ptr = std::ptr::from_ref(m.pool());
        assert_eq!(m.predict_batch(&d), first, "second call diverged");
        assert!(
            std::ptr::eq(pool_ptr, std::ptr::from_ref(m.pool())),
            "pool was rebuilt between calls"
        );
        let serial = m.with_threads(1);
        assert_eq!(serial.pool().threads(), 1);
        assert_eq!(
            serial.predict_batch(&d),
            first,
            "thread count changed output"
        );
    }

    #[test]
    fn parallel_predict_batch_matches_serial_map() {
        let d = wide_nonlinear(3_000);
        let m = GbdtConfig {
            n_trees: 10,
            subsample: 0.8,
            colsample: 1.0,
            threads: 4,
            ..Default::default()
        }
        .fit(&d);
        let serial: Vec<f32> = (0..d.n_rows()).map(|i| m.predict_proba(d.row(i))).collect();
        assert_eq!(m.predict_batch(&d), serial);
    }

    #[test]
    fn feature_importance_finds_informative_features() {
        // f0 informative, f1 pure noise.
        let mut d = Dataset::new(2);
        let mut state = 21u64;
        let mut rand01 = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f32 / (1u64 << 31) as f32
        };
        for _ in 0..800 {
            let x = rand01();
            d.push_row(&[x, rand01()], (x > 0.5) as u8 as f32);
        }
        let m = quick_cfg().fit(&d);
        let imp = m.feature_importance();
        assert!(imp[0] > imp[1] * 5.0, "importance {imp:?}");
    }

    #[test]
    fn base_score_matches_label_mean_for_squared_error() {
        let mut d = Dataset::new(1);
        for i in 0..10 {
            d.push_row(&[i as f32], if i < 2 { 1.0 } else { 0.0 });
        }
        let m = GbdtConfig {
            n_trees: 0,
            ..quick_cfg()
        }
        .fit(&d);
        assert!((m.raw_score(&[0.0]) - 0.2).abs() < 1e-9);
    }

    /// Regression: the stored leaves were the unshrunk Newton steps, so
    /// every score ignored `learning_rate` (one tree scored the same at
    /// 0.1 and 1.0). One tree's step off the base score now scales with it.
    #[test]
    fn predictions_scale_with_learning_rate() {
        let mut d = Dataset::new(1);
        for i in 0..100 {
            let x = i as f32 / 100.0;
            d.push_row(&[x], (x > 0.5) as u8 as f32);
        }
        let one_tree = |learning_rate: f64| {
            GbdtConfig {
                n_trees: 1,
                max_depth: 1,
                learning_rate,
                subsample: 1.0,
                colsample: 1.0,
                ..Default::default()
            }
            .fit(&d)
        };
        let (slow, full) = (one_tree(0.1), one_tree(1.0));
        for x in [0.1f32, 0.9] {
            let step = |m: &Gbdt| m.raw_score(&[x]) - m.base_score;
            let (a, b) = (step(&slow), step(&full));
            assert!(b.abs() > 0.1, "x {x}: the tree should move the score");
            assert!(
                (a - 0.1 * b).abs() <= 1e-6 * b.abs(),
                "x {x}: step {a} at lr 0.1 vs {b} at lr 1.0"
            );
        }
    }

    #[test]
    #[should_panic(expected = "subsample")]
    fn invalid_subsample_rejected() {
        let d = xor_continuous(10);
        GbdtConfig {
            subsample: 0.0,
            ..Default::default()
        }
        .fit(&d);
    }
}
