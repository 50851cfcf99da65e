//! Logistic Regression with discretization preprocessing (paper §3.3, §5.1).
//!
//! The paper's LR setting: equal-frequency discretization with bin size 200
//! ("which tremendously improves performance"), L1 regularisation with
//! weight 0.1, and 300 iterations as the stopping criterion. Internally the
//! model one-hot encodes every feature's bin, so each raw row becomes a
//! sparse vector with exactly `n_cols` active indicator features — training
//! is sparse SGD with per-update soft-thresholding for the L1 term.

use crate::dataset::Dataset;
use crate::discretize::{BinningStrategy, Discretizer};
use crate::traits::Classifier;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Training parameters; defaults mirror the paper's reported setting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogisticRegressionConfig {
    /// Bins per feature for the internal discretizer (paper: 200).
    pub bins: usize,
    /// Optional per-column bin budgets overriding `bins` (tuned
    /// discretization per feature family; `None` = uniform `bins`).
    pub bins_per_column: Option<Vec<usize>>,
    /// Binning strategy (equal frequency is robust to heavy tails).
    pub strategy: BinningStrategy,
    /// Per-weight L1 penalty λ. The paper reports an L1 "weight" of 0.1
    /// under its own normalisation; here λ multiplies each one-hot weight
    /// directly (objective `mean_logloss + λ·Σ|w|/n`), so the shrinkage per
    /// weight stays constant as feature columns are added.
    pub l1: f64,
    /// Upper bound on training epochs (paper: 300 iterations).
    pub max_epochs: usize,
    /// Adagrad master step size.
    pub learning_rate: f64,
    /// Early-stop when relative log-loss improvement falls below this.
    pub tol: f64,
    /// Shuffle / init seed.
    pub seed: u64,
}

impl Default for LogisticRegressionConfig {
    fn default() -> Self {
        Self {
            bins: 200,
            bins_per_column: None,
            strategy: BinningStrategy::EqualFrequency,
            l1: 1e-3,
            max_epochs: 300,
            learning_rate: 0.1,
            tol: 1e-5,
            seed: 0x10_6157,
        }
    }
}

/// A trained discretized logistic-regression model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogisticRegression {
    discretizer: Discretizer,
    /// One weight per (feature, bin) indicator.
    weights: Vec<f32>,
    bias: f32,
}

#[inline]
fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

impl LogisticRegressionConfig {
    /// Train on raw (continuous or mixed) features; discretization happens
    /// inside and ships with the model.
    ///
    /// # Panics
    /// Panics on an empty or unlabelled dataset.
    pub fn fit(&self, data: &Dataset) -> LogisticRegression {
        assert!(data.is_labeled(), "LR needs labels");
        assert!(data.n_rows() > 1, "LR needs at least two rows");
        let discretizer = match &self.bins_per_column {
            Some(budgets) => Discretizer::fit_per_column(data, budgets, self.strategy),
            None => Discretizer::fit(data, self.bins, self.strategy),
        };
        let d = discretizer.total_bins();
        let n = data.n_rows();

        // Pre-encode rows to flat one-hot index lists: row i occupies
        // indices[i*n_cols .. (i+1)*n_cols].
        let n_cols = data.n_cols();
        let mut indices = Vec::with_capacity(n * n_cols);
        let mut scratch = Vec::with_capacity(n_cols);
        for i in 0..n {
            discretizer.onehot_indices(data.row(i), &mut scratch);
            indices.extend_from_slice(&scratch);
        }

        let mut weights = vec![0f64; d];
        let mut bias = {
            // Initialise bias at the log-odds of the base rate: crucial for
            // unbalanced labels, otherwise early epochs waste time.
            let p = data.positive_rate().clamp(1e-6, 1.0 - 1e-6);
            (p / (1.0 - p)).ln()
        };

        let lambda = self.l1;
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut prev_loss = f64::INFINITY;
        // Adagrad accumulators: per-coordinate adaptive steps suit sparse
        // one-hot features (rare bins keep large steps, frequent bins
        // anneal) far better than a global schedule.
        let mut acc = vec![0f64; d];
        let mut acc_bias = 0f64;
        const EPS: f64 = 1e-8;

        for _epoch in 0..self.max_epochs {
            order.shuffle(&mut rng);
            let lr = self.learning_rate;
            let mut loss_sum = 0.0;
            for &i in &order {
                let i = i as usize;
                let row_idx = &indices[i * n_cols..(i + 1) * n_cols];
                let mut z = bias;
                for &j in row_idx {
                    z += weights[j as usize];
                }
                let p = sigmoid(z);
                let y = f64::from(data.label(i));
                loss_sum -= if y > 0.5 {
                    p.max(1e-12).ln()
                } else {
                    (1.0 - p).max(1e-12).ln()
                };
                let g = p - y;
                acc_bias += g * g;
                bias -= lr * g / (acc_bias.sqrt() + EPS);
                for &j in row_idx {
                    let j = j as usize;
                    acc[j] += g * g;
                    let step = lr / (acc[j].sqrt() + EPS);
                    let w = &mut weights[j];
                    *w -= step * g;
                    // Soft-threshold the touched weight (truncated gradient).
                    *w = w.signum() * (w.abs() - step * lambda).max(0.0);
                }
            }
            let loss = loss_sum / n as f64;
            if prev_loss - loss < self.tol * prev_loss.abs().max(1e-12) {
                break;
            }
            prev_loss = loss;
        }

        LogisticRegression {
            discretizer,
            weights: weights.into_iter().map(|w| w as f32).collect(),
            bias: bias as f32,
        }
    }
}

impl Classifier for LogisticRegression {
    fn predict_proba(&self, features: &[f32]) -> f32 {
        let mut z = f64::from(self.bias);
        let mut offset = 0usize;
        for (j, &v) in features.iter().enumerate() {
            let bin = self.discretizer.bin_of(j, v);
            z += f64::from(self.weights[offset + bin]);
            offset += self.discretizer.n_bins(j);
        }
        sigmoid(z) as f32
    }

    fn name(&self) -> &'static str {
        "LR"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fraction of exactly-zero weights (the L1 sparsity effect).
    fn sparsity(m: &LogisticRegression) -> f64 {
        let zeros = m.weights.iter().filter(|&&w| w == 0.0).count();
        zeros as f64 / m.weights.len() as f64
    }

    /// Linearly separable-in-bins data: label = 1 iff f0 > 5.
    fn step_data(n: usize) -> Dataset {
        let mut d = Dataset::new(2);
        let mut state = 7u64;
        let mut rand01 = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f32 / (1u64 << 31) as f32
        };
        for _ in 0..n {
            let x = rand01() * 10.0;
            let noise = rand01() * 10.0;
            d.push_row(&[x, noise], if x > 5.0 { 1.0 } else { 0.0 });
        }
        d
    }

    fn quick_cfg() -> LogisticRegressionConfig {
        LogisticRegressionConfig {
            bins: 10,
            max_epochs: 60,
            ..Default::default()
        }
    }

    #[test]
    fn learns_a_threshold_rule() {
        let d = step_data(500);
        let m = quick_cfg().fit(&d);
        assert!(m.predict_proba(&[9.0, 5.0]) > 0.8);
        assert!(m.predict_proba(&[1.0, 5.0]) < 0.2);
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let d = step_data(200);
        let m = quick_cfg().fit(&d);
        for i in 0..d.n_rows() {
            let p = m.predict_proba(d.row(i));
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn strong_l1_zeroes_noise_weights() {
        let d = step_data(500);
        let weak = LogisticRegressionConfig {
            l1: 0.0,
            ..quick_cfg()
        }
        .fit(&d);
        let strong = LogisticRegressionConfig {
            l1: 50.0,
            ..quick_cfg()
        }
        .fit(&d);
        assert!(
            sparsity(&strong) > sparsity(&weak),
            "strong {} vs weak {}",
            sparsity(&strong),
            sparsity(&weak)
        );
    }

    #[test]
    fn bias_init_matches_base_rate_on_degenerate_data() {
        // All-negative labels: prediction should stay near 0 everywhere.
        let mut d = Dataset::new(1);
        for i in 0..50 {
            d.push_row(&[i as f32], 0.0);
        }
        let m = LogisticRegressionConfig {
            bins: 5,
            max_epochs: 5,
            ..Default::default()
        }
        .fit(&d);
        assert!(m.predict_proba(&[25.0]) < 0.05);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let d = step_data(100);
        let m1 = quick_cfg().fit(&d);
        let m2 = quick_cfg().fit(&d);
        assert_eq!(m1.predict_proba(d.row(0)), m2.predict_proba(d.row(0)));
    }

    #[test]
    fn unbalanced_data_ranks_positives_higher() {
        // 5% positive rate, threshold at f0 > 9.5.
        let mut d = Dataset::new(1);
        let mut state = 99u64;
        let mut rand01 = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f32 / (1u64 << 31) as f32
        };
        for _ in 0..1000 {
            let x = rand01() * 10.0;
            d.push_row(&[x], if x > 9.5 { 1.0 } else { 0.0 });
        }
        let m = quick_cfg().fit(&d);
        assert!(m.predict_proba(&[9.9]) > m.predict_proba(&[3.0]));
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert!(sigmoid(100.0) > 0.999_999);
        assert!(sigmoid(-100.0) < 1e-6);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
    }
}
