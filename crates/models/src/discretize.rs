//! Feature discretization (binning).
//!
//! The paper reports that LR "is implemented with discretization
//! preprocessing which tremendously improves performance" with a bin size of
//! 200 (§5.2), and that the rule-based trees "cannot support continuous
//! values well" so data is discretized into bins (§5.1, citing Kotsiantis &
//! Kanellopoulos). Two strategies are provided:
//!
//! * **equal width** — fixed-size intervals over `[min, max]`; the coarse
//!   scheme the ID3 baseline uses,
//! * **equal frequency** — quantile cuts so every bin holds roughly the same
//!   number of training rows; robust to the heavy-tailed amount features.

use crate::dataset::Dataset;
use serde::{Deserialize, Serialize};

/// How bin boundaries are chosen during [`Discretizer::fit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BinningStrategy {
    /// Fixed-width intervals spanning the observed range.
    EqualWidth,
    /// Quantile cuts: equal row counts per bin (duplicate cuts collapse).
    EqualFrequency,
}

/// Per-column bin boundaries fitted on training data.
///
/// A column with `k` cut points has `k + 1` bins; `bin_of` maps a value `v`
/// to the number of cut points `< v` (so values below the first cut map to
/// bin 0, above the last to bin `k`). Unseen out-of-range values therefore
/// clamp naturally to the edge bins.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Discretizer {
    /// `cuts[j]` is the sorted cut-point list of column `j`.
    cuts: Vec<Vec<f32>>,
}

impl Discretizer {
    /// Fit boundaries on every column of `data` with at most `bins` bins.
    ///
    /// # Panics
    /// Panics if `bins < 2` or the dataset is empty.
    pub fn fit(data: &Dataset, bins: usize, strategy: BinningStrategy) -> Self {
        Self::fit_per_column(data, &vec![bins; data.n_cols()], strategy)
    }

    /// Fit with a per-column bin budget — production discretization is
    /// tuned per feature family (the paper reports sweeping bin sizes and
    /// keeping the best).
    ///
    /// # Panics
    /// Panics if any budget is `< 2`, the budget count mismatches the
    /// column count, or the dataset is empty.
    pub fn fit_per_column(
        data: &Dataset,
        bins_per_column: &[usize],
        strategy: BinningStrategy,
    ) -> Self {
        assert_eq!(
            bins_per_column.len(),
            data.n_cols(),
            "one bin budget per column"
        );
        assert!(
            bins_per_column.iter().all(|&b| b >= 2),
            "need at least two bins"
        );
        assert!(data.n_rows() > 0, "cannot fit a discretizer on no rows");
        let cuts = (0..data.n_cols())
            .map(|j| {
                let bins = bins_per_column[j];
                let mut col = data.column(j);
                col.retain(|v| v.is_finite());
                if col.is_empty() {
                    return Vec::new();
                }
                match strategy {
                    BinningStrategy::EqualWidth => equal_width_cuts(&col, bins),
                    BinningStrategy::EqualFrequency => equal_frequency_cuts(col, bins),
                }
            })
            .collect();
        Self { cuts }
    }

    /// Number of columns the discretizer was fitted on.
    pub fn n_cols(&self) -> usize {
        self.cuts.len()
    }

    /// Number of bins for column `j`.
    pub fn n_bins(&self, j: usize) -> usize {
        self.cuts[j].len() + 1
    }

    /// Total number of bins across all columns (the one-hot width for LR).
    pub fn total_bins(&self) -> usize {
        self.cuts.iter().map(|c| c.len() + 1).sum()
    }

    /// Bin index of `value` in column `j`.
    #[inline]
    pub fn bin_of(&self, j: usize, value: f32) -> usize {
        let cuts = &self.cuts[j];
        // partition_point returns the count of cuts <= value; NaN maps to 0.
        if value.is_nan() {
            return 0;
        }
        cuts.partition_point(|&c| c <= value)
    }

    /// Map a raw feature row to flat one-hot indices (one per column).
    pub fn onehot_indices(&self, row: &[f32], out: &mut Vec<u32>) {
        debug_assert_eq!(row.len(), self.cuts.len());
        out.clear();
        let mut offset = 0usize;
        for (j, &v) in row.iter().enumerate() {
            out.push((offset + self.bin_of(j, v)) as u32);
            offset += self.cuts[j].len() + 1;
        }
    }

    /// Replace every value with its bin index (as `f32`), keeping labels.
    pub fn transform(&self, data: &Dataset) -> Dataset {
        assert_eq!(data.n_cols(), self.cuts.len(), "column count mismatch");
        let mut values = Vec::with_capacity(data.n_rows() * data.n_cols());
        for i in 0..data.n_rows() {
            for (j, &v) in data.row(i).iter().enumerate() {
                values.push(self.bin_of(j, v) as f32);
            }
        }
        Dataset::from_parts(data.n_cols(), values, data.labels().to_vec())
    }
}

fn equal_width_cuts(col: &[f32], bins: usize) -> Vec<f32> {
    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
    for &v in col {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if lo >= hi {
        return Vec::new(); // constant column: single bin
    }
    let width = (hi as f64 - lo as f64) / bins as f64;
    (1..bins)
        .map(|b| (lo as f64 + width * b as f64) as f32)
        .collect()
}

/// Greedy quantile cuts over sorted values: close a bin once it holds at
/// least `n / bins` rows *and* the next value is distinct, so duplicates
/// never produce empty bins (the LightGBM-style refinement).
fn equal_frequency_cuts(mut col: Vec<f32>, bins: usize) -> Vec<f32> {
    col.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let n = col.len();
    let target = (n / bins).max(1);
    let mut cuts = Vec::with_capacity(bins - 1);
    let mut in_bin = 0usize;
    for i in 0..n {
        in_bin += 1;
        if in_bin >= target && i + 1 < n && col[i + 1] > col[i] && cuts.len() < bins - 1 {
            cuts.push(col[i + 1]);
            in_bin = 0;
        }
    }
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset_of(cols: Vec<Vec<f32>>) -> Dataset {
        let n_rows = cols[0].len();
        let n_cols = cols.len();
        let mut values = Vec::with_capacity(n_rows * n_cols);
        for i in 0..n_rows {
            for c in &cols {
                values.push(c[i]);
            }
        }
        Dataset::from_parts(n_cols, values, vec![0.0; n_rows])
    }

    #[test]
    fn equal_width_splits_range_evenly() {
        let d = dataset_of(vec![(0..10).map(|v| v as f32).collect()]);
        let disc = Discretizer::fit(&d, 3, BinningStrategy::EqualWidth);
        assert_eq!(disc.n_bins(0), 3);
        assert_eq!(disc.bin_of(0, 0.0), 0);
        assert_eq!(disc.bin_of(0, 4.0), 1);
        assert_eq!(disc.bin_of(0, 9.0), 2);
        // Out-of-range clamps.
        assert_eq!(disc.bin_of(0, -100.0), 0);
        assert_eq!(disc.bin_of(0, 100.0), 2);
    }

    #[test]
    fn equal_frequency_balances_counts() {
        // Heavy tail: most mass at small values.
        let mut col: Vec<f32> = vec![1.0; 90];
        col.extend((0..10).map(|v| 100.0 + v as f32));
        let d = dataset_of(vec![col.clone()]);
        let disc = Discretizer::fit(&d, 4, BinningStrategy::EqualFrequency);
        // Duplicate quantiles collapse; at least the tail is separated.
        assert!(disc.n_bins(0) >= 2);
        assert_ne!(disc.bin_of(0, 1.0), disc.bin_of(0, 109.0));
    }

    #[test]
    fn constant_column_gets_single_bin() {
        let d = dataset_of(vec![vec![5.0; 8]]);
        for s in [BinningStrategy::EqualWidth, BinningStrategy::EqualFrequency] {
            let disc = Discretizer::fit(&d, 4, s);
            assert_eq!(disc.n_bins(0), 1);
            assert_eq!(disc.bin_of(0, 5.0), 0);
            assert_eq!(disc.bin_of(0, -1.0), 0);
        }
    }

    #[test]
    fn transform_produces_bin_indices() {
        let d = dataset_of(vec![vec![0.0, 5.0, 10.0], vec![1.0, 1.0, 2.0]]);
        let disc = Discretizer::fit(&d, 2, BinningStrategy::EqualWidth);
        let t = disc.transform(&d);
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.row(0)[0], 0.0);
        assert_eq!(t.row(2)[0], 1.0);
    }

    #[test]
    fn onehot_indices_are_disjoint_across_columns() {
        let d = dataset_of(vec![vec![0.0, 10.0], vec![0.0, 10.0]]);
        let disc = Discretizer::fit(&d, 2, BinningStrategy::EqualWidth);
        let mut idx = Vec::new();
        disc.onehot_indices(&[0.0, 10.0], &mut idx);
        assert_eq!(idx.len(), 2);
        // Column 1's bins start after column 0's `cuts + 1` bins.
        let col1 = (disc.cuts[0].len() + 1) as u32;
        assert!(idx[1] >= col1);
        assert!(idx[0] < col1);
        assert!((disc.total_bins() as u32) > idx[1]);
    }

    #[test]
    fn nan_maps_to_bin_zero() {
        let d = dataset_of(vec![vec![0.0, 1.0, 2.0]]);
        let disc = Discretizer::fit(&d, 3, BinningStrategy::EqualFrequency);
        assert_eq!(disc.bin_of(0, f32::NAN), 0);
    }

    #[test]
    #[should_panic(expected = "at least two bins")]
    fn one_bin_is_rejected() {
        let d = dataset_of(vec![vec![0.0, 1.0]]);
        Discretizer::fit(&d, 1, BinningStrategy::EqualWidth);
    }
}
