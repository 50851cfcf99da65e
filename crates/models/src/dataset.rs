//! Dense in-memory dataset: the common currency of all detection methods.
//!
//! Row-major `f32` storage keeps single-row scoring (the model server's hot
//! path) contiguous; column views are materialised on demand for training
//! algorithms that iterate feature-wise (tree splits, discretizer fits).

use serde::{Deserialize, Serialize};

/// A dense labelled dataset. Labels are `1.0` (fraud) / `0.0` (normal);
/// unlabelled datasets (anomaly detection input) carry an empty label vec.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Dataset {
    n_cols: usize,
    /// Row-major feature values, `len == n_rows * n_cols`.
    values: Vec<f32>,
    /// One label per row, or empty when unlabelled.
    labels: Vec<f32>,
    /// Optional feature names (diagnostics, model dumps).
    feature_names: Vec<String>,
}

impl Dataset {
    /// Create an empty dataset with `n_cols` features.
    pub fn new(n_cols: usize) -> Self {
        Self {
            n_cols,
            ..Default::default()
        }
    }

    /// Attach human-readable feature names.
    ///
    /// # Panics
    /// Panics if the name count does not match the column count.
    pub fn with_feature_names(mut self, names: Vec<String>) -> Self {
        assert_eq!(names.len(), self.n_cols, "feature name count mismatch");
        self.feature_names = names;
        self
    }

    /// Build from pre-assembled parts.
    ///
    /// # Panics
    /// Panics when `values.len()` is not a multiple of `n_cols`, or when a
    /// non-empty label vector disagrees with the row count.
    pub fn from_parts(n_cols: usize, values: Vec<f32>, labels: Vec<f32>) -> Self {
        assert!(n_cols > 0, "dataset needs at least one column");
        assert_eq!(values.len() % n_cols, 0, "ragged dataset");
        let rows = values.len() / n_cols;
        assert!(
            labels.is_empty() || labels.len() == rows,
            "label count {} != row count {rows}",
            labels.len()
        );
        Self {
            n_cols,
            values,
            labels,
            feature_names: Vec::new(),
        }
    }

    /// Append a labelled row.
    ///
    /// # Panics
    /// Panics if `row.len() != n_cols()`.
    pub fn push_row(&mut self, row: &[f32], label: f32) {
        assert_eq!(row.len(), self.n_cols, "row width mismatch");
        self.values.extend_from_slice(row);
        self.labels.push(label);
    }

    /// Append an unlabelled row (only valid while the dataset has no labels).
    pub fn push_unlabeled_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.n_cols, "row width mismatch");
        assert!(
            self.labels.is_empty(),
            "cannot mix labelled and unlabelled rows"
        );
        self.values.extend_from_slice(row);
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.values.len().checked_div(self.n_cols).unwrap_or(0)
    }

    /// Number of feature columns.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Whether the dataset carries labels.
    #[inline]
    pub fn is_labeled(&self) -> bool {
        !self.labels.is_empty()
    }

    /// Row `i` as a feature slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        let a = i * self.n_cols;
        &self.values[a..a + self.n_cols]
    }

    /// Label of row `i`.
    ///
    /// # Panics
    /// Panics on unlabelled datasets.
    #[inline]
    pub fn label(&self, i: usize) -> f32 {
        self.labels[i]
    }

    /// All labels.
    #[inline]
    pub fn labels(&self) -> &[f32] {
        &self.labels
    }

    /// Feature names, empty if unset.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Name of feature `j`, or a generated `f{j}` placeholder.
    fn feature_name(&self, j: usize) -> String {
        self.feature_names
            .get(j)
            .cloned()
            .unwrap_or_else(|| format!("f{j}"))
    }

    /// Materialise column `j` as a vector.
    pub fn column(&self, j: usize) -> Vec<f32> {
        assert!(j < self.n_cols, "column {j} out of range");
        (0..self.n_rows()).map(|i| self.row(i)[j]).collect()
    }

    /// Fraction of positive labels (the class imbalance the paper highlights).
    pub fn positive_rate(&self) -> f64 {
        if self.labels.is_empty() {
            return 0.0;
        }
        self.labels.iter().filter(|&&l| l > 0.5).count() as f64 / self.labels.len() as f64
    }

    /// A new dataset containing only the given rows (in the given order).
    pub fn subset(&self, rows: &[usize]) -> Dataset {
        let mut out = Dataset::new(self.n_cols);
        out.feature_names = self.feature_names.clone();
        out.values.reserve(rows.len() * self.n_cols);
        if self.is_labeled() {
            out.labels.reserve(rows.len());
        }
        for &r in rows {
            out.values.extend_from_slice(self.row(r));
            if self.is_labeled() {
                out.labels.push(self.labels[r]);
            }
        }
        out
    }

    /// Horizontally concatenate extra feature columns (e.g. node embeddings
    /// appended to basic features). `extra` must have the same row count.
    pub fn hconcat(&self, extra: &Dataset) -> Dataset {
        assert_eq!(
            self.n_rows(),
            extra.n_rows(),
            "row count mismatch in hconcat"
        );
        let n_cols = self.n_cols + extra.n_cols;
        let mut values = Vec::with_capacity(self.n_rows() * n_cols);
        for i in 0..self.n_rows() {
            values.extend_from_slice(self.row(i));
            values.extend_from_slice(extra.row(i));
        }
        let mut names = self.feature_names.clone();
        if !names.is_empty() || !extra.feature_names.is_empty() {
            while names.len() < self.n_cols {
                names.push(format!("f{}", names.len()));
            }
            for j in 0..extra.n_cols {
                names.push(extra.feature_name(j));
            }
        }
        let mut out = Dataset::from_parts(n_cols, values, self.labels.clone());
        out.feature_names = names;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let mut d = Dataset::new(2);
        d.push_row(&[1.0, 2.0], 0.0);
        d.push_row(&[3.0, 4.0], 1.0);
        d.push_row(&[5.0, 6.0], 0.0);
        d
    }

    #[test]
    fn shape_and_access() {
        let d = toy();
        assert_eq!(d.n_rows(), 3);
        assert_eq!(d.n_cols(), 2);
        assert_eq!(d.row(1), &[3.0, 4.0]);
        assert_eq!(d.label(1), 1.0);
        assert_eq!(d.column(1), vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn positive_rate() {
        let d = toy();
        assert!((d.positive_rate() - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(Dataset::new(3).positive_rate(), 0.0);
    }

    #[test]
    fn subset_preserves_order_and_labels() {
        let d = toy();
        let s = d.subset(&[2, 0]);
        assert_eq!(s.n_rows(), 2);
        assert_eq!(s.row(0), &[5.0, 6.0]);
        assert_eq!(s.label(1), 0.0);
    }

    #[test]
    fn hconcat_appends_columns() {
        let d = toy();
        let mut e = Dataset::new(1);
        for v in [9.0, 8.0, 7.0] {
            e.push_unlabeled_row(&[v]);
        }
        let c = d.hconcat(&e);
        assert_eq!(c.n_cols(), 3);
        assert_eq!(c.row(0), &[1.0, 2.0, 9.0]);
        assert_eq!(c.labels(), d.labels());
    }

    #[test]
    fn feature_names_default_and_explicit() {
        let d = Dataset::new(2).with_feature_names(vec!["age".into(), "amt".into()]);
        assert_eq!(d.feature_name(0), "age");
        let d2 = Dataset::new(2);
        assert_eq!(d2.feature_name(1), "f1");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_row_panics() {
        Dataset::new(2).push_row(&[1.0], 0.0);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_from_parts_panics() {
        Dataset::from_parts(2, vec![1.0, 2.0, 3.0], vec![]);
    }

    #[test]
    fn unlabeled_dataset() {
        let mut d = Dataset::new(1);
        d.push_unlabeled_row(&[1.0]);
        assert!(!d.is_labeled());
        assert_eq!(d.n_rows(), 1);
    }
}
