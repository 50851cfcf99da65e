//! Experiment-table assembly and rendering.
//!
//! The bench binaries regenerate the paper's tables; this module renders
//! them in the same row/column layout (configurations × days) as both
//! aligned ASCII (for the terminal) and machine-readable CSV.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A named grid of percentage metrics: rows are configurations, columns are
/// e.g. test days. Cells are stored as fractions and rendered as `xx.xx%`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ExperimentTable {
    title: String,
    columns: Vec<String>,
    rows: Vec<String>,
    /// (row, col) -> value.
    cells: BTreeMap<(usize, usize), f64>,
}

impl ExperimentTable {
    /// Create a table with fixed column headers.
    pub fn new(title: impl Into<String>, columns: Vec<String>) -> Self {
        Self {
            title: title.into(),
            columns,
            rows: Vec::new(),
            cells: BTreeMap::new(),
        }
    }

    /// Index of a row, creating it if new.
    pub fn row(&mut self, name: impl Into<String>) -> usize {
        let name = name.into();
        if let Some(i) = self.rows.iter().position(|r| *r == name) {
            return i;
        }
        self.rows.push(name);
        self.rows.len() - 1
    }

    /// Set a cell by row index and column index.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows.len(), "row {row} out of range");
        assert!(col < self.columns.len(), "col {col} out of range");
        self.cells.insert((row, col), value);
    }

    /// Get a cell.
    pub fn get(&self, row: usize, col: usize) -> Option<f64> {
        self.cells.get(&(row, col)).copied()
    }

    /// Row labels in insertion order.
    pub fn row_names(&self) -> &[String] {
        &self.rows
    }

    /// Mean of a row across filled cells (the "on average" comparisons in
    /// the paper's §5.2 discussion).
    pub fn row_mean(&self, row: usize) -> Option<f64> {
        let vals: Vec<f64> = (0..self.columns.len())
            .filter_map(|c| self.get(row, c))
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }

    /// Render as aligned ASCII with percentages, bolding the per-column max
    /// with `*` like the paper bolds best results.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let label_w = self.rows.iter().map(|r| r.len()).max().unwrap_or(4).max(13);
        let cell_w = self
            .columns
            .iter()
            .map(|c| c.len())
            .max()
            .unwrap_or(8)
            .max(8);
        let _ = write!(out, "{:label_w$}", "Configuration");
        for c in &self.columns {
            let _ = write!(out, " | {c:>cell_w$}");
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(label_w + (cell_w + 3) * self.columns.len())
        );
        // Column maxima for the paper-style best-result marker.
        let col_max: Vec<Option<f64>> = (0..self.columns.len())
            .map(|c| {
                (0..self.rows.len())
                    .filter_map(|r| self.get(r, c))
                    .fold(None, |acc: Option<f64>, v| {
                        Some(acc.map_or(v, |m| m.max(v)))
                    })
            })
            .collect();
        for (r, name) in self.rows.iter().enumerate() {
            let _ = write!(out, "{name:label_w$}");
            #[allow(clippy::needless_range_loop)]
            for c in 0..self.columns.len() {
                match self.get(r, c) {
                    Some(v) => {
                        let mark = if col_max[c] == Some(v) { "*" } else { " " };
                        let s = format!("{:.2}%{mark}", v * 100.0);
                        let _ = write!(out, " | {s:>cell_w$}");
                    }
                    None => {
                        let _ = write!(out, " | {:>cell_w$}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Render as CSV (fractions, full precision).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "configuration");
        for c in &self.columns {
            let _ = write!(out, ",{c}");
        }
        let _ = writeln!(out);
        for (r, name) in self.rows.iter().enumerate() {
            let _ = write!(out, "{name}");
            for c in 0..self.columns.len() {
                match self.get(r, c) {
                    Some(v) => {
                        let _ = write!(out, ",{v}");
                    }
                    None => {
                        let _ = write!(out, ",");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExperimentTable {
        let mut t = ExperimentTable::new("Table X", vec!["Apr 10".into(), "Apr 11".into()]);
        let a = t.row("Basic+GBDT");
        let b = t.row("Basic+DW+GBDT");
        t.set(a, 0, 0.5680);
        t.set(a, 1, 0.6547);
        t.set(b, 0, 0.6143);
        t.set(b, 1, 0.6687);
        t
    }

    #[test]
    fn row_is_idempotent() {
        let mut t = sample();
        assert_eq!(t.row("Basic+GBDT"), 0);
        assert_eq!(t.row_names().len(), 2);
    }

    #[test]
    fn render_marks_column_best() {
        let s = sample().render();
        assert!(s.contains("61.43%*"), "render:\n{s}");
        assert!(s.contains("56.80% "), "render:\n{s}");
    }

    #[test]
    fn row_mean_averages_filled_cells() {
        let t = sample();
        let m = t.row_mean(0).unwrap();
        assert!((m - (0.5680 + 0.6547) / 2.0).abs() < 1e-12);
        let mut t2 = ExperimentTable::new("t", vec!["a".into()]);
        let r = t2.row("empty");
        assert!(t2.row_mean(r).is_none());
    }

    #[test]
    fn csv_round_trips_values() {
        let t = sample();
        let csv = t.to_csv();
        assert!(csv.starts_with("configuration,Apr 10,Apr 11"));
        assert!(csv.contains("Basic+GBDT,0.568,0.6547"));
    }

    #[test]
    fn missing_cells_render_as_dash() {
        let mut t = ExperimentTable::new("t", vec!["a".into(), "b".into()]);
        let r = t.row("cfg");
        t.set(r, 0, 0.1);
        let s = t.render();
        assert!(s.contains('-'));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        let mut t = ExperimentTable::new("t", vec!["a".into()]);
        t.set(0, 0, 1.0);
    }
}
