//! The paper's rolling dataset scheme (Figure 8, §5.1).
//!
//! Seven datasets, one per test day from April 10 to April 16, 2017. Each
//! dataset slices the shared history into three windows: 90 days of records
//! to build the transaction network, the next 14 days of labelled records
//! for classifier training, and one final day for testing. Dataset `k`
//! shifts every window forward by `k` days.

use crate::config::WorldConfig;
use std::ops::Range;

/// Number of rolling datasets in the paper (April 10–16).
pub const PAPER_DATASET_COUNT: usize = 7;

/// Days of network / train / test windows in the paper.
pub const GRAPH_WINDOW_DAYS: i64 = 90;
/// Training window length (days).
pub const TRAIN_WINDOW_DAYS: i64 = 14;

/// One rolling dataset slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetSlice {
    /// Dataset index `0..7` (Dataset 1 in the paper is index 0).
    pub index: usize,
    /// Days whose records build the transaction network.
    pub graph_days: Range<i64>,
    /// Days whose labelled records train the classifier.
    pub train_days: Range<i64>,
    /// The single test day.
    pub test_day: i64,
}

impl DatasetSlice {
    /// The paper's slice for dataset `k` (0-based): network days
    /// `k..k+90`, train days `k+90..k+104`, test day `k+104`.
    pub fn paper(k: usize) -> Self {
        assert!(k < PAPER_DATASET_COUNT, "paper defines 7 datasets");
        let k64 = k as i64;
        Self {
            index: k,
            graph_days: k64..k64 + GRAPH_WINDOW_DAYS,
            train_days: k64 + GRAPH_WINDOW_DAYS..k64 + GRAPH_WINDOW_DAYS + TRAIN_WINDOW_DAYS,
            test_day: k64 + GRAPH_WINDOW_DAYS + TRAIN_WINDOW_DAYS,
        }
    }

    /// The last day whose fraud reports are available when training the
    /// model for this slice's test day (T+1: training finishes before the
    /// test day starts).
    pub fn label_cutoff(&self) -> i64 {
        self.test_day - 1
    }

    /// Whether the slice fits inside a world configuration.
    pub fn fits(&self, config: &WorldConfig) -> bool {
        self.test_day < config.n_days && self.train_days.start >= config.feature_start_day
    }

    /// The paper's display name for the test day ("April 10" + k).
    pub fn test_day_name(&self) -> String {
        format!("April {}", 10 + self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_slice_matches_figure_8() {
        let s = DatasetSlice::paper(0);
        assert_eq!(s.graph_days, 0..90);
        assert_eq!(s.train_days, 90..104);
        assert_eq!(s.test_day, 104);
        assert_eq!(s.test_day_name(), "April 10");
    }

    #[test]
    fn slices_roll_forward_one_day() {
        for k in 1..PAPER_DATASET_COUNT {
            let a = DatasetSlice::paper(k - 1);
            let b = DatasetSlice::paper(k);
            assert_eq!(b.graph_days.start, a.graph_days.start + 1);
            assert_eq!(b.test_day, a.test_day + 1);
        }
        assert_eq!(DatasetSlice::paper(6).test_day_name(), "April 16");
    }

    #[test]
    fn windows_are_disjoint_and_adjacent() {
        for s in (0..PAPER_DATASET_COUNT).map(DatasetSlice::paper) {
            assert_eq!(s.graph_days.end, s.train_days.start);
            assert_eq!(s.train_days.end, s.test_day);
        }
    }

    #[test]
    fn label_cutoff_precedes_test_day() {
        let s = DatasetSlice::paper(3);
        assert!(s.label_cutoff() < s.test_day);
    }

    #[test]
    fn fits_default_config() {
        let cfg = WorldConfig::default();
        for s in (0..PAPER_DATASET_COUNT).map(DatasetSlice::paper) {
            assert!(s.fits(&cfg), "slice {} does not fit", s.index);
        }
    }

    #[test]
    #[should_panic(expected = "7 datasets")]
    fn eighth_dataset_rejected() {
        DatasetSlice::paper(7);
    }
}
