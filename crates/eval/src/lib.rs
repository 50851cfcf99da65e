//! # titant-eval — evaluation metrics and experiment tables
//!
//! The TitAnt paper evaluates with F1 score (Table 1) and recall at the top
//! 1 % most-suspicious transactions (Figure 9). Labels are heavily
//! unbalanced, so F1 is computed at the threshold that maximises F1 on the
//! *training* scores and applied unchanged to the test scores — the standard
//! industrial protocol when the operating point must be fixed before the
//! test day arrives (the paper's "T+1" regime).

#![forbid(unsafe_code)]

pub mod metrics;
pub mod table;

pub use metrics::{
    best_f1_rate, best_f1_threshold, confusion_at, f1_at, f1_at_rate, pr_auc, rec_at_top, roc_auc,
    Confusion,
};
pub use table::ExperimentTable;
