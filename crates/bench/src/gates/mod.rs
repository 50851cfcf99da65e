//! The nine gates — the repo's correctness evidence. Each module is one
//! `run() -> Outcome` at one fixed size; a gate's name is the stem of the
//! `BENCH_<name>.json` report the `gates` runner writes for it.
//!
//! A report holds counters and booleans only: no wall clock and nothing
//! that depends on thread scheduling, so a correct tree rewrites it byte
//! for byte on any machine. Timing belongs to `benchmark/`.

use crate::gate::Outcome;

pub mod chaos;
pub mod crash;
pub mod ingest;
pub mod offline;
pub mod offline_sql;
pub mod predict;
pub mod serving_million;
pub mod serving_scale;
pub mod stream;

pub type Gate = (&'static str, fn() -> Outcome);

/// Every gate, in the order `scripts/verify.sh` lists them.
pub const GATES: [Gate; 9] = [
    ("offline", offline::run),
    ("chaos", chaos::run),
    ("serving_scale", serving_scale::run),
    ("ingest", ingest::run),
    ("serving_million", serving_million::run),
    ("offline_sql", offline_sql::run),
    ("crash", crash::run),
    ("stream", stream::run),
    ("predict", predict::run),
];

/// Resolve the runner's arguments: no names selects every gate; otherwise
/// the named gates in table order, each once. An unknown name is an error
/// that lists the valid ones.
pub fn select(names: &[String]) -> Result<Vec<Gate>, String> {
    if let Some(unknown) = names
        .iter()
        .find(|n| GATES.iter().all(|(name, _)| name != n))
    {
        let valid: Vec<&str> = GATES.iter().map(|(name, _)| *name).collect();
        return Err(format!(
            "unknown gate `{unknown}`; valid gates: {}",
            valid.join(", ")
        ));
    }
    Ok(GATES
        .iter()
        .filter(|(name, _)| names.is_empty() || names.iter().any(|n| n == name))
        .copied()
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(selected: &[Gate]) -> Vec<&'static str> {
        selected.iter().map(|(name, _)| *name).collect()
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn no_names_selects_all_nine_in_table_order() {
        let all = select(&[]).expect("empty selection is valid");
        assert_eq!(
            names(&all),
            [
                "offline",
                "chaos",
                "serving_scale",
                "ingest",
                "serving_million",
                "offline_sql",
                "crash",
                "stream",
                "predict"
            ]
        );
    }

    #[test]
    fn a_subset_keeps_table_order_and_drops_duplicates() {
        let picked = select(&args(&["stream", "crash", "stream"])).expect("known names");
        assert_eq!(names(&picked), ["crash", "stream"]);
    }

    #[test]
    fn an_unknown_name_is_an_error_listing_the_valid_ones() {
        let err = select(&args(&["crash", "nope"])).expect_err("unknown name");
        assert!(err.contains("`nope`"), "{err}");
        for (name, _) in GATES {
            assert!(err.contains(name), "{err} should list {name}");
        }
    }
}
