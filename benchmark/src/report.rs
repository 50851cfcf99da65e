//! Metric tables, the result line each run prints, and the comparison of
//! whole runs that `--selfcheck` makes.

use serde::Deserialize;
use std::collections::BTreeMap;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the first value by which the second may differ.
    pub bound: f64,
}

/// The end-to-end metrics, as `BENCHMARK.json` lists them (a unit test
/// holds the two together).
pub const END_TO_END: [EndToEnd; 6] = [
    e2e("setup_s", "s", 0.25),
    e2e("ops_per_s", "1/s", 0.25),
    e2e("op_p50_us", "us", 0.25),
    e2e("op_p95_us", "us", 0.25),
    e2e("ok_share", "ratio", 0.01),
    e2e("peak_rss_mb", "MiB", 0.15),
];

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, bound }
}

/// The per-layer metrics and their units, as `BENCHMARK.json` lists them.
/// A traced run prints all of them; one a workload does not exercise reads
/// 0 there.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("alihbase.get_row_p50_us", "us"),
    ("alihbase.get_rows_us_per_row", "us"),
    ("alihbase.runs_scanned_per_read", "count"),
    ("alihbase.runs_skipped_per_read", "count"),
    ("alihbase.bloom_fp_per_read", "count"),
    ("alihbase.row_gets_per_txn", "count"),
    ("alihbase.allocs_per_read", "count"),
    ("alihbase.alloc_bytes_per_read", "B"),
    ("feature_codec.decode_p50_us", "us"),
    ("feature_codec.allocs_per_decode", "count"),
    ("feature_codec.encode_ns_per_cell", "ns"),
    ("feature_codec.cells_per_row", "count"),
    ("row_cache.hit_ratio", "ratio"),
    ("row_cache.evictions_per_txn", "count"),
    ("row_cache.invalidations_per_delta", "count"),
    ("models.predict_p50_ns", "ns"),
    ("models.predict_batch_ns_per_row", "ns"),
    ("server.residual_p50_us", "us"),
    ("server.batch_residual_us_per_txn", "us"),
    ("server.allocs_per_txn", "count"),
    ("server.alloc_bytes_per_txn", "B"),
    ("server.stage_fetch_p50_us", "us"),
    ("server.stage_assemble_p50_us", "us"),
    ("server.stage_predict_p50_us", "us"),
    ("alihbase.put_rows_us_per_batch", "us"),
    ("alihbase.tick_p50_us", "us"),
    ("alihbase.tick_max_ms", "ms"),
    ("alihbase.stall_share", "ratio"),
    ("alihbase.wal_bytes_per_delta", "B"),
    ("alihbase.wal_bytes_per_payload_byte", "ratio"),
    ("alihbase.wal_frames_per_batch", "count"),
    ("alihbase.wal_syncs", "count"),
    ("alihbase.locks_per_batch", "count"),
    ("alihbase.compactions", "count"),
    ("alihbase.runs_merged", "count"),
    ("alihbase.region_splits", "count"),
    ("alihbase.dir_bytes_per_payload_byte", "ratio"),
    ("stream.observe_p50_ns", "ns"),
    ("stream.advance_p50_us", "us"),
    ("stream.flush_p50_ms", "ms"),
    ("stream.flush_max_ms", "ms"),
    ("stream.users_patched_per_tick", "count"),
    ("stream.slots_emitted_per_tick", "count"),
    ("slo.retries", "count"),
    ("slo.hedges", "count"),
    ("slo.failovers", "count"),
    ("slo.shed", "count"),
    ("slo.deadline_exceeded", "count"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.max_backlog", "count"),
    ("tail.p99_us", "us"),
    ("tail.p999_us", "us"),
    ("tail.max_us", "us"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
    ("miss_share", "ratio"),
];

/// Counters that the same seed must reproduce exactly.
pub const EXACT: [&str; 7] = [
    "alihbase.wal_bytes_per_delta",
    "alihbase.runs_scanned_per_read",
    "alihbase.compactions",
    "alihbase.region_splits",
    "server.allocs_per_txn",
    "row_cache.hit_ratio",
    "stream.users_patched_per_tick",
];

/// What one run found. `metrics` holds every metric of the run's kind:
/// the end-to-end ones untraced, the per-layer ones traced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why the outputs are not correct; empty when they are.
    pub faults: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// The run's result as the one JSON object the contract prescribes.
    pub fn result_line(&self) -> String {
        let finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.faults.is_empty() && finite,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[derive(Deserialize)]
struct Reading {
    value: f64,
}

/// The values in the `metrics` object of a result line. (The vendored
/// `serde` reads a `BTreeMap` from a list of pairs, not from an object,
/// hence the impl.)
#[derive(Debug)]
pub struct Readings(pub BTreeMap<String, f64>);

impl Deserialize for Readings {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let entries = value
            .as_map()
            .ok_or_else(|| serde::Error::custom("metrics must be an object"))?;
        let readings = entries
            .iter()
            .map(|(name, v)| Ok((name.clone(), Reading::deserialize(v)?.value)))
            .collect::<Result<_, serde::Error>>()?;
        Ok(Self(readings))
    }
}

/// A result line read back by the runs that drive other runs.
#[derive(Debug, Deserialize)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Readings,
}

impl ResultLine {
    pub fn parse(line: &str) -> Result<Self, String> {
        serde_json::from_str(line).map_err(|e| format!("unreadable result line: {e}"))
    }
}

/// Every metric of one whole benchmark run, keyed by (workload, metric).
pub type RunSet = BTreeMap<(String, String), f64>;

/// Compare two same-seed sets and show a third from another seed: one row
/// per metric × workload with both values, their ratio and the third
/// value. Returns the rows and the violations found.
pub fn compare(first: &RunSet, second: &RunSet, other_seed: &RunSet) -> (Vec<String>, Vec<String>) {
    let mut rows = Vec::new();
    let mut violations = Vec::new();
    for ((workload, metric), &a) in first {
        let key = (workload.clone(), metric.clone());
        let b = second.get(&key).copied().unwrap_or(f64::NAN);
        let c = other_seed.get(&key).copied().unwrap_or(f64::NAN);
        let ratio = if a == b { 1.0 } else { b / a };
        let mut verdict = "";
        if let Some(def) = END_TO_END.iter().find(|d| d.name == metric) {
            if (ratio - 1.0).abs() > def.bound || !ratio.is_finite() {
                verdict = "  OUT OF BOUND";
                violations.push(format!(
                    "{workload} {metric}: {a} vs {b} differ by more than {}",
                    def.bound
                ));
            }
        } else if EXACT.contains(&metric.as_str()) && a.to_bits() != b.to_bits() {
            verdict = "  NOT EXACT";
            violations.push(format!(
                "{workload} {metric}: {a} vs {b} must repeat exactly"
            ));
        }
        rows.push(format!(
            "{workload:<15} {metric:<38} {a:>16.4} {b:>16.4} {ratio:>8.4} {c:>16.4}{verdict}"
        ));
    }
    (rows, violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Deserialize)]
    struct Named {
        name: String,
        unit: String,
    }

    #[derive(Deserialize)]
    struct Bounded {
        name: String,
        unit: String,
        better: String,
        bound: f64,
    }

    #[derive(Deserialize)]
    #[allow(dead_code)]
    struct WorkloadEntry {
        name: String,
        why: String,
    }

    #[derive(Deserialize)]
    #[allow(dead_code)]
    struct Manifest {
        command: Vec<String>,
        paths: Vec<String>,
        run_seconds: u64,
        workloads: Vec<WorkloadEntry>,
        end_to_end: Vec<Bounded>,
        per_layer: Vec<Named>,
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let manifest: Manifest = serde_json::from_str(&text).expect("BENCHMARK.json parses");

        let listed: Vec<(&str, &str, f64)> = manifest
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str(), m.bound))
            .collect();
        let ours: Vec<(&str, &str, f64)> = END_TO_END
            .iter()
            .map(|d| (d.name, d.unit, d.bound))
            .collect();
        assert_eq!(listed, ours);
        for m in &manifest.end_to_end {
            let higher = matches!(m.name.as_str(), "ops_per_s" | "ok_share");
            assert_eq!(
                m.better,
                if higher { "higher" } else { "lower" },
                "{}",
                m.name
            );
        }

        let listed: Vec<(&str, &str)> = manifest
            .per_layer
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        assert_eq!(listed, PER_LAYER.to_vec());

        let listed: Vec<&str> = manifest.workloads.iter().map(|w| w.name.as_str()).collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(listed, ours);
        assert_eq!(manifest.run_seconds, crate::DEFAULT_SECONDS);
    }

    #[test]
    fn result_line_round_trips_and_flags_faults() {
        let mut outcome = Outcome {
            attempted: 1000,
            failed: 0,
            faults: Vec::new(),
            metrics: vec![("op_p50_us", 63.25, "us"), ("setup_s", 4.0, "s")],
        };
        let line = ResultLine::parse(&outcome.result_line()).unwrap();
        assert!(line.correct);
        assert_eq!((line.attempted, line.failed), (1000, 0));
        assert_eq!(line.metrics.0["op_p50_us"], 63.25);
        assert_eq!(line.metrics.0["setup_s"], 4.0);

        outcome
            .faults
            .push("a response mismatched the oracle".into());
        outcome.failed = 1;
        assert!(!ResultLine::parse(&outcome.result_line()).unwrap().correct);
    }

    #[test]
    fn compare_flags_bound_and_exactness_violations() {
        let set = |p50: f64, splits: f64| -> RunSet {
            [
                (("serve_cold".to_string(), "op_p50_us".to_string()), p50),
                (
                    (
                        "ingest_durable".to_string(),
                        "alihbase.region_splits".to_string(),
                    ),
                    splits,
                ),
                (
                    ("serve_cold".to_string(), "tail.p99_us".to_string()),
                    p50 * 3.0,
                ),
            ]
            .into_iter()
            .collect()
        };
        let (rows, violations) = compare(&set(60.0, 1.0), &set(61.0, 1.0), &set(70.0, 2.0));
        assert_eq!(rows.len(), 3);
        assert!(violations.is_empty(), "{violations:?}");

        let (_, violations) = compare(&set(60.0, 1.0), &set(80.0, 2.0), &set(60.0, 1.0));
        assert_eq!(violations.len(), 2, "{violations:?}");
    }
}
