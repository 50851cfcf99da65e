//! **Flat inference** — the compiled flat-ensemble inference engine vs the
//! retained `RegNode` reference walk.
//!
//! Drives one deterministic Zipf traffic panel ([`TrafficGen`]) through a
//! Model Server serving the compiled [`FlatForest`] and gates on:
//!
//! * **bit-identity** — on every row the server assembled, `raw_score`
//!   equals the retained `raw_score_reference` enum walk bit for bit, and
//!   the served probability is that row's `predict_proba`: hot Zipf users,
//!   unknown users (zero-filled context-only rows), and requests whose
//!   context carries NaN (NaN-left routing end to end);
//! * **replay and worker invariance** — a re-run of the flat stream and a
//!   1-worker vs 3-worker serve pool produce the same per-transaction
//!   score map;
//! * **counted traversal work** — on an assembled row panel the blocked
//!   batch kernel performs exactly the node and leaf visits of the per-row
//!   walks (nothing skipped, nothing extra) while touching **strictly
//!   fewer** cold node-array entries — descents entering a freshly
//!   switched tree, the cache-line-equivalent cost the container's single
//!   core cannot show as wall time.
//!
//! Predict-stage latency is the benchmark's (`models.predict_p50_ns` in
//! `benchmark/`); this gate reports counters and booleans only.

use crate::gate::{memory_table, score_map, Checks, Outcome, Serving};
use serde::Serialize;
use titant_datagen::{TrafficConfig, TrafficGen};
use titant_models::{Classifier, Dataset, FlatForest, TraversalCounts};
use titant_modelserver::{ScoreRequest, ServableModel};

const N_USERS: u64 = 512;
const N_REQUESTS: u64 = 4_096;
/// Wide enough (many trees) that tree-switch costs dominate a per-row walk.
const N_TREES: usize = 120;

/// The full request panel over one deterministic Zipf stream:
/// * most requests pair two known (often hot) users,
/// * every 9th transferee is an unknown user — its slots assemble to the
///   zero cold-start input (context-only row),
/// * every 13th request carries a NaN context value, exercising NaN-left
///   routing through every tree of the served model.
fn requests() -> Vec<ScoreRequest> {
    let traffic = TrafficGen::new(TrafficConfig {
        n_users: N_USERS,
        n_blocks: 32,
        zipf_s: 1.1,
        flash: None,
        seed: 0x9ed1c7,
    });
    (0..N_REQUESTS)
        .map(|i| {
            let (payer, mut recv) = traffic.pair_at(i);
            if i % 9 == 8 {
                recv = 900_000 + i; // never written: context-only row
            }
            let context = if i % 13 == 12 {
                vec![f32::NAN]
            } else {
                vec![(i % 1000) as f32 / 1000.0]
            };
            ScoreRequest {
                tx_id: i,
                transferor: payer,
                transferee: recv,
                context,
            }
        })
        .collect()
}

/// The row panel the counted gate runs over: the feature vectors the server
/// must have assembled (known, context-only, and NaN rows alike), rebuilt
/// independently from the fixture's layout and per-user rows.
fn assembled_panel(fx: &Serving, stream: &[ScoreRequest]) -> Dataset {
    let lay = &fx.layout;
    let (dim, emb) = (lay.embedding_dim, lay.n_basic);
    let mut d = Dataset::new(lay.width());
    for req in stream {
        let mut row = vec![0f32; lay.width()];
        if req.transferor < N_USERS {
            let p = fx.features_of(req.transferor);
            for (&slot, v) in lay.payer_slots.iter().zip(p.payer_side) {
                row[slot] = v;
            }
            row[emb..emb + dim].copy_from_slice(&p.embedding);
        }
        if req.transferee < N_USERS {
            let r = fx.features_of(req.transferee);
            for (&slot, v) in lay.receiver_slots.iter().zip(r.receiver_side) {
                row[slot] = v;
            }
            row[emb + dim..emb + 2 * dim].copy_from_slice(&r.embedding);
        }
        for (&slot, &v) in lay.context_slots.iter().zip(&req.context) {
            row[slot] = v;
        }
        d.push_row(&row, 0.0);
    }
    d
}

#[derive(Serialize)]
struct CountedReport {
    rows: usize,
    trees: usize,
    per_row_node_visits: u64,
    blocked_node_visits: u64,
    per_row_leaf_visits: u64,
    blocked_leaf_visits: u64,
    per_row_tree_switches: u64,
    blocked_tree_switches: u64,
    per_row_cold_node_visits: u64,
    blocked_cold_node_visits: u64,
    visits_conserved: bool,
    blocked_strictly_fewer_cold: bool,
    blocked_bits_identical: bool,
}

#[derive(Serialize)]
struct Report {
    bench: String,
    n_users: u64,
    n_requests: usize,
    n_trees: usize,
    flat_vs_reference_identical: bool,
    nan_rows: usize,
    context_only_rows: usize,
    rerun_identical: bool,
    workers_identical: bool,
    counted: CountedReport,
    pass: bool,
}

/// Counted-traversal gate over the assembled row panel: per-row walks and
/// the blocked kernel must do identical total work, the blocked order must
/// touch strictly fewer cold node-array entries, and the raw sums must be
/// bit-identical.
fn counted_gate(flat: &FlatForest, panel: &Dataset, checks: &mut Checks) -> CountedReport {
    let mut per_row = TraversalCounts::default();
    let per_row_raw: Vec<u64> = (0..panel.n_rows())
        .map(|i| flat.raw_score_counted(panel.row(i), &mut per_row).to_bits())
        .collect();
    let mut blocked = TraversalCounts::default();
    let mut blocked_out = vec![0f64; panel.n_rows()];
    flat.raw_scores_blocked_counted(panel, 0..panel.n_rows(), &mut blocked_out, &mut blocked);
    CountedReport {
        rows: panel.n_rows(),
        trees: flat.n_trees(),
        per_row_node_visits: per_row.node_visits,
        blocked_node_visits: blocked.node_visits,
        per_row_leaf_visits: per_row.leaf_visits,
        blocked_leaf_visits: blocked.leaf_visits,
        per_row_tree_switches: per_row.tree_switches,
        blocked_tree_switches: blocked.tree_switches,
        per_row_cold_node_visits: per_row.cold_node_visits,
        blocked_cold_node_visits: blocked.cold_node_visits,
        visits_conserved: checks.check(
            "blocked kernel visits the same nodes and leaves as the per-row walks",
            per_row.node_visits == blocked.node_visits
                && per_row.leaf_visits == blocked.leaf_visits,
        ),
        blocked_strictly_fewer_cold: checks.check(
            "blocked kernel touches strictly fewer cold nodes",
            blocked.cold_node_visits < per_row.cold_node_visits,
        ),
        blocked_bits_identical: checks.check(
            "blocked kernel raw sums equal the per-row walks",
            blocked_out
                .iter()
                .zip(&per_row_raw)
                .all(|(b, r)| b.to_bits() == *r),
        ),
    }
}

pub fn run() -> Outcome {
    eprintln!("predict: {N_USERS} users, {N_REQUESTS} requests, {N_TREES} trees");
    let fx = Serving::new(2, 2, 1, 2, N_TREES, 3);
    let model_file = fx.model();
    let ServableModel::Gbdt(model) = &model_file.model;
    let stream = requests();
    let nan_rows = stream.iter().filter(|r| r.context[0].is_nan()).count();
    let context_only_rows = stream.iter().filter(|r| r.transferee >= N_USERS).count();
    let table = memory_table();
    fx.upload(&table, 0..N_USERS);
    let mut checks = Checks::default();

    // Gate (a): flat engine bit-identical to the reference walk on every
    // row the server scored, and the served bits are those rows' scores.
    let server = fx.server(&table, &model_file, None);
    let served = score_map(&server, &stream, 0);
    let panel = assembled_panel(&fx, &stream);
    let flat_vs_reference_identical = checks.check(
        "flat engine equals the reference walk on every served row",
        served.iter().enumerate().all(|(i, &(bits, _))| {
            let row = panel.row(i);
            model.raw_score(row).to_bits() == model.raw_score_reference(row).to_bits()
                && model.predict_proba(row).to_bits() == bits
        }),
    );
    eprintln!(
        "  flat vs reference: identical={flat_vs_reference_identical} ({nan_rows} NaN rows, {context_only_rows} context-only rows)"
    );

    // Gate (b): replay and worker-count invariance of the flat engine.
    let rerun_identical = checks.check(
        "flat engine re-run reproduces its scores",
        score_map(&server, &stream, 0) == served,
    );
    let workers_identical = checks.check(
        "score map does not vary with pool worker count",
        score_map(&server, &stream, 1) == served && score_map(&server, &stream, 3) == served,
    );

    // Gate (c): counted traversal work on the assembled row panel.
    let counted = counted_gate(model.flat(), &panel, &mut checks);
    eprintln!(
        "  counted: node visits {} (conserved={}), cold touches blocked {} vs per-row {} (switches {} vs {})",
        counted.per_row_node_visits,
        counted.visits_conserved,
        counted.blocked_cold_node_visits,
        counted.per_row_cold_node_visits,
        counted.blocked_tree_switches,
        counted.per_row_tree_switches
    );

    Outcome::new(
        checks.pass(),
        &Report {
            bench: "predict".into(),
            n_users: N_USERS,
            n_requests: stream.len(),
            n_trees: N_TREES,
            flat_vs_reference_identical,
            nan_rows,
            context_only_rows,
            rerun_identical,
            workers_identical,
            counted,
            pass: checks.pass(),
        },
    )
}
