//! **Predict latency** — the compiled flat-ensemble inference engine vs the
//! retained `RegNode` reference walk.
//!
//! ```sh
//! cargo run --release -p titant-bench --bin predict_latency            # full panel
//! cargo run --release -p titant-bench --bin predict_latency -- --quick # gate sizes
//! ```
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
//! The wall-clock predict-stage mean is reported alongside, informational
//! only — the pass/fail gate rests on bit-identity and the counted
//! traversal model.
//!
//! Writes `BENCH_predict.json`. Exits nonzero when any gate fails.

use serde::Serialize;
use std::sync::Arc;
use titant_alihbase::{RegionedTable, StoreConfig};
use titant_bench::harness;
use titant_datagen::{TrafficConfig, TrafficGen};
use titant_models::{Classifier, Dataset, FlatForest, GbdtConfig, TraversalCounts};
use titant_modelserver::{
    FeatureCodec, FeatureLayout, ModelFile, ModelServer, ScoreRequest, ServableModel, SloConfig,
    Stage, UserFeatures,
};

const N_USERS: u64 = 512;

/// Layout mirroring the server's unit harness: 2 payer + 2 receiver +
/// 1 context = 5 basic slots, 2 embedding dims per side (width 9).
fn layout() -> FeatureLayout {
    FeatureLayout {
        n_basic: 5,
        payer_slots: vec![0, 1],
        receiver_slots: vec![2, 3],
        context_slots: vec![4],
        embedding_dim: 2,
        velocity_width: 0,
    }
}

fn codec() -> FeatureCodec {
    FeatureCodec {
        embedding_dim: 2,
        payer_width: 2,
        receiver_width: 2,
        velocity_width: 0,
    }
}

/// The served ensemble: wide enough (many trees) that tree-switch costs
/// dominate a per-row walk, trained on the layout's 9-slot rows.
fn gbdt(n_trees: usize) -> titant_models::Gbdt {
    let mut d = Dataset::new(9);
    let mut state = 3u64;
    let mut rand01 = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 33) as f32 / (1u64 << 31) as f32
    };
    for _ in 0..600 {
        let mut row = [0f32; 9];
        for v in row.iter_mut() {
            *v = rand01();
        }
        let label = ((row[4] > 0.5) != (row[0] > 0.6)) as u8 as f32;
        d.push_row(&row, label);
    }
    GbdtConfig {
        n_trees,
        subsample: 0.8,
        colsample: 0.8,
        ..Default::default()
    }
    .fit(&d)
}

fn model_file(model: titant_models::Gbdt) -> ModelFile {
    ModelFile {
        version: 20170410,
        alert_threshold: 0.5,
        n_features: 9,
        model: ServableModel::Gbdt(model),
    }
}

fn features_of(user: u64) -> UserFeatures {
    let x = (user % 97) as f32 / 97.0;
    UserFeatures {
        payer_side: vec![x, 1.0 - x],
        receiver_side: vec![x * 0.5, x * 0.25],
        embedding: vec![x, -x],
        velocity: Vec::new(),
    }
}

fn build_table() -> Arc<RegionedTable> {
    let table = Arc::new(RegionedTable::single(StoreConfig::default()).expect("in-memory table"));
    let c = codec();
    for user in 0..N_USERS {
        c.put_user(&table, user, &features_of(user), 20170410)
            .expect("upload");
    }
    table
}

/// The full request panel over one deterministic Zipf stream:
/// * most requests pair two known (often hot) users,
/// * every 9th transferee is an unknown user — its slots assemble to the
///   zero cold-start input (context-only row),
/// * every 13th request carries a NaN context value, exercising NaN-left
///   routing through every tree of the served model.
fn requests(n: usize) -> Vec<ScoreRequest> {
    let traffic = TrafficGen::new(TrafficConfig {
        n_users: N_USERS,
        n_blocks: 32,
        zipf_s: 1.1,
        flash: None,
        seed: 0x9ed1c7,
    });
    (0..n)
        .map(|i| {
            let (payer, mut recv) = traffic.pair_at(i as u64);
            if i % 9 == 8 {
                recv = 900_000 + i as u64; // never written: context-only row
            }
            let context = if i % 13 == 12 {
                vec![f32::NAN]
            } else {
                vec![(i % 1000) as f32 / 1000.0]
            };
            ScoreRequest {
                tx_id: i as u64,
                transferor: payer,
                transferee: recv,
                context,
            }
        })
        .collect()
}

fn server_over(table: &Arc<RegionedTable>, mf: ModelFile) -> ModelServer {
    ModelServer::with_options(Arc::clone(table), layout(), mf, SloConfig::default(), None)
        .expect("layout matches the model")
}

/// Score the stream synchronously, returning probability bits and the
/// predict-stage mean in microseconds.
fn drive(server: &ModelServer, stream: &[ScoreRequest]) -> (Vec<u32>, f64) {
    let bits = stream
        .iter()
        .map(|req| {
            server
                .score(req)
                .expect("clean table scores")
                .probability
                .to_bits()
        })
        .collect();
    let predict_us = server
        .latency()
        .stage_mean(Stage::Predict)
        .map_or(0.0, |d| d.as_secs_f64() * 1e6);
    (bits, predict_us)
}

/// Score the stream through a serve pool and return tx_id-ordered
/// probability bits — must be invariant under the worker count.
fn pool_score_map(server: &ModelServer, stream: &[ScoreRequest], workers: usize) -> Vec<u32> {
    let out = Arc::new(std::sync::Mutex::new(vec![0u32; stream.len()]));
    let out2 = Arc::clone(&out);
    let pool = server.serve_pool(
        workers,
        move |resp| {
            out2.lock().expect("no panics in callbacks")[resp.tx_id as usize] =
                resp.probability.to_bits();
        },
        |err| panic!("unexpected serve error: {err}"),
    );
    for req in stream {
        pool.send(req.clone()).expect("pool accepts while running");
    }
    pool.shutdown();
    Arc::try_unwrap(out)
        .expect("pool joined")
        .into_inner()
        .expect("lock unpoisoned")
}

/// The row panel the counted gate runs over: the assembled feature vectors
/// the servers actually scored (known, context-only, and NaN rows alike),
/// reconstructed from the same layout/codec geometry.
fn assembled_panel(stream: &[ScoreRequest]) -> Dataset {
    let lay = layout();
    let mut d = Dataset::new(lay.width());
    for req in stream {
        let payer = (req.transferor < N_USERS).then(|| features_of(req.transferor));
        let recv = (req.transferee < N_USERS).then(|| features_of(req.transferee));
        let mut row = vec![0f32; lay.width()];
        if let Some(p) = &payer {
            row[0] = p.payer_side[0];
            row[1] = p.payer_side[1];
            row[5] = p.embedding[0];
            row[6] = p.embedding[1];
        }
        if let Some(r) = &recv {
            row[2] = r.receiver_side[0];
            row[3] = r.receiver_side[1];
            row[7] = r.embedding[0];
            row[8] = r.embedding[1];
        }
        row[4] = req.context[0];
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
    mode: String,
    n_users: u64,
    n_requests: usize,
    n_trees: usize,
    flat_vs_reference_identical: bool,
    nan_rows: usize,
    context_only_rows: usize,
    rerun_identical: bool,
    workers_identical: bool,
    predict_stage_flat_us: f64,
    counted: CountedReport,
    pass: bool,
}

/// Counted-traversal gate over the assembled row panel: per-row walks and
/// the blocked kernel must do identical total work, the blocked order must
/// touch strictly fewer cold node-array entries, and the raw sums must be
/// bit-identical.
fn counted_gate(flat: &FlatForest, panel: &Dataset) -> CountedReport {
    let mut per_row = TraversalCounts::default();
    let per_row_raw: Vec<u64> = (0..panel.n_rows())
        .map(|i| flat.raw_score_counted(panel.row(i), &mut per_row).to_bits())
        .collect();
    let mut blocked = TraversalCounts::default();
    let mut blocked_out = vec![0f64; panel.n_rows()];
    flat.raw_scores_blocked_counted(panel, 0..panel.n_rows(), &mut blocked_out, &mut blocked);
    let blocked_bits_identical = blocked_out
        .iter()
        .zip(&per_row_raw)
        .all(|(b, r)| b.to_bits() == *r);
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
        visits_conserved: per_row.node_visits == blocked.node_visits
            && per_row.leaf_visits == blocked.leaf_visits,
        blocked_strictly_fewer_cold: blocked.cold_node_visits < per_row.cold_node_visits,
        blocked_bits_identical,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n_requests = if quick { 512 } else { 4_096 };
    let n_trees = if quick { 40 } else { 120 };
    eprintln!(
        "predict latency ({} mode): {} users, {} requests, {} trees",
        if quick { "quick" } else { "full" },
        N_USERS,
        n_requests,
        n_trees
    );
    let stream = requests(n_requests);
    let nan_rows = stream.iter().filter(|r| r.context[0].is_nan()).count();
    let context_only_rows = stream.iter().filter(|r| r.transferee >= N_USERS).count();
    let table = build_table();
    let model = gbdt(n_trees);
    let mut pass = true;

    // Gate (a): flat engine bit-identical to the reference walk on every
    // row the server scored, and the served bits are those rows' scores.
    let flat_server = server_over(&table, model_file(model.clone()));
    let (flat_bits, predict_flat_us) = drive(&flat_server, &stream);
    let panel = assembled_panel(&stream);
    let flat_vs_reference_identical = flat_bits.iter().enumerate().all(|(i, &served)| {
        let row = panel.row(i);
        model.raw_score(row).to_bits() == model.raw_score_reference(row).to_bits()
            && model.predict_proba(row).to_bits() == served
    });
    if !flat_vs_reference_identical {
        eprintln!("FAIL: flat engine diverged from the reference walk");
    }
    pass &= flat_vs_reference_identical;
    eprintln!(
        "  flat vs reference: identical={} ({} NaN rows, {} context-only rows)",
        flat_vs_reference_identical, nan_rows, context_only_rows
    );
    eprintln!("  predict-stage mean: {predict_flat_us:.2}us (informational on 1 core)");

    // Gate (b): replay and worker-count invariance of the flat engine.
    let (rerun_bits, _) = drive(&flat_server, &stream);
    let rerun_identical = rerun_bits == flat_bits;
    if !rerun_identical {
        eprintln!("FAIL: flat engine re-run diverged");
    }
    pass &= rerun_identical;
    let one = pool_score_map(&flat_server, &stream, 1);
    let three = pool_score_map(&flat_server, &stream, 3);
    let workers_identical = one == three && one == flat_bits;
    if !workers_identical {
        eprintln!("FAIL: score map varies with pool worker count");
    }
    pass &= workers_identical;
    eprintln!(
        "  rerun identical={} workers 1v3 identical={}",
        rerun_identical, workers_identical
    );

    // Gate (c): counted traversal work on the assembled row panel.
    let counted = counted_gate(model.flat(), &panel);
    if !counted.visits_conserved {
        eprintln!(
            "FAIL: blocked kernel changed total work (nodes {} vs {}, leaves {} vs {})",
            counted.blocked_node_visits,
            counted.per_row_node_visits,
            counted.blocked_leaf_visits,
            counted.per_row_leaf_visits
        );
    }
    pass &= counted.visits_conserved;
    if !counted.blocked_strictly_fewer_cold {
        eprintln!(
            "FAIL: blocked kernel did not reduce cold node touches ({} vs per-row {})",
            counted.blocked_cold_node_visits, counted.per_row_cold_node_visits
        );
    }
    pass &= counted.blocked_strictly_fewer_cold;
    if !counted.blocked_bits_identical {
        eprintln!("FAIL: blocked kernel raw sums diverged from per-row walks");
    }
    pass &= counted.blocked_bits_identical;
    eprintln!(
        "  counted: node visits {} (conserved={}), cold touches blocked {} vs per-row {} (switches {} vs {})",
        counted.per_row_node_visits,
        counted.visits_conserved,
        counted.blocked_cold_node_visits,
        counted.per_row_cold_node_visits,
        counted.blocked_tree_switches,
        counted.per_row_tree_switches
    );

    let report = Report {
        bench: "predict_latency".into(),
        mode: if quick { "quick" } else { "full" }.into(),
        n_users: N_USERS,
        n_requests,
        n_trees,
        flat_vs_reference_identical,
        nan_rows,
        context_only_rows,
        rerun_identical,
        workers_identical,
        predict_stage_flat_us: predict_flat_us,
        counted,
        pass,
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write("BENCH_predict.json", &json).expect("write BENCH_predict.json");
    eprintln!("results written to BENCH_predict.json");
    harness::save_results("predict.json", &json);

    if !pass {
        eprintln!("FAIL: predict-latency gate violated (see BENCH_predict.json)");
        std::process::exit(1);
    }
}
