//! Ablations for the reproduction's key design choices (DESIGN.md §4/4b).
//!
//! ```sh
//! TITANT_SCALE=small cargo run --release -p titant-bench --bin ablation walks
//! TITANT_SCALE=small cargo run --release -p titant-bench --bin ablation mules
//! TITANT_SCALE=small cargo run --release -p titant-bench --bin ablation s2v
//! ```
//!
//! * `walks` — uniform vs transfer-count-weighted random walks feeding
//!   DeepWalk (the decision that flips DW's contribution from negative to
//!   positive on this world).
//! * `mules` — sweep of the outside-mule rate (the irreducible-noise knob):
//!   more mule frauds should depress every configuration, graph-aware ones
//!   least of all... up to the point where the receiver isn't in the
//!   window at all.
//! * `s2v` — Structure2Vec embedding statistics (zero share, mean, max,
//!   finiteness, live dimensions) across three training settings: the
//!   check that per-round L2 normalisation keeps mean-field propagation
//!   from diverging.

use std::fmt::Write as _;
use titant_bench::{harness, Experiment, FeatureConfig, ModelKind, Scale};
use titant_datagen::{DatasetSlice, World, WorldConfig};
use titant_models::{Classifier, GbdtConfig};
use titant_nrl::{DeepWalk, DeepWalkConfig, Structure2Vec, Structure2VecConfig, Word2VecConfig};
use titant_txgraph::{WalkConfig, WalkStrategy};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "walks".into());
    match which.as_str() {
        "walks" => ablate_walks(),
        "mules" => ablate_mules(),
        "s2v" => ablate_s2v(),
        other => eprintln!("unknown ablation {other}; use walks|mules|s2v"),
    }
}

fn ablate_walks() {
    let scale = Scale::from_env();
    let mut exp = Experiment::new(scale, 0x0711_4a47);
    let slice = DatasetSlice::paper(0);
    let mut out = String::from("Ablation: walk strategy feeding DeepWalk (Basic+DW+GBDT)\n\n");

    // Baseline without embeddings for reference.
    let (train_b, test_b) = exp.datasets(&slice, FeatureConfig::BASIC, 32, 1);
    let base = exp.train_and_eval(ModelKind::Gbdt, &train_b, &test_b);
    let _ = writeln!(
        out,
        "{:>10}: f1 {:>6.2}%  (no embeddings)",
        "basic",
        base.f1 * 100.0
    );

    for strategy in [WalkStrategy::Uniform, WalkStrategy::Weighted] {
        let graph = exp.world().build_graph(slice.graph_days.clone());
        let emb = DeepWalk::new(DeepWalkConfig {
            walk: WalkConfig {
                walks_per_node: scale.walks_per_node(),
                strategy,
                threads: scale.threads(),
                ..Default::default()
            },
            word2vec: Word2VecConfig {
                dim: 32,
                threads: scale.threads(),
                ..Default::default()
            },
        })
        .embed(&graph);
        let (train_idx, test_idx) = (
            exp.world()
                .basic_dataset(slice.train_days.clone(), slice.label_cutoff()),
            exp.world()
                .basic_dataset(slice.test_day..slice.test_day + 1, i64::MAX),
        );
        let tr_e = harness::embedding_dataset(exp.world(), &train_idx.1, &graph, &emb, "dw");
        let te_e = harness::embedding_dataset(exp.world(), &test_idx.1, &graph, &emb, "dw");
        let train = train_idx.0.hconcat(&tr_e);
        let test = test_idx.0.hconcat(&te_e);
        let m = exp.train_and_eval(ModelKind::Gbdt, &train, &test);
        let _ = writeln!(
            out,
            "{:>10}: f1 {:>6.2}%  rec@1% {:>6.2}%  auc {:.3}",
            format!("{strategy:?}"),
            m.f1 * 100.0,
            m.rec_at_top1pct * 100.0,
            m.auc
        );
    }
    out.push_str(
        "\nexpected: Weighted > basic > Uniform — one-off victim edges swamp the ring\n\
         signal under uniform transition probabilities (DESIGN.md §4)\n",
    );
    println!("{out}");
    harness::save_results("ablation_walks.txt", &out);
}

fn ablate_mules() {
    let scale = Scale::from_env();
    let mut out = String::from("Ablation: outside-mule rate (irreducible graph-blind fraud)\n\n");
    for mule_rate in [0.0f64, 0.15, 0.4] {
        let world = World::generate(WorldConfig {
            mule_rate,
            ..scale.world_config(0x0711_4a47)
        });
        let slice = DatasetSlice::paper(0);
        let graph = world.build_graph(slice.graph_days.clone());
        let emb = DeepWalk::new(DeepWalkConfig {
            walk: WalkConfig {
                walks_per_node: scale.walks_per_node(),
                strategy: WalkStrategy::Weighted,
                threads: scale.threads(),
                ..Default::default()
            },
            word2vec: Word2VecConfig {
                dim: 32,
                threads: scale.threads(),
                ..Default::default()
            },
        })
        .embed(&graph);
        let (train_b, train_idx) =
            world.basic_dataset(slice.train_days.clone(), slice.label_cutoff());
        let (test_b, test_idx) = world.basic_dataset(slice.test_day..slice.test_day + 1, i64::MAX);
        let train = train_b.hconcat(&harness::embedding_dataset(
            &world, &train_idx, &graph, &emb, "dw",
        ));
        let test = test_b.hconcat(&harness::embedding_dataset(
            &world, &test_idx, &graph, &emb, "dw",
        ));
        // Direct fit/eval with the shared protocol.
        let n = train.n_rows();
        let val_rows: Vec<usize> = (0..(n as f64 * 0.25) as usize).collect();
        let fit_rows: Vec<usize> = (val_rows.len()..n).collect();
        let model = GbdtConfig::default().fit(&train.subset(&fit_rows));
        let val = train.subset(&val_rows);
        let (rate, _) = titant_eval::best_f1_rate(&model.predict_batch(&val), val.labels());
        let f1 = titant_eval::f1_at_rate(&model.predict_batch(&test), test.labels(), rate);
        let _ = writeln!(
            out,
            "mule_rate {mule_rate:.2}: DW+GBDT f1 {:>6.2}%",
            f1 * 100.0
        );
    }
    out.push_str("\nexpected: F1 declines as more fraud routes through window-invisible mules\n");
    println!("{out}");
    harness::save_results("ablation_mules.txt", &out);
}

fn ablate_s2v() {
    let exp = Experiment::new(Scale::from_env(), 0x0711_4a47);
    let slice = DatasetSlice::paper(0);
    let graph = exp.world().build_graph(slice.graph_days.clone());
    let labels = exp
        .world()
        .edge_labels(&graph, slice.graph_days.clone(), slice.label_cutoff());
    let pos = labels.iter().filter(|&&(_, _, y)| y).count();
    let mut out = String::from("Ablation: S2V stabilisation (embedding statistics)\n\n");
    let _ = writeln!(
        out,
        "graph: {} nodes, {} edges, {} fraud edges ({:.3}%)",
        graph.node_count(),
        graph.edge_count(),
        pos,
        100.0 * pos as f64 / labels.len() as f64
    );
    for (epochs, rounds, lr) in [(3usize, 2usize, 0.01f32), (10, 2, 0.05), (10, 3, 0.001)] {
        let emb = Structure2Vec::train(
            &graph,
            &labels,
            &Structure2VecConfig {
                dim: 32,
                epochs,
                rounds,
                learning_rate: lr,
                ..Default::default()
            },
        )
        .into_embeddings();
        let n = emb.node_count();
        let vals = emb.as_slice();
        let zeros = vals.iter().filter(|&&v| v == 0.0).count() as f64 / vals.len() as f64;
        let mean = vals.iter().map(|&v| v as f64).sum::<f64>() / vals.len() as f64;
        let max = vals.iter().cloned().fold(f32::MIN, f32::max);
        let finite = vals.iter().all(|v| v.is_finite());
        // A dimension is live when it varies across nodes.
        let d = emb.dim();
        let live_dims = (0..d)
            .filter(|&k| {
                let col: Vec<f64> = (0..n).map(|i| vals[i * d + k] as f64).collect();
                let m = col.iter().sum::<f64>() / n as f64;
                col.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / n as f64 > 1e-9
            })
            .count();
        let _ = writeln!(
            out,
            "ep{epochs} r{rounds} lr{lr}: zeros {:.1}%  mean {mean:.4}  max {max:.3}  finite {finite}  live_dims {live_dims}/{d}",
            zeros * 100.0
        );
    }
    out.push_str(
        "\nexpected: finite values, max <= 1 in every setting — each round L2-normalises\n\
         the embeddings; without it magnitudes reached 10^10\n",
    );
    println!("{out}");
    harness::save_results("ablation_s2v.txt", &out);
}
