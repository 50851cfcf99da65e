//! Cross-crate integration: the substrates working against each other with
//! realistic data from the simulator.

use titant::alihbase::{RegionedTable, RowKey, StoreConfig};
use titant::datagen::{World, WorldConfig};
use titant::kunpeng::{dist_word2vec, ParamServer};
use titant::maxcompute::{Account, ColumnType, MaxCompute, Schema, Table};
use titant::modelserver::{FeatureCodec, UserFeatures};
use titant::txgraph::{WalkConfig, WalkEngine};

fn tiny_world() -> World {
    World::generate(WorldConfig::tiny(404))
}

#[test]
fn sql_over_simulated_transactions_matches_direct_counts() {
    let world = tiny_world();
    let mc = MaxCompute::new(4);
    mc.create_account(&Account::new("analyst", "pw"));
    let session = mc.login("analyst", "pw").unwrap();

    let mut t = Table::new(Schema::new(vec![
        ("day", ColumnType::Int),
        ("amount", ColumnType::Float),
        ("fraud", ColumnType::Bool),
    ]));
    let range = world.record_range(0..world.config().n_days);
    for i in range.clone() {
        let r = &world.records()[i];
        t.push_row(vec![
            r.day().into(),
            (r.amount_cents as f64).into(),
            world.is_fraud(i).into(),
        ]);
    }
    session.create_table("tx", t);

    // SQL count of frauds on day 5 == direct count.
    let result = session
        .sql("SELECT COUNT(*) FROM tx WHERE fraud = true AND day = 5")
        .unwrap();
    let direct = world
        .record_range(5..6)
        .filter(|&i| world.is_fraud(i))
        .count() as i64;
    assert_eq!(result.cell(0, 0).as_i64(), Some(direct));

    // Aggregate over all days: SUM of amounts equals the direct sum.
    let result = session.sql("SELECT SUM(amount) FROM tx").unwrap();
    let direct: f64 = range.map(|i| world.records()[i].amount_cents as f64).sum();
    let got = result.cell(0, 0).as_f64().unwrap();
    assert!((got - direct).abs() / direct < 1e-9);
}

#[test]
fn feature_store_recovers_user_features_after_crash() {
    let dir = std::env::temp_dir().join(format!("titant-it-hbase-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let codec = FeatureCodec {
        embedding_dim: 4,
        payer_width: 2,
        receiver_width: 2,
        velocity_width: 0,
    };
    let features = UserFeatures {
        payer_side: vec![1.0, 2.0],
        receiver_side: vec![3.0, 4.0],
        embedding: vec![0.1, 0.2, 0.3, 0.4],
        velocity: Vec::new(),
    };
    let cfg = StoreConfig {
        dir: Some(dir.clone()),
        ..Default::default()
    };
    {
        let table = RegionedTable::new(vec![RowKey::from_user(500)], cfg.clone()).unwrap();
        table
            .put_rows(codec.encode_user(42, &features, 20170410))
            .unwrap();
        table
            .put_rows(codec.encode_user(999, &features, 20170410))
            .unwrap();
        // Drop without flushing user 999's memtable = crash; WAL replays.
    }
    let table = RegionedTable::new(vec![RowKey::from_user(500)], cfg).unwrap();
    assert_eq!(
        codec.get_user(&table, 42, u64::MAX).unwrap().unwrap(),
        features
    );
    assert_eq!(
        codec.get_user(&table, 999, u64::MAX).unwrap().unwrap(),
        features
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn parameter_server_trains_embeddings_on_simulated_network() {
    let world = tiny_world();
    let graph = world.build_graph(0..world.config().n_days);
    let corpus = WalkEngine::new(
        &graph,
        WalkConfig {
            walk_length: 10,
            walks_per_node: 3,
            threads: 2,
            ..Default::default()
        },
    )
    .generate();
    let n = graph.node_count();
    let cfg = dist_word2vec::DistWord2VecConfig {
        dim: 8,
        rounds: 2,
        n_workers: 3,
        ..Default::default()
    };
    let ps = ParamServer::new(2 * n * 8, 2, dist_word2vec::ps_init(n, 8, 9));
    let ck = ps.checkpoint();
    let emb = dist_word2vec::train(&corpus, n, &cfg, &ps);
    assert_eq!(emb.node_count(), n);
    assert!(ps.pushed_bytes() > 0 && ps.pulled_bytes() > 0);

    // Failure recovery: a server shard crashes; restoring the checkpoint
    // brings its parameters back to the initial state without touching the
    // others.
    let before = ps.snapshot();
    ps.recover_shard(0, &ck)
        .expect("checkpoint matches shard layout");
    let after = ps.snapshot();
    assert_ne!(before, after, "shard 0 must have been reset");
    let half = after.len() / 2;
    assert_eq!(&before[half..], &after[half..], "shard 1 untouched");
}
