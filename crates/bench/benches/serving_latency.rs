//! Criterion bench: the online serving path (paper claim: "predict online
//! real-time transaction fraud within only milliseconds").
//!
//! Measures the full Model-Server request — Ali-HBase feature fetch for
//! both parties, feature-vector assembly, GBDT evaluation — plus the
//! isolated model-evaluation and store-read components.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use titant_alihbase::{RegionedTable, RowKey, StoreConfig};
use titant_core::layout;
use titant_core::prelude::*;
use titant_models::Classifier;
use titant_modelserver::{ScoreRequest, UserFeatures};

struct Setup {
    deployment: OnlineDeployment,
    requests: Vec<ScoreRequest>,
}

fn setup() -> Setup {
    let world = World::generate(WorldConfig {
        n_users: 2_000,
        n_days: 40,
        feature_start_day: 20,
        seed: 99,
        ..Default::default()
    });
    let slice = DatasetSlice {
        index: 0,
        graph_days: 0..20,
        train_days: 20..39,
        test_day: 39,
    };
    let artifacts = OfflinePipeline::new(PipelineConfig {
        embedding_dim: 32,
        walks_per_node: 5,
        threads: 4,
        use_batch_layer: false,
        ..Default::default()
    })
    .run(&world, &slice)
    .expect("offline pipeline");
    let deployment = OnlineDeployment::new(artifacts).expect("deployable model");
    let requests: Vec<ScoreRequest> = world
        .record_range(slice.test_day..slice.test_day + 1)
        .map(|i| layout::score_request(&world, i))
        .collect();
    Setup {
        deployment,
        requests,
    }
}

fn bench_serving(c: &mut Criterion) {
    let s = setup();
    let ms = s.deployment.model_server().clone();
    let mut i = 0usize;

    c.bench_function("ms_score_end_to_end", |b| {
        b.iter(|| {
            let req = &s.requests[i % s.requests.len()];
            i += 1;
            black_box(ms.score(req))
        })
    });

    // Isolated model evaluation (no store access).
    let gbdt = {
        let mut d = titant_models::Dataset::new(116);
        let mut state = 4u64;
        let mut rand01 = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f32 / (1u64 << 31) as f32
        };
        for _ in 0..2_000 {
            let row: Vec<f32> = (0..116).map(|_| rand01()).collect();
            let label = (row[0] > 0.5) as u8 as f32;
            d.push_row(&row, label);
        }
        titant_models::GbdtConfig::default().fit(&d)
    };
    let probe: Vec<f32> = (0..116).map(|k| k as f32 / 116.0).collect();
    c.bench_function("gbdt_400_trees_single_row", |b| {
        b.iter(|| black_box(gbdt.predict_proba(black_box(&probe))))
    });
}

fn bench_store_reads(c: &mut Criterion) {
    let table = Arc::new(RegionedTable::single(StoreConfig::default()).unwrap());
    let codec = layout::serving_layout(32).codec();
    for user in 0..2_000u64 {
        codec
            .put_user(
                &table,
                user,
                &UserFeatures {
                    payer_side: vec![1.0; 18],
                    receiver_side: vec![2.0; 19],
                    embedding: vec![0.5; 32],
                    velocity: Vec::new(),
                },
                1,
            )
            .unwrap();
    }
    table.flush().unwrap();
    // Acceptance check before timing: one user fetch must cost at most two
    // store operations (it is one row get), not a per-qualifier fan-out.
    let before = table.op_counts();
    codec.get_user(&table, 0, u64::MAX).unwrap().unwrap();
    let delta = table.op_counts().since(&before);
    assert!(
        delta.total() <= 2,
        "get_user fanned out into {} store ops: {delta:?}",
        delta.total()
    );
    let mut i = 0u64;
    c.bench_function("hbase_get_user_features", |b| {
        b.iter(|| {
            i = (i + 1) % 2_000;
            black_box(codec.get_user(&table, i, u64::MAX))
        })
    });
    let mut j = 0u64;
    c.bench_function("hbase_point_get", |b| {
        b.iter(|| {
            j = (j + 1) % 2_000;
            let key = titant_alihbase::CellKey {
                row: RowKey::from_user(j),
                family: "basic".into(),
                qualifier: "p0".into(),
            };
            black_box(table.get(&key))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(50);
    targets = bench_serving, bench_store_reads
}
criterion_main!(benches);
