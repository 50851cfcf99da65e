//! What every gate under [`crate::gates`] shares: the result shape
//! ([`Outcome`], [`Checks`]), the synthetic serving fixture ([`Serving`]),
//! the trained tiny-world fixture ([`Pipeline`]), the pool score map and
//! the one seeded generator. A gate module holds only what it asserts.

use serde::Serialize;
use std::sync::{Arc, Mutex};
use titant_alihbase::{RegionedTable, StoreConfig};
use titant_core::prelude::*;
use titant_models::GbdtConfig;
use titant_modelserver::{
    FeatureLayout, ModelFile, ModelServer, ScoreRequest, ServableModel, UserFeatures,
};

/// Version stamp of every fixture upload and fixture model.
pub const VERSION: u64 = 20170410;

/// What one gate hands the runner: did every check hold, and the report
/// that becomes `BENCH_<name>.json` (a `String` because the vendored
/// `serde_json` offers `to_string` only).
pub struct Outcome {
    pub pass: bool,
    pub json: String,
}

impl Outcome {
    pub fn new(pass: bool, report: &impl Serialize) -> Self {
        Self {
            pass,
            json: serde_json::to_string(report).expect("report serializes"),
        }
    }
}

/// The conjunction of a gate's checks; a failed one prints its `FAIL:`
/// line as it is folded in.
#[derive(Default)]
pub struct Checks {
    failed: bool,
}

impl Checks {
    /// Fold `ok` into the conjunction and hand it back for the report.
    pub fn check(&mut self, name: &str, ok: bool) -> bool {
        if !ok {
            eprintln!("FAIL: {name}");
            self.failed = true;
        }
        ok
    }

    pub fn pass(&self) -> bool {
        !self.failed
    }
}

/// FNV-1a offset basis and prime: every gate digest folds with these.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// One FNV-1a step: fold the word `x` into the digest `acc`.
pub fn fnv1a(acc: u64, x: u64) -> u64 {
    (acc ^ x).wrapping_mul(FNV_PRIME)
}

/// SplitMix64 — the gates' one seeded generator.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 24 bits of mantissa.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }
}

/// A synthetic serving stack cut to a gate's widths: the basic block is
/// `payer` slots, then `receiver`, then `context`, followed by `embedding`
/// dims per party. Layout, codec, model and per-user rows all derive from
/// these numbers, so they cannot disagree.
pub struct Serving {
    pub layout: FeatureLayout,
    n_trees: usize,
    seed: u64,
}

impl Serving {
    pub fn new(
        payer: usize,
        receiver: usize,
        context: usize,
        embedding: usize,
        n_trees: usize,
        seed: u64,
    ) -> Self {
        let n_basic = payer + receiver + context;
        Self {
            layout: FeatureLayout {
                n_basic,
                payer_slots: (0..payer).collect(),
                receiver_slots: (payer..payer + receiver).collect(),
                context_slots: (payer + receiver..n_basic).collect(),
                embedding_dim: embedding,
                velocity_width: 0,
            },
            n_trees,
            seed,
        }
    }

    /// A seeded GBDT over uniform rows: fraud iff the first context value
    /// exceeds 0.5 XOR the first payer value exceeds 0.6, so a score moves
    /// with the request and with the stored row.
    pub fn model(&self) -> ModelFile {
        let width = self.layout.width();
        let (ctx, payer) = (self.layout.context_slots[0], self.layout.payer_slots[0]);
        let mut rng = SplitMix64(self.seed);
        let mut d = Dataset::new(width);
        let mut row = vec![0f32; width];
        for _ in 0..600 {
            row.fill_with(|| rng.next_f32());
            d.push_row(&row, ((row[ctx] > 0.5) != (row[payer] > 0.6)) as u8 as f32);
        }
        let gbdt = GbdtConfig {
            n_trees: self.n_trees,
            subsample: 0.8,
            colsample: 0.8,
            ..Default::default()
        }
        .fit(&d);
        ModelFile {
            version: VERSION,
            alert_threshold: 0.5,
            n_features: width,
            model: ServableModel::Gbdt(gbdt),
        }
    }

    /// The stored row of `user`: every value in `[0, 1)`, a pure function
    /// of the id.
    pub fn features_of(&self, user: u64) -> UserFeatures {
        let x = (user % 97) as f32 / 97.0;
        let y = (user % 89) as f32 / 89.0;
        let block =
            |base: f32, n: usize| (0..n).map(|i| (base + 0.37 * i as f32).fract()).collect();
        UserFeatures {
            payer_side: block(x, self.layout.payer_slots.len()),
            receiver_side: block(y, self.layout.receiver_slots.len()),
            embedding: block((x + y) * 0.5, self.layout.embedding_dim),
            velocity: Vec::new(),
        }
    }

    /// Upload `users`' rows at [`VERSION`].
    pub fn upload(&self, table: &RegionedTable, users: impl Iterator<Item = u64>) {
        let codec = self.layout.codec();
        for user in users {
            table
                .put_rows(codec.encode_user(user, &self.features_of(user), VERSION))
                .expect("fixture upload");
        }
    }

    /// A server over `table` with default SLOs.
    pub fn server(
        &self,
        table: &Arc<RegionedTable>,
        model: &ModelFile,
        cache: Option<RowCacheConfig>,
    ) -> ModelServer {
        ModelServer::with_options(
            Arc::clone(table),
            self.layout.clone(),
            model.clone(),
            SloConfig::default(),
            cache,
        )
        .expect("fixture layout matches its model")
    }
}

/// A fresh in-memory single-region table.
pub fn memory_table() -> Arc<RegionedTable> {
    Arc::new(RegionedTable::single(StoreConfig::default()).expect("in-memory table"))
}

/// Per-request `(probability bits, alert)`, indexed by `tx_id`.
pub type Scores = Vec<(u32, bool)>;

/// Score `stream` (whose `tx_id`s must run `0..stream.len()`) on `workers`
/// pool threads — `0` scores on the caller's thread. The result must not
/// vary with the worker count.
pub fn score_map(server: &ModelServer, stream: &[ScoreRequest], workers: usize) -> Scores {
    if workers == 0 {
        return stream
            .iter()
            .map(|req| {
                let resp = server.score(req).expect("clean table scores");
                (resp.probability.to_bits(), resp.alert)
            })
            .collect();
    }
    let out = Arc::new(Mutex::new(vec![(0u32, false); stream.len()]));
    let out2 = Arc::clone(&out);
    let pool = server.serve_pool(
        workers,
        move |resp| {
            out2.lock().expect("no panics in callbacks")[resp.tx_id as usize] =
                (resp.probability.to_bits(), resp.alert);
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

/// The tiny world and the one slice it supports: graph days up to the
/// feature start, the last day held out for testing.
pub fn tiny_world(seed: u64) -> (World, DatasetSlice) {
    let world = World::generate(WorldConfig::tiny(seed));
    let start = world.config().feature_start_day;
    let slice = DatasetSlice {
        index: 0,
        graph_days: 0..start,
        train_days: start..world.config().n_days - 1,
        test_day: world.config().n_days - 1,
    };
    (world, slice)
}

/// The tiny world trained end to end with `PipelineConfig::quick()` — the
/// real model and feature upload the replay gates score with.
pub struct Pipeline {
    pub world: World,
    pub slice: DatasetSlice,
    pub model: ModelFile,
    pub table: Arc<RegionedTable>,
    pub layout: FeatureLayout,
}

impl Pipeline {
    pub fn new(world_seed: u64, serving_replicas: usize) -> Self {
        let (world, slice) = tiny_world(world_seed);
        let artifacts = OfflinePipeline::new(PipelineConfig {
            serving_replicas,
            ..PipelineConfig::quick()
        })
        .run(&world, &slice)
        .expect("quick offline pipeline");
        let model = artifacts.model_file;
        let embedding_dim = (model.n_features - titant_datagen::N_BASIC_FEATURES) / 2;
        Self {
            world,
            slice,
            model,
            table: artifacts.feature_table,
            layout: layout::serving_layout(embedding_dim),
        }
    }

    /// The test day's transactions, cycled to `n` requests. `tx_id` is the
    /// sequential tick, so a fault window covers a fixed request interval
    /// at every worker count.
    pub fn requests(&self, n: usize) -> Vec<ScoreRequest> {
        let day = self.slice.test_day;
        let indices: Vec<usize> = self.world.record_range(day..day + 1).collect();
        assert!(!indices.is_empty(), "test day must contain transactions");
        (0..n)
            .map(|i| ScoreRequest {
                tx_id: i as u64,
                ..layout::score_request(&self.world, indices[i % indices.len()])
            })
            .collect()
    }

    /// A server for the trained model over `table` (the upload itself, or a
    /// table seeded from it) under `slo`.
    pub fn server(&self, table: &Arc<RegionedTable>, slo: SloConfig) -> ModelServer {
        ModelServer::with_options(
            Arc::clone(table),
            self.layout.clone(),
            self.model.clone(),
            slo,
            None,
        )
        .expect("serving layout matches the shipped model")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_widths_follow_the_layout_for_every_gate_fixture() {
        // serving_million, serving_scale/predict, ingest.
        for (p, r, c, e) in [(1, 1, 1, 0), (2, 2, 1, 2), (26, 26, 0, 8)] {
            let fx = Serving::new(p, r, c, e, 4, 7);
            let codec = fx.layout.codec();
            assert_eq!(codec.payer_width, fx.layout.payer_slots.len());
            assert_eq!(codec.receiver_width, fx.layout.receiver_slots.len());
            assert_eq!(codec.embedding_dim, fx.layout.embedding_dim);
            assert_eq!(codec.velocity_width, fx.layout.velocity_width);
            assert_eq!((codec.payer_width, codec.receiver_width), (p, r));
            assert_eq!(fx.layout.width(), p + r + c + 2 * e);
            let row = fx.features_of(123);
            assert_eq!(
                (
                    row.payer_side.len(),
                    row.receiver_side.len(),
                    row.embedding.len()
                ),
                (p, r, e)
            );
        }
    }

    #[test]
    fn same_widths_and_seed_give_the_same_model_bytes() {
        let bytes = |seed| {
            Serving::new(2, 2, 1, 2, 8, seed)
                .model()
                .to_bytes()
                .expect("model serializes")
        };
        assert_eq!(bytes(3), bytes(3));
        assert_ne!(bytes(3), bytes(4));
    }

    #[test]
    fn the_fixture_serves_what_it_uploaded() {
        let fx = Serving::new(2, 2, 1, 2, 8, 3);
        let table = memory_table();
        fx.upload(&table, 0..8);
        let server = fx.server(&table, &fx.model(), None);
        let stream: Vec<ScoreRequest> = (0..8u64)
            .map(|i| ScoreRequest {
                tx_id: i,
                transferor: i,
                transferee: (i + 1) % 8,
                context: vec![i as f32 / 8.0],
            })
            .collect();
        let sync = score_map(&server, &stream, 0);
        assert_eq!(score_map(&server, &stream, 2), sync);
        assert_eq!(server.degraded_count(), 0, "every party row decodes");
    }

    #[test]
    fn splitmix64_matches_the_reference_vector() {
        // First outputs of the published SplitMix64 for seed 1234567.
        let mut rng = SplitMix64(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
    }

    /// The chaos/crash gates promise identical counters across processes;
    /// that starts with the fixture training the same model every time.
    #[test]
    fn the_pipeline_fixture_is_reproducible() {
        let fingerprint = || {
            let p = Pipeline::new(4242, 1);
            let mut cells = p.table.export_cells();
            cells.sort();
            (p.model.to_bytes().expect("model serializes"), cells)
        };
        assert_eq!(fingerprint(), fingerprint());
    }
}
