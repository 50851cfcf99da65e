//! The common fixture: seeded users, model, table and traffic, and the
//! store-free oracle every response is checked against.

use crate::api::{
    layout, Classifier, Dataset, FeatureCodec, FeatureDelta, FeatureLayout, FlashEvent, GbdtConfig,
    ModelFile, ModelServer, RegionedTable, RowCacheConfig, ScoreRequest, ServableModel, SloConfig,
    SplitConfig, StoreConfig, TrafficConfig, TrafficGen, UserFeatures,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub const N_USERS: u64 = 32_768;
const N_REGIONS: usize = 8;
const EMBEDDING_DIM: usize = 16;
pub const VELOCITY_WINDOWS: [u32; 3] = [1, 8, 64];
/// Three statistics (count, amount, distinct payees) per window.
const VELOCITY_WIDTH: usize = 3 * VELOCITY_WINDOWS.len();
const N_TREES: usize = 120;
const FIT_ROWS: usize = 4_000;
/// The bulk upload is flushed into this many runs per region, user `u` in
/// run `u % UPLOAD_RUNS`: every run's key bounds span the whole region, so
/// only its bloom filter can spare a read the run.
const UPLOAD_RUNS: u64 = 4;
/// One user in `PATCH_EVERY` carries a newer-version delta over the upload.
const PATCH_EVERY: u64 = 8;
const BASE_VERSION: u64 = 1;
pub const DELTA_VERSION: u64 = 2;

// The serving layout as documented in `crates/core/src/layout.rs`, written
// out again here so that the oracle shares no assemble code with the server.
const N_BASIC: usize = 52;
const PAYER_SLOTS: [usize; 18] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 20, 21, 22, 23, 24, 25, 26, 27];
const RECEIVER_SLOTS: [usize; 19] = [
    10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 28, 29, 30, 31, 32, 33, 34, 35, 36,
];
const CONTEXT_SLOTS: [usize; 15] = [37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51];
pub const WIDTH: usize = N_BASIC + 2 * EMBEDDING_DIM + 2 * VELOCITY_WIDTH;
/// Cells of one uploaded user row.
pub const CELLS_PER_ROW: usize =
    PAYER_SLOTS.len() + RECEIVER_SLOTS.len() + EMBEDDING_DIM + VELOCITY_WIDTH;

fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform bits keyed by `(seed, a, b)`.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    splitmix64(seed ^ a.wrapping_mul(0x8EBC_6AF0_9C88_C6E3) ^ b.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// Uniform draw in `[0, 1)` keyed by `(seed, a, b)`.
fn unit(seed: u64, a: u64, b: u64) -> f32 {
    (mix(seed, a, b) >> 40) as f32 / (1u64 << 24) as f32
}

/// A velocity slot's value from a uniform draw: a small count for the
/// txn-count and distinct-payee statistics, integer cents for the amount.
fn velocity_value(slot: usize, u: f32) -> f32 {
    match slot % 3 {
        1 => (u * 100_000.0).floor(),
        _ => (u * 8.0).floor(),
    }
}

/// What the T+1 upload holds for `user`: profile and aggregates, an
/// embedding, and no in-day velocity yet.
fn base_features(seed: u64, user: u64) -> UserFeatures {
    let draw = |salt: u64, n: usize| -> Vec<f32> {
        (0..n).map(|i| unit(seed ^ salt, user, i as u64)).collect()
    };
    UserFeatures {
        payer_side: draw(0x70, PAYER_SLOTS.len()),
        receiver_side: draw(0x72, RECEIVER_SLOTS.len()),
        embedding: draw(0x65, EMBEDDING_DIM)
            .into_iter()
            .map(|u| 2.0 * u - 1.0)
            .collect(),
        velocity: vec![0.0; VELOCITY_WIDTH],
    }
}

/// The streaming-ingest unit of these workloads: one corrected payer-side
/// aggregate plus all nine velocity slots. `nonce` varies the values.
pub fn delta_of(seed: u64, user: u64, nonce: u64) -> FeatureDelta {
    let key = seed ^ 0x64 ^ nonce.wrapping_mul(0x9E37_79B9);
    FeatureDelta {
        user,
        payer: vec![(
            (mix(key, user, 100) % PAYER_SLOTS.len() as u64) as usize,
            unit(key, user, 101),
        )],
        velocity: (0..VELOCITY_WIDTH)
            .map(|i| (i, velocity_value(i, unit(key, user, i as u64))))
            .collect(),
        ..FeatureDelta::default()
    }
}

/// The per-transaction context the front end computes at request time.
fn context_of(seed: u64, event: u64) -> Vec<f32> {
    (0..CONTEXT_SLOTS.len())
        .map(|i| unit(seed ^ 0x63, event, i as u64))
        .collect()
}

pub fn traffic(seed: u64, flash: Option<FlashEvent>) -> TrafficGen {
    TrafficGen::new(TrafficConfig {
        n_users: N_USERS,
        n_blocks: 64,
        zipf_s: 1.2,
        flash,
        seed,
    })
}

/// The scoring request of traffic event `event`: payer Zipf-hot, payee
/// uniform.
pub fn request_at(gen: &TrafficGen, seed: u64, event: u64) -> ScoreRequest {
    let (transferor, transferee) = gen.pair_at(event);
    ScoreRequest {
        tx_id: event,
        transferor,
        transferee,
        context: context_of(seed, event),
    }
}

/// Fit the served model on a seeded synthetic dataset shaped like serving
/// rows, whose label draws on every block of the layout (both parties'
/// basic, embedding and velocity slots and the context), and ship it the way
/// the offline stage does: through `ModelFile` bytes.
fn fit_model(seed: u64) -> Result<ModelFile, String> {
    let mut data = Dataset::new(WIDTH);
    let vbase = N_BASIC + 2 * EMBEDDING_DIM;
    for r in 0..FIT_ROWS as u64 {
        let mut row = vec![0f32; WIDTH];
        for (i, v) in row.iter_mut().enumerate() {
            let u = unit(seed ^ 0x6d, r, i as u64);
            *v = match i {
                _ if i < N_BASIC => u,
                _ if i < vbase => 2.0 * u - 1.0,
                // Half the parties have no in-day activity, as in serving.
                _ => {
                    let party = (i - vbase) / VELOCITY_WIDTH;
                    if mix(seed ^ 0x76, r, party as u64).is_multiple_of(2) {
                        0.0
                    } else {
                        velocity_value(i - vbase, u)
                    }
                }
            };
        }
        let signal = row[3]
            + row[14]
            + row[40]
            + 0.5 * (row[N_BASIC + 3] + 1.0)
            + 0.5 * (row[N_BASIC + EMBEDDING_DIM + 5] + 1.0)
            + row[vbase] / 8.0
            + row[vbase + 4] / 100_000.0
            + row[vbase + VELOCITY_WIDTH + 2] / 8.0
            + 0.5 * unit(seed ^ 0x6e, r, 0);
        data.push_row(&row, f32::from(signal > 3.4));
    }
    let gbdt = GbdtConfig {
        n_trees: N_TREES,
        seed: seed ^ 0x6bd7,
        // One thread of one process carries the whole benchmark.
        threads: 1,
        ..GbdtConfig::default()
    }
    .fit(&data);
    let file = ModelFile {
        version: BASE_VERSION,
        alert_threshold: 0.5,
        n_features: WIDTH,
        model: ServableModel::Gbdt(gbdt),
    };
    let bytes = file.to_bytes().map_err(|e| e.to_string())?;
    ModelFile::from_bytes(&bytes).map_err(|e| e.to_string())
}

/// Expected feature state of every user, kept apart from the store: the
/// upload values from the seed, then whatever deltas the workload applied.
pub struct Oracle {
    rows: Vec<UserFeatures>,
}

impl Oracle {
    fn new(seed: u64) -> Self {
        Self {
            rows: (0..N_USERS).map(|u| base_features(seed, u)).collect(),
        }
    }

    pub fn features(&self, user: u64) -> &UserFeatures {
        &self.rows[user as usize]
    }

    pub fn apply(&mut self, delta: &FeatureDelta) {
        let row = &mut self.rows[delta.user as usize];
        for &(i, v) in &delta.payer {
            row.payer_side[i] = v;
        }
        for &(i, v) in &delta.receiver {
            row.receiver_side[i] = v;
        }
        for &(i, v) in &delta.embedding {
            row.embedding[i] = v;
        }
        for &(i, v) in &delta.velocity {
            row.velocity[i] = v;
        }
    }

    /// The model input row for `req`, laid out from the documented layout.
    pub fn assemble(&self, req: &ScoreRequest) -> Vec<f32> {
        let payer = self.features(req.transferor);
        let recv = self.features(req.transferee);
        let mut row = vec![0f32; WIDTH];
        for (&slot, &v) in PAYER_SLOTS.iter().zip(&payer.payer_side) {
            row[slot] = v;
        }
        for (&slot, &v) in RECEIVER_SLOTS.iter().zip(&recv.receiver_side) {
            row[slot] = v;
        }
        for (&slot, &v) in CONTEXT_SLOTS.iter().zip(&req.context) {
            row[slot] = v;
        }
        let ebase = N_BASIC;
        row[ebase..ebase + EMBEDDING_DIM].copy_from_slice(&payer.embedding);
        row[ebase + EMBEDDING_DIM..ebase + 2 * EMBEDDING_DIM].copy_from_slice(&recv.embedding);
        let vbase = N_BASIC + 2 * EMBEDDING_DIM;
        row[vbase..vbase + VELOCITY_WIDTH].copy_from_slice(&payer.velocity);
        row[vbase + VELOCITY_WIDTH..].copy_from_slice(&recv.velocity);
        row
    }
}

/// A scratch directory under the benchmark's `out/`, removed when dropped —
/// on success, on an error return and on a panic alike.
pub struct Scratch(PathBuf);

impl Scratch {
    fn create(out: &Path, tag: &str) -> std::io::Result<Self> {
        let dir = out.join(format!("scratch-{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    /// Bytes of every file below the directory.
    pub fn size_bytes(&self) -> std::io::Result<u64> {
        fn walk(dir: &Path) -> std::io::Result<u64> {
            let mut total = 0;
            for entry in std::fs::read_dir(dir)? {
                let entry = entry?;
                let meta = entry.metadata()?;
                total += if meta.is_dir() {
                    walk(&entry.path())?
                } else {
                    meta.len()
                };
            }
            Ok(total)
        }
        walk(&self.0)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableKind {
    /// In memory, frozen layout: the upload's four runs per region plus the
    /// patched users' deltas in the memtable. Read-only once built.
    Frozen,
    /// On disk under a scratch directory with the store's default durability
    /// (`SyncPolicy::OnTruncate`, 4 MiB memtable, scheduled compaction) and
    /// online region splits.
    Durable,
}

/// One system under test and the oracle that mirrors its feature state.
pub struct Stack {
    pub server: ModelServer,
    pub table: Arc<RegionedTable>,
    pub codec: FeatureCodec,
    pub model: ModelFile,
    pub oracle: Oracle,
    /// Declared last: the directory goes after the stores that write to it.
    pub scratch: Option<Scratch>,
}

fn codec() -> FeatureCodec {
    FeatureCodec {
        embedding_dim: EMBEDDING_DIM,
        payer_width: PAYER_SLOTS.len(),
        receiver_width: RECEIVER_SLOTS.len(),
        velocity_width: VELOCITY_WIDTH,
    }
}

fn serving_layout() -> FeatureLayout {
    layout::serving_layout_with_velocity(EMBEDDING_DIM, VELOCITY_WIDTH)
}

impl Stack {
    /// Fit, upload, flush: everything between process start and warm-up.
    /// `tag` names the scratch directory of a durable table under `out`.
    pub fn build(
        seed: u64,
        kind: TableKind,
        cache: Option<RowCacheConfig>,
        out: &Path,
        tag: &str,
    ) -> Result<Self, String> {
        let io = |e: std::io::Error| e.to_string();
        let model = fit_model(seed)?;
        let mut oracle = Oracle::new(seed);
        let codec = codec();

        let users: Vec<u64> = (0..N_USERS).collect();
        let (config, scratch) = match kind {
            // A memtable that never fills: the runs are exactly the four
            // flushes below.
            TableKind::Frozen => (
                StoreConfig {
                    memtable_flush_bytes: 1 << 30,
                    ..StoreConfig::default()
                },
                None,
            ),
            TableKind::Durable => {
                let scratch = Scratch::create(out, tag).map_err(io)?;
                (
                    StoreConfig {
                        dir: Some(scratch.0.clone()),
                        ..StoreConfig::default()
                    },
                    Some(scratch),
                )
            }
        };
        let mut table = RegionedTable::with_user_splits(&users, N_REGIONS, config).map_err(io)?;
        if kind == TableKind::Durable {
            table = table.with_rebalancing(SplitConfig {
                split_threshold: Some(20_000),
                merge_threshold: 0,
                max_regions: 32,
            });
        }

        const USERS_PER_PUT: usize = 256;
        for run in 0..UPLOAD_RUNS {
            let members: Vec<u64> = (run..N_USERS).step_by(UPLOAD_RUNS as usize).collect();
            for chunk in members.chunks(USERS_PER_PUT) {
                let mut cells = Vec::with_capacity(chunk.len() * CELLS_PER_ROW);
                for &user in chunk {
                    cells.extend(codec.encode_user(user, oracle.features(user), BASE_VERSION));
                }
                table.put_rows(cells).map_err(io)?;
            }
            table.flush().map_err(io)?;
        }
        if kind == TableKind::Frozen {
            let patched: Vec<u64> = (5..N_USERS).step_by(PATCH_EVERY as usize).collect();
            for chunk in patched.chunks(USERS_PER_PUT) {
                let mut cells = Vec::new();
                for &user in chunk {
                    let delta = delta_of(seed, user, 0);
                    cells.extend(codec.encode_delta(&delta, DELTA_VERSION));
                    oracle.apply(&delta);
                }
                table.put_rows(cells).map_err(io)?;
            }
        }

        let table = Arc::new(table);
        let server = ModelServer::with_options(
            Arc::clone(&table),
            serving_layout(),
            model.clone(),
            SloConfig::default(),
            cache,
        )
        .map_err(|e| e.to_string())?;
        Ok(Self {
            server,
            table,
            codec,
            model,
            oracle,
            scratch,
        })
    }

    /// The probability the server must return for `req`, bit for bit.
    pub fn expected(&self, req: &ScoreRequest) -> f32 {
        self.model.model.predict_proba(&self.oracle.assemble(req))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_written_out_layout_is_the_documented_one() {
        let lay = serving_layout();
        assert_eq!(lay.n_basic, N_BASIC);
        assert_eq!(lay.payer_slots, PAYER_SLOTS);
        assert_eq!(lay.receiver_slots, RECEIVER_SLOTS);
        assert_eq!(lay.context_slots, CONTEXT_SLOTS);
        assert_eq!(lay.width(), WIDTH);
        assert_eq!(CELLS_PER_ROW, 62);
    }

    #[test]
    fn same_seed_same_inputs_and_seeds_differ() {
        let gen = traffic(7, None);
        let a = request_at(&gen, 7, 1234);
        let b = request_at(&traffic(7, None), 7, 1234);
        assert_eq!(
            (a.transferor, a.transferee, &a.context),
            (b.transferor, b.transferee, &b.context)
        );
        assert_eq!(base_features(7, 99), base_features(7, 99));
        assert_ne!(base_features(7, 99), base_features(8, 99));
        assert_eq!(delta_of(7, 99, 3), delta_of(7, 99, 3));
        assert_ne!(delta_of(7, 99, 3), delta_of(7, 99, 4));
    }

    #[test]
    fn oracle_applies_deltas_slot_by_slot() {
        let mut oracle = Oracle::new(1);
        let before = oracle.features(42).clone();
        let delta = delta_of(1, 42, 9);
        oracle.apply(&delta);
        let after = oracle.features(42);
        let (slot, value) = delta.payer[0];
        assert_eq!(after.payer_side[slot], value);
        assert_eq!(after.receiver_side, before.receiver_side);
        assert_eq!(after.embedding, before.embedding);
        let emitted: Vec<f32> = delta.velocity.iter().map(|&(_, v)| v).collect();
        assert_eq!(after.velocity, emitted);
    }
}
