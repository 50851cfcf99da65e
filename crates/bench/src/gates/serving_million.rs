//! **Serving million** — dynamic region splitting under skewed traffic at
//! population scale: 1M distinct users uploaded, then a Zipf-hot mixed
//! score/ingest stream (with a mid-stream flash event) driven through a
//! Model Server over three tables built from the identical workload:
//!
//! * **frozen** — 8 quantile regions, splitting disabled (the seed layout);
//! * **dynamic** — same 8 regions plus an active [`SplitConfig`], so ticks
//!   keep splitting whichever region's pressure window crosses the
//!   threshold at its median resident row;
//! * **dynamic re-run** — a from-scratch repeat of the dynamic build, the
//!   determinism control.
//!
//! Traffic alternates a scoring phase (reads accumulate per-region
//! pressure) and an ingest phase of **single-delta** `ingest_update`
//! calls — one store-lock acquisition each, so per-region lock counts
//! track per-region traffic and the post-ingest ticks see the scoring
//! phase's pressure window. The gate asserts:
//!
//! * **splitting engages** — the dynamic table splits several times and
//!   ends with more regions than it started with; the frozen table never
//!   moves;
//! * **the hot spot disperses** — the hottest region's share of ingest
//!   lock acquisitions drops ≥4× on the dynamic table vs the frozen one;
//! * **reads are unchanged** — frozen and dynamic probabilities are
//!   bit-identical for every one of the hundreds of thousands of scores;
//! * **replays are exact** — the re-run reproduces the same split layout
//!   and the same score bits;
//! * **worker counts are invisible** — 1-worker and 3-worker pools over
//!   the split table produce the synchronous score map;
//! * **scan work stays flat** — p99 runs-scanned per request on the split
//!   layout does not exceed the frozen layout's by more than a hair.

use crate::gate::{score_map, Checks, Outcome, Serving};
use serde::Serialize;
use std::sync::Arc;
use titant_alihbase::{RegionedTable, SplitConfig, StoreConfig};
use titant_datagen::{FlashEvent, TrafficConfig, TrafficGen};
use titant_modelserver::{FeatureDelta, ModelFile, ModelServer, ScoreRequest};

/// Regions the tables start with; the dynamic one may grow to
/// [`MAX_REGIONS`].
const N_REGIONS: usize = 8;
const MAX_REGIONS: usize = 32;
/// Popularity blocks of the Zipf traffic (hot block 0 sits inside frozen
/// region 0, so the seed layout concentrates both reads and ingest there).
const N_BLOCKS: u64 = 64;
/// Version of the bulk upload; stream deltas version monotonically above.
const UPLOAD_VERSION: u64 = 1;
/// Users per `put_rows` upload batch.
const UPLOAD_BATCH: u64 = 4_096;
const N_USERS: u64 = 1 << 20;
/// Events per round: one scoring phase then one ingest phase.
const ROUND_EVENTS: u64 = 4_096;
const WARMUP_ROUNDS: u64 = 28;
const MEASURE_ROUNDS: u64 = 8;
const ROUNDS: u64 = WARMUP_ROUNDS + MEASURE_ROUNDS;
const POOL_REQUESTS: u64 = 4_096;
/// The split threshold sits against the per-round pressure window: a round
/// accumulates ~2 read bumps per event, so a region attracting a
/// quarter-window of traffic (~12% of the stream) keeps fracturing.
const SPLIT_THRESHOLD: u64 = ROUND_EVENTS / 4;

/// The shared traffic stream: Zipf-hot transferors AND transferees (two
/// skewed draws per event keep region pressure proportional to popularity
/// alone), plus a flash burst on a previously cold block during the warmup
/// rounds — the layout has to chase a hot spot that moves.
fn traffic() -> TrafficGen {
    TrafficGen::new(TrafficConfig {
        n_users: N_USERS,
        n_blocks: N_BLOCKS,
        zipf_s: 1.2,
        // Event `i` consumes draw indices 2i and 2i+1, hence the window in
        // draw space: score rounds 8..12.
        flash: Some(FlashEvent {
            block: 40,
            from_event: 16 * ROUND_EVENTS,
            to_event: 24 * ROUND_EVENTS,
            boost: 80.0,
        }),
        seed: 0x7174_616e,
    })
}

fn request(gen: &TrafficGen, i: u64, tx_id: u64) -> ScoreRequest {
    let transferor = gen.user_at(2 * i);
    let mut transferee = gen.user_at(2 * i + 1);
    if transferee == transferor {
        transferee = (transferee + 1) % N_USERS;
    }
    ScoreRequest {
        tx_id,
        transferor,
        transferee,
        context: vec![(i * 17 % 997) as f32 / 997.0],
    }
}

/// One full workload pass over a fresh table.
struct Workload {
    score_bits: Vec<u32>,
    splits: u64,
    merges: u64,
    regions_end: usize,
    split_points: Vec<String>,
    /// Mean over layout-stable measurement rounds of the hottest region's
    /// share of ingest lock acquisitions.
    hottest_lock_share: f64,
    kept_rounds: u64,
    p99_runs_scanned: u64,
    mean_runs_scanned: f64,
    table: Arc<RegionedTable>,
    server: ModelServer,
}

/// `split_config` = `None` freezes the seed layout; `Some` lets ticks
/// rebalance it.
fn run_workload(
    fx: &Serving,
    model: &ModelFile,
    gen: &TrafficGen,
    split_config: Option<SplitConfig>,
) -> Workload {
    let ids: Vec<u64> = (0..N_USERS).collect();
    let mut table = RegionedTable::with_user_splits(&ids, N_REGIONS, StoreConfig::default())
        .expect("in-memory table");
    if let Some(cfg) = split_config {
        table = table.with_rebalancing(cfg);
    }
    let table = Arc::new(table);
    let server = fx.server(&table, model, None);
    let c = fx.layout.codec();

    // Bulk upload: every user once, batched so each put_rows call costs one
    // lock acquisition per owning region, then settle with a flush + tick.
    for first in (0..N_USERS).step_by(UPLOAD_BATCH as usize) {
        let batch = (first..N_USERS.min(first + UPLOAD_BATCH))
            .flat_map(|user| c.encode_user(user, &fx.features_of(user), UPLOAD_VERSION))
            .collect();
        table.put_rows(batch).expect("upload");
    }
    table.flush().expect("flush upload");
    let settle = table.tick().expect("settle tick");
    let mut splits = settle.region_splits;
    let mut merges = settle.region_merges;

    let k = ROUND_EVENTS;
    let mut score_bits = Vec::with_capacity((ROUNDS * k) as usize);
    let mut scan_samples: Vec<u64> = Vec::with_capacity((MEASURE_ROUNDS * k) as usize);
    let mut kept_rounds = 0u64;
    let mut share_sum = 0.0f64;
    for round in 0..ROUNDS {
        let measuring = round >= WARMUP_ROUNDS;
        // Scoring phase: reads accumulate per-region pressure (no ticks).
        let mut ingest_users = Vec::with_capacity(k as usize);
        for j in 0..k {
            let i = round * k + j;
            let req = request(gen, i, i);
            ingest_users.push((i, req.transferor));
            let before = measuring.then(|| table.op_counts());
            let resp = server.score(&req).expect("clean table scores");
            if let Some(before) = before {
                scan_samples.push(table.op_counts().since(&before).runs_scanned);
            }
            score_bits.push(resp.probability.to_bits());
        }
        // Ingest phase: one single-delta call per event. The first tick of
        // the phase sees the whole scoring window, so this is where splits
        // land; the remaining ticks see near-empty windows.
        let layout_before = table.split_points();
        let stats_before = table.region_write_stats();
        for &(i, user) in &ingest_users {
            let delta = FeatureDelta {
                user,
                payer: vec![(0, (i * 31 % 1_009) as f32 / 1_009.0)],
                ..FeatureDelta::default()
            };
            let report = server
                .ingest_update(&[delta], UPLOAD_VERSION + 1 + i)
                .expect("clean ingest");
            splits += report.region_splits;
            merges += report.region_merges;
        }
        // Per-region lock deltas only line up while the layout holds still;
        // a round that split mid-measurement is dropped from the share.
        if measuring && table.split_points() == layout_before {
            let locks: Vec<u64> = table
                .region_write_stats()
                .iter()
                .zip(&stats_before)
                .map(|(after, before)| after.since(before).lock_acquisitions)
                .collect();
            let total: u64 = locks.iter().sum();
            if total > 0 {
                share_sum += locks.iter().copied().max().unwrap_or(0) as f64 / total as f64;
                kept_rounds += 1;
            }
        }
    }
    scan_samples.sort_unstable();
    let p99_runs_scanned =
        scan_samples[(scan_samples.len() * 99 / 100).min(scan_samples.len() - 1)];
    let mean_runs_scanned =
        scan_samples.iter().sum::<u64>() as f64 / scan_samples.len().max(1) as f64;
    Workload {
        score_bits,
        splits,
        merges,
        regions_end: table.region_count(),
        split_points: table
            .split_points()
            .iter()
            .map(|p| format!("{p:?}"))
            .collect(),
        hottest_lock_share: share_sum / kept_rounds.max(1) as f64,
        kept_rounds,
        p99_runs_scanned,
        mean_runs_scanned,
        table,
        server,
    }
}

#[derive(Serialize)]
struct TableReport {
    label: String,
    splits: u64,
    merges: u64,
    regions_end: usize,
    hottest_lock_share: f64,
    kept_measure_rounds: u64,
    p99_runs_scanned: u64,
    mean_runs_scanned: f64,
}

impl TableReport {
    fn new(label: &str, w: &Workload) -> TableReport {
        eprintln!(
            "  {label:<7}: regions={} splits={} merges={} hottest lock share={:.3} p99 runs/req={}",
            w.regions_end, w.splits, w.merges, w.hottest_lock_share, w.p99_runs_scanned
        );
        TableReport {
            label: label.into(),
            splits: w.splits,
            merges: w.merges,
            regions_end: w.regions_end,
            hottest_lock_share: w.hottest_lock_share,
            kept_measure_rounds: w.kept_rounds,
            p99_runs_scanned: w.p99_runs_scanned,
            mean_runs_scanned: w.mean_runs_scanned,
        }
    }
}

#[derive(Serialize)]
struct Report {
    bench: String,
    n_users: u64,
    n_score_events: u64,
    split_threshold: u64,
    tables: Vec<TableReport>,
    lock_share_drop: f64,
    final_split_points: Vec<String>,
    splitting_engaged: bool,
    frozen_stayed_frozen: bool,
    scores_match_frozen: bool,
    rerun_identical: bool,
    workers_identical: bool,
    scan_work_flat: bool,
    lock_share_dispersed: bool,
    pass: bool,
}

pub fn run() -> Outcome {
    eprintln!(
        "serving million: {N_USERS} users, {N_REGIONS} regions seed, {ROUNDS} rounds x {ROUND_EVENTS} events"
    );
    // Minimal serving layout: one payer feature, one receiver feature, one
    // context value, no embedding — two cells per user, so a million-user
    // upload stays cheap while the region machinery sees real row keys.
    let fx = Serving::new(1, 1, 1, 0, 16, 5);
    let model = fx.model();
    let gen = traffic();
    let split_config = SplitConfig {
        split_threshold: Some(SPLIT_THRESHOLD),
        // Merging is driven by its own hysteresis; this gate pins the
        // dispersal direction, so cold siblings stay put.
        merge_threshold: 0,
        max_regions: MAX_REGIONS,
    };

    let frozen = run_workload(&fx, &model, &gen, None);
    let dynamic = run_workload(&fx, &model, &gen, Some(split_config.clone()));
    let rerun = run_workload(&fx, &model, &gen, Some(split_config));
    let tables = vec![
        TableReport::new("frozen", &frozen),
        TableReport::new("dynamic", &dynamic),
        TableReport::new("rerun", &rerun),
    ];
    let mut checks = Checks::default();

    // Gate (a): splitting engaged on the dynamic table and only there.
    let splitting_engaged = checks.check(
        "splitting engaged on the dynamic table",
        dynamic.splits >= 5 && dynamic.regions_end > N_REGIONS,
    );
    let frozen_stayed_frozen = checks.check(
        "the frozen layout never moved",
        frozen.splits == 0 && frozen.regions_end == N_REGIONS,
    );

    // Gate (b): the hottest region's lock-acquisition share drops ≥4×.
    let lock_share_drop = frozen.hottest_lock_share / dynamic.hottest_lock_share.max(1e-9);
    let lock_share_dispersed = checks.check(
        &format!(
            "hottest lock share drops >= 4x (got {lock_share_drop:.2}x, kept rounds {}/{})",
            frozen.kept_rounds, dynamic.kept_rounds
        ),
        frozen.kept_rounds > 0 && dynamic.kept_rounds > 0 && lock_share_drop >= 4.0,
    );

    // Gate (c): layout churn is invisible in the scores.
    let scores_match_frozen = checks.check(
        "frozen and dynamic probabilities agree",
        frozen.score_bits == dynamic.score_bits,
    );

    // Gate (d): a from-scratch re-run replays the same splits and scores.
    let rerun_identical = checks.check(
        "the re-run reproduces splits, layout and scores",
        rerun.score_bits == dynamic.score_bits
            && rerun.split_points == dynamic.split_points
            && rerun.splits == dynamic.splits,
    );

    // Gate (e): p99 scan work per request stays flat across the split
    // layout (children are compacted like any store; a read still lands in
    // exactly one region).
    let scan_work_flat = checks.check(
        "p99 runs scanned per request stays flat",
        dynamic.p99_runs_scanned <= frozen.p99_runs_scanned + 2,
    );

    // Gate (f): pool worker counts are invisible over the split table.
    let stream: Vec<ScoreRequest> = (0..POOL_REQUESTS)
        .map(|j| request(&gen, ROUNDS * ROUND_EVENTS + j, j))
        .collect();
    let sync = score_map(&dynamic.server, &stream, 0);
    let workers_identical = checks.check(
        "score map does not vary with pool worker count",
        score_map(&dynamic.server, &stream, 1) == sync
            && score_map(&dynamic.server, &stream, 3) == sync,
    );
    checks.check(
        "the read-only pool phase left the layout alone",
        dynamic.table.region_count() == dynamic.regions_end,
    );

    Outcome::new(
        checks.pass(),
        &Report {
            bench: "serving_million".into(),
            n_users: N_USERS,
            n_score_events: ROUNDS * ROUND_EVENTS,
            split_threshold: SPLIT_THRESHOLD,
            tables,
            lock_share_drop,
            final_split_points: dynamic.split_points.clone(),
            splitting_engaged,
            frozen_stayed_frozen,
            scores_match_frozen,
            rerun_identical,
            workers_identical,
            scan_work_flat,
            lock_share_dispersed,
            pass: checks.pass(),
        },
    )
}
