//! **Stream freshness** — the windowed velocity aggregator closing the
//! T+1 gap, gated on detection latency and bit-identity.
//!
//! Replays one [`TrafficGen`] day with an injected [`FlashEvent`] fraud
//! burst (a cold user block suddenly dominating the stream) through two
//! serving stacks over the same basic-feature upload:
//!
//! * **baseline** — the paper's T+1 story: the day-start upload is all the
//!   server ever sees, so in-day velocity is invisible until tomorrow;
//! * **streaming** — a `titant-stream` [`VelocityAggregator`] observing
//!   every transaction and flushing per-tick `FeatureDelta`s through
//!   `ingest_update_opts` into the `velocity` column family.
//!
//! The served model alerts on the payer's 1-tick-window txn count, so a
//! score can only move when streamed slots reach the store. It runs on the
//! production layout (`layout::serving_layout_with_velocity`), not the
//! synthetic fixture, and trains its own model because the label must sit
//! on a velocity slot. Gates:
//!
//! * **freshness** — the burst's hottest payer alerts on the streaming
//!   stack within ≤2 ticks of burst start; the baseline stack never
//!   alerts all day (and the streaming stack never alerts pre-burst);
//! * **bit-identity vs brute force** — at *every* tick cut, sampled users'
//!   window vectors equal a from-scratch recompute over the raw event log;
//! * **bit-identity across runs** — replaying the day reproduces the
//!   per-tick probe score bits, the emitted-delta digest, and every
//!   aggregator counter exactly;
//! * **bit-identity across pools** — a fixed probe stream scored
//!   synchronously, on a 1-worker pool, and on a 3-worker pool returns
//!   identical probability bit patterns and alerts.

use crate::gate::{
    fnv1a, memory_table, score_map, Checks, Outcome, SplitMix64, FNV_OFFSET, VERSION,
};
use serde::Serialize;
use std::sync::Arc;
use titant_alihbase::RegionedTable;
use titant_core::layout;
use titant_datagen::{FlashEvent, TrafficConfig, TrafficGen};
use titant_models::{Dataset, GbdtConfig};
use titant_modelserver::{
    FeatureLayout, ModelFile, ModelServer, ScoreRequest, ServableModel, UserFeatures,
};
use titant_stream::{brute_force_velocity, TxnEvent, VelocityAggregator, VelocityConfig};

/// The model's alert rule: payer 1-tick-window txn count at or above this.
const BURST_COUNT: f32 = 3.0;
/// Freshness gate: the burst must alert within this many ticks of start.
const MAX_DETECT_TICKS: u64 = 2;
const N_USERS: u64 = 1_024;
const N_BLOCKS: u64 = 64;
const TICKS: u64 = 480;
const EVENTS_PER_TICK: u64 = 96;
/// ~1m/1h/24h under a one-minute tick.
const WINDOWS: [u32; 3] = [1, 60, 1_440];
const BURST_TICKS: std::ops::Range<u64> = 240..300;
/// Pool sizes the final probe stream is scored at (0 = caller thread).
const POOL_WORKERS: [usize; 3] = [0, 1, 3];

fn traffic() -> TrafficGen {
    TrafficGen::new(TrafficConfig {
        n_users: N_USERS,
        n_blocks: N_BLOCKS,
        zipf_s: 1.2,
        // The burst hits the *coldest* block, so its users are quiet all
        // morning and the boost is unambiguous fraud-shaped velocity.
        flash: Some(FlashEvent {
            block: N_BLOCKS - 1,
            from_event: BURST_TICKS.start * EVENTS_PER_TICK,
            to_event: BURST_TICKS.end * EVENTS_PER_TICK,
            boost: 2_000.0,
        }),
        seed: 0x7174_616e,
    })
}

fn event_at(gen: &TrafficGen, event: u64) -> TxnEvent {
    let (payer, payee) = gen.pair_at(event);
    TxnEvent {
        tick: event / EVENTS_PER_TICK,
        payer,
        payee,
        amount_cents: 100 + SplitMix64(event ^ 0xA17A_60D5).next_u64() % 9_900,
    }
}

/// The payer with the most transactions in the burst's first tick — a
/// pure function of the traffic seed, so every run probes the same user.
fn burst_probe_user(gen: &TrafficGen) -> u64 {
    let mut counts = std::collections::BTreeMap::new();
    let start = BURST_TICKS.start * EVENTS_PER_TICK;
    for event in start..start + EVENTS_PER_TICK {
        *counts.entry(gen.pair_at(event).0).or_insert(0u64) += 1;
    }
    counts
        .into_iter()
        .max_by_key(|&(user, n)| (n, u64::MAX - user))
        .map(|(user, _)| user)
        .unwrap_or(0)
}

/// GBDT trained on synthetic rows whose label is exactly the alert rule
/// (payer 1-tick count >= BURST_COUNT), everything else noise — the score
/// is a pure function of the streamed slot. The payer 1-tick count is the
/// first velocity slot after the basic block (embedding_dim = 0).
fn model(lay: &FeatureLayout) -> ModelFile {
    let mut d = Dataset::new(lay.width());
    let mut rng = SplitMix64(29);
    let mut row = vec![0f32; lay.width()];
    for _ in 0..600 {
        for (i, v) in row.iter_mut().enumerate() {
            *v = if i < lay.n_basic {
                rng.next_f32()
            } else {
                (rng.next_f32() * 8.0).floor()
            };
        }
        d.push_row(&row, (row[lay.n_basic] >= BURST_COUNT) as u8 as f32);
    }
    let gbdt = GbdtConfig {
        n_trees: 30,
        subsample: 1.0,
        colsample: 1.0,
        ..Default::default()
    }
    .fit(&d);
    ModelFile {
        version: VERSION,
        alert_threshold: 0.5,
        n_features: lay.width(),
        model: ServableModel::Gbdt(gbdt),
    }
}

/// A fresh table with every user's day-start basic upload (no velocity).
fn seeded_table(lay: &FeatureLayout) -> Arc<RegionedTable> {
    let table = memory_table();
    let codec = lay.codec();
    for user in 0..N_USERS {
        let x = (user % 89) as f32 / 89.0;
        let row = UserFeatures {
            payer_side: vec![x; codec.payer_width],
            receiver_side: vec![1.0 - x; codec.receiver_width],
            embedding: Vec::new(),
            velocity: Vec::new(),
        };
        table
            .put_rows(codec.encode_user(user, &row, VERSION))
            .expect("seed upload");
    }
    table
}

fn probe_req(tx_id: u64, user: u64) -> ScoreRequest {
    ScoreRequest {
        tx_id,
        transferor: user,
        transferee: (user + 1) % N_USERS,
        context: vec![0.0; layout::CONTEXT_SLOTS.len()],
    }
}

/// Everything one day replay must reproduce bit-identically.
#[derive(PartialEq, Eq, Debug)]
struct DayResult {
    /// Streaming-stack probe probability bits, one per tick cut.
    probe_bits: Vec<u32>,
    /// Baseline-stack probe probability bits, one per tick cut.
    baseline_bits: Vec<u32>,
    /// FNV-1a over every emitted (user, slot, value-bits) triple in order.
    delta_digest: u64,
    detection_tick: Option<u64>,
    pre_burst_alerts: u64,
    baseline_alerts: u64,
    brute_mismatches: u64,
    observed: u64,
    slots_emitted: u64,
}

fn run_day(
    gen: &TrafficGen,
    vcfg: &VelocityConfig,
    lay: &FeatureLayout,
    model: &ModelFile,
    probe: u64,
    check_users: &[u64],
) -> (DayResult, ModelServer) {
    let streaming =
        ModelServer::new(seeded_table(lay), lay.clone(), model.clone()).expect("streaming server");
    let baseline =
        ModelServer::new(seeded_table(lay), lay.clone(), model.clone()).expect("baseline server");

    let mut agg = VelocityAggregator::new(vcfg.clone());
    let mut log: Vec<TxnEvent> = Vec::new();
    let mut r = DayResult {
        probe_bits: Vec::with_capacity(TICKS as usize),
        baseline_bits: Vec::with_capacity(TICKS as usize),
        delta_digest: FNV_OFFSET,
        detection_tick: None,
        pre_burst_alerts: 0,
        baseline_alerts: 0,
        brute_mismatches: 0,
        observed: 0,
        slots_emitted: 0,
    };
    for tick in 0..TICKS {
        for event in tick * EVENTS_PER_TICK..(tick + 1) * EVENTS_PER_TICK {
            let e = event_at(gen, event);
            assert!(agg.observe(&e), "in-order stream is never rejected");
            log.push(e);
        }
        // Brute-force cut check *before* the flush: the windows ending at
        // this tick must equal a from-scratch recompute over the log.
        for &u in check_users {
            if agg.features_of(u) != brute_force_velocity(vcfg, &log, tick, u) {
                r.brute_mismatches += 1;
            }
        }
        // Flush through the real ingest path, then probe both stacks.
        let deltas_before = agg.stats().slots_emitted;
        agg.advance_and_ingest(&streaming, VERSION).expect("ingest");
        r.delta_digest = fnv1a(r.delta_digest, agg.stats().slots_emitted - deltas_before);
        let sp = streaming.score(&probe_req(tick, probe)).expect("probe");
        let bp = baseline.score(&probe_req(tick, probe)).expect("probe");
        r.probe_bits.push(sp.probability.to_bits());
        r.baseline_bits.push(bp.probability.to_bits());
        if bp.alert {
            r.baseline_alerts += 1;
        }
        if sp.alert {
            if tick < BURST_TICKS.start {
                r.pre_burst_alerts += 1;
            } else if r.detection_tick.is_none() {
                r.detection_tick = Some(tick);
            }
        }
    }
    // Fold the final emitted vectors of the sampled users into the digest
    // so content drift (not just delta-count drift) fails the replay gate.
    for &u in check_users {
        for v in agg.emitted_of(u) {
            r.delta_digest = fnv1a(r.delta_digest, u64::from(v.to_bits()));
        }
    }
    let stats = agg.stats();
    r.observed = stats.observed;
    r.slots_emitted = stats.slots_emitted;
    (r, streaming)
}

#[derive(Serialize)]
struct Report {
    bench: String,
    n_users: u64,
    ticks: u64,
    events: u64,
    windows: Vec<u32>,
    velocity_width: usize,
    burst_start_tick: u64,
    probe_user: u64,
    detection_tick: Option<u64>,
    detection_delay_ticks: Option<u64>,
    baseline_alerts: u64,
    pre_burst_alerts: u64,
    brute_force_cuts: u64,
    brute_mismatches: u64,
    delta_digest: String,
    slots_emitted: u64,
    reruns_identical: bool,
    pools_identical: bool,
    pool_workers_checked: Vec<usize>,
    pass: bool,
}

pub fn run() -> Outcome {
    let vcfg = VelocityConfig {
        windows: WINDOWS.to_vec(),
        max_counterparties: 64,
    };
    let gen = traffic();
    let probe = burst_probe_user(&gen);
    // Sampled brute-force users: the burst probe, a hot-block user, and
    // two spread across the id space.
    let mut check_users = vec![probe, 0, N_USERS / 2, N_USERS - 1];
    check_users.sort_unstable();
    check_users.dedup();
    eprintln!(
        "stream freshness: {N_USERS} users × {TICKS} ticks × {EVENTS_PER_TICK} events/tick, windows {WINDOWS:?}, burst @ tick {} (probe user {probe})",
        BURST_TICKS.start,
    );
    let lay = layout::serving_layout_with_velocity(0, vcfg.width());
    let model = model(&lay);
    let mut checks = Checks::default();

    // ---- the day, twice: gates + replay identity ----
    let (day, streaming) = run_day(&gen, &vcfg, &lay, &model, probe, &check_users);
    eprintln!(
        "  day: observed={} slots_emitted={} digest={:016x}",
        day.observed, day.slots_emitted, day.delta_digest
    );
    let (replay, _) = run_day(&gen, &vcfg, &lay, &model, probe, &check_users);
    let reruns_identical = checks.check(
        "replaying the day reproduces it bit-identically",
        day == replay,
    );

    // Gate: detection latency, no baseline visibility, no false fires.
    let detection_delay = day.detection_tick.map(|t| t - BURST_TICKS.start);
    checks.check(
        &format!(
            "burst visible in streaming scores within {MAX_DETECT_TICKS} ticks (delay {detection_delay:?})"
        ),
        detection_delay.is_some_and(|d| d <= MAX_DETECT_TICKS),
    );
    checks.check(
        &format!(
            "T+1 baseline stays blind to in-day velocity ({} alerts)",
            day.baseline_alerts
        ),
        day.baseline_alerts == 0,
    );
    checks.check(
        &format!(
            "streaming stack silent before the burst ({} alerts)",
            day.pre_burst_alerts
        ),
        day.pre_burst_alerts == 0,
    );
    let brute_cuts = TICKS * check_users.len() as u64;
    checks.check(
        &format!(
            "{}/{brute_cuts} brute-force cuts diverged from the aggregator",
            day.brute_mismatches
        ),
        day.brute_mismatches == 0,
    );

    // ---- pool identity: sync vs 1 vs 3 workers on the final state ----
    let pool_reqs: Vec<ScoreRequest> = (0..64u64)
        .map(|i| {
            let user = match i % 4 {
                0 => probe,
                1 => 0,
                2 => (i * 37) % N_USERS,
                _ => N_USERS - 1 - (i % 17),
            };
            probe_req(i, user)
        })
        .collect();
    let reference = score_map(&streaming, &pool_reqs, POOL_WORKERS[0]);
    let pools_identical = checks.check(
        "pool scores equal the synchronous run",
        POOL_WORKERS[1..]
            .iter()
            .all(|&w| score_map(&streaming, &pool_reqs, w) == reference),
    );

    Outcome::new(
        checks.pass(),
        &Report {
            bench: "stream".into(),
            n_users: N_USERS,
            ticks: TICKS,
            events: TICKS * EVENTS_PER_TICK,
            windows: WINDOWS.to_vec(),
            velocity_width: vcfg.width(),
            burst_start_tick: BURST_TICKS.start,
            probe_user: probe,
            detection_tick: day.detection_tick,
            detection_delay_ticks: detection_delay,
            baseline_alerts: day.baseline_alerts,
            pre_burst_alerts: day.pre_burst_alerts,
            brute_force_cuts: brute_cuts,
            brute_mismatches: day.brute_mismatches,
            delta_digest: format!("{:016x}", day.delta_digest),
            slots_emitted: day.slots_emitted,
            reruns_identical,
            pools_identical,
            pool_workers_checked: POOL_WORKERS.to_vec(),
            pass: checks.pass(),
        },
    )
}
