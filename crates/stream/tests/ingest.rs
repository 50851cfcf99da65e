//! End-to-end: the windowed aggregator flushes velocity deltas through
//! `ModelServer::ingest_update_opts` and the served scores react to a
//! fraud burst within the same tick — the miniature version of the
//! `stream` gate.

use std::sync::Arc;
use titant_alihbase::{RegionedTable, StoreConfig};
use titant_models::{Dataset, GbdtConfig};
use titant_modelserver::{
    FeatureCodec, FeatureLayout, ModelFile, ModelServer, ScoreRequest, ServableModel, UserFeatures,
};
use titant_stream::{brute_force_velocity, TxnEvent, VelocityAggregator, VelocityConfig};

const VERSION: u64 = 20170410;

fn vconfig() -> VelocityConfig {
    VelocityConfig {
        windows: vec![1, 4],
        max_counterparties: 8,
    }
}

fn layout() -> FeatureLayout {
    FeatureLayout {
        n_basic: 5,
        payer_slots: vec![0, 1],
        receiver_slots: vec![2, 3],
        context_slots: vec![4],
        embedding_dim: 0,
        velocity_width: vconfig().width(),
    }
}

/// Model: fraud iff the payer's 1-tick-window txn count (input slot 5,
/// the first velocity slot) is at least 2 — a pure velocity rule, so the
/// score can only move when streaming deltas reach the store.
fn model(width: usize) -> ModelFile {
    let mut d = Dataset::new(width);
    let mut state = 11u64;
    let mut rand01 = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 33) as f32 / (1u64 << 31) as f32
    };
    for _ in 0..500 {
        let mut row = vec![0f32; width];
        for (i, v) in row.iter_mut().enumerate() {
            *v = match i % 3 {
                _ if i < 5 => rand01(),
                0 => (rand01() * 4.0).floor(),   // count-like slots
                1 => (rand01() * 500.0).floor(), // amount-cents-like slots
                _ => (rand01() * 4.0).floor(),   // distinct-like slots
            };
        }
        let label = (row[5] >= 2.0) as u8 as f32;
        d.push_row(&row, label);
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
        n_features: width,
        model: ServableModel::Gbdt(gbdt),
    }
}

fn setup() -> (ModelServer, Arc<RegionedTable>, FeatureCodec) {
    let table = Arc::new(RegionedTable::single(StoreConfig::default()).unwrap());
    let lay = layout();
    let codec = FeatureCodec {
        embedding_dim: 0,
        payer_width: 2,
        receiver_width: 2,
        velocity_width: lay.velocity_width,
    };
    let ms = ModelServer::new(table.clone(), lay.clone(), model(lay.width())).unwrap();
    for user in 1u64..=2 {
        table
            .put_rows(codec.encode_user(
                user,
                &UserFeatures {
                    payer_side: vec![0.1, 0.2],
                    receiver_side: vec![0.3, 0.4],
                    embedding: Vec::new(),
                    velocity: Vec::new(),
                },
                VERSION,
            ))
            .unwrap();
    }
    (ms, table, codec)
}

fn req(tx_id: u64) -> ScoreRequest {
    ScoreRequest {
        tx_id,
        transferor: 1,
        transferee: 2,
        context: vec![0.1],
    }
}

#[test]
fn burst_becomes_visible_in_served_scores_within_one_tick() {
    let (ms, table, codec) = setup();
    let vcfg = vconfig();
    let mut agg = VelocityAggregator::new(vcfg.clone());
    let mut log: Vec<TxnEvent> = Vec::new();
    let observe = |agg: &mut VelocityAggregator, log: &mut Vec<TxnEvent>, e: TxnEvent| {
        assert!(agg.observe(&e));
        log.push(e);
    };

    // Ticks 0-2: quiet traffic — one outgoing txn per tick from user 1.
    for tick in 0..3u64 {
        observe(
            &mut agg,
            &mut log,
            TxnEvent {
                tick,
                payer: 1,
                payee: 50 + tick,
                amount_cents: 120,
            },
        );
        ms.deploy_tick(&mut agg);
        let r = ms.score(&req(100 + tick)).unwrap();
        assert!(
            !r.alert,
            "quiet tick {tick} must not alert (p={})",
            r.probability
        );
    }

    // Tick 3: fraud burst — five payees in one tick.
    for j in 0..5u64 {
        observe(
            &mut agg,
            &mut log,
            TxnEvent {
                tick: 3,
                payer: 1,
                payee: 200 + j,
                amount_cents: 9_900,
            },
        );
    }
    // Before the flush the served features are still the quiet ones.
    let before = ms.score(&req(200)).unwrap();
    assert!(
        !before.alert,
        "burst not flushed yet (p={})",
        before.probability
    );

    let report = ms.ingest_tick(&mut agg);
    assert_eq!(report.users, 1, "only user 1 changed this tick");
    let after = ms.score(&req(201)).unwrap();
    assert!(
        after.alert,
        "burst must be visible in the very next score (p={})",
        after.probability
    );

    // The stored row matches the aggregator's emission and the oracle.
    let stored = codec.get_user(&table, 1, VERSION).unwrap().unwrap();
    assert_eq!(stored.velocity, agg.emitted_of(1));
    assert_eq!(stored.velocity, brute_force_velocity(&vcfg, &log, 3, 1));

    // Ticks 4-7: traffic stops; the 1-tick window clears immediately, the
    // 4-tick window by tick 7 — and the score falls back with it.
    for tick in 4..8u64 {
        ms.ingest_tick(&mut agg);
        let stored = codec.get_user(&table, 1, VERSION).unwrap().unwrap();
        assert_eq!(stored.velocity, brute_force_velocity(&vcfg, &log, tick, 1));
        let r = ms.score(&req(300 + tick)).unwrap();
        assert!(!r.alert, "decayed tick {tick} must not alert");
    }
    assert_eq!(agg.live_users(), 0, "all window state expired and was GCed");

    // An idle flush with no pending change is still a clean ingest.
    let idle = ms.ingest_tick(&mut agg);
    assert_eq!((idle.users, idle.cells), (0, 0));
}

#[test]
fn velocity_before_the_first_upload_degrades_instead_of_crashing() {
    let (ms, table, codec) = setup();
    let mut agg = VelocityAggregator::new(vconfig());
    // User 7 never got a T+1 upload; the stream still writes them, but
    // their row has no basic block, so until the next full upload the
    // codec reports it torn and the serve path falls back to the
    // context-only degraded score instead of failing the request.
    agg.observe(&TxnEvent {
        tick: 0,
        payer: 7,
        payee: 1,
        amount_cents: 300,
    });
    ms.ingest_tick(&mut agg);
    assert!(codec.get_user(&table, 7, VERSION).is_err());
    let r = ms
        .score(&ScoreRequest {
            tx_id: 9,
            transferor: 7,
            transferee: 2,
            context: vec![0.1],
        })
        .unwrap();
    assert!(r.degraded);

    // The T+1 upload arrives: the row heals and the streamed velocity
    // cells merge with the fresh basic block.
    table
        .put_rows(codec.encode_user(
            7,
            &UserFeatures {
                payer_side: vec![0.1, 0.2],
                receiver_side: vec![0.3, 0.4],
                embedding: Vec::new(),
                velocity: Vec::new(),
            },
            VERSION,
        ))
        .unwrap();
    ms.invalidate_row_cache();
    let row = codec.get_user(&table, 7, VERSION).unwrap().unwrap();
    assert_eq!(row.velocity, agg.emitted_of(7));
}

/// Tiny helpers so the test reads as "tick the world": flush the
/// aggregator through the server, panicking on ingest errors.
trait TickExt {
    fn ingest_tick(&self, agg: &mut VelocityAggregator) -> titant_modelserver::IngestReport;
    fn deploy_tick(&self, agg: &mut VelocityAggregator) {
        self.ingest_tick(agg);
    }
}

impl TickExt for ModelServer {
    fn ingest_tick(&self, agg: &mut VelocityAggregator) -> titant_modelserver::IngestReport {
        agg.advance_and_ingest(self, VERSION).unwrap()
    }
}
