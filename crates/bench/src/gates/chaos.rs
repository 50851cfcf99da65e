//! **Chaos replay** — the serving path under escalating seeded fault plans.
//!
//! Replays a request stream (test-day transactions, cycled) through a
//! Model Server whose feature table carries a seeded
//! [`titant_alihbase::FaultPlan`]: transient read errors, latency spikes,
//! torn cells, and a region-unavailable window, at three escalating levels
//! (baseline / transient / storm). The server answers with its SLO stack —
//! deadline budgets, bounded retry, hedged reads, replica failover — and
//! the gate asserts, per level:
//!
//! * **zero panics** — every pool worker survives every level;
//! * **zero lost requests** — every request resolves as scored (possibly
//!   degraded) or deadline-exceeded, and the counts add up;
//! * **bit-identical counters** — the same seed reproduces every counter
//!   exactly across re-runs *and across worker counts*, because fault
//!   draws, backoff jitter, and deadline charging are pure functions of
//!   the seed and request coordinates.
//!
//! A final burst phase drives a non-blocking flood through a small queue
//! and asserts conservation (scored + errored == sent) and that the pool
//! sheds rather than stalls.
//!
//! The report holds counters and booleans only: per-stage latency belongs
//! to the benchmark (`benchmark/`), where it is measured under load.

use crate::gate::{Checks, Outcome, Pipeline};
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use titant_core::prelude::*;
use titant_modelserver::{ModelServer, ScoreRequest, ServeError};

const REPLICAS: usize = 2;
/// Pool sizes every level is replayed at, after a second synchronous run.
const WORKER_COUNTS: [usize; 2] = [1, 3];
/// The storm's region-unavailable window, in request ticks.
const OUTAGE_TICKS: std::ops::Range<u64> = 2000..3000;
const N_REQUESTS: usize = 10_000;

struct Level {
    name: &'static str,
    seed: u64,
    transient_rate: f64,
    latency_rate: f64,
    latency: Duration,
    torn_cell_rate: f64,
    outage: bool,
}

const LEVELS: [Level; 3] = [
    Level {
        name: "baseline",
        seed: 0xBA5E,
        transient_rate: 0.0,
        latency_rate: 0.0,
        latency: Duration::ZERO,
        torn_cell_rate: 0.0,
        outage: false,
    },
    Level {
        name: "transient",
        seed: 0x7274,
        transient_rate: 0.05,
        latency_rate: 0.01,
        latency: Duration::from_millis(2),
        torn_cell_rate: 0.002,
        outage: false,
    },
    // The acceptance storm: >= 5% transient + latency spikes + a
    // region-unavailable window.
    Level {
        name: "storm",
        seed: 0x5708,
        transient_rate: 0.06,
        latency_rate: 0.03,
        latency: Duration::from_millis(4),
        torn_cell_rate: 0.005,
        outage: true,
    },
];

fn fault_plan(level: &Level) -> FaultPlan {
    FaultPlan::new(FaultPlanConfig {
        seed: level.seed,
        transient_rate: level.transient_rate,
        latency_rate: level.latency_rate,
        latency: level.latency,
        torn_cell_rate: level.torn_cell_rate,
        unavailable: level.outage.then_some(UnavailableWindow {
            region: 0,
            replica: Some(0),
            from_tick: OUTAGE_TICKS.start,
            to_tick: OUTAGE_TICKS.end,
        }),
        // Write-fault rates stay at their default-off zeros: this gate
        // covers the read path and must stay byte-identical.
        ..FaultPlanConfig::default()
    })
}

fn slo(seed: u64) -> SloConfig {
    SloConfig {
        // Budget below 2x the hedge threshold: a request whose primary AND
        // hedge both hit a spike deterministically exhausts its budget.
        deadline: Some(Duration::from_micros(1800)),
        retry: RetryPolicy {
            max_retries: 2,
            base: Duration::from_micros(50),
            cap: Duration::from_micros(200),
        },
        hedge: Some(HedgePolicy {
            after: Duration::from_millis(1),
        }),
        seed,
    }
}

/// Everything one run must reproduce bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
struct Counters {
    scored: u64,
    degraded: u64,
    deadline_exceeded: u64,
    retried: u64,
    hedged: u64,
    failovers: u64,
    shed: u64,
}

#[derive(Serialize)]
struct LevelReport {
    level: String,
    seed: u64,
    n_requests: usize,
    transient_rate: f64,
    latency_rate: f64,
    torn_cell_rate: f64,
    outage: bool,
    counters: Counters,
    reproducible: bool,
    zero_lost: bool,
    zero_panics: bool,
    workers_checked: Vec<usize>,
}

/// The burst's split between scored, errored and shed depends on how the
/// workers are scheduled against the flood, so only its invariants are
/// reported.
#[derive(Serialize)]
struct BurstReport {
    sent: usize,
    conserved: bool,
    sheds: bool,
    zero_panics: bool,
}

#[derive(Serialize)]
struct Report {
    bench: String,
    replicas: usize,
    levels: Vec<LevelReport>,
    burst: BurstReport,
    pass: bool,
}

/// One deterministic pass over the stream; `workers == 0` runs it
/// synchronously on the caller thread, otherwise through a serve pool with
/// blocking sends (no shedding). Returns the counters plus whether every
/// worker survived.
fn run_stream(server: &ModelServer, stream: &[ScoreRequest], workers: usize) -> (Counters, bool) {
    let scored = Arc::new(AtomicU64::new(0));
    let degraded = Arc::new(AtomicU64::new(0));
    let deadline = Arc::new(AtomicU64::new(0));
    let mut panics_free = true;
    if workers == 0 {
        for req in stream {
            match server.score(req) {
                Ok(resp) => {
                    scored.fetch_add(1, Ordering::Relaxed);
                    if resp.degraded {
                        degraded.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Err(ServeError::DeadlineExceeded { .. }) => {
                    deadline.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => panic!("unexpected serve error: {e}"),
            }
        }
    } else {
        let (s2, d2, dl2) = (
            Arc::clone(&scored),
            Arc::clone(&degraded),
            Arc::clone(&deadline),
        );
        let pool = server.serve_pool(
            workers,
            move |resp| {
                s2.fetch_add(1, Ordering::Relaxed);
                if resp.degraded {
                    d2.fetch_add(1, Ordering::Relaxed);
                }
            },
            move |err| match err {
                ServeError::DeadlineExceeded { .. } => {
                    dl2.fetch_add(1, Ordering::Relaxed);
                }
                other => panic!("unexpected serve error: {other}"),
            },
        );
        for req in stream {
            pool.send(req.clone()).expect("pool accepts while running");
        }
        panics_free = pool.live_workers() == workers;
        pool.shutdown();
    }
    let r = server.resilience();
    (
        Counters {
            scored: scored.load(Ordering::Relaxed),
            degraded: degraded.load(Ordering::Relaxed),
            deadline_exceeded: deadline.load(Ordering::Relaxed),
            retried: r.retried,
            hedged: r.hedged,
            failovers: r.failovers,
            shed: r.shed,
        },
        panics_free,
    )
}

pub fn run() -> Outcome {
    eprintln!("chaos replay: training the quick pipeline with {REPLICAS} serving replicas");
    let fx = Pipeline::new(1337, REPLICAS);
    assert_eq!(fx.table.replica_count(), REPLICAS, "replicas must be live");
    let stream = fx.requests(N_REQUESTS);
    let mut checks = Checks::default();
    let mut level_reports = Vec::new();

    for level in &LEVELS {
        fx.table.set_fault_hook(Some(Arc::new(fault_plan(level))));

        // Reference run: synchronous, one fresh server.
        let reference = fx.server(&fx.table, slo(level.seed));
        let (counters, _) = run_stream(&reference, &stream, 0);

        // Replays: a second synchronous run, then one per worker count —
        // every one must reproduce the reference counters exactly.
        let mut reproducible = true;
        let mut zero_panics = true;
        let mut replays = vec![0usize];
        replays.extend(WORKER_COUNTS);
        for &workers in &replays {
            let server = fx.server(&fx.table, slo(level.seed));
            let (replay, panic_free) = run_stream(&server, &stream, workers);
            zero_panics &= panic_free;
            if replay != counters {
                reproducible = false;
                eprintln!(
                    "  {}: counter drift at {workers} worker(s): {replay:?} != {counters:?}",
                    level.name
                );
            }
        }

        let zero_lost = counters.scored + counters.deadline_exceeded == N_REQUESTS as u64;
        checks.check(
            &format!(
                "level {}: counters reproduce, none lost, no panics",
                level.name
            ),
            reproducible && zero_lost && zero_panics,
        );
        eprintln!(
            "  {:<9} n={N_REQUESTS} {counters:?} | repro={reproducible} lost0={zero_lost} panics0={zero_panics}",
            level.name,
        );
        level_reports.push(LevelReport {
            level: level.name.into(),
            seed: level.seed,
            n_requests: N_REQUESTS,
            transient_rate: level.transient_rate,
            latency_rate: level.latency_rate,
            torn_cell_rate: level.torn_cell_rate,
            outage: level.outage,
            counters,
            reproducible,
            zero_lost,
            zero_panics,
            workers_checked: replays,
        });
    }

    // Burst phase: non-blocking floods through a small queue must shed
    // rather than stall, and every request must still be accounted for.
    let storm = &LEVELS[2];
    fx.table.set_fault_hook(Some(Arc::new(fault_plan(storm))));
    let burst_stream = &stream[..2_000];
    let server = fx.server(&fx.table, slo(storm.seed));
    let scored = Arc::new(AtomicU64::new(0));
    let errored = Arc::new(AtomicU64::new(0));
    let (s2, e2) = (Arc::clone(&scored), Arc::clone(&errored));
    let burst_workers = 2usize;
    let pool = server.serve_pool_sized(
        burst_workers,
        64,
        move |_| {
            s2.fetch_add(1, Ordering::Relaxed);
        },
        move |err| match err {
            ServeError::Shed { .. } | ServeError::DeadlineExceeded { .. } => {
                e2.fetch_add(1, Ordering::Relaxed);
            }
            other => panic!("unexpected serve error: {other}"),
        },
    );
    for req in burst_stream {
        pool.submit(req.clone());
    }
    let burst_panic_free = pool.live_workers() == burst_workers;
    pool.shutdown();
    fx.table.set_fault_hook(None);
    let (scored, errored) = (
        scored.load(Ordering::Relaxed),
        errored.load(Ordering::Relaxed),
    );
    let shed = server.resilience().shed;
    let burst = BurstReport {
        sent: burst_stream.len(),
        conserved: scored + errored == burst_stream.len() as u64,
        sheds: shed > 0,
        zero_panics: burst_panic_free,
    };
    checks.check(
        "burst: scored + errored == sent, some shed, no panics",
        burst.conserved && burst.sheds && burst.zero_panics,
    );
    eprintln!(
        "  burst: sent={} scored={scored} errored={errored} shed={shed} conserved={} panics0={}",
        burst.sent, burst.conserved, burst.zero_panics
    );

    Outcome::new(
        checks.pass(),
        &Report {
            bench: "chaos".into(),
            replicas: REPLICAS,
            levels: level_reports,
            burst,
            pass: checks.pass(),
        },
    )
}
