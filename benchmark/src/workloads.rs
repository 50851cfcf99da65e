//! The five workloads: their set-up, their untraced measurement and their
//! traced layered replay. The README's tables say why each exists and which
//! end-to-end metric each layer metric is expected to move.

use crate::alloc::{self, AllocCounts};
use crate::api::{
    Classifier, Dataset, FeatureCodec, FeatureDelta, FlashEvent, IngestReport, LatencySnapshot,
    ResilienceSnapshot, RowCacheConfig, RowCacheStats, RowKey, ScoreRequest, ScoreResponse,
    ServeError, Stage, TrafficGen, TxnEvent, UserFeatures, VelocityAggregator, VelocityConfig,
    WriteOptions, WriteStatsSnapshot,
};
use crate::fixture::{
    delta_of, mix, request_at, traffic, Stack, TableKind, CELLS_PER_ROW, DELTA_VERSION, N_USERS,
    VELOCITY_WINDOWS, WIDTH,
};
use crate::loadgen::{run_open_loop, Clock, RealClock};
use crate::report::{Outcome, END_TO_END, PER_LAYER};
use crate::stats::{median, nearest_rank, ns_u32, quantile};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Requests per `score_batch` call.
const BATCH: usize = 64;
/// User deltas per `ingest_update` call.
const DELTAS_PER_CALL: usize = 32;
/// `serve_hot` cycles a request list of this length.
const HOT_LIST: usize = 65_536;
const STREAM_RATE: u64 = 3_000;
const EVENTS_PER_TICK: usize = 256;
/// Warm-up traffic comes from event indices no timed pass reaches.
const WARM_BASE: u64 = 1 << 40;
/// A maintenance tick longer than this counts as a foreground stall.
const STALL: Duration = Duration::from_millis(1);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeCold,
    ServeHot,
    ServeBatch,
    IngestDurable,
    StreamMixed,
}

use Workload::{IngestDurable, ServeBatch, ServeCold, ServeHot, StreamMixed};

impl Workload {
    pub const ALL: [Workload; 5] = [ServeCold, ServeHot, ServeBatch, IngestDurable, StreamMixed];

    pub fn name(self) -> &'static str {
        match self {
            ServeCold => "serve_cold",
            ServeHot => "serve_hot",
            ServeBatch => "serve_batch",
            IngestDurable => "ingest_durable",
            StreamMixed => "stream_mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Latency limit of one timed call; a call that finishes after it
    /// misses, and so do all the operations it carried.
    fn limit(self) -> Duration {
        Duration::from_millis(match self {
            ServeCold | ServeHot => 1,
            ServeBatch => 20,
            IngestDurable | StreamMixed => 50,
        })
    }

    /// Calls per round of a closed-loop workload: inputs are made before a
    /// round and outputs checked after it, off the clock. A whole number of
    /// windows.
    fn round_calls(self) -> usize {
        match self {
            ServeCold => 8_192,
            ServeHot => HOT_LIST,
            ServeBatch => 128,
            IngestDurable => 256,
            StreamMixed => 0,
        }
    }

    /// Timed calls (`stream_mixed`: events, one tick's worth) per window. A
    /// window yields a p50, a p95 and a rate of its own, and the run reports
    /// those of its least disturbed window (`stream_mixed`: the first
    /// quartile over its ticks). About a dozen samples lie beyond a window's
    /// p95 where calls are short; a window lasts 5 to 20 ms there and 30 to
    /// 150 ms where a call takes milliseconds, because the quiet stretches of
    /// this machine are that short when it is disturbed.
    fn window_calls(self) -> usize {
        match self {
            ServeCold => 256,
            ServeHot => 4_096,
            ServeBatch => 32,
            IngestDurable => 64,
            StreamMixed => EVENTS_PER_TICK,
        }
    }

    /// Calls in each pass of the traced replay: about a quarter of what the
    /// untraced run gets through in `seconds` on the builder's machine —
    /// more of `ingest_durable`, which needs some 5,000 calls to reach its
    /// first compactions, and all of `stream_mixed`'s schedule — and a fixed
    /// count, so that same-seed traced runs do identical work.
    fn trace_calls(self, seconds: u64) -> usize {
        seconds as usize
            * match self {
                ServeCold => 2_048,
                ServeHot => HOT_LIST / 10,
                ServeBatch => 32,
                IngestDurable => 500,
                StreamMixed => STREAM_RATE as usize,
            }
    }

    /// Calls each pass of the traced replay makes before the next pass takes
    /// its turn. Taking turns lets a drift of the machine meet all passes
    /// alike; a turn is long enough that what the previous pass read has
    /// left the CPU caches when the next pass comes to it — or, where the
    /// whole working set is small (`serve_hot`), covers all of it, so that
    /// every pass finds the caches as the pass before left them.
    fn trace_chunk(self) -> usize {
        match self {
            ServeCold => 4_096,
            ServeHot => HOT_LIST,
            ServeBatch => 4_096 / BATCH,
            IngestDurable => 128,
            StreamMixed => 0,
        }
    }
}

pub struct Env<'a> {
    pub seed: u64,
    pub seconds: u64,
    /// The benchmark's `out/` directory: scratch tables and trace files.
    pub out: &'a Path,
}

/// Fit, upload, flush and warm up one system for `w`. `k` keeps the scratch
/// directories of one process apart.
fn setup(w: Workload, env: &Env, k: usize) -> Result<Stack, String> {
    let tag = format!("{}-{k}", w.name());
    let (kind, cache) = match w {
        ServeCold | ServeBatch => (TableKind::Frozen, None),
        // At least twice the users: the working set fits.
        ServeHot => (
            TableKind::Frozen,
            Some(RowCacheConfig {
                capacity: 2 * N_USERS as usize,
                ..RowCacheConfig::default()
            }),
        ),
        IngestDurable => (TableKind::Durable, None),
        // An eighth of the users: most rows do not fit.
        StreamMixed => (
            TableKind::Durable,
            Some(RowCacheConfig {
                capacity: N_USERS as usize / 8,
                ..RowCacheConfig::default()
            }),
        ),
    };
    let stack = Stack::build(env.seed, kind, cache, env.out, &tag)?;
    let gen = traffic(env.seed, None);
    let warm = |n: u64| -> Vec<ScoreRequest> {
        (0..n)
            .map(|i| request_at(&gen, env.seed, WARM_BASE + i))
            .collect()
    };
    match w {
        ServeCold => {
            for req in warm(4_096) {
                black_box(stack.server.score(&req)).map_err(|e| e.to_string())?;
            }
        }
        ServeBatch => {
            for batch in warm(4_096).chunks(BATCH) {
                black_box(stack.server.score_batch(batch));
            }
        }
        // Touch every user once, so that every timed lookup hits.
        ServeHot => {
            for pair in 0..N_USERS / 2 {
                let mut req = request_at(&gen, env.seed, WARM_BASE + pair);
                (req.transferor, req.transferee) = (2 * pair, 2 * pair + 1);
                black_box(stack.server.score(&req)).map_err(|e| e.to_string())?;
            }
        }
        // The bulk upload leaves every region over the split threshold.
        // `ingest_durable` lets its first timed call meet the rebalance that
        // provokes; here it is settled before the schedule starts, where one
        // long stall would decide p95 and `ok_share` by itself.
        StreamMixed => {
            stack.table.tick().map_err(|e| e.to_string())?;
        }
        IngestDurable => {}
    }
    Ok(stack)
}

/// Operations attempted, operations that failed outright (an error, a shed
/// or degraded response, a mismatch with the oracle), and operations that
/// missed: failed, or carried by a call that outran its latency limit.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    attempted: u64,
    failed: u64,
    missed: u64,
}

impl Tally {
    fn record(&mut self, ops: u64, failed: u64, late: bool) {
        self.attempted += ops;
        self.failed += failed;
        self.missed += if late { ops } else { failed };
    }

    fn miss_share(&self) -> f64 {
        self.missed as f64 / self.attempted.max(1) as f64
    }
}

/// One closed-loop workload: how its inputs are made from the seed, the one
/// timed call, and the check of that call's output against the oracle.
trait Closed {
    type In;
    type Out;
    /// Name of the timed call's span.
    const PARENT: &'static str;
    /// Operations one call carries.
    const OPS: u64;
    fn inputs(&self, first_call: usize, n: usize) -> Vec<Self::In>;
    fn call(&self, stack: &Stack, input: &Self::In) -> Self::Out;
    /// Operations of this call that failed. Runs outside the timed region.
    fn check(&self, stack: &mut Stack, input: &Self::In, out: Self::Out) -> u64;
}

struct Traffic {
    seed: u64,
    gen: TrafficGen,
}

impl Traffic {
    fn new(seed: u64) -> Self {
        Self {
            seed,
            gen: traffic(seed, None),
        }
    }

    fn request(&self, event: usize) -> ScoreRequest {
        request_at(&self.gen, self.seed, event as u64)
    }
}

/// Whether a response is anything but the clean, bit-exact verdict.
fn score_failed(
    want_bits: u32,
    req: &ScoreRequest,
    out: &Result<ScoreResponse, ServeError>,
) -> u64 {
    match out {
        Ok(resp)
            if !resp.degraded
                && resp.tx_id == req.tx_id
                && resp.probability.to_bits() == want_bits =>
        {
            0
        }
        _ => 1,
    }
}

/// `ModelServer::score`, one request per call.
struct Score {
    traffic: Traffic,
    /// `serve_hot` cycles the first `HOT_LIST` requests, so what each must
    /// return is worked out once, not once per lap.
    hot: Option<(Vec<ScoreRequest>, Vec<u32>)>,
}

impl Score {
    fn cold(seed: u64) -> Self {
        Self {
            traffic: Traffic::new(seed),
            hot: None,
        }
    }

    fn hot(seed: u64, stack: &Stack) -> Self {
        let traffic = Traffic::new(seed);
        let list: Vec<ScoreRequest> = (0..HOT_LIST).map(|i| traffic.request(i)).collect();
        let expected = list.iter().map(|r| stack.expected(r).to_bits()).collect();
        Self {
            traffic,
            hot: Some((list, expected)),
        }
    }
}

impl Closed for Score {
    type In = ScoreRequest;
    type Out = Result<ScoreResponse, ServeError>;
    const PARENT: &'static str = "server.score";
    const OPS: u64 = 1;

    fn inputs(&self, first_call: usize, n: usize) -> Vec<ScoreRequest> {
        (first_call..first_call + n)
            .map(|i| match &self.hot {
                Some((list, _)) => list[i % HOT_LIST].clone(),
                None => self.traffic.request(i),
            })
            .collect()
    }

    fn call(&self, stack: &Stack, req: &ScoreRequest) -> Self::Out {
        stack.server.score(req)
    }

    fn check(&self, stack: &mut Stack, req: &ScoreRequest, out: Self::Out) -> u64 {
        let want = match &self.hot {
            Some((_, expected)) => expected[req.tx_id as usize],
            None => stack.expected(req).to_bits(),
        };
        score_failed(want, req, &out)
    }
}

/// `ModelServer::score_batch`, 64 consecutive requests per call.
struct ScoreBatch(Traffic);

impl Closed for ScoreBatch {
    type In = Vec<ScoreRequest>;
    type Out = Vec<Result<ScoreResponse, ServeError>>;
    const PARENT: &'static str = "server.score_batch";
    const OPS: u64 = BATCH as u64;

    fn inputs(&self, first_call: usize, n: usize) -> Vec<Self::In> {
        (first_call..first_call + n)
            .map(|call| {
                (call * BATCH..(call + 1) * BATCH)
                    .map(|i| self.0.request(i))
                    .collect()
            })
            .collect()
    }

    fn call(&self, stack: &Stack, batch: &Self::In) -> Self::Out {
        stack.server.score_batch(batch)
    }

    fn check(&self, stack: &mut Stack, batch: &Self::In, out: Self::Out) -> u64 {
        if out.len() != batch.len() {
            return Self::OPS;
        }
        batch
            .iter()
            .zip(&out)
            .map(|(req, resp)| score_failed(stack.expected(req).to_bits(), req, resp))
            .sum()
    }
}

/// One `ingest_update` call: 32 user deltas, users Zipf-hot, written at a
/// version of the call's own, as HBase writes carry their timestamp — so the
/// memtables grow, flush and compact instead of overwriting in place.
struct IngestCall {
    version: u64,
    deltas: Vec<FeatureDelta>,
}

struct Ingest(Traffic);

impl Closed for Ingest {
    type In = IngestCall;
    type Out = Result<IngestReport, ServeError>;
    const PARENT: &'static str = "server.ingest_update";
    const OPS: u64 = DELTAS_PER_CALL as u64;

    fn inputs(&self, first_call: usize, n: usize) -> Vec<IngestCall> {
        (first_call..first_call + n)
            .map(|call| IngestCall {
                version: DELTA_VERSION + call as u64,
                deltas: (call * DELTAS_PER_CALL..(call + 1) * DELTAS_PER_CALL)
                    .map(|i| {
                        let user = self.0.gen.user_at(i as u64);
                        delta_of(self.0.seed, user, 1 + i as u64)
                    })
                    .collect(),
            })
            .collect()
    }

    fn call(&self, stack: &Stack, call: &IngestCall) -> Self::Out {
        stack.server.ingest_update(&call.deltas, call.version)
    }

    fn check(&self, stack: &mut Stack, call: &IngestCall, out: Self::Out) -> u64 {
        // Acknowledged or not, the oracle follows the inputs: the read-back
        // at the end then shows any delta the store lost.
        for delta in &call.deltas {
            stack.oracle.apply(delta);
        }
        let cells: usize = call.deltas.iter().map(FeatureDelta::len).sum();
        match out {
            Ok(report) if report.cells == cells && report.write_retries == 0 => 0,
            _ => Self::OPS,
        }
    }
}

/// Time `inputs` through `c`'s call, back to back: each sample runs from the
/// end of the previous call to the end of its own, so the samples add up to
/// the wall time. With a tracer, each call also leaves a span (recorded
/// between two samples, outside both) under op id `first_op` + its index.
fn timed_calls<C: Closed>(
    c: &C,
    stack: &Stack,
    inputs: &[C::In],
    first_op: usize,
    mut tracer: Option<&mut Tracer>,
) -> (Vec<u32>, Vec<C::Out>, Duration) {
    let mut samples = Vec::with_capacity(inputs.len());
    let mut outputs = Vec::with_capacity(inputs.len());
    let mut wall = Duration::ZERO;
    let mut prev = Instant::now();
    for (i, input) in inputs.iter().enumerate() {
        outputs.push(c.call(stack, input));
        let now = Instant::now();
        samples.push(ns_u32(now - prev));
        wall += now - prev;
        prev = match tracer.as_deref_mut() {
            Some(t) => {
                t.record(first_op + i, C::PARENT, None, prev, now);
                Instant::now()
            }
            None => now,
        };
    }
    (samples, outputs, wall)
}

fn check_all<C: Closed>(
    c: &C,
    w: Workload,
    stack: &mut Stack,
    inputs: &[C::In],
    outputs: Vec<C::Out>,
    samples: &[u32],
    tally: &mut Tally,
) {
    let limit = ns_u32(w.limit());
    for ((input, out), &ns) in inputs.iter().zip(outputs).zip(samples) {
        let failed = c.check(stack, input, out);
        tally.record(C::OPS, failed, ns > limit);
    }
}

struct Measured {
    ops_per_s: f64,
    p50_us: f64,
    p95_us: f64,
    tally: Tally,
}

/// One value for a closed loop's run out of its windows' values: that of
/// the least disturbed window (the lowest latency, the highest rate). The
/// windows of a closed loop are alike, and what shares the machine with the
/// benchmark only ever slows a window down, in bursts that at their worst
/// leave a few quiet hundredths of a second in a run, so the best window
/// says far more steadily than a median or a quartile over the windows what
/// the code costs.
fn least_disturbed(windows: &[f64], higher_is_better: bool) -> f64 {
    let best = if higher_is_better { f64::max } else { f64::min };
    windows.iter().copied().reduce(best).unwrap_or(0.0)
}

/// One latency for `stream_mixed`'s run out of its ticks' values: their
/// first quartile. Its ticks are not alike — a flush is as long as the users
/// its tick touched are many — so the best tick is the luckiest draw of the
/// seed, and spreads twice as wide over seeds as the quartile does.
fn first_quartile(windows: &[f64]) -> f64 {
    let mut sorted = windows.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 0.25).unwrap_or(0.0)
}

/// Each window's own p50 and p95, in µs.
#[derive(Default)]
struct WindowPercentiles {
    p50: Vec<f64>,
    p95: Vec<f64>,
}

impl WindowPercentiles {
    /// Samples in time order; a trailing part of a window is left out.
    fn add(&mut self, samples: &[u32], per_window: usize) {
        for window in samples.chunks_exact(per_window) {
            let mut sorted = window.to_vec();
            self.p50.push(quantile(&mut sorted, 0.50) / 1e3);
            self.p95.push(quantile(&mut sorted, 0.95) / 1e3);
        }
    }
}

/// How long a closed loop runs.
#[derive(Clone, Copy)]
enum Budget {
    /// Rounds until this many seconds of timed wall have been measured.
    Seconds(u64),
    /// This many rounds, however long they take: for a workload whose state
    /// — and with it every cost and size — depends on how far it got.
    Rounds(usize),
}

/// Rounds of `w.round_calls()` calls; inputs are made and outputs checked
/// between rounds, off the clock. Samples run back to back, so a window's
/// samples add up to its wall and give its rate. Each metric is the
/// `least_disturbed` value over windows of `w.window_calls()` calls: a window
/// disturbed by the machine — or holding the region split, a flush or a
/// compaction — moves nothing; `ok_share` still counts its late calls.
fn closed_loop<C: Closed>(c: &C, w: Workload, stack: &mut Stack, budget: Budget) -> Measured {
    let per_round = w.round_calls();
    let per_window = w.window_calls();
    let mut rate = Vec::new();
    let mut percentiles = WindowPercentiles::default();
    let mut tally = Tally::default();
    let mut measured = Duration::ZERO;
    let mut round = 0;
    while match budget {
        Budget::Seconds(s) => measured < Duration::from_secs(s),
        Budget::Rounds(n) => round < n,
    } {
        let inputs = c.inputs(round * per_round, per_round);
        let (samples, outputs, wall) = timed_calls(c, stack, &inputs, 0, None);
        measured += wall;
        check_all(c, w, stack, &inputs, outputs, &samples, &mut tally);
        rate.extend(samples.chunks_exact(per_window).map(|window| {
            let ns: u64 = window.iter().map(|&ns| u64::from(ns)).sum();
            (per_window as u64 * C::OPS) as f64 * 1e9 / ns as f64
        }));
        percentiles.add(&samples, per_window);
        round += 1;
    }
    eprintln!(
        "  {}: {round} rounds x {per_round} calls in {:.2} s; each metric is its best over {} windows of {per_window} samples",
        w.name(),
        measured.as_secs_f64(),
        rate.len()
    );
    Measured {
        ops_per_s: least_disturbed(&rate, true),
        p50_us: least_disturbed(&percentiles.p50, false),
        p95_us: least_disturbed(&percentiles.p95, false),
        tally,
    }
}

/// Every user the workload patched, read back through the codec and
/// compared with the oracle, bit for bit. Returns the users that differ.
fn read_back(stack: &Stack, users: impl Iterator<Item = u64>) -> u64 {
    let users: std::collections::BTreeSet<u64> = users.collect();
    users
        .into_iter()
        .filter(|&user| {
            let stored = stack.codec.get_user(&stack.table, user, u64::MAX);
            !matches!(stored, Ok(Some(row)) if bits_equal(&row, stack.oracle.features(user)))
        })
        .count() as u64
}

fn bits_equal(a: &UserFeatures, b: &UserFeatures) -> bool {
    let same = |x: &[f32], y: &[f32]| {
        x.iter()
            .map(|v| v.to_bits())
            .eq(y.iter().map(|v| v.to_bits()))
    };
    same(&a.payer_side, &b.payer_side)
        && same(&a.receiver_side, &b.receiver_side)
        && same(&a.embedding, &b.embedding)
        && same(&a.velocity, &b.velocity)
}

/// These workloads inject no faults: any retry, hedge, failover, shed or
/// missed deadline is a defect.
fn slo_faults(r: &ResilienceSnapshot, faults: &mut Vec<String>) {
    if *r != ResilienceSnapshot::default() {
        faults.push(format!("resilience counters are not all zero: {r:?}"));
    }
}

fn tally_faults(tally: &Tally, faults: &mut Vec<String>) {
    if tally.failed > 0 {
        faults.push(format!(
            "{} of {} operations errored, were shed or degraded, or mismatched the oracle",
            tally.failed, tally.attempted
        ));
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The untraced run: set up, measure that system for `seconds`, check every
/// output, set up `SETUPS` - 1 more times, report the end-to-end metrics.
pub fn run_untraced(w: Workload, env: &Env) -> Result<Outcome, String> {
    // The first system set up is the one measured: a server's heap as a
    // fresh process lays it out, not as freed systems left it.
    let started = Instant::now();
    let mut stack = setup(w, env, 0)?;
    let mut setups = vec![started.elapsed().as_secs_f64()];
    let mut faults = Vec::new();

    let timed = Budget::Seconds(env.seconds);
    let m = match w {
        ServeCold => closed_loop(&Score::cold(env.seed), w, &mut stack, timed),
        ServeHot => {
            let before = stack.server.row_cache_stats().unwrap_or_default();
            let c = Score::hot(env.seed, &stack);
            let m = closed_loop(&c, w, &mut stack, timed);
            let after = stack.server.row_cache_stats().unwrap_or_default();
            if after.misses != before.misses {
                faults.push(format!(
                    "serve_hot missed the row cache {} times; its hit ratio must be exactly 1",
                    after.misses - before.misses
                ));
            }
            m
        }
        ServeBatch => closed_loop(&ScoreBatch(Traffic::new(env.seed)), w, &mut stack, timed),
        IngestDurable => {
            let c = Ingest(Traffic::new(env.seed));
            // 32 rounds, 8,192 calls, at `run_seconds` = 10: the
            // builder's machine gets through them in about that time.
            let rounds = (env.seconds as usize * 800).div_ceil(w.round_calls());
            let mut m = closed_loop(&c, w, &mut stack, Budget::Rounds(rounds));
            let calls = (m.tally.attempted / Ingest::OPS) as usize;
            let lost = read_back(
                &stack,
                (0..calls * DELTAS_PER_CALL).map(|i| c.0.gen.user_at(i as u64)),
            );
            if lost > 0 {
                faults.push(format!("{lost} patched users read back wrong"));
                m.tally.failed += lost;
                m.tally.missed += lost;
            }
            m
        }
        StreamMixed => {
            let plan = StreamPlan::new(env);
            let run = stream_run(&plan, &stack, stream_warm_up(&plan, &stack), None);
            let tally = stream_check(&plan, &mut stack, &run, &mut faults);
            // Windows of one tick, each holding the aftermath of the flush
            // that closed the tick before; the first tick follows the
            // warm-up's last flush, which no event waited for.
            let per_window = StreamMixed.window_calls();
            let mut percentiles = WindowPercentiles::default();
            percentiles.add(&run.open.latency_ns[per_window..], per_window);
            eprintln!(
                "  stream_mixed: {} events; percentiles are first quartiles over {} ticks of {per_window} samples each; schedule ran {:.1} us late at p99, deepest queue {}",
                plan.timed(),
                percentiles.p50.len(),
                quantile(&mut run.open.late_ns.clone(), 0.99) / 1e3,
                run.open.max_backlog
            );
            Measured {
                ops_per_s: plan.timed() as f64 / run.open.wall.as_secs_f64(),
                p50_us: first_quartile(&percentiles.p50),
                p95_us: first_quartile(&percentiles.p95),
                tally,
            }
        }
    };
    tally_faults(&m.tally, &mut faults);
    slo_faults(&stack.server.resilience(), &mut faults);

    // The other set-ups are made for their time alone. Each system goes
    // before the next comes, so that peak memory is one system's.
    drop(stack);
    for k in 1..SETUPS {
        let started = Instant::now();
        drop(setup(w, env, k)?);
        setups.push(started.elapsed().as_secs_f64());
    }

    let values = [
        median(&setups),
        m.ops_per_s,
        m.p50_us,
        m.p95_us,
        1.0 - m.tally.miss_share(),
        peak_rss_mib()?,
    ];
    Ok(Outcome {
        attempted: m.tally.attempted,
        failed: m.tally.failed,
        faults,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(def, v)| (def.name, v, def.unit))
            .collect(),
    })
}

// ---------------------------------------------------------------- stream

/// Ticks streamed before the schedule starts: the longest velocity window,
/// so that the timed part meets full windows and flushes of settled length
/// instead of spending its first half filling them.
const WARM_TICKS: usize = 64;

/// The pre-generated event list: `WARM_TICKS` of warm-up, then the open-loop
/// schedule, `STREAM_RATE` events a second for the whole run with a flash
/// crowd on block 40 over its middle third.
struct StreamPlan {
    requests: Vec<ScoreRequest>,
    events: Vec<TxnEvent>,
    /// Leading events that belong to the warm-up.
    warm: usize,
}

impl StreamPlan {
    fn new(env: &Env) -> Self {
        let warm = (WARM_TICKS * EVENTS_PER_TICK) as u64;
        let n = STREAM_RATE * env.seconds;
        let gen = traffic(
            env.seed,
            Some(FlashEvent {
                block: 40,
                from_event: warm + n / 3,
                to_event: warm + 2 * n / 3,
                boost: 80.0,
            }),
        );
        let requests: Vec<ScoreRequest> = (0..warm + n)
            .map(|i| request_at(&gen, env.seed, i))
            .collect();
        let events = requests
            .iter()
            .map(|req| TxnEvent {
                tick: req.tx_id / EVENTS_PER_TICK as u64,
                payer: req.transferor,
                payee: req.transferee,
                amount_cents: 100 + mix(env.seed ^ 0x61, req.tx_id, 0) % 9_900,
            })
            .collect();
        Self {
            requests,
            events,
            warm: warm as usize,
        }
    }

    /// Events on the schedule.
    fn timed(&self) -> usize {
        self.events.len() - self.warm
    }
}

/// Whether event `i` is the last of its tick.
fn closes_tick(i: usize) -> bool {
    (i + 1).is_multiple_of(EVENTS_PER_TICK)
}

fn velocity_config() -> VelocityConfig {
    VelocityConfig {
        windows: VELOCITY_WINDOWS.to_vec(),
        ..VelocityConfig::default()
    }
}

/// The warm-up: the plan's leading events observed and their ticks flushed
/// through the server, unscored and off the clock. Returns the aggregator
/// the schedule carries on with, and how many of those flushes failed.
fn stream_warm_up(plan: &StreamPlan, stack: &Stack) -> (VelocityAggregator, usize) {
    let mut agg = VelocityAggregator::new(velocity_config());
    let mut failed = 0;
    for (i, event) in plan.events[..plan.warm].iter().enumerate() {
        agg.observe(event);
        if closes_tick(i) {
            let flush = agg.advance_and_ingest(&stack.server, DELTA_VERSION);
            failed += usize::from(flush.is_err());
        }
    }
    (agg, failed)
}

struct StreamRun {
    open: crate::loadgen::OpenLoopRun,
    /// Of the timed events, in order.
    responses: Vec<Result<ScoreResponse, ServeError>>,
    /// Of the timed ticks, in order.
    flushes: Vec<Result<IngestReport, ServeError>>,
    failed_warm_flushes: usize,
    /// Events the aggregator refused (none, on an in-order stream).
    rejected: u64,
    /// Velocity slots the timed ticks emitted.
    slots_emitted: u64,
}

/// Run the schedule on a warmed-up system: each event is `observe` +
/// `score`, and the event that fills a tick then closes it with
/// `advance_and_ingest`, after its verdict. Spans carry the event's index in
/// the plan.
fn stream_run(
    plan: &StreamPlan,
    stack: &Stack,
    (mut agg, failed_warm_flushes): (VelocityAggregator, usize),
    mut tracer: Option<&mut Tracer>,
) -> StreamRun {
    let n = plan.timed();
    let slots_before = agg.stats().slots_emitted;
    let mut responses = Vec::with_capacity(n);
    let mut flushes = Vec::with_capacity(n / EVENTS_PER_TICK + 1);
    let mut rejected = 0;
    let clock = RealClock::start();
    let open = run_open_loop(n, STREAM_RATE, &clock, |timed| {
        let i = plan.warm + timed;
        let t0 = tracer.as_ref().map(|_| Instant::now());
        if !agg.observe(&plan.events[i]) {
            rejected += 1;
        }
        let t1 = tracer.as_ref().map(|_| Instant::now());
        responses.push(stack.server.score(&plan.requests[i]));
        let verdict = clock.now_ns();
        if let (Some(t), Some(t0), Some(t1)) = (tracer.as_deref_mut(), t0, t1) {
            let t2 = Instant::now();
            t.record(i, "stream.event", None, t0, t2);
            t.record(i, "stream.observe", Some("stream.event"), t0, t1);
            t.record(i, "server.score", Some("stream.event"), t1, t2);
        }
        if closes_tick(i) {
            let t0 = Instant::now();
            flushes.push(agg.advance_and_ingest(&stack.server, DELTA_VERSION));
            if let Some(t) = tracer.as_deref_mut() {
                t.record(i, "stream.flush", None, t0, Instant::now());
            }
        }
        verdict
    });
    StreamRun {
        open,
        responses,
        flushes,
        failed_warm_flushes,
        rejected,
        slots_emitted: agg.stats().slots_emitted - slots_before,
    }
}

/// Replay the event list against a second aggregator that feeds only the
/// oracle, and compare every response bit for bit with what the oracle's
/// state at that event predicts.
fn stream_check(
    plan: &StreamPlan,
    stack: &mut Stack,
    run: &StreamRun,
    faults: &mut Vec<String>,
) -> Tally {
    let limit = ns_u32(StreamMixed.limit());
    let mut mirror = VelocityAggregator::new(velocity_config());
    let mut tally = Tally::default();
    for (i, req) in plan.requests.iter().enumerate() {
        if let Some(timed) = i.checked_sub(plan.warm) {
            let failed = score_failed(stack.expected(req).to_bits(), req, &run.responses[timed]);
            tally.record(1, failed, run.open.latency_ns[timed] > limit);
        }
        mirror.observe(&plan.events[i]);
        if closes_tick(i) {
            for delta in mirror.advance() {
                stack.oracle.apply(&delta);
            }
        }
    }
    if run.rejected > 0 {
        faults.push(format!(
            "the aggregator refused {} in-order events",
            run.rejected
        ));
    }
    let failed_flushes =
        run.failed_warm_flushes + run.flushes.iter().filter(|f| f.is_err()).count();
    if failed_flushes > 0 {
        faults.push(format!("{failed_flushes} stream flushes failed"));
    }
    tally
}

// ---------------------------------------------------------------- traced

/// Per-layer metrics of one traced run: every `PER_LAYER` name, 0 until the
/// workload measures it.
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn new() -> Self {
        Self(PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect())
    }

    fn set(&mut self, name: &str, value: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a PER_LAYER metric")) = value;
    }

    fn get(&self, name: &str) -> f64 {
        self.0[name]
    }

    fn into_metrics(self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, self.0[name], unit))
            .collect()
    }
}

fn p50(mut values: Vec<u64>) -> f64 {
    quantile(&mut values, 0.50)
}

/// Run `f` with this thread's allocations counted.
fn counted<T>(f: impl FnOnce() -> T) -> (T, AllocCounts) {
    let before = alloc::counts();
    alloc::set_counting(true);
    let out = f();
    alloc::set_counting(false);
    (out, alloc::counts().since(before))
}

/// The passes of a traced run take turns, `Workload::trace_chunk` calls of
/// the op list at a time.
fn chunks(n: usize, chunk: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    (0..n).step_by(chunk).map(move |lo| lo..(lo + chunk).min(n))
}

/// The parent passes of a traced closed-loop run: the timed call with
/// tracing off, whose median is the base of `trace.overhead`, and with
/// spans and allocation counting on.
struct ParentTrace {
    base: Vec<u32>,
    samples: Vec<u32>,
    tally: Tally,
    allocs: AllocCounts,
    row_gets: u64,
    stages_before: LatencySnapshot,
    cache_before: Option<RowCacheStats>,
}

impl ParentTrace {
    /// `stack` is the system the traced pass will run on.
    fn start(stack: &Stack) -> Self {
        Self {
            base: Vec::new(),
            samples: Vec::new(),
            tally: Tally::default(),
            allocs: AllocCounts::default(),
            row_gets: 0,
            stages_before: stack.server.latency().snapshot(),
            cache_before: stack.server.row_cache_stats(),
        }
    }

    fn untraced<C: Closed>(&mut self, c: &C, stack: &Stack, inputs: &[C::In]) {
        let (samples, outputs, _) = timed_calls(c, stack, inputs, 0, None);
        black_box(outputs);
        self.base.extend(samples);
    }

    fn traced<C: Closed>(
        &mut self,
        c: &C,
        w: Workload,
        stack: &mut Stack,
        inputs: &[C::In],
        first_op: usize,
        tracer: &mut Tracer,
    ) {
        let reads_before = stack.table.op_counts();
        let ((samples, outputs, _), allocs) =
            counted(|| timed_calls(c, stack, inputs, first_op, Some(tracer)));
        self.row_gets += stack.table.op_counts().since(&reads_before).row_gets;
        self.allocs += allocs;
        check_all(c, w, stack, inputs, outputs, &samples, &mut self.tally);
        self.samples.extend(samples);
    }

    /// The metrics read from the parent passes and from the server's own
    /// counters around them. Where the untraced pass shares the traced
    /// pass's system, its calls are in the stage split and the cache ratios
    /// too; they are the same calls.
    fn finish(mut self, stack: &Stack, m: &mut Layers, faults: &mut Vec<String>) -> Tally {
        let ops = self.tally.attempted as f64;
        tally_faults(&self.tally, faults);
        m.set("alihbase.row_gets_per_txn", self.row_gets as f64 / ops);
        m.set("server.allocs_per_txn", self.allocs.allocs as f64 / ops);
        m.set("server.alloc_bytes_per_txn", self.allocs.bytes as f64 / ops);
        let stages = stack.server.latency().snapshot().since(&self.stages_before);
        for (name, stage) in [
            ("server.stage_fetch_p50_us", Stage::Fetch),
            ("server.stage_assemble_p50_us", Stage::Assemble),
            ("server.stage_predict_p50_us", Stage::Predict),
        ] {
            let p50 = stages.stage(stage).quantile(0.5).unwrap_or_default();
            m.set(name, p50.as_secs_f64() * 1e6);
        }
        if let (Some(before), Some(after)) = (self.cache_before, stack.server.row_cache_stats()) {
            cache_ratios(before, after, m);
        }
        m.set(
            "trace.overhead",
            quantile(&mut self.samples, 0.50) / quantile(&mut self.base, 0.50) - 1.0,
        );
        tail_and_slo(&mut self.samples, &self.tally, stack, m, faults);
        self.tally
    }
}

/// Hit ratio over the lookups between two readings of the row cache's
/// counters, and evictions per transaction (two lookups).
fn cache_ratios(before: RowCacheStats, after: RowCacheStats, m: &mut Layers) {
    let hits = after.hits - before.hits;
    let lookups = hits + (after.misses - before.misses);
    if lookups > 0 {
        m.set("row_cache.hit_ratio", hits as f64 / lookups as f64);
        m.set(
            "row_cache.evictions_per_txn",
            (after.evicted - before.evicted) as f64 / (lookups as f64 / 2.0),
        );
    }
}

/// `tail.*`, `miss_share` and `slo.*` from a traced parent pass.
fn tail_and_slo(
    samples: &mut [u32],
    tally: &Tally,
    stack: &Stack,
    m: &mut Layers,
    faults: &mut Vec<String>,
) {
    m.set("tail.p99_us", quantile(samples, 0.99) / 1e3);
    m.set("tail.p999_us", quantile(samples, 0.999) / 1e3);
    m.set("tail.max_us", quantile(samples, 1.0) / 1e3);
    m.set("miss_share", tally.miss_share());
    let r = stack.server.resilience();
    slo_faults(&r, faults);
    m.set("slo.retries", (r.retried + r.write_retried) as f64);
    m.set("slo.hedges", r.hedged as f64);
    m.set("slo.failovers", r.failovers as f64);
    m.set("slo.shed", r.shed as f64);
    m.set(
        "slo.deadline_exceeded",
        (r.deadline_exceeded + r.write_retries_exhausted) as f64,
    );
}

/// `trace.coverage`: the share of the parent call's median that the medians
/// of its child layers' self times account for. Outside [0.90, 1.10] the
/// layered replay does not describe the parent, and the run fails.
fn coverage(
    parent: &str,
    layers: &[&str],
    required: bool,
    tracer: &Tracer,
    m: &mut Layers,
    faults: &mut Vec<String>,
) {
    let covered: f64 = layers.iter().map(|l| p50(tracer.self_times(l))).sum();
    let share = covered / p50(tracer.durations(parent));
    m.set("trace.coverage", share);
    if required && !(0.90..=1.10).contains(&share) {
        faults.push(format!(
            "trace.coverage {share:.3} is outside [0.90, 1.10]: the layers do not add up to {parent}"
        ));
    }
}

/// What the read-side replay passes add up: row reads, the cells they
/// returned, the store's run counters, and allocations with and without the
/// decode.
#[derive(Default)]
struct ReadReplay {
    reads: u64,
    cells: u64,
    runs_scanned: u64,
    runs_skipped: u64,
    bloom_fp: u64,
    read_allocs: AllocCounts,
    decode_allocs: AllocCounts,
}

impl ReadReplay {
    /// A store-read pass over one chunk: `f` makes the reads and returns
    /// how many rows it read and how many cells came back.
    fn store_pass(&mut self, stack: &Stack, f: impl FnOnce() -> (u64, u64)) {
        let before = stack.table.op_counts();
        let ((reads, cells), allocs) = counted(f);
        let d = stack.table.op_counts().since(&before);
        self.reads += reads;
        self.cells += cells;
        self.runs_scanned += d.runs_scanned;
        self.runs_skipped += d.runs_skipped;
        self.bloom_fp += d.bloom_false_positives;
        self.read_allocs += allocs;
    }

    /// A codec pass over the same chunk: the same reads plus the decode.
    fn codec_pass(&mut self, f: impl FnOnce()) {
        self.decode_allocs += counted(f).1;
    }

    fn metrics(&self, m: &mut Layers) {
        let reads = self.reads.max(1) as f64;
        m.set(
            "alihbase.runs_scanned_per_read",
            self.runs_scanned as f64 / reads,
        );
        m.set(
            "alihbase.runs_skipped_per_read",
            self.runs_skipped as f64 / reads,
        );
        m.set("alihbase.bloom_fp_per_read", self.bloom_fp as f64 / reads);
        m.set(
            "alihbase.allocs_per_read",
            self.read_allocs.allocs as f64 / reads,
        );
        m.set(
            "alihbase.alloc_bytes_per_read",
            self.read_allocs.bytes as f64 / reads,
        );
        m.set("feature_codec.cells_per_row", self.cells as f64 / reads);
        m.set(
            "feature_codec.allocs_per_decode",
            (self.decode_allocs.allocs as f64 - self.read_allocs.allocs as f64) / reads,
        );
    }
}

fn trace_serve(
    w: Workload,
    env: &Env,
    tracer: &mut Tracer,
    faults: &mut Vec<String>,
) -> Result<(Tally, Layers), String> {
    let mut stack = setup(w, env, 0)?;
    let c = match w {
        ServeHot => Score::hot(env.seed, &stack),
        _ => Score::cold(env.seed),
    };
    let inputs = c.inputs(0, w.trace_calls(env.seconds));
    let mut parent = ParentTrace::start(&stack);
    let mut reads = ReadReplay::default();
    for range in chunks(inputs.len(), w.trace_chunk()) {
        let first = range.start;
        let part = &inputs[range];
        parent.untraced(&c, &stack, part);
        parent.traced(&c, w, &mut stack, part, first, tracer);

        // `serve_hot` never reaches the store: its only layer is the model.
        if w == ServeCold {
            // `get_row` for both parties, on keys made outside the span.
            let keys: Vec<[RowKey; 2]> = part
                .iter()
                .map(|r| [r.transferor, r.transferee].map(FeatureCodec::row_key))
                .collect();
            reads.store_pass(&stack, || {
                let mut cells = 0;
                for (i, pair) in keys.iter().enumerate() {
                    let t0 = Instant::now();
                    let rows = pair.each_ref().map(|k| stack.table.get_row(k, u64::MAX));
                    cells += rows[0].len() + rows[1].len();
                    // The caller frees what the read allocated: part of its cost.
                    drop(rows);
                    let t1 = Instant::now();
                    tracer.record(
                        first + i,
                        "alihbase.get_row",
                        Some("feature_codec.get_user"),
                        t0,
                        t1,
                    );
                }
                (2 * keys.len() as u64, cells as u64)
            });
            // `get_user` for both parties: the same reads plus the decode.
            reads.codec_pass(|| {
                for (i, req) in part.iter().enumerate() {
                    let t0 = Instant::now();
                    for user in [req.transferor, req.transferee] {
                        black_box(stack.codec.get_user(&stack.table, user, u64::MAX)).ok();
                    }
                    tracer.record(
                        first + i,
                        "feature_codec.get_user",
                        Some(Score::PARENT),
                        t0,
                        Instant::now(),
                    );
                }
            });
        }

        // `predict_proba` on the rows the oracle assembles for the requests.
        let rows: Vec<Vec<f32>> = part.iter().map(|r| stack.oracle.assemble(r)).collect();
        for (i, row) in rows.iter().enumerate() {
            let t0 = Instant::now();
            black_box(stack.model.model.predict_proba(black_box(row)));
            tracer.record(
                first + i,
                "models.predict_proba",
                Some(Score::PARENT),
                t0,
                Instant::now(),
            );
        }
    }

    let mut m = Layers::new();
    let tally = parent.finish(&stack, &mut m, faults);
    if w == ServeHot && m.get("row_cache.hit_ratio") != 1.0 {
        faults.push("serve_hot's row-cache hit ratio is not exactly 1".into());
    }
    let mut layers = vec!["models.predict_proba"];
    if w == ServeCold {
        reads.metrics(&mut m);
        m.set(
            "alihbase.get_row_p50_us",
            p50(tracer.durations("alihbase.get_row")) / 1e3,
        );
        m.set(
            "feature_codec.decode_p50_us",
            p50(tracer.self_times("feature_codec.get_user")) / 1e3,
        );
        layers.extend(["alihbase.get_row", "feature_codec.get_user"]);
    }
    m.set(
        "models.predict_p50_ns",
        p50(tracer.durations("models.predict_proba")),
    );
    m.set(
        "server.residual_p50_us",
        p50(tracer.self_times(Score::PARENT)) / 1e3,
    );
    coverage(
        Score::PARENT,
        &layers,
        w == ServeCold,
        tracer,
        &mut m,
        faults,
    );
    Ok((tally, m))
}

fn trace_batch(
    env: &Env,
    tracer: &mut Tracer,
    faults: &mut Vec<String>,
) -> Result<(Tally, Layers), String> {
    let w = ServeBatch;
    let mut stack = setup(w, env, 0)?;
    let c = ScoreBatch(Traffic::new(env.seed));
    let inputs = c.inputs(0, w.trace_calls(env.seconds));
    let mut parent = ParentTrace::start(&stack);
    let mut reads = ReadReplay::default();
    for range in chunks(inputs.len(), w.trace_chunk()) {
        let first = range.start;
        let part = &inputs[range];
        parent.untraced(&c, &stack, part);
        parent.traced(&c, w, &mut stack, part, first, tracer);

        // `get_rows` on each batch's distinct users in key order, as
        // `score_batch` asks for them; keys made outside the span.
        let users: Vec<Vec<u64>> = part
            .iter()
            .map(|batch| {
                let set: std::collections::BTreeSet<u64> = batch
                    .iter()
                    .flat_map(|r| [r.transferor, r.transferee])
                    .collect();
                set.into_iter().collect()
            })
            .collect();
        let keys: Vec<Vec<RowKey>> = users
            .iter()
            .map(|u| u.iter().map(|&u| FeatureCodec::row_key(u)).collect())
            .collect();
        reads.store_pass(&stack, || {
            let (mut rows_read, mut cells) = (0, 0);
            for (i, batch) in keys.iter().enumerate() {
                let t0 = Instant::now();
                let rows = stack.table.get_rows(batch, u64::MAX);
                cells += rows.iter().map(Vec::len).sum::<usize>();
                drop(rows);
                let t1 = Instant::now();
                rows_read += batch.len();
                tracer.record(
                    first + i,
                    "alihbase.get_rows",
                    Some("feature_codec.get_users"),
                    t0,
                    t1,
                );
            }
            (rows_read as u64, cells as u64)
        });
        reads.codec_pass(|| {
            for (i, batch) in users.iter().enumerate() {
                let t0 = Instant::now();
                black_box(stack.codec.get_users(&stack.table, batch, u64::MAX));
                tracer.record(
                    first + i,
                    "feature_codec.get_users",
                    Some(ScoreBatch::PARENT),
                    t0,
                    Instant::now(),
                );
            }
        });

        // `predict_batch` on a 64-row dataset of the oracle's assembled rows.
        let datasets: Vec<Dataset> = part
            .iter()
            .map(|batch| {
                let mut d = Dataset::new(WIDTH);
                for req in batch {
                    d.push_row(&stack.oracle.assemble(req), 0.0);
                }
                d
            })
            .collect();
        for (i, d) in datasets.iter().enumerate() {
            let t0 = Instant::now();
            black_box(stack.model.model.predict_batch(black_box(d)));
            tracer.record(
                first + i,
                "models.predict_batch",
                Some(ScoreBatch::PARENT),
                t0,
                Instant::now(),
            );
        }
    }

    let mut m = Layers::new();
    let tally = parent.finish(&stack, &mut m, faults);
    reads.metrics(&mut m);
    let rows_read = reads.reads as f64;
    let total = |spans: Vec<u64>| spans.iter().sum::<u64>() as f64;
    m.set(
        "alihbase.get_rows_us_per_row",
        total(tracer.durations("alihbase.get_rows")) / rows_read / 1e3,
    );
    m.set(
        "feature_codec.decode_p50_us",
        total(tracer.self_times("feature_codec.get_users")) / rows_read / 1e3,
    );
    let per_txn = BATCH as f64;
    m.set(
        "models.predict_batch_ns_per_row",
        p50(tracer.durations("models.predict_batch")) / per_txn,
    );
    m.set(
        "server.batch_residual_us_per_txn",
        p50(tracer.self_times(ScoreBatch::PARENT)) / per_txn / 1e3,
    );
    coverage(
        ScoreBatch::PARENT,
        &[
            "alihbase.get_rows",
            "feature_codec.get_users",
            "models.predict_batch",
        ],
        true,
        tracer,
        &mut m,
        faults,
    );
    Ok((tally, m))
}

/// The spans `WriteReplay::batch` leaves for each batch.
const WRITE_LAYERS: [&str; 4] = [
    "feature_codec.encode_delta",
    "alihbase.put_rows",
    "alihbase.tick",
    "feature_codec.release",
];

/// The write-side replay: batches of deltas through the write path layer
/// by layer, and what that adds up to.
struct WriteReplay<'a> {
    stack: &'a Stack,
    cells: u64,
    encode_ns: u64,
    compactions: u64,
    runs_merged: u64,
    region_splits: u64,
    wall: Duration,
    stalled: Duration,
    /// The table's write counters do not survive a region split (the
    /// retired stores' history is dropped with them, so a difference taken
    /// across a split can even be negative). They are therefore read over
    /// the batches after the last split: the counters then, and the
    /// batches, user deltas and cells since.
    window: (WriteStatsSnapshot, u64, u64, u64),
}

impl<'a> WriteReplay<'a> {
    fn start(stack: &'a Stack) -> Self {
        Self {
            stack,
            cells: 0,
            encode_ns: 0,
            compactions: 0,
            runs_merged: 0,
            region_splits: 0,
            wall: Duration::ZERO,
            stalled: Duration::ZERO,
            window: (stack.table.write_stats(), 0, 0, 0),
        }
    }

    /// One batch: `encode_delta`, `try_put_rows` (the fault-aware form of
    /// `put_rows`, which borrows the batch), `tick`, and the release of the
    /// encoded batch — exactly what `ingest_update` does with it, so the
    /// table goes through the same states as the parent pass's.
    fn batch(
        &mut self,
        op: usize,
        deltas: &[FeatureDelta],
        version: u64,
        parent: &'static str,
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        let table = &self.stack.table;
        let t0 = Instant::now();
        let mut cells = Vec::with_capacity(deltas.iter().map(FeatureDelta::len).sum());
        for delta in deltas {
            cells.extend(self.stack.codec.encode_delta(delta, version));
        }
        let t1 = Instant::now();
        let n_cells = cells.len() as u64;
        if n_cells > 0 {
            table
                .try_put_rows(&cells, WriteOptions::default())
                .map_err(|e| e.to_string())?;
        }
        let t2 = Instant::now();
        let report = table.tick().map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        drop(cells);
        let t4 = Instant::now();
        tracer.record(op, WRITE_LAYERS[0], Some(parent), t0, t1);
        tracer.record(op, WRITE_LAYERS[1], Some(parent), t1, t2);
        tracer.record(op, WRITE_LAYERS[2], Some(parent), t2, t3);
        tracer.record(op, WRITE_LAYERS[3], Some(parent), t3, t4);

        self.cells += n_cells;
        self.encode_ns += (t1 - t0).as_nanos() as u64;
        self.compactions += report.compactions;
        self.runs_merged += report.runs_merged;
        self.region_splits += report.region_splits;
        self.wall += t4 - t0;
        if t3 - t2 > STALL {
            self.stalled += t3 - t2;
        }
        if report.region_splits > 0 {
            self.window = (table.write_stats(), 0, 0, 0);
        } else {
            self.window.1 += 1;
            self.window.2 += deltas.iter().filter(|d| !d.is_empty()).count() as u64;
            self.window.3 += n_cells;
        }
        Ok(())
    }

    fn metrics(&self, tracer: &Tracer, m: &mut Layers) -> Result<(), String> {
        m.set(
            "feature_codec.encode_ns_per_cell",
            self.encode_ns as f64 / self.cells.max(1) as f64,
        );
        m.set(
            "alihbase.put_rows_us_per_batch",
            p50(tracer.durations("alihbase.put_rows")) / 1e3,
        );
        let mut ticks = tracer.durations("alihbase.tick");
        m.set("alihbase.tick_p50_us", quantile(&mut ticks, 0.50) / 1e3);
        m.set("alihbase.tick_max_ms", quantile(&mut ticks, 1.0) / 1e6);
        m.set(
            "alihbase.stall_share",
            self.stalled.as_secs_f64() / self.wall.as_secs_f64(),
        );
        m.set("alihbase.compactions", self.compactions as f64);
        m.set("alihbase.runs_merged", self.runs_merged as f64);
        m.set("alihbase.region_splits", self.region_splits as f64);

        let (before, batches, deltas, cells) = self.window;
        let d = self.stack.table.write_stats().since(&before);
        let per = |n: u64| n.max(1) as f64;
        m.set(
            "alihbase.wal_bytes_per_delta",
            d.wal_bytes as f64 / per(deltas),
        );
        m.set(
            "alihbase.wal_bytes_per_payload_byte",
            d.wal_bytes as f64 / (4.0 * per(cells)),
        );
        m.set(
            "alihbase.wal_frames_per_batch",
            d.wal_frames as f64 / per(batches),
        );
        m.set("alihbase.wal_syncs", d.wal_syncs as f64);
        m.set(
            "alihbase.locks_per_batch",
            d.lock_acquisitions as f64 / per(batches),
        );
        let scratch = self.stack.scratch.as_ref();
        let scratch = scratch.ok_or("a durable table has a directory")?;
        let live_payload = (N_USERS as usize * CELLS_PER_ROW * 4) as f64;
        m.set(
            "alihbase.dir_bytes_per_payload_byte",
            scratch.size_bytes().map_err(|e| e.to_string())? as f64 / live_payload,
        );
        Ok(())
    }
}

fn trace_ingest(
    env: &Env,
    tracer: &mut Tracer,
    faults: &mut Vec<String>,
) -> Result<(Tally, Layers), String> {
    let w = IngestDurable;
    let c = Ingest(Traffic::new(env.seed));
    let inputs = c.inputs(0, w.trace_calls(env.seconds));

    // Three identical systems, because every pass changes the one it runs
    // on: tracing off, the traced parent, the layers.
    let plain = setup(w, env, 0)?;
    let mut traced = setup(w, env, 1)?;
    let layered = setup(w, env, 2)?;
    let mut parent = ParentTrace::start(&traced);
    let mut replay = WriteReplay::start(&layered);
    for range in chunks(inputs.len(), w.trace_chunk()) {
        let first = range.start;
        let part = &inputs[range];
        parent.untraced(&c, &plain, part);
        parent.traced(&c, w, &mut traced, part, first, tracer);
        for (i, call) in part.iter().enumerate() {
            replay.batch(
                first + i,
                &call.deltas,
                call.version,
                Ingest::PARENT,
                tracer,
            )?;
        }
    }

    let mut m = Layers::new();
    let tally = parent.finish(&traced, &mut m, faults);
    let patched = inputs.iter().flat_map(|c| &c.deltas).map(|d| d.user);
    let lost = read_back(&traced, patched);
    if lost > 0 {
        faults.push(format!("{lost} patched users read back wrong"));
    }
    replay.metrics(tracer, &mut m)?;
    coverage(Ingest::PARENT, &WRITE_LAYERS, true, tracer, &mut m, faults);
    Ok((tally, m))
}

fn trace_stream(
    env: &Env,
    tracer: &mut Tracer,
    faults: &mut Vec<String>,
) -> Result<(Tally, Layers), String> {
    let w = StreamMixed;
    let plan = StreamPlan::new(env);
    let n = plan.timed() as f64;
    let mut m = Layers::new();

    // Three systems, one after another: an open-loop schedule cannot take
    // turns with anything.
    let plain = setup(w, env, 0)?;
    let warmed = stream_warm_up(&plan, &plain);
    let mut base = stream_run(&plan, &plain, warmed, None).open.latency_ns;
    drop(plain);

    let mut stack = setup(w, env, 1)?;
    let warmed = stream_warm_up(&plan, &stack);
    let cache_before = stack.server.row_cache_stats().unwrap_or_default();
    let reads_before = stack.table.op_counts();
    let (run, allocs) = counted(|| stream_run(&plan, &stack, warmed, Some(&mut *tracer)));
    let tally = stream_check(&plan, &mut stack, &run, faults);
    tally_faults(&tally, faults);

    let mut latency = run.open.latency_ns.clone();
    m.set(
        "trace.overhead",
        quantile(&mut latency, 0.50) / quantile(&mut base, 0.50) - 1.0,
    );
    tail_and_slo(&mut latency, &tally, &stack, &mut m, faults);
    m.set(
        "loadgen.late_p99_us",
        quantile(&mut run.open.late_ns.clone(), 0.99) / 1e3,
    );
    m.set("loadgen.max_backlog", run.open.max_backlog as f64);
    m.set("server.allocs_per_txn", allocs.allocs as f64 / n);
    m.set("server.alloc_bytes_per_txn", allocs.bytes as f64 / n);
    m.set(
        "stream.observe_p50_ns",
        p50(tracer.durations("stream.observe")),
    );
    let mut flush_ns = tracer.durations("stream.flush");
    m.set("stream.flush_p50_ms", quantile(&mut flush_ns, 0.50) / 1e6);
    m.set("stream.flush_max_ms", quantile(&mut flush_ns, 1.0) / 1e6);

    let reports: Vec<&IngestReport> = run.flushes.iter().flatten().collect();
    let ticks = reports.len().max(1) as f64;
    let patched: usize = reports.iter().map(|r| r.users).sum();
    m.set("stream.users_patched_per_tick", patched as f64 / ticks);
    m.set(
        "stream.slots_emitted_per_tick",
        run.slots_emitted as f64 / ticks,
    );
    let cache = stack.server.row_cache_stats().unwrap_or_default();
    cache_ratios(cache_before, cache, &mut m);
    m.set(
        "row_cache.invalidations_per_delta",
        (cache.invalidations - cache_before.invalidations) as f64 / patched.max(1) as f64,
    );
    // The reads the cache did not absorb.
    let row_gets = stack.table.op_counts().since(&reads_before).row_gets;
    m.set("alihbase.row_gets_per_txn", row_gets as f64 / n);
    drop(stack);

    // The layers, closed loop: the same events through `observe` and
    // `score`, and each tick through `advance`, then the write path layer by
    // layer. (Writes that bypass the server leave its row cache stale; this
    // pass checks no scores.)
    let stack = setup(w, env, 2)?;
    let (mut agg, _) = stream_warm_up(&plan, &stack);
    let mut replay = WriteReplay::start(&stack);
    for (i, event) in plan.events.iter().enumerate().skip(plan.warm) {
        agg.observe(event);
        black_box(stack.server.score(&plan.requests[i])).ok();
        if closes_tick(i) {
            let t0 = Instant::now();
            let deltas = agg.advance();
            tracer.record(
                i,
                "stream.advance",
                Some("stream.flush"),
                t0,
                Instant::now(),
            );
            replay.batch(i, &deltas, DELTA_VERSION, "stream.flush", tracer)?;
        }
    }
    replay.metrics(tracer, &mut m)?;
    m.set(
        "stream.advance_p50_us",
        p50(tracer.durations("stream.advance")) / 1e3,
    );
    coverage(
        "stream.flush",
        &[&["stream.advance"], &WRITE_LAYERS[..]].concat(),
        false,
        tracer,
        &mut m,
        faults,
    );
    Ok((tally, m))
}

/// The traced run: the layered replay with the counting allocator on,
/// spans written to `out/trace-<workload>.jsonl`, per-layer metrics
/// reported.
pub fn run_traced(w: Workload, env: &Env) -> Result<Outcome, String> {
    let mut tracer = Tracer::with_capacity(8 * w.trace_calls(env.seconds));
    let mut faults = Vec::new();
    let (tally, layers) = match w {
        ServeCold | ServeHot => trace_serve(w, env, &mut tracer, &mut faults)?,
        ServeBatch => trace_batch(env, &mut tracer, &mut faults)?,
        IngestDurable => trace_ingest(env, &mut tracer, &mut faults)?,
        StreamMixed => trace_stream(env, &mut tracer, &mut faults)?,
    };
    let path = env.out.join(format!("trace-{}.jsonl", w.name()));
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path).map_err(io)?);
    tracer.write_jsonl(&mut file).map_err(io)?;
    std::io::Write::flush(&mut file).map_err(io)?;
    eprintln!(
        "  {}: {} spans in {}",
        w.name(),
        tracer.spans().len(),
        path.display()
    );
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        faults,
        metrics: layers.into_metrics(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_reports_its_least_disturbed_window() {
        // Three whole windows of four samples and a trailing part, which is
        // left out; the second window was disturbed.
        let samples = [
            1_000, 2_000, 3_000, 4_000, 9_000, 9_000, 9_000, 50_000, 2_000, 1_000, 4_000, 3_000, 1,
        ];
        let mut windows = WindowPercentiles::default();
        windows.add(&samples, 4);
        assert_eq!(windows.p50, [2.0, 9.0, 2.0]);
        assert_eq!(windows.p95, [4.0, 50.0, 4.0]);
        assert_eq!(least_disturbed(&windows.p95, false), 4.0);
        assert_eq!(least_disturbed(&[10.0, 30.0, 20.0], true), 30.0);
        assert_eq!(least_disturbed(&[], false), 0.0);
        assert_eq!(first_quartile(&[4.0, 1.0, 3.0, 2.0, 5.0]), 2.0);
    }

    #[test]
    fn rounds_hold_whole_windows() {
        for w in Workload::ALL {
            if w.round_calls() > 0 {
                assert_eq!(w.round_calls() % w.window_calls(), 0, "{}", w.name());
            }
        }
    }
}
