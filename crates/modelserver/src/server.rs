//! The Model Server: feature fetch + scoring + hot model swap + load
//! handling.
//!
//! The serving path is panic-free by construction: malformed requests are
//! rejected with a typed [`ServeError`], feature-store trouble degrades to
//! context-only scoring (counted, never fatal), and pool workers survive
//! poisoned requests and report them through an error callback.

use crate::error::ServeError;
use crate::feature_codec::{FeatureCodec, FeatureDelta, UserFeatures};
use crate::latency::{LatencyRecorder, Stage};
use crate::model_file::ModelFile;
use crate::row_cache::{RowCache, RowCacheConfig, RowCacheStats};
use crate::slo::{Deadline, LiveResilience, ReqRng, ResilienceSnapshot, SloConfig};
use crossbeam::channel::{bounded, SendError, Sender, TrySendError};
use parking_lot::RwLock;
use std::collections::BTreeSet;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use titant_alihbase::{
    Counter, FaultKind, ReadOptions, RegionedTable, ReopenReport, Version, WriteFaultKind,
    WriteOptions, WriteStatsSnapshot,
};
use titant_models::{Classifier, Dataset};

/// A scoring request: the two transfer parties plus the per-transaction
/// context features the Alipay server computes at request time.
#[derive(Debug, Clone)]
pub struct ScoreRequest {
    pub tx_id: u64,
    pub transferor: u64,
    pub transferee: u64,
    pub context: Vec<f32>,
}

/// The MS verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreResponse {
    pub tx_id: u64,
    /// Predicted fraud probability.
    pub probability: f32,
    /// True when the transaction should be interrupted.
    pub alert: bool,
    /// True when user features could not be fetched intact and the score
    /// fell back to context-only input (zero-filled user slots).
    pub degraded: bool,
}

/// Outcome of one [`ModelServer::ingest_update`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Distinct users patched.
    pub users: usize,
    /// Cells written across all deltas.
    pub cells: usize,
    /// Cached decoded rows dropped by the per-user invalidation.
    pub invalidated_rows: usize,
    /// Simulated WAL group-commit wait charged to this batch.
    pub simulated_wait: Duration,
    /// Background compactions performed by the post-ingest tick.
    pub compactions: u64,
    /// Regions split by the post-ingest tick (at most 1 per call; only
    /// under an active [`titant_alihbase::SplitConfig`]).
    pub region_splits: u64,
    /// Cold sibling regions merged by the post-ingest tick.
    pub region_merges: u64,
    /// Write attempts beyond the first this batch needed against injected
    /// write faults (failed appends/fsyncs, power loss) before it was
    /// acknowledged.
    pub write_retries: u64,
}

/// Per-call options for [`ModelServer::ingest_update_opts`].
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestOptions {
    /// Logical time of the write (e.g. the batch sequence number),
    /// forwarded to the table's write-fault hook so fault schedules vary
    /// across a workload and across retry attempts deterministically.
    pub tick: u64,
}

/// The serving feature layout: where user-side and context features land in
/// the model's input vector. Must match the training-time column order.
#[derive(Debug, Clone)]
pub struct FeatureLayout {
    /// Width of the basic block (52 in the paper).
    pub n_basic: usize,
    /// Indices of the payer-side values within the basic block.
    pub payer_slots: Vec<usize>,
    /// Indices of the receiver-side values within the basic block.
    pub receiver_slots: Vec<usize>,
    /// Indices of the context values within the basic block.
    pub context_slots: Vec<usize>,
    /// Embedding dims appended per party (0 = model without embeddings).
    pub embedding_dim: usize,
    /// Streaming velocity slots appended per party after the embeddings
    /// (0 = model without streaming features). Populated by the windowed
    /// aggregator in `titant-stream` via `ingest_update`.
    pub velocity_width: usize,
}

impl FeatureLayout {
    /// Total model input width: the basic block, then per-party embedding
    /// blocks, then per-party velocity blocks.
    pub fn width(&self) -> usize {
        self.n_basic + 2 * self.embedding_dim + 2 * self.velocity_width
    }

    /// The codec that reads and writes this layout's per-user rows — the
    /// one derivation of the four storage widths from a layout.
    pub fn codec(&self) -> FeatureCodec {
        FeatureCodec {
            embedding_dim: self.embedding_dim,
            payer_width: self.payer_slots.len(),
            receiver_width: self.receiver_slots.len(),
            velocity_width: self.velocity_width,
        }
    }

    /// Check slot coverage: payer + receiver + context slots must cover the
    /// basic block exactly and stay inside it.
    fn validate(&self) -> Result<(), ServeError> {
        let covered = self.payer_slots.len() + self.receiver_slots.len() + self.context_slots.len();
        let in_range = self
            .payer_slots
            .iter()
            .chain(&self.receiver_slots)
            .chain(&self.context_slots)
            .all(|&s| s < self.n_basic);
        if covered != self.n_basic || !in_range {
            return Err(ServeError::LayoutSlots {
                covered,
                n_basic: self.n_basic,
            });
        }
        Ok(())
    }
}

/// One fetched party: the row cache's shared decode, or a decode this
/// request owns. Only a cache fill pays for an `Arc`.
enum Party {
    Cached(Arc<UserFeatures>),
    Owned(UserFeatures),
}

impl std::ops::Deref for Party {
    type Target = UserFeatures;

    fn deref(&self) -> &UserFeatures {
        match self {
            Party::Cached(features) => features,
            Party::Owned(features) => features,
        }
    }
}

/// What the fetch stage yields: `[payer, receiver]` and whether either
/// fetch degraded.
type Parties = ([Option<Party>; 2], bool);

/// A model server instance. Cheap to clone (shared internals) — clones act
/// as additional serving replicas over the same store and model.
#[derive(Clone)]
pub struct ModelServer {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for ModelServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelServer")
            .field("model_version", &self.inner.model.read().version)
            .field("width", &self.inner.layout.width())
            .finish_non_exhaustive()
    }
}

struct Inner {
    model: RwLock<Arc<ModelFile>>,
    table: Arc<RegionedTable>,
    codec: FeatureCodec,
    layout: FeatureLayout,
    latency: LatencyRecorder,
    slo: SloConfig,
    resilience: LiveResilience,
    /// Requests served context-only because a party's features could not
    /// be fetched intact.
    degraded: Counter,
    /// Optional decoded-row cache in front of the feature fetch. Off by
    /// default: the chaos-replay guarantees assume every read consults the
    /// store, so the cache is opt-in via [`ModelServer::with_options`].
    cache: Option<RowCache>,
}

impl ModelServer {
    /// Create a server over a feature table with an initial model. Fails
    /// when the model width does not match the layout or the layout's
    /// slots do not cover the basic block.
    pub fn new(
        table: Arc<RegionedTable>,
        layout: FeatureLayout,
        model: ModelFile,
    ) -> Result<Self, ServeError> {
        Self::with_options(table, layout, model, SloConfig::default(), None)
    }

    /// [`Self::new`] with explicit serving SLOs — a per-request deadline
    /// budget, a retry policy for transient storage faults, and an optional
    /// hedge policy (effective only when the table has read replicas) —
    /// plus an optional decoded-row cache in front of the feature fetch.
    /// The cache trades staleness risk for latency, so it is opt-in; it is
    /// cleared on every [`Self::deploy`] and callers that upload a new
    /// feature version must call [`Self::invalidate_row_cache`]. Degraded
    /// (torn/faulted) reads are never cached.
    pub fn with_options(
        table: Arc<RegionedTable>,
        layout: FeatureLayout,
        model: ModelFile,
        slo: SloConfig,
        cache: Option<RowCacheConfig>,
    ) -> Result<Self, ServeError> {
        layout.validate()?;
        if model.n_features != layout.width() {
            return Err(ServeError::ModelWidth {
                expected: layout.width(),
                got: model.n_features,
            });
        }
        let codec = layout.codec();
        Ok(Self {
            inner: Arc::new(Inner {
                model: RwLock::new(Arc::new(model)),
                table,
                codec,
                layout,
                latency: LatencyRecorder::new(),
                slo,
                resilience: LiveResilience::default(),
                degraded: Counter::default(),
                cache: cache.map(RowCache::new),
            }),
        })
    }

    /// Hot-swap the served model ("model files are periodically updated").
    /// In-flight requests keep the old model; new requests see the new one.
    /// A model that does not match the layout is rejected **without
    /// unseating the live model**.
    pub fn deploy(&self, model: ModelFile) -> Result<(), ServeError> {
        if model.n_features != self.inner.layout.width() {
            return Err(ServeError::ModelWidth {
                expected: self.inner.layout.width(),
                got: model.n_features,
            });
        }
        *self.inner.model.write() = Arc::new(model);
        // A new model version may come with a new feature snapshot; drop
        // every cached decode so stale rows cannot outlive the deploy.
        self.invalidate_row_cache();
        Ok(())
    }

    /// Drop every cached decoded row. Must be called after uploading a new
    /// feature version outside [`Self::deploy`]; cached decodes are only
    /// valid for an immutable feature snapshot. No-op without a cache.
    pub fn invalidate_row_cache(&self) {
        if let Some(cache) = &self.inner.cache {
            cache.clear();
        }
    }

    /// Row-cache counters, when a cache is configured.
    pub fn row_cache_stats(&self) -> Option<RowCacheStats> {
        self.inner.cache.as_ref().map(|c| c.stats())
    }

    /// Crash-restart the feature table in place: discard every volatile
    /// structure and rebuild all regions and replicas from their on-disk
    /// dirs via [`RegionedTable::reopen`], then drop the decoded-row cache
    /// — cached decodes must not outlive the stores they were decoded
    /// from. Acknowledged (flushed or WAL-synced) writes survive; scores
    /// served afterwards are identical to the pre-crash acknowledged
    /// state.
    pub fn recover_table(&self) -> Result<ReopenReport, ServeError> {
        let report = self.inner.table.reopen().map_err(|e| ServeError::Ingest {
            message: e.to_string(),
        })?;
        self.invalidate_row_cache();
        Ok(report)
    }

    /// Physical write/durability counters of the underlying feature table
    /// (WAL appends/syncs, injected failures, power-loss recoveries,
    /// orphans swept on open).
    pub fn write_stats(&self) -> WriteStatsSnapshot {
        self.inner.table.write_stats()
    }

    /// Apply a batch of streaming per-user feature deltas at `version`.
    ///
    /// This is the online half of the write path: instead of waiting for
    /// the next full T+1 upload, a correction job patches a handful of
    /// qualifiers per user. The whole call goes through
    /// [`RegionedTable::try_put_rows`] — one lock and one WAL frame
    /// per owning region, all-or-nothing on crash replay — and then drives
    /// one deterministic [`RegionedTable::tick`] so background compaction
    /// and any open group-commit window make progress on the writer's
    /// cadence, not a wall clock.
    ///
    /// Cache coherence is surgical: only the patched users' decoded rows
    /// are invalidated, so the rest of the cache stays hot. Every delta is
    /// validated against the layout before anything is written; a bad index
    /// rejects the whole call with [`ServeError::DeltaSlot`].
    pub fn ingest_update(
        &self,
        deltas: &[FeatureDelta],
        version: Version,
    ) -> Result<IngestReport, ServeError> {
        self.ingest_update_opts(deltas, version, IngestOptions::default())
    }

    /// [`Self::ingest_update`] with explicit [`IngestOptions`] — the entry
    /// point the crash bench uses to thread a logical tick into the
    /// table's write-fault hook.
    ///
    /// The write goes through a bounded retry loop governed by the same
    /// [`crate::slo::RetryPolicy`] and simulated-time deadline budget as
    /// the read path: an injected write fault (failed append, failed
    /// fsync, power loss) charges its simulated wait, backs off with
    /// decorrelated jitter from a seeded RNG, and retries with a bumped
    /// attempt number — rewriting identical cells is idempotent, so a
    /// retry after an ambiguous fsync failure is safe. Exhausting the
    /// retry budget (or the deadline) returns
    /// [`ServeError::IngestRetriesExhausted`]; a real (non-injected) I/O
    /// error is not retried and returns [`ServeError::Ingest`].
    pub fn ingest_update_opts(
        &self,
        deltas: &[FeatureDelta],
        version: Version,
        opts: IngestOptions,
    ) -> Result<IngestReport, ServeError> {
        let inner = &self.inner;
        let codec = &inner.codec;
        for d in deltas {
            let checks = [
                ("payer", &d.payer, codec.payer_width),
                ("receiver", &d.receiver, codec.receiver_width),
                ("embedding", &d.embedding, codec.embedding_dim),
                ("velocity", &d.velocity, codec.velocity_width),
            ];
            for (block, updates, width) in checks {
                if let Some(&(index, _)) = updates.iter().find(|&&(i, _)| i >= width) {
                    return Err(ServeError::DeltaSlot {
                        user: d.user,
                        block,
                        index,
                        width,
                    });
                }
            }
        }
        let store_err = |e: std::io::Error| ServeError::Ingest {
            message: e.to_string(),
        };
        let mut users: BTreeSet<u64> = BTreeSet::new();
        let mut cells = Vec::with_capacity(deltas.iter().map(FeatureDelta::len).sum());
        for d in deltas {
            if d.is_empty() {
                continue;
            }
            users.insert(d.user);
            cells.extend(codec.encode_delta(d, version));
        }
        let n_cells = cells.len();
        let mut report = IngestReport {
            users: users.len(),
            cells: n_cells,
            ..IngestReport::default()
        };
        if n_cells > 0 {
            // Bounded write retry under the serving SLO's simulated-time
            // budget. Jitter is seeded from (slo seed, logical tick) so the
            // same fault plan replays the same retry schedule bit-for-bit.
            let mut deadline = Deadline::new(inner.slo.deadline);
            let mut rng = ReqRng::new(inner.slo.seed ^ opts.tick.rotate_left(17) ^ 0x7772_6974);
            let mut prev = inner.slo.retry.base;
            let mut attempt: u32 = 0;
            let waited = loop {
                let wopts = WriteOptions {
                    tick: opts.tick,
                    attempt,
                };
                // The batch was encoded once above; every attempt borrows it.
                match inner.table.try_put_rows(&cells, wopts) {
                    Ok(waited) => break waited,
                    Err(fault) => {
                        deadline.charge(fault.waited);
                        if fault.kind == WriteFaultKind::Io {
                            return Err(ServeError::Ingest {
                                message: fault.to_string(),
                            });
                        }
                        if attempt >= inner.slo.retry.max_retries || deadline.exceeded() {
                            inner.resilience.write_retries_exhausted.add(1);
                            return Err(ServeError::IngestRetriesExhausted {
                                attempts: attempt + 1,
                                message: fault.to_string(),
                            });
                        }
                        deadline.back_off(&inner.slo.retry, &mut prev, &mut rng);
                        inner.resilience.write_retried.add(1);
                        report.write_retries += 1;
                        attempt += 1;
                    }
                }
            };
            report.simulated_wait = deadline.charged() + waited;
            if let Some(cache) = &inner.cache {
                for &user in &users {
                    report.invalidated_rows += cache.invalidate_user(user);
                }
            }
        }
        let tick = inner.table.tick().map_err(store_err)?;
        report.compactions = tick.compactions;
        report.region_splits = tick.region_splits;
        report.region_merges = tick.region_merges;
        // A layout change physically rewrites the affected regions' stores.
        // Migration preserves contents byte-for-byte, but cached decoded
        // rows must not outlive the stores they were decoded from: drop the
        // whole cache so every post-split read re-observes the new layout.
        if tick.region_splits + tick.region_merges > 0 {
            if let Some(cache) = &inner.cache {
                report.invalidated_rows += cache.len();
                cache.clear();
            }
        }
        Ok(report)
    }

    /// Version of the currently served model.
    pub fn model_version(&self) -> u64 {
        self.inner.model.read().version
    }

    /// The serving-path latency histogram (per-stage: fetch, assemble,
    /// predict, total).
    pub fn latency(&self) -> &LatencyRecorder {
        &self.inner.latency
    }

    /// Requests served in degraded (context-only) mode so far.
    pub fn degraded_count(&self) -> u64 {
        self.inner.degraded.get()
    }

    /// Resilience counters accumulated so far (retries, hedges, failovers,
    /// deadline misses, sheds).
    pub fn resilience(&self) -> ResilienceSnapshot {
        self.inner.resilience.snapshot()
    }

    /// The serving SLO configuration.
    pub fn slo(&self) -> &SloConfig {
        &self.inner.slo
    }

    /// Fetch one party's features through the SLO loop: bounded retry on
    /// transient faults (decorrelated-jitter backoff from the request's
    /// seeded RNG), failover to the next replica on an unavailable one,
    /// one hedged read when the primary exceeds the hedge threshold, and a
    /// simulated-time deadline budget over it all.
    ///
    /// Exhausting retries/replicas degrades to `None` (context-only
    /// scoring, counted); only an exhausted deadline budget fails the
    /// request, as [`ServeError::DeadlineExceeded`] (counted here). Torn
    /// rows/cells degrade too. Every decision is a pure function of the
    /// fault plan and the request's seed — never of wall-clock time.
    fn fetch_party(
        &self,
        tx_id: u64,
        user: u64,
        deadline: &mut Deadline,
        rng: &mut ReqRng,
        degraded: &mut bool,
    ) -> Result<Option<Party>, ServeError> {
        let inner = &self.inner;
        if let Some(cache) = &inner.cache {
            if let Some(cached) = cache.get(user) {
                return Ok(cached.map(Party::Cached));
            }
        }
        let slo = &inner.slo;
        let n_replicas = inner.table.replica_count();
        let deadline_err = |d: &Deadline| {
            inner.resilience.deadline_exceeded.add(1);
            ServeError::DeadlineExceeded {
                tx_id,
                budget: d.budget().unwrap_or_default(),
                charged: d.charged(),
            }
        };
        let mut replica = 0usize;
        let mut attempt = 0u32;
        let mut retries_left = slo.retry.max_retries;
        let mut failovers_left = n_replicas.saturating_sub(1);
        let mut hedges_left = usize::from(slo.hedge.is_some() && n_replicas > 1);
        let mut prev_backoff = slo.retry.base;
        loop {
            if deadline.exceeded() {
                return Err(deadline_err(deadline));
            }
            // Cap the read at the remaining budget and, while a hedge is
            // still available, at the hedge threshold.
            let mut cap = deadline.remaining();
            if hedges_left > 0 {
                if let Some(h) = &slo.hedge {
                    cap = Some(cap.map_or(h.after, |c| c.min(h.after)));
                }
            }
            let opts = ReadOptions {
                replica,
                tick: tx_id,
                attempt,
                max_wait: cap,
            };
            match inner
                .codec
                .get_user_opts(&inner.table, user, u64::MAX, opts)
            {
                Ok((found, waited)) => {
                    deadline.charge(waited);
                    // Only this path caches: the read completed and decoded
                    // cleanly. Torn, faulted, and degraded outcomes below
                    // must be re-observed on every request, never cached.
                    // A fill moves the decode into an `Arc` once; the cache
                    // keeps a pointer clone, so later hits never deep-copy
                    // it. Without a cache the request keeps the decode.
                    let Some(cache) = &inner.cache else {
                        return Ok(found.map(Party::Owned));
                    };
                    let found = found.map(Arc::new);
                    cache.insert(user, found.clone());
                    return Ok(found.map(Party::Cached));
                }
                Err(ServeError::Fetch { fault, .. }) => {
                    deadline.charge(fault.waited);
                    if deadline.exceeded() {
                        return Err(deadline_err(deadline));
                    }
                    match fault.kind {
                        FaultKind::Transient if retries_left > 0 => {
                            retries_left -= 1;
                            attempt += 1;
                            deadline.back_off(&slo.retry, &mut prev_backoff, rng);
                            inner.resilience.retried.add(1);
                        }
                        FaultKind::Unavailable if failovers_left > 0 => {
                            failovers_left -= 1;
                            attempt += 1;
                            replica = (replica + 1) % n_replicas;
                            inner.resilience.failovers.add(1);
                        }
                        FaultKind::TimedOut if hedges_left > 0 => {
                            hedges_left -= 1;
                            attempt += 1;
                            replica = (replica + 1) % n_replicas;
                            inner.resilience.hedged.add(1);
                        }
                        // Out of options for this fault kind: degrade to
                        // context-only scoring. That includes
                        // `NoSuchReplica`, a replica index the region does
                        // not have: a routing bug surfaced as a typed
                        // fault, not a storage fault. Nothing ran, so no
                        // retry, hedge, or failover is recorded — pre-fix
                        // the table silently wrapped onto the primary here
                        // and the SLO layer believed its hedge had landed
                        // on different hardware.
                        _ => {
                            *degraded = true;
                            return Ok(None);
                        }
                    }
                }
                Err(torn) if torn.is_degradable() => {
                    *degraded = true;
                    return Ok(None);
                }
                Err(fatal) => return Err(fatal),
            }
        }
    }

    /// The front half of both scoring entries: reject a context of the
    /// wrong width, then fetch payer and receiver through
    /// [`Self::fetch_party`] under one deadline budget and one jitter RNG
    /// per request. The budget is virtual (charged in simulated time) and
    /// the RNG is seeded by `tx_id`, so a request meets the same faults,
    /// retries and deadline alone, in a batch, or on a replay.
    fn fetch_parties(&self, req: &ScoreRequest) -> Result<Parties, ServeError> {
        let inner = &self.inner;
        let expected = inner.layout.context_slots.len();
        if req.context.len() != expected {
            return Err(ServeError::ContextWidth {
                tx_id: req.tx_id,
                expected,
                got: req.context.len(),
            });
        }
        let mut deadline = Deadline::new(inner.slo.deadline);
        let mut rng = ReqRng::new(inner.slo.seed ^ req.tx_id);
        let mut degraded = false;
        let mut fetch =
            |user| self.fetch_party(req.tx_id, user, &mut deadline, &mut rng, &mut degraded);
        let parties = [fetch(req.transferor)?, fetch(req.transferee)?];
        Ok((parties, degraded))
    }

    /// Score one transaction synchronously: HBase fetch for both parties,
    /// vector assembly, model evaluation. Per-stage latencies land in
    /// [`Self::latency`].
    ///
    /// A request whose context width does not match the layout is rejected;
    /// feature-store trouble (absent users, torn rows) never fails the
    /// request — the affected party's slots serve zeros (the cold-start
    /// input the models trained on) and the response is marked degraded.
    pub fn score(&self, req: &ScoreRequest) -> Result<ScoreResponse, ServeError> {
        let start = Instant::now();
        let model = Arc::clone(&self.inner.model.read());
        let ([payer, recv], degraded) = self.fetch_parties(req)?;
        let fetched = Instant::now();

        let layout = &self.inner.layout;
        let mut features = vec![0f32; layout.width()];
        assemble_features(layout, [&payer, &recv], &req.context, &mut features);
        let assembled = Instant::now();

        let probability = model.model.predict_proba(&features);
        let done = Instant::now();

        self.record_stages(start, fetched, assembled, done);
        Ok(self.respond(req, &model, probability, degraded))
    }

    /// Score a batch of transactions: each request fetches its two parties
    /// exactly as [`Self::score`] does — same deadline, retries, hedging,
    /// failover and row-cache lookups, in input order — and every assembled
    /// row then goes through the model's blocked batch predictor in one
    /// call. Results mirror the input order; each slot (response, error,
    /// `degraded` flag) and every counter equals what per-request `score`
    /// calls would have produced against the same table and fault plan.
    ///
    /// The two entries differ only in the predict kernel; `score` is not a
    /// batch of one because a cache-hit request is ~1 µs and cannot absorb
    /// the `Vec`/`Dataset` a batch allocates (DESIGN.md §9 has the numbers).
    /// One latency sample per call: the stages measure the batch, not a
    /// synthetic per-request split.
    pub fn score_batch(&self, reqs: &[ScoreRequest]) -> Vec<Result<ScoreResponse, ServeError>> {
        if reqs.is_empty() {
            return Vec::new();
        }
        let layout = &self.inner.layout;
        let start = Instant::now();
        let model = Arc::clone(&self.inner.model.read());
        let parties: Vec<_> = reqs.iter().map(|req| self.fetch_parties(req)).collect();
        let fetched = Instant::now();

        // One row per request that fetched, in input order, assembled in
        // place in one `rows × width` buffer.
        let width = layout.width();
        let rows = parties.iter().filter(|outcome| outcome.is_ok()).count();
        let mut values = vec![0f32; rows * width];
        let fetched_rows = reqs.iter().zip(&parties).filter_map(|(req, outcome)| {
            let (parties, _) = outcome.as_ref().ok()?;
            Some((req, parties))
        });
        for (row, (req, [payer, recv])) in values.chunks_exact_mut(width).zip(fetched_rows) {
            assemble_features(layout, [payer, recv], &req.context, row);
        }
        let dataset = Dataset::from_parts(width, values, Vec::new());
        let assembled = Instant::now();

        let probabilities = model.model.predict_batch(&dataset);
        let done = Instant::now();

        self.record_stages(start, fetched, assembled, done);
        let mut row = 0;
        reqs.iter()
            .zip(parties)
            .map(|(req, outcome)| {
                let (_, degraded) = outcome?;
                let probability = probabilities[row];
                row += 1;
                Ok(self.respond(req, &model, probability, degraded))
            })
            .collect()
    }

    /// One sample per stage from the four instants a scoring call takes.
    fn record_stages(&self, start: Instant, fetched: Instant, assembled: Instant, done: Instant) {
        let latency = &self.inner.latency;
        latency.record_stage(Stage::Fetch, fetched - start);
        latency.record_stage(Stage::Assemble, assembled - fetched);
        latency.record_stage(Stage::Predict, done - assembled);
        latency.record_stage(Stage::Total, done - start);
    }

    /// The verdict for one scored request; counts it when it was degraded.
    fn respond(
        &self,
        req: &ScoreRequest,
        model: &ModelFile,
        probability: f32,
        degraded: bool,
    ) -> ScoreResponse {
        if degraded {
            self.inner.degraded.add(1);
        }
        ScoreResponse {
            tx_id: req.tx_id,
            probability,
            alert: probability >= model.alert_threshold,
            degraded,
        }
    }

    /// Spawn `n_threads` serving workers draining a bounded request queue —
    /// "MS are distributed to satisfy low latency and high service load".
    /// Scored responses go to `on_response`; rejected requests (and any
    /// panic a worker caught) go to `on_error`. Workers never die on a
    /// poisoned request; dropping or [`ServePool::shutdown`]-ing the pool
    /// drains the queue and joins them.
    pub fn serve_pool(
        &self,
        n_threads: usize,
        on_response: impl Fn(ScoreResponse) + Send + Sync + 'static,
        on_error: impl Fn(ServeError) + Send + Sync + 'static,
    ) -> ServePool {
        self.serve_pool_sized(n_threads, 4096, on_response, on_error)
    }

    /// [`Self::serve_pool`] with an explicit queue capacity. A small queue
    /// plus [`ServePool::submit`] gives load shedding: requests that find
    /// the queue full are rejected immediately as [`ServeError::Shed`]
    /// instead of queueing past their deadline.
    pub fn serve_pool_sized(
        &self,
        n_threads: usize,
        queue_cap: usize,
        on_response: impl Fn(ScoreResponse) + Send + Sync + 'static,
        on_error: impl Fn(ServeError) + Send + Sync + 'static,
    ) -> ServePool {
        let (tx, rx) = bounded::<ScoreRequest>(queue_cap.max(1));
        let on_response = Arc::new(on_response);
        let on_error: Arc<dyn Fn(ServeError) + Send + Sync> = Arc::new(on_error);
        let live = Arc::new(AtomicUsize::new(0));
        let mut workers = Vec::with_capacity(n_threads.max(1));
        for _ in 0..n_threads.max(1) {
            let server = self.clone();
            let rx = rx.clone();
            let on_response = Arc::clone(&on_response);
            let on_error = Arc::clone(&on_error);
            let live = Arc::clone(&live);
            live.fetch_add(1, Ordering::SeqCst);
            // A long-lived service thread draining the request queue, not
            // chunked work, so not a `Pool` job.
            #[allow(clippy::disallowed_methods)]
            workers.push(std::thread::spawn(move || {
                while let Ok(req) = rx.recv() {
                    let tx_id = req.tx_id;
                    // `score` is panic-free by design; the catch is the
                    // last line of defence so a future regression degrades
                    // to an error report instead of a dead worker.
                    match std::panic::catch_unwind(AssertUnwindSafe(|| server.score(&req))) {
                        Ok(Ok(resp)) => on_response(resp),
                        Ok(Err(e)) => on_error(e),
                        Err(payload) => on_error(ServeError::WorkerPanic {
                            tx_id,
                            message: panic_message(&payload),
                        }),
                    }
                }
                live.fetch_sub(1, Ordering::SeqCst);
            }));
        }
        ServePool {
            tx: Some(tx),
            workers,
            live,
            server: self.clone(),
            on_error,
        }
    }
}

/// Lay both parties' features and the request context into one model input
/// row, `features` (zeroed, `layout.width()` long). Absent parties
/// (brand-new accounts or degraded fetches) leave their slots at zero — the
/// trained models saw the same cold starts. Shared by [`ModelServer::score`]
/// and [`ModelServer::score_batch`] so the two paths cannot drift.
fn assemble_features(
    layout: &FeatureLayout,
    [payer, recv]: [&Option<Party>; 2],
    context: &[f32],
    features: &mut [f32],
) {
    let (payer, recv) = (payer.as_deref(), recv.as_deref());
    if let Some(p) = payer {
        for (slot, v) in layout.payer_slots.iter().zip(&p.payer_side) {
            if let Some(f) = features.get_mut(*slot) {
                *f = *v;
            }
        }
        for (f, v) in features[layout.n_basic..].iter_mut().zip(&p.embedding) {
            *f = *v;
        }
    }
    if let Some(r) = recv {
        for (slot, v) in layout.receiver_slots.iter().zip(&r.receiver_side) {
            if let Some(f) = features.get_mut(*slot) {
                *f = *v;
            }
        }
        let base = layout.n_basic + layout.embedding_dim;
        for (f, v) in features[base..].iter_mut().zip(&r.embedding) {
            *f = *v;
        }
    }
    // Per-party velocity blocks follow the embedding blocks; a party the
    // streaming tier has not touched keeps its zeros, same as a missing
    // embedding.
    let vbase = layout.n_basic + 2 * layout.embedding_dim;
    if let Some(p) = payer {
        for (f, v) in features[vbase..].iter_mut().zip(&p.velocity) {
            *f = *v;
        }
    }
    if let Some(r) = recv {
        let base = vbase + layout.velocity_width;
        for (f, v) in features[base..].iter_mut().zip(&r.velocity) {
            *f = *v;
        }
    }
    for (slot, v) in layout.context_slots.iter().zip(context) {
        if let Some(f) = features.get_mut(*slot) {
            *f = *v;
        }
    }
}

/// Best-effort string form of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic>".to_string()
    }
}

/// Handle to a running serving pool: send requests, then shut down cleanly.
/// Dropping the handle also drains and joins the workers.
pub struct ServePool {
    tx: Option<Sender<ScoreRequest>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    live: Arc<AtomicUsize>,
    server: ModelServer,
    on_error: Arc<dyn Fn(ServeError) + Send + Sync>,
}

impl ServePool {
    /// Enqueue a request (blocks when the queue is full). Fails only after
    /// shutdown has begun.
    pub fn send(&self, req: ScoreRequest) -> Result<(), SendError<ScoreRequest>> {
        match &self.tx {
            Some(tx) => tx.send(req),
            None => Err(SendError(req)),
        }
    }

    /// Non-blocking enqueue with load shedding: a request that finds the
    /// queue full (or the pool shut down) is rejected immediately — counted
    /// as shed and reported through the error callback as
    /// [`ServeError::Shed`] — instead of queueing past its deadline.
    /// Returns `true` when the request was accepted.
    pub fn submit(&self, req: ScoreRequest) -> bool {
        let shed = |req: ScoreRequest, queue_depth: usize| {
            self.server.inner.resilience.shed.add(1);
            (self.on_error)(ServeError::Shed {
                tx_id: req.tx_id,
                queue_depth,
            });
            false
        };
        let Some(tx) = &self.tx else {
            return shed(req, 0);
        };
        match tx.try_send(req) {
            Ok(()) => true,
            Err(TrySendError::Full(req)) => {
                let depth = tx.len();
                shed(req, depth)
            }
            Err(TrySendError::Disconnected(req)) => shed(req, 0),
        }
    }

    /// Workers currently alive. Equals the spawn count unless a worker
    /// died — which the pool is designed to make impossible.
    pub fn live_workers(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }

    /// Stop accepting requests, drain the queue, and join every worker.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.tx = None; // closes the channel once external senders drop
        for w in self.workers.drain(..) {
            // A worker that panicked outside the catch (impossible by
            // design) still must not poison shutdown.
            let _ = w.join();
        }
    }
}

impl Drop for ServePool {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model_file::ServableModel;
    use crate::slo::{HedgePolicy, RetryPolicy};
    use proptest::prelude::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::OnceLock;
    use std::time::Duration;
    use titant_alihbase::{
        FaultAction, FaultHook, FaultPlan, FaultPlanConfig, ReadCtx, StoreConfig, SyncPolicy,
        UnavailableWindow, WriteCtx, WriteFaultAction,
    };
    use titant_models::{Dataset, GbdtConfig};

    /// Layout: 2 payer + 2 receiver + 1 context = 5 basic, embeddings 2/side.
    fn layout() -> FeatureLayout {
        FeatureLayout {
            n_basic: 5,
            payer_slots: vec![0, 1],
            receiver_slots: vec![2, 3],
            context_slots: vec![4],
            embedding_dim: 2,
            velocity_width: 0,
        }
    }

    /// Model: fraud iff context feature (slot 4) > 0.5 — trivially
    /// learnable, exercises the full assembly path.
    fn model() -> ModelFile {
        let mut d = Dataset::new(9);
        let mut state = 3u64;
        let mut rand01 = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f32 / (1u64 << 31) as f32
        };
        for _ in 0..400 {
            let mut row = [0f32; 9];
            for v in row.iter_mut() {
                *v = rand01();
            }
            let label = (row[4] > 0.5) as u8 as f32;
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
            version: 20170410,
            alert_threshold: 0.5,
            n_features: 9,
            model: ServableModel::Gbdt(gbdt),
        }
    }

    fn setup_with_table() -> (ModelServer, Arc<RegionedTable>) {
        let table = Arc::new(RegionedTable::single(StoreConfig::default()).unwrap());
        let ms = ModelServer::new(table.clone(), layout(), model()).unwrap();
        let codec = FeatureCodec {
            embedding_dim: 2,
            payer_width: 2,
            receiver_width: 2,
            velocity_width: 0,
        };
        for user in [1u64, 2] {
            table
                .put_rows(codec.encode_user(
                    user,
                    &UserFeatures {
                        payer_side: vec![0.1, 0.2],
                        receiver_side: vec![0.3, 0.4],
                        embedding: vec![0.5, 0.6],
                        velocity: Vec::new(),
                    },
                    20170410,
                ))
                .unwrap();
        }
        (ms, table)
    }

    fn setup() -> ModelServer {
        setup_with_table().0
    }

    /// Whole requests the server's latency recorder has seen.
    fn requests_recorded(ms: &ModelServer) -> u64 {
        ms.latency().snapshot().stage(Stage::Total).count()
    }

    fn req(tx_id: u64, context: f32) -> ScoreRequest {
        ScoreRequest {
            tx_id,
            transferor: 1,
            transferee: 2,
            context: vec![context],
        }
    }

    /// Write a torn (3-byte) basic cell for a user, poisoning its row.
    fn tear_user(table: &RegionedTable, user: u64) {
        let key = titant_alihbase::CellKey::new(FeatureCodec::row_key(user), "basic", "p0");
        let torn = Some(bytes::Bytes::from_static(b"bad"));
        table.put_rows(vec![(key, 99999999, torn)]).unwrap();
    }

    #[test]
    fn assemble_features_places_velocity_after_the_embeddings() {
        let lay = FeatureLayout {
            velocity_width: 3,
            ..layout()
        };
        let payer = UserFeatures {
            payer_side: vec![0.1, 0.2],
            receiver_side: vec![-1.0, -1.0],
            embedding: vec![0.5, 0.6],
            velocity: vec![7.0, 8.0, 9.0],
        };
        let recv = UserFeatures {
            payer_side: vec![-1.0, -1.0],
            receiver_side: vec![0.3, 0.4],
            embedding: vec![0.7, 0.8],
            velocity: vec![1.0, 2.0, 3.0],
        };
        let assemble = |lay: &FeatureLayout, payer: &Option<Party>, recv: &Option<Party>| {
            let mut features = vec![0f32; lay.width()];
            assemble_features(lay, [payer, recv], &[0.9], &mut features);
            features
        };
        let (payer, recv) = (
            Some(Party::Owned(payer)),
            Some(Party::Cached(Arc::new(recv))),
        );
        let f = assemble(&lay, &payer, &recv);
        assert_eq!(f.len(), 5 + 4 + 6);
        assert_eq!(&f[..5], &[0.1, 0.2, 0.3, 0.4, 0.9][..]);
        assert_eq!(&f[5..9], &[0.5, 0.6, 0.7, 0.8][..], "embedding blocks");
        assert_eq!(&f[9..12], &[7.0, 8.0, 9.0][..], "payer velocity");
        assert_eq!(&f[12..], &[1.0, 2.0, 3.0][..], "receiver velocity");
        // An absent party leaves its velocity block at zero, like a missing
        // embedding — and an all-velocity-free request matches the plain
        // layout's assembly on the shared prefix.
        let g = assemble(&lay, &payer, &None);
        assert_eq!(&g[12..], &[0.0; 3][..]);
        let plain = assemble(&layout(), &payer, &recv);
        assert_eq!(&f[..9], &plain[..]);
    }

    /// Velocity deltas stream through `ingest_update` exactly like basic
    /// and embedding deltas: validated against the layout width, written as
    /// `velocity`-family cells, and served merged over the last upload.
    #[test]
    fn ingest_update_streams_velocity_deltas_end_to_end() {
        let lay = FeatureLayout {
            velocity_width: 2,
            ..layout()
        };
        let table = Arc::new(RegionedTable::single(StoreConfig::default()).unwrap());
        let mut m = model();
        m.n_features = lay.width();
        let ms = ModelServer::new(table.clone(), lay, m).unwrap();
        let codec = FeatureCodec {
            embedding_dim: 2,
            payer_width: 2,
            receiver_width: 2,
            velocity_width: 2,
        };
        table
            .put_rows(codec.encode_user(
                1,
                &UserFeatures {
                    payer_side: vec![0.1, 0.2],
                    receiver_side: vec![0.3, 0.4],
                    embedding: vec![0.5, 0.6],
                    velocity: Vec::new(),
                },
                20170410,
            ))
            .unwrap();
        let report = ms
            .ingest_update(
                &[FeatureDelta {
                    user: 1,
                    velocity: vec![(0, 3.0), (1, 250.0)],
                    ..FeatureDelta::default()
                }],
                20170411,
            )
            .unwrap();
        assert_eq!((report.users, report.cells), (1, 2));
        let got = codec.get_user(&table, 1, u64::MAX).unwrap().unwrap();
        assert_eq!(got.velocity, vec![3.0, 250.0]);
        assert_eq!(got.payer_side, vec![0.1, 0.2], "upload untouched");
        // Out-of-layout velocity indices are rejected before any write.
        let err = ms
            .ingest_update(
                &[FeatureDelta {
                    user: 1,
                    velocity: vec![(2, 1.0)],
                    ..FeatureDelta::default()
                }],
                20170412,
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                ServeError::DeltaSlot {
                    user: 1,
                    block: "velocity",
                    index: 2,
                    width: 2
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn scores_and_alerts_on_suspicious_context() {
        let ms = setup();
        let safe = ms.score(&req(1, 0.1)).unwrap();
        let fraud = ms.score(&req(2, 0.9)).unwrap();
        assert!(!safe.alert, "safe tx got p={}", safe.probability);
        assert!(fraud.alert, "fraud tx got p={}", fraud.probability);
        assert!(fraud.probability > safe.probability);
        assert!(!safe.degraded && !fraud.degraded);
        assert_eq!(requests_recorded(&ms), 2);
        assert_eq!(ms.degraded_count(), 0);
    }

    #[test]
    fn per_stage_latencies_are_recorded() {
        let ms = setup();
        for i in 0..10 {
            ms.score(&req(i, 0.2)).unwrap();
        }
        let latency = ms.latency().snapshot();
        for stage in Stage::ALL {
            assert_eq!(latency.stage(stage).count(), 10, "{stage:?}");
            assert!(latency.stage(stage).quantile(0.99).is_some());
        }
        // Stage sum cannot exceed the total (each is a sub-interval).
        let mean = |stage| latency.stage(stage).mean().unwrap();
        let total = mean(Stage::Total);
        let parts = mean(Stage::Fetch) + mean(Stage::Assemble) + mean(Stage::Predict);
        assert!(parts <= total + std::time::Duration::from_micros(50));
    }

    #[test]
    fn unknown_users_serve_zero_features() {
        let ms = setup();
        let resp = ms
            .score(&ScoreRequest {
                tx_id: 9,
                transferor: 777,
                transferee: 888,
                context: vec![0.9],
            })
            .unwrap();
        // Context still drives the decision; unknown users are the normal
        // cold-start case, not a degradation.
        assert!(resp.alert);
        assert!(!resp.degraded);
        assert_eq!(ms.degraded_count(), 0);
    }

    #[test]
    fn torn_user_row_degrades_to_context_only_scoring() {
        let (ms, table) = setup_with_table();
        tear_user(&table, 1);
        let resp = ms.score(&req(5, 0.9)).unwrap();
        assert!(resp.alert, "context must still drive the verdict");
        assert!(resp.degraded);
        assert_eq!(ms.degraded_count(), 1);
        // The intact receiver row does not mask the payer's torn row.
        let resp = ms.score(&req(6, 0.1)).unwrap();
        assert!(!resp.alert);
        assert!(resp.degraded);
        assert_eq!(ms.degraded_count(), 2);
    }

    #[test]
    fn wrong_context_width_is_rejected_not_panicking() {
        let ms = setup();
        let err = ms
            .score(&ScoreRequest {
                tx_id: 41,
                transferor: 1,
                transferee: 2,
                context: vec![0.9, 0.1, 0.4],
            })
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::ContextWidth {
                tx_id: 41,
                expected: 1,
                got: 3
            }
        );
        // Rejected requests record no latency sample.
        assert_eq!(requests_recorded(&ms), 0);
    }

    #[test]
    fn hot_swap_changes_version_not_availability() {
        let ms = setup();
        assert_eq!(ms.model_version(), 20170410);
        let mut m2 = model();
        m2.version = 20170411;
        ms.deploy(m2).unwrap();
        assert_eq!(ms.model_version(), 20170411);
        // Still serving.
        assert!(ms.score(&req(3, 0.9)).unwrap().alert);
    }

    #[test]
    fn mismatched_model_rejected_at_construction() {
        let table = Arc::new(RegionedTable::single(StoreConfig::default()).unwrap());
        let mut m = model();
        m.n_features = 3;
        let err = ModelServer::new(table, layout(), m).unwrap_err();
        assert_eq!(
            err,
            ServeError::ModelWidth {
                expected: 9,
                got: 3
            }
        );
    }

    #[test]
    fn bad_layout_rejected_at_construction() {
        let table = Arc::new(RegionedTable::single(StoreConfig::default()).unwrap());
        let mut l = layout();
        l.context_slots = vec![7]; // out of the 5-wide basic block
        assert!(matches!(
            ModelServer::new(table, l, model()).unwrap_err(),
            ServeError::LayoutSlots { .. }
        ));
    }

    #[test]
    fn mismatched_deploy_keeps_the_live_model_serving() {
        let ms = setup();
        let mut bad = model();
        bad.n_features = 4;
        bad.version = 99999999;
        let err = ms.deploy(bad).unwrap_err();
        assert!(matches!(err, ServeError::ModelWidth { got: 4, .. }));
        // The live model is untouched and still serving.
        assert_eq!(ms.model_version(), 20170410);
        assert!(ms.score(&req(8, 0.9)).unwrap().alert);
    }

    #[test]
    fn pool_processes_concurrent_load() {
        let ms = setup();
        let hits = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let hits2 = Arc::clone(&hits);
        let pool = ms.serve_pool(4, move |resp| hits2.lock().push(resp.tx_id), |_| {});
        for i in 0..100 {
            pool.send(req(i, if i % 2 == 0 { 0.9 } else { 0.1 }))
                .unwrap();
        }
        pool.shutdown(); // drains the queue and joins the workers
        assert_eq!(hits.lock().len(), 100);
    }

    /// One trained model for every SLO test (training is the slow part).
    fn cached_model() -> ModelFile {
        static MODEL: OnceLock<ModelFile> = OnceLock::new();
        MODEL.get_or_init(model).clone()
    }

    /// A fault hook scripted by a closure over the read coordinates.
    struct Scripted<F>(F);
    impl<F: Fn(&ReadCtx<'_>) -> FaultAction + Send + Sync> FaultHook for Scripted<F> {
        fn on_read(&self, ctx: &ReadCtx<'_>) -> FaultAction {
            (self.0)(ctx)
        }
    }

    /// A server over a `replicas`-way replicated single-region table with
    /// users 1 and 2 uploaded, ready for a fault hook.
    fn setup_slo(replicas: usize, slo: SloConfig) -> (ModelServer, Arc<RegionedTable>) {
        let table = Arc::new(
            RegionedTable::single(StoreConfig {
                replicas,
                ..Default::default()
            })
            .unwrap(),
        );
        let ms =
            ModelServer::with_options(table.clone(), layout(), cached_model(), slo, None).unwrap();
        let codec = FeatureCodec {
            embedding_dim: 2,
            payer_width: 2,
            receiver_width: 2,
            velocity_width: 0,
        };
        for user in [1u64, 2] {
            table
                .put_rows(codec.encode_user(
                    user,
                    &UserFeatures {
                        payer_side: vec![0.1, 0.2],
                        receiver_side: vec![0.3, 0.4],
                        embedding: vec![0.5, 0.6],
                        velocity: Vec::new(),
                    },
                    20170410,
                ))
                .unwrap();
        }
        (ms, table)
    }

    #[test]
    fn deadline_exhaustion_is_typed_and_counted() {
        let (ms, table) = setup_slo(
            1,
            SloConfig {
                deadline: Some(Duration::from_millis(1)),
                ..Default::default()
            },
        );
        table.set_fault_hook(Some(Arc::new(Scripted(|_: &ReadCtx<'_>| {
            FaultAction::Latency(Duration::from_millis(2))
        }))));
        let err = ms.score(&req(1, 0.9)).unwrap_err();
        assert_eq!(
            err,
            ServeError::DeadlineExceeded {
                tx_id: 1,
                budget: Duration::from_millis(1),
                charged: Duration::from_millis(1),
            }
        );
        assert_eq!(ms.resilience().deadline_exceeded, 1);
        // Deadline misses record no latency sample and no degradation.
        assert_eq!(requests_recorded(&ms), 0);
        assert_eq!(ms.degraded_count(), 0);
    }

    #[test]
    fn transient_faults_retry_with_backoff_and_succeed() {
        let (ms, table) = setup_slo(1, SloConfig::default());
        table.set_fault_hook(Some(Arc::new(Scripted(|ctx: &ReadCtx<'_>| {
            if ctx.attempt < 2 {
                FaultAction::Transient
            } else {
                FaultAction::None
            }
        }))));
        let resp = ms.score(&req(1, 0.9)).unwrap();
        assert!(resp.alert && !resp.degraded);
        // Two retries per party, both parties.
        assert_eq!(ms.resilience().retried, 4);
        assert_eq!(ms.degraded_count(), 0);
    }

    #[test]
    fn exhausted_retries_degrade_to_context_only() {
        let (ms, table) = setup_slo(1, SloConfig::default());
        table.set_fault_hook(Some(Arc::new(Scripted(|_: &ReadCtx<'_>| {
            FaultAction::Transient
        }))));
        let resp = ms.score(&req(1, 0.9)).unwrap();
        assert!(resp.alert, "context still drives the verdict");
        assert!(resp.degraded);
        assert_eq!(ms.degraded_count(), 1);
        assert_eq!(ms.resilience().retried, 4, "max_retries per party");
    }

    #[test]
    fn unavailable_primary_fails_over_to_a_replica() {
        let (ms, table) = setup_slo(2, SloConfig::default());
        table.set_fault_hook(Some(Arc::new(Scripted(|ctx: &ReadCtx<'_>| {
            if ctx.replica == 0 {
                FaultAction::Unavailable
            } else {
                FaultAction::None
            }
        }))));
        let resp = ms.score(&req(1, 0.9)).unwrap();
        assert!(resp.alert && !resp.degraded);
        assert_eq!(ms.resilience().failovers, 2, "one failover per party");
        assert_eq!(ms.degraded_count(), 0);
    }

    #[test]
    fn slow_primary_hedges_to_a_replica() {
        let (ms, table) = setup_slo(
            2,
            SloConfig {
                hedge: Some(HedgePolicy {
                    after: Duration::from_micros(200),
                }),
                ..Default::default()
            },
        );
        table.set_fault_hook(Some(Arc::new(Scripted(|ctx: &ReadCtx<'_>| {
            if ctx.replica == 0 {
                FaultAction::Latency(Duration::from_millis(5))
            } else {
                FaultAction::None
            }
        }))));
        let resp = ms.score(&req(1, 0.9)).unwrap();
        assert!(resp.alert && !resp.degraded);
        assert_eq!(ms.resilience().hedged, 2, "one hedge per party");
        // The hedge abandoned the slow primary after the threshold instead
        // of waiting out the full 5 ms injected delay, twice.
        let latency = ms.latency().snapshot();
        let fetch = latency.stage(Stage::Fetch).quantile(1.0).unwrap();
        assert!(fetch < Duration::from_millis(5), "fetch took {fetch:?}");
    }

    #[test]
    fn hedge_without_replicas_waits_out_the_latency() {
        let (ms, table) = setup_slo(
            1,
            SloConfig {
                hedge: Some(HedgePolicy {
                    after: Duration::from_micros(100),
                }),
                ..Default::default()
            },
        );
        table.set_fault_hook(Some(Arc::new(Scripted(|_: &ReadCtx<'_>| {
            FaultAction::Latency(Duration::from_micros(300))
        }))));
        let resp = ms.score(&req(1, 0.9)).unwrap();
        assert!(!resp.degraded);
        assert_eq!(ms.resilience().hedged, 0, "nowhere to hedge to");
    }

    #[test]
    fn pool_submit_sheds_when_the_queue_is_full() {
        let (ms, table) = setup_slo(1, SloConfig::default());
        // Slow every read down so one worker cannot keep up with a burst.
        table.set_fault_hook(Some(Arc::new(Scripted(|_: &ReadCtx<'_>| {
            FaultAction::Latency(Duration::from_millis(20))
        }))));
        let responses = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let errors = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let (r2, e2) = (Arc::clone(&responses), Arc::clone(&errors));
        let pool = ms.serve_pool_sized(
            1,
            2,
            move |resp| r2.lock().push(resp),
            move |err| e2.lock().push(err),
        );
        let total = 30u64;
        for i in 0..total {
            pool.submit(req(i, 0.1));
        }
        assert_eq!(pool.live_workers(), 1);
        pool.shutdown();

        let responses = responses.lock();
        let errors = errors.lock();
        // Conservation: every burst request resolved as scored or shed.
        assert_eq!(responses.len() + errors.len(), total as usize);
        assert!(!errors.is_empty(), "a 2-deep queue must shed this burst");
        assert!(errors.iter().all(|e| matches!(e, ServeError::Shed { .. })));
        assert_eq!(ms.resilience().shed, errors.len() as u64);
    }

    /// A fresh 2-replica server under a tight SLO with a seeded
    /// [`FaultPlan`] installed on its table.
    fn chaos_server(seed: u64) -> ModelServer {
        let slo = SloConfig {
            deadline: Some(Duration::from_micros(900)),
            retry: RetryPolicy {
                max_retries: 2,
                base: Duration::from_micros(20),
                cap: Duration::from_micros(80),
            },
            hedge: Some(HedgePolicy {
                after: Duration::from_micros(100),
            }),
            seed,
        };
        let (ms, table) = setup_slo(2, slo);
        table.set_fault_hook(Some(Arc::new(FaultPlan::new(FaultPlanConfig {
            seed,
            transient_rate: 0.15,
            latency_rate: 0.08,
            latency: Duration::from_micros(150),
            torn_cell_rate: 0.03,
            unavailable: Some(UnavailableWindow {
                region: 0,
                replica: Some(0),
                from_tick: 20,
                to_tick: 60,
            }),
            // Write-fault rates stay at their default-off zeros.
            ..FaultPlanConfig::default()
        }))));
        ms
    }

    /// Drive `n` requests through a fresh chaos server and return every
    /// deterministic counter: (ok, deadline-errors, degraded, resilience).
    fn chaos_run(seed: u64, workers: Option<usize>) -> (u64, u64, u64, ResilienceSnapshot) {
        let ms = chaos_server(seed);
        let n = 80u64;
        let ok = Arc::new(AtomicU64::new(0));
        let deadline_errs = Arc::new(AtomicU64::new(0));
        match workers {
            None => {
                for i in 0..n {
                    match ms.score(&req(i, if i % 2 == 0 { 0.9 } else { 0.1 })) {
                        Ok(_) => ok.fetch_add(1, Ordering::Relaxed),
                        Err(ServeError::DeadlineExceeded { .. }) => {
                            deadline_errs.fetch_add(1, Ordering::Relaxed)
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    };
                }
            }
            Some(w) => {
                let (ok2, de2) = (Arc::clone(&ok), Arc::clone(&deadline_errs));
                let pool = ms.serve_pool(
                    w,
                    move |_| {
                        ok2.fetch_add(1, Ordering::Relaxed);
                    },
                    move |e| match e {
                        ServeError::DeadlineExceeded { .. } => {
                            de2.fetch_add(1, Ordering::Relaxed);
                        }
                        other => panic!("unexpected error: {other}"),
                    },
                );
                for i in 0..n {
                    // Blocking send: the deterministic phase sheds nothing.
                    pool.send(req(i, if i % 2 == 0 { 0.9 } else { 0.1 }))
                        .unwrap();
                }
                pool.shutdown();
            }
        }
        (
            ok.load(Ordering::Relaxed),
            deadline_errs.load(Ordering::Relaxed),
            ms.degraded_count(),
            ms.resilience(),
        )
    }

    proptest! {
        /// Satellite: the same seed yields the same [`ScoreResponse`]
        /// outcome counters across two runs — and across worker counts,
        /// because every SLO decision is a pure function of the fault plan
        /// and the request's seed, never of scheduler interleaving.
        #[test]
        fn chaos_counters_replay_identically_across_runs_and_workers(seed in 0u64..1 << 32) {
            let sequential = chaos_run(seed, None);
            prop_assert_eq!(sequential, chaos_run(seed, None));
            prop_assert_eq!(sequential, chaos_run(seed, Some(1)));
            prop_assert_eq!(sequential, chaos_run(seed, Some(3)));
            // Conservation: every request resolved one way or the other.
            let (ok, deadline_errs, _, r) = sequential;
            prop_assert_eq!(ok + deadline_errs, 80);
            // Blocking sends never shed.
            prop_assert_eq!(r.shed, 0);
        }
    }

    /// A cache-enabled server over a fresh single-region table with users
    /// 1 and 2 uploaded.
    fn setup_cached() -> (ModelServer, Arc<RegionedTable>) {
        let table = Arc::new(RegionedTable::single(StoreConfig::default()).unwrap());
        let ms = ModelServer::with_options(
            table.clone(),
            layout(),
            cached_model(),
            SloConfig::default(),
            Some(RowCacheConfig::default()),
        )
        .unwrap();
        let codec = FeatureCodec {
            embedding_dim: 2,
            payer_width: 2,
            receiver_width: 2,
            velocity_width: 0,
        };
        for user in [1u64, 2] {
            table
                .put_rows(codec.encode_user(
                    user,
                    &UserFeatures {
                        payer_side: vec![0.1, 0.2],
                        receiver_side: vec![0.3, 0.4],
                        embedding: vec![0.5, 0.6],
                        velocity: Vec::new(),
                    },
                    20170410,
                ))
                .unwrap();
        }
        (ms, table)
    }

    #[test]
    fn cached_scores_are_bit_identical_to_uncached() {
        let ms_plain = setup();
        let (ms_cached, _) = setup_cached();
        for i in 0..20u64 {
            let request = req(i, i as f32 / 20.0);
            let cold = ms_cached.score(&request).unwrap();
            let warm = ms_cached.score(&request).unwrap();
            let plain = ms_plain.score(&request).unwrap();
            assert_eq!(cold.probability.to_bits(), plain.probability.to_bits());
            assert_eq!(warm.probability.to_bits(), plain.probability.to_bits());
            assert_eq!((cold.alert, cold.degraded), (plain.alert, plain.degraded));
        }
        let stats = ms_cached.row_cache_stats().unwrap();
        assert!(stats.hits > 0, "repeat requests must hit the cache");
        // Both parties cached after the first request; all later fetches hit.
        assert_eq!(stats.misses, 2);
        // Cache hits skip the store entirely.
        assert_eq!(stats.hits, 2 * 20 * 2 - 2);
    }

    #[test]
    fn cache_is_never_filled_from_degraded_reads() {
        let (ms, table) = setup_cached();
        tear_user(&table, 1);
        for _ in 0..3 {
            let resp = ms.score(&req(1, 0.9)).unwrap();
            assert!(resp.degraded, "torn row must degrade every time");
        }
        // Every degraded request re-read the torn row: nothing was cached
        // for user 1, so degradations keep being observed and counted.
        assert_eq!(ms.degraded_count(), 3);
        let stats = ms.row_cache_stats().unwrap();
        // User 2 (the intact receiver) is the only cached entry.
        assert_eq!(stats.inserted, 1);
    }

    #[test]
    fn deploy_invalidates_the_row_cache() {
        let (ms, _table) = setup_cached();
        ms.score(&req(1, 0.2)).unwrap();
        assert_eq!(ms.row_cache_stats().unwrap().inserted, 2);
        let mut m2 = cached_model();
        m2.version = 20170411;
        ms.deploy(m2).unwrap();
        let stats = ms.row_cache_stats().unwrap();
        assert_eq!(stats.invalidations, 1);
        // The next request misses (re-fetches) instead of serving pre-deploy
        // decodes.
        let before = stats.misses;
        ms.score(&req(2, 0.2)).unwrap();
        assert_eq!(ms.row_cache_stats().unwrap().misses, before + 2);
    }

    #[test]
    fn explicit_invalidation_drops_cached_rows_after_feature_upload() {
        let (ms, table) = setup_cached();
        ms.score(&req(1, 0.2)).unwrap();
        // Upload fresher features for user 1, then invalidate.
        let codec = FeatureCodec {
            embedding_dim: 2,
            payer_width: 2,
            receiver_width: 2,
            velocity_width: 0,
        };
        table
            .put_rows(codec.encode_user(
                1,
                &UserFeatures {
                    payer_side: vec![0.9, 0.9],
                    receiver_side: vec![0.9, 0.9],
                    embedding: vec![0.9, 0.9],
                    velocity: Vec::new(),
                },
                20170411,
            ))
            .unwrap();
        // The upload alone does NOT evict: the cache still serves the
        // pre-upload decode (this is exactly why uploaders must invalidate).
        let before = ms.row_cache_stats().unwrap();
        ms.score(&req(10, 0.2)).unwrap();
        let after = ms.row_cache_stats().unwrap();
        assert_eq!(after.misses, before.misses, "stale entries still serve");
        // Invalidation drops everything; the next request re-fetches and
        // re-caches the freshly uploaded rows.
        ms.invalidate_row_cache();
        assert_eq!(after.inserted, 2);
        ms.score(&req(11, 0.2)).unwrap();
        let fresh = ms.row_cache_stats().unwrap();
        assert_eq!(
            fresh.misses,
            after.misses + 2,
            "invalidation forces a re-read"
        );
        assert_eq!(fresh.inserted, 4);
        assert_eq!(fresh.invalidations, 1);
    }

    #[test]
    fn ingest_update_invalidates_only_the_patched_users_cache_rows() {
        let (ms, table) = setup_cached();
        // Warm the cache with both parties of `req` (users 1 and 2).
        ms.score(&req(0, 0.4)).unwrap();
        assert_eq!(ms.row_cache_stats().unwrap().inserted, 2);
        // Stream a correction for user 1 only.
        let report = ms
            .ingest_update(
                &[FeatureDelta {
                    user: 1,
                    payer: vec![(0, 0.7), (1, 0.8)],
                    ..FeatureDelta::default()
                }],
                20170412,
            )
            .unwrap();
        assert_eq!((report.users, report.cells), (1, 2));
        assert_eq!(report.invalidated_rows, 1, "only user 1's row drops");
        // The store now serves the patched values.
        let codec = FeatureCodec {
            embedding_dim: 2,
            payer_width: 2,
            receiver_width: 2,
            velocity_width: 0,
        };
        let got = codec.get_user(&table, 1, u64::MAX).unwrap().unwrap();
        assert_eq!(got.payer_side, vec![0.7, 0.8]);
        // The next request re-fetches user 1 (a miss) while user 2 is still
        // served from the cache (a hit): surgical invalidation.
        let before = ms.row_cache_stats().unwrap();
        ms.score(&req(1, 0.4)).unwrap();
        let after = ms.row_cache_stats().unwrap();
        assert_eq!(after.misses, before.misses + 1);
        assert_eq!(after.hits, before.hits + 1);
        // And the cached server now scores exactly like an uncached server
        // over the same post-ingest table: no stale decode survives.
        let plain = ModelServer::new(table.clone(), layout(), cached_model()).unwrap();
        let cached_resp = ms.score(&req(2, 0.4)).unwrap();
        let plain_resp = plain.score(&req(2, 0.4)).unwrap();
        assert_eq!(
            cached_resp.probability.to_bits(),
            plain_resp.probability.to_bits()
        );
    }

    #[test]
    fn ingest_update_rejects_out_of_layout_deltas_before_writing() {
        let (ms, table) = setup_cached();
        let before = table.write_stats();
        let err = ms
            .ingest_update(
                &[FeatureDelta {
                    user: 1,
                    payer: vec![(0, 1.0)],
                    receiver: vec![(9, 1.0)],
                    ..FeatureDelta::default()
                }],
                20170412,
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                ServeError::DeltaSlot {
                    user: 1,
                    block: "receiver",
                    index: 9,
                    width: 2
                }
            ),
            "{err:?}"
        );
        assert!(!err.is_degradable());
        // Nothing was written — not even the valid payer half of the delta.
        let delta = table.write_stats().since(&before);
        assert_eq!((delta.batches, delta.cells_written), (0, 0));
    }

    #[test]
    fn ingest_update_without_a_cache_still_writes_and_ticks() {
        let (ms, table) = setup_with_table();
        let report = ms
            .ingest_update(
                &[
                    FeatureDelta {
                        user: 1,
                        embedding: vec![(0, 0.9)],
                        ..FeatureDelta::default()
                    },
                    FeatureDelta {
                        user: 2,
                        receiver: vec![(1, -1.0)],
                        ..FeatureDelta::default()
                    },
                    // Empty deltas are skipped, not written.
                    FeatureDelta::default(),
                ],
                20170412,
            )
            .unwrap();
        assert_eq!((report.users, report.cells), (2, 2));
        assert_eq!(report.invalidated_rows, 0);
        let codec = FeatureCodec {
            embedding_dim: 2,
            payer_width: 2,
            receiver_width: 2,
            velocity_width: 0,
        };
        let got = codec.get_user(&table, 2, u64::MAX).unwrap().unwrap();
        assert_eq!(got.receiver_side, vec![0.3, -1.0]);
        // An all-empty ingest is a no-op apart from the tick.
        let before = table.write_stats();
        let report = ms.ingest_update(&[], 20170413).unwrap();
        assert_eq!((report.users, report.cells), (0, 0));
        assert_eq!(table.write_stats().since(&before).batches, 0);
    }

    /// A batch of nothing but empty deltas writes no cells, charges no
    /// retry budget, and invalidates nothing — but the maintenance tick
    /// still runs: a pending group-commit WAL window left by an earlier
    /// write is synced by the empty ingest.
    #[test]
    fn ingest_update_of_all_empty_deltas_still_ticks() {
        let dir = std::env::temp_dir().join(format!("titant-ms-emptytick-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = StoreConfig {
            dir: Some(dir.clone()),
            sync: titant_alihbase::SyncPolicy::GroupCommit {
                max_batch: 1024,
                max_wait: Duration::from_millis(5),
            },
            ..StoreConfig::default()
        };
        let table = Arc::new(RegionedTable::single(cfg).unwrap());
        let ms = ModelServer::new(table.clone(), layout(), model()).unwrap();
        // A direct upload (no tick of its own) leaves its WAL frame pending
        // in the group-commit window...
        let codec = FeatureCodec {
            embedding_dim: 2,
            payer_width: 2,
            receiver_width: 2,
            velocity_width: 0,
        };
        table
            .put_rows(codec.encode_user(
                1,
                &UserFeatures {
                    payer_side: vec![0.1, 0.2],
                    receiver_side: vec![0.3, 0.4],
                    embedding: vec![0.5, 0.6],
                    velocity: Vec::new(),
                },
                20170412,
            ))
            .unwrap();
        let before = table.write_stats();
        let report = ms
            .ingest_update(
                &[
                    FeatureDelta::default(),
                    FeatureDelta {
                        user: 9,
                        ..FeatureDelta::default()
                    },
                ],
                20170413,
            )
            .unwrap();
        assert_eq!((report.users, report.cells), (0, 0));
        assert_eq!(report.write_retries, 0);
        assert_eq!(report.invalidated_rows, 0);
        assert_eq!(report.simulated_wait, Duration::ZERO);
        let delta = table.write_stats().since(&before);
        assert_eq!((delta.batches, delta.cells_written), (0, 0));
        assert!(
            delta.wal_syncs > 0,
            "the tick must still run and flush the pending WAL window"
        );
        // A second empty ingest finds nothing pending and is a pure no-op.
        let before = table.write_stats();
        ms.ingest_update(&[], 20170414).unwrap();
        assert_eq!(table.write_stats().since(&before).wal_syncs, 0);
        drop(ms);
        drop(table);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A write-fault hook that plays a fixed script of actions in order,
    /// then goes clean. Reads are never touched.
    struct ScriptedWrites(parking_lot::Mutex<Vec<WriteFaultAction>>);

    impl ScriptedWrites {
        fn new(mut script: Vec<WriteFaultAction>) -> Self {
            script.reverse();
            Self(parking_lot::Mutex::new(script))
        }
    }

    impl FaultHook for ScriptedWrites {
        fn on_read(&self, _ctx: &ReadCtx<'_>) -> FaultAction {
            FaultAction::None
        }
        fn on_write(&self, _ctx: &WriteCtx<'_>) -> WriteFaultAction {
            self.0.lock().pop().unwrap_or(WriteFaultAction::None)
        }
    }

    fn setup_with_slo(slo: SloConfig) -> (ModelServer, Arc<RegionedTable>) {
        let table = Arc::new(RegionedTable::single(StoreConfig::default()).unwrap());
        let ms = ModelServer::with_options(table.clone(), layout(), model(), slo, None).unwrap();
        let codec = FeatureCodec {
            embedding_dim: 2,
            payer_width: 2,
            receiver_width: 2,
            velocity_width: 0,
        };
        for user in [1u64, 2] {
            table
                .put_rows(codec.encode_user(
                    user,
                    &UserFeatures {
                        payer_side: vec![0.1, 0.2],
                        receiver_side: vec![0.3, 0.4],
                        embedding: vec![0.5, 0.6],
                        velocity: Vec::new(),
                    },
                    20170410,
                ))
                .unwrap();
        }
        (ms, table)
    }

    #[test]
    fn ingest_retries_through_transient_write_faults() {
        let slo = SloConfig {
            retry: RetryPolicy {
                max_retries: 3,
                base: Duration::from_micros(10),
                cap: Duration::from_micros(50),
            },
            ..SloConfig::default()
        };
        let (ms, table) = setup_with_slo(slo);
        table.set_fault_hook(Some(Arc::new(ScriptedWrites::new(vec![
            WriteFaultAction::AppendError,
            WriteFaultAction::SyncError,
        ]))));
        let report = ms
            .ingest_update_opts(
                &[FeatureDelta {
                    user: 1,
                    payer: vec![(0, 0.9)],
                    ..FeatureDelta::default()
                }],
                20170412,
                IngestOptions { tick: 7 },
            )
            .unwrap();
        assert_eq!(report.write_retries, 2, "two faulted attempts, then ack");
        let r = ms.resilience();
        assert_eq!((r.write_retried, r.write_retries_exhausted), (2, 0));
        // The acknowledged attempt's cells are readable.
        let codec = FeatureCodec {
            embedding_dim: 2,
            payer_width: 2,
            receiver_width: 2,
            velocity_width: 0,
        };
        let got = codec.get_user(&table, 1, u64::MAX).unwrap().unwrap();
        assert_eq!(got.payer_side, vec![0.9, 0.2]);
        // And the physical failures were counted.
        let stats = table.write_stats();
        assert_eq!(stats.wal_append_failures, 1);
        assert_eq!(stats.wal_sync_failures, 1);
    }

    #[test]
    fn exhausted_write_retries_surface_a_typed_error() {
        let slo = SloConfig {
            retry: RetryPolicy {
                max_retries: 2,
                base: Duration::from_micros(10),
                cap: Duration::from_micros(50),
            },
            ..SloConfig::default()
        };
        let (ms, table) = setup_with_slo(slo);
        table.set_fault_hook(Some(Arc::new(ScriptedWrites::new(vec![
            WriteFaultAction::AppendError;
            3
        ]))));
        let err = ms
            .ingest_update_opts(
                &[FeatureDelta {
                    user: 1,
                    payer: vec![(0, 0.9)],
                    ..FeatureDelta::default()
                }],
                20170412,
                IngestOptions { tick: 3 },
            )
            .unwrap_err();
        match &err {
            ServeError::IngestRetriesExhausted { attempts, message } => {
                assert_eq!(*attempts, 3, "initial try + max_retries");
                assert!(message.contains("AppendError"), "{message}");
            }
            other => panic!("expected IngestRetriesExhausted, got {other:?}"),
        }
        assert!(!err.is_degradable());
        let r = ms.resilience();
        assert_eq!((r.write_retried, r.write_retries_exhausted), (2, 1));
        // Nothing from the rejected batch is readable: user 1 still serves
        // its seeded values.
        let codec = FeatureCodec {
            embedding_dim: 2,
            payer_width: 2,
            receiver_width: 2,
            velocity_width: 0,
        };
        let got = codec.get_user(&table, 1, u64::MAX).unwrap().unwrap();
        assert_eq!(got.payer_side, vec![0.1, 0.2]);
    }

    /// Regression: the ingest retry loop used to charge (and sleep) the
    /// full backoff pause even when it overshot the deadline budget,
    /// unlike the read path's "never pause past the budget" cap. With a
    /// backoff base larger than the whole budget, a single retry must now
    /// charge at most the remaining budget.
    #[test]
    fn ingest_backoff_never_charges_past_the_deadline() {
        let budget = Duration::from_micros(100);
        let slo = SloConfig {
            deadline: Some(budget),
            retry: RetryPolicy {
                max_retries: 4,
                base: Duration::from_micros(500),
                cap: Duration::from_millis(10),
            },
            ..SloConfig::default()
        };
        let (ms, table) = setup_with_slo(slo);
        // One faulted attempt, then clean: the success report exposes the
        // total simulated charge.
        table.set_fault_hook(Some(Arc::new(ScriptedWrites::new(vec![
            WriteFaultAction::AppendError,
        ]))));
        let report = ms
            .ingest_update_opts(
                &[FeatureDelta {
                    user: 1,
                    payer: vec![(0, 0.9)],
                    ..FeatureDelta::default()
                }],
                20170412,
                IngestOptions { tick: 5 },
            )
            .unwrap();
        assert_eq!(report.write_retries, 1);
        assert!(
            report.simulated_wait <= budget,
            "charged {:?} past the {budget:?} budget",
            report.simulated_wait
        );
    }

    /// Under a write storm (every attempt faulted) the capped backoff
    /// exhausts the deadline exactly at its budget: the loop stops on
    /// `deadline.exceeded()` after one retry instead of burning the whole
    /// retry allowance on pauses charged far beyond the budget.
    #[test]
    fn ingest_storm_stops_at_the_deadline_budget() {
        let slo = SloConfig {
            deadline: Some(Duration::from_micros(100)),
            retry: RetryPolicy {
                max_retries: 10,
                base: Duration::from_micros(500),
                cap: Duration::from_millis(10),
            },
            ..SloConfig::default()
        };
        let (ms, table) = setup_with_slo(slo);
        table.set_fault_hook(Some(Arc::new(ScriptedWrites::new(vec![
            WriteFaultAction::AppendError;
            12
        ]))));
        let err = ms
            .ingest_update_opts(
                &[FeatureDelta {
                    user: 1,
                    payer: vec![(0, 0.9)],
                    ..FeatureDelta::default()
                }],
                20170412,
                IngestOptions { tick: 6 },
            )
            .unwrap_err();
        match &err {
            ServeError::IngestRetriesExhausted { attempts, .. } => {
                // Attempt 0 faults; the retry pause is capped to the whole
                // remaining budget, so attempt 1's fault finds the deadline
                // exceeded and stops — eight retries still unspent.
                assert_eq!(*attempts, 2, "deadline, not retry count, ended it");
            }
            other => panic!("expected IngestRetriesExhausted, got {other:?}"),
        }
        let r = ms.resilience();
        assert_eq!((r.write_retried, r.write_retries_exhausted), (1, 1));
    }

    /// `recover_table` crash-restarts the store in place; acknowledged
    /// ingests survive and post-recovery scores are bit-identical.
    #[test]
    fn recover_table_preserves_acknowledged_scores() {
        let dir = std::env::temp_dir().join(format!("titant-ms-recover-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = StoreConfig {
            dir: Some(dir.clone()),
            sync: SyncPolicy::Always,
            ..Default::default()
        };
        let table = Arc::new(RegionedTable::single(cfg).unwrap());
        let ms = ModelServer::new(table.clone(), layout(), model()).unwrap();
        let codec = FeatureCodec {
            embedding_dim: 2,
            payer_width: 2,
            receiver_width: 2,
            velocity_width: 0,
        };
        for user in [1u64, 2] {
            table
                .put_rows(codec.encode_user(
                    user,
                    &UserFeatures {
                        payer_side: vec![0.1, 0.2],
                        receiver_side: vec![0.3, 0.4],
                        embedding: vec![0.5, 0.6],
                        velocity: Vec::new(),
                    },
                    20170410,
                ))
                .unwrap();
        }
        ms.ingest_update(
            &[FeatureDelta {
                user: 1,
                payer: vec![(0, 0.7)],
                ..FeatureDelta::default()
            }],
            20170412,
        )
        .unwrap();
        let before = ms.score(&req(0, 0.4)).unwrap();
        let report = ms.recover_table().unwrap();
        assert_eq!((report.regions, report.replicas), (1, 1));
        let after = ms.score(&req(1, 0.4)).unwrap();
        assert_eq!(before.probability.to_bits(), after.probability.to_bits());
        assert!(!after.degraded, "recovered rows must read back intact");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn score_batch_matches_score_bit_for_bit() {
        let (ms, table) = setup_with_table();
        tear_user(&table, 3);
        let mut reqs = Vec::new();
        for i in 0..30u64 {
            let mut request = req(i, i as f32 / 30.0);
            match i % 4 {
                1 => request.transferor = 777, // unknown user: cold start
                2 => request.transferor = 3,   // torn row: degraded
                3 if i == 15 => request.context = vec![0.1, 0.2], // malformed
                _ => {}
            }
            reqs.push(request);
        }
        let same_slots = |batch: &[Result<ScoreResponse, ServeError>], single: &ModelServer| {
            assert_eq!(batch.len(), reqs.len());
            for (request, got) in reqs.iter().zip(batch) {
                match (got, &single.score(request)) {
                    (Ok(b), Ok(s)) => {
                        assert_eq!(b.probability.to_bits(), s.probability.to_bits());
                        assert_eq!(
                            (b.tx_id, b.alert, b.degraded),
                            (s.tx_id, s.alert, s.degraded)
                        );
                    }
                    (Err(b), Err(s)) => assert_eq!(b, s),
                    (b, s) => panic!("batch={b:?} single={s:?} diverged"),
                }
            }
        };
        let batch = ms.score_batch(&reqs);
        same_slots(&batch, &ms);
        // Degradations were counted on both paths.
        let batch_degraded = batch
            .iter()
            .filter(|r| matches!(r, Ok(resp) if resp.degraded))
            .count();
        assert!(batch_degraded > 0);
        assert_eq!(ms.degraded_count(), 2 * batch_degraded as u64);

        // Under a seeded fault plan a batch meets what its requests would
        // have met one by one: the same retries, hedges, failovers and
        // deadline misses, slot for slot and counter for counter. Twin
        // servers, because faults are keyed by `tx_id` and counters
        // accumulate.
        let (batched, single) = (chaos_server(7), chaos_server(7));
        let batch = batched.score_batch(&reqs);
        same_slots(&batch, &single);
        assert_eq!(batched.resilience(), single.resilience());
        assert_eq!(batched.degraded_count(), single.degraded_count());
        let r = batched.resilience();
        assert!(
            r.retried > 0 && r.hedged > 0 && r.failovers > 0,
            "the plan never bit: {r:?}"
        );
        let missed = batch
            .iter()
            .filter(|r| matches!(r, Err(ServeError::DeadlineExceeded { .. })))
            .count();
        assert_eq!(missed as u64, r.deadline_exceeded);
    }

    #[test]
    fn score_batch_uses_and_fills_the_row_cache() {
        let (ms, _table) = setup_cached();
        let reqs: Vec<ScoreRequest> = (0..10).map(|i| req(i, 0.4)).collect();
        let first = ms.score_batch(&reqs);
        let stats = ms.row_cache_stats().unwrap();
        // Per-party lookups, as in `score`: each of the two users missed
        // and was filled once, every later party of the batch hit.
        assert_eq!((stats.misses, stats.inserted, stats.hits), (2, 2, 18));
        let second = ms.score_batch(&reqs);
        let stats = ms.row_cache_stats().unwrap();
        assert_eq!(
            (stats.misses, stats.hits),
            (2, 38),
            "warm batch must not re-fetch"
        );
        for (a, b) in first.iter().zip(&second) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.probability.to_bits(), b.probability.to_bits());
        }
    }

    #[test]
    fn pool_survives_a_storm_of_poisoned_requests() {
        // 10k mixed requests: valid, wrong-width, unknown users, torn rows.
        let (ms, table) = setup_with_table();
        tear_user(&table, 3);
        let responses = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let errors = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let (r2, e2) = (Arc::clone(&responses), Arc::clone(&errors));
        let pool = ms.serve_pool(
            4,
            move |resp| r2.lock().push(resp),
            move |err| e2.lock().push(err),
        );

        let mut expect_errors = 0usize;
        for i in 0..10_000u64 {
            let fraud = i % 2 == 0;
            let context_val = if fraud { 0.9 } else { 0.1 };
            let request = match i % 5 {
                // Valid, known users.
                0 | 1 => req(i, context_val),
                // Valid, unknown users (cold start).
                2 => ScoreRequest {
                    transferor: 70_000 + i,
                    transferee: 80_000 + i,
                    ..req(i, context_val)
                },
                // Degraded: payer row is torn.
                3 => ScoreRequest {
                    transferor: 3,
                    ..req(i, context_val)
                },
                // Poisoned: wrong context width.
                _ => {
                    expect_errors += 1;
                    ScoreRequest {
                        context: vec![],
                        ..req(i, context_val)
                    }
                }
            };
            pool.send(request).unwrap();
        }
        assert_eq!(pool.live_workers(), 4, "no worker may die under poison");
        pool.shutdown();

        let responses = responses.lock();
        let errors = errors.lock();
        assert_eq!(responses.len() + errors.len(), 10_000, "no request lost");
        assert_eq!(errors.len(), expect_errors);
        assert!(errors
            .iter()
            .all(|e| matches!(e, ServeError::ContextWidth { .. })));
        // Every scoreable request got the right verdict, degraded or not.
        for resp in responses.iter() {
            assert_eq!(
                resp.alert,
                resp.tx_id % 2 == 0,
                "tx {} misjudged (degraded={})",
                resp.tx_id,
                resp.degraded
            );
        }
        assert_eq!(
            ms.degraded_count() as usize,
            responses.iter().filter(|r| r.degraded).count()
        );
        assert!(ms.degraded_count() > 0);
    }

    #[test]
    fn ingest_tick_reports_splits_and_clears_the_whole_row_cache() {
        use titant_alihbase::SplitConfig;
        let table = Arc::new(
            RegionedTable::single(StoreConfig::default())
                .unwrap()
                .with_rebalancing(SplitConfig {
                    split_threshold: Some(50),
                    merge_threshold: 0,
                    max_regions: 8,
                }),
        );
        let ms = ModelServer::with_options(
            table.clone(),
            layout(),
            cached_model(),
            SloConfig::default(),
            Some(RowCacheConfig::default()),
        )
        .unwrap();
        let codec = FeatureCodec {
            embedding_dim: 2,
            payer_width: 2,
            receiver_width: 2,
            velocity_width: 0,
        };
        // Enough users (and enough per-cell write pressure) that the next
        // tick's window is far past the split threshold.
        for user in 1..=16u64 {
            table
                .put_rows(codec.encode_user(
                    user,
                    &UserFeatures {
                        payer_side: vec![0.1, 0.2],
                        receiver_side: vec![0.3, 0.4],
                        embedding: vec![0.5, 0.6],
                        velocity: Vec::new(),
                    },
                    20170410,
                ))
                .unwrap();
        }
        // Warm the cache with both parties of one request.
        ms.score(&req(0, 0.2)).unwrap();
        assert_eq!(ms.row_cache_stats().unwrap().inserted, 2);
        let report = ms
            .ingest_update(
                &[FeatureDelta {
                    user: 1,
                    payer: vec![(0, 0.9)],
                    ..FeatureDelta::default()
                }],
                20170412,
            )
            .unwrap();
        assert_eq!(report.region_splits, 1, "the hot region split on tick");
        assert_eq!(report.region_merges, 0);
        assert_eq!(table.region_count(), 2);
        // User 1's row dropped surgically, then the split flushed the rest
        // (user 2's row) — nothing decoded pre-split may serve post-split.
        assert_eq!(report.invalidated_rows, 2);
        // Post-split scores are bit-identical to a plain server reading the
        // same (now two-region) table.
        let plain = ModelServer::new(table.clone(), layout(), cached_model()).unwrap();
        for i in 0..8u64 {
            let request = req(i, i as f32 / 8.0);
            assert_eq!(
                ms.score(&request).unwrap().probability.to_bits(),
                plain.score(&request).unwrap().probability.to_bits(),
                "tx {i}"
            );
        }
    }

    #[test]
    fn out_of_range_replica_is_a_typed_fault_with_no_resilience_counts() {
        let (ms, table) = setup_with_table();
        let codec = FeatureCodec {
            embedding_dim: 2,
            payer_width: 2,
            receiver_width: 2,
            velocity_width: 0,
        };
        // Pre-fix the table wrapped replica 3 % 1 onto the primary and the
        // read "succeeded", so a hedge the SLO layer recorded as landing on
        // different hardware had actually re-read the same store.
        let err = codec
            .get_user_opts(
                &table,
                1,
                u64::MAX,
                ReadOptions {
                    replica: 3,
                    ..Default::default()
                },
            )
            .unwrap_err();
        assert!(
            matches!(
                &err,
                ServeError::Fetch { user: 1, fault }
                    if fault.kind == titant_alihbase::FaultKind::NoSuchReplica
                        && fault.replica == 3
            ),
            "{err:?}"
        );
        // No retry/hedge/failover was recorded anywhere: nothing ran.
        let res = ms.resilience();
        assert_eq!((res.retried, res.hedged, res.failovers), (0, 0, 0));
        // And the serving loop itself never requests a replica it does not
        // have: a hedge policy on a single-replica table stays un-hedged.
        assert_eq!(table.replica_count(), 1);
    }
}
