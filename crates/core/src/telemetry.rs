//! Zero-dependency pipeline observability: per-stage latency histograms,
//! ring-buffered trace spans, and one exportable snapshot surface.
//!
//! The engine's hot path is counted but — before this module — never *timed*:
//! a regression like a delivery drain riding the ingest thread is invisible
//! until a bench run. This module adds the measurement substrate with three
//! pieces, all hand-rolled because the build environment vendors stubs only
//! (no `tracing`, no `metrics-rs`):
//!
//! 1. [`AtomicHistogram`] — a fixed-size log₂-bucket latency histogram
//!    (the atomic sibling of `streamworks_summarize::LogHistogram`), one per
//!    pipeline [`Stage`], shared between the ingest thread and shard workers
//!    through an `Arc` with relaxed atomics. Relaxed is enough: readers only
//!    snapshot at quiescence (after `take_completed`-style barriers), the
//!    same contract `ShardCounters` already relies on.
//! 2. [`SpanRing`] — a fixed-capacity, lock-free *single-writer* ring of
//!    [`TraceSpan`]s keyed by edge sequence number. The engine thread owns
//!    one ring and every shard worker owns its own, so a sampled event's
//!    end-to-end trace (ingest → dispatch → shard climb → delivery) can be
//!    stitched back together by `seq` after the fact and dumped as JSON for
//!    postmortems.
//! 3. [`TelemetrySnapshot`] / [`MetricsRegistry`] — one struct unifying the
//!    per-query [`QueryMetrics`], engine-wide [`EngineMetrics`], per-shard
//!    [`ShardMetrics`], durable-delivery counters, stage histograms and
//!    recent spans, rendered as Prometheus text format or JSON.
//!
//! Cost model: with [`TelemetryLevel::Off`] the engine holds no hub at all —
//! every instrumentation site is one `Option` branch. With
//! [`TelemetryLevel::Sampled`], only events whose sequence number is a
//! multiple of `telemetry_sample_every` (default 64) take the two `Instant`
//! reads per stage; everything is allocation-free once warm.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::metrics::{EngineMetrics, QueryMetrics, ShardMetrics};

/// How much observability the engine records while streaming.
///
/// Carried by [`crate::EngineConfig::telemetry_level`]; see the module docs
/// for the cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum TelemetryLevel {
    /// No telemetry: the engine holds no histograms or span rings and every
    /// instrumentation site reduces to a single branch on a `None`. The
    /// default.
    #[default]
    Off,
    /// Per-stage latency histograms and one end-to-end trace span set per
    /// sampled event (every `telemetry_sample_every`-th edge).
    Sampled,
}

impl TelemetryLevel {
    /// Stable lowercase name used in exports (`"off"` / `"sampled"`).
    pub fn name(self) -> &'static str {
        match self {
            TelemetryLevel::Off => "off",
            TelemetryLevel::Sampled => "sampled",
        }
    }
}

/// A pipeline stage with its own latency histogram.
///
/// The stages follow one event through the engine: graph/summary upkeep,
/// anchored local search, the SJ-Tree join climb, routing to shard workers,
/// draining the shard fan-in, window expiry, and flushing durable deliveries.
/// ARCHITECTURE.md's "Observability" section maps each stage to the code
/// that it times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Graph ingest, summary maintenance and edge-type bookkeeping — the
    /// work every event pays before any matching.
    IngestFront = 0,
    /// Anchored local search: finding embeddings of SJ-Tree leaf primitives
    /// around the new edge (shared index, per-query matcher front ends, and
    /// RPQ delta expansion all count here).
    LocalSearch = 1,
    /// The SJ-Tree join climb: probing sibling join stores and propagating
    /// joined partial matches toward the root.
    JoinClimb = 2,
    /// Routing embeddings/absorbed matches to shard workers over the bounded
    /// channels (the send side, including backpressure blocking).
    ShardRouting = 3,
    /// Draining the shard results fan-in into subscriber sinks in stream
    /// order.
    FanInDrain = 4,
    /// Expiring out-of-window partial matches and graph edges.
    ExpirySweep = 5,
    /// Flushing durable subscription outboxes through their transports.
    DeliveryFlush = 6,
}

impl Stage {
    /// Every stage, in histogram-index order.
    pub const ALL: [Stage; 7] = [
        Stage::IngestFront,
        Stage::LocalSearch,
        Stage::JoinClimb,
        Stage::ShardRouting,
        Stage::FanInDrain,
        Stage::ExpirySweep,
        Stage::DeliveryFlush,
    ];

    /// Stable snake_case name used in exports and span dumps.
    pub fn name(self) -> &'static str {
        match self {
            Stage::IngestFront => "ingest_front",
            Stage::LocalSearch => "local_search",
            Stage::JoinClimb => "join_climb",
            Stage::ShardRouting => "shard_routing",
            Stage::FanInDrain => "fan_in_drain",
            Stage::ExpirySweep => "expiry_sweep",
            Stage::DeliveryFlush => "delivery_flush",
        }
    }

    fn index(self) -> usize {
        self as usize
    }

    fn from_index(i: usize) -> Option<Stage> {
        Stage::ALL.get(i).copied()
    }
}

const BUCKETS: usize = 64;

/// A log₂-bucket latency histogram updateable from multiple threads.
///
/// The concurrent sibling of `streamworks_summarize::LogHistogram`: values
/// land in power-of-two buckets (64 counters cover the full `u64` range), so
/// recording is a handful of relaxed atomic adds — no locks, no allocation.
/// All orderings are `Relaxed`; totals are exact whenever the writers are
/// quiescent, which is the only time the engine snapshots them (the same
/// contract the sharded path's `ShardCounters` uses).
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn bucket_of(value: u64) -> usize {
        63 - value.max(1).leading_zeros() as usize
    }

    /// Records one value (a latency in nanoseconds).
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Copies the current counters into a serialisable [`HistogramSnapshot`].
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum_ns: self.sum.load(Ordering::Relaxed),
            min_ns: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max_ns: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Adds a previously captured snapshot into this histogram — used when a
    /// checkpoint restore carries the pre-crash telemetry counters forward.
    pub fn absorb(&self, snap: &HistogramSnapshot) {
        if snap.count == 0 {
            return;
        }
        for (bucket, &c) in self.buckets.iter().zip(snap.buckets.iter()) {
            bucket.fetch_add(c, Ordering::Relaxed);
        }
        self.count.fetch_add(snap.count, Ordering::Relaxed);
        self.sum.fetch_add(snap.sum_ns, Ordering::Relaxed);
        self.min.fetch_min(snap.min_ns, Ordering::Relaxed);
        self.max.fetch_max(snap.max_ns, Ordering::Relaxed);
    }
}

/// A point-in-time copy of one [`AtomicHistogram`]'s counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (nanoseconds).
    pub sum_ns: u64,
    /// Smallest recorded value (0 when empty).
    pub min_ns: u64,
    /// Largest recorded value (0 when empty).
    pub max_ns: u64,
    /// `buckets[i]` counts values `v` with `floor(log2(v.max(1))) == i`.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Approximate quantile (`q` in `[0, 1]`): the upper bound of the log₂
    /// bucket containing the `q`-quantile observation, clamped to the
    /// observed maximum. Returns 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let upper = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return upper.min(self.max_ns);
            }
        }
        self.max_ns
    }
}

/// One timed stage of one sampled event, as stitched into span dumps.
///
/// `shard` is `-1` for spans recorded on the engine (driver) thread and the
/// shard worker id otherwise. Spans sharing a `seq` belong to the same
/// sampled edge, so sorting a dump by `(seq, start_ns)` reads as an
/// end-to-end trace of that event through the pipeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceSpan {
    /// Engine-wide ingest sequence number of the sampled edge.
    pub seq: u64,
    /// Stage name (see [`Stage::name`]).
    pub stage: String,
    /// Shard worker id, or `-1` for the ingest/driver thread.
    pub shard: i64,
    /// Start offset in nanoseconds since the engine's telemetry epoch.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub duration_ns: u64,
}

/// Capacity of every [`SpanRing`]; old spans are overwritten FIFO.
pub const SPAN_RING_CAPACITY: usize = 256;

struct SpanSlot {
    seq: AtomicU64,
    /// `stage index + 1`; 0 marks an empty slot.
    stage: AtomicU64,
    start_ns: AtomicU64,
    duration_ns: AtomicU64,
}

/// A fixed-capacity, lock-free, single-writer ring of trace spans.
///
/// Each ring has exactly one writer (the engine thread, or one shard
/// worker), so `push` is a plain head bump plus relaxed stores — no CAS
/// loops, no locks. Readers collect at quiescence; a torn read mid-stream
/// could at worst mix fields of two spans in one slot, which the snapshot
/// path never risks because it only runs after the writers have drained.
pub struct SpanRing {
    shard: i64,
    slots: Vec<SpanSlot>,
    head: AtomicUsize,
}

impl std::fmt::Debug for SpanRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanRing")
            .field("shard", &self.shard)
            .field(
                "len",
                &self.head.load(Ordering::Relaxed).min(self.slots.len()),
            )
            .finish()
    }
}

impl SpanRing {
    /// Creates an empty ring owned by the given writer (`-1` = engine
    /// thread, otherwise a shard worker id).
    pub fn new(shard: i64) -> Self {
        SpanRing {
            shard,
            slots: (0..SPAN_RING_CAPACITY)
                .map(|_| SpanSlot {
                    seq: AtomicU64::new(0),
                    stage: AtomicU64::new(0),
                    start_ns: AtomicU64::new(0),
                    duration_ns: AtomicU64::new(0),
                })
                .collect(),
            head: AtomicUsize::new(0),
        }
    }

    /// Appends one span, overwriting the oldest once the ring is full.
    pub fn push(&self, seq: u64, stage: Stage, start_ns: u64, duration_ns: u64) {
        let at = self.head.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        let slot = &self.slots[at];
        slot.seq.store(seq, Ordering::Relaxed);
        slot.stage
            .store(stage.index() as u64 + 1, Ordering::Relaxed);
        slot.start_ns.store(start_ns, Ordering::Relaxed);
        slot.duration_ns.store(duration_ns, Ordering::Relaxed);
    }

    /// Copies the ring's live spans into `out` (unordered; sort by
    /// `(seq, start_ns)` to read traces).
    pub fn collect_into(&self, out: &mut Vec<TraceSpan>) {
        for slot in &self.slots {
            let tag = slot.stage.load(Ordering::Relaxed);
            if tag == 0 {
                continue;
            }
            let Some(stage) = Stage::from_index(tag as usize - 1) else {
                continue;
            };
            out.push(TraceSpan {
                seq: slot.seq.load(Ordering::Relaxed),
                stage: stage.name().to_string(),
                shard: self.shard,
                start_ns: slot.start_ns.load(Ordering::Relaxed),
                duration_ns: slot.duration_ns.load(Ordering::Relaxed),
            });
        }
    }
}

/// The shared heart of the telemetry layer: the sampling cadence, the
/// monotonic epoch every span offset is relative to, and one
/// [`AtomicHistogram`] per [`Stage`].
///
/// Lives in an `Arc` shared by the engine thread and every shard worker.
#[derive(Debug)]
pub struct TelemetryCore {
    sample_every: u64,
    epoch: Instant,
    stages: [AtomicHistogram; 7],
}

impl TelemetryCore {
    /// Creates a core sampling every `sample_every`-th event (clamped to at
    /// least 1).
    pub fn new(sample_every: u64) -> Self {
        TelemetryCore {
            sample_every: sample_every.max(1),
            epoch: Instant::now(),
            stages: std::array::from_fn(|_| AtomicHistogram::new()),
        }
    }

    /// The sampling cadence.
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// Whether the event with this ingest sequence number is sampled.
    #[inline]
    pub fn should_sample(&self, seq: u64) -> bool {
        seq.is_multiple_of(self.sample_every)
    }

    /// First sampled sequence number in the half-open range `[start, end)`,
    /// if any — used to decide whether batch-level stages (fan-in drain,
    /// expiry sweep, delivery flush) covering that range are timed, and to
    /// key their spans.
    #[inline]
    pub fn first_sampled(&self, start: u64, end: u64) -> Option<u64> {
        if end <= start {
            return None;
        }
        // First multiple of sample_every at or above `start`.
        let next = start.div_ceil(self.sample_every) * self.sample_every;
        (next < end).then_some(next)
    }

    /// Whether the half-open sequence range `[start, end)` contains a sampled
    /// event.
    #[inline]
    pub fn range_sampled(&self, start: u64, end: u64) -> bool {
        self.first_sampled(start, end).is_some()
    }

    /// Nanoseconds since the telemetry epoch (span timestamps).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records one duration into a stage's histogram. Durations are clamped
    /// to at least 1 ns so an observed stage always reports non-zero
    /// quantiles even when the clock reads twice within one tick.
    #[inline]
    pub fn record(&self, stage: Stage, duration_ns: u64) {
        self.stages[stage.index()].record(duration_ns.max(1));
    }

    /// Snapshot of one stage's histogram.
    pub fn stage_snapshot(&self, stage: Stage) -> HistogramSnapshot {
        self.stages[stage.index()].snapshot()
    }

    /// Adds previously captured stage counters (checkpoint restore).
    pub fn absorb_stage(&self, stage: Stage, snap: &HistogramSnapshot) {
        self.stages[stage.index()].absorb(snap);
    }
}

/// The engine-side handle: the shared core plus the driver thread's own span
/// ring. Shard workers get the same core and their own rings.
#[derive(Debug, Clone)]
pub(crate) struct TelemetryHub {
    pub(crate) core: Arc<TelemetryCore>,
    pub(crate) driver_ring: Arc<SpanRing>,
}

impl TelemetryHub {
    pub(crate) fn new(sample_every: u64) -> Self {
        TelemetryHub {
            core: Arc::new(TelemetryCore::new(sample_every)),
            driver_ring: Arc::new(SpanRing::new(-1)),
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot & export surface
// ---------------------------------------------------------------------------

/// One stage's histogram with derived quantiles, as exported.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageSnapshot {
    /// Stage name (see [`Stage::name`]).
    pub name: String,
    /// Number of sampled observations.
    pub count: u64,
    /// Sum of observed durations (ns).
    pub sum_ns: u64,
    /// Fastest observation (ns).
    pub min_ns: u64,
    /// Slowest observation (ns).
    pub max_ns: u64,
    /// Median (log₂-bucket upper bound, ns).
    pub p50_ns: u64,
    /// 90th percentile (ns).
    pub p90_ns: u64,
    /// 99th percentile (ns).
    pub p99_ns: u64,
    /// Raw log₂ bucket counts.
    pub buckets: Vec<u64>,
}

impl StageSnapshot {
    /// Builds the export form from a raw histogram snapshot.
    pub fn from_histogram(stage: Stage, h: &HistogramSnapshot) -> Self {
        StageSnapshot {
            name: stage.name().to_string(),
            count: h.count,
            sum_ns: h.sum_ns,
            min_ns: h.min_ns,
            max_ns: h.max_ns,
            p50_ns: h.quantile_ns(0.50),
            p90_ns: h.quantile_ns(0.90),
            p99_ns: h.quantile_ns(0.99),
            buckets: h.buckets.clone(),
        }
    }
}

/// One registered query's counters in the snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuerySnapshot {
    /// The query's registered name.
    pub name: String,
    /// Whether the query is currently paused.
    pub paused: bool,
    /// Full per-query counters.
    pub metrics: QueryMetrics,
}

/// Per-shard counters for one sharded query, plus the routing-skew ratio.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardSetSnapshot {
    /// The owning query's name.
    pub query: String,
    /// One entry per shard worker.
    pub shards: Vec<ShardMetrics>,
    /// `max(items_routed) / mean(items_routed)` across shards — 1.0 is
    /// perfectly balanced; ROADMAP flags > 2.0 as the work-stealing
    /// trigger. 0.0 when nothing has been routed.
    pub skew: f64,
}

/// Routing skew across one query's shards: `max / mean` of `items_routed`
/// (0.0 when nothing has been routed yet).
pub fn shard_skew(shards: &[ShardMetrics]) -> f64 {
    if shards.is_empty() {
        return 0.0;
    }
    let total: u64 = shards.iter().map(|s| s.items_routed).sum();
    if total == 0 {
        return 0.0;
    }
    let max = shards.iter().map(|s| s.items_routed).max().unwrap_or(0);
    let mean = total as f64 / shards.len() as f64;
    max as f64 / mean
}

/// One durable subscription's live delivery state in the snapshot.
///
/// `lag` is recomputed from the live outbox depth at snapshot time — not the
/// value cached by the last drain — so a quarantined subscription's backlog
/// keeps growing in the export instead of freezing at its last-drained
/// figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeliverySnapshot {
    /// Owning query's name.
    pub query: String,
    /// Subscription token (stable across checkpoint/restore).
    pub token: u64,
    /// Destination description (log path / endpoint name / memory key).
    pub target: String,
    /// `"active"`, `"degraded"` or `"quarantined"`.
    pub status: String,
    /// Matches routed into the outbox since attach.
    pub routed: u64,
    /// Matches dropped on outbox overflow.
    pub dropped: u64,
    /// Transport attempts (including retries).
    pub attempts: u64,
    /// Retried attempts.
    pub retries: u64,
    /// Recoveries out of Degraded/Quarantined back to Active.
    pub recoveries: u64,
    /// Live outbox depth right now (undelivered matches).
    pub lag: u64,
}

/// The unified observability snapshot returned by
/// [`crate::ContinuousQueryEngine::telemetry_snapshot`].
///
/// Serialisable both ways: `to_json`/`to_json_pretty` for machine
/// consumption (the CLI's `--metrics-json`), [`TelemetrySnapshot::to_prometheus`]
/// for scrape-style text exposition (the CLI's `stats` command).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Telemetry level the engine is running at (`"off"`/`"sampled"`).
    pub level: String,
    /// Sampling cadence (meaningful when level is `"sampled"`).
    pub sample_every: u64,
    /// Events ingested since engine start (or restore).
    pub events_ingested: u64,
    /// Match events emitted to subscribers.
    pub events_emitted: u64,
    /// Per-stage latency histograms (empty when telemetry is off).
    pub stages: Vec<StageSnapshot>,
    /// Per-query counters, one entry per live registered query.
    pub queries: Vec<QuerySnapshot>,
    /// Engine-wide shared-matching counters.
    pub engine: EngineMetrics,
    /// Per-shard counters for every sharded query.
    pub shards: Vec<ShardSetSnapshot>,
    /// Live durable-delivery state, one entry per durable subscription.
    pub delivery: Vec<DeliverySnapshot>,
    /// Recent trace spans from the driver and every shard worker ring,
    /// sorted by `(seq, start_ns)`.
    pub spans: Vec<TraceSpan>,
}

impl TelemetrySnapshot {
    /// Serialises the snapshot as compact JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("telemetry snapshot serialises")
    }

    /// Serialises the snapshot as pretty-printed JSON (postmortem dumps).
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("telemetry snapshot serialises")
    }

    /// Renders the snapshot in Prometheus text exposition format.
    ///
    /// Stage histograms become `streamworks_stage_latency_ns` histogram
    /// series (cumulative `_bucket{le=...}` plus `_sum`/`_count`), counters
    /// become `_total` gauges labelled by query/shard/subscription.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("# HELP streamworks_events_ingested_total Events ingested.\n");
        out.push_str("# TYPE streamworks_events_ingested_total counter\n");
        out.push_str(&format!(
            "streamworks_events_ingested_total {}\n",
            self.events_ingested
        ));
        out.push_str("# HELP streamworks_events_emitted_total Match events emitted.\n");
        out.push_str("# TYPE streamworks_events_emitted_total counter\n");
        out.push_str(&format!(
            "streamworks_events_emitted_total {}\n",
            self.events_emitted
        ));

        if !self.stages.is_empty() {
            out.push_str(
                "# HELP streamworks_stage_latency_ns Sampled per-stage pipeline latency.\n",
            );
            out.push_str("# TYPE streamworks_stage_latency_ns histogram\n");
            for stage in &self.stages {
                let mut cumulative = 0u64;
                for (i, &c) in stage.buckets.iter().enumerate() {
                    if c == 0 {
                        continue;
                    }
                    cumulative += c;
                    let upper = if i >= 63 {
                        u64::MAX
                    } else {
                        (1u64 << (i + 1)) - 1
                    };
                    out.push_str(&format!(
                        "streamworks_stage_latency_ns_bucket{{stage=\"{}\",le=\"{}\"}} {}\n",
                        stage.name, upper, cumulative
                    ));
                }
                out.push_str(&format!(
                    "streamworks_stage_latency_ns_bucket{{stage=\"{}\",le=\"+Inf\"}} {}\n",
                    stage.name, stage.count
                ));
                out.push_str(&format!(
                    "streamworks_stage_latency_ns_sum{{stage=\"{}\"}} {}\n",
                    stage.name, stage.sum_ns
                ));
                out.push_str(&format!(
                    "streamworks_stage_latency_ns_count{{stage=\"{}\"}} {}\n",
                    stage.name, stage.count
                ));
            }
        }

        out.push_str("# HELP streamworks_query_edges_processed_total Edges processed per query.\n");
        out.push_str("# TYPE streamworks_query_edges_processed_total counter\n");
        for q in &self.queries {
            out.push_str(&format!(
                "streamworks_query_edges_processed_total{{query=\"{}\"}} {}\n",
                q.name, q.metrics.edges_processed
            ));
        }
        out.push_str(
            "# HELP streamworks_query_complete_matches_total Complete matches per query.\n",
        );
        out.push_str("# TYPE streamworks_query_complete_matches_total counter\n");
        for q in &self.queries {
            out.push_str(&format!(
                "streamworks_query_complete_matches_total{{query=\"{}\"}} {}\n",
                q.name, q.metrics.complete_matches
            ));
        }
        // The RPQ matcher's work, its useful share and the end it roots its
        // trees at, for the queries that have offered a candidate at all
        // (SJ-Tree queries never do).
        let rpq: Vec<&QuerySnapshot> = (self.queries.iter())
            .filter(|q| q.metrics.rpq_relaxations > 0)
            .collect();
        let mut rpq_counter = |series: &str, help: &str, value: fn(&QueryMetrics) -> u64| {
            if rpq.is_empty() {
                return;
            }
            out.push_str(&format!(
                "# HELP streamworks_query_{series}_total {help}\n\
                 # TYPE streamworks_query_{series}_total counter\n"
            ));
            for q in &rpq {
                out.push_str(&format!(
                    "streamworks_query_{series}_total{{query=\"{}\"}} {}\n",
                    q.name,
                    value(&q.metrics)
                ));
            }
        };
        rpq_counter(
            "rpq_relaxations",
            "Candidate timestamps offered to RPQ product nodes.",
            |m| m.rpq_relaxations,
        );
        rpq_counter(
            "rpq_expansions",
            "RPQ relaxations that created or raised a product node.",
            |m| m.rpq_expansions,
        );
        rpq_counter(
            "rpq_end_switches",
            "Times an RPQ turned its trees to the other end of the path.",
            |m| m.rpq_end_switches,
        );
        if !rpq.is_empty() {
            out.push_str(
                "# HELP streamworks_query_rpq_end The end of the path an RPQ roots its trees at.\n\
                 # TYPE streamworks_query_rpq_end gauge\n",
            );
            for q in &rpq {
                out.push_str(&format!(
                    "streamworks_query_rpq_end{{query=\"{}\",end=\"{}\"}} 1\n",
                    q.name, q.metrics.rpq_end
                ));
            }
        }

        if !self.shards.is_empty() {
            out.push_str("# HELP streamworks_shard_items_routed_total Items routed per shard.\n");
            out.push_str("# TYPE streamworks_shard_items_routed_total counter\n");
            for set in &self.shards {
                for (i, s) in set.shards.iter().enumerate() {
                    out.push_str(&format!(
                        "streamworks_shard_items_routed_total{{query=\"{}\",shard=\"{}\"}} {}\n",
                        set.query, i, s.items_routed
                    ));
                }
            }
            out.push_str(
                "# HELP streamworks_shard_skew Max/mean items_routed ratio across shards.\n",
            );
            out.push_str("# TYPE streamworks_shard_skew gauge\n");
            for set in &self.shards {
                out.push_str(&format!(
                    "streamworks_shard_skew{{query=\"{}\"}} {:?}\n",
                    set.query, set.skew
                ));
            }
        }

        if !self.delivery.is_empty() {
            out.push_str(
                "# HELP streamworks_delivery_lag Live outbox depth per durable subscription.\n",
            );
            out.push_str("# TYPE streamworks_delivery_lag gauge\n");
            for d in &self.delivery {
                out.push_str(&format!(
                    "streamworks_delivery_lag{{query=\"{}\",token=\"{}\",status=\"{}\"}} {}\n",
                    d.query, d.token, d.status, d.lag
                ));
            }
            out.push_str("# HELP streamworks_delivery_attempts_total Transport attempts per durable subscription.\n");
            out.push_str("# TYPE streamworks_delivery_attempts_total counter\n");
            for d in &self.delivery {
                out.push_str(&format!(
                    "streamworks_delivery_attempts_total{{query=\"{}\",token=\"{}\"}} {}\n",
                    d.query, d.token, d.attempts
                ));
            }
        }

        out
    }
}

/// Thin façade over the snapshot assembly, named for what it is: the one
/// registry unifying every metrics surface the engine grew over time.
///
/// `MetricsRegistry::gather(&engine)` is exactly
/// [`crate::ContinuousQueryEngine::telemetry_snapshot`]; the type exists so
/// exporters can depend on a name that outlives engine API details.
#[derive(Debug, Clone, Copy, Default)]
pub struct MetricsRegistry;

impl MetricsRegistry {
    /// Assembles the unified snapshot from a (quiescent) engine.
    pub fn gather(engine: &crate::ContinuousQueryEngine) -> TelemetrySnapshot {
        engine.telemetry_snapshot()
    }
}

/// Telemetry counters carried inside an [`crate::EngineCheckpoint`] so stage
/// histograms survive a checkpoint/restore cycle (the replay that rebuilds
/// match state is *not* re-measured — restored counters equal captured
/// counters).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetryCheckpoint {
    /// Stage histograms captured at checkpoint time, keyed by stage name.
    pub stages: Vec<(String, HistogramSnapshot)>,
}

impl TelemetryCheckpoint {
    /// Captures every stage histogram from a live core.
    pub fn capture(core: &TelemetryCore) -> Self {
        TelemetryCheckpoint {
            stages: Stage::ALL
                .iter()
                .map(|&s| (s.name().to_string(), core.stage_snapshot(s)))
                .collect(),
        }
    }

    /// Adds the captured counters into a fresh core (restore path).
    pub fn absorb_into(&self, core: &TelemetryCore) {
        for (name, snap) in &self.stages {
            if let Some(stage) = Stage::ALL.iter().copied().find(|s| s.name() == name) {
                core.absorb_stage(stage, snap);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_records_and_snapshots() {
        let h = AtomicHistogram::new();
        for v in [1u64, 2, 3, 4, 100] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum_ns, 110);
        assert_eq!(s.min_ns, 1);
        assert_eq!(s.max_ns, 100);
        assert!(s.quantile_ns(0.5) <= s.quantile_ns(0.99));
        assert!(s.quantile_ns(0.99) <= 100);
    }

    #[test]
    fn empty_histogram_snapshot_is_zero() {
        let s = AtomicHistogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min_ns, 0);
        assert_eq!(s.quantile_ns(0.5), 0);
    }

    #[test]
    fn absorb_merges_counters() {
        let a = AtomicHistogram::new();
        let b = AtomicHistogram::new();
        a.record(5);
        b.record(500);
        a.absorb(&b.snapshot());
        let s = a.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.min_ns, 5);
        assert_eq!(s.max_ns, 500);
        assert_eq!(s.sum_ns, 505);
    }

    #[test]
    fn span_ring_overwrites_fifo() {
        let ring = SpanRing::new(-1);
        for seq in 0..(SPAN_RING_CAPACITY as u64 + 10) {
            ring.push(seq, Stage::IngestFront, seq, 1);
        }
        let mut out = Vec::new();
        ring.collect_into(&mut out);
        assert_eq!(out.len(), SPAN_RING_CAPACITY);
        // The oldest 10 spans were overwritten.
        assert!(out
            .iter()
            .all(|s| s.seq >= 10 || s.seq < SPAN_RING_CAPACITY as u64));
        assert!(out.iter().any(|s| s.seq == SPAN_RING_CAPACITY as u64 + 9));
    }

    #[test]
    fn range_sampled_finds_multiples() {
        let core = TelemetryCore::new(64);
        assert!(core.range_sampled(0, 1)); // 0 is a multiple
        assert!(!core.range_sampled(1, 64));
        assert!(core.range_sampled(1, 65)); // contains 64
        assert!(core.range_sampled(64, 65));
        assert!(!core.range_sampled(65, 65)); // empty range
        assert!(core.range_sampled(100, 200)); // contains 128
    }

    #[test]
    fn skew_ratio() {
        let mk = |routed: u64| ShardMetrics {
            items_routed: routed,
            ..Default::default()
        };
        assert_eq!(shard_skew(&[]), 0.0);
        assert_eq!(shard_skew(&[mk(0), mk(0)]), 0.0);
        let balanced = shard_skew(&[mk(10), mk(10)]);
        assert!((balanced - 1.0).abs() < 1e-9);
        let skewed = shard_skew(&[mk(30), mk(10)]);
        assert!((skewed - 1.5).abs() < 1e-9);
    }

    #[test]
    fn checkpoint_roundtrip_restores_counters() {
        let core = TelemetryCore::new(64);
        core.record(Stage::LocalSearch, 1000);
        core.record(Stage::JoinClimb, 2000);
        let cp = TelemetryCheckpoint::capture(&core);
        let fresh = TelemetryCore::new(64);
        cp.absorb_into(&fresh);
        assert_eq!(fresh.stage_snapshot(Stage::LocalSearch).count, 1);
        assert_eq!(fresh.stage_snapshot(Stage::JoinClimb).sum_ns, 2000);
        assert_eq!(fresh.stage_snapshot(Stage::IngestFront).count, 0);
    }
}
