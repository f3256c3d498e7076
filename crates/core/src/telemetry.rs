//! Pipeline observability: per-stage latency histograms, a ring of recent
//! trace spans, and one exportable snapshot surface.
//!
//! The engine thread is the only writer, so the state is plain values owned
//! by the engine (no atomics, no shared handles):
//!
//! 1. one `streamworks_summarize::LogHistogram` per pipeline [`Stage`];
//! 2. a ring of the last [`SPAN_RING_CAPACITY`] [`TraceSpan`]s keyed by edge
//!    sequence number, so a sampled event's end-to-end trace (ingest →
//!    search → climb → delivery) can be read back by `seq` and dumped as
//!    JSON for postmortems;
//! 3. [`TelemetrySnapshot`]: the stage histograms and recent spans together
//!    with the per-query [`QueryMetrics`], engine-wide [`EngineMetrics`] and
//!    durable-delivery counters, rendered as Prometheus text format or JSON.
//!
//! Cost model: with [`TelemetryLevel::Off`] the engine holds no telemetry at
//! all — every instrumentation site is one `Option` branch. With
//! [`TelemetryLevel::Sampled`], only events whose sequence number is a
//! multiple of `telemetry_sample_every` (default 64) read the clock;
//! everything is allocation-free once warm.

use std::time::Instant;

use serde::{Deserialize, Serialize};
use streamworks_summarize::LogHistogram;

use crate::metrics::{EngineMetrics, QueryMetrics};

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
/// The stages follow one event through the engine: graph upkeep,
/// anchored local search, the SJ-Tree join climb, window expiry, and
/// flushing durable deliveries.
/// ARCHITECTURE.md's "Observability" section maps each stage to the code
/// that it times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Graph ingest (the edge, its endpoints and the expiries it causes) —
    /// the work every event pays before any matching. The summary is not
    /// kept per event: it is built when read.
    IngestFront = 0,
    /// Anchored local search: finding embeddings of SJ-Tree leaf primitives
    /// around the new edge (shared index, per-query matcher front ends, and
    /// RPQ delta expansion all count here).
    LocalSearch = 1,
    /// The SJ-Tree join climb: probing sibling join stores and propagating
    /// joined partial matches toward the root.
    JoinClimb = 2,
    /// Expiring out-of-window partial matches and graph edges.
    ExpirySweep = 3,
    /// Flushing durable subscription outboxes through their transports.
    DeliveryFlush = 4,
}

impl Stage {
    /// Every stage, in histogram-index order.
    pub const ALL: [Stage; 5] = [
        Stage::IngestFront,
        Stage::LocalSearch,
        Stage::JoinClimb,
        Stage::ExpirySweep,
        Stage::DeliveryFlush,
    ];

    /// Stable snake_case name used in exports and span dumps.
    pub fn name(self) -> &'static str {
        match self {
            Stage::IngestFront => "ingest_front",
            Stage::LocalSearch => "local_search",
            Stage::JoinClimb => "join_climb",
            Stage::ExpirySweep => "expiry_sweep",
            Stage::DeliveryFlush => "delivery_flush",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// A point-in-time copy of one stage histogram's counters, as a checkpoint
/// stores it.
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

impl From<&LogHistogram> for HistogramSnapshot {
    fn from(h: &LogHistogram) -> Self {
        HistogramSnapshot {
            count: h.count(),
            sum_ns: h.sum(),
            min_ns: h.min().unwrap_or(0),
            max_ns: h.max().unwrap_or(0),
            buckets: h.bucket_counts().to_vec(),
        }
    }
}

impl From<&HistogramSnapshot> for LogHistogram {
    fn from(s: &HistogramSnapshot) -> Self {
        LogHistogram::from_parts(&s.buckets, s.count, s.sum_ns, s.min_ns, s.max_ns)
    }
}

/// One timed stage of one sampled event, as collected into span dumps.
///
/// Spans sharing a `seq` belong to the same sampled edge, so sorting a dump
/// by `(seq, start_ns)` reads as an end-to-end trace of that event through
/// the pipeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TraceSpan {
    /// Engine-wide ingest sequence number of the sampled edge.
    pub seq: u64,
    /// Stage name (see [`Stage::name`]).
    pub stage: String,
    /// Start offset in nanoseconds since the engine's telemetry epoch.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub duration_ns: u64,
}

/// Capacity of the engine's span ring; old spans are overwritten FIFO.
pub const SPAN_RING_CAPACITY: usize = 256;

#[derive(Debug, Clone, Copy)]
struct Span {
    seq: u64,
    stage: Stage,
    start_ns: u64,
    duration_ns: u64,
}

/// The engine's telemetry state: the sampling cadence, the monotonic epoch
/// every span offset is relative to, one [`LogHistogram`] per [`Stage`] and
/// a ring of the last [`SPAN_RING_CAPACITY`] spans. Plain values: the engine
/// thread is its only writer and every reader borrows the engine.
#[derive(Debug)]
pub(crate) struct Telemetry {
    sample_every: u64,
    epoch: Instant,
    stages: [LogHistogram; Stage::ALL.len()],
    spans: Vec<Span>,
    /// Where the next span goes once the ring is full (the oldest one).
    head: usize,
}

impl Telemetry {
    /// Sampling every `sample_every`-th event (clamped to at least 1).
    pub(crate) fn new(sample_every: u64) -> Self {
        Telemetry {
            sample_every: sample_every.max(1),
            epoch: Instant::now(),
            stages: std::array::from_fn(|_| LogHistogram::new()),
            spans: Vec::with_capacity(SPAN_RING_CAPACITY),
            head: 0,
        }
    }

    /// The epoch of a sampled event, `None` for any other: a copy the
    /// event's timing reads without borrowing the engine.
    #[inline]
    pub(crate) fn sample(&self, seq: u64) -> Option<Instant> {
        seq.is_multiple_of(self.sample_every).then_some(self.epoch)
    }

    /// First sampled sequence number in the half-open range `[start, end)`,
    /// if any: the batch-level delivery flush of an `ingest` call covering
    /// that range is timed when there is one, and keys its span by it.
    pub(crate) fn first_sampled(&self, start: u64, end: u64) -> Option<u64> {
        let next = start.div_ceil(self.sample_every) * self.sample_every;
        (next < end).then_some(next)
    }

    /// Nanoseconds since the telemetry epoch.
    pub(crate) fn now_ns(&self) -> u64 {
        ns_since(self.epoch)
    }

    /// Adds one duration to a stage's histogram, without a span. Durations
    /// are clamped to at least 1 ns so an observed stage always reports
    /// non-zero quantiles even when the clock reads twice within one tick.
    pub(crate) fn observe(&mut self, stage: Stage, duration_ns: u64) {
        self.stages[stage.index()].record(duration_ns.max(1));
    }

    /// [`Self::observe`] plus a span keyed by the sampled event `seq`,
    /// overwriting the oldest span once the ring is full.
    pub(crate) fn record(&mut self, seq: u64, stage: Stage, start_ns: u64, duration_ns: u64) {
        self.observe(stage, duration_ns);
        let span = Span {
            seq,
            stage,
            start_ns,
            duration_ns,
        };
        if self.spans.len() < SPAN_RING_CAPACITY {
            self.spans.push(span);
        } else {
            self.spans[self.head] = span;
            self.head = (self.head + 1) % SPAN_RING_CAPACITY;
        }
    }

    /// Every stage's histogram in export form, in [`Stage::ALL`] order.
    pub(crate) fn stage_snapshots(&self) -> Vec<StageSnapshot> {
        Stage::ALL
            .iter()
            .map(|&s| StageSnapshot::from_histogram(s, &self.stages[s.index()]))
            .collect()
    }

    /// The ring's spans, sorted by `(seq, start_ns)`.
    pub(crate) fn spans(&self) -> Vec<TraceSpan> {
        let mut out: Vec<TraceSpan> = (self.spans.iter())
            .map(|s| TraceSpan {
                seq: s.seq,
                stage: s.stage.name().to_string(),
                start_ns: s.start_ns,
                duration_ns: s.duration_ns,
            })
            .collect();
        out.sort_by_key(|s| (s.seq, s.start_ns));
        out
    }

    /// Adds a checkpoint's captured stage counters (restore); stages it
    /// names that this build does not know are skipped.
    pub(crate) fn absorb(&mut self, cp: &TelemetryCheckpoint) {
        for (name, snap) in &cp.stages {
            if let Some(stage) = Stage::ALL.iter().find(|s| s.name() == name) {
                self.stages[stage.index()].merge(&snap.into());
            }
        }
    }
}

/// Nanoseconds since `epoch` (span timestamps).
#[inline]
pub(crate) fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Snapshot & export surface
// ---------------------------------------------------------------------------

/// One stage's histogram with derived quantiles, as exported.
#[derive(Debug, Clone, Serialize)]
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
    /// Builds the export form of one stage's histogram.
    pub fn from_histogram(stage: Stage, h: &LogHistogram) -> Self {
        let quantile = |q| h.quantile(q).unwrap_or(0);
        StageSnapshot {
            name: stage.name().to_string(),
            count: h.count(),
            sum_ns: h.sum(),
            min_ns: h.min().unwrap_or(0),
            max_ns: h.max().unwrap_or(0),
            p50_ns: quantile(0.50),
            p90_ns: quantile(0.90),
            p99_ns: quantile(0.99),
            buckets: h.bucket_counts().to_vec(),
        }
    }
}

/// One registered query's counters in the snapshot.
#[derive(Debug, Clone, Serialize)]
pub struct QuerySnapshot {
    /// The query's registered name.
    pub name: String,
    /// Whether the query is currently paused.
    pub paused: bool,
    /// Full per-query counters.
    pub metrics: QueryMetrics,
}

/// One durable subscription's live delivery state in the snapshot.
///
/// `lag` is recomputed from the live outbox depth at snapshot time — not the
/// value cached by the last drain — so a quarantined subscription's backlog
/// keeps growing in the export instead of freezing at its last-drained
/// figure.
#[derive(Debug, Clone, Serialize)]
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
#[derive(Debug, Clone, Serialize)]
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
    /// Live durable-delivery state, one entry per durable subscription.
    pub delivery: Vec<DeliverySnapshot>,
    /// Recent trace spans from the engine thread's ring, sorted by
    /// `(seq, start_ns)`.
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
    /// become `_total` gauges labelled by query/subscription.
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
                label(&q.name),
                q.metrics.edges_processed
            ));
        }
        out.push_str(
            "# HELP streamworks_query_complete_matches_total Complete matches per query.\n",
        );
        out.push_str("# TYPE streamworks_query_complete_matches_total counter\n");
        for q in &self.queries {
            out.push_str(&format!(
                "streamworks_query_complete_matches_total{{query=\"{}\"}} {}\n",
                label(&q.name),
                q.metrics.complete_matches
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
                    label(&q.name),
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
                    label(&q.name),
                    q.metrics.rpq_end
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
                    label(&d.query),
                    d.token,
                    d.status,
                    d.lag
                ));
            }
            out.push_str("# HELP streamworks_delivery_attempts_total Transport attempts per durable subscription.\n");
            out.push_str("# TYPE streamworks_delivery_attempts_total counter\n");
            for d in &self.delivery {
                out.push_str(&format!(
                    "streamworks_delivery_attempts_total{{query=\"{}\",token=\"{}\"}} {}\n",
                    label(&d.query),
                    d.token,
                    d.attempts
                ));
            }
        }

        out
    }
}

/// A label value escaped as the Prometheus text format requires: `\`, `"`
/// and newline become `\\`, `\"` and `\n`.
fn label(value: &str) -> String {
    (value.replace('\\', "\\\\"))
        .replace('"', "\\\"")
        .replace('\n', "\\n")
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
    /// Captures every stage histogram of the engine's telemetry.
    pub(crate) fn capture(t: &Telemetry) -> Self {
        TelemetryCheckpoint {
            stages: Stage::ALL
                .iter()
                .map(|&s| (s.name().to_string(), (&t.stages[s.index()]).into()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(t: &Telemetry, stage: Stage) -> StageSnapshot {
        t.stage_snapshots().swap_remove(stage.index())
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let mut t = Telemetry::new(1);
        for v in [1u64, 2, 3, 4, 100] {
            t.observe(Stage::JoinClimb, v);
        }
        let s = stage(&t, Stage::JoinClimb);
        assert_eq!(s.name, "join_climb");
        assert_eq!(s.count, 5);
        assert_eq!(s.sum_ns, 110);
        assert_eq!(s.min_ns, 1);
        assert_eq!(s.max_ns, 100);
        assert!(s.p50_ns <= s.p99_ns);
        assert!(s.p99_ns <= 100);
        // A zero duration counts as 1 ns.
        t.observe(Stage::LocalSearch, 0);
        assert_eq!(stage(&t, Stage::LocalSearch).min_ns, 1);
    }

    #[test]
    fn empty_histogram_snapshot_is_zero() {
        let s = HistogramSnapshot::from(&LogHistogram::new());
        assert_eq!(s.count, 0);
        assert_eq!(s.min_ns, 0);
        assert_eq!(s.max_ns, 0);
        let export = stage(&Telemetry::new(1), Stage::IngestFront);
        assert_eq!((export.count, export.min_ns, export.p50_ns), (0, 0, 0));
    }

    #[test]
    fn absorb_merges_counters() {
        let mut a = Telemetry::new(1);
        let mut b = Telemetry::new(1);
        a.observe(Stage::ExpirySweep, 5);
        b.observe(Stage::ExpirySweep, 500);
        a.absorb(&TelemetryCheckpoint::capture(&b));
        let s = stage(&a, Stage::ExpirySweep);
        assert_eq!(s.count, 2);
        assert_eq!(s.min_ns, 5);
        assert_eq!(s.max_ns, 500);
        assert_eq!(s.sum_ns, 505);
    }

    #[test]
    fn span_ring_overwrites_fifo() {
        let mut t = Telemetry::new(1);
        let pushed = SPAN_RING_CAPACITY as u64 + 10;
        for seq in 0..pushed {
            t.record(seq, Stage::IngestFront, seq, 1);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), SPAN_RING_CAPACITY);
        // The oldest 10 spans were overwritten; the rest come back in order.
        let seqs: Vec<u64> = spans.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, (10..pushed).collect::<Vec<_>>());
        assert!(spans.iter().all(|s| s.stage == "ingest_front"));
        assert_eq!(stage(&t, Stage::IngestFront).count, pushed);
    }

    #[test]
    fn range_sampled_finds_multiples() {
        let t = Telemetry::new(64);
        assert_eq!(t.first_sampled(0, 1), Some(0)); // 0 is a multiple
        assert_eq!(t.first_sampled(1, 64), None);
        assert_eq!(t.first_sampled(1, 65), Some(64));
        assert_eq!(t.first_sampled(64, 65), Some(64));
        assert_eq!(t.first_sampled(65, 65), None); // empty range
        assert_eq!(t.first_sampled(100, 200), Some(128));
        assert!(t.sample(128).is_some() && t.sample(129).is_none());
    }

    #[test]
    fn checkpoint_roundtrip_restores_counters() {
        let mut t = Telemetry::new(64);
        t.observe(Stage::LocalSearch, 1000);
        t.observe(Stage::JoinClimb, 2000);
        let json = serde_json::to_string(&TelemetryCheckpoint::capture(&t)).unwrap();
        let cp: TelemetryCheckpoint = serde_json::from_str(&json).unwrap();
        let mut fresh = Telemetry::new(64);
        fresh.absorb(&cp);
        assert_eq!(stage(&fresh, Stage::LocalSearch).count, 1);
        assert_eq!(stage(&fresh, Stage::JoinClimb).sum_ns, 2000);
        assert_eq!(stage(&fresh, Stage::IngestFront).count, 0);
        assert_eq!(TelemetryCheckpoint::capture(&fresh), cp);
    }
}
