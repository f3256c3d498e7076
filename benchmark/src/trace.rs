//! The traced run: per-layer numbers, measured apart from the end-to-end ones.
//!
//! Group A is timed from outside: the workload's stream is replayed through
//! the layers' public functions in the engine's order, one in-memory span per
//! call, written out when the run ends. Group B covers layers that can only
//! be reached through the engine: the workload runs with sampled telemetry at
//! every event and the numbers are read by key from
//! `engine.telemetry_snapshot().to_json()` — a key that a later change removes
//! reads as `null`, never as a compile error.

use std::hint::black_box;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use crate::bench::{batch256_probe, judge, reference_for, timed_setup, Outcome, Request, Tally};
use crate::json::{self, Value};
use crate::measure::{
    latency_pass, pin_to_last_cpu, remove_logs, scratch_root, throughput_pass,
    throughput_pass_observed, Pass, Scratch,
};
use crate::reference::{latency_events, Reference, PREFIX_EVENTS};
use crate::spec::PER_LAYER;
use crate::stats::{median, percentile_sorted};
use crate::workloads::{CallTimer, Input, QuerySpec, Session, Workload};
use streamworks_core::{
    ContinuousQueryEngine, EngineCheckpoint, JoinSide, MatchEvent, PartialMatch, SharedJoinStore,
    SjTreeMatcher,
};
use streamworks_graph::{Duration, DynamicGraph, GraphConfig};
use streamworks_query::{QueryEdgeId, QueryPlan};
use streamworks_summarize::GraphSummary;

/// The replay prunes partial matches every this many edges: the cadence the
/// method fixes for it (and the engine's own at the seed).
const PRUNE_EVERY: usize = 256;
/// Events replayed through the bare layers: enough for steady state on every
/// workload, and it bounds the span file.
const REPLAY_EVENTS: usize = 100_000;
/// Telemetry snapshots are taken every this many `ingest` calls, for the
/// `*_peak` and `*_max` gauges.
const SNAPSHOT_EVERY: usize = 64;
/// Empty spans recorded to measure what recording a span costs.
const CALIBRATION_SPANS: usize = 4_096;

/// Layers of the group-A replay; `Event` is the root span of one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    Event,
    GraphIngest,
    SummarizeObserve,
    ProcessEdge,
    Prune,
    FromMatch,
    Render,
}

impl Layer {
    const ALL: [Layer; 7] = [
        Layer::Event,
        Layer::GraphIngest,
        Layer::SummarizeObserve,
        Layer::ProcessEdge,
        Layer::Prune,
        Layer::FromMatch,
        Layer::Render,
    ];

    fn name(self) -> &'static str {
        match self {
            Layer::Event => "replay.event",
            Layer::GraphIngest => "graph.ingest",
            Layer::SummarizeObserve => "summarize.observe",
            Layer::ProcessEdge => "sj_matcher.process_edge",
            Layer::Prune => "sj_matcher.prune",
            Layer::FromMatch => "event.from_match",
            Layer::Render => "event.render",
        }
    }
}

/// One call into one layer. `parent` is the index of the span that caused it
/// (`NO_PARENT` for a root); spans of one event share `event_seq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    pub event_seq: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
}

pub const NO_PARENT: u32 = u32::MAX;

/// Self time per layer: each span's duration minus the part of it that its
/// child spans cover (children of one parent never overlap here — one thread,
/// sequential calls), never below zero. Also the number of spans per layer.
pub fn self_times(spans: &[Span]) -> [(u64, u64); Layer::ALL.len()] {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != NO_PARENT {
            let parent = &spans[span.parent as usize];
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            covered[span.parent as usize] += end.saturating_sub(start);
        }
    }
    let mut totals = [(0u64, 0u64); Layer::ALL.len()];
    for (span, &children) in spans.iter().zip(&covered) {
        let own = (span.end_ns - span.start_ns).saturating_sub(children);
        let slot = &mut totals[span.layer as usize];
        slot.0 += own;
        slot.1 += 1;
    }
    totals
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index; `close` stamps its end.
    fn open(&mut self, layer: Layer, event_seq: usize, parent: u32) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            layer,
            event_seq: event_seq as u32,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, span: u32) {
        self.spans[span as usize].end_ns = self.now();
    }
}

/// What the replay recorded besides its spans.
struct Replay {
    spans: Vec<Span>,
    /// What an empty span measures: the recorder's own cost per span.
    span_overhead_ns: f64,
    events: usize,
    live_edges_peak: usize,
    rendered: u64,
    /// `(side, match)` of every single-edge leaf match of `join_hot`'s first
    /// internal node, with the join key's data vertex — the operations the
    /// isolated store loops repeat.
    store_ops: Vec<(JoinSide, PartialMatch)>,
}

/// Group A: replays the stream through `DynamicGraph::ingest` →
/// `GraphSummary::observe_insertion` → `SjTreeMatcher::process_edge`
/// (+ `prune` every 256) → `MatchEvent::from_match` + `render`, in the
/// engine's order, for the workload's first SJ-Tree query (none for an RPQ).
fn replay(input: &Input, plan: Option<&QueryPlan>, record_store_ops: bool) -> Replay {
    let events = &input.events[..input.events.len().min(REPLAY_EVENTS)];
    let retention = plan.map_or(Duration::from_mins(30), |p| p.query.window());
    let mut graph = DynamicGraph::new(GraphConfig::with_retention(retention));
    let mut summary = GraphSummary::new();
    let mut matcher = plan.map(|p| SjTreeMatcher::new(p.clone(), &graph));
    // `MatchEvent::from_match` wants the handle of a registered query.
    let handle = plan.map(|p| {
        ContinuousQueryEngine::builder()
            .build()
            .expect("the default configuration is valid")
            .register_plan(p.clone())
    });
    let mut rec = Recorder {
        origin: Instant::now(),
        spans: Vec::with_capacity(events.len() * 4),
    };
    // Calibration: empty spans measure the clock reads a span pays for.
    for _ in 0..CALIBRATION_SPANS {
        let span = rec.open(Layer::Event, 0, NO_PARENT);
        rec.close(span);
    }
    let empty: Vec<f64> = rec
        .spans
        .iter()
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect();
    rec.spans.clear();
    let mut out = Vec::new();
    let mut replay = Replay {
        spans: Vec::new(),
        span_overhead_ns: median(&empty),
        events: events.len(),
        live_edges_peak: 0,
        rendered: 0,
        store_ops: Vec::new(),
    };
    let mention_edges = plan.filter(|_| record_store_ops).map(|p| {
        let k = p.query.vertex_by_name("k").expect("hot_wedge binds k").id;
        let a1 = p.query.vertex_by_name("a1").expect("hot_wedge binds a1").id;
        let a2 = p.query.vertex_by_name("a2").expect("hot_wedge binds a2").id;
        (p.query.vertex_count(), k, a1, a2)
    });
    for (seq, event) in events.iter().enumerate() {
        let root = rec.open(Layer::Event, seq, NO_PARENT);

        let span = rec.open(Layer::GraphIngest, seq, root);
        let result = graph.ingest(event);
        rec.close(span);
        let Some(edge) = graph.edge(result.edge) else {
            rec.close(root);
            continue; // expired on ingest; cannot happen on an in-order stream
        };

        let span = rec.open(Layer::SummarizeObserve, seq, root);
        for (created, vertex) in [
            (result.src_created, result.src),
            (result.dst_created, result.dst),
        ] {
            if created {
                if let Some(v) = graph.vertex(vertex) {
                    summary.observe_vertex(v.vtype);
                }
            }
        }
        summary.observe_insertion(&graph, edge);
        rec.close(span);

        if let (Some(matcher), Some(handle), Some(plan)) = (matcher.as_mut(), handle, plan) {
            let span = rec.open(Layer::ProcessEdge, seq, root);
            out.clear();
            matcher.process_edge(&graph, edge, &mut out);
            rec.close(span);

            if (seq + 1) % PRUNE_EVERY == 0 {
                let span = rec.open(Layer::Prune, seq, root);
                matcher.prune(graph.now());
                rec.close(span);
            }
            for m in &out {
                let span = rec.open(Layer::FromMatch, seq, root);
                let event = MatchEvent::from_match(handle, &plan.query, &graph, m);
                rec.close(span);
                let span = rec.open(Layer::Render, seq, root);
                black_box(event.render());
                rec.close(span);
                replay.rendered += 1;
            }
        }
        if let Some((vertices, k, a1, a2)) = mention_edges {
            if event.edge_type == "mentions" {
                for (side, qe, article) in [(JoinSide::Left, 0, a1), (JoinSide::Right, 1, a2)] {
                    let mut m =
                        PartialMatch::seed(vertices, QueryEdgeId(qe), edge.id, edge.timestamp);
                    m.binding.bind(article, edge.src);
                    m.binding.bind(k, edge.dst);
                    replay.store_ops.push((side, m));
                }
            }
        }
        replay.live_edges_peak = replay.live_edges_peak.max(graph.live_edge_count());
        rec.close(root);
    }
    replay.spans = rec.spans;
    replay
}

/// Isolated loops over `SharedJoinStore::probe_then_insert` and
/// `expire_older_than`, on the join keys recorded from `join_hot`: the store
/// of the first internal node (cut = `k`), both leaf sides, the engine's prune
/// cadence. Returns `(ns per probe_then_insert, ns per expired match)`.
fn store_loops(plan: &QueryPlan, ops: Vec<(JoinSide, PartialMatch)>) -> (Option<f64>, Option<f64>) {
    let Some(k) = plan.query.vertex_by_name("k") else {
        return (None, None);
    };
    let window = plan.query.window();
    let mut store = SharedJoinStore::new(vec![k.id]);
    let keyed: Vec<_> = ops
        .into_iter()
        .filter_map(|(side, m)| Some((side, store.join_key_for(&m)?, m)))
        .collect();
    let (mut probe_ns, mut expire_ns, mut expired, mut candidates) = (0u64, 0u64, 0usize, 0u64);
    let count = keyed.len();
    for (i, (side, key, m)) in keyed.into_iter().enumerate() {
        let now = m.latest;
        let start = Instant::now();
        store.probe_then_insert(side, key, m, |_, candidate| {
            candidates += u64::from(black_box(candidate).edge_count() > 0);
        });
        probe_ns += start.elapsed().as_nanos() as u64;
        // Two operations per mention edge, so this is every 256 edges.
        if (i + 1) % (2 * PRUNE_EVERY) == 0 {
            let start = Instant::now();
            expired += store.expire_older_than(now.minus(window));
            expire_ns += start.elapsed().as_nanos() as u64;
        }
    }
    black_box(candidates);
    (
        (count > 0).then(|| probe_ns as f64 / count as f64),
        (expired > 0).then(|| expire_ns as f64 / expired as f64),
    )
}

/// Sum of `field` over the objects of an array.
fn sum_over(items: &[Value], field: &str) -> Option<f64> {
    let values: Vec<f64> = items.iter().filter_map(|q| json::num(q, field)).collect();
    (!values.is_empty()).then(|| values.iter().sum())
}

/// Peaks of gauges over the snapshots taken during the traced pass.
#[derive(Debug, Default)]
struct Peaks {
    live_matches: f64,
    rpq_nodes: f64,
    cursor_lag: f64,
}

impl Peaks {
    fn observe(&mut self, snapshot: &Value) {
        let queries = json::items(snapshot, "queries");
        let peak = |current: &mut f64, field: &str| {
            *current = current.max(sum_over(queries, field).unwrap_or(0.0));
        };
        peak(&mut self.live_matches, "metrics.partial_matches_live");
        peak(&mut self.rpq_nodes, "metrics.rpq_tree_nodes_live");
        peak(&mut self.cursor_lag, "metrics.cursor_lag");
    }
}

fn snapshot_of(engine: &ContinuousQueryEngine) -> Value {
    serde_json::parse(&engine.telemetry_snapshot().to_json()).unwrap_or(Value::Null)
}

/// Group B pass: the throughput pass with telemetry sampled at every event.
/// Snapshots for the peak gauges are taken between `ingest` calls with the
/// clock stopped, so the wall time is ingest time only.
fn traced_pass(workload: Workload, input: &Input, session: &mut Session) -> (Pass, Peaks, Value) {
    let mut peaks = Peaks::default();
    let pass = throughput_pass_observed(
        workload,
        input,
        session,
        workload.batch(),
        PREFIX_EVENTS,
        SNAPSHOT_EVERY,
        |s| {
            peaks.observe(&snapshot_of(&s.engine));
        },
    );
    let last = snapshot_of(&session.engine);
    peaks.observe(&last);
    (pass, peaks, last)
}

pub fn span_file(workload: Workload, seed: u64) -> PathBuf {
    scratch_root()
        .join("spans")
        .join(format!("{}.{seed}.csv", workload.name()))
}

fn write_spans(path: &PathBuf, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "layer,event_seq,start_ns,end_ns,parent")?;
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            out,
            "{},{},{},{},{parent}",
            s.layer.name(),
            s.event_seq,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

/// One traced round's per-layer values.
type Values = Vec<(&'static str, Option<f64>)>;

fn traced_round(
    request: Request,
    reference: &Reference,
    scratch: &Scratch,
    tally: &mut Tally,
    last_spans: &mut Vec<Span>,
) -> Result<Values, String> {
    let Request { workload, seed, .. } = request;
    let mut v: Values = Vec::new();

    // Untraced pass: the engine's per-event time, and the base of the
    // tracing overhead.
    let (input, mut session, _) = timed_setup(workload, seed, false, scratch)?;
    let untraced = throughput_pass(workload, &input, &mut session, PREFIX_EVENTS);
    judge(
        workload,
        &input,
        &session,
        &untraced,
        reference.full,
        Some(reference.lines),
        tally,
    );
    drop(session);
    let events = input.events.len() as f64;
    let engine_ns = untraced.wall_ns as f64 / events;
    v.push(("engine.ingest_ns_per_event", Some(engine_ns)));

    // Untraced latency pass, for the tail of one `ingest` call.
    let mut session = Session::open(workload, &input, false, scratch.path())?;
    let upto = latency_events(workload, &input);
    let mut per_call = latency_pass(workload, &input, &mut session, upto);
    let lines = (upto == input.events.len()).then_some(reference.lines);
    let expected = reference.latency(workload, &input);
    judge(
        workload, &input, &session, &per_call, expected, lines, tally,
    );
    drop(session);
    per_call.latencies.sort_unstable();
    let p99_us = f64::from(percentile_sorted(&per_call.latencies, 0.99)) / 1e3;
    v.push(("engine.ingest_p99_us", Some(p99_us)));

    // Group B: traced pass.
    let mut session = Session::open(workload, &input, true, scratch.path())?;
    let (traced, peaks, snap) = traced_pass(workload, &input, &mut session);
    let log_bytes: u64 = session
        .logs
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum();
    v.push((
        "telemetry.overhead_ratio",
        Some(traced.throughput_eps() / untraced.throughput_eps()),
    ));
    let wall = traced.wall_ns as f64;
    let stages = json::items(&snap, "stages");
    let stage = |name: &str, field: &str| {
        stages
            .iter()
            .find(|s| s.get_field("name").and_then(Value::as_str) == Some(name))
            .and_then(|s| json::num(s, field))
    };
    for (metric, name) in [
        ("stage.ingest_front_share", "ingest_front"),
        ("stage.local_search_share", "local_search"),
        ("stage.join_climb_share", "join_climb"),
        ("stage.shard_routing_share", "shard_routing"),
        ("stage.fan_in_drain_share", "fan_in_drain"),
        ("stage.expiry_sweep_share", "expiry_sweep"),
        ("stage.delivery_flush_share", "delivery_flush"),
    ] {
        v.push((metric, stage(name, "sum_ns").map(|ns| ns / wall)));
    }
    v.push((
        "stage.expiry_sweep_p99_us",
        stage("expiry_sweep", "p99_ns").map(|ns| ns / 1e3),
    ));
    v.push((
        "stage.delivery_flush_p99_us",
        stage("delivery_flush", "p99_ns").map(|ns| ns / 1e3),
    ));

    let queries = json::items(&snap, "queries");
    let per_event = |x: Option<f64>| x.map(|x| x / events);
    let ratio = |num: Option<f64>, den: Option<f64>| match (num, den) {
        (Some(n), Some(d)) if d > 0.0 => Some(n / d),
        _ => None,
    };
    let candidates = sum_over(queries, "metrics.local_search_candidates");
    v.push((
        "local_search.ns_per_event",
        per_event(stage("local_search", "sum_ns")),
    ));
    v.push(("local_search.candidates_per_event", per_event(candidates)));
    v.push((
        "local_search.hit_ratio",
        ratio(sum_over(queries, "metrics.primitive_matches"), candidates),
    ));
    v.push((
        "match_store.join_hit_ratio",
        ratio(
            sum_over(queries, "metrics.joins_succeeded"),
            sum_over(queries, "metrics.joins_attempted"),
        ),
    ));
    v.push(("match_store.live_matches_peak", Some(peaks.live_matches)));

    let engine = |key: &str| json::num(&snap, &format!("engine.{key}"));
    let plus = |a: Option<f64>, b: Option<f64>| Some(a? + b.unwrap_or(0.0));
    v.push((
        "shared_index.dedup_ratio",
        ratio(
            plus(
                engine("subscribed_primitives"),
                engine("subscribed_subtrees"),
            ),
            plus(engine("distinct_primitives"), engine("distinct_subtrees")),
        ),
    ));
    v.push((
        "shared_index.searches_saved_share",
        ratio(
            engine("searches_saved"),
            plus(engine("searches_saved"), engine("shared_searches_run")),
        ),
    ));
    v.push((
        "shared_index.fanout_deliveries_per_event",
        per_event(engine("fanout_deliveries")),
    ));
    v.push((
        "shared_index.lifted_dispatch_hits_per_event",
        per_event(engine("lifted_dispatch_hits")),
    ));
    let per_call_us = |t: CallTimer| (t.calls > 0).then(|| t.ns as f64 / 1e3 / t.calls as f64);
    v.push((
        "shared_index.register_us_per_query",
        per_call_us(session.register),
    ));
    v.push((
        "shared_index.deregister_us_per_query",
        per_call_us(session.deregister),
    ));

    let shard_sets = json::items(&snap, "shards");
    let shards: Vec<Value> = shard_sets
        .iter()
        .flat_map(|set| json::items(set, "shards").to_vec())
        .collect();
    v.push((
        "parallel.items_routed_per_event",
        per_event(sum_over(&shards, "items_routed")),
    ));
    v.push((
        "parallel.handoffs_per_event",
        per_event(sum_over(&shards, "handoffs_out")),
    ));
    v.push((
        "parallel.shard_skew",
        shard_sets.first().and_then(|s| json::num(s, "skew")),
    ));

    v.push((
        "rpq.expansions_per_event",
        per_event(sum_over(queries, "metrics.rpq_expansions")),
    ));
    v.push(("rpq.tree_nodes_live_peak", Some(peaks.rpq_nodes)));
    v.push(("rpq.accepts", sum_over(queries, "metrics.rpq_accepts")));

    let durable = !session.logs.is_empty();
    v.push((
        "delivery.flush_ns_per_match",
        ratio(
            stage("delivery_flush", "sum_ns"),
            durable.then_some(traced.fold.count as f64),
        ),
    ));
    v.push((
        "delivery.attempts",
        engine("delivery_attempts").filter(|_| durable),
    ));
    v.push((
        "delivery.retries",
        engine("delivery_retries").filter(|_| durable),
    ));
    v.push((
        "delivery.bytes_written",
        durable.then_some(log_bytes as f64),
    ));
    v.push((
        "delivery.cursor_lag_max",
        durable.then_some(peaks.cursor_lag),
    ));

    // Checkpoint of the traced engine's final state, outside every timed pass.
    if matches!(workload, Workload::JoinHot | Workload::FanoutDurable) {
        let start = Instant::now();
        let checkpoint = EngineCheckpoint::capture(&session.engine);
        let saved = checkpoint.to_json().map_err(|e| e.to_string())?;
        v.push((
            "checkpoint.capture_ms",
            Some(start.elapsed().as_secs_f64() * 1e3),
        ));
        v.push(("checkpoint.bytes", Some(saved.len() as f64)));
        let start = Instant::now();
        let restored = EngineCheckpoint::load(&saved)
            .map_err(|e| e.to_string())?
            .restore();
        v.push((
            "checkpoint.restore_ms",
            Some(start.elapsed().as_secs_f64() * 1e3),
        ));
        drop(restored);
    }
    judge(
        workload,
        &input,
        &session,
        &traced,
        reference.full,
        Some(reference.lines),
        tally,
    );
    remove_logs(&session.logs);
    drop(session);

    // Group A: replay through the bare layers.
    let plans: Vec<QueryPlan> = {
        let start = Instant::now();
        let plans: Vec<QueryPlan> = input.queries.iter().filter_map(QuerySpec::plan).collect();
        let us = start.elapsed().as_secs_f64() * 1e6;
        v.push((
            "query.plan_us_per_query",
            (!plans.is_empty()).then(|| us / plans.len() as f64),
        ));
        plans
    };
    let single_query = matches!(
        workload,
        Workload::SingleNews
            | Workload::JoinHot
            | Workload::JoinHotSharded
            | Workload::FanoutDurable
    );
    let plan = plans.first().filter(|_| single_query);
    let join_hot = matches!(workload, Workload::JoinHot | Workload::JoinHotSharded);
    let replayed = replay(&input, plan, join_hot);
    let totals = self_times(&replayed.spans);
    let n = replayed.events as f64;
    // Self time of a layer per replayed event, less the recorder's own cost.
    let self_ns = |layer: Layer| {
        let (ns, spans) = totals[layer as usize];
        (ns as f64 - spans as f64 * replayed.span_overhead_ns).max(0.0)
    };
    let per_replayed = |layer: Layer| self_ns(layer) / n;
    v.push((
        "graph.ingest_ns_per_event",
        Some(per_replayed(Layer::GraphIngest)),
    ));
    v.push((
        "graph.live_edges_peak",
        Some(replayed.live_edges_peak as f64),
    ));
    v.push((
        "summarize.observe_ns_per_event",
        Some(per_replayed(Layer::SummarizeObserve)),
    ));
    v.push((
        "sj_matcher.process_edge_ns_per_event",
        plan.map(|_| per_replayed(Layer::ProcessEdge)),
    ));
    v.push((
        "sj_matcher.prune_ns_per_event",
        plan.map(|_| per_replayed(Layer::Prune)),
    ));
    v.push((
        "event.render_ns_per_match",
        (replayed.rendered > 0).then(|| {
            (self_ns(Layer::FromMatch) + self_ns(Layer::Render)) / replayed.rendered as f64
        }),
    ));
    // What `process_event_inner` adds over the bare layers. Without a durable
    // subscriber the engine builds each `MatchEvent` but never renders it, so
    // the render spans stay out of the sum.
    let layers_ns: f64 = [
        Layer::GraphIngest,
        Layer::SummarizeObserve,
        Layer::ProcessEdge,
        Layer::Prune,
        Layer::FromMatch,
    ]
    .into_iter()
    .map(per_replayed)
    .sum();
    let whole_engine = plan.is_some() && workload != Workload::FanoutDurable;
    v.push((
        "engine.residual_share",
        whole_engine.then(|| 1.0 - layers_ns / engine_ns),
    ));
    let (probe, expire) = match plan.filter(|_| join_hot) {
        Some(plan) => store_loops(plan, replayed.store_ops),
        None => (None, None),
    };
    v.push(("match_store.probe_insert_ns_per_op", probe));
    v.push(("match_store.expire_ns_per_match", expire));
    *last_spans = replayed.spans;

    // `parallel`: the same input through the unsharded engine, and the seed's
    // 256-batch loss.
    if workload == Workload::JoinHotSharded {
        let mut session = Session::open(Workload::JoinHot, &input, false, scratch.path())?;
        // Same batch size on both sides (`join_hot` itself is timed with 256).
        let inprocess = throughput_pass_observed(
            Workload::JoinHot,
            &input,
            &mut session,
            workload.batch(),
            PREFIX_EVENTS,
            usize::MAX,
            |_| {},
        );
        drop(session);
        v.push((
            "parallel.vs_inprocess_ratio",
            Some(untraced.throughput_eps() / inprocess.throughput_eps()),
        ));
        let probe = batch256_probe(&input, reference.full, scratch)?;
        v.push(("parallel.batch256_loss_share", Some(probe.failed_share())));
    }
    Ok(v)
}

/// Why a per-layer metric has no value on a workload.
fn absent_reason(metric: &str, workload: Workload) -> String {
    let w = workload.name();
    let layer = metric.split('.').next().unwrap_or(metric);
    match (layer, metric) {
        ("parallel", _) => format!("{w} runs unsharded: nothing is routed"),
        ("rpq", _) => format!("{w} registers no regular path query"),
        ("delivery", _) => format!("{w} has no durable subscription"),
        ("checkpoint", _) => "taken on join_hot and fanout_durable only".to_owned(),
        ("query", _) => format!("{w} plans no SJ-Tree query"),
        (_, "engine.residual_share") => {
            format!("the bare-layer replay covers one SJ-Tree query and no delivery, not all of {w}")
        }
        (_, "match_store.probe_insert_ns_per_op" | "match_store.expire_ns_per_match") => {
            "the isolated store loops repeat the join keys of join_hot".to_owned()
        }
        ("sj_matcher" | "event", _) => {
            format!("the bare-layer replay of {w} has no single SJ-Tree query, or it emitted no match")
        }
        _ => format!("the layer did no work on {w}, or its key is missing from telemetry_snapshot().to_json()"),
    }
}

pub fn run_traced(request: Request) -> Result<Outcome, String> {
    let Request {
        workload,
        seed,
        seconds,
    } = request;
    if workload.pinned() {
        pin_to_last_cpu();
    }
    let scratch = Scratch::create().map_err(|e| format!("scratch directory: {e}"))?;
    let (reference, source) = reference_for(workload, seed, &workload.generate(seed), &scratch)?;
    let mut tally = Tally::default();
    let mut rounds: Vec<Values> = Vec::new();
    let mut spans = Vec::new();
    let started = Instant::now();
    loop {
        let round = Instant::now();
        rounds.push(traced_round(
            request, &reference, &scratch, &mut tally, &mut spans,
        )?);
        if started.elapsed().as_secs_f64() + round.elapsed().as_secs_f64() > seconds {
            break;
        }
    }
    let path = span_file(workload, seed);
    write_spans(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;

    let mut outcome = Outcome {
        tally,
        ..Outcome::default()
    };
    for metric in &PER_LAYER {
        let values: Vec<f64> = rounds
            .iter()
            .flatten()
            .filter(|(name, _)| *name == metric.name)
            .filter_map(|(_, value)| *value)
            .filter(|value| value.is_finite())
            .collect();
        if values.is_empty() {
            outcome
                .notes
                .insert(metric.name, absent_reason(metric.name, workload));
            outcome.metrics.insert(metric.name, None);
        } else {
            outcome.metrics.insert(metric.name, Some(median(&values)));
        }
    }
    outcome.facts = vec![
        ("rounds".into(), rounds.len().to_string()),
        ("span_file".into(), path.display().to_string()),
        ("spans".into(), spans.len().to_string()),
        (
            "replayed_events".into(),
            REPLAY_EVENTS.min(reference.events).to_string(),
        ),
        ("reference".into(), source.to_owned()),
    ];
    Ok(outcome)
}
