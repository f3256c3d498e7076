//! The CLI subcommands.
//!
//! Every command is a plain function from parsed [`Options`] to the text it
//! would print, so the behaviour is unit-testable without spawning processes;
//! `main` only dispatches and prints.

use std::fmt;
use std::path::Path;

use crate::options::{OptionError, Options};
use streamworks_core::{
    ContinuousQueryEngine, EngineError, MatchEvent, MetricsRegistry, RetryPolicy,
    ShardFailurePolicy, SinkSpec, TelemetryLevel,
};
use streamworks_query::{
    estimate_shape_cost, BalancedPairs, CostBasedOrdered, DecompositionStrategy, LeftDeepEdgeChain,
    Planner, QueryError, QueryGraph, SelectivityEstimator, SelectivityOrdered, TreeShapeKind,
    TriadWedges,
};
use streamworks_report::{
    query_graph_to_dot, sjtree_to_dot, summary_report, EventTable, EventTableSpec, Table,
};
use streamworks_workloads::{
    read_trace_file, write_trace_file, CitationChainGenerator, CitationConfig, CyberConfig,
    CyberTrafficGenerator, LateralMovementConfig, LateralMovementGenerator, NewsConfig,
    NewsStreamGenerator, RandomConfig, TraceError,
};

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// Unknown or missing subcommand.
    Usage(String),
    /// Option parsing / validation failed.
    Options(OptionError),
    /// A query file could not be parsed.
    Query(QueryError),
    /// The engine rejected a registration or configuration.
    Engine(EngineError),
    /// A trace could not be read or written.
    Trace(TraceError),
    /// Filesystem access failed.
    Io(std::io::Error),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Options(e) => write!(f, "{e}"),
            CliError::Query(e) => write!(f, "query error: {e}"),
            CliError::Engine(e) => write!(f, "engine error: {e}"),
            CliError::Trace(e) => write!(f, "trace error: {e}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<OptionError> for CliError {
    fn from(e: OptionError) -> Self {
        CliError::Options(e)
    }
}
impl From<QueryError> for CliError {
    fn from(e: QueryError) -> Self {
        CliError::Query(e)
    }
}
impl From<EngineError> for CliError {
    fn from(e: EngineError) -> Self {
        CliError::Engine(e)
    }
}
impl From<TraceError> for CliError {
    fn from(e: TraceError) -> Self {
        CliError::Trace(e)
    }
}
impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// Usage text shown for `--help`, no arguments or unknown subcommands.
pub fn usage() -> String {
    "\
streamworks-cli — continuous graph-pattern search over dynamic graphs

USAGE:
  streamworks-cli <command> [options]

COMMANDS:
  generate   --kind cyber|news|random|lateral|citations --out <trace.jsonl>
             [--edges N] [--seed N]
             Generate a synthetic edge trace (JSON lines). `lateral` plants
             multi-hop intrusion chains (login flow* exploit), `citations`
             plants article citation chains — both targets for RPQ queries.
  plan       --query <q.swq> [--trace <trace.jsonl>] [--strategy <name>]
             [--tree left-deep|balanced] [--dot-query <f>] [--dot-tree <f>]
             Parse a DSL query, plan it (optionally against trace statistics)
             and print the SJ-Tree plan with its cost estimate.
  run        --query <q.swq> [--query <q2.swq> ...] --trace <trace.jsonl>
             [--strategy <name>] [--batch N] [--limit N] [--shards N]
             [--failure-policy fail-fast|degrade] [--channel-capacity N]
             [--no-share] [--csv <out.csv>] [--jsonl <out>]
             [--durable-sink <path.log>] [--retry-policy <spec>]
             Register the queries and replay the trace in batches of N events
             (default 1024), printing the event table and per-query metrics.
             --shards N > 1 spreads each query's match state over N worker
             threads (join-key sharding); results are identical to --shards 1.
             --failure-policy picks what a crashed shard worker does to the
             run: fail-fast (default) aborts with a structured error, degrade
             transplants the dead shard's state onto survivors and keeps
             replaying. --channel-capacity bounds the routing channels
             (backpressure instead of unbounded queues).
             Structurally identical leaf primitives across the registered
             queries share one local search per event (the summary reports
             the dedup ratio and searches saved); --no-share disables the
             shared index. Results are identical either way.
             Query files starting with `RPQ` are registered as windowed
             regular path queries (`RPQ <name> WINDOW <dur> PATH <regex>`)
             instead of fixed-shape SJ-Tree patterns; both kinds can be
             mixed in one run.
             --durable-sink appends every match to a durable log file with
             an acknowledged delivery cursor (one file per query: the path
             as given for a single query, `<path>.q<id>` each when several
             are registered). --retry-policy governs delivery retries:
             `default` (4 attempts, capped exponential backoff), `none`
             (one strike quarantines), or `max,base-ms,cap-ms,timeout-ms`.
             --telemetry samples per-stage latency histograms and trace
             spans (every 64th event; tune with --sample-every N).
             --metrics-json replaces the human summary with the full
             telemetry snapshot as JSON; --metrics-every N prints a compact
             metrics line after every N batches (both imply --telemetry).
  stats      --query <q.swq> [--query <q2.swq> ...] --trace <trace.jsonl>
             [--strategy <name>] [--batch N] [--shards N] [--sample-every N]
             [--json]
             Replay the trace with telemetry enabled and print the unified
             metrics registry in Prometheus text format (or JSON with
             --json): event counters, per-stage latency histograms,
             per-query match counters, shard skew and delivery lag.
  summarize  --trace <trace.jsonl> [--triads N]
             Ingest the trace and print the graph statistics report.

STRATEGIES: selectivity (default), cost, triads, blind, balanced-pairs
"
    .to_owned()
}

fn strategy_by_name(name: &str) -> Result<Box<dyn DecompositionStrategy>, CliError> {
    match name {
        "selectivity" | "selectivity-ordered" => Ok(Box::new(SelectivityOrdered::default())),
        "cost" | "cost-based" => Ok(Box::new(CostBasedOrdered::default())),
        "triads" | "triad-wedges" => Ok(Box::new(TriadWedges::default())),
        "blind" | "edge-chain" | "left-deep-edge-chain" => Ok(Box::new(LeftDeepEdgeChain)),
        "balanced-pairs" => Ok(Box::new(BalancedPairs)),
        other => Err(CliError::Usage(format!(
            "unknown strategy `{other}` (expected selectivity, cost, triads, blind or balanced-pairs)"
        ))),
    }
}

fn tree_kind_by_name(name: &str) -> Result<TreeShapeKind, CliError> {
    match name {
        "left-deep" | "leftdeep" => Ok(TreeShapeKind::LeftDeep),
        "balanced" => Ok(TreeShapeKind::Balanced),
        other => Err(CliError::Usage(format!(
            "unknown tree shape `{other}` (expected left-deep or balanced)"
        ))),
    }
}

/// Parses a `--retry-policy` value: a named preset (`default`, `none`) or
/// four comma-separated numbers `max,base-ms,cap-ms,timeout-ms`.
fn retry_policy_by_spec(spec: &str) -> Result<RetryPolicy, CliError> {
    let invalid = |message: String| {
        CliError::Options(OptionError::Invalid {
            flag: "retry-policy".into(),
            message,
        })
    };
    match spec {
        "default" => Ok(RetryPolicy::default()),
        "none" => Ok(RetryPolicy::none()),
        numbers => {
            let parts: Vec<&str> = numbers.split(',').collect();
            if parts.len() != 4 {
                return Err(invalid(format!(
                    "expected `default`, `none` or `max,base-ms,cap-ms,timeout-ms`, got `{spec}`"
                )));
            }
            let mut n = parts.iter().map(|p| {
                p.trim()
                    .parse::<u64>()
                    .map_err(|_| invalid(format!("`{p}` is not a number in `{spec}`")))
            });
            let max_attempts = u32::try_from(n.next().unwrap()?)
                .map_err(|_| invalid(format!("attempt count out of range in `{spec}`")))?;
            Ok(RetryPolicy {
                max_attempts,
                backoff_base_ms: n.next().unwrap()?,
                backoff_cap_ms: n.next().unwrap()?,
                attempt_timeout_ms: n.next().unwrap()?,
            })
        }
    }
}

fn load_query(path: &str) -> Result<QueryGraph, CliError> {
    let text = std::fs::read_to_string(Path::new(path))?;
    Ok(streamworks_query::parse_query(&text)?)
}

/// `true` if the query text is in the RPQ dialect (`RPQ <name> ... PATH ...`)
/// rather than the fixed-shape `QUERY ... MATCH ...` DSL.
fn is_rpq_text(text: &str) -> bool {
    text.lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with('#'))
        .is_some_and(|l| l.starts_with("RPQ"))
}

/// Ingests a trace into a fresh engine (no queries registered) so its summary
/// and type interner can back statistics-driven planning.
fn engine_from_trace(path: &str) -> Result<ContinuousQueryEngine, CliError> {
    let events = read_trace_file(path)?;
    let mut engine = ContinuousQueryEngine::builder().build()?;
    engine.ingest(&events)?;
    Ok(engine)
}

// ---------------------------------------------------------------------------
// generate
// ---------------------------------------------------------------------------

/// `generate`: write a synthetic trace.
pub fn cmd_generate(opts: &Options) -> Result<String, CliError> {
    let kind = opts.value("kind").unwrap_or("cyber");
    let out = opts.require("out")?;
    let edges: usize = opts.parse_or("edges", 20_000)?;
    let seed: u64 = opts.parse_or("seed", 7)?;
    let events = match kind {
        "cyber" => {
            let config = CyberConfig {
                hosts: (edges / 40).max(16),
                background_edges: edges,
                seed,
                ..Default::default()
            };
            CyberTrafficGenerator::new(config).generate().events
        }
        "news" => {
            let config = NewsConfig {
                articles: (edges / 5).max(10),
                seed,
                ..Default::default()
            };
            NewsStreamGenerator::new(config).generate().events
        }
        "random" => streamworks_workloads::uniform_stream(&RandomConfig {
            edges,
            vertices: (edges / 10).max(10),
            seed,
            ..Default::default()
        }),
        "lateral" => {
            let config = LateralMovementConfig {
                hosts: (edges / 40).max(16),
                background_edges: edges,
                seed,
                ..Default::default()
            };
            LateralMovementGenerator::new(config).generate().events
        }
        "citations" => {
            let config = CitationConfig {
                articles: (edges / 10).max(10),
                background_edges: edges,
                seed,
                ..Default::default()
            };
            CitationChainGenerator::new(config).generate().events
        }
        other => {
            return Err(CliError::Usage(format!(
            "unknown workload kind `{other}` (expected cyber, news, random, lateral or citations)"
        )))
        }
    };
    let written = write_trace_file(out, events.iter())?;
    Ok(format!("wrote {written} events ({kind}) to {out}\n"))
}

// ---------------------------------------------------------------------------
// plan
// ---------------------------------------------------------------------------

/// `plan`: show the SJ-Tree plan and cost estimate for a DSL query.
pub fn cmd_plan(opts: &Options) -> Result<String, CliError> {
    let query = load_query(opts.require("query")?)?;
    let strategy = strategy_by_name(opts.value("strategy").unwrap_or("selectivity"))?;
    let tree_kind = tree_kind_by_name(opts.value("tree").unwrap_or("left-deep"))?;

    let mut out = String::new();
    let engine = match opts.value("trace") {
        Some(path) => Some(engine_from_trace(path)?),
        None => None,
    };
    let (plan, cost_text) = match &engine {
        Some(engine) => {
            let planner = Planner::new()
                .with_statistics(engine.summary(), engine.graph())
                .tree_kind(tree_kind);
            let plan = planner.plan_with(query, strategy.as_ref())?;
            let estimator = SelectivityEstimator::with_summary(engine.summary(), engine.graph());
            let cost = estimate_shape_cost(&plan.query, &estimator, &plan.shape);
            let rendered = cost.render(&plan.query);
            (plan, rendered)
        }
        None => {
            let planner = Planner::new().tree_kind(tree_kind);
            let plan = planner.plan_with(query, strategy.as_ref())?;
            let estimator = SelectivityEstimator::without_summary();
            let cost = estimate_shape_cost(&plan.query, &estimator, &plan.shape);
            let rendered = cost.render(&plan.query);
            (plan, rendered)
        }
    };

    out.push_str(&plan.explain());
    out.push_str("\ncost estimate");
    out.push_str(if engine.is_some() {
        " (from trace statistics):\n"
    } else {
        " (structural fallback, no statistics):\n"
    });
    out.push_str(&cost_text);

    if let Some(path) = opts.value("dot-query") {
        std::fs::write(path, query_graph_to_dot(&plan.query))?;
        out.push_str(&format!("wrote query DOT to {path}\n"));
    }
    if let Some(path) = opts.value("dot-tree") {
        std::fs::write(path, sjtree_to_dot(&plan.query, &plan.shape))?;
        out.push_str(&format!("wrote SJ-Tree DOT to {path}\n"));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// run
// ---------------------------------------------------------------------------

/// `run`: register queries and replay a trace through the engine, ingesting
/// at batch granularity (`--batch`, default 1024 events per ingest call).
pub fn cmd_run(opts: &Options) -> Result<String, CliError> {
    let query_paths = opts.values("query");
    if query_paths.is_empty() {
        return Err(CliError::Options(OptionError::MissingFlag("query".into())));
    }
    let trace = opts.require("trace")?;
    let strategy = strategy_by_name(opts.value("strategy").unwrap_or("selectivity"))?;
    let tree_kind = tree_kind_by_name(opts.value("tree").unwrap_or("left-deep"))?;
    let limit: usize = opts.parse_or("limit", 50)?;
    let batch: usize = opts.parse_or("batch", 1024)?;
    if batch == 0 {
        return Err(CliError::Options(OptionError::Invalid {
            flag: "batch".into(),
            message: "batch size must be positive".into(),
        }));
    }
    let shards: usize = opts.parse_or("shards", 1)?;
    if shards == 0 {
        return Err(CliError::Options(OptionError::Invalid {
            flag: "shards".into(),
            message: "shard count must be positive (1 = single-threaded matching)".into(),
        }));
    }
    let policy = match opts.value("failure-policy").unwrap_or("fail-fast") {
        "fail-fast" | "failfast" => ShardFailurePolicy::FailFast,
        "degrade" => ShardFailurePolicy::Degrade,
        other => {
            return Err(CliError::Options(OptionError::Invalid {
                flag: "failure-policy".into(),
                message: format!("unknown policy `{other}` (expected fail-fast or degrade)"),
            }))
        }
    };
    let channel_capacity: usize = opts.parse_or("channel-capacity", 1024)?;
    let retry_policy = match opts.value("retry-policy") {
        Some(spec) => retry_policy_by_spec(spec)?,
        None => RetryPolicy::default(),
    };
    let metrics_every: usize = opts.parse_or("metrics-every", 0)?;
    let telemetry_on = opts.has("telemetry") || opts.has("metrics-json") || metrics_every > 0;
    let sample_every: u64 = opts.parse_or("sample-every", 64)?;

    let mut engine = ContinuousQueryEngine::builder()
        .shards(shards)
        .shard_failure_policy(policy)
        .channel_capacity(channel_capacity)
        .shared_matching(!opts.has("no-share"))
        .retry_policy(retry_policy)
        .telemetry_level(if telemetry_on {
            TelemetryLevel::Sampled
        } else {
            TelemetryLevel::Off
        })
        .telemetry_sample_every(sample_every)
        .build()?;
    let mut spec = EventTableSpec::standard();
    let mut handles = Vec::new();
    for path in query_paths {
        let text = std::fs::read_to_string(Path::new(path))?;
        let (handle, name) = if is_rpq_text(&text) {
            let rpq = streamworks_query::parse_rpq(&text)?;
            let name = rpq.name().to_owned();
            (engine.register_rpq(rpq), name)
        } else {
            let query = streamworks_query::parse_query(&text)?;
            let name = query.name().to_owned();
            let handle = engine.register_query_with(query, strategy.as_ref(), tree_kind)?;
            (handle, name)
        };
        handles.push(handle);
        spec = spec.label(handle.id(), name);
    }

    // One delivery log per query: a shared file would race the per-cursor
    // truncation each subscription performs on (re)connect.
    let mut durable_logs = Vec::new();
    if let Some(base) = opts.value("durable-sink") {
        for handle in &handles {
            let path = if handles.len() == 1 {
                base.to_owned()
            } else {
                format!("{base}.q{}", handle.id().0)
            };
            engine.subscribe_durable(*handle, SinkSpec::LogFile { path: path.clone() })?;
            durable_logs.push(path);
        }
    }

    let events = read_trace_file(trace)?;
    let mut matches: Vec<MatchEvent> = Vec::new();
    let mut degraded_shards: Vec<String> = Vec::new();
    let mut periodic: Vec<String> = Vec::new();
    for (batch_no, chunk) in events.chunks(batch).enumerate() {
        match engine.ingest(chunk) {
            Ok(batch_matches) => matches.extend(batch_matches),
            Err(EngineError::ShardFailed {
                shard,
                message,
                degraded: true,
            }) => {
                // Under --failure-policy degrade the run keeps going; the
                // faulted batch's matches were still delivered to any
                // subscribed sinks, only this return value is forfeited.
                degraded_shards.push(format!("shard {shard}: {message}"));
            }
            Err(e) => return Err(e.into()),
        }
        if metrics_every > 0 && (batch_no + 1) % metrics_every == 0 {
            periodic.push(metrics_line(batch_no + 1, &engine.telemetry_snapshot()));
        }
    }
    // Final delivery pass: give every durable subscriber a fresh attempt so
    // the run does not exit with acknowledgeable matches still in an outbox.
    let undelivered = engine.flush_deliveries();

    let table = EventTable::build(&spec, &matches);
    let mut out = String::new();
    out.push_str(&format!(
        "replayed {} events in batches of {}{}, {} matches across {} queries\n\n",
        events.len(),
        batch,
        if shards > 1 {
            format!(" on {shards} shards per query")
        } else {
            String::new()
        },
        matches.len(),
        engine.query_count()
    ));
    for line in &periodic {
        out.push_str(line);
        out.push('\n');
    }
    if !periodic.is_empty() {
        out.push('\n');
    }
    let shown = EventTable::build(&spec, &matches[..matches.len().min(limit)]);
    out.push_str(&shown.render());
    if matches.len() > limit {
        out.push_str(&format!("... ({} more rows)\n", matches.len() - limit));
    }

    out.push_str("\nper-query metrics:\n");
    let mut metrics_table = Table::new([
        "query",
        "edges",
        "partial_inserted",
        "partial_live",
        "lazy_materialisations",
        "merges_skipped_cold",
        "joins",
        "complete",
        "spills",
    ]);
    let all_metrics = engine.all_metrics();
    let mut spilled: Vec<String> = Vec::new();
    for (handle, m) in &all_metrics {
        let name = engine
            .plan(*handle)
            .map(|p| p.query.name().to_owned())
            .or_else(|_| engine.rpq_query(*handle).map(|q| q.name().to_owned()))
            .unwrap_or_else(|_| format!("q{}", handle.id().0));
        if m.binding_spills > 0 {
            spilled.push(name.clone());
        }
        metrics_table.add_row([
            name,
            m.edges_processed.to_string(),
            m.partial_matches_inserted.to_string(),
            m.partial_matches_live.to_string(),
            m.lazy_materialisations.to_string(),
            m.merges_skipped_cold.to_string(),
            m.joins_attempted.to_string(),
            m.complete_matches.to_string(),
            m.binding_spills.to_string(),
        ]);
    }
    out.push_str(&metrics_table.render());
    // Routing balance per sharded query: items routed to the busiest shard
    // over the per-shard mean. 1.0 is perfectly even; past 2.0 one worker is
    // doing more than double its share and the join keys hash poorly.
    if shards > 1 {
        for set in &engine.telemetry_snapshot().shards {
            out.push_str(&format!(
                "shard skew: {} = {:.2} (max/mean items routed){}\n",
                set.query,
                set.skew,
                if set.skew > 2.0 { "  [imbalanced]" } else { "" },
            ));
        }
    }
    let em = engine.engine_metrics();
    if em.subscribed_primitives > 0 {
        out.push_str(&format!(
            "shared primitive index: {} distinct / {} subscribed ({:.1}x dedup), \
             {} searches run, {} saved\n",
            em.distinct_primitives,
            em.subscribed_primitives,
            em.dedup_ratio(),
            em.shared_searches_run,
            em.searches_saved,
        ));
    }
    if !durable_logs.is_empty() {
        out.push_str(&format!(
            "durable delivery: {} attempts, {} retries, {} recoveries, \
             {} unacknowledged (cursor lag)\n",
            em.delivery_attempts, em.delivery_retries, em.delivery_recoveries, em.cursor_lag,
        ));
        for path in &durable_logs {
            out.push_str(&format!("  delivery log: {path}\n"));
        }
        if undelivered > 0 {
            out.push_str(&format!(
                "warning: {undelivered} match(es) remain undelivered (sink degraded \
                 or quarantined); rerun resumes from each cursor\n"
            ));
        }
    }
    if !degraded_shards.is_empty() {
        out.push_str(&format!(
            "warning: {} shard worker(s) failed and were quarantined (state \
             transplanted onto survivors):\n",
            degraded_shards.len()
        ));
        for line in &degraded_shards {
            out.push_str(&format!("  {line}\n"));
        }
    }
    if !spilled.is_empty() {
        out.push_str(&format!(
            "note: {} exceeded the inline hot-path capacities (>8 vertices or >6 edges); \
             each of their partial matches heap-allocates\n",
            spilled.join(", ")
        ));
    }

    if let Some(path) = opts.value("csv") {
        std::fs::write(path, table.to_csv())?;
        out.push_str(&format!("wrote event CSV to {path}\n"));
    }
    if let Some(path) = opts.value("jsonl") {
        std::fs::write(path, table.to_json_lines())?;
        out.push_str(&format!("wrote event JSON lines to {path}\n"));
    }
    if opts.has("metrics-json") {
        // Machine mode: the snapshot document replaces the human summary
        // (side effects above — csv/jsonl/durable logs — still happen).
        return Ok(format!(
            "{}\n",
            MetricsRegistry::gather(&engine).to_json_pretty()
        ));
    }
    Ok(out)
}

/// One compact progress line for `run --metrics-every N`: cumulative event
/// counters plus the sampled p50 of every stage that has observations.
fn metrics_line(batch_no: usize, snap: &streamworks_core::TelemetrySnapshot) -> String {
    let mut line = format!(
        "[metrics @ batch {batch_no}] ingested={} emitted={}",
        snap.events_ingested, snap.events_emitted
    );
    for stage in &snap.stages {
        if stage.count > 0 {
            line.push_str(&format!(" {}.p50={}ns", stage.name, stage.p50_ns));
        }
    }
    line
}

// ---------------------------------------------------------------------------
// stats
// ---------------------------------------------------------------------------

/// `stats`: replay a trace with telemetry forced on and print the unified
/// metrics registry — Prometheus text by default, JSON with `--json`.
pub fn cmd_stats(opts: &Options) -> Result<String, CliError> {
    let query_paths = opts.values("query");
    if query_paths.is_empty() {
        return Err(CliError::Options(OptionError::MissingFlag("query".into())));
    }
    let trace = opts.require("trace")?;
    let strategy = strategy_by_name(opts.value("strategy").unwrap_or("selectivity"))?;
    let tree_kind = tree_kind_by_name(opts.value("tree").unwrap_or("left-deep"))?;
    let batch: usize = opts.parse_or("batch", 1024)?;
    if batch == 0 {
        return Err(CliError::Options(OptionError::Invalid {
            flag: "batch".into(),
            message: "batch size must be positive".into(),
        }));
    }
    let shards: usize = opts.parse_or("shards", 1)?;
    if shards == 0 {
        return Err(CliError::Options(OptionError::Invalid {
            flag: "shards".into(),
            message: "shard count must be positive (1 = single-threaded matching)".into(),
        }));
    }
    let sample_every: u64 = opts.parse_or("sample-every", 64)?;

    let mut engine = ContinuousQueryEngine::builder()
        .shards(shards)
        .telemetry_level(TelemetryLevel::Sampled)
        .telemetry_sample_every(sample_every)
        .build()?;
    for path in query_paths {
        let text = std::fs::read_to_string(Path::new(path))?;
        if is_rpq_text(&text) {
            engine.register_rpq(streamworks_query::parse_rpq(&text)?);
        } else {
            let query = streamworks_query::parse_query(&text)?;
            engine.register_query_with(query, strategy.as_ref(), tree_kind)?;
        }
    }
    let events = read_trace_file(trace)?;
    for chunk in events.chunks(batch) {
        engine.ingest(chunk)?;
    }
    engine.flush_deliveries();

    let snapshot = MetricsRegistry::gather(&engine);
    Ok(if opts.has("json") {
        format!("{}\n", snapshot.to_json_pretty())
    } else {
        snapshot.to_prometheus()
    })
}

// ---------------------------------------------------------------------------
// summarize
// ---------------------------------------------------------------------------

/// `summarize`: print the statistics report for a trace.
pub fn cmd_summarize(opts: &Options) -> Result<String, CliError> {
    let trace = opts.require("trace")?;
    let triads: usize = opts.parse_or("triads", 10)?;
    let engine = engine_from_trace(trace)?;
    Ok(summary_report(engine.summary(), engine.graph(), triads))
}

// ---------------------------------------------------------------------------
// dispatch
// ---------------------------------------------------------------------------

/// Dispatches a full argument vector (excluding the binary name).
pub fn dispatch(args: &[String]) -> Result<String, CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::Usage(usage()));
    };
    if command == "--help" || command == "help" || command == "-h" {
        return Ok(usage());
    }
    let opts = Options::parse(&args[1..])?;
    match command.as_str() {
        "generate" => cmd_generate(&opts),
        "plan" => cmd_plan(&opts),
        "run" => cmd_run(&opts),
        "stats" => cmd_stats(&opts),
        "summarize" => cmd_summarize(&opts),
        other => Err(CliError::Usage(format!(
            "unknown command `{other}`\n\n{}",
            usage()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A scratch directory unique to this test process.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("streamworks-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn write_query(name: &str, text: &str) -> String {
        let path = scratch(name);
        std::fs::write(&path, text).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    const PAIR_QUERY: &str = "QUERY pair WINDOW 1h\n\
         MATCH (a1:Article)-[:mentions]->(k:Keyword), (a2:Article)-[:mentions]->(k)\n";

    #[test]
    fn usage_lists_all_commands() {
        let text = usage();
        for cmd in ["generate", "plan", "run", "stats", "summarize"] {
            assert!(text.contains(cmd));
        }
        assert_eq!(dispatch(&args(&["help"])).unwrap(), text);
        assert!(dispatch(&[]).is_err());
        assert!(dispatch(&args(&["frobnicate"])).is_err());
    }

    #[test]
    fn generate_then_summarize_round_trip() {
        let trace = scratch("news.jsonl").to_string_lossy().into_owned();
        let out = dispatch(&args(&[
            "generate", "--kind", "news", "--out", &trace, "--edges", "2000",
        ]))
        .unwrap();
        assert!(out.contains("wrote"));
        assert!(std::fs::metadata(&trace).unwrap().len() > 0);

        let report = dispatch(&args(&["summarize", "--trace", &trace])).unwrap();
        assert!(report.contains("type distribution"));
        assert!(report.contains("Article"));
    }

    #[test]
    fn plan_without_statistics_and_with_dot_export() {
        let query = write_query("pair.swq", PAIR_QUERY);
        let dot_tree = scratch("tree.dot").to_string_lossy().into_owned();
        let out = dispatch(&args(&[
            "plan",
            "--query",
            &query,
            "--strategy",
            "cost",
            "--dot-tree",
            &dot_tree,
        ]))
        .unwrap();
        assert!(out.contains("plan for query `pair`"));
        assert!(out.contains("cost-based"));
        assert!(out.contains("structural fallback"));
        let dot = std::fs::read_to_string(&dot_tree).unwrap();
        assert!(dot.starts_with("digraph"));
    }

    #[test]
    fn run_detects_matches_and_writes_csv() {
        // A tiny hand-written trace with two articles sharing a keyword.
        let trace_path = scratch("tiny.jsonl");
        let events = [
            streamworks_graph::EdgeEvent::new(
                "a1",
                "Article",
                "rust",
                "Keyword",
                "mentions",
                streamworks_graph::Timestamp::from_secs(1),
            ),
            streamworks_graph::EdgeEvent::new(
                "a2",
                "Article",
                "rust",
                "Keyword",
                "mentions",
                streamworks_graph::Timestamp::from_secs(2),
            ),
        ];
        streamworks_workloads::write_trace_file(&trace_path, events.iter()).unwrap();
        let trace = trace_path.to_string_lossy().into_owned();
        let query = write_query("pair2.swq", PAIR_QUERY);
        let csv = scratch("events.csv").to_string_lossy().into_owned();

        let out = dispatch(&args(&[
            "run", "--query", &query, "--trace", &trace, "--csv", &csv, "--limit", "10",
        ]))
        .unwrap();
        assert!(out.contains("2 matches"), "output: {out}");
        assert!(out.contains("per-query metrics"));
        assert!(out.contains("pair"));
        assert!(
            out.contains("spills"),
            "metrics table surfaces spill column"
        );
        assert!(out.contains("lazy_materialisations") && out.contains("merges_skipped_cold"));
        let csv_text = std::fs::read_to_string(&csv).unwrap();
        assert_eq!(csv_text.lines().count(), 3);

        // Replaying at a different batch granularity reports the same matches.
        let small_batches = dispatch(&args(&[
            "run", "--query", &query, "--trace", &trace, "--batch", "1",
        ]))
        .unwrap();
        assert!(
            small_batches.contains("2 matches"),
            "output: {small_batches}"
        );
        assert!(small_batches.contains("batches of 1"));
        // A batch size of zero is rejected up front.
        assert!(dispatch(&args(&[
            "run", "--query", &query, "--trace", &trace, "--batch", "0",
        ]))
        .is_err());

        // Sharded matching reports the same matches and says so.
        let sharded = dispatch(&args(&[
            "run", "--query", &query, "--trace", &trace, "--shards", "2",
        ]))
        .unwrap();
        assert!(sharded.contains("2 matches"), "output: {sharded}");
        assert!(sharded.contains("on 2 shards per query"));

        // Registering the same query twice shares its primitives: the
        // summary surfaces the dedup ratio and searches saved; --no-share
        // reports the same matches with the index disabled.
        let query2 = write_query(
            "pair3.swq",
            "QUERY pair_b WINDOW 1h\n\
             MATCH (x1:Article)-[:mentions]->(w:Keyword), (x2:Article)-[:mentions]->(w)\n",
        );
        let shared = dispatch(&args(&[
            "run", "--query", &query, "--query", &query2, "--trace", &trace,
        ]))
        .unwrap();
        assert!(shared.contains("4 matches"), "output: {shared}");
        assert!(
            shared.contains("shared primitive index: 1 distinct / 2 subscribed (2.0x dedup)"),
            "output: {shared}"
        );
        assert!(shared.contains("saved"), "output: {shared}");
        let unshared = dispatch(&args(&[
            "run",
            "--query",
            &query,
            "--query",
            &query2,
            "--trace",
            &trace,
            "--no-share",
        ]))
        .unwrap();
        assert!(unshared.contains("4 matches"), "output: {unshared}");
        assert!(
            !unshared.contains("shared primitive index"),
            "output: {unshared}"
        );
        // A shard count of zero is rejected up front.
        assert!(dispatch(&args(&[
            "run", "--query", &query, "--trace", &trace, "--shards", "0",
        ]))
        .is_err());
    }

    #[test]
    fn run_accepts_fault_containment_flags() {
        let trace_path = scratch("fault_flags.jsonl");
        let events = [
            streamworks_graph::EdgeEvent::new(
                "a1",
                "Article",
                "rust",
                "Keyword",
                "mentions",
                streamworks_graph::Timestamp::from_secs(1),
            ),
            streamworks_graph::EdgeEvent::new(
                "a2",
                "Article",
                "rust",
                "Keyword",
                "mentions",
                streamworks_graph::Timestamp::from_secs(2),
            ),
        ];
        streamworks_workloads::write_trace_file(&trace_path, events.iter()).unwrap();
        let trace = trace_path.to_string_lossy().into_owned();
        let query = write_query("pair_faults.swq", PAIR_QUERY);

        // Both policies and a bounded channel replay cleanly (no fault is
        // injected here; the chaos suite covers actual shard death).
        for policy in ["fail-fast", "degrade"] {
            let out = dispatch(&args(&[
                "run",
                "--query",
                &query,
                "--trace",
                &trace,
                "--shards",
                "2",
                "--failure-policy",
                policy,
                "--channel-capacity",
                "8",
            ]))
            .unwrap();
            assert!(out.contains("2 matches"), "{policy}: {out}");
            assert!(!out.contains("warning"), "{policy}: {out}");
        }

        // Unknown policy and a zero channel capacity are rejected up front.
        assert!(dispatch(&args(&[
            "run",
            "--query",
            &query,
            "--trace",
            &trace,
            "--failure-policy",
            "mystery",
        ]))
        .is_err());
        assert!(dispatch(&args(&[
            "run",
            "--query",
            &query,
            "--trace",
            &trace,
            "--channel-capacity",
            "0",
        ]))
        .is_err());
    }

    #[test]
    fn run_accepts_durable_delivery_flags() {
        let trace_path = scratch("durable_flags.jsonl");
        let events = [
            streamworks_graph::EdgeEvent::new(
                "a1",
                "Article",
                "rust",
                "Keyword",
                "mentions",
                streamworks_graph::Timestamp::from_secs(1),
            ),
            streamworks_graph::EdgeEvent::new(
                "a2",
                "Article",
                "rust",
                "Keyword",
                "mentions",
                streamworks_graph::Timestamp::from_secs(2),
            ),
        ];
        streamworks_workloads::write_trace_file(&trace_path, events.iter()).unwrap();
        let trace = trace_path.to_string_lossy().into_owned();
        let query = write_query("pair_durable.swq", PAIR_QUERY);
        let log = scratch("durable.log").to_string_lossy().into_owned();
        let _ = std::fs::remove_file(&log);

        let out = dispatch(&args(&[
            "run",
            "--query",
            &query,
            "--trace",
            &trace,
            "--durable-sink",
            &log,
            "--retry-policy",
            "5,10,100,500",
        ]))
        .unwrap();
        assert!(out.contains("2 matches"), "output: {out}");
        assert!(
            out.contains("durable delivery: 2 attempts, 0 retries, 0 recoveries, 0 unacknowledged"),
            "output: {out}"
        );
        assert!(out.contains(&log), "output: {out}");
        assert!(!out.contains("undelivered"), "output: {out}");
        let written = std::fs::read_to_string(&log).unwrap();
        assert_eq!(written.lines().count(), 2, "one log line per match");

        // Replaying into the same log resumes past the cursor of a *fresh*
        // subscription (0), i.e. truncates and rewrites: still 2 lines.
        dispatch(&args(&[
            "run",
            "--query",
            &query,
            "--trace",
            &trace,
            "--durable-sink",
            &log,
        ]))
        .unwrap();
        assert_eq!(std::fs::read_to_string(&log).unwrap().lines().count(), 2);

        // The named presets parse; malformed or invalid specs are rejected.
        for preset in ["default", "none"] {
            dispatch(&args(&[
                "run",
                "--query",
                &query,
                "--trace",
                &trace,
                "--retry-policy",
                preset,
            ]))
            .unwrap();
        }
        for bad in ["mystery", "1,2", "a,b,c,d", "0,0,0,1000", "4,50,10,1000"] {
            assert!(
                dispatch(&args(&[
                    "run",
                    "--query",
                    &query,
                    "--trace",
                    &trace,
                    "--retry-policy",
                    bad,
                ]))
                .is_err(),
                "`{bad}` must be rejected"
            );
        }

        // Several queries fan out into per-query logs.
        let query2 = write_query(
            "pair_durable_b.swq",
            "QUERY pair_b WINDOW 1h\n\
             MATCH (x1:Article)-[:mentions]->(w:Keyword), (x2:Article)-[:mentions]->(w)\n",
        );
        let multi = dispatch(&args(&[
            "run",
            "--query",
            &query,
            "--query",
            &query2,
            "--trace",
            &trace,
            "--durable-sink",
            &log,
        ]))
        .unwrap();
        assert!(multi.contains("4 matches"), "output: {multi}");
        for id in [0, 1] {
            let per_query = format!("{log}.q{id}");
            assert!(multi.contains(&per_query), "output: {multi}");
            assert_eq!(
                std::fs::read_to_string(&per_query).unwrap().lines().count(),
                2,
                "each query delivers its own 2 matches"
            );
        }
    }

    #[test]
    fn run_registers_rpq_queries_from_the_rpq_dialect() {
        // A generated lateral-movement trace plants three intrusion chains
        // (0, 2 and 4 pivot flows); the RPQ detects each exactly once.
        let trace = scratch("lateral.jsonl").to_string_lossy().into_owned();
        let gen = dispatch(&args(&[
            "generate", "--kind", "lateral", "--out", &trace, "--edges", "400",
        ]))
        .unwrap();
        assert!(gen.contains("wrote"), "output: {gen}");

        let rpq = write_query(
            "lateral.rpq",
            "# multi-hop intrusion\nRPQ lateral WINDOW 1h PATH login flow* exploit\n",
        );
        let out = dispatch(&args(&["run", "--query", &rpq, "--trace", &trace])).unwrap();
        assert!(out.contains("3 matches"), "output: {out}");
        assert!(out.contains("lateral"), "output: {out}");

        // `stats` exports the matcher's work next to its useful share, and
        // which end of the path roots its trees, in both formats. Logins
        // outnumber exploits, so the trees turned to the targets.
        let prom = dispatch(&args(&["stats", "--query", &rpq, "--trace", &trace])).unwrap();
        let json = dispatch(&args(&[
            "stats", "--query", &rpq, "--trace", &trace, "--json",
        ]))
        .unwrap();
        for counter in ["rpq_relaxations", "rpq_expansions", "rpq_end_switches"] {
            let series = format!("streamworks_query_{counter}_total{{query=\"lateral\"}} ");
            assert!(prom.contains(&series), "`{series}` in: {prom}");
            assert!(json.contains(&format!("\"{counter}\"")), "output: {json}");
        }
        let end = "streamworks_query_rpq_end{query=\"lateral\",end=\"target\"} 1";
        assert!(prom.contains(end), "`{end}` in: {prom}");
        assert!(json.contains("\"rpq_end\": \"Target\""), "output: {json}");

        // SJ-Tree and RPQ queries mix in one run.
        let trace2 = scratch("tiny_mix.jsonl");
        let events = [
            streamworks_graph::EdgeEvent::new(
                "a1",
                "Article",
                "rust",
                "Keyword",
                "mentions",
                streamworks_graph::Timestamp::from_secs(1),
            ),
            streamworks_graph::EdgeEvent::new(
                "a2",
                "Article",
                "rust",
                "Keyword",
                "mentions",
                streamworks_graph::Timestamp::from_secs(2),
            ),
        ];
        streamworks_workloads::write_trace_file(&trace2, events.iter()).unwrap();
        let trace2 = trace2.to_string_lossy().into_owned();
        let sj = write_query("pair_mix.swq", PAIR_QUERY);
        let chain = write_query("chain_mix.rpq", "RPQ chain WINDOW 1h PATH mentions\n");
        let mixed = dispatch(&args(&[
            "run", "--query", &sj, "--query", &chain, "--trace", &trace2,
        ]))
        .unwrap();
        // 2 SJ matches (the symmetric pair) + 2 RPQ matches (one per edge).
        assert!(mixed.contains("4 matches"), "output: {mixed}");
        assert!(mixed.contains("pair"), "output: {mixed}");
        assert!(mixed.contains("chain"), "output: {mixed}");

        // A malformed RPQ file surfaces as a query error.
        let bad = write_query("bad.rpq", "RPQ broken WINDOW 1h PATH (((\n");
        assert!(dispatch(&args(&["run", "--query", &bad, "--trace", &trace2])).is_err());
    }

    #[test]
    fn run_telemetry_flags_and_skew_line() {
        let trace = scratch("tel_news.jsonl").to_string_lossy().into_owned();
        dispatch(&args(&[
            "generate", "--kind", "news", "--out", &trace, "--edges", "2000",
        ]))
        .unwrap();
        let query = write_query("pair_tel.swq", PAIR_QUERY);

        // A sharded run reports routing balance whether or not latency
        // sampling is on; --telemetry adds no visible output of its own.
        let out = dispatch(&args(&[
            "run",
            "--query",
            &query,
            "--trace",
            &trace,
            "--shards",
            "2",
            "--telemetry",
            "--sample-every",
            "1",
        ]))
        .unwrap();
        assert!(
            out.contains("shard skew: pair = "),
            "skew line present: {out}"
        );
        assert!(
            out.contains("(max/mean items routed)"),
            "skew unit present: {out}"
        );

        // --metrics-every N emits a compact progress line per N batches.
        let periodic = dispatch(&args(&[
            "run",
            "--query",
            &query,
            "--trace",
            &trace,
            "--batch",
            "500",
            "--metrics-every",
            "2",
            "--sample-every",
            "1",
        ]))
        .unwrap();
        assert!(
            periodic.contains("[metrics @ batch 2]"),
            "periodic line present: {periodic}"
        );
        assert!(periodic.contains(".p50="), "stage p50s shown: {periodic}");
    }

    #[test]
    fn run_metrics_json_parses_and_stats_exports_prometheus() {
        let trace = scratch("stats_news.jsonl").to_string_lossy().into_owned();
        dispatch(&args(&[
            "generate", "--kind", "news", "--out", &trace, "--edges", "2000",
        ]))
        .unwrap();
        let query = write_query("pair_stats.swq", PAIR_QUERY);

        // --metrics-json replaces the summary with a parseable snapshot.
        let json = dispatch(&args(&[
            "run",
            "--query",
            &query,
            "--trace",
            &trace,
            "--metrics-json",
            "--sample-every",
            "1",
        ]))
        .unwrap();
        let doc = serde_json::parse(&json).unwrap();
        assert_eq!(
            doc.get_field("level").and_then(|v| v.as_str()),
            Some("sampled")
        );
        let stages = doc.get_field("stages").and_then(|v| v.as_array()).unwrap();
        assert!(!stages.is_empty(), "stages serialized");
        let sampled: u64 = stages
            .iter()
            .map(|s| s.get_field("count").and_then(|c| c.as_u64()).unwrap())
            .sum();
        assert!(sampled > 0, "at least one stage recorded observations");
        assert!(
            doc.get_field("queries")
                .and_then(|v| v.as_array())
                .is_some_and(|q| !q.is_empty()),
            "query metrics embedded"
        );

        // stats prints Prometheus text format by default, JSON with --json.
        let prom = dispatch(&args(&[
            "stats",
            "--query",
            &query,
            "--trace",
            &trace,
            "--shards",
            "2",
            "--sample-every",
            "1",
        ]))
        .unwrap();
        for series in [
            "# TYPE streamworks_stage_latency_ns histogram",
            "streamworks_events_ingested_total ",
            "streamworks_query_complete_matches_total",
            "streamworks_shard_skew",
        ] {
            assert!(prom.contains(series), "`{series}` in: {prom}");
        }
        let stats_json = dispatch(&args(&[
            "stats", "--query", &query, "--trace", &trace, "--json",
        ]))
        .unwrap();
        let doc = serde_json::parse(&stats_json).unwrap();
        assert!(
            doc.get_field("events_ingested")
                .and_then(|v| v.as_u64())
                .is_some_and(|n| n > 0),
            "events_ingested counted: {stats_json}"
        );

        // stats without queries is rejected like run.
        assert!(dispatch(&args(&["stats", "--trace", &trace])).is_err());
    }

    #[test]
    fn invalid_inputs_surface_as_errors() {
        assert!(dispatch(&args(&["plan"])).is_err());
        assert!(dispatch(&args(&["run", "--trace", "missing.jsonl"])).is_err());
        assert!(dispatch(&args(&["generate", "--kind", "nope", "--out", "x.jsonl"])).is_err());
        let bad_query = write_query("bad.swq", "MATCH nonsense");
        assert!(dispatch(&args(&["plan", "--query", &bad_query])).is_err());
        let unknown_strategy = write_query("ok.swq", PAIR_QUERY);
        assert!(dispatch(&args(&[
            "plan",
            "--query",
            &unknown_strategy,
            "--strategy",
            "mystery"
        ]))
        .is_err());
    }
}
