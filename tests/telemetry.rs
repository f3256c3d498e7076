//! End-to-end pipeline observability through the public facade.
//!
//! Pins the contract of the telemetry layer: sampled per-stage latency
//! histograms cover every stage a run actually exercises, trace spans land
//! in the ring keyed by sampled sequence numbers, the exported snapshot
//! renders in both text formats, enabling telemetry changes *no* matching
//! observable (counters and match multisets are bit-identical to a run with
//! it off), a quarantined subscription's reported lag tracks the live
//! outbox, stage counters survive checkpoint/restore, and the exports keep
//! the keys and the escaping their readers parse.
//!
//! Most scenarios use the 4-edge labelled news query: SJ-Tree leaves are
//! ~2-edge subgraph primitives, so a 1–2 edge query is a single-leaf plan
//! whose embeddings complete without a join — only larger queries give the
//! join climb work to measure.

use std::collections::BTreeMap;

use streamworks::engine::EngineCheckpoint;
use streamworks::workloads::queries::labelled_news_query;
use streamworks::workloads::{NewsConfig, NewsStreamGenerator};
use streamworks::{
    clear_endpoint, parse_rpq, reset_memory_sink, ContinuousQueryEngine, Duration, EdgeEvent,
    MatchEvent, QueryGraphBuilder, QueryHandle, QueryMetrics, RetryPolicy, RpqQuery, SinkSpec,
    TelemetryLevel, TelemetrySnapshot, Timestamp,
};

const PAIR_DSL: &str = "QUERY pair WINDOW 1h \
     MATCH (a1:Article)-[:mentions]->(k:Keyword), (a2:Article)-[:mentions]->(k)";

const STAGES: [&str; 5] = [
    "ingest_front",
    "local_search",
    "join_climb",
    "expiry_sweep",
    "delivery_flush",
];

fn news_events() -> Vec<EdgeEvent> {
    NewsStreamGenerator::new(NewsConfig {
        articles: 600,
        planted_events: vec![("politics".into(), 3)],
        seed: 5,
        ..Default::default()
    })
    .generate()
    .events
}

fn sampled_engine(level: TelemetryLevel) -> (ContinuousQueryEngine, QueryHandle) {
    let mut engine = ContinuousQueryEngine::builder()
        .telemetry_level(level)
        .telemetry_sample_every(1)
        .build()
        .unwrap();
    let handle = engine
        .register_query(labelled_news_query("politics", Duration::from_mins(30)))
        .unwrap();
    (engine, handle)
}

fn multiset(events: &[MatchEvent]) -> BTreeMap<(String, Vec<u64>), usize> {
    let mut out = BTreeMap::new();
    for ev in events {
        let edges: Vec<u64> = ev.edges.iter().map(|e| e.0).collect();
        *out.entry((ev.query_name.clone(), edges)).or_insert(0) += 1;
    }
    out
}

fn stage_counts(snap: &TelemetrySnapshot) -> BTreeMap<String, u64> {
    snap.stages
        .iter()
        .map(|s| (s.name.clone(), s.count))
        .collect()
}

/// The acceptance run: a joining query plus durable delivery plus an
/// explicit prune exercises every pipeline stage, and each one must report
/// observations with non-zero quantiles.
#[test]
fn durable_run_activates_every_stage() {
    let key = "telemetry-all-stages";
    reset_memory_sink(key);
    let (mut engine, handle) = sampled_engine(TelemetryLevel::Sampled);
    engine
        .subscribe_durable(
            handle,
            SinkSpec::Memory {
                key: key.to_owned(),
            },
        )
        .unwrap();

    let events = news_events();
    let mut matches = Vec::new();
    for chunk in events.chunks(256) {
        matches.extend(engine.ingest(chunk).unwrap());
    }
    assert!(!matches.is_empty(), "the stream must produce matches");
    // Advance stream time past the window and force a sweep so expiry work
    // is actually performed.
    let last = events.last().unwrap().timestamp;
    engine
        .ingest(&EdgeEvent::new(
            "late",
            "Article",
            "k-late",
            "Keyword",
            "mentions",
            Timestamp::from_micros(last.as_micros() + 4 * 3_600_000_000),
        ))
        .unwrap();
    engine.prune_now();
    engine.flush_deliveries();

    let snap = engine.telemetry_snapshot();
    assert_eq!(snap.level, "sampled");
    assert_eq!(snap.sample_every, 1);
    let names: Vec<&str> = snap.stages.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, STAGES, "every stage is always listed, in order");
    for stage in &snap.stages {
        assert!(stage.count > 0, "stage `{}` recorded nothing", stage.name);
        assert!(stage.p50_ns > 0, "stage `{}` has zero p50", stage.name);
        assert!(stage.p99_ns > 0, "stage `{}` has zero p99", stage.name);
        assert!(
            stage.p50_ns <= stage.p99_ns,
            "quantiles are monotone for `{}`",
            stage.name
        );
        assert!(stage.sum_ns >= stage.count, "each observation is >= 1ns");
        assert!(stage.min_ns <= stage.max_ns);
    }

    // Spans: the ring holds recent sampled work, keyed by event seq, with
    // real durations and recognised stage names.
    assert!(!snap.spans.is_empty(), "spans recorded");
    for span in &snap.spans {
        assert!(
            STAGES.contains(&span.stage.as_str()),
            "unknown span stage `{}`",
            span.stage
        );
        assert!(
            span.duration_ns > 0,
            "span `{}` has no duration",
            span.stage
        );
    }
    assert!(
        snap.spans.windows(2).all(|w| w[0].seq <= w[1].seq),
        "spans are seq-sorted"
    );

    // Both export formats include the histogram series.
    let prom = snap.to_prometheus();
    assert!(prom.contains("# TYPE streamworks_stage_latency_ns histogram"));
    for stage in STAGES {
        assert!(
            prom.contains(&format!("stage=\"{stage}\"")),
            "`{stage}` exported: {prom}"
        );
    }
    let json = snap.to_json();
    let doc = serde_json::parse(&json).unwrap();
    assert_eq!(
        doc.get_field("stages")
            .and_then(|v| v.as_array())
            .map(<[_]>::len),
        Some(STAGES.len())
    );
    // The keys `swbench trace` reads by name. A rename reads as `null`
    // there, not as a compile error, so they are pinned here.
    let numbers = |v: &serde_json::Value, at: &str, keys: &[&str]| {
        for key in keys {
            assert!(
                v.get_field(key).and_then(|n| n.as_u64()).is_some(),
                "`{at}.{key}` missing from to_json()"
            );
        }
    };
    let items = |key: &str| doc.get_field(key).and_then(|v| v.as_array()).unwrap();
    for stage in items("stages") {
        assert!(stage.get_field("name").and_then(|n| n.as_str()).is_some());
        numbers(stage, "stages[]", &["sum_ns", "p99_ns"]);
    }
    assert_eq!(items("queries").len(), 1);
    for query in items("queries") {
        numbers(
            query.get_field("metrics").expect("queries[].metrics"),
            "queries[].metrics",
            &[
                "partial_matches_live",
                "rpq_tree_nodes_live",
                "cursor_lag",
                "local_search_candidates",
                "primitive_matches",
                "joins_attempted",
                "joins_succeeded",
                "rpq_expansions",
            ],
        );
    }
    numbers(
        doc.get_field("engine").expect("engine"),
        "engine",
        &[
            "subscribed_primitives",
            "subscribed_subtrees",
            "distinct_primitives",
            "distinct_subtrees",
            "searches_saved",
            "shared_searches_run",
            "fanout_deliveries",
            "lifted_dispatch_hits",
            "delivery_attempts",
            "delivery_retries",
        ],
    );
    reset_memory_sink(key);
}

/// Query names reach the Prometheus export as label values, escaped as the
/// text format requires: every sample line parses as `name{labels} value`,
/// and unescaping the `query` label gives the registered name back.
#[test]
fn prometheus_label_values_round_trip_the_query_name() {
    const NAME: &str = "a\"b\\c\nd";
    let key = "telemetry-escaped-name";
    reset_memory_sink(key);
    let mut engine = ContinuousQueryEngine::builder()
        .telemetry_level(TelemetryLevel::Sampled)
        .build()
        .unwrap();
    let pair = QueryGraphBuilder::new(NAME)
        .window(Duration::from_mins(30))
        .vertex("a1", "Article")
        .vertex("a2", "Article")
        .vertex("k", "Keyword")
        .edge("a1", "mentions", "k")
        .edge("a2", "mentions", "k")
        .build()
        .unwrap();
    let handle = engine.register_query(pair).unwrap();
    engine
        .subscribe_durable(
            handle,
            SinkSpec::Memory {
                key: key.to_owned(),
            },
        )
        .unwrap();
    let path = parse_rpq("RPQ r WINDOW 30m PATH mentions").unwrap();
    engine.register_rpq(RpqQuery::new(NAME, path.window(), path.pattern().clone()).unwrap());
    for chunk in news_events().chunks(256) {
        engine.ingest(chunk).unwrap();
    }
    engine.flush_deliveries();

    let prom = engine.telemetry_snapshot().to_prometheus();
    let mut query_labels = 0;
    for line in prom.lines().filter(|l| !l.starts_with('#')) {
        let (series, value) = line.rsplit_once(' ').expect("`series value`");
        assert!(value.parse::<f64>().is_ok(), "value of `{line}`");
        let Some((name, labels)) = series.split_once('{') else {
            assert!(!series.contains(['}', '"', ' ']), "bare name `{series}`");
            continue;
        };
        assert!(!name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
        let mut rest = labels.strip_suffix('}').expect("labels close the series");
        while !rest.is_empty() {
            let (label, after) = rest.split_once("=\"").expect("`label=\"`");
            let mut value = String::new();
            let mut chars = after.chars();
            loop {
                match chars.next().expect("label value is closed") {
                    '"' => break,
                    '\\' => value.push(match chars.next() {
                        Some('\\') => '\\',
                        Some('"') => '"',
                        Some('n') => '\n',
                        other => panic!("bad escape {other:?} in `{line}`"),
                    }),
                    '\n' => panic!("raw newline in `{line}`"),
                    c => value.push(c),
                }
            }
            if label == "query" {
                assert_eq!(value, NAME, "`{line}`");
                query_labels += 1;
            }
            rest = chars.as_str();
            rest = rest.strip_prefix(',').unwrap_or(rest);
        }
    }
    // Edges processed and complete matches for both queries, the three RPQ
    // counters and the end gauge, and the durable lag and attempts.
    assert_eq!(query_labels, 10, "{prom}");
    reset_memory_sink(key);
}

/// Matching is observably identical with telemetry off and on, under
/// lifecycle churn — every `QueryMetrics` counter and the full match
/// multiset agree with the reference run: the sampled matching path is the
/// same algorithm, only timed.
#[test]
fn counters_and_matches_are_invariant_under_telemetry() {
    fn churn_run(level: TelemetryLevel) -> (Vec<MatchEvent>, QueryMetrics) {
        let (mut engine, handle) = sampled_engine(level);
        let events = news_events();
        let (first, rest) = events.split_at(events.len() / 2);
        let (mid, last) = rest.split_at(rest.len() / 2);

        let mut matches = Vec::new();
        for chunk in first.chunks(128) {
            matches.extend(engine.ingest(chunk).unwrap());
        }
        engine.pause(handle).unwrap();
        assert!(
            engine.ingest(mid).unwrap().is_empty(),
            "paused sees nothing"
        );
        engine.resume(handle).unwrap();
        for chunk in last.chunks(128) {
            matches.extend(engine.ingest(chunk).unwrap());
        }
        let metrics = engine.metrics(handle).unwrap();
        engine.deregister(handle).unwrap();
        assert_eq!(engine.live_partial_matches(), 0);
        (matches, metrics)
    }

    let (ref_matches, ref_metrics) = churn_run(TelemetryLevel::Off);
    assert!(ref_metrics.complete_matches > 0, "churn run must match");
    let (matches, metrics) = churn_run(TelemetryLevel::Sampled);
    assert_eq!(multiset(&matches), multiset(&ref_matches), "match multiset");
    assert_eq!(metrics, ref_metrics, "full QueryMetrics");
}

/// The delivery snapshot's `lag` is computed from the live outbox, so a
/// quarantined subscription's lag keeps growing as matches keep routing to
/// it — it is not a stale copy from quarantine time.
#[test]
fn quarantined_subscription_lag_tracks_the_live_outbox() {
    let address = "telemetry-unreachable";
    clear_endpoint(address); // never registered: every connect fails
    let mut engine = ContinuousQueryEngine::builder()
        .telemetry_level(TelemetryLevel::Sampled)
        .telemetry_sample_every(1)
        .retry_policy(RetryPolicy::none())
        .build()
        .unwrap();
    let handle = engine.register_dsl(PAIR_DSL).unwrap();
    engine
        .subscribe_durable(
            handle,
            SinkSpec::Endpoint {
                address: address.to_owned(),
            },
        )
        .unwrap();

    let events: Vec<EdgeEvent> = (0..24)
        .map(|i| {
            EdgeEvent::new(
                format!("a{i}"),
                "Article",
                format!("k{}", i % 2),
                "Keyword",
                "mentions",
                Timestamp::from_secs(i as i64),
            )
        })
        .collect();
    let (first, second) = events.split_at(events.len() / 2);
    engine.ingest(first).unwrap();
    engine.flush_deliveries();
    let snap = engine.telemetry_snapshot();
    assert_eq!(snap.delivery.len(), 1);
    let before = snap.delivery[0].clone();
    assert_eq!(
        before.status, "quarantined",
        "one strike under RetryPolicy::none"
    );
    assert_eq!(before.target, format!("endpoint:{address}"));
    assert!(before.lag > 0, "undelivered matches show as lag");

    engine.ingest(second).unwrap();
    let snap = engine.telemetry_snapshot();
    let after = &snap.delivery[0];
    assert_eq!(after.status, "quarantined");
    assert!(
        after.lag > before.lag,
        "lag is live: {} then {}",
        before.lag,
        after.lag
    );
    assert_eq!(
        after.lag,
        engine.metrics(handle).unwrap().cursor_lag,
        "snapshot lag agrees with the per-query metric"
    );
    clear_endpoint(address);
}

/// Stage counters survive checkpoint/restore: the replay itself is not
/// re-measured, and the captured histogram is folded back in, so the
/// restored engine reports bit-identical stage counts.
#[test]
fn stage_counters_survive_checkpoint_restore() {
    let (mut engine, _handle) = sampled_engine(TelemetryLevel::Sampled);
    for chunk in news_events().chunks(256) {
        engine.ingest(chunk).unwrap();
    }
    let captured = stage_counts(&engine.telemetry_snapshot());
    assert!(captured.values().any(|&c| c > 0), "run recorded stages");

    // Round-trip through JSON to also pin the checkpoint serialisation of
    // the telemetry payload.
    let json = EngineCheckpoint::capture(&engine).to_json().unwrap();
    let restored = EngineCheckpoint::load(&json)
        .unwrap()
        .try_restore()
        .unwrap();
    assert_eq!(
        stage_counts(&restored.telemetry_snapshot()),
        captured,
        "restore is exact"
    );
}

/// Telemetry `Off` is genuinely off: the snapshot still carries counters,
/// queries and delivery state, but no histograms and no spans.
#[test]
fn off_level_reports_counters_but_no_samples() {
    let (mut engine, handle) = sampled_engine(TelemetryLevel::Off);
    for chunk in news_events().chunks(256) {
        engine.ingest(chunk).unwrap();
    }
    let snap = engine.telemetry_snapshot();
    assert_eq!(snap.level, "off");
    assert!(snap.stages.is_empty(), "no histograms when off");
    assert!(snap.spans.is_empty(), "no spans when off");
    assert!(snap.events_ingested > 0);
    assert_eq!(snap.queries.len(), 1);
    assert!(
        engine.metrics(handle).unwrap().complete_matches > 0,
        "matching unaffected"
    );
    // The exports still render the counter series.
    let prom = snap.to_prometheus();
    assert!(prom.contains("streamworks_events_ingested_total"));
    assert!(!prom.contains("streamworks_stage_latency_ns_bucket"));
}
