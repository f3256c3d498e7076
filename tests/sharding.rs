//! Shard-count invariance of the sharded single-query matcher.
//!
//! The contract of `EngineBuilder::shards` is that sharding is *invisible*
//! except in throughput: for any shard count, the engine reports exactly the
//! same match multiset (and the same `complete_matches` counts) as the
//! single-threaded engine, on any stream — including under query lifecycle
//! churn (register → pause → resume → deregister) and with subscriptions
//! attached. These tests pin that contract on both bundled workloads.

use std::collections::BTreeMap;
use streamworks::workloads::queries::{labelled_news_query, port_scan_query, smurf_ddos_query};
use streamworks::workloads::{
    AttackKind, CyberConfig, CyberTrafficGenerator, NewsConfig, NewsStreamGenerator,
};
use streamworks::{
    BufferingSink, ContinuousQueryEngine, Duration, EdgeEvent, MatchEvent, QueryGraph, QueryHandle,
    Timestamp,
};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Canonical multiset of matches: how often each (query name, data-edge
/// assignment) was reported. Using a count map (not a set) also catches
/// duplicate or missing reports of the same embedding.
fn multiset(events: &[MatchEvent]) -> BTreeMap<(String, Vec<u64>), usize> {
    let mut out = BTreeMap::new();
    for ev in events {
        let edges: Vec<u64> = ev.edges.iter().map(|e| e.0).collect();
        *out.entry((ev.query_name.clone(), edges)).or_insert(0) += 1;
    }
    out
}

fn engine_with_shards(shards: usize) -> ContinuousQueryEngine {
    ContinuousQueryEngine::builder()
        .shards(shards)
        .build()
        .unwrap()
}

/// Replays `events` through an engine with the given queries and shard
/// count, returning all matches plus the per-query complete-match counts.
fn run(
    queries: &[QueryGraph],
    events: &[EdgeEvent],
    shards: usize,
    batch: usize,
) -> (Vec<MatchEvent>, Vec<u64>) {
    let mut engine = engine_with_shards(shards);
    let handles: Vec<QueryHandle> = queries
        .iter()
        .map(|q| engine.register_query(q.clone()).unwrap())
        .collect();
    let mut matches = Vec::new();
    for chunk in events.chunks(batch) {
        matches.extend(engine.ingest(chunk).unwrap());
    }
    let counts = handles
        .iter()
        .map(|h| engine.metrics(*h).unwrap().complete_matches)
        .collect();
    (matches, counts)
}

fn cyber_events() -> Vec<EdgeEvent> {
    CyberTrafficGenerator::new(CyberConfig {
        hosts: 120,
        background_edges: 4_000,
        attacks: vec![(AttackKind::SmurfDdos, 3), (AttackKind::PortScan, 4)],
        seed: 11,
        ..Default::default()
    })
    .generate()
    .events
}

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

#[test]
fn cyber_workload_is_shard_count_invariant() {
    let window = Duration::from_mins(5);
    let queries = vec![smurf_ddos_query(3, window), port_scan_query(5, window)];
    let events = cyber_events();
    let (reference, ref_counts) = run(&queries, &events, 1, 512);
    let expected = multiset(&reference);
    assert!(
        ref_counts.iter().sum::<u64>() > 0,
        "the cyber stream must produce matches for the invariance to be meaningful"
    );
    for shards in SHARD_COUNTS {
        let (got, counts) = run(&queries, &events, shards, 512);
        assert_eq!(multiset(&got), expected, "shards={shards}");
        assert_eq!(counts, ref_counts, "complete_matches at shards={shards}");
    }
}

#[test]
fn news_workload_is_shard_count_invariant() {
    let queries = vec![labelled_news_query("politics", Duration::from_mins(30))];
    let events = news_events();
    let (reference, ref_counts) = run(&queries, &events, 1, 256);
    let expected = multiset(&reference);
    assert!(ref_counts[0] > 0, "the news stream must produce matches");
    for shards in SHARD_COUNTS {
        let (got, counts) = run(&queries, &events, shards, 256);
        assert_eq!(multiset(&got), expected, "shards={shards}");
        assert_eq!(counts, ref_counts, "complete_matches at shards={shards}");
    }
}

#[test]
fn invariance_holds_across_batch_granularities() {
    // Single-event ingest forces a fan-in barrier per event; the result must
    // still be identical to large batches and to the unsharded engine.
    let queries = vec![labelled_news_query("politics", Duration::from_mins(30))];
    let events: Vec<EdgeEvent> = news_events().into_iter().take(1_500).collect();
    let (reference, ref_counts) = run(&queries, &events, 1, 1);
    let expected = multiset(&reference);
    for (shards, batch) in [(4usize, 1usize), (4, 64), (4, 4096)] {
        let (got, counts) = run(&queries, &events, shards, batch);
        assert_eq!(multiset(&got), expected, "shards={shards} batch={batch}");
        assert_eq!(counts, ref_counts, "shards={shards} batch={batch}");
    }
}

#[test]
fn sharded_lifecycle_churn_matches_single_threaded() {
    // register → match → pause → resume → deregister → re-register, sharded
    // and unsharded side by side; every observable must agree at each step.
    let events = news_events();
    let (first, second) = events.split_at(events.len() / 2);
    let query = labelled_news_query("politics", Duration::from_mins(30));

    let mut single = engine_with_shards(1);
    let mut sharded = engine_with_shards(4);
    let h_single = single.register_query(query.clone()).unwrap();
    let h_sharded = sharded.register_query(query.clone()).unwrap();

    let a = single.ingest(first).unwrap();
    let b = sharded.ingest(first).unwrap();
    assert_eq!(multiset(&a), multiset(&b), "pre-pause matches");

    // Paused queries see nothing, on either engine.
    single.pause(h_single).unwrap();
    sharded.pause(h_sharded).unwrap();
    assert!(sharded.is_paused(h_sharded).unwrap());
    let quarter = &second[..second.len() / 2];
    assert!(single.ingest(quarter).unwrap().is_empty());
    assert!(sharded.ingest(quarter).unwrap().is_empty());

    // Resumed queries match again, and still agree.
    single.resume(h_single).unwrap();
    sharded.resume(h_sharded).unwrap();
    let rest = &second[second.len() / 2..];
    let a = single.ingest(rest).unwrap();
    let b = sharded.ingest(rest).unwrap();
    assert_eq!(multiset(&a), multiset(&b), "post-resume matches");
    assert_eq!(
        single.metrics(h_single).unwrap().complete_matches,
        sharded.metrics(h_sharded).unwrap().complete_matches
    );

    // Deregistration drops the shard workers and all their partial-match
    // state; the handle goes stale and the slot is recyclable.
    sharded.deregister(h_sharded).unwrap();
    assert_eq!(sharded.live_partial_matches(), 0);
    assert!(sharded.metrics(h_sharded).is_err());
    let h_new = sharded.register_query(query).unwrap();
    assert_eq!(h_new.id(), h_sharded.id(), "slot is recycled");
    assert!(
        sharded.metrics(h_sharded).is_err(),
        "old handle stays stale"
    );
    assert!(sharded.metrics(h_new).is_ok());
}

#[test]
fn prune_now_waits_for_the_shard_sweeps() {
    // The public prune_now() is documented to be observable immediately:
    // after it returns, live partial-match counts reflect the sweep even
    // though sharded sweeps run on worker threads.
    let query = labelled_news_query("politics", Duration::from_mins(30));
    let mut engine = engine_with_shards(4);
    let handle = engine.register_query(query).unwrap();
    let events = news_events();
    let last = events.last().unwrap().timestamp;
    engine.ingest(&events).unwrap();

    // Advance stream time far past every window, then prune explicitly.
    engine
        .ingest(&EdgeEvent::new(
            "straggler",
            "Article",
            "k-late",
            "Keyword",
            "mentions",
            Timestamp::from_micros(last.as_micros() + 4 * 3_600_000_000),
        ))
        .unwrap();
    engine.prune_now();
    assert_eq!(engine.metrics(handle).unwrap().partial_matches_live, 0);
    assert_eq!(engine.live_partial_matches(), 0);
}

/// Regression for the mid-call prune: with `prune_every` (256) or more events
/// in one `ingest` call, the cadence prune used to send its sweep markers —
/// cutoff `now − tW` — while handoffs produced by earlier events were still
/// in flight between shards; a shard that was ahead swept partials a lagging
/// handoff still had to join, and the match was lost (6–7 % of them at
/// 256-event calls, about half for a whole-stream call). The hot wedge keeps
/// every shard busy with cross-shard handoffs and a steadily expiring
/// window, which is what it takes to hit the race.
#[test]
fn mid_call_prunes_lose_no_sharded_matches() {
    use streamworks::query::{ManualDecomposition, Planner, QueryEdgeId};

    let query = streamworks::parse_query(
        "QUERY hot_wedge WINDOW 8m \
         MATCH (a1:Article)-[:mentions]->(k:Keyword), (a2:Article)-[:mentions]->(k), \
               (a1)-[:located]->(l:Location)",
    )
    .unwrap();
    // Three single-edge leaves, left-deep: two joins, so merged matches
    // re-hash under the root's cut and hop between shards.
    let leaves = (0..3).map(|e| vec![QueryEdgeId(e)]).collect();
    let plan = Planner::new()
        .plan_with(query, &ManualDecomposition::new(leaves))
        .unwrap();

    // One event a second; 24 hot keywords over 160 articles, one edge in 50
    // a location: a few matches per event, with the 8-minute window expiring
    // as fast as it fills.
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut below = move |n: u64| {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    };
    let events: Vec<EdgeEvent> = (0..6_000i64)
        .map(|t| {
            let article = format!("a{}", below(160));
            let at = Timestamp::from_secs(t);
            if below(50) == 0 {
                let city = format!("city{}", below(7));
                EdgeEvent::new(article, "Article", city, "Location", "located", at)
            } else {
                let keyword = format!("k{}", below(24));
                EdgeEvent::new(article, "Article", keyword, "Keyword", "mentions", at)
            }
        })
        .collect();

    let run = |shards: usize, batch: usize| {
        let mut engine = engine_with_shards(shards);
        engine.register_plan(plan.clone());
        let mut matches = Vec::new();
        for chunk in events.chunks(batch) {
            matches.extend(engine.ingest(chunk).unwrap());
        }
        multiset(&matches)
    };
    let expected = run(1, 256);
    assert!(expected.len() > events.len(), "the wedge must run hot");
    for shards in [2usize, 4] {
        for batch in [256usize, 512, events.len()] {
            let got = run(shards, batch);
            assert_eq!(
                got.len(),
                expected.len(),
                "shards={shards} batch={batch}: distinct matches"
            );
            assert!(got == expected, "shards={shards} batch={batch}");
        }
    }
}

#[test]
fn sharded_subscription_sees_one_ordered_stream() {
    let query = labelled_news_query("politics", Duration::from_mins(30));
    let mut engine = engine_with_shards(4);
    let handle = engine.register_query(query).unwrap();
    let (sink, buffer) = BufferingSink::new();
    let sub = engine.subscribe(handle, sink).unwrap();

    let events = news_events();
    let mut returned = Vec::new();
    for chunk in events.chunks(512) {
        returned.extend(engine.ingest(chunk).unwrap());
    }
    assert!(!returned.is_empty(), "stream must produce matches");

    // The tenant's subscription got exactly the returned stream, in the same
    // order, and ordered by stream time (each match is stamped with the
    // timestamp of its completing edge, and edges arrive in time order).
    let seen = buffer.drain();
    assert_eq!(seen, returned);
    for pair in seen.windows(2) {
        assert!(
            pair[0].at <= pair[1].at,
            "fan-in must preserve stream order: {:?} then {:?}",
            pair[0].at,
            pair[1].at
        );
    }

    // Per-shard metrics account for all the store work.
    let per_shard = engine.shard_metrics(handle).unwrap().unwrap();
    assert_eq!(per_shard.len(), 4);
    let complete: u64 = per_shard.iter().map(|s| s.complete_matches).sum();
    assert_eq!(complete, seen.len() as u64);

    engine.unsubscribe(sub).unwrap();
    assert_eq!(engine.subscription_count(handle).unwrap(), 0);
}

/// Store-unification pin: the in-process `SjTreeMatcher` (now running on the
/// same `SharedJoinStore` + `probe_then_insert` inner loop as the shard
/// workers) must emit the exact match multiset of a directly-driven
/// `ShardedMatcher` at 1/2/4/8 shards, on both bundled workloads.
#[test]
fn unified_single_thread_matches_sharded_matcher_on_both_workloads() {
    use streamworks::engine::{ShardedMatcher, SjTreeMatcher};
    use streamworks::query::Planner;
    use streamworks::DynamicGraph;

    let cases: Vec<(&str, QueryGraph, Vec<EdgeEvent>)> = vec![
        (
            "cyber",
            port_scan_query(4, Duration::from_mins(5)),
            cyber_events(),
        ),
        (
            "news",
            labelled_news_query("politics", Duration::from_mins(30)),
            news_events(),
        ),
    ];
    for (workload, query, events) in cases {
        let plan = Planner::new().plan(query).unwrap();

        // Reference: the unified single-threaded matcher.
        let mut graph = DynamicGraph::unbounded();
        let mut single = SjTreeMatcher::new(plan.clone(), &graph);
        let mut expected: BTreeMap<u64, usize> = BTreeMap::new();
        let mut out = Vec::new();
        for ev in &events {
            let r = graph.ingest(ev);
            let edge = graph.edge(r.edge).unwrap().clone();
            out.clear();
            single.process_edge(&graph, &edge, &mut out);
            for m in &out {
                *expected.entry(m.signature()).or_insert(0) += 1;
            }
        }
        assert!(
            !expected.is_empty(),
            "{workload}: the stream must produce matches"
        );

        for shards in SHARD_COUNTS {
            let mut graph = DynamicGraph::unbounded();
            let mut sharded = ShardedMatcher::new(plan.clone(), &graph, shards, None);
            for ev in &events {
                let r = graph.ingest(ev);
                let edge = graph.edge(r.edge).unwrap().clone();
                sharded.process_edge(&graph, &edge);
            }
            let mut got: BTreeMap<u64, usize> = BTreeMap::new();
            for (_, m) in sharded.take_completed() {
                *got.entry(m.signature()).or_insert(0) += 1;
            }
            assert_eq!(got, expected, "{workload} shards={shards}");
        }
    }
}
