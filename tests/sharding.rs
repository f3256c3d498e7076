//! Batch-boundary and ordering invariants of the engine.
//!
//! These tests once compared sharded engines with the single-threaded one.
//! Every query now runs in-process, but what they pinned still holds and
//! still matters: how a stream is cut into `ingest` calls — one event at a
//! time, in calls of hundreds of events, or all at once — changes
//! nothing the engine reports, and a subscription sees exactly the stream
//! the calls return, in stream-time order. The file and test names are kept
//! from the sharded era so their history stays traceable.

use std::collections::BTreeMap;
use std::sync::mpsc;
use streamworks::workloads::queries::labelled_news_query;
use streamworks::workloads::{NewsConfig, NewsStreamGenerator};
use streamworks::{
    ContinuousQueryEngine, Duration, EdgeEvent, MatchEvent, QueryGraph, QueryHandle, Timestamp,
};

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

/// Replays `events` through a fresh engine with the given queries in calls
/// of `batch` events, returning all matches plus the per-query
/// complete-match counts.
fn run(queries: &[QueryGraph], events: &[EdgeEvent], batch: usize) -> (Vec<MatchEvent>, Vec<u64>) {
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
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
fn invariance_holds_across_batch_granularities() {
    // Single-event ingest runs every per-call step once per event; the
    // result must be identical to that of large batches.
    let queries = vec![labelled_news_query("politics", Duration::from_mins(30))];
    let events: Vec<EdgeEvent> = news_events().into_iter().take(1_500).collect();
    let (reference, ref_counts) = run(&queries, &events, 1);
    let expected = multiset(&reference);
    assert!(ref_counts[0] > 0, "the news stream must produce matches");
    for batch in [64usize, 4096] {
        let (got, counts) = run(&queries, &events, batch);
        assert_eq!(multiset(&got), expected, "batch={batch}");
        assert_eq!(counts, ref_counts, "batch={batch}");
    }
}

/// A join store may reclaim in the middle of an `ingest` call, whenever a
/// filing finds its side full (as the engine's 256-event sweep once did). A
/// reclaim that dropped partials a later event of the same call still had to
/// join would lose that match. The hot wedge
/// keeps a steadily expiring window full of joinable partials, which is what
/// it takes to expose such a loss; calls of one event are the reference.
#[test]
fn mid_call_prunes_lose_no_sharded_matches() {
    use streamworks::query::{ManualDecomposition, Planner, QueryEdgeId};

    let query = streamworks::parse_query(
        "QUERY hot_wedge WINDOW 8m \
         MATCH (a1:Article)-[:mentions]->(k:Keyword), (a2:Article)-[:mentions]->(k), \
               (a1)-[:located]->(l:Location)",
    )
    .unwrap();
    // Three single-edge leaves, left-deep: two joins over a windowed store.
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

    // Call lengths around the engine's old sweep cadence.
    let sweep_every = 256;
    let run = |batch: usize| {
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        engine.register_plan(plan.clone());
        let mut matches = Vec::new();
        for chunk in events.chunks(batch) {
            matches.extend(engine.ingest(chunk).unwrap());
        }
        multiset(&matches)
    };
    let expected = run(1);
    assert!(expected.len() > events.len(), "the wedge must run hot");
    for batch in [sweep_every, 2 * sweep_every + 1, events.len()] {
        let got = run(batch);
        assert_eq!(got.len(), expected.len(), "batch={batch}: distinct matches");
        assert!(got == expected, "batch={batch}");
    }
}

#[test]
fn sharded_subscription_sees_one_ordered_stream() {
    let query = labelled_news_query("politics", Duration::from_mins(30));
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    let handle = engine.register_query(query).unwrap();
    let (tx, feed) = mpsc::channel();
    let sub = engine
        .subscribe(handle, move |m: MatchEvent| {
            let _ = tx.send(m);
        })
        .unwrap();

    let events = news_events();
    let mut returned = Vec::new();
    for chunk in events.chunks(512) {
        returned.extend(engine.ingest(chunk).unwrap());
    }
    assert!(!returned.is_empty(), "stream must produce matches");

    // The tenant's subscription got exactly the returned stream, in the same
    // order, and ordered by stream time (each match is stamped with the
    // timestamp of its completing edge, and edges arrive in time order).
    let seen: Vec<MatchEvent> = feed.try_iter().collect();
    assert_eq!(seen, returned);
    for pair in seen.windows(2) {
        assert!(
            pair[0].at <= pair[1].at,
            "delivery must preserve stream order: {:?} then {:?}",
            pair[0].at,
            pair[1].at
        );
    }

    // The query's metrics account for every delivered match.
    let complete = engine.metrics(handle).unwrap().complete_matches;
    assert_eq!(complete, seen.len() as u64);

    engine.unsubscribe(sub).unwrap();
    assert_eq!(engine.subscription_count(handle).unwrap(), 0);
}
