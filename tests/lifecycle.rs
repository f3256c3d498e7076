//! Query lifecycle: registration, pause/resume, deregistration, stale
//! handles, and the release of partial-match memory.
//!
//! These tests exercise the service-object contract of the engine: a query
//! can be registered, matched against, paused, resumed and deregistered at
//! runtime; after deregistration its join-store memory is gone (observed
//! through the engine's live partial-match accounting) and its handle is
//! permanently stale. A subscriber that panics is detached without
//! poisoning the engine or the query's other subscribers.

use std::sync::mpsc;
use streamworks::query::{CostBasedOrdered, QueryGraphBuilder};
use streamworks::{
    ContinuousQueryEngine, Duration, EdgeEvent, MatchEvent, QueryGraph, SubscriptionHealth,
    Timestamp, TreeShapeKind,
};

fn ev(src: &str, dst: &str, dt: &str, et: &str, t: i64) -> EdgeEvent {
    EdgeEvent::new(src, "Article", dst, dt, et, Timestamp::from_secs(t))
}

fn keyword_pair(window_secs: i64) -> QueryGraph {
    QueryGraphBuilder::new("keyword_pair")
        .window(Duration::from_secs(window_secs))
        .vertex("a1", "Article")
        .vertex("a2", "Article")
        .vertex("k", "Keyword")
        .edge("a1", "mentions", "k")
        .edge("a2", "mentions", "k")
        .build()
        .unwrap()
}

fn location_pair(window_secs: i64) -> QueryGraph {
    QueryGraphBuilder::new("location_pair")
        .window(Duration::from_secs(window_secs))
        .vertex("a1", "Article")
        .vertex("a2", "Article")
        .vertex("l", "Location")
        .edge("a1", "located", "l")
        .edge("a2", "located", "l")
        .build()
        .unwrap()
}

/// Registers with single-edge primitives so the SJ-Tree genuinely stores
/// partial matches (a 2-edge primitive would collapse the pair query into one
/// leaf emitting complete matches directly).
fn register_storing(
    engine: &mut ContinuousQueryEngine,
    query: QueryGraph,
) -> streamworks::QueryHandle {
    engine
        .register_query_with(
            query,
            &CostBasedOrdered {
                max_primitive_size: 1,
            },
            TreeShapeKind::LeftDeep,
        )
        .unwrap()
}

#[test]
fn full_lifecycle_register_match_pause_resume_deregister() {
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    let keywords = register_storing(&mut engine, keyword_pair(3_600));

    // Matched against while running.
    engine
        .ingest(&ev("a1", "k1", "Keyword", "mentions", 10))
        .unwrap();
    let matched = engine
        .ingest(&ev("a2", "k1", "Keyword", "mentions", 20))
        .unwrap();
    assert_eq!(matched.len(), 2);

    // Paused: the event is not routed, so nothing matches and the matcher
    // never even sees the edge.
    engine.pause(keywords).unwrap();
    assert!(engine.is_paused(keywords).unwrap());
    let edges_before = engine.metrics(keywords).unwrap().edges_processed;
    let while_paused = engine
        .ingest(&ev("a3", "k1", "Keyword", "mentions", 30))
        .unwrap();
    assert!(while_paused.is_empty());
    assert_eq!(
        engine.metrics(keywords).unwrap().edges_processed,
        edges_before,
        "paused queries cost zero per-event work"
    );

    // Resumed: later events match again (the edge streamed past while paused
    // is gone, as for a late-registered query).
    engine.resume(keywords).unwrap();
    assert!(!engine.is_paused(keywords).unwrap());
    let resumed = engine
        .ingest(&ev("a4", "k1", "Keyword", "mentions", 40))
        .unwrap();
    assert_eq!(
        resumed.len(),
        4,
        "a4 pairs with a1, a2 (a3 was never indexed)"
    );

    // Deregistered: gone for good.
    engine.deregister(keywords).unwrap();
    assert_eq!(engine.query_count(), 0);
    assert!(engine
        .ingest(&ev("a5", "k1", "Keyword", "mentions", 50))
        .unwrap()
        .is_empty());
}

#[test]
fn deregistration_releases_partial_match_memory_and_stops_matches() {
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    let keywords = register_storing(&mut engine, keyword_pair(3_600));
    let locations = register_storing(&mut engine, location_pair(3_600));

    // Distinct keywords / locations: plenty of partial matches, no complete
    // ones.
    for i in 0..100 {
        engine
            .ingest(&ev(
                &format!("a{i}"),
                &format!("k{i}"),
                "Keyword",
                "mentions",
                i,
            ))
            .unwrap();
        engine
            .ingest(&ev(
                &format!("a{i}"),
                &format!("p{i}"),
                "Location",
                "located",
                i,
            ))
            .unwrap();
    }
    let keyword_live = engine.metrics(keywords).unwrap().partial_matches_live;
    let location_live = engine.metrics(locations).unwrap().partial_matches_live;
    assert!(keyword_live > 0 && location_live > 0);
    assert_eq!(
        engine.live_partial_matches(),
        keyword_live + location_live,
        "engine-wide accounting sums the per-query join stores"
    );

    // Deregistering the keyword query frees its join-store slots immediately:
    // the engine-wide figure drops to exactly the location query's share.
    engine.deregister(keywords).unwrap();
    assert_eq!(engine.live_partial_matches(), location_live);
    assert_eq!(engine.query_count(), 1);

    // The deregistered query reports no further matches; the survivor still
    // works.
    let out = engine
        .ingest(&[
            ev("b1", "shared", "Keyword", "mentions", 200),
            ev("b2", "shared", "Keyword", "mentions", 201),
            ev("b1", "paris", "Location", "located", 202),
            ev("b2", "paris", "Location", "located", 203),
        ])
        .unwrap();
    assert!(out.iter().all(|m| m.query == locations.id()));
    assert_eq!(out.len(), 2);
}

#[test]
fn pause_resume_round_trip_is_equivalent_to_never_pausing() {
    let events: Vec<EdgeEvent> = (0..200)
        .map(|i| {
            ev(
                &format!("a{}", i % 20),
                &format!("k{}", i % 5),
                "Keyword",
                "mentions",
                i,
            )
        })
        .collect();

    let mut plain = ContinuousQueryEngine::builder().build().unwrap();
    register_storing(&mut plain, keyword_pair(60));
    let mut toggled = ContinuousQueryEngine::builder().build().unwrap();
    let handle = register_storing(&mut toggled, keyword_pair(60));

    let mut plain_matches = Vec::new();
    let mut toggled_matches = Vec::new();
    for (i, event) in events.iter().enumerate() {
        plain_matches.extend(plain.ingest(event).unwrap());
        // Pause and immediately resume between every few events: no event is
        // ever routed while paused, so the round trip must be invisible.
        if i % 7 == 0 {
            toggled.pause(handle).unwrap();
            toggled.resume(handle).unwrap();
        }
        toggled_matches.extend(toggled.ingest(event).unwrap());
    }
    assert!(!plain_matches.is_empty());
    assert_eq!(plain_matches.len(), toggled_matches.len());
    let sig = |m: &streamworks::MatchEvent| {
        let mut e: Vec<u64> = m.edges.iter().map(|e| e.0).collect();
        e.sort_unstable();
        e
    };
    assert_eq!(
        plain_matches.iter().map(sig).collect::<Vec<_>>(),
        toggled_matches.iter().map(sig).collect::<Vec<_>>()
    );
}

#[test]
fn stale_handles_error_cleanly_everywhere() {
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    let handle = engine.register_query(keyword_pair(60)).unwrap();
    let subscription = engine.subscribe(handle, |_: MatchEvent| {}).unwrap();
    engine.deregister(handle).unwrap();

    assert!(engine.plan(handle).is_err());
    assert!(engine.metrics(handle).is_err());
    assert!(engine.matcher(handle).is_err());
    assert!(engine.pause(handle).is_err());
    assert!(engine.resume(handle).is_err());
    assert!(engine.is_paused(handle).is_err());
    assert!(engine.deregister(handle).is_err(), "double deregistration");
    assert!(engine
        .replan(
            handle,
            &CostBasedOrdered::default(),
            TreeShapeKind::LeftDeep
        )
        .is_err());
    assert!(engine.subscribe(handle, |_: MatchEvent| {}).is_err());
    assert!(
        engine.unsubscribe(subscription).is_err(),
        "subscriptions died with the query"
    );

    // A new registration re-occupies the freed slot under a new generation:
    // the generation tag is what keeps the old handle stale.
    let fresh = engine.register_query(keyword_pair(60)).unwrap();
    assert_eq!(fresh.id(), handle.id(), "slot is recycled, not appended");
    assert_ne!(fresh, handle);
    assert!(engine.metrics(handle).is_err());
    assert!(engine.metrics(fresh).is_ok());

    // The recycled query matches like any other, and its match events carry
    // the *new* occupant's handle — a consumer routing by handle can never
    // misattribute them to the retired tenant that shared the id.
    engine
        .ingest(&ev("r1", "k1", "Keyword", "mentions", 1_000))
        .unwrap();
    let matched = engine
        .ingest(&ev("r2", "k1", "Keyword", "mentions", 1_001))
        .unwrap();
    assert_eq!(matched.len(), 2);
    assert!(matched.iter().all(|m| m.query == fresh.id()));
    assert!(matched.iter().all(|m| m.handle() == fresh));
    assert!(matched.iter().all(|m| m.handle() != handle));
}

#[test]
fn register_deregister_churn_keeps_slot_table_bounded() {
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    let keep = engine.register_query(location_pair(60)).unwrap();
    let mut last = None;
    for _ in 0..100 {
        let h = engine.register_query(keyword_pair(60)).unwrap();
        engine.deregister(h).unwrap();
        if let Some(prev) = last {
            assert_ne!(h, prev, "each occupancy gets a distinct handle");
        }
        assert_eq!(h.id().0, 1, "the same slot is recycled every round");
        last = Some(h);
    }
    assert_eq!(engine.query_count(), 1);
    assert_eq!(engine.handles(), vec![keep]);
}

#[test]
fn handles_enumerate_live_queries_in_registration_order() {
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    let first = engine.register_query(keyword_pair(60)).unwrap();
    let second = engine.register_query(location_pair(60)).unwrap();
    let third = engine.register_query(keyword_pair(120)).unwrap();
    assert_eq!(engine.handles(), vec![first, second, third]);

    engine.deregister(second).unwrap();
    assert_eq!(engine.handles(), vec![first, third]);
    assert_eq!(engine.query_count(), 2);

    // all_metrics follows the same order and skips the dead slot.
    let metrics = engine.all_metrics();
    assert_eq!(metrics.len(), 2);
    assert_eq!(metrics[0].0, first);
    assert_eq!(metrics[1].0, third);
}

/// Article `a{i}` mentions keyword `k{i % collisions}` at second `i`: every
/// repeated keyword completes pair matches.
fn mentions(n: usize, collisions: usize) -> Vec<EdgeEvent> {
    (0..n)
        .map(|i| {
            let (article, keyword) = (format!("a{i}"), format!("k{}", i % collisions));
            ev(&article, &keyword, "Keyword", "mentions", i as i64)
        })
        .collect()
}

#[test]
fn panicking_sink_is_quarantined_without_poisoning_anything() {
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    let handle = register_storing(&mut engine, keyword_pair(3_600));
    let bad = engine
        .subscribe(handle, |_: MatchEvent| panic!("subscriber exploded"))
        .unwrap();
    let (tx, seen) = mpsc::channel();
    let good = engine
        .subscribe(handle, move |m: MatchEvent| {
            let _ = tx.send(m);
        })
        .unwrap();

    let events = mentions(8, 2);
    let matches = engine.ingest(&events[..]).unwrap();
    assert!(!matches.is_empty());
    // The healthy subscriber and the call-level collection saw everything.
    assert_eq!(seen.try_iter().count(), matches.len());
    // The panicking sink is quarantined with its panic message recorded...
    match engine.subscription_health(bad).unwrap() {
        SubscriptionHealth::Quarantined(message) => {
            assert!(message.contains("subscriber exploded"), "got: {message}")
        }
        // In-process sinks never retry: Degraded is a durable-only state.
        SubscriptionHealth::Active | SubscriptionHealth::Degraded { .. } => {
            panic!("panicking sink must be quarantined")
        }
    }
    assert_eq!(
        engine.subscription_health(good).unwrap(),
        SubscriptionHealth::Active
    );
    // ...and stays registered (health queryable) but silent from then on.
    assert_eq!(engine.subscription_count(handle).unwrap(), 2);
    let more = engine.ingest(&mentions(8, 2)[..]).unwrap();
    assert_eq!(seen.try_iter().count(), more.len());
    // Unsubscribing the quarantined sink works like any other.
    engine.unsubscribe(bad).unwrap();
    assert_eq!(engine.subscription_count(handle).unwrap(), 1);
}
