//! The bytes a match event leaves the engine as: its JSON and its
//! `render()` line.
//!
//! `BoundVertex` names and keys are shared strings, where they were owned
//! `String`s. Neither the JSON of an event nor its rendered line may change
//! with that: durable logs, checkpoints' outboxes and every consumer of
//! `swbench`'s digests read those bytes. `fixtures/match_events.jsonl` was
//! written by the `String` version of the engine from the stream below, a
//! JSON line and a render line per event, and the engine must still produce
//! every line byte for byte, and parse each JSON line back into the event
//! it emits.

use streamworks::{parse_query, ContinuousQueryEngine, EdgeEvent, MatchEvent, Timestamp};

/// A subgraph query and an RPQ over a short stream whose keys need JSON
/// escapes (quotes, a backslash, non-ASCII text).
fn emitted() -> Vec<MatchEvent> {
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    let pair = parse_query(
        "QUERY pair WINDOW 30m\n\
         MATCH (a1:Article)-[:mentions]->(k:Keyword), (a2:Article)-[:mentions]->(k)",
    )
    .unwrap();
    engine.register_query(pair).unwrap();
    engine
        .register_rpq_dsl("RPQ reach WINDOW 30m PATH mentions located")
        .unwrap();
    let stream = [
        ("a1", "Article", "k1", "Keyword", "mentions", 1),
        ("a\"2\"", "Article", "k1", "Keyword", "mentions", 2),
        ("caf\u{e9}\\3", "Article", "k1", "Keyword", "mentions", 3),
        ("k1", "Keyword", "Z\u{fc}rich", "Place", "located", 4),
        ("a1", "Article", "k2", "Keyword", "mentions", 5),
        ("k2", "Keyword", "Z\u{fc}rich", "Place", "located", 6),
    ];
    let mut events = Vec::new();
    for (src, st, dst, dt, et, secs) in stream {
        let edge = EdgeEvent::new(src, st, dst, dt, et, Timestamp::from_secs(secs));
        events.extend(engine.ingest(&edge).unwrap());
    }
    events
}

#[test]
fn events_serialise_and_render_as_the_string_fields_did() {
    let fixture = include_str!("../fixtures/match_events.jsonl");
    let lines: Vec<&str> = fixture.lines().collect();
    let events = emitted();
    assert_eq!(
        lines.len(),
        2 * events.len(),
        "one JSON and one render line per event"
    );
    for (event, pair) in events.iter().zip(lines.chunks(2)) {
        assert_eq!(serde_json::to_string(event).unwrap(), pair[0]);
        assert_eq!(event.render(), pair[1]);
        let parsed: MatchEvent = serde_json::from_str(pair[0]).unwrap();
        assert_eq!(&parsed, event);
        assert_eq!(parsed.render(), pair[1]);
    }
    // Both kinds of event, and every escape, are covered.
    assert!(events.iter().any(|e| e.query_name == "reach"));
    assert!(events.iter().any(|e| e.query_name == "pair"));
    assert!(fixture.contains("\\\"2\\\"") && fixture.contains("\\\\3"));
}
