//! Quickstart: register a continuous graph query and feed it a stream.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The example registers the simplest interesting query — two articles that
//! mention the same keyword within one hour — subscribes a closure to it,
//! pushes a batch of edge events through the engine, and then walks the query
//! through its lifecycle (pause, resume, deregister).

use streamworks::{ContinuousQueryEngine, EdgeEvent, MatchEvent, Timestamp};

fn main() {
    // 1. Build the engine. The builder validates every setting up front; the
    //    defaults maintain graph statistics (used for query planning) and
    //    drop stale partial matches automatically.
    let mut engine = ContinuousQueryEngine::builder()
        .build()
        .expect("valid configuration");

    // 2. Register a continuous query using the text DSL. Queries can also be
    //    built programmatically with `QueryGraphBuilder`. Registration hands
    //    back a generation-tagged handle — the capability for everything
    //    else: metrics, re-planning, subscriptions, pause and deregister.
    let pairs = engine
        .register_dsl(
            r#"
            QUERY common_keyword WINDOW 1h
            MATCH (a1:Article)-[:mentions]->(k:Keyword),
                  (a2:Article)-[:mentions]->(k)
            "#,
        )
        .expect("query parses and plans");
    println!(
        "registered query:\n{}\n",
        engine.plan(pairs).unwrap().explain()
    );

    // 3. Subscribe to the query: the engine owns the closure and calls it
    //    with every future match of *this* query, independent of other
    //    tenants.
    let subscription = engine
        .subscribe(pairs, |m: MatchEvent| {
            println!("subscriber saw: {}", m.render())
        })
        .unwrap();

    // 4. Feed a stream of timestamped edge events. `ingest` accepts a single
    //    `&event`, a slice, or any iterator via `EventBatch`; batches share
    //    one bookkeeping pass and return the complete matches in order.
    let stream = [
        EdgeEvent::new(
            "article-1",
            "Article",
            "rust",
            "Keyword",
            "mentions",
            Timestamp::from_secs(0),
        ),
        EdgeEvent::new(
            "article-1",
            "Article",
            "berlin",
            "Location",
            "located",
            Timestamp::from_secs(30),
        ),
        EdgeEvent::new(
            "article-2",
            "Article",
            "go",
            "Keyword",
            "mentions",
            Timestamp::from_secs(60),
        ),
        EdgeEvent::new(
            "article-3",
            "Article",
            "rust",
            "Keyword",
            "mentions",
            Timestamp::from_secs(90),
        ),
        EdgeEvent::new(
            "article-4",
            "Article",
            "rust",
            "Keyword",
            "mentions",
            Timestamp::from_secs(120),
        ),
    ];
    let matches = engine.ingest(&stream).unwrap();
    println!("\n{} matches emitted", matches.len());

    // 5. Lifecycle: a paused query costs nothing per event and reports no
    //    matches; resuming re-enters it into the dispatch table.
    engine.pause(pairs).unwrap();
    let while_paused = engine
        .ingest(&EdgeEvent::new(
            "article-5",
            "Article",
            "rust",
            "Keyword",
            "mentions",
            Timestamp::from_secs(150),
        ))
        .unwrap();
    assert!(while_paused.is_empty());
    engine.resume(pairs).unwrap();

    // 6. Inspect metrics through the handle, then retire the query. After
    //    deregistration the handle is permanently stale and all partial-match
    //    memory is released.
    let metrics = engine.metrics(pairs).unwrap();
    println!(
        "edges processed: {}, partial matches live: {}, joins attempted: {}",
        metrics.edges_processed, metrics.partial_matches_live, metrics.joins_attempted
    );
    println!("graph: {:?}", engine.graph_stats());

    engine.unsubscribe(subscription).unwrap();
    engine.deregister(pairs).unwrap();
    assert!(engine.metrics(pairs).is_err());
    println!(
        "query deregistered; {} live queries remain",
        engine.query_count()
    );
}
