//! Trace replay and adaptive re-planning.
//!
//! Run with:
//! ```text
//! cargo run --release --example replay_and_replan
//! ```
//!
//! This example exercises two capabilities that round out the system beyond
//! the paper's demo script:
//!
//! 1. **Trace persistence** — a generated workload is written to a JSON-lines
//!    trace file and replayed from disk (the reproduction's stand-in for
//!    replaying captured CAIDA traffic).
//! 2. **Adaptive re-planning** — a query registered *before* any data arrives
//!    is planned blindly; after the stream has been summarized the engine
//!    re-plans it with the learned statistics (paper §4.3 lists this as future
//!    work) and the two plans are compared.

use streamworks::query::{CostBasedOrdered, ManualDecomposition, TreeShapeKind};
use streamworks::workloads::queries::news_triple_query;
use streamworks::workloads::{read_trace_file, write_trace_file, NewsConfig, NewsStreamGenerator};
use streamworks::{ContinuousQueryEngine, Duration};

fn main() {
    // ---- 1. generate a workload and persist it as a trace -----------------
    let workload = NewsStreamGenerator::new(NewsConfig {
        articles: 1_500,
        planted_events: vec![("politics".into(), 3), ("earthquake".into(), 4)],
        ..Default::default()
    })
    .generate();
    let trace_path = std::env::temp_dir().join("streamworks-news-trace.jsonl");
    let written = write_trace_file(&trace_path, &workload.events).expect("write trace");
    println!("wrote {written} events to {}", trace_path.display());

    let replayed = read_trace_file(&trace_path).expect("read trace");
    assert_eq!(replayed.len(), workload.events.len());
    println!("replayed {} events from disk\n", replayed.len());

    // ---- 2. blind registration, then statistics-driven re-planning --------
    // Single edges in edge-id order: what a system with no statistics would do.
    let query = news_triple_query(Duration::from_mins(10));
    let blind = ManualDecomposition::new(query.edge_ids().map(|e| vec![e]).collect());
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    let triple = engine
        .register_query_with(query, &blind, TreeShapeKind::LeftDeep)
        .unwrap();
    println!("--- plan before any data (frequency-blind) ---");
    println!("{}", engine.plan(triple).unwrap().explain());

    // Stream the first half to build summaries (and find early matches).
    let half = replayed.len() / 2;
    let mut matches = 0usize;
    for ev in &replayed[..half] {
        matches += engine.ingest(ev).unwrap().len();
    }
    println!(
        "first half: {matches} matches, summaries over {} edges",
        half
    );

    // Re-plan with the learned statistics: located edges are rarer than
    // mention edges, so they move to the bottom of the SJ-Tree.
    engine
        .replan(
            triple,
            &CostBasedOrdered::default(),
            TreeShapeKind::LeftDeep,
        )
        .unwrap();
    println!("\n--- plan after re-planning with learned statistics ---");
    println!("{}", engine.plan(triple).unwrap().explain());

    for ev in &replayed[half..] {
        matches += engine.ingest(ev).unwrap().len();
    }
    let metrics = engine.metrics(triple).unwrap();
    println!(
        "total matches {matches}, partial matches inserted {}, joins attempted {}",
        metrics.partial_matches_inserted, metrics.joins_attempted
    );

    std::fs::remove_file(&trace_path).ok();
}
