//! Integration tests of the summarization → selectivity → planning pipeline
//! (paper §4.1/§4.3) on generated workloads, plus trace round-tripping through
//! the full engine.

use streamworks::query::{CostBasedOrdered, QueryEdgeId, SelectivityEstimator};
use streamworks::workloads::queries::{news_triple_query, smurf_ddos_query};
use streamworks::workloads::{
    read_trace, write_trace, CyberConfig, CyberTrafficGenerator, NewsConfig, NewsStreamGenerator,
};
use streamworks::{ContinuousQueryEngine, Duration, Planner};

/// Feeds a workload through an engine purely to accumulate statistics.
fn summarize_stream(events: &[streamworks::EdgeEvent]) -> ContinuousQueryEngine {
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    for ev in events {
        engine.ingest(ev).unwrap();
    }
    engine
}

#[test]
fn summary_ranks_rare_news_edges_below_frequent_ones() {
    let workload = NewsStreamGenerator::new(NewsConfig {
        articles: 800,
        planted_events: vec![],
        ..Default::default()
    })
    .generate();
    let engine = summarize_stream(&workload.events);
    let query = news_triple_query(Duration::from_mins(30));
    let estimator = SelectivityEstimator::with_summary(engine.summary(), engine.graph());

    // Edge 0 is a mention (frequent), edge 3 is a located edge (rarer: one per
    // article vs. up to four mentions).
    let mention = estimator.edge_cardinality(&query, QueryEdgeId(0));
    let located = estimator.edge_cardinality(&query, QueryEdgeId(3));
    assert!(
        located < mention,
        "located ({located}) should be rarer than mentions ({mention})"
    );

    // Consequently the statistics-driven plan starts from a primitive that
    // contains a located edge.
    let plan = Planner::new()
        .with_statistics(engine.summary(), engine.graph())
        .plan_with(query.clone(), &CostBasedOrdered::default())
        .unwrap();
    let first_leaf = &plan.primitives[0];
    let has_located = first_leaf
        .edges
        .iter()
        .any(|&e| query.edge(e).etype.as_deref() == Some("located"));
    assert!(
        has_located,
        "first primitive {:?} should contain a located edge",
        first_leaf.edges
    );
}

#[test]
fn cyber_summary_reflects_live_window_population() {
    let workload = CyberTrafficGenerator::new(CyberConfig {
        background_edges: 5_000,
        edge_interval: Duration::from_millis(200),
        attacks: vec![],
        ..Default::default()
    })
    .generate();
    // Register a query with a short window so retention (and thus summary
    // retraction) kicks in.
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    engine
        .register_query(smurf_ddos_query(3, Duration::from_mins(1)))
        .unwrap();
    for ev in &workload.events {
        engine.ingest(ev).unwrap();
    }
    let flow = engine.graph().edge_type_id("flow").unwrap();
    let live_flow_edges = engine.graph().edges().filter(|e| e.etype == flow).count() as u64;
    // The summary's live count tracks the graph's live count exactly (both are
    // updated on ingest and on expiry).
    assert_eq!(engine.summary().types().edge_count(flow), live_flow_edges);
    assert!(engine.graph_stats().expired_edges > 0);
}

#[test]
fn degree_skew_is_visible_in_summary_histograms() {
    let workload = CyberTrafficGenerator::new(CyberConfig {
        hosts: 300,
        background_edges: 6_000,
        attacks: vec![],
        ..Default::default()
    })
    .generate();
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    for ev in &workload.events {
        engine.ingest(ev).unwrap();
    }
    let mut summary = engine.summary().clone();
    summary.resample_degrees(engine.graph());
    let hist = summary.degrees().histogram();
    assert!(hist.count() > 0);
    // Power-law traffic: the maximum degree is far above the median.
    let median = hist.quantile(0.5).unwrap();
    let max = hist.max().unwrap();
    assert!(
        max > 4 * median.max(1),
        "expected hub-skewed degrees, median {median} max {max}"
    );
}

#[test]
fn traces_round_trip_through_the_engine() {
    let workload = NewsStreamGenerator::new(NewsConfig {
        articles: 300,
        planted_events: vec![("politics".into(), 3)],
        ..Default::default()
    })
    .generate();

    // Write to an in-memory trace and read back.
    let mut buf = Vec::new();
    write_trace(&mut buf, &workload.events).unwrap();
    let replayed = read_trace(buf.as_slice()).unwrap();
    assert_eq!(replayed.len(), workload.events.len());

    // The replayed stream produces exactly the same matches as the original.
    let run = |events: &[streamworks::EdgeEvent]| -> Vec<String> {
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        engine
            .register_query(streamworks::workloads::queries::labelled_news_query(
                "politics",
                Duration::from_mins(30),
            ))
            .unwrap();
        let mut out: Vec<String> = Vec::new();
        for ev in events {
            for m in engine.ingest(ev).unwrap() {
                out.push(m.render());
            }
        }
        out
    };
    assert_eq!(run(&workload.events), run(&replayed));
}
