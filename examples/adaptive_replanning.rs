//! Adaptive re-planning: continuously collected statistics update the query
//! decomposition while the stream runs (the future-work item of paper §4.3).
//!
//! Run with:
//! ```text
//! cargo run --release --example adaptive_replanning
//! ```
//!
//! The example registers the Fig. 2-style news query with a deliberately bad
//! (frequency-blind) plan, streams a first phase of traffic whose skew makes
//! that plan expensive, lets the [`AdaptiveReplanner`] observe the drift and
//! swap in a cost-based plan, then streams a second phase — continuing the
//! stream's clock where the first one ends — and compares the partial-match
//! effort before and after the switch.

use streamworks::query::ManualDecomposition;
use streamworks::workloads::{NewsConfig, NewsStreamGenerator};
use streamworks::{
    AdaptiveConfig, AdaptiveReplanner, ContinuousQueryEngine, Duration, Timestamp, TreeShapeKind,
};

fn main() {
    let query = streamworks::workloads::queries::news_triple_query(Duration::from_mins(30));

    // Register with the frequency-blind plan: single-edge primitives in edge
    // order, exactly what a system with no statistics would do.
    let blind = ManualDecomposition::new(query.edge_ids().map(|e| vec![e]).collect());
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    let id = engine
        .register_query_with(query, &blind, TreeShapeKind::LeftDeep)
        .expect("query plans");
    println!("initial plan ({}):", engine.plan(id).unwrap().strategy);
    println!(
        "{}",
        engine
            .plan(id)
            .unwrap()
            .shape
            .render(&engine.plan(id).unwrap().query)
    );

    let mut replanner = AdaptiveReplanner::new(AdaptiveConfig {
        min_edges_between_replans: 2_000,
        drift_threshold: 0.05,
        min_improvement: 1.1,
        ..AdaptiveConfig::default()
    });
    replanner.check(&mut engine); // capture the (empty) baseline

    // Phase 1: heavily skewed news traffic — mentions vastly outnumber
    // located edges, so anchoring the plan on mentions is wasteful.
    let phase1 = NewsStreamGenerator::new(NewsConfig {
        articles: 3_000,
        planted_events: vec![("politics".into(), 3)],
        seed: 11,
        ..Default::default()
    })
    .generate();
    let mut matches_phase1 = 0usize;
    for ev in &phase1.events {
        matches_phase1 += engine.ingest(ev).unwrap().len();
    }
    let before = engine.metrics(id).unwrap();
    println!(
        "phase 1: {} events, {} matches, {} partial matches inserted, {} joins",
        phase1.events.len(),
        matches_phase1,
        before.partial_matches_inserted,
        before.joins_attempted
    );

    // Let the replanner look at the drifted statistics.
    let decisions = replanner.check(&mut engine);
    for d in &decisions {
        println!(
            "replan decision: drift={:.3} current_cost={:.1} candidate_cost={:.1} replanned={} ({})",
            d.drift, d.current_cost, d.candidate_cost, d.replanned, d.reason
        );
    }
    println!(
        "\nplan after check ({}):",
        engine.plan(id).unwrap().strategy
    );
    println!(
        "{}",
        engine
            .plan(id)
            .unwrap()
            .shape
            .render(&engine.plan(id).unwrap().query)
    );

    // Phase 2: more traffic with the same skew, now under the new plan. The
    // generator starts its clock at 0, so its events are moved to begin at
    // phase 1's last timestamp: phase 2 continues the stream instead of
    // replaying late events behind it.
    let mut phase2 = NewsStreamGenerator::new(NewsConfig {
        articles: 3_000,
        planted_events: vec![("politics".into(), 3)],
        seed: 12,
        ..Default::default()
    })
    .generate();
    let start = phase1.events.last().expect("phase 1 has events").timestamp;
    for ev in &mut phase2.events {
        ev.timestamp = Timestamp::from_micros(ev.timestamp.as_micros() + start.as_micros());
    }
    let inserted_before_phase2 = engine.metrics(id).unwrap().partial_matches_inserted;
    let mut matches_phase2 = 0usize;
    for ev in &phase2.events {
        matches_phase2 += engine.ingest(ev).unwrap().len();
    }
    let after = engine.metrics(id).unwrap();
    println!(
        "phase 2: {} events, {} matches, {} partial matches inserted under the new plan",
        phase2.events.len(),
        matches_phase2,
        after.partial_matches_inserted - inserted_before_phase2
    );
    println!(
        "\nreplans applied: {} (decisions recorded: {})",
        replanner.replans_applied(),
        replanner.decisions().len()
    );
}
