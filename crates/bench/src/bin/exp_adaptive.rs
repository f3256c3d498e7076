//! Experiment E14: adaptive re-planning under statistics drift (§4.3 future
//! work). Runs the Fig. 2 news query registered with a frequency-blind plan,
//! streams two phases of skewed traffic with an `AdaptiveReplanner` checking
//! between them, and reports the per-phase matching effort under the initial
//! plan, the adaptively chosen plan, and — for reference — an engine that was
//! given the statistics-driven plan from the start.
//!
//! The `cold` rows are the case a caller hits: `register_query` on an empty
//! engine, whose summary holds nothing to plan from, never re-planned and
//! checked once by the replanner after phase 1.
//!
//! ```text
//! cargo run --release -p streamworks-bench --bin exp_adaptive [-- small|medium|large]
//! ```

use streamworks_bench::{measure, PresetSize, Table};
use streamworks_core::{
    AdaptiveConfig, AdaptiveReplanner, ContinuousQueryEngine, EngineConfig, QueryHandle,
    ReplanDecision,
};
use streamworks_graph::{Duration, EdgeEvent, Timestamp};
use streamworks_query::{ManualDecomposition, TreeShapeKind};
use streamworks_workloads::queries::news_triple_query;
use streamworks_workloads::{NewsConfig, NewsStreamGenerator};

/// One phase of the news stream, its clock moved to start at `start`.
fn phase(seed: u64, articles: usize, start: Timestamp) -> Vec<EdgeEvent> {
    let mut events = NewsStreamGenerator::new(NewsConfig {
        articles,
        planted_events: vec![("politics".into(), 3)],
        seed,
        ..Default::default()
    })
    .generate()
    .events;
    for ev in &mut events {
        ev.timestamp = Timestamp::from_micros(ev.timestamp.as_micros() + start.as_micros());
    }
    events
}

fn run_phase(
    engine: &mut ContinuousQueryEngine,
    id: QueryHandle,
    events: &[EdgeEvent],
    label: &str,
    plan: &str,
    table: &mut Table,
) {
    let inserted_before = engine.metrics(id).unwrap().partial_matches_inserted;
    let joins_before = engine.metrics(id).unwrap().joins_attempted;
    let run = measure(events.len(), || {
        let mut matches = 0u64;
        for ev in events {
            matches += engine.ingest(ev).unwrap().len() as u64;
        }
        matches
    });
    let m = engine.metrics(id).unwrap();
    table.row(&[
        label.to_string(),
        plan.to_string(),
        format!("{:.0}", run.throughput()),
        run.matches.to_string(),
        (m.partial_matches_inserted - inserted_before).to_string(),
        (m.joins_attempted - joins_before).to_string(),
    ]);
}

/// Streams both phases through `engine` with an `AdaptiveReplanner` that
/// snapshots the statistics before phase 1 and checks once after it.
fn run_adaptive(
    engine: &mut ContinuousQueryEngine,
    id: QueryHandle,
    phases: [&[EdgeEvent]; 2],
    label: &str,
    initial_plan: &str,
    table: &mut Table,
) -> Vec<ReplanDecision> {
    let mut replanner = AdaptiveReplanner::new(AdaptiveConfig {
        min_edges_between_replans: 1_000,
        drift_threshold: 0.05,
        min_improvement: 1.1,
        ..AdaptiveConfig::default()
    });
    replanner.check(engine);
    run_phase(engine, id, phases[0], label, initial_plan, table);
    let decisions = replanner.check(engine);
    let plan_after = engine.plan(id).unwrap().strategy.clone();
    run_phase(engine, id, phases[1], label, &plan_after, table);
    decisions
}

fn main() {
    let size = PresetSize::parse(&std::env::args().nth(1).unwrap_or_else(|| "small".into()));
    let articles = match size {
        PresetSize::Small => 2_000,
        PresetSize::Medium => 8_000,
        PresetSize::Large => 20_000,
    };
    let phase1 = phase(11, articles, Timestamp::from_micros(0));
    // Phase 2 continues the stream where phase 1 ends, so no event of it
    // arrives late.
    let phase2 = phase(12, articles, phase1.last().unwrap().timestamp);
    let query = news_triple_query(Duration::from_mins(30));
    let config = EngineConfig::default();

    println!(
        "# E14: adaptive re-planning (news triple query, 2 phases x {} articles)",
        articles
    );
    let mut table = Table::new(&[
        "engine",
        "plan in effect",
        "edges/s",
        "matches",
        "partial_inserted",
        "joins",
    ]);

    // (a) Blind plan (single edges in edge-id order), never re-planned.
    let blind_plan = ManualDecomposition::new(query.edge_ids().map(|e| vec![e]).collect());
    let mut blind = ContinuousQueryEngine::new(config);
    let blind_id = blind
        .register_query_with(query.clone(), &blind_plan, TreeShapeKind::LeftDeep)
        .unwrap();
    run_phase(
        &mut blind,
        blind_id,
        &phase1,
        "static-blind",
        "blind",
        &mut table,
    );
    run_phase(
        &mut blind,
        blind_id,
        &phase2,
        "static-blind",
        "blind",
        &mut table,
    );

    // (b) Blind plan + adaptive replanner checked between the phases.
    let mut adaptive = ContinuousQueryEngine::new(config);
    let adaptive_id = adaptive
        .register_query_with(query.clone(), &blind_plan, TreeShapeKind::LeftDeep)
        .unwrap();
    let decisions = run_adaptive(
        &mut adaptive,
        adaptive_id,
        [&phase1, &phase2],
        "adaptive",
        "blind",
        &mut table,
    );

    // (c) Statistics-driven plan from the start (upper bound for phase 2).
    let mut informed = ContinuousQueryEngine::new(config);
    // Warm statistics so the informed plan actually has something to use.
    for ev in &phase1 {
        informed.ingest(ev).unwrap();
    }
    let informed_id = informed.register_query(query.clone()).unwrap();
    run_phase(
        &mut informed,
        informed_id,
        &phase2,
        "informed-from-start",
        "cost-based",
        &mut table,
    );

    // (d) Registered on an empty engine, as a caller registers: the
    // summary holds nothing yet, so the cost-based plan is made blind.
    let mut cold = ContinuousQueryEngine::new(config);
    let cold_id = cold.register_query(query.clone()).unwrap();
    run_phase(&mut cold, cold_id, &phase1, "cold", "cold", &mut table);
    run_phase(&mut cold, cold_id, &phase2, "cold", "cold", &mut table);

    // (e) The same registration, checked once by the replanner after phase 1.
    let mut cold_adaptive = ContinuousQueryEngine::new(config);
    let cold_adaptive_id = cold_adaptive.register_query(query).unwrap();
    let cold_decisions = run_adaptive(
        &mut cold_adaptive,
        cold_adaptive_id,
        [&phase1, &phase2],
        "cold-adaptive",
        "cold",
        &mut table,
    );

    println!("{}", table.render());
    println!(
        "phase-2 match counts differ: an engine that re-plans, or registers, after phase 1 \
         starts phase 2 without the partial matches that span the phase boundary"
    );
    for (engine, decisions) in [("adaptive", decisions), ("cold-adaptive", cold_decisions)] {
        for d in &decisions {
            println!(
                "replan decision ({engine}): query={} drift={:.3} current_cost={:.1} candidate_cost={:.1} replanned={} ({})",
                d.query, d.drift, d.current_cost, d.candidate_cost, d.replanned, d.reason
            );
        }
    }
}
