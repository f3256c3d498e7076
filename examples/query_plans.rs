//! Query decomposition and plan comparison (paper Fig. 2 and Fig. 7) —
//! experiments E1 and E4.
//!
//! Run with:
//! ```text
//! cargo run --release --example query_plans            # Fig. 2: show decompositions
//! cargo run --release --example query_plans -- --progression
//!                                                       # Fig. 7: per-plan match progression
//! ```
//!
//! Without arguments the example prints the SJ-Tree the planner builds for the
//! Fig. 2 news query beside two hand-picked alternatives (the content of
//! Fig. 2). With `--progression` it replays a traffic stream containing one
//! Smurf DDoS attack through the same query planned three different ways —
//! the planner's plan and two hand-picked ones — and prints how
//! the fraction of the query matched evolves over time — the content of
//! Fig. 7, where different SJ-Tree structures track the emerging pattern at
//! different rates.

use streamworks::query::{
    CostBasedOrdered, DecompositionStrategy, ManualDecomposition, Planner, QueryEdgeId,
    TreeShapeKind,
};
use streamworks::workloads::queries::{news_triple_query, smurf_ddos_query};
use streamworks::workloads::{AttackKind, CyberConfig, CyberTrafficGenerator};
use streamworks::{ContinuousQueryEngine, Duration, EngineConfig, QueryGraph};

/// The frequency-blind plan: single edges in edge-id order.
fn single_edge_chain(query: &QueryGraph) -> ManualDecomposition {
    ManualDecomposition::new(query.edge_ids().map(|e| vec![e]).collect())
}

fn show_decompositions() {
    let query = news_triple_query(Duration::from_hours(6));
    println!("Fig. 2 query: three articles sharing a keyword and a location\n");

    let planner = Planner::new();
    let strategies: Vec<(&str, Box<dyn DecompositionStrategy>)> = vec![
        ("cost-based", Box::new(CostBasedOrdered::default())),
        ("single-edge-chain", Box::new(single_edge_chain(&query))),
        // The decomposition drawn in Fig. 2: one (mention, located) wedge per article.
        (
            "fig2-wedges",
            Box::new(ManualDecomposition::new(vec![
                vec![QueryEdgeId(0), QueryEdgeId(3)],
                vec![QueryEdgeId(1), QueryEdgeId(4)],
                vec![QueryEdgeId(2), QueryEdgeId(5)],
            ])),
        ),
    ];
    for (name, strategy) in strategies {
        let plan = planner.plan_with(query.clone(), strategy.as_ref()).unwrap();
        println!("=== plan: {name} ===");
        println!("{}", plan.explain());
    }
}

fn show_progression() {
    println!("Fig. 7 analogue: emerging Smurf DDoS matches under different query plans\n");
    let workload = CyberTrafficGenerator::new(CyberConfig {
        background_edges: 20_000,
        attacks: vec![(AttackKind::SmurfDdos, 4)],
        ..Default::default()
    })
    .generate();
    let query = smurf_ddos_query(4, Duration::from_mins(5));

    // Three plans for the same query: the planner's, the single-edge chain,
    // and one (request, reply) path per amplifier under a balanced tree.
    let planner = Planner::new();
    let amplifier_paths = ManualDecomposition::new(
        (0..query.edge_count() / 2)
            .map(|i| vec![QueryEdgeId(2 * i), QueryEdgeId(2 * i + 1)])
            .collect(),
    );
    let plans = vec![
        ("cost-based", planner.plan(query.clone()).unwrap()),
        (
            "single-edge-chain",
            planner
                .plan_with(query.clone(), &single_edge_chain(&query))
                .unwrap(),
        ),
        (
            "balanced-amp-paths",
            Planner::new()
                .tree_kind(TreeShapeKind::Balanced)
                .plan_with(query.clone(), &amplifier_paths)
                .unwrap(),
        ),
    ];

    let mut engines: Vec<(&str, ContinuousQueryEngine, streamworks::QueryHandle)> = plans
        .into_iter()
        .map(|(name, plan)| {
            let mut engine = ContinuousQueryEngine::new(EngineConfig::default());
            let id = engine.register_plan(plan);
            (name, engine, id)
        })
        .collect();

    let checkpoints = 12usize;
    let step = workload.events.len() / checkpoints;
    println!(
        "{:<10} {:>18} {:>18} {:>18}",
        "progress", "cost-based", "single-edge-chain", "balanced-amp-paths"
    );
    let mut processed = 0usize;
    for (i, ev) in workload.events.iter().enumerate() {
        for (_, engine, _) in engines.iter_mut() {
            engine.ingest(ev).unwrap();
        }
        processed = i + 1;
        if processed.is_multiple_of(step) || processed == workload.events.len() {
            let fractions: Vec<String> = engines
                .iter()
                .map(|(_, engine, id)| {
                    let matcher = engine.matcher(*id).unwrap();
                    format!(
                        "{:>6.0}% ({:>6} pm)",
                        matcher.best_partial_fraction() * 100.0,
                        matcher.metrics().partial_matches_live
                    )
                })
                .collect();
            println!(
                "{:>8.0}%  {:>18} {:>18} {:>18}",
                100.0 * processed as f64 / workload.events.len() as f64,
                fractions[0],
                fractions[1],
                fractions[2]
            );
        }
    }

    println!("\nfinal per-plan cost (same query, same stream):");
    println!(
        "{:<20} {:>10} {:>14} {:>14} {:>12} {:>10}",
        "plan", "complete", "partial-insert", "partial-expired", "joins", "candidates"
    );
    for (name, engine, id) in &engines {
        let m = engine.metrics(*id).unwrap();
        println!(
            "{:<20} {:>10} {:>14} {:>14} {:>12} {:>10}",
            name,
            m.complete_matches,
            m.partial_matches_inserted,
            m.partial_matches_expired,
            m.joins_attempted,
            m.local_search_candidates
        );
    }
    let _ = processed;
}

fn main() {
    let progression = std::env::args().any(|a| a == "--progression");
    if progression {
        show_progression();
    } else {
        show_decompositions();
    }
}
