//! Experiments E4/E7: plan-quality ablation — the same queries executed under
//! the cost-based planner's plan (two-edge and single-edge primitives) vs.
//! hand-picked plans: the frequency-blind single-edge chain and the paper's
//! wedge decomposition (Fig. 2 for the news query, one request/reply path per
//! amplifier for the Smurf query). Reports partial matches stored, join
//! attempts and wall time (the cost the §4.1 design goal minimises).
//!
//! ```text
//! cargo run --release -p streamworks-bench --bin exp_plan_ablation [-- small|medium|large]
//! ```

use streamworks_bench::{cyber_preset, measure, PresetSize, Table};
use streamworks_core::{ContinuousQueryEngine, EngineConfig};
use streamworks_graph::{Duration, EdgeEvent};
use streamworks_query::{
    estimate_shape_cost, CostBasedOrdered, DecompositionStrategy, ManualDecomposition, Planner,
    QueryEdgeId, QueryGraph, SelectivityEstimator, TreeShapeKind,
};
use streamworks_workloads::queries::{news_triple_query, smurf_ddos_query};
use streamworks_workloads::{CyberTrafficGenerator, NewsConfig, NewsStreamGenerator};

/// Hand-picked two-edge primitives, given as pairs of query edge ids.
fn wedges(pairs: &[(usize, usize)]) -> ManualDecomposition {
    ManualDecomposition::new(
        pairs
            .iter()
            .map(|&(a, b)| vec![QueryEdgeId(a), QueryEdgeId(b)])
            .collect(),
    )
}

fn ablate(
    name: &str,
    query: QueryGraph,
    manual_wedges: ManualDecomposition,
    events: &[EdgeEvent],
    table: &mut Table,
) {
    // Learn statistics with a warm-up pass.
    let mut warm = ContinuousQueryEngine::builder().build().unwrap();
    for ev in events {
        warm.ingest(ev).unwrap();
    }
    let blind = ManualDecomposition::new(query.edge_ids().map(|e| vec![e]).collect());
    let strategies: Vec<(&str, Box<dyn DecompositionStrategy>)> = vec![
        ("cost-based", Box::new(CostBasedOrdered::default())),
        (
            "cost-based-single",
            Box::new(CostBasedOrdered {
                max_primitive_size: 1,
            }),
        ),
        ("blind", Box::new(blind)),
        ("manual-wedges", Box::new(manual_wedges)),
    ];
    for (plan_name, strategy) in &strategies {
        let plan = Planner::new()
            .with_statistics(warm.summary(), warm.graph())
            .tree_kind(TreeShapeKind::LeftDeep)
            .plan_with(query.clone(), strategy.as_ref())
            .unwrap();
        // What the cost model predicts for this plan under the learned
        // statistics (compare with the measured partial_inserted column).
        let estimator = SelectivityEstimator::with_summary(warm.summary(), warm.graph());
        let predicted =
            estimate_shape_cost(&plan.query, &estimator, &plan.shape).stored_partial_matches;
        let mut engine = ContinuousQueryEngine::new(EngineConfig::default());
        let id = engine.register_plan(plan);
        let run = measure(events.len(), || {
            let mut matches = 0u64;
            for ev in events {
                matches += engine.ingest(ev).unwrap().len() as u64;
            }
            matches
        });
        let m = engine.metrics(id).unwrap();
        table.row(&[
            name.to_string(),
            plan_name.to_string(),
            format!("{:.0}", run.throughput()),
            run.matches.to_string(),
            m.partial_matches_inserted.to_string(),
            format!("{predicted:.0}"),
            m.joins_attempted.to_string(),
            m.local_search_candidates.to_string(),
        ]);
    }
}

fn main() {
    let size = PresetSize::parse(&std::env::args().nth(1).unwrap_or_else(|| "small".into()));

    println!("# E4/E7: decomposition-strategy ablation");
    let mut table = Table::new(&[
        "workload",
        "plan",
        "edges/s",
        "matches",
        "partial_inserted",
        "est_partial",
        "joins",
        "candidates",
    ]);

    // The unlabelled triple query is intentionally unselective; a moderate
    // stream keeps the frequency-blind plan finite while preserving the skew.
    let news = NewsStreamGenerator::new(NewsConfig {
        articles: 1_200 * if size == PresetSize::Small { 1 } else { 4 },
        planted_events: vec![("politics".into(), 3)],
        ..Default::default()
    })
    .generate();
    // Fig. 2: one (mentions, located) wedge per article.
    ablate(
        "news/triple",
        news_triple_query(Duration::from_mins(10)),
        wedges(&[(0, 3), (1, 4), (2, 5)]),
        &news.events,
        &mut table,
    );

    let cyber = CyberTrafficGenerator::new(cyber_preset(size)).generate();
    // One (request, reply) path per amplifier.
    ablate(
        "cyber/smurf",
        smurf_ddos_query(4, Duration::from_mins(5)),
        wedges(&[(0, 1), (2, 3), (4, 5), (6, 7)]),
        &cyber.events,
        &mut table,
    );
    println!("{}", table.render());
}
