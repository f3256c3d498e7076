//! Experiments E4/E7: the same query executed under different SJ-Tree plans
//! (the cost-based planner's vs. the frequency-blind single-edge chain vs.
//! Fig. 2's hand-picked wedges), as in paper Fig. 7 and the §4.1 design goal
//! of pushing selective primitives to the bottom.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use streamworks_core::{ContinuousQueryEngine, EngineConfig};
use streamworks_graph::Duration;
use streamworks_query::{
    CostBasedOrdered, DecompositionStrategy, ManualDecomposition, Planner, QueryEdgeId,
    TreeShapeKind,
};
use streamworks_workloads::queries::news_triple_query;
use streamworks_workloads::{NewsConfig, NewsStreamGenerator};

fn bench_plans(c: &mut Criterion) {
    let workload = NewsStreamGenerator::new(NewsConfig {
        articles: 500,
        planted_events: vec![("politics".into(), 3)],
        ..Default::default()
    })
    .generate();
    let query = news_triple_query(Duration::from_mins(10));

    // Statistics learned from a warm-up pass drive the informed plan.
    let mut warm = ContinuousQueryEngine::builder().build().unwrap();
    for ev in &workload.events {
        warm.ingest(ev).unwrap();
    }

    let blind = ManualDecomposition::new(query.edge_ids().map(|e| vec![e]).collect());
    // Fig. 2: one (mentions, located) wedge per article.
    let fig2_wedges = ManualDecomposition::new(
        [(0, 3), (1, 4), (2, 5)]
            .into_iter()
            .map(|(a, b)| vec![QueryEdgeId(a), QueryEdgeId(b)])
            .collect(),
    );
    let strategies: Vec<(&str, Box<dyn DecompositionStrategy>)> = vec![
        ("cost_based", Box::new(CostBasedOrdered::default())),
        (
            "cost_based_single",
            Box::new(CostBasedOrdered {
                max_primitive_size: 1,
            }),
        ),
        ("blind", Box::new(blind)),
        ("manual_wedges", Box::new(fig2_wedges)),
    ];

    let mut group = c.benchmark_group("plan_comparison");
    group.sample_size(10);
    group.throughput(Throughput::Elements(workload.events.len() as u64));
    for (name, strategy) in &strategies {
        let plan = Planner::new()
            .with_statistics(warm.summary(), warm.graph())
            .tree_kind(TreeShapeKind::LeftDeep)
            .plan_with(query.clone(), strategy.as_ref())
            .unwrap();
        group.bench_with_input(BenchmarkId::new("plan", name), &plan, |b, plan| {
            b.iter(|| {
                let mut engine = ContinuousQueryEngine::new(EngineConfig::default());
                let id = engine.register_plan(plan.clone());
                for ev in &workload.events {
                    engine.ingest(ev).unwrap();
                }
                engine.metrics(id).unwrap().complete_matches
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_plans);
criterion_main!(benches);
