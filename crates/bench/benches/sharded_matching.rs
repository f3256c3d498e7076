//! Experiment E12: sharded vs. single-threaded matching of one hot query.
//!
//! StreamWorks targets a *single* standing query that must keep up with the
//! stream. This bench measures the `ShardedMatcher` against the in-process
//! `SjTreeMatcher` on the regime sharding exists for: a join-dominated hot
//! query planned with single-edge primitives (like
//! `incremental_vs_baseline`'s wedge matching) over a stream whose keywords
//! are hot enough that every new mention probes a long sibling bucket.
//! Join/store work then dwarfs the serial front end (graph update + local
//! search), which is exactly the part join-key sharding spreads over cores.
//!
//! Both arms drive the matcher layer directly with the engine's default
//! prune cadence, so the comparison isolates exactly what sharding changes.
//! Expected shape on multicore hardware: `sharded/1` tracks `single_thread`
//! (batched routing amortises the channel overhead) and `sharded/4` beats
//! `sharded/1` by ≥1.5x (the acceptance bar recorded in CHANGES.md). On a
//! single-core container the shard threads serialise and the bench only
//! shows the overhead floor.

//!
//! Set `STREAMWORKS_BENCH_SMOKE=1` to run on CI-sized inputs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use streamworks_core::{ShardedMatcher, SjTreeMatcher};
use streamworks_graph::{Duration, DynamicGraph, EdgeEvent, Timestamp};
use streamworks_query::{Planner, QueryGraphBuilder, QueryPlan, SelectivityOrdered};

/// The engine's default partial-match prune cadence, reproduced here so the
/// matcher-level arms age their stores the way an engine run would.
const PRUNE_EVERY: usize = 256;

/// Hot-keyword stream: many articles keep mentioning a small keyword pool,
/// with an occasional `located` edge that can complete the pattern. One
/// event per second of stream time.
fn hot_stream(events: usize, keywords: usize, articles: usize) -> Vec<EdgeEvent> {
    (0..events)
        .map(|i| {
            let t = Timestamp::from_secs(i as i64);
            if i % 50 == 49 {
                EdgeEvent::new(
                    format!("a{}", i % articles),
                    "Article",
                    format!("city{}", i % 7),
                    "Location",
                    "located",
                    t,
                )
            } else {
                // Quadratic-ish pressure: hot keys shared by many articles.
                EdgeEvent::new(
                    format!("a{}", (i * 7) % articles),
                    "Article",
                    format!("k{}", i % keywords),
                    "Keyword",
                    "mentions",
                    t,
                )
            }
        })
        .collect()
}

/// Two mention leaves joining on the shared keyword plus a located edge at
/// the root: level-1 joins are plentiful (the work sharding spreads), root
/// completions are rare (the serial result path stays cheap).
fn hot_wedge_plan() -> QueryPlan {
    let query = QueryGraphBuilder::new("hot_wedge")
        .window(Duration::from_mins(8))
        .vertex("a1", "Article")
        .vertex("a2", "Article")
        .vertex("k", "Keyword")
        .vertex("l", "Location")
        .edge("a1", "mentions", "k")
        .edge("a2", "mentions", "k")
        .edge("a1", "located", "l")
        .build()
        .unwrap();
    Planner::new()
        .plan_with(
            query,
            &SelectivityOrdered {
                max_primitive_size: 1,
            },
        )
        .unwrap()
}

fn run_single(plan: &QueryPlan, events: &[EdgeEvent]) -> u64 {
    let mut graph = DynamicGraph::unbounded();
    let mut matcher = SjTreeMatcher::new(plan.clone(), &graph);
    let mut out = Vec::new();
    let mut complete = 0u64;
    for (i, ev) in events.iter().enumerate() {
        let r = graph.ingest(ev);
        let edge = graph.edge(r.edge).unwrap().clone();
        out.clear();
        matcher.process_edge(&graph, &edge, &mut out);
        complete += out.len() as u64;
        if (i + 1) % PRUNE_EVERY == 0 {
            matcher.prune(graph.now());
        }
    }
    complete
}

fn run_sharded(plan: &QueryPlan, events: &[EdgeEvent], shards: usize) -> u64 {
    let mut graph = DynamicGraph::unbounded();
    let mut matcher = ShardedMatcher::new(plan.clone(), &graph, shards, None);
    for (i, ev) in events.iter().enumerate() {
        let r = graph.ingest(ev);
        let edge = graph.edge(r.edge).unwrap().clone();
        matcher.process_edge(&graph, &edge);
        if (i + 1) % PRUNE_EVERY == 0 {
            matcher.prune(graph.now());
        }
    }
    matcher.take_completed().len() as u64
}

fn bench_sharded(c: &mut Criterion) {
    let plan = hot_wedge_plan();
    let smoke = std::env::var_os("STREAMWORKS_BENCH_SMOKE").is_some();
    let events = hot_stream(if smoke { 1_000 } else { 6_000 }, 24, 160);

    let mut group = c.benchmark_group("sharded_matching");
    group.sample_size(10);
    group.throughput(Throughput::Elements(events.len() as u64));

    // Reference: the in-process matcher (no channels, no workers).
    group.bench_with_input(
        BenchmarkId::new("single_thread", events.len()),
        &events,
        |b, events| b.iter(|| run_single(&plan, events)),
    );

    for &shards in &[1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("sharded", shards),
            &shards,
            |b, &shards| b.iter(|| run_sharded(&plan, &events, shards)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sharded);
criterion_main!(benches);
