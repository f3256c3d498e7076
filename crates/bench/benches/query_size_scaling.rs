//! Experiment E10: how per-edge cost scales with query size (multi-relational
//! path queries of 2–8 edges) for the incremental engine vs. the naive
//! expansion baseline, on a random stream with planted pattern instances.
//!
//! The paths alternate edge types (`rel_a`/`rel_b`/`rel_c`) so the leaf
//! primitives stay selective — the paper's setting is multi-relational graphs
//! where decomposition exploits exactly this kind of type selectivity. A
//! single-type path over a dense random stream degenerates into a partial-
//! match explosion for *any* matcher and is exercised separately by the unit
//! tests on match caps, not benchmarked here.

use std::time::Duration as StdDuration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use streamworks_baseline::NaiveEdgeExpansion;
use streamworks_core::{ContinuousQueryEngine, EngineConfig};
use streamworks_graph::{Duration, DynamicGraph, EdgeEvent};
use streamworks_workloads::queries::typed_path_query;
use streamworks_workloads::{plant_pattern, uniform_stream, RandomConfig};

const PATH_TYPES: [&str; 3] = ["rel_a", "rel_b", "rel_c"];

/// Query window: short enough that the stream (≈160 s of stream time) rolls
/// through several windows, as it would in production, bounding the live
/// partial-match population.
fn window() -> Duration {
    Duration::from_secs(30)
}

fn stream_for(query_edges: usize) -> Vec<EdgeEvent> {
    let base = uniform_stream(&RandomConfig {
        vertices: 3_000,
        edges: 8_000,
        edge_types: PATH_TYPES.iter().map(|t| (*t).to_owned()).collect(),
        edge_interval: Duration::from_millis(20),
        ..Default::default()
    });
    let query = typed_path_query(query_edges, &PATH_TYPES, window());
    plant_pattern(base, &query, 5, Duration::from_millis(100))
}

fn bench_query_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_size_scaling");
    group.sample_size(10);
    group.measurement_time(StdDuration::from_secs(8));

    for &edges in &[2usize, 4, 6, 8] {
        let query = typed_path_query(edges, &PATH_TYPES, window());
        let events = stream_for(edges);
        group.throughput(Throughput::Elements(events.len() as u64));

        group.bench_with_input(
            BenchmarkId::new("incremental_sjtree", edges),
            &events,
            |b, events| {
                b.iter(|| {
                    // The engine keeps no per-edge statistics (its summary
                    // is built on read), so this is matcher against matcher.
                    let mut engine = ContinuousQueryEngine::new(EngineConfig::default());
                    engine.register_query(query.clone()).unwrap();
                    let mut matches = 0u64;
                    for ev in events {
                        matches += engine.ingest(ev).unwrap().len() as u64;
                    }
                    matches
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("naive_expansion", edges),
            &events,
            |b, events| {
                b.iter(|| {
                    let mut graph = DynamicGraph::unbounded();
                    let mut matcher = NaiveEdgeExpansion::new(query.clone());
                    let mut matches = 0u64;
                    for ev in events {
                        let r = graph.ingest(ev);
                        let edge = graph.edge(r.edge).unwrap().clone();
                        matches += matcher.process_edge(&graph, &edge).len() as u64;
                    }
                    matches
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_query_size);
criterion_main!(benches);
