//! Experiment E8: the cost of the summaries (paper §4.3). Feeding a summary
//! edge by edge (the hand-fed API, with its cumulative triads) against
//! ingesting with no summary at all, and against building one summary from
//! the final graph with `GraphSummary::of`, as the engine does when its
//! summary is read.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use streamworks_bench::{cyber_preset, PresetSize};
use streamworks_graph::DynamicGraph;
use streamworks_summarize::GraphSummary;
use streamworks_workloads::CyberTrafficGenerator;

fn bench_summaries(c: &mut Criterion) {
    let workload = CyberTrafficGenerator::new(cyber_preset(PresetSize::Small)).generate();
    let mut group = c.benchmark_group("summarize_overhead");
    group.sample_size(10);
    group.throughput(Throughput::Elements(workload.events.len() as u64));

    group.bench_function("graph_only", |b| {
        b.iter(|| {
            let mut g = DynamicGraph::unbounded();
            for ev in &workload.events {
                g.ingest(ev);
            }
            g.live_edge_count()
        })
    });

    group.bench_function("graph_then_summary_of", |b| {
        b.iter(|| {
            let mut g = DynamicGraph::unbounded();
            for ev in &workload.events {
                g.ingest(ev);
            }
            GraphSummary::of(&g).edges_observed()
        })
    });

    group.bench_function("hand_fed_per_edge", |b| {
        b.iter(|| {
            let mut g = DynamicGraph::unbounded();
            let mut s = GraphSummary::new();
            for ev in &workload.events {
                let r = g.ingest(ev);
                let edge = g.edge(r.edge).unwrap().clone();
                s.observe_insertion(&g, &edge);
            }
            s.edges_observed()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_summaries);
criterion_main!(benches);
