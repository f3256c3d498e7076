//! Experiment E12: cost of checkpointing and restoring the engine.
//!
//! Recovery time bounds how aggressively an operator can restart a continuous
//! monitoring deployment. This bench measures (a) capturing a checkpoint of an
//! engine holding a full retention window of cyber traffic, (b) serialising it
//! to JSON, and (c) restoring (bounded replay of the live window).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use streamworks_core::{ContinuousQueryEngine, EngineCheckpoint, EngineConfig};
use streamworks_graph::Duration;
use streamworks_workloads::queries::smurf_ddos_query;
use streamworks_workloads::{AttackKind, CyberConfig, CyberTrafficGenerator};

fn prepared_engine(edges: usize) -> ContinuousQueryEngine {
    let workload = CyberTrafficGenerator::new(CyberConfig {
        hosts: 300,
        background_edges: edges,
        attacks: vec![(AttackKind::SmurfDdos, 4)],
        ..Default::default()
    })
    .generate();
    let mut engine = ContinuousQueryEngine::new(EngineConfig::default());
    engine
        .register_query(smurf_ddos_query(4, Duration::from_mins(10)))
        .unwrap();
    for ev in &workload.events {
        engine.ingest(ev).unwrap();
    }
    engine
}

fn bench_checkpoint(c: &mut Criterion) {
    let engine = prepared_engine(20_000);
    let checkpoint = engine.checkpoint();
    let json = checkpoint.to_json().unwrap();
    let live_edges = checkpoint.live_edges.len() as u64;

    let mut group = c.benchmark_group("checkpoint_restore");
    group.sample_size(10);
    group.throughput(Throughput::Elements(live_edges.max(1)));
    group.bench_function("capture", |b| {
        b.iter(|| engine.checkpoint().live_edges.len())
    });
    group.bench_function("serialize_json", |b| {
        b.iter(|| checkpoint.to_json().unwrap().len())
    });
    group.bench_function("restore_replay", |b| {
        b.iter(|| {
            let restored = EngineCheckpoint::load(&json).unwrap().restore();
            restored.graph().live_edge_count()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_checkpoint);
criterion_main!(benches);
