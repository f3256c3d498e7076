//! Experiment E10: how per-edge cost scales with query size — typed paths of
//! 2, 4, 6 and 8 edges — for the incremental SJ-Tree engine vs. the naive
//! per-edge expansion baseline, on a uniform random stream with planted
//! pattern instances.
//!
//! The paths cycle through three edge types (`rel_a`/`rel_b`/`rel_c`) so the
//! leaf primitives stay selective: the paper's setting is multi-relational
//! graphs, where decomposition exploits exactly this type selectivity.
//!
//! ```text
//! cargo run --release -p streamworks-bench --bin exp_query_size [-- small|medium|large]
//! ```

use streamworks_baseline::NaiveEdgeExpansion;
use streamworks_bench::{measure, PresetSize, Table};
use streamworks_core::{ContinuousQueryEngine, EngineConfig};
use streamworks_graph::{Duration, DynamicGraph};
use streamworks_workloads::queries::typed_path_query;
use streamworks_workloads::{plant_pattern, uniform_stream, RandomConfig};

const PATH_TYPES: [&str; 3] = ["rel_a", "rel_b", "rel_c"];

fn main() {
    let size = PresetSize::parse(&std::env::args().nth(1).unwrap_or_else(|| "small".into()));
    let (vertices, edges) = match size {
        PresetSize::Small => (3_000, 8_000),
        PresetSize::Medium => (15_000, 40_000),
        PresetSize::Large => (60_000, 160_000),
    };
    // Edges arrive every 20 ms, so the 30 s window rolls over many times
    // and bounds the live partial matches, as it would in production.
    let window = Duration::from_secs(30);
    println!(
        "# E10: query-size scaling (random stream, {vertices} vertices, {edges} edges + 5 planted instances)"
    );

    let mut table = Table::new(&["path_edges", "engine", "edges/s", "us/edge", "matches"]);
    for path_edges in [2usize, 4, 6, 8] {
        let query = typed_path_query(path_edges, &PATH_TYPES, window);
        let base = uniform_stream(&RandomConfig {
            vertices,
            edges,
            edge_types: PATH_TYPES.iter().map(|t| (*t).to_owned()).collect(),
            edge_interval: Duration::from_millis(20),
            ..Default::default()
        });
        let events = plant_pattern(base, &query, 5, Duration::from_millis(100));

        let incremental = measure(events.len(), || {
            let mut engine = ContinuousQueryEngine::new(EngineConfig::default());
            engine.register_query(query.clone()).unwrap();
            let mut matches = 0u64;
            for ev in &events {
                matches += engine.ingest(ev).unwrap().len() as u64;
            }
            matches
        });
        let naive = measure(events.len(), || {
            let mut graph = DynamicGraph::unbounded();
            let mut matcher = NaiveEdgeExpansion::new(query.clone());
            let mut matches = 0u64;
            for ev in &events {
                let r = graph.ingest(ev);
                let edge = graph.edge(r.edge).unwrap().clone();
                matches += matcher.process_edge(&graph, &edge).len() as u64;
            }
            matches
        });
        for (engine, run) in [
            ("incremental-sjtree", incremental),
            ("naive-expansion", naive),
        ] {
            table.row(&[
                path_edges.to_string(),
                engine.into(),
                format!("{:.0}", run.throughput()),
                format!("{:.1}", run.mean_latency_us()),
                run.matches.to_string(),
            ]);
        }
    }
    println!("{}", table.render());
}
