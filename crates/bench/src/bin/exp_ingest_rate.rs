//! Experiment E9: sustained ingest rate of the full pipeline (graph + N
//! registered queries; the summary is built only when planning reads it), extrapolated to records/hour — the unit
//! of paper §6.1 ("50-100 million records/hour").
//!
//! ```text
//! cargo run --release -p streamworks-bench --bin exp_ingest_rate [-- small|medium|large]
//! ```

use streamworks_bench::{cyber_preset, measure, PresetSize, Table};
use streamworks_core::ContinuousQueryEngine;
use streamworks_graph::Duration;
use streamworks_workloads::queries::{port_scan_query, smurf_ddos_query, worm_spread_query};
use streamworks_workloads::CyberTrafficGenerator;

fn main() {
    let size = PresetSize::parse(&std::env::args().nth(1).unwrap_or_else(|| "small".into()));
    let workload = CyberTrafficGenerator::new(cyber_preset(size)).generate();
    println!(
        "# E9: sustained ingest rate, {} events (cyber stream)",
        workload.events.len()
    );

    let mut table = Table::new(&["queries", "edges/s", "records/hour", "matches"]);
    for queries in [0usize, 1, 4, 16] {
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        for i in 0..queries {
            match i % 3 {
                0 => engine
                    .register_query(smurf_ddos_query(3 + i % 3, Duration::from_mins(5)))
                    .unwrap(),
                1 => engine
                    .register_query(port_scan_query(4 + i % 4, Duration::from_mins(1)))
                    .unwrap(),
                _ => engine
                    .register_query(worm_spread_query(2, Duration::from_mins(10)))
                    .unwrap(),
            };
        }
        let run = measure(workload.events.len(), || {
            let mut matches = 0u64;
            for ev in &workload.events {
                matches += engine.ingest(ev).unwrap().len() as u64;
            }
            matches
        });
        table.row(&[
            queries.to_string(),
            format!("{:.0}", run.throughput()),
            format!("{:.2e}", run.records_per_hour()),
            run.matches.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("paper §6.1 reference: CAIDA traces arrive at 50-100 million records/hour.");
}
