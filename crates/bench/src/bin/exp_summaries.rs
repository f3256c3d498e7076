//! Experiment E8: cost and accuracy of the summaries (paper §4.3).
//!
//! Reports (a) the overhead, relative to bare graph ingest, of feeding a
//! summary edge by edge (the hand-fed API) and of building one summary of
//! the final graph with `GraphSummary::of` (what the engine does when its
//! summary is read), and (b) that the hand-fed, cumulative triad counts
//! agree with the live count of `TriadDistribution::of` on a graph from
//! which nothing has expired (a consistency check, not a sampling-error
//! report).
//!
//! ```text
//! cargo run --release -p streamworks-bench --bin exp_summaries [-- small|medium|large]
//! ```

use streamworks_bench::{cyber_preset, measure, PresetSize, Table};
use streamworks_graph::DynamicGraph;
use streamworks_summarize::{GraphSummary, TriadDistribution};
use streamworks_workloads::CyberTrafficGenerator;

fn main() {
    let size = PresetSize::parse(&std::env::args().nth(1).unwrap_or_else(|| "small".into()));
    let workload = CyberTrafficGenerator::new(cyber_preset(size)).generate();
    println!(
        "# E8: summarization overhead and accuracy ({} events)",
        workload.events.len()
    );

    // ---- overhead ----
    let mut table = Table::new(&["configuration", "edges/s", "us/edge", "relative_cost"]);
    let mut baseline_rate = 0.0f64;
    for name in ["graph-only", "hand-fed per edge", "graph, then one of()"] {
        let run = measure(workload.events.len(), || {
            let mut g = DynamicGraph::unbounded();
            let mut s = (name == "hand-fed per edge").then(GraphSummary::new);
            for ev in &workload.events {
                let r = g.ingest(ev);
                if let Some(s) = s.as_mut() {
                    let edge = g.edge(r.edge).unwrap().clone();
                    s.observe_insertion(&g, &edge);
                }
            }
            if name == "graph, then one of()" {
                return GraphSummary::of(&g).edges_observed();
            }
            g.live_edge_count() as u64
        });
        if name == "graph-only" {
            baseline_rate = run.throughput();
        }
        table.row(&[
            name.to_string(),
            format!("{:.0}", run.throughput()),
            format!("{:.2}", run.mean_latency_us()),
            format!("{:.2}x", baseline_rate / run.throughput().max(1.0)),
        ]);
    }
    println!("{}", table.render());

    // ---- triad consistency: hand-fed counters vs the live count ----
    let mut g = DynamicGraph::unbounded();
    let mut streaming = TriadDistribution::new();
    let sample: Vec<_> = workload.events.iter().take(20_000).collect();
    for ev in &sample {
        let r = g.ingest(ev);
        let edge = g.edge(r.edge).unwrap().clone();
        streaming.observe_edge(&g, &edge);
    }
    let exact = TriadDistribution::of(&g);
    let mut acc = Table::new(&["metric", "live (of)", "hand-fed", "ratio"]);
    acc.row(&[
        "total wedges".into(),
        format!("{:.0}", exact.total_wedges()),
        format!("{:.0}", streaming.total_wedges()),
        format!(
            "{:.2}",
            streaming.total_wedges() / exact.total_wedges().max(1.0)
        ),
    ]);
    // Top-5 wedge signatures by live count: hand-fed counter vs truth.
    let mut top: Vec<_> = exact.wedges().collect();
    top.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    for (key, count) in top.into_iter().take(5) {
        acc.row(&[
            format!("{key:?}"),
            format!("{count:.0}"),
            format!("{:.0}", streaming.wedge_count(key)),
            format!("{:.2}", streaming.wedge_count(key) / count.max(1.0)),
        ]);
    }
    println!("{}", acc.render());
}
