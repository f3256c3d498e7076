//! Experiment E6: match count, partial-match memory and latency as a function
//! of the query window `tW`.
//!
//! The last row, `10m-skewed`, replays the stream with every 8th event
//! delivered up to half a window late (a lagging producer), so partial
//! matches are filed out of timestamp order.
//!
//! ```text
//! cargo run --release -p streamworks-bench --bin exp_window_sweep [-- small|medium|large]
//! ```

use streamworks_bench::{measure, news_preset, PresetSize, Table};
use streamworks_core::{ContinuousQueryEngine, EngineConfig};
use streamworks_graph::{Duration, EdgeEvent, Timestamp};
use streamworks_workloads::queries::labelled_news_query;
use streamworks_workloads::NewsStreamGenerator;

fn main() {
    let size = PresetSize::parse(&std::env::args().nth(1).unwrap_or_else(|| "small".into()));
    let workload = NewsStreamGenerator::new(news_preset(size)).generate();
    println!(
        "# E6: window sweep (news stream, {} events, labelled pair query)",
        workload.events.len()
    );

    let mut table = Table::new(&[
        "window",
        "edges/s",
        "us/edge",
        "matches",
        "partial_inserted",
        "partial_expired",
        "peak_live_edges",
    ]);
    let mut run_row = |label: &str, window: Duration, events: &[EdgeEvent]| {
        let query = labelled_news_query("politics", window);
        let mut engine = ContinuousQueryEngine::new(EngineConfig::default());
        let id = engine.register_query(query).unwrap();
        let mut peak_live = 0usize;
        let run = measure(events.len(), || {
            let mut matches = 0u64;
            for ev in events {
                matches += engine.ingest(ev).unwrap().len() as u64;
                peak_live = peak_live.max(engine.graph().live_edge_count());
            }
            matches
        });
        let metrics = engine.metrics(id).unwrap();
        table.row(&[
            label.to_string(),
            format!("{:.0}", run.throughput()),
            format!("{:.1}", run.mean_latency_us()),
            run.matches.to_string(),
            metrics.partial_matches_inserted.to_string(),
            metrics.partial_matches_expired.to_string(),
            peak_live.to_string(),
        ]);
    };
    for (label, window) in [
        ("1m", Duration::from_mins(1)),
        ("10m", Duration::from_mins(10)),
        ("1h", Duration::from_hours(1)),
        ("6h", Duration::from_hours(6)),
        ("24h", Duration::from_hours(24)),
    ] {
        run_row(label, window, &workload.events);
    }
    let window = Duration::from_mins(10);
    let mut skewed = workload.events.clone();
    for (i, ev) in skewed.iter_mut().enumerate().filter(|(i, _)| i % 8 == 0) {
        let lag = (i as i64 % 5 + 1) * (window.as_micros() / 10);
        ev.timestamp = Timestamp::from_micros((ev.timestamp.as_micros() - lag).max(0));
    }
    run_row("10m-skewed", window, &skewed);
    println!("{}", table.render());
}
