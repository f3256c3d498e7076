//! # streamworks-bench
//!
//! Workload presets, a timer and a plain-text table shared by the experiment
//! binaries (`src/bin/exp_*.rs`). Each binary prints one fixed-width table
//! per experiment to stdout, so runs can be diffed; the size argument is
//! `small` (the default), `medium` or `large`.
//!
//! ## Experiment index
//!
//! One runner per experiment. Commands run from the repository root;
//! `swbench` is the stand-alone benchmark package in `benchmark/`, and its
//! rows are named by the metric of `swbench trace`'s report that measures
//! them.
//!
//! | Exp. | Paper claim | Command |
//! |---|---|---|
//! | E1 | Fig. 2: a query decomposes into search primitives joined by an SJ-Tree | `cargo run --release --example query_plans` |
//! | E2 | §5.1, Fig. 3: Smurf DDoS, port scans and worms are detected in cyber traffic | `cargo run --release --example cyber_monitoring` (its cost per query count is E9) |
//! | E3 | §5.2, Figs. 5–6: labelled news events are reported as they form | `cargo run --release --example news_monitoring` |
//! | E4/E7 | §4.1, Fig. 7: the most selective primitive lowest stores the fewest partial matches | `cargo run --release -p streamworks-bench --bin exp_plan_ablation small` |
//! | E5 | §4.2: incremental matching beats naive expansion and repeated search | `cargo run --release -p streamworks-bench --bin exp_throughput small` |
//! | E6 | §3: the window `tW` bounds retained edges, partial matches and cost (with a skewed-timestamp row) | `cargo run --release -p streamworks-bench --bin exp_window_sweep small` |
//! | E8 | §4.3: summaries are cheap to keep and agree with the graph | `cargo run --release -p streamworks-bench --bin exp_summaries small` |
//! | E9 | §6.1: the pipeline sustains 50–100 M records/hour with 0/1/4/16 cyber queries | `cargo run --release -p streamworks-bench --bin exp_ingest_rate small` |
//! | E10 | per-edge cost as typed path queries grow from 2 to 8 edges, incremental vs naive | `cargo run --release -p streamworks-bench --bin exp_query_size small` |
//! | E12 | checkpoint capture, size and restore | `swbench trace`: `checkpoint.capture_ms`, `checkpoint.bytes`, `checkpoint.restore_ms` |
//! | E13 | many tenants' templated queries share search and join state | `cargo run --release -p streamworks-bench --bin exp_throughput -- small --tenants 64` |
//! | E14 | §4.3: re-planning on drifted statistics, from a blind plan and from a cold registration | `cargo run --release -p streamworks-bench --bin exp_adaptive small` |
//! | E15 | sampled telemetry costs under 5 % of throughput | `cargo run --release -p streamworks-bench --bin exp_throughput -- small --telemetry` |
//! | E16 | windowed regular path queries find every planted chain (lateral movement, citations) | `cargo run --release -p streamworks-bench --bin exp_throughput -- small --rpq`; `swbench bench --workload rpq_lateral` |
//! | — | graph ingest and anchored local search per event | `swbench trace`: `graph.ingest_ns_per_event`, `local_search.*` |
//!
//! `swbench trace` is
//! `cargo run --release --offline --manifest-path benchmark/Cargo.toml -- trace --seed 1 --seconds 2`.
//! A performance claim is made with interleaved pairs of `swbench bench`
//! runs (`scripts/bench_pairs.sh`), not with one reading of a table here.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod harness;
pub mod presets;

pub use harness::{measure, MeasuredRun, Table};
pub use presets::{cyber_preset, news_preset, PresetSize};
