//! Experiment E5: throughput and per-edge latency of the incremental SJ-Tree
//! engine vs. the naive-expansion and repeated-search baselines as the stream
//! grows.
//!
//! ```text
//! cargo run --release -p streamworks-bench --bin exp_throughput \
//!     [-- smoke|small|medium|large] [--tenants N] [--rpq] \
//!     [--durable-sink <path>] [--telemetry]
//! ```
//!
//! `--tenants N` additionally measures a multi-tenant template registry
//! (2 queries per tenant), printing the sharing index's dedup ratio and
//! searches saved; `--rpq` additionally measures the windowed regular-path-query
//! class on the multi-hop lateral-movement workload (`login flow* exploit`)
//! and on citation chains (`cites cites*`), asserting recall 1.0 against the
//! planted chains;
//! `--durable-sink <path>` additionally measures batched ingest with a
//! durable log-file subscription acknowledging every match (asserting the
//! delivery log holds exactly one line per match); `--telemetry` measures
//! per-event ingest with sampled telemetry (histograms + spans, every 64th
//! event) against the same loop with telemetry off and prints the overhead
//! ratio on a parseable `telemetry off ... sampled ... ratio ...` line;
//! `smoke` runs one tiny size without the slow repeated-search baseline
//! (used by CI to exercise the shared, RPQ, durable-delivery and
//! telemetry-overhead paths on every push). Any other `--flag` is rejected.

use streamworks_baseline::{NaiveEdgeExpansion, RepeatedSearchMatcher};
use streamworks_bench::{measure, Table};
use streamworks_core::{ContinuousQueryEngine, EngineConfig, SinkSpec, TelemetryLevel};
use streamworks_graph::{Duration, DynamicGraph};
use streamworks_workloads::queries::labelled_news_query;
use streamworks_workloads::{
    citation_chain_rpq, lateral_movement_rpq, CitationChainGenerator, CitationConfig,
    LateralMovementConfig, LateralMovementGenerator, MultiTenantGenerator, NewsConfig,
    NewsStreamGenerator, TenantConfig,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut size = "small".to_owned();
    let mut tenants = 0usize;
    let mut rpq = false;
    let mut telemetry = false;
    let mut durable_sink: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--tenants" {
            tenants = args
                .get(i + 1)
                .and_then(|v| v.parse().ok())
                .filter(|&n| n >= 1)
                .expect("--tenants takes a positive integer");
            i += 2;
        } else if args[i] == "--rpq" {
            rpq = true;
            i += 1;
        } else if args[i] == "--telemetry" {
            telemetry = true;
            i += 1;
        } else if args[i] == "--durable-sink" {
            durable_sink = Some(
                args.get(i + 1)
                    .cloned()
                    .expect("--durable-sink takes a log-file path"),
            );
            i += 2;
        } else if args[i].starts_with("--") {
            panic!("unknown flag {}", args[i]);
        } else {
            size = args[i].clone();
            i += 1;
        }
    }
    let article_counts: Vec<usize> = match size.as_str() {
        "large" => vec![1_000, 5_000, 20_000, 50_000],
        "medium" => vec![500, 2_000, 8_000, 20_000],
        "smoke" => vec![400],
        _ => vec![200, 800, 2_000, 5_000],
    };
    // Repeated full search is quadratic+; keep it to the smallest sizes and
    // skip it entirely in the CI smoke run.
    let repeated_search_cutoff = if size == "smoke" {
        0
    } else {
        article_counts[1.min(article_counts.len() - 1)]
    };
    let query = labelled_news_query("politics", Duration::from_mins(30));

    println!("# E5: incremental vs. baselines (news stream, labelled pair query)");
    let mut table = Table::new(&[
        "articles", "edges", "engine", "edges/s", "us/edge", "matches",
    ]);
    for &articles in &article_counts {
        let workload = NewsStreamGenerator::new(NewsConfig {
            articles,
            planted_events: vec![("politics".into(), 3)],
            ..Default::default()
        })
        .generate();
        let events = &workload.events;

        // Incremental SJ-Tree engine, one event at a time.
        let run = measure(events.len(), || {
            let mut engine = ContinuousQueryEngine::new(EngineConfig::default());
            engine.register_query(query.clone()).unwrap();
            let mut matches = 0u64;
            for ev in events {
                matches += engine.ingest(ev).unwrap().len() as u64;
            }
            matches
        });
        table.row(&[
            articles.to_string(),
            events.len().to_string(),
            "incremental-sjtree".into(),
            format!("{:.0}", run.throughput()),
            format!("{:.1}", run.mean_latency_us()),
            run.matches.to_string(),
        ]);

        // Incremental SJ-Tree engine, batched ingest.
        let run = measure(events.len(), || {
            let mut engine = ContinuousQueryEngine::new(EngineConfig::default());
            engine.register_query(query.clone()).unwrap();
            engine.ingest(events).unwrap().len() as u64
        });
        table.row(&[
            articles.to_string(),
            events.len().to_string(),
            "incremental-batch".into(),
            format!("{:.0}", run.throughput()),
            format!("{:.1}", run.mean_latency_us()),
            run.matches.to_string(),
        ]);

        // Batched ingest with a durable log-file subscription: every match
        // is rendered, appended and acknowledged into the delivery cursor.
        if let Some(base) = &durable_sink {
            let path = format!("{base}.{articles}.log");
            let _ = std::fs::remove_file(&path);
            let run = measure(events.len(), || {
                let mut engine = ContinuousQueryEngine::new(EngineConfig::default());
                let handle = engine.register_query(query.clone()).unwrap();
                engine
                    .subscribe_durable(handle, SinkSpec::LogFile { path: path.clone() })
                    .unwrap();
                let matches = engine.ingest(events).unwrap().len() as u64;
                assert_eq!(
                    engine.flush_deliveries(),
                    0,
                    "durable log-file sink left deliveries pending"
                );
                matches
            });
            let lines = std::fs::read_to_string(&path)
                .map(|s| s.lines().count() as u64)
                .unwrap_or(0);
            assert_eq!(
                lines, run.matches,
                "delivery log must hold exactly one acknowledged line per match"
            );
            table.row(&[
                articles.to_string(),
                events.len().to_string(),
                "durable-logfile".into(),
                format!("{:.0}", run.throughput()),
                format!("{:.1}", run.mean_latency_us()),
                run.matches.to_string(),
            ]);
        }

        // Naive per-edge expansion.
        let run = measure(events.len(), || {
            let mut graph = DynamicGraph::unbounded();
            let mut matcher = NaiveEdgeExpansion::new(query.clone());
            let mut matches = 0u64;
            for ev in events {
                let r = graph.ingest(ev);
                let edge = graph.edge(r.edge).unwrap().clone();
                matches += matcher.process_edge(&graph, &edge).len() as u64;
            }
            matches
        });
        table.row(&[
            articles.to_string(),
            events.len().to_string(),
            "naive-expansion".into(),
            format!("{:.0}", run.throughput()),
            format!("{:.1}", run.mean_latency_us()),
            run.matches.to_string(),
        ]);

        // Repeated full search only at the smallest two sizes (quadratic+ cost).
        if articles <= repeated_search_cutoff {
            let run = measure(events.len(), || {
                let mut graph = DynamicGraph::unbounded();
                let mut matcher = RepeatedSearchMatcher::new(query.clone());
                let mut matches = 0u64;
                for ev in events {
                    graph.ingest(ev);
                    matches += matcher.process_update(&graph).len() as u64;
                }
                matches
            });
            table.row(&[
                articles.to_string(),
                events.len().to_string(),
                "repeated-search".into(),
                format!("{:.0}", run.throughput()),
                format!("{:.1}", run.mean_latency_us()),
                run.matches.to_string(),
            ]);
        }
    }
    println!("{}", table.render());

    // Telemetry overhead: the same per-event loop with sampled histograms and
    // trace spans vs. telemetry off, best of 3 runs each to damp timer noise.
    // The final line is machine-parseable so CI can gate the ratio.
    if telemetry {
        let articles = *article_counts.last().unwrap();
        let workload = NewsStreamGenerator::new(NewsConfig {
            articles,
            planted_events: vec![("politics".into(), 3)],
            ..Default::default()
        })
        .generate();
        let events = &workload.events;
        let rate = |level: TelemetryLevel| {
            measure(events.len(), || {
                let mut engine = ContinuousQueryEngine::builder()
                    .telemetry_level(level)
                    .build()
                    .unwrap();
                engine.register_query(query.clone()).unwrap();
                let mut matches = 0u64;
                for ev in events {
                    matches += engine.ingest(ev).unwrap().len() as u64;
                }
                matches
            })
            .throughput()
        };
        // Alternate the two levels so clock-frequency drift hits both sides
        // equally, and take the best of 5 rounds each.
        let (mut off, mut sampled) = (0.0f64, 0.0f64);
        for _ in 0..5 {
            off = off.max(rate(TelemetryLevel::Off));
            sampled = sampled.max(rate(TelemetryLevel::Sampled));
        }
        println!(
            "\n# E15: telemetry overhead ({} events, sample every 64th, best of 5)",
            events.len()
        );
        println!(
            "telemetry off {off:.0} sampled {sampled:.0} ratio {:.3}",
            sampled / off
        );
    }

    // Multi-tenant template registry: the multi-query sharing regime. One
    // stream, 2 queries per tenant (labelled pair + co-location pair).
    if tenants > 0 {
        let scale = match size.as_str() {
            "large" => 4_000,
            "medium" => 1_500,
            "smoke" => 120,
            _ => 600,
        };
        let workload = MultiTenantGenerator::new(TenantConfig {
            tenants,
            news: NewsConfig {
                articles: scale,
                ..Default::default()
            },
            ..Default::default()
        })
        .generate();
        println!(
            "\n# E13: multi-tenant registry ({} tenants, {} queries, {} events)",
            tenants,
            workload.queries.len(),
            workload.events.len()
        );
        let mut table = Table::new(&["queries", "edges/s", "us/edge", "matches", "dedup", "saved"]);
        let mut dedup = String::new();
        let mut saved = String::new();
        let run = measure(workload.events.len(), || {
            let mut engine = ContinuousQueryEngine::builder().build().unwrap();
            for q in &workload.queries {
                engine.register_query(q.clone()).unwrap();
            }
            let matches = engine.ingest(&workload.events).unwrap().len() as u64;
            let m = engine.engine_metrics();
            dedup = format!("{:.1}x", m.dedup_ratio());
            saved = m.searches_saved.to_string();
            matches
        });
        table.row(&[
            workload.queries.len().to_string(),
            format!("{:.0}", run.throughput()),
            format!("{:.1}", run.mean_latency_us()),
            run.matches.to_string(),
            dedup,
            saved,
        ]);
        println!("{}", table.render());
    }

    // Windowed RPQ: multi-hop lateral movement (`login flow* exploit`) over
    // Zipfian flow/DNS background, per-event and batched ingest, and citation
    // chains (`cites cites*`), where every edge is in the alphabet and
    // extends some tree. Every row must find every planted chain.
    if rpq {
        let background = match size.as_str() {
            "large" => 50_000,
            "medium" => 20_000,
            "smoke" => 500,
            _ => 5_000,
        };
        let lateral = LateralMovementGenerator::new(LateralMovementConfig {
            hosts: (background / 40).max(16),
            background_edges: background,
            intrusions: vec![0, 2, 4, 8],
            ..Default::default()
        })
        .generate();
        let citations = CitationChainGenerator::new(CitationConfig {
            articles: (background / 10).max(10),
            background_edges: background,
            chains: vec![3, 5, 8],
            ..Default::default()
        })
        .generate();
        println!(
            "\n# E16: windowed RPQ (lateral movement, login flow* exploit; citations, cites cites*), {} + {} events",
            lateral.events.len(),
            citations.events.len()
        );
        let mut table = Table::new(&[
            "engine", "edges/s", "us/edge", "matches", "detected", "recall",
        ]);
        for (label, workload, query, batched) in [
            (
                "rpq-engine",
                &lateral,
                lateral_movement_rpq(Duration::from_secs(600)),
                false,
            ),
            (
                "rpq-batch",
                &lateral,
                lateral_movement_rpq(Duration::from_secs(600)),
                true,
            ),
            // A short window keeps tree state bounded by expiry rather than
            // by the stream length.
            (
                "rpq-citations",
                &citations,
                citation_chain_rpq(Duration::from_secs(60)),
                true,
            ),
        ] {
            let mut detected = 0usize;
            let run = measure(workload.events.len(), || {
                let mut engine = ContinuousQueryEngine::new(EngineConfig::default());
                engine.register_rpq(query);
                let matches = if batched {
                    engine.ingest(&workload.events).unwrap()
                } else {
                    let mut all = Vec::new();
                    for ev in &workload.events {
                        all.extend(engine.ingest(ev).unwrap());
                    }
                    all
                };
                detected = workload
                    .chains
                    .iter()
                    .filter(|chain| {
                        matches.iter().any(|m| {
                            m.bindings.first().is_some_and(|b| b.key == chain.source)
                                && m.bindings.last().is_some_and(|b| b.key == chain.target)
                        })
                    })
                    .count();
                matches.len() as u64
            });
            table.row(&[
                label.into(),
                format!("{:.0}", run.throughput()),
                format!("{:.1}", run.mean_latency_us()),
                run.matches.to_string(),
                format!("{detected}/{}", workload.chains.len()),
                format!("{:.2}", detected as f64 / workload.chains.len() as f64),
            ]);
            assert_eq!(
                detected,
                workload.chains.len(),
                "{label}: the RPQ must detect every planted chain"
            );
        }
        println!("{}", table.render());
    }
}
