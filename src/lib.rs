//! # StreamWorks
//!
//! A from-scratch Rust reproduction of **StreamWorks: A System for Dynamic
//! Graph Search** (Choudhury, Holder, Chin, Ray, Beus, Feo — SIGMOD 2013):
//! continuous subgraph-pattern queries over dynamic, multi-relational,
//! timestamped graphs, answered incrementally with the Subgraph Join Tree
//! (SJ-Tree) decomposition algorithm.
//!
//! This facade crate re-exports the public API of the workspace crates:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`graph`] | `streamworks-graph` | dynamic multi-relational graph store |
//! | [`summarize`] | `streamworks-summarize` | streaming degree/type/triad statistics |
//! | [`query`] | `streamworks-query` | query graphs, DSL, planner, SJ-Tree shape |
//! | [`engine`] | `streamworks-core` | builder-configured engine, query handles & lifecycle, per-query subscriptions, unified ingest |
//! | [`baseline`] | `streamworks-baseline` | repeated-search and naive baselines |
//! | [`workloads`] | `streamworks-workloads` | synthetic cyber / news / random streams |
//! | [`report`] | `streamworks-report` | event tables, map/grid views, DOT export, statistics reports |
//!
//! The most common entry points are re-exported at the top level. The
//! [`architecture`] page maps the paper's components onto the crates and
//! shows the end-to-end data flow (ingest → dispatch → search → join climb
//! → sinks); migration tables for APIs removed before 1.0 (the pre-0.2
//! `process*` family, `with_defaults`, the `QueryId`-indexed accessors)
//! live in `docs/MIGRATION.md`.
//!
//! ## The service API in one example
//!
//! The engine is built through a validating builder, queries are registered
//! and come back as generation-tagged [`QueryHandle`]s with a full lifecycle
//! (pause / resume / deregister), each query can carry its own typed
//! subscriptions, and events of any shape — single, slice, iterator — go
//! through the unified `ingest` surface:
//!
//! ```
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//! use streamworks::{ContinuousQueryEngine, EdgeEvent, MatchEvent, Timestamp};
//!
//! let mut engine = ContinuousQueryEngine::builder().build().unwrap();
//!
//! let pairs = engine.register_dsl(
//!     "QUERY pair WINDOW 1h \
//!      MATCH (a1:Article)-[:mentions]->(k:Keyword), (a2:Article)-[:mentions]->(k)",
//! ).unwrap();
//!
//! // Per-query subscription: this tenant sees only `pairs` matches. A
//! // subscriber is a closure; this one counts.
//! let seen = Arc::new(AtomicU64::new(0));
//! let counter = seen.clone();
//! engine.subscribe(pairs, move |_: MatchEvent| {
//!     counter.fetch_add(1, Ordering::Relaxed);
//! }).unwrap();
//!
//! let matches = engine.ingest(&[
//!     EdgeEvent::new("a1", "Article", "rust", "Keyword", "mentions", Timestamp::from_secs(10)),
//!     EdgeEvent::new("a2", "Article", "rust", "Keyword", "mentions", Timestamp::from_secs(20)),
//! ]).unwrap();
//! assert_eq!(matches.len(), 2); // (a1, a2) and (a2, a1)
//! assert_eq!(seen.load(Ordering::Relaxed), 2);
//!
//! // Lifecycle: paused queries cost nothing per event; deregistering frees
//! // all partial-match memory and makes the handle permanently stale.
//! engine.pause(pairs).unwrap();
//! engine.resume(pairs).unwrap();
//! engine.deregister(pairs).unwrap();
//! assert!(engine.metrics(pairs).is_err());
//! ```
//!
//! ## One thread, one ordered stream
//!
//! The engine spawns no threads of its own: an `ingest` call updates the
//! graph, searches, joins and delivers for every registered query on the
//! calling thread, so a subscription sees exactly the matches `ingest`
//! returns, in the same order. A closure over a `std::sync::mpsc` sender
//! hands them to another thread:
//!
//! ```
//! use std::sync::mpsc;
//! use streamworks::{ContinuousQueryEngine, EdgeEvent, MatchEvent, Timestamp};
//!
//! let mut engine = ContinuousQueryEngine::builder().build().unwrap();
//! let pairs = engine.register_dsl(
//!     "QUERY pair WINDOW 1h \
//!      MATCH (a1:Article)-[:mentions]->(k:Keyword), (a2:Article)-[:mentions]->(k)",
//! ).unwrap();
//! let (tx, feed) = mpsc::channel();
//! engine.subscribe(pairs, move |m: MatchEvent| {
//!     let _ = tx.send(m);
//! }).unwrap();
//! let consumer = std::thread::spawn(move || feed.iter().count());
//!
//! let matches = engine.ingest(&[
//!     EdgeEvent::new("a1", "Article", "rust", "Keyword", "mentions", Timestamp::from_secs(10)),
//!     EdgeEvent::new("a2", "Article", "rust", "Keyword", "mentions", Timestamp::from_secs(20)),
//! ]).unwrap();
//! drop(engine); // closes the channel
//! assert_eq!(consumer.join().unwrap(), matches.len());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

#[doc = include_str!("../ARCHITECTURE.md")]
pub mod architecture {}

/// Dynamic multi-relational graph substrate (`streamworks-graph`).
pub mod graph {
    pub use streamworks_graph::*;
}

/// Streaming graph summarization (`streamworks-summarize`).
pub mod summarize {
    pub use streamworks_summarize::*;
}

/// Query model, DSL, selectivity estimation and SJ-Tree planning
/// (`streamworks-query`).
pub mod query {
    pub use streamworks_query::*;
}

/// Incremental SJ-Tree matcher and continuous-query engine (`streamworks-core`).
pub mod engine {
    pub use streamworks_core::*;
}

/// Baseline matchers and independent match verification (`streamworks-baseline`).
pub mod baseline {
    pub use streamworks_baseline::*;
}

/// Synthetic workload generators and canonical paper queries
/// (`streamworks-workloads`).
pub mod workloads {
    pub use streamworks_workloads::*;
}

/// Reporting and export: event tables, map/grid views, match-progression
/// timelines and Graphviz DOT export (`streamworks-report`).
pub mod report {
    pub use streamworks_report::*;
}

pub use streamworks_core::{
    clear_endpoint, failpoint, memory_sink_contents, register_endpoint, reset_memory_sink,
    AdaptiveConfig, AdaptiveReplanner, ContinuousQueryEngine, DeliveryCursor, EngineBuilder,
    EngineConfig, EngineError, EngineMetrics, EventBatch, EventSink, Ingest, MatchEvent,
    QueryHandle, QueryId, QueryMetrics, RetryPolicy, RpqEnd, SharedStr, SinkOverflow, SinkSpec,
    Stage, StageSnapshot, SubscriptionHealth, SubscriptionId, TelemetryLevel, TelemetrySnapshot,
    TraceSpan, Transport,
};
pub use streamworks_graph::{
    AttrValue, Attrs, Direction, Duration, DynamicGraph, EdgeEvent, EdgeId, Timestamp, VertexId,
};
pub use streamworks_query::{
    parse_query, parse_rpq, CostBasedOrdered, Planner, Predicate, QueryGraph, QueryGraphBuilder,
    QueryPlan, RpqQuery, TreeShapeKind,
};
pub use streamworks_summarize::GraphSummary;
