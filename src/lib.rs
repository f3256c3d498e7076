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
//! shows the end-to-end data flow (ingest → dispatch → shards → fan-in →
//! sinks); migration tables for APIs removed before 1.0 (the pre-0.2
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
//! use streamworks::{ContinuousQueryEngine, CountingSink, EdgeEvent, Timestamp};
//!
//! let mut engine = ContinuousQueryEngine::builder()
//!     .prune_every(512)
//!     .build()
//!     .unwrap();
//!
//! let pairs = engine.register_dsl(
//!     "QUERY pair WINDOW 1h \
//!      MATCH (a1:Article)-[:mentions]->(k:Keyword), (a2:Article)-[:mentions]->(k)",
//! ).unwrap();
//!
//! // Per-query subscription: this tenant sees only `pairs` matches.
//! let (sink, seen) = CountingSink::new();
//! engine.subscribe(pairs, sink).unwrap();
//!
//! let matches = engine.ingest(&[
//!     EdgeEvent::new("a1", "Article", "rust", "Keyword", "mentions", Timestamp::from_secs(10)),
//!     EdgeEvent::new("a2", "Article", "rust", "Keyword", "mentions", Timestamp::from_secs(20)),
//! ]).unwrap();
//! assert_eq!(matches.len(), 2); // (a1, a2) and (a2, a1)
//! assert_eq!(seen.get(), 2);
//!
//! // Lifecycle: paused queries cost nothing per event; deregistering frees
//! // all partial-match memory and makes the handle permanently stale.
//! engine.pause(pairs).unwrap();
//! engine.resume(pairs).unwrap();
//! engine.deregister(pairs).unwrap();
//! assert!(engine.metrics(pairs).is_err());
//! ```
//!
//! ## Scaling one hot query across cores
//!
//! For the single-hot-query regime the paper targets,
//! [`EngineBuilder::shards`] shards *one query's* SJ-Tree match state across
//! worker threads by join-key hash. The
//! emitted match multiset is identical for every shard count, and a
//! tenant's subscription still observes one stream-ordered feed:
//!
//! ```
//! use streamworks::{ContinuousQueryEngine, EdgeEvent, Timestamp};
//!
//! let mut engine = ContinuousQueryEngine::builder().shards(4).build().unwrap();
//! let pairs = engine.register_dsl(
//!     "QUERY pair WINDOW 1h \
//!      MATCH (a1:Article)-[:mentions]->(k:Keyword), (a2:Article)-[:mentions]->(k)",
//! ).unwrap();
//! let matches = engine.ingest(&[
//!     EdgeEvent::new("a1", "Article", "rust", "Keyword", "mentions", Timestamp::from_secs(10)),
//!     EdgeEvent::new("a2", "Article", "rust", "Keyword", "mentions", Timestamp::from_secs(20)),
//! ]).unwrap();
//! assert_eq!(matches.len(), 2); // exactly what the 1-thread engine reports
//! assert_eq!(engine.shard_metrics(pairs).unwrap().unwrap().len(), 4);
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
    AdaptiveConfig, AdaptiveReplanner, BufferingSink, CallbackSink, ChannelSink, CollectingSink,
    ContinuousQueryEngine, CountingSink, DeliveryCursor, EngineBuilder, EngineConfig, EngineError,
    EngineMetrics, EventBatch, EventSink, Ingest, MatchBuffer, MatchCounter, MatchEvent,
    MetricsRegistry, QueryHandle, QueryId, QueryMetrics, RetryPolicy, RpqEnd, ShardFailure,
    ShardFailurePolicy, ShardMetrics, ShardedMatcher, SinkOverflow, SinkSpec, Stage, StageSnapshot,
    SubscriptionHealth, SubscriptionId, TelemetryLevel, TelemetrySnapshot, TraceSpan, Transport,
};
pub use streamworks_graph::{
    AttrValue, Attrs, Direction, Duration, DynamicGraph, EdgeEvent, EdgeId, Timestamp, VertexId,
};
pub use streamworks_query::{
    parse_query, parse_rpq, Planner, Predicate, QueryGraph, QueryGraphBuilder, QueryPlan, RpqQuery,
    SelectivityOrdered, TreeShapeKind,
};
pub use streamworks_summarize::{GraphSummary, SummaryConfig};
