//! # streamworks-core
//!
//! The core of the StreamWorks reproduction: the incremental SJ-Tree subgraph
//! matcher and the continuous-query engine built on top of it
//! (Choudhury et al., *StreamWorks: A System for Dynamic Graph Search*,
//! SIGMOD 2013, §3–§4).
//!
//! The engine is a long-running service object: it is assembled through the
//! validating [`EngineBuilder`], registered queries come back as
//! generation-tagged [`QueryHandle`]s that can be paused, resumed, re-planned
//! and deregistered at runtime, each query can carry its own subscriptions,
//! and events arrive through the unified [`Ingest`] surface (single event,
//! slice, or iterator via [`EventBatch`] — all sharing the batched
//! bookkeeping path). A single hot query can be spread across worker threads
//! with [`EngineBuilder::shards`], which partitions its SJ-Tree match state
//! by join-key hash ([`ShardedMatcher`]) without changing any observable
//! result.
//!
//! ```
//! use streamworks_core::{ContinuousQueryEngine, CountingSink};
//! use streamworks_graph::{EdgeEvent, Timestamp};
//!
//! let mut engine = ContinuousQueryEngine::builder().build().unwrap();
//! let pairs = engine.register_dsl(
//!     "QUERY pair WINDOW 1h \
//!      MATCH (a1:Article)-[:mentions]->(k:Keyword), (a2:Article)-[:mentions]->(k)",
//! ).unwrap();
//!
//! // A per-query subscription observes matches while the engine owns the sink.
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
//! // Full lifecycle: pause, resume, deregister — the handle goes stale.
//! engine.pause(pairs).unwrap();
//! engine.resume(pairs).unwrap();
//! engine.deregister(pairs).unwrap();
//! assert!(engine.metrics(pairs).is_err());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod adaptive;
mod anchors;
mod binding;
mod checkpoint;
mod config;
mod constraints;
mod delivery;
mod engine;
mod error;
mod event;
pub mod failpoint;
mod handle;
mod ingest;
mod join;
mod local_search;
mod match_store;
mod metrics;
mod parallel;
mod rpq;
mod shared_index;
mod sj_matcher;
mod telemetry;

pub use adaptive::{AdaptiveConfig, AdaptiveReplanner, ReplanDecision, ReplanStrategy};
pub use binding::{Binding, PartialMatch, INLINE_EDGES, INLINE_VERTICES};
pub use checkpoint::EngineCheckpoint;
pub use config::{EngineBuilder, EngineConfig, ShardFailurePolicy};
pub use constraints::CompiledConstraints;
pub use delivery::{
    clear_endpoint, memory_sink_contents, register_endpoint, reset_memory_sink, DeliveryCursor,
    RetryPolicy, SinkSpec, Transport, TransportFactory,
};
pub use engine::{ContinuousQueryEngine, SubscriptionHealth};
pub use error::EngineError;
pub use event::{
    BoundVertex, BufferingSink, CallbackSink, ChannelSink, CollectingSink, CountingSink, EventSink,
    MatchBuffer, MatchCounter, MatchEvent, QueryId, SinkOverflow,
};
pub use handle::{QueryHandle, SubscriptionId};
pub use ingest::{EventBatch, Ingest};
pub use local_search::{find_primitive_matches, LocalSearchStats};
pub use match_store::{JoinKey, JoinSide, SharedJoinStore};
pub use metrics::{EngineMetrics, QueryMetrics, RpqEnd, ShardMetrics};
pub use parallel::{ShardFailure, ShardedMatcher};
pub use sj_matcher::SjTreeMatcher;
pub use telemetry::{
    shard_skew, AtomicHistogram, DeliverySnapshot, HistogramSnapshot, MetricsRegistry,
    QuerySnapshot, ShardSetSnapshot, SpanRing, Stage, StageSnapshot, TelemetryCheckpoint,
    TelemetryCore, TelemetryLevel, TelemetrySnapshot, TraceSpan, SPAN_RING_CAPACITY,
};
