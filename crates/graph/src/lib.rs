//! # streamworks-graph
//!
//! Dynamic multi-relational property-graph substrate for the StreamWorks
//! reproduction (Choudhury et al., *StreamWorks: A System for Dynamic Graph
//! Search*, SIGMOD 2013).
//!
//! The crate provides:
//!
//! * [`DynamicGraph`] — a directed, typed, timestamped multigraph updated one
//!   [`EdgeEvent`] at a time, with optional sliding-window retention.
//! * [`GraphSnapshot`] — a read-only view used by the baseline (static)
//!   matchers.
//! * Identifier newtypes ([`VertexId`], [`EdgeId`], [`TypeId`], [`Timestamp`],
//!   [`Duration`]), interning, attribute maps and adjacency structures shared
//!   by every other StreamWorks crate.
//!
//! The graph deliberately contains **no matching logic**: the incremental
//! SJ-Tree algorithm (the paper's contribution) lives in `streamworks-core`
//! and consumes this crate through the neighbourhood accessors on
//! [`DynamicGraph`].
//!
//! ## Example
//!
//! ```
//! use streamworks_graph::{Direction, DynamicGraph, EdgeEvent, Timestamp};
//!
//! let mut g = DynamicGraph::unbounded();
//! g.ingest(&EdgeEvent::new("10.0.0.1", "IP", "10.0.0.2", "IP", "flow",
//!                          Timestamp::from_secs(1)));
//! g.ingest(&EdgeEvent::new("10.0.0.2", "IP", "10.0.0.3", "IP", "flow",
//!                          Timestamp::from_secs(2)));
//!
//! let v = g.vertex_by_key("10.0.0.2").unwrap();
//! let flow = g.edge_type_id("flow").unwrap();
//! assert_eq!(g.neighbors(v, Direction::Out, flow).count(), 1);
//! assert_eq!(g.neighbors(v, Direction::In, flow).count(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod adjacency;
mod attr;
mod edge;
mod error;
mod graph;
pub mod hash;
mod ids;
mod interner;
mod keys;
mod log;
mod snapshot;
mod stats;
mod vertex;

pub use adjacency::{AdjEntry, AdjacencyList, Direction};
pub use attr::{AttrValue, Attrs};
pub use edge::{Edge, EdgeEvent};
pub use error::GraphError;
pub use graph::{DynamicGraph, GraphConfig, IngestResult};
pub use ids::{Duration, EdgeId, Timestamp, TypeId, VertexId};
pub use interner::Interner;
pub use snapshot::GraphSnapshot;
pub use stats::GraphStats;
pub use vertex::Vertex;
