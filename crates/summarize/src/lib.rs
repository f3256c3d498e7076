//! # streamworks-summarize
//!
//! Graph summaries for the StreamWorks reproduction
//! (paper §4.3): degree distribution, vertex/edge type distribution and the
//! multi-relational triad (typed wedge) distribution.
//!
//! The summaries are consumed by the query planner in `streamworks-query` to
//! estimate the selectivity of candidate search primitives, fulfilling the
//! paper's goal of "push\[ing\] the most selective subgraph at the lowest
//! level in the subgraph join-tree" (§4.1).
//!
//! ```
//! use streamworks_graph::{DynamicGraph, EdgeEvent, Timestamp};
//! use streamworks_summarize::GraphSummary;
//!
//! let mut graph = DynamicGraph::unbounded();
//! for (article, t) in [("a1", 1), ("a2", 2)] {
//!     let ev = EdgeEvent::new(article, "Article", "k1", "Keyword", "mentions",
//!                             Timestamp::from_secs(t));
//!     graph.ingest(&ev);
//! }
//! let summary = GraphSummary::of(&graph);
//! assert_eq!(summary.edges_observed(), 2);
//! assert_eq!(summary.triads().total_wedges(), 1.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod degree;
mod histogram;
mod summary;
mod triads;
mod type_dist;

pub use degree::DegreeDistribution;
pub use histogram::LogHistogram;
pub use summary::GraphSummary;
pub use triads::{Orientation, TriadDistribution, WedgeKey};
pub use type_dist::{EdgeTripleKey, TypeDistribution};
