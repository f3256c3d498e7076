//! # streamworks-query
//!
//! Query model and planner for the StreamWorks reproduction: pattern graphs,
//! a small text DSL, selectivity estimation over `streamworks-summarize`
//! statistics, the cost-based query decomposition (plus hand-picked plans),
//! and the Subgraph Join Tree (SJ-Tree) shape of paper §3.2/§4.1.
//!
//! ```
//! use streamworks_query::{parse_query, Planner};
//!
//! let query = parse_query(r#"
//!     QUERY common_keyword WINDOW 1h
//!     MATCH (a1:Article)-[:mentions]->(k:Keyword),
//!           (a2:Article)-[:mentions]->(k)
//! "#).unwrap();
//! let plan = Planner::new().plan(query).unwrap();
//! println!("{}", plan.explain());
//! assert_eq!(plan.shape.leaves().len(), 1); // both edges fit one 2-edge primitive
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod builder;
mod canonical;
mod cost;
mod decompose;
mod dsl;
mod error;
mod lex;
mod plan;
mod predicate;
mod query_graph;
mod rpq;
mod selectivity;
mod sjtree;

pub use builder::QueryGraphBuilder;
pub use canonical::{CanonicalPrimitive, LiftedPrimitive, MAX_CANONICAL_ASSIGNMENTS};
pub use cost::{estimate_shape_cost, CostBasedOrdered, NodeCostEstimate, ShapeCostEstimate};
pub use decompose::{
    validate_decomposition, DecompositionStrategy, ManualDecomposition, Primitive,
};
pub use dsl::{format_query, parse_query};
pub use error::QueryError;
pub use plan::{Planner, QueryPlan, TreeShapeKind};
pub use predicate::{canonical_value_token, eq_constant_token, CompareOp, Predicate};
pub use query_graph::{QueryEdge, QueryEdgeId, QueryGraph, QueryVertex, QueryVertexId};
pub use rpq::{parse_rpq, PathExpr, RpqDfa, RpqQuery};
pub use selectivity::{NullResolver, SelectivityEstimator, TypeResolver};
pub use sjtree::{SjNode, SjNodeId, SjTreeShape};
