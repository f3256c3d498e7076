//! Query decomposition strategies.
//!
//! Paper §4.1: the planner decomposes the query graph into small, selective
//! *search primitives* and arranges them so that "the most selective subgraph
//! \[sits\] at the lowest level in the subgraph join-tree to reduce the number
//! of partial matches". A decomposition is an ordered partition of the query's
//! edges into connected primitives; the SJ-Tree builder (see
//! [`crate::sjtree`]) then turns the ordered primitives into a join tree.
//!
//! Two strategies implement it: the cost-based planner
//! ([`crate::CostBasedOrdered`]) that every automatic plan uses, and
//! [`ManualDecomposition`] for hand-picked plans — the Fig. 2 / Fig. 7
//! alternatives, and the frequency-blind reference (single edges in edge-id
//! order) the plan-quality experiments (E4/E7) compare against.

use crate::error::QueryError;
use crate::query_graph::{QueryEdgeId, QueryGraph};
use crate::selectivity::SelectivityEstimator;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// One search primitive: a small connected set of query edges, matched
/// directly by local search at an SJ-Tree leaf.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Primitive {
    /// The query edges covered by this primitive (sorted).
    pub edges: Vec<QueryEdgeId>,
}

impl Primitive {
    /// Creates a primitive from a set of edges.
    pub fn new(mut edges: Vec<QueryEdgeId>) -> Self {
        edges.sort_unstable();
        edges.dedup();
        Primitive { edges }
    }

    /// Number of query edges in the primitive.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if the primitive covers no edges (invalid).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

/// A pluggable decomposition strategy.
pub trait DecompositionStrategy {
    /// Name used in plan explain output and experiment tables.
    fn name(&self) -> &str;

    /// Produces an ordered list of primitives covering every query edge
    /// exactly once. The order is the join order: primitive 0 is matched
    /// first (the most selective one for the cost-based planner).
    fn decompose(
        &self,
        query: &QueryGraph,
        estimator: &SelectivityEstimator<'_>,
    ) -> Result<Vec<Primitive>, QueryError>;
}

/// Validates that `primitives` is an ordered partition of the query's edges
/// into connected primitives.
pub fn validate_decomposition(
    query: &QueryGraph,
    primitives: &[Primitive],
) -> Result<(), QueryError> {
    if primitives.is_empty() {
        return Err(QueryError::InvalidDecomposition(
            "no primitives produced".into(),
        ));
    }
    let mut covered = BTreeSet::new();
    for p in primitives {
        if p.is_empty() {
            return Err(QueryError::InvalidDecomposition("empty primitive".into()));
        }
        if !query.edges_connected(&p.edges) {
            return Err(QueryError::InvalidDecomposition(format!(
                "primitive {:?} is not connected",
                p.edges
            )));
        }
        for &e in &p.edges {
            if e.0 >= query.edge_count() {
                return Err(QueryError::InvalidDecomposition(format!(
                    "primitive references unknown edge {e:?}"
                )));
            }
            if !covered.insert(e) {
                return Err(QueryError::InvalidDecomposition(format!(
                    "edge {e:?} covered twice"
                )));
            }
        }
    }
    if covered.len() != query.edge_count() {
        return Err(QueryError::InvalidDecomposition(format!(
            "decomposition covers {} of {} edges",
            covered.len(),
            query.edge_count()
        )));
    }
    Ok(())
}

/// An explicit, user-provided decomposition (the paper's Fig. 7 compares
/// hand-picked plans; this is how such plans are expressed).
#[derive(Debug, Clone)]
pub struct ManualDecomposition {
    primitives: Vec<Primitive>,
}

impl ManualDecomposition {
    /// Creates a manual decomposition from explicit edge groups, in join order.
    pub fn new(groups: Vec<Vec<QueryEdgeId>>) -> Self {
        ManualDecomposition {
            primitives: groups.into_iter().map(Primitive::new).collect(),
        }
    }
}

impl DecompositionStrategy for ManualDecomposition {
    fn name(&self) -> &str {
        "manual"
    }

    fn decompose(
        &self,
        query: &QueryGraph,
        _estimator: &SelectivityEstimator<'_>,
    ) -> Result<Vec<Primitive>, QueryError> {
        validate_decomposition(query, &self.primitives)?;
        Ok(self.primitives.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::QueryGraphBuilder;
    use crate::cost::CostBasedOrdered;
    use streamworks_graph::Duration;

    /// The Fig. 2 query: three articles sharing a keyword and a location.
    fn fig2_query() -> QueryGraph {
        QueryGraphBuilder::new("news_triple")
            .window(Duration::from_hours(6))
            .vertex("a1", "Article")
            .vertex("a2", "Article")
            .vertex("a3", "Article")
            .vertex("k", "Keyword")
            .vertex("l", "Location")
            .edge("a1", "mentions", "k")
            .edge("a2", "mentions", "k")
            .edge("a3", "mentions", "k")
            .edge("a1", "located", "l")
            .edge("a2", "located", "l")
            .edge("a3", "located", "l")
            .build()
            .unwrap()
    }

    /// The planner's decomposition is the paper's selectivity ordering
    /// (§4.1), driven by the cost model.
    #[test]
    fn selectivity_ordered_covers_all_edges_with_connected_pairs() {
        let q = fig2_query();
        let est = SelectivityEstimator::without_summary();
        let prims = CostBasedOrdered::default().decompose(&q, &est).unwrap();
        validate_decomposition(&q, &prims).unwrap();
        assert_eq!(prims.iter().map(|p| p.len()).sum::<usize>(), 6);
        assert!(prims.iter().all(|p| p.len() <= 2));
        // Pairs must be connected.
        for p in &prims {
            assert!(q.edges_connected(&p.edges));
        }
    }

    #[test]
    fn single_edge_primitives_when_size_is_one() {
        let q = fig2_query();
        let est = SelectivityEstimator::without_summary();
        let prims = CostBasedOrdered {
            max_primitive_size: 1,
        }
        .decompose(&q, &est)
        .unwrap();
        assert_eq!(prims.len(), 6);
        assert!(prims.iter().all(|p| p.len() == 1));
    }

    #[test]
    fn left_deep_chain_keeps_join_connectivity() {
        let q = fig2_query();
        let est = SelectivityEstimator::without_summary();
        let prims = CostBasedOrdered {
            max_primitive_size: 1,
        }
        .decompose(&q, &est)
        .unwrap();
        assert_eq!(prims.len(), 6);
        // Each primitive after the first must share a vertex with what precedes it.
        let mut seen = std::collections::BTreeSet::new();
        seen.extend(q.vertices_of_edges(&prims[0].edges));
        for p in &prims[1..] {
            let verts = q.vertices_of_edges(&p.edges);
            assert!(verts.iter().any(|v| seen.contains(v)));
            seen.extend(verts);
        }
    }

    #[test]
    fn manual_decomposition_validates_cover() {
        let q = fig2_query();
        let est = SelectivityEstimator::without_summary();
        // Fig. 2's decomposition: (a1 edges), (a2 edges), (a3 edges).
        let manual = ManualDecomposition::new(vec![
            vec![QueryEdgeId(0), QueryEdgeId(3)],
            vec![QueryEdgeId(1), QueryEdgeId(4)],
            vec![QueryEdgeId(2), QueryEdgeId(5)],
        ]);
        let prims = manual.decompose(&q, &est).unwrap();
        assert_eq!(prims.len(), 3);

        // Missing edges are rejected.
        let bad = ManualDecomposition::new(vec![vec![QueryEdgeId(0)]]);
        assert!(bad.decompose(&q, &est).is_err());
        // Duplicate coverage is rejected.
        let dup = ManualDecomposition::new(vec![
            vec![QueryEdgeId(0), QueryEdgeId(1)],
            vec![QueryEdgeId(1), QueryEdgeId(2)],
            vec![QueryEdgeId(3), QueryEdgeId(4)],
            vec![QueryEdgeId(5)],
        ]);
        assert!(dup.decompose(&q, &est).is_err());
        // Disconnected primitives are rejected.
        let disc = ManualDecomposition::new(vec![
            vec![QueryEdgeId(1), QueryEdgeId(3)],
            vec![QueryEdgeId(0), QueryEdgeId(2)],
            vec![QueryEdgeId(4), QueryEdgeId(5)],
        ]);
        assert!(disc.decompose(&q, &est).is_err());
    }

    #[test]
    fn empty_query_is_rejected() {
        let q = QueryGraph::new("empty", Duration::from_secs(1));
        let est = SelectivityEstimator::without_summary();
        assert!(CostBasedOrdered::default().decompose(&q, &est).is_err());
        assert!(ManualDecomposition::new(Vec::new())
            .decompose(&q, &est)
            .is_err());
    }
}
