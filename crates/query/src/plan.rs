//! Query planning: from a [`QueryGraph`] plus statistics to an executable
//! [`QueryPlan`] holding an SJ-Tree shape.
//!
//! This is the "Query Planning" box of paper Fig. 1 / §4.1: decompose the
//! query into search primitives using the summaries, order them by
//! selectivity, and materialize the SJ-Tree the incremental matcher will run.

use crate::cost::CostBasedOrdered;
use crate::decompose::{DecompositionStrategy, Primitive};
use crate::error::QueryError;
use crate::query_graph::{QueryEdgeId, QueryGraph};
use crate::selectivity::{SelectivityEstimator, TypeResolver};
use crate::sjtree::SjTreeShape;
use serde::{Deserialize, Serialize};
use streamworks_summarize::GraphSummary;

/// Shape of the join tree built over the ordered primitives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TreeShapeKind {
    /// Left-deep chain (the paper's default; joins happen in primitive order).
    LeftDeep,
    /// Balanced binary tree over the primitives.
    Balanced,
}

/// A fully planned query, ready to be registered with the engine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryPlan {
    /// The query this plan executes.
    pub query: QueryGraph,
    /// The SJ-Tree shape.
    pub shape: SjTreeShape,
    /// Name of the decomposition strategy that produced the primitives.
    pub strategy: String,
    /// Shape kind used to assemble the tree.
    pub tree_kind: TreeShapeKind,
    /// The ordered primitives (leaves, in join order).
    pub primitives: Vec<Primitive>,
    /// Per-query-edge cardinality estimates available at planning time.
    pub edge_estimates: Vec<(QueryEdgeId, f64)>,
}

impl QueryPlan {
    /// Multi-line, human-readable plan description (decomposition, join order,
    /// estimates) — the library equivalent of the demo's plan visualisation.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "plan for query `{}` (window {}s)\n",
            self.query.name(),
            self.query.window().as_secs()
        ));
        out.push_str(&format!(
            "strategy: {} / {:?}, {} primitives, tree height {}\n",
            self.strategy,
            self.tree_kind,
            self.primitives.len(),
            self.shape.height()
        ));
        out.push_str("edge estimates:\n");
        for (e, card) in &self.edge_estimates {
            out.push_str(&format!(
                "  {:>10.1}  {}\n",
                card,
                self.query.describe_edge(*e)
            ));
        }
        out.push_str("sj-tree:\n");
        out.push_str(&self.shape.render(&self.query));
        out
    }
}

/// Planner front-end.
pub struct Planner<'a> {
    summary: Option<&'a GraphSummary>,
    resolver: Option<&'a dyn TypeResolver>,
    tree_kind: TreeShapeKind,
}

impl<'a> Default for Planner<'a> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> Planner<'a> {
    /// Creates a planner with no statistics and a left-deep tree shape.
    pub fn new() -> Self {
        Planner {
            summary: None,
            resolver: None,
            tree_kind: TreeShapeKind::LeftDeep,
        }
    }

    /// Supplies graph statistics and a type resolver (usually the data graph).
    pub fn with_statistics(
        mut self,
        summary: &'a GraphSummary,
        resolver: &'a dyn TypeResolver,
    ) -> Self {
        self.summary = Some(summary);
        self.resolver = Some(resolver);
        self
    }

    /// Selects the tree shape.
    pub fn tree_kind(mut self, kind: TreeShapeKind) -> Self {
        self.tree_kind = kind;
        self
    }

    fn estimator(&self) -> SelectivityEstimator<'a> {
        match (self.summary, self.resolver) {
            (Some(s), Some(r)) => SelectivityEstimator::with_summary(s, r),
            _ => SelectivityEstimator::without_summary(),
        }
    }

    /// Plans `query` with the cost-based strategy (two-edge primitives in the
    /// join order the cost model predicts stores the fewest partial matches).
    /// Registration and adaptive re-planning plan through here too.
    pub fn plan(&self, query: QueryGraph) -> Result<QueryPlan, QueryError> {
        self.plan_with(query, &CostBasedOrdered::default())
    }

    /// Plans `query` with an explicit decomposition strategy.
    pub fn plan_with(
        &self,
        query: QueryGraph,
        strategy: &dyn DecompositionStrategy,
    ) -> Result<QueryPlan, QueryError> {
        query.validate()?;
        let estimator = self.estimator();
        let primitives = strategy.decompose(&query, &estimator)?;
        let shape = match self.tree_kind {
            TreeShapeKind::LeftDeep => SjTreeShape::left_deep(&query, &primitives)?,
            TreeShapeKind::Balanced => SjTreeShape::balanced(&query, &primitives)?,
        };
        let edge_estimates = estimator.all_edge_estimates(&query);
        Ok(QueryPlan {
            query,
            shape,
            strategy: strategy.name().to_owned(),
            tree_kind: self.tree_kind,
            primitives,
            edge_estimates,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::QueryGraphBuilder;
    use crate::decompose::ManualDecomposition;
    use streamworks_graph::{Duration, DynamicGraph, EdgeEvent, Timestamp};

    fn single_edges(query: &QueryGraph) -> ManualDecomposition {
        ManualDecomposition::new(query.edge_ids().map(|e| vec![e]).collect())
    }

    fn cyber_query() -> QueryGraph {
        QueryGraphBuilder::new("scan")
            .window(Duration::from_mins(5))
            .vertex("attacker", "IP")
            .vertex("t1", "IP")
            .vertex("t2", "IP")
            .edge("attacker", "flow", "t1")
            .edge("attacker", "flow", "t2")
            .edge("attacker", "dns", "t1")
            .build()
            .unwrap()
    }

    #[test]
    fn default_plan_is_valid_and_explains() {
        let plan = Planner::new().plan(cyber_query()).unwrap();
        plan.shape.validate(&plan.query).unwrap();
        let explain = plan.explain();
        assert!(explain.contains("cost-based"));
        assert!(explain.contains("sj-tree:"));
        assert!(explain.contains("window 300s"));
        assert_eq!(plan.edge_estimates.len(), 3);
    }

    #[test]
    fn statistics_change_the_join_order() {
        // Build a graph where dns edges are rare and flow edges are common.
        let mut g = DynamicGraph::unbounded();
        let mut s = streamworks_summarize::GraphSummary::new();
        let mut t = 0;
        let push = |g: &mut DynamicGraph,
                    s: &mut streamworks_summarize::GraphSummary,
                    src: String,
                    et: &str,
                    dst: String,
                    t: i64| {
            let ev = EdgeEvent::new(src, "IP", dst, "IP", et, Timestamp::from_secs(t));
            let r = g.ingest(&ev);
            if r.src_created {
                s.observe_vertex(g.vertex(r.src).unwrap().vtype);
            }
            if r.dst_created {
                s.observe_vertex(g.vertex(r.dst).unwrap().vtype);
            }
            let e = g.edge(r.edge).unwrap().clone();
            s.observe_insertion(g, &e);
        };
        for i in 0..200 {
            push(
                &mut g,
                &mut s,
                format!("h{}", i % 20),
                "flow",
                format!("h{}", (i + 1) % 20),
                t,
            );
            t += 1;
        }
        for i in 0..3 {
            push(
                &mut g,
                &mut s,
                format!("h{i}"),
                "dns",
                format!("h{}", i + 1),
                t,
            );
            t += 1;
        }

        let plan = Planner::new()
            .with_statistics(&s, &g)
            .plan_with(
                cyber_query(),
                &CostBasedOrdered {
                    max_primitive_size: 1,
                },
            )
            .unwrap();
        // The first (most selective) primitive must be the dns edge (edge id 2).
        assert_eq!(plan.primitives[0].edges, vec![QueryEdgeId(2)]);

        // The frequency-blind plan starts with edge 0 instead.
        let blind = Planner::new()
            .with_statistics(&s, &g)
            .plan_with(cyber_query(), &single_edges(&cyber_query()))
            .unwrap();
        assert_eq!(blind.primitives[0].edges, vec![QueryEdgeId(0)]);
    }

    #[test]
    fn balanced_tree_kind_is_respected() {
        let q = QueryGraphBuilder::new("path")
            .edge("a", "t", "b")
            .edge("b", "t", "c")
            .edge("c", "t", "d")
            .edge("d", "t", "e")
            .build()
            .unwrap();
        let plan = Planner::new()
            .tree_kind(TreeShapeKind::Balanced)
            .plan_with(q.clone(), &single_edges(&q))
            .unwrap();
        assert_eq!(plan.tree_kind, TreeShapeKind::Balanced);
        assert!(plan.shape.height() <= 3);
    }

    #[test]
    fn plan_serializes_to_json() {
        let plan = Planner::new().plan(cyber_query()).unwrap();
        let json = serde_json::to_string(&plan).unwrap();
        assert!(json.contains("\"strategy\""));
        let back: QueryPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back.query.name(), "scan");
        assert_eq!(back.shape.node_count(), plan.shape.node_count());
    }
}
