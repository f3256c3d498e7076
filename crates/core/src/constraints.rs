//! Compiled, graph-specific constraint checks for a registered query.
//!
//! Query graphs constrain vertices and edges by *type name* and attribute
//! predicates. The data graph interns type names to dense [`TypeId`]s, so at
//! registration time (and lazily afterwards, because a type may only appear in
//! the stream later) the engine resolves every query-side name to the graph's
//! id space. All hot-path checks then compare integers.

use streamworks_graph::{DynamicGraph, Edge, TypeId, VertexId};
use streamworks_query::{QueryEdgeId, QueryGraph, QueryVertexId};

/// Resolution state of one type-name constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Resolved {
    /// No constraint — matches any type.
    Any,
    /// Constraint names a type the data graph has not seen yet; nothing matches.
    Unknown,
    /// Constraint resolved to a concrete type id.
    Id(TypeId),
}

/// Per-query compiled constraints, refreshed lazily as the data graph's type
/// interner grows.
#[derive(Debug, Clone)]
pub(crate) struct CompiledConstraints {
    vtypes: Vec<Resolved>,
    etypes: Vec<Resolved>,
    /// Sizes of the graph's type interners when we last resolved, so we can
    /// detect that new type names appeared and re-resolve cheaply.
    seen_vertex_types: usize,
    seen_edge_types: usize,
}

impl CompiledConstraints {
    /// Compiles constraints for `query` against the current state of `graph`.
    pub fn compile(query: &QueryGraph, graph: &DynamicGraph) -> Self {
        let mut c = CompiledConstraints {
            vtypes: vec![Resolved::Any; query.vertex_count()],
            etypes: vec![Resolved::Any; query.edge_count()],
            seen_vertex_types: usize::MAX,
            seen_edge_types: usize::MAX,
        };
        c.refresh(query, graph);
        c
    }

    /// Re-resolves names if the graph has learned new types since the last call.
    pub fn refresh(&mut self, query: &QueryGraph, graph: &DynamicGraph) {
        if self.seen_vertex_types == graph.vertex_type_count()
            && self.seen_edge_types == graph.edge_type_count()
        {
            return;
        }
        self.seen_vertex_types = graph.vertex_type_count();
        self.seen_edge_types = graph.edge_type_count();
        for v in query.vertices() {
            self.vtypes[v.id.0] = match &v.vtype {
                None => Resolved::Any,
                Some(name) => match graph.vertex_type_id(name) {
                    Some(id) => Resolved::Id(id),
                    None => Resolved::Unknown,
                },
            };
        }
        for e in query.edges() {
            self.etypes[e.id.0] = match &e.etype {
                None => Resolved::Any,
                Some(name) => match graph.edge_type_id(name) {
                    Some(id) => Resolved::Id(id),
                    None => Resolved::Unknown,
                },
            };
        }
    }

    /// The resolved edge-type constraint for a query edge: `Ok(Some(t))` for a
    /// concrete type, `Ok(None)` for "any", `Err(())` for a type the graph has
    /// never seen (nothing can match).
    #[allow(clippy::result_unit_err)] // Err(()) is a deliberate "nothing matches" marker
    pub fn edge_type_filter(&self, qe: QueryEdgeId) -> Result<Option<TypeId>, ()> {
        match self.etypes[qe.0] {
            Resolved::Any => Ok(None),
            Resolved::Id(t) => Ok(Some(t)),
            Resolved::Unknown => Err(()),
        }
    }

    /// True if data vertex `dv` satisfies the type and predicate constraints of
    /// query vertex `qv`.
    pub fn vertex_matches(
        &self,
        graph: &DynamicGraph,
        query: &QueryGraph,
        qv: QueryVertexId,
        dv: VertexId,
    ) -> bool {
        let Some(vertex) = graph.vertex(dv) else {
            return false;
        };
        match self.vtypes[qv.0] {
            Resolved::Any => {}
            Resolved::Unknown => return false,
            Resolved::Id(t) => {
                if vertex.vtype != t {
                    return false;
                }
            }
        }
        query
            .vertex(qv)
            .predicates
            .iter()
            .all(|p| p.matches(&vertex.attrs))
    }

    /// True if data edge `edge` can realise query edge `qe` (type, endpoint
    /// types and all predicates).
    pub fn edge_matches(
        &self,
        graph: &DynamicGraph,
        query: &QueryGraph,
        qe: QueryEdgeId,
        edge: &Edge,
    ) -> bool {
        match self.etypes[qe.0] {
            Resolved::Any => {}
            Resolved::Unknown => return false,
            Resolved::Id(t) => {
                if edge.etype != t {
                    return false;
                }
            }
        }
        let q = query.edge(qe);
        if !q.predicates.iter().all(|p| p.matches(&edge.attrs)) {
            return false;
        }
        self.vertex_matches(graph, query, q.src, edge.src)
            && self.vertex_matches(graph, query, q.dst, edge.dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamworks_graph::{EdgeEvent, Timestamp};
    use streamworks_query::{Predicate, QueryGraphBuilder};

    fn graph() -> DynamicGraph {
        let mut g = DynamicGraph::unbounded();
        g.ingest(
            &EdgeEvent::new(
                "a1",
                "Article",
                "k1",
                "Keyword",
                "mentions",
                Timestamp::from_secs(1),
            )
            .with_attr("weight", 3i64),
        );
        let k1 = g.vertex_by_key("k1").unwrap();
        g.set_vertex_attr(k1, "label", "politics").unwrap();
        g.ingest(&EdgeEvent::new(
            "a1",
            "Article",
            "l1",
            "Location",
            "located",
            Timestamp::from_secs(2),
        ));
        g
    }

    fn query() -> QueryGraph {
        QueryGraphBuilder::new("q")
            .vertex("a", "Article")
            .vertex("k", "Keyword")
            .edge("a", "mentions", "k")
            .vertex_predicate("k", Predicate::eq("label", "politics"))
            .build()
            .unwrap()
    }

    #[test]
    fn edge_and_vertex_constraints_resolve_and_match() {
        let g = graph();
        let q = query();
        let c = CompiledConstraints::compile(&q, &g);
        let mention_edge = g
            .edges()
            .find(|e| g.edge_type_name(e.etype) == Some("mentions"))
            .unwrap();
        let located_edge = g
            .edges()
            .find(|e| g.edge_type_name(e.etype) == Some("located"))
            .unwrap();
        assert!(c.edge_matches(&g, &q, streamworks_query::QueryEdgeId(0), mention_edge));
        assert!(!c.edge_matches(&g, &q, streamworks_query::QueryEdgeId(0), located_edge));
    }

    #[test]
    fn vertex_predicates_are_enforced() {
        let mut g = graph();
        let q = query();
        // Add a second mention whose keyword lacks the politics label.
        g.ingest(&EdgeEvent::new(
            "a2",
            "Article",
            "k2",
            "Keyword",
            "mentions",
            Timestamp::from_secs(3),
        ));
        let c = CompiledConstraints::compile(&q, &g);
        let bad_edge = g
            .edges()
            .find(|e| g.vertex_key(e.src) == Some("a2"))
            .unwrap();
        assert!(!c.edge_matches(&g, &q, streamworks_query::QueryEdgeId(0), bad_edge));
    }

    #[test]
    fn unknown_types_match_nothing_until_refresh() {
        let mut g = DynamicGraph::unbounded();
        g.ingest(&EdgeEvent::new(
            "x",
            "Host",
            "y",
            "Host",
            "flow",
            Timestamp::from_secs(1),
        ));
        let q = query(); // references Article/Keyword/mentions, unseen so far
        let mut c = CompiledConstraints::compile(&q, &g);
        assert_eq!(c.edge_type_filter(QueryEdgeId(0)), Err(()));
        // Once the graph sees the types, refresh resolves them.
        g.ingest(&EdgeEvent::new(
            "a1",
            "Article",
            "k1",
            "Keyword",
            "mentions",
            Timestamp::from_secs(2),
        ));
        c.refresh(&q, &g);
        assert!(matches!(c.edge_type_filter(QueryEdgeId(0)), Ok(Some(_))));
    }
}
