//! Selectivity estimation for query subgraphs.
//!
//! Paper §4.1: "The query decomposition is performed by utilizing statistics
//! and summaries about the data graph such as degree distribution, vertex and
//! edge type distribution and multi-relational triad distribution." This
//! module turns a [`GraphSummary`] into cardinality estimates for single query
//! edges and two-edge primitives, which the decomposition strategies use to
//! "push the most selective subgraph at the lowest level".
//!
//! When no summary is available the estimator falls back to a purely
//! structural heuristic (more type/predicate constraints ⇒ more selective),
//! so planning still produces a deterministic, reasonable SJ-Tree.

use crate::query_graph::{QueryEdgeId, QueryGraph};
use streamworks_graph::{Direction, DynamicGraph, TypeId};
use streamworks_summarize::{GraphSummary, Orientation, WedgeKey};

/// Resolves type *names* (as used in query graphs) to the dense [`TypeId`]s
/// a particular data graph uses internally.
pub trait TypeResolver {
    /// Resolve a vertex type label.
    fn resolve_vertex_type(&self, name: &str) -> Option<TypeId>;
    /// Resolve an edge type label.
    fn resolve_edge_type(&self, name: &str) -> Option<TypeId>;
}

impl TypeResolver for DynamicGraph {
    fn resolve_vertex_type(&self, name: &str) -> Option<TypeId> {
        self.vertex_type_id(name)
    }
    fn resolve_edge_type(&self, name: &str) -> Option<TypeId> {
        self.edge_type_id(name)
    }
}

/// A resolver that knows no types; forces the structural fallback estimates.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullResolver;

impl TypeResolver for NullResolver {
    fn resolve_vertex_type(&self, _name: &str) -> Option<TypeId> {
        None
    }
    fn resolve_edge_type(&self, _name: &str) -> Option<TypeId> {
        None
    }
}

/// Cardinality estimator combining a graph summary with a type resolver.
pub struct SelectivityEstimator<'a> {
    summary: Option<&'a GraphSummary>,
    resolver: &'a dyn TypeResolver,
}

impl<'a> SelectivityEstimator<'a> {
    /// Estimator backed by a summary (statistics-driven planning).
    pub fn with_summary(summary: &'a GraphSummary, resolver: &'a dyn TypeResolver) -> Self {
        SelectivityEstimator {
            summary: Some(summary),
            resolver,
        }
    }

    /// Estimator with no statistics (structural fallback only).
    pub fn without_summary() -> SelectivityEstimator<'static> {
        SelectivityEstimator {
            summary: None,
            resolver: &NullResolver,
        }
    }

    /// True if real statistics back this estimator.
    pub fn has_summary(&self) -> bool {
        self.summary.is_some()
    }

    fn predicate_factor(query: &QueryGraph, edge: QueryEdgeId) -> f64 {
        let e = query.edge(edge);
        let mut factor = 1.0;
        for p in &e.predicates {
            factor *= p.selectivity_factor();
        }
        for v in [e.src, e.dst] {
            for p in &query.vertex(v).predicates {
                factor *= p.selectivity_factor();
            }
        }
        factor.max(1e-6)
    }

    /// Structural fallback: a fixed base divided by the number of constraints.
    fn structural_cardinality(query: &QueryGraph, edge: QueryEdgeId) -> f64 {
        let e = query.edge(edge);
        let mut constraints = 0u32;
        if e.etype.is_some() {
            constraints += 1;
        }
        if query.vertex(e.src).vtype.is_some() {
            constraints += 1;
        }
        if query.vertex(e.dst).vtype.is_some() {
            constraints += 1;
        }
        let base = 10_000.0 / (1.0 + constraints as f64);
        base * Self::predicate_factor(query, edge)
    }

    /// Estimated number of data edges that can match query edge `edge`.
    pub fn edge_cardinality(&self, query: &QueryGraph, edge: QueryEdgeId) -> f64 {
        let Some(summary) = self.summary else {
            return Self::structural_cardinality(query, edge);
        };
        let e = query.edge(edge);
        let src_t = query
            .vertex(e.src)
            .vtype
            .as_deref()
            .and_then(|n| self.resolver.resolve_vertex_type(n));
        let dst_t = query
            .vertex(e.dst)
            .vtype
            .as_deref()
            .and_then(|n| self.resolver.resolve_vertex_type(n));
        let Some(etype) = e
            .etype
            .as_deref()
            .and_then(|n| self.resolver.resolve_edge_type(n))
        else {
            // Untyped edge (or a type the data graph has never seen): use the
            // total live edge population as the estimate.
            let total = summary.types().total_edges().max(1) as f64;
            return total * Self::predicate_factor(query, edge);
        };
        let base = summary.estimated_edge_matches(src_t, etype, dst_t);
        base * Self::predicate_factor(query, edge)
    }

    /// Estimated number of data subgraphs matching a small connected primitive
    /// (one or two query edges).
    pub fn primitive_cardinality(&self, query: &QueryGraph, edges: &[QueryEdgeId]) -> f64 {
        match edges {
            [] => f64::INFINITY,
            [single] => self.edge_cardinality(query, *single),
            [a, b] => self.wedge_cardinality(query, *a, *b),
            many => {
                // Larger primitives: product of edge estimates damped by the
                // number of shared vertices (a crude but monotone combination).
                let mut product = 1.0;
                for &e in many {
                    product *= self.edge_cardinality(query, e).max(0.01);
                }
                product.powf(1.0 / many.len() as f64)
            }
        }
    }

    /// Estimate for a two-edge primitive, preferring triad statistics.
    fn wedge_cardinality(&self, query: &QueryGraph, a: QueryEdgeId, b: QueryEdgeId) -> f64 {
        let ea = query.edge(a);
        let eb = query.edge(b);
        // Find the shared (centre) vertex, if any.
        let shared = ea
            .endpoints()
            .into_iter()
            .find(|v| eb.endpoints().contains(v));
        let card_a = self.edge_cardinality(query, a);
        let card_b = self.edge_cardinality(query, b);
        let Some(center) = shared else {
            // Disconnected pair: cartesian product.
            return card_a * card_b;
        };
        if let (Some(summary), Some(center_t)) = (
            self.summary,
            query
                .vertex(center)
                .vtype
                .as_deref()
                .and_then(|n| self.resolver.resolve_vertex_type(n)),
        ) {
            let resolve_leg = |e: &crate::query_graph::QueryEdge| -> Option<(TypeId, Orientation)> {
                let et = e
                    .etype
                    .as_deref()
                    .and_then(|n| self.resolver.resolve_edge_type(n))?;
                let orientation = if e.src == center {
                    Orientation::Outgoing
                } else {
                    Orientation::Incoming
                };
                Some((et, orientation))
            };
            if let (Some(leg_a), Some(leg_b)) = (resolve_leg(ea), resolve_leg(eb)) {
                let key = WedgeKey::new(center_t, leg_a, leg_b);
                let wedges = summary.estimated_wedges(&key);
                if wedges >= 0.0 {
                    let factor =
                        Self::predicate_factor(query, a) * Self::predicate_factor(query, b);
                    return (wedges * factor).max(0.01);
                }
            }
            // Triads unavailable: independence fallback via fan-out.
            let _ = summary;
        }
        // Independence fallback: the cheaper edge count times the average
        // fan-out of extending across the centre vertex.
        let fanout = self.center_fanout(query, center, if card_a <= card_b { b } else { a });
        (card_a.min(card_b) * fanout).max(0.01)
    }

    fn center_fanout(
        &self,
        query: &QueryGraph,
        center: crate::query_graph::QueryVertexId,
        extension_edge: QueryEdgeId,
    ) -> f64 {
        let Some(summary) = self.summary else {
            return 2.0;
        };
        let e = query.edge(extension_edge);
        let Some(center_t) = query
            .vertex(center)
            .vtype
            .as_deref()
            .and_then(|n| self.resolver.resolve_vertex_type(n))
        else {
            return 2.0;
        };
        let Some(etype) = e
            .etype
            .as_deref()
            .and_then(|n| self.resolver.resolve_edge_type(n))
        else {
            return 2.0;
        };
        let dir = if e.src == center {
            Direction::Out
        } else {
            Direction::In
        };
        summary.estimated_fanout(center_t, dir, etype)
    }

    /// Per-edge estimates for every edge of the query (used in plan explain output).
    pub fn all_edge_estimates(&self, query: &QueryGraph) -> Vec<(QueryEdgeId, f64)> {
        query
            .edge_ids()
            .map(|e| (e, self.edge_cardinality(query, e)))
            .collect()
    }

    /// Estimated number of data vertices that can bind a query vertex: the
    /// live count of its vertex type (or the total vertex population when the
    /// variable is untyped), scaled by its attribute-predicate selectivity.
    pub fn vertex_domain(
        &self,
        query: &QueryGraph,
        vertex: crate::query_graph::QueryVertexId,
    ) -> f64 {
        let qv = query.vertex(vertex);
        let mut factor = 1.0;
        for p in &qv.predicates {
            factor *= p.selectivity_factor();
        }
        let base = match self.summary {
            Some(summary) => {
                let total = summary.types().total_live_vertices().max(1) as f64;
                match qv
                    .vtype
                    .as_deref()
                    .and_then(|n| self.resolver.resolve_vertex_type(n))
                {
                    Some(t) => {
                        let count = summary.types().live_vertex_count(t) as f64;
                        if count > 0.0 {
                            count
                        } else {
                            total
                        }
                    }
                    None => total,
                }
            }
            // Structural fallback: typed variables are assumed to bind a
            // modest fraction of an (unknown) vertex population.
            None => {
                if qv.vtype.is_some() {
                    1_000.0
                } else {
                    10_000.0
                }
            }
        };
        (base * factor).max(1.0)
    }

    /// Estimated number of embeddings of the connected query subgraph induced
    /// by `edges` — the classic chain estimator: start from the most selective
    /// edge and expand one adjacent edge at a time, multiplying by a fan-out
    /// factor (one free endpoint), a closure probability (both endpoints
    /// already bound) or the full edge cardinality (cartesian extension).
    ///
    /// This is the building block of the plan cost model (see [`crate::estimate_shape_cost`]):
    /// the estimate for an SJ-Tree node's subgraph approximates the number of
    /// partial matches the runtime will store at that node.
    pub fn subgraph_cardinality(&self, query: &QueryGraph, edges: &[QueryEdgeId]) -> f64 {
        if edges.is_empty() {
            return f64::INFINITY;
        }
        let mut remaining: Vec<QueryEdgeId> = edges.to_vec();
        remaining.sort_unstable();
        remaining.dedup();

        // Seed with the most selective edge.
        let seed_pos = remaining
            .iter()
            .enumerate()
            .min_by(|(_, &a), (_, &b)| {
                self.edge_cardinality(query, a)
                    .partial_cmp(&self.edge_cardinality(query, b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)
            .unwrap_or(0);
        let seed = remaining.swap_remove(seed_pos);
        let mut card = self.edge_cardinality(query, seed).max(0.01);
        let mut bound: std::collections::BTreeSet<_> =
            query.edge(seed).endpoints().into_iter().collect();

        while !remaining.is_empty() {
            // Prefer an edge touching an already-bound vertex; otherwise take
            // the most selective remaining edge as a cartesian extension.
            let next_pos = remaining
                .iter()
                .enumerate()
                .filter(|(_, &e)| query.edge(e).endpoints().iter().any(|v| bound.contains(v)))
                .min_by(|(_, &a), (_, &b)| {
                    self.edge_cardinality(query, a)
                        .partial_cmp(&self.edge_cardinality(query, b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|(i, _)| i)
                .unwrap_or(0);
            let e = remaining.swap_remove(next_pos);
            let qe = query.edge(e);
            let ecard = self.edge_cardinality(query, e).max(0.01);
            let [u, w] = qe.endpoints();
            let u_bound = bound.contains(&u);
            let w_bound = bound.contains(&w);
            let factor = match (u_bound, w_bound) {
                // Closure edge: probability that a specific (u, w) pair is
                // connected by an edge of this kind.
                (true, true) => {
                    let pairs = self.vertex_domain(query, u) * self.vertex_domain(query, w);
                    (ecard / pairs.max(1.0)).min(1.0)
                }
                // Expansion across one bound endpoint: average fan-out.
                (true, false) => ecard / self.vertex_domain(query, u).max(1.0),
                (false, true) => ecard / self.vertex_domain(query, w).max(1.0),
                // Disconnected extension: cartesian product.
                (false, false) => ecard,
            };
            card = (card * factor.max(1e-9)).max(0.01);
            bound.insert(u);
            bound.insert(w);
        }
        card
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::QueryGraphBuilder;
    use crate::predicate::Predicate;
    use streamworks_graph::{EdgeEvent, Timestamp};

    /// A small news-like data graph: many mention edges, few located edges.
    fn news_graph() -> (DynamicGraph, GraphSummary) {
        let mut g = DynamicGraph::unbounded();
        let mut s = GraphSummary::new();
        let push = |g: &mut DynamicGraph,
                    s: &mut GraphSummary,
                    src: &str,
                    st: &str,
                    dst: &str,
                    dt: &str,
                    et: &str,
                    t: i64| {
            let ev = EdgeEvent::new(src, st, dst, dt, et, Timestamp::from_secs(t));
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
        let mut t = 0;
        for a in 0..20 {
            for k in 0..5 {
                push(
                    &mut g,
                    &mut s,
                    &format!("a{a}"),
                    "Article",
                    &format!("k{k}"),
                    "Keyword",
                    "mentions",
                    t,
                );
                t += 1;
            }
        }
        for a in 0..4 {
            push(
                &mut g,
                &mut s,
                &format!("a{a}"),
                "Article",
                "paris",
                "Location",
                "located",
                t,
            );
            t += 1;
        }
        (g, s)
    }

    fn news_query() -> QueryGraph {
        QueryGraphBuilder::new("q")
            .vertex("a1", "Article")
            .vertex("k", "Keyword")
            .vertex("l", "Location")
            .edge("a1", "mentions", "k")
            .edge("a1", "located", "l")
            .build()
            .unwrap()
    }

    #[test]
    fn statistics_rank_rare_edges_as_more_selective() {
        let (g, s) = news_graph();
        let q = news_query();
        let est = SelectivityEstimator::with_summary(&s, &g);
        let mentions = est.edge_cardinality(&q, QueryEdgeId(0));
        let located = est.edge_cardinality(&q, QueryEdgeId(1));
        assert!(mentions > located, "mentions={mentions} located={located}");
        assert_eq!(mentions, 100.0);
        assert_eq!(located, 4.0);
    }

    #[test]
    fn predicates_reduce_estimates() {
        let (g, s) = news_graph();
        let mut q = news_query();
        let k = q.vertex_by_name("k").unwrap().id;
        let _ = k;
        q.add_vertex("k", None, vec![Predicate::eq("label", "politics")])
            .unwrap();
        let est = SelectivityEstimator::with_summary(&s, &g);
        let with_pred = est.edge_cardinality(&q, QueryEdgeId(0));
        assert!(with_pred < 100.0);
    }

    #[test]
    fn wedge_estimate_uses_triads_when_available() {
        let (g, s) = news_graph();
        let q = news_query();
        let est = SelectivityEstimator::with_summary(&s, &g);
        let wedge = est.primitive_cardinality(&q, &[QueryEdgeId(0), QueryEdgeId(1)]);
        // Articles with both a mention and a location: only 4 articles have a
        // location and each has 5 mentions => 20 wedges.
        assert!(wedge > 0.0);
        assert!(wedge <= 30.0, "wedge estimate too large: {wedge}");
    }

    #[test]
    fn fallback_without_summary_prefers_more_constrained_edges() {
        let q = QueryGraphBuilder::new("q")
            .vertex("a", "Article")
            .any_vertex("x")
            .edge("a", "mentions", "k")
            .any_edge("x", "y")
            .build()
            .unwrap();
        let est = SelectivityEstimator::without_summary();
        let typed = est.edge_cardinality(&q, QueryEdgeId(0));
        let untyped = est.edge_cardinality(&q, QueryEdgeId(1));
        assert!(typed < untyped);
        assert!(!est.has_summary());
    }

    #[test]
    fn unknown_type_names_fall_back_to_total_edges() {
        let (g, s) = news_graph();
        let q = QueryGraphBuilder::new("q")
            .vertex("x", "Malware")
            .vertex("y", "Malware")
            .edge("x", "infects", "y")
            .build()
            .unwrap();
        let est = SelectivityEstimator::with_summary(&s, &g);
        let card = est.edge_cardinality(&q, QueryEdgeId(0));
        // The type was never observed, so the estimator uses the live edge count.
        assert_eq!(card, s.types().total_edges() as f64);
        let _ = g;
    }

    #[test]
    fn disconnected_primitive_is_cartesian() {
        let (g, s) = news_graph();
        let q = QueryGraphBuilder::new("q")
            .vertex("a1", "Article")
            .vertex("a2", "Article")
            .vertex("k1", "Keyword")
            .vertex("k2", "Keyword")
            .edge("a1", "mentions", "k1")
            .edge("a2", "mentions", "k2")
            .build()
            .unwrap();
        let est = SelectivityEstimator::with_summary(&s, &g);
        let pair = est.primitive_cardinality(&q, &[QueryEdgeId(0), QueryEdgeId(1)]);
        assert_eq!(pair, 100.0 * 100.0);
    }

    #[test]
    fn empty_primitive_is_infinite() {
        let est = SelectivityEstimator::without_summary();
        let q = news_query();
        assert!(est.primitive_cardinality(&q, &[]).is_infinite());
    }

    #[test]
    fn vertex_domain_reflects_type_population() {
        let (g, s) = news_graph();
        let q = news_query();
        let est = SelectivityEstimator::with_summary(&s, &g);
        let article = q.vertex_by_name("a1").unwrap().id;
        let location = q.vertex_by_name("l").unwrap().id;
        let articles = est.vertex_domain(&q, article);
        let locations = est.vertex_domain(&q, location);
        // 20 articles vs. a single location in the synthetic data graph.
        assert!(
            articles > locations,
            "articles={articles} locations={locations}"
        );
        assert!(locations >= 1.0);
    }

    #[test]
    fn vertex_domain_fallback_is_finite_without_summary() {
        let q = news_query();
        let est = SelectivityEstimator::without_summary();
        let a = q.vertex_by_name("a1").unwrap().id;
        let d = est.vertex_domain(&q, a);
        assert!(d.is_finite() && d >= 1.0);
    }

    #[test]
    fn subgraph_cardinality_shrinks_with_more_constraints() {
        let (g, s) = news_graph();
        let q = QueryGraphBuilder::new("q")
            .vertex("a1", "Article")
            .vertex("a2", "Article")
            .vertex("k", "Keyword")
            .vertex("l", "Location")
            .edge("a1", "mentions", "k")
            .edge("a2", "mentions", "k")
            .edge("a1", "located", "l")
            .edge("a2", "located", "l")
            .build()
            .unwrap();
        let est = SelectivityEstimator::with_summary(&s, &g);
        let one = est.subgraph_cardinality(&q, &[QueryEdgeId(0)]);
        let two = est.subgraph_cardinality(&q, &[QueryEdgeId(0), QueryEdgeId(2)]);
        let all: Vec<QueryEdgeId> = q.edge_ids().collect();
        let full = est.subgraph_cardinality(&q, &all);
        // Adding the rare `located` edge to the frequent `mentions` edge must
        // not increase the estimate, and the full 4-edge pattern must not be
        // larger than the 2-edge wedge estimate.
        assert!(two <= one, "two={two} one={one}");
        assert!(full <= one * one, "full={full}");
        assert!(full > 0.0);
    }

    #[test]
    fn subgraph_cardinality_handles_disconnected_and_empty_sets() {
        let (g, s) = news_graph();
        let q = QueryGraphBuilder::new("q")
            .vertex("a1", "Article")
            .vertex("a2", "Article")
            .vertex("k1", "Keyword")
            .vertex("k2", "Keyword")
            .edge("a1", "mentions", "k1")
            .edge("a2", "mentions", "k2")
            .build()
            .unwrap();
        let est = SelectivityEstimator::with_summary(&s, &g);
        assert!(est.subgraph_cardinality(&q, &[]).is_infinite());
        let pair = est.subgraph_cardinality(&q, &[QueryEdgeId(0), QueryEdgeId(1)]);
        let single = est.subgraph_cardinality(&q, &[QueryEdgeId(0)]);
        // Disconnected pair behaves like a cartesian product of the two edges.
        assert!(pair >= single, "pair={pair} single={single}");
    }
}
