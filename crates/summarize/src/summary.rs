//! The composite graph summary.
//!
//! [`GraphSummary`] bundles the three statistics of paper §4.3 — degree
//! distribution, vertex/edge type distribution, and multi-relational triad
//! distribution — behind the selectivity accessors the query planner (in
//! `streamworks-query`) consumes.
//!
//! There are two ways to get one. [`GraphSummary::of`] builds it from a
//! graph's live state and counters; the continuous-query engine in
//! `streamworks-core` does that when its summary is read, not per edge. The
//! hand-fed API — [`GraphSummary::new`], then `observe_vertex` and
//! `observe_insertion` after each ingest and `observe_expiry` for each
//! expired edge — maintains the same statistics one edge at a time, except
//! that its triad counts are cumulative (see [`GraphSummary::of`]).

use crate::degree::DegreeDistribution;
use crate::triads::{TriadDistribution, WedgeKey};
use crate::type_dist::TypeDistribution;
use serde::{Deserialize, Serialize};
use streamworks_graph::{Direction, DynamicGraph, Edge, TypeId};

/// Statistics about a [`DynamicGraph`]: built from it by [`Self::of`], or fed
/// edge by edge.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GraphSummary {
    degrees: DegreeDistribution,
    types: TypeDistribution,
    triads: TriadDistribution,
    edges_observed: u64,
}

impl GraphSummary {
    /// Creates an empty summary, to be fed edge by edge.
    pub fn new() -> Self {
        Self::default()
    }

    /// The summary of `graph` as it stands, in one pass over its live edges
    /// and one over its live vertices.
    ///
    /// * Live statistics — triple, per-type and total edge counts, typed
    ///   endpoint counts (`estimated_fanout`) and
    ///   [`DegreeDistribution::live_edges`] — count the live edges, as a
    ///   hand-fed summary does. The degree histograms hold one sample per
    ///   live vertex.
    /// * Live vertex counts per type
    ///   ([`TypeDistribution::live_vertex_count`]) are
    ///   [`DynamicGraph::vertices_of_type`]; [`Self::estimated_fanout`]
    ///   divides by them.
    /// * Cumulative statistics come from the graph's counters: per-type
    ///   vertex counts and `total_vertices` are
    ///   [`DynamicGraph::vertices_created_of_type`] (a key counts again when
    ///   it makes a new vertex, not when it resumes its parked one), and
    ///   [`Self::edges_observed`] is [`DynamicGraph::retained_edge_count`].
    ///   A hand-fed summary that observes each creation and insertion of a
    ///   retained edge counts the same.
    /// * Triads are the **live** wedges ([`TriadDistribution::of`]). A
    ///   hand-fed summary counts wedges as edges arrive and never takes one
    ///   away, so the two agree only while nothing has expired.
    pub fn of(graph: &DynamicGraph) -> Self {
        let mut summary = GraphSummary::new();
        for e in graph.edges() {
            let (src, dst) = endpoint_types(graph, e);
            summary.types.observe_edge(src, e.etype, dst);
            summary.degrees.observe_edge(src, e.etype, dst);
        }
        for v in graph.vertices() {
            (summary.degrees).record_degree_sample(v.vtype, v.degree() as u64);
        }
        for t in (0..graph.vertex_type_count() as u32).map(TypeId) {
            (summary.types).observe_vertices(
                t,
                graph.vertices_created_of_type(t),
                graph.vertices_of_type(t),
            );
        }
        summary.triads = TriadDistribution::of(graph);
        summary.edges_observed = graph.retained_edge_count();
        summary
    }

    /// Observes a newly created vertex.
    pub fn observe_vertex(&mut self, vtype: TypeId) {
        self.types.observe_vertex(vtype);
    }

    /// Observes a newly inserted edge. Must be called after the edge is in `graph`.
    pub fn observe_insertion(&mut self, graph: &DynamicGraph, edge: &Edge) {
        let (src_vtype, dst_vtype) = endpoint_types(graph, edge);
        self.types.observe_edge(src_vtype, edge.etype, dst_vtype);
        self.degrees.observe_edge(src_vtype, edge.etype, dst_vtype);
        self.triads.observe_edge(graph, edge);
        self.edges_observed += 1;
    }

    /// Observes the expiry of an edge. `src_vtype`/`dst_vtype` are passed
    /// explicitly because the edge may already have been removed from the graph.
    pub fn observe_expiry(&mut self, src_vtype: TypeId, etype: TypeId, dst_vtype: TypeId) {
        self.types.retract_edge(src_vtype, etype, dst_vtype);
        self.degrees.retract_edge(src_vtype, etype, dst_vtype);
        // Triad counts are not decremented: fed edge by edge they count every
        // wedge seen so far (see `of` for the live count).
    }

    /// Refreshes the degree-sample histograms from the graph's current degrees.
    pub fn resample_degrees(&mut self, graph: &DynamicGraph) {
        self.degrees.reset_samples();
        for v in graph.vertices() {
            self.degrees
                .record_degree_sample(v.vtype, v.degree() as u64);
        }
    }

    // ------------------------------------------------------------------
    // Accessors used by the planner
    // ------------------------------------------------------------------

    /// Degree statistics.
    pub fn degrees(&self) -> &DegreeDistribution {
        &self.degrees
    }

    /// Type statistics.
    pub fn types(&self) -> &TypeDistribution {
        &self.types
    }

    /// Triad statistics.
    pub fn triads(&self) -> &TriadDistribution {
        &self.triads
    }

    /// Edges observed over the summary's lifetime: fed through
    /// `observe_insertion`, or retained on arrival by the graph it was built
    /// from.
    pub fn edges_observed(&self) -> u64 {
        self.edges_observed
    }

    /// Estimated number of data edges matching a typed query edge
    /// `(src_vtype)-[etype]->(dst_vtype)`.
    ///
    /// Falls back to the plain edge-type count when the triple has never been
    /// seen (e.g. before any data arrives), and to 1.0 when nothing at all is
    /// known, so the planner always has a usable, non-zero estimate.
    pub fn estimated_edge_matches(
        &self,
        src_vtype: Option<TypeId>,
        etype: TypeId,
        dst_vtype: Option<TypeId>,
    ) -> f64 {
        match (src_vtype, dst_vtype) {
            (Some(s), Some(d)) => {
                let c = self.types.triple_count(s, etype, d);
                if c > 0 {
                    c as f64
                } else if self.types.edge_count(etype) > 0 {
                    // Unseen triple of a seen edge type: rare but possible.
                    0.5
                } else {
                    1.0
                }
            }
            _ => {
                let c = self.types.edge_count(etype);
                if c > 0 {
                    c as f64
                } else {
                    1.0
                }
            }
        }
    }

    /// Estimated average fan-out of expanding from a vertex of type `vtype`
    /// along `etype` in direction `dir`: the live typed endpoint count over
    /// the live vertices of `vtype`, so the estimate does not sink as the
    /// vertices ever created outgrow the live ones.
    pub fn estimated_fanout(&self, vtype: TypeId, dir: Direction, etype: TypeId) -> f64 {
        let population = self.types.live_vertex_count(vtype);
        self.degrees
            .avg_typed_degree(vtype, dir, etype, population)
            .max(0.01)
    }

    /// Estimated number of wedges (two-edge paths) matching a signature.
    pub fn estimated_wedges(&self, key: &WedgeKey) -> f64 {
        if self.triads.total_wedges() > 0.0 {
            self.triads.wedge_count(key).max(0.1)
        } else {
            // Without triad statistics fall back to an independence assumption:
            // the caller combines edge estimates instead.
            -1.0
        }
    }
}

/// The types of an edge's two endpoints, read while the edge is live.
fn endpoint_types(graph: &DynamicGraph, edge: &Edge) -> (TypeId, TypeId) {
    let vtype = |v| graph.vertex(v).map(|v| v.vtype).unwrap_or(TypeId(0));
    (vtype(edge.src), vtype(edge.dst))
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamworks_graph::{EdgeEvent, Timestamp};

    /// Feeds events into both the graph and the summary the way the engine does.
    fn build(events: &[(&str, &str, &str, &str, &str, i64)]) -> (DynamicGraph, GraphSummary) {
        let mut g = DynamicGraph::unbounded();
        let mut s = GraphSummary::new();
        for (src, st, dst, dt, et, t) in events {
            let ev = EdgeEvent::new(*src, *st, *dst, *dt, *et, Timestamp::from_secs(*t));
            let r = g.ingest(&ev);
            if r.src_created {
                s.observe_vertex(g.vertex(r.src).unwrap().vtype);
            }
            if r.dst_created {
                s.observe_vertex(g.vertex(r.dst).unwrap().vtype);
            }
            let e = g.edge(r.edge).unwrap().clone();
            s.observe_insertion(&g, &e);
        }
        (g, s)
    }

    #[test]
    fn streaming_summary_matches_rebuild() {
        let (g, s) = build(&[
            ("a1", "Article", "k1", "Keyword", "mentions", 1),
            ("a2", "Article", "k1", "Keyword", "mentions", 2),
            ("a1", "Article", "l1", "Location", "located", 3),
        ]);
        let rebuilt = GraphSummary::of(&g);
        let article = g.vertex_type_id("Article").unwrap();
        let keyword = g.vertex_type_id("Keyword").unwrap();
        let mentions = g.edge_type_id("mentions").unwrap();
        assert_eq!(
            s.types().vertex_count(article),
            rebuilt.types().vertex_count(article)
        );
        assert_eq!(
            s.types().triple_count(article, mentions, keyword),
            rebuilt.types().triple_count(article, mentions, keyword)
        );
        assert_eq!((s.edges_observed(), rebuilt.edges_observed()), (3, 3));
        assert_eq!(s.triads().total_wedges(), rebuilt.triads().total_wedges());
    }

    #[test]
    fn estimated_edge_matches_uses_triples() {
        let (g, s) = build(&[
            ("a1", "Article", "k1", "Keyword", "mentions", 1),
            ("a2", "Article", "k1", "Keyword", "mentions", 2),
            ("a1", "Article", "l1", "Location", "located", 3),
        ]);
        let article = g.vertex_type_id("Article").unwrap();
        let keyword = g.vertex_type_id("Keyword").unwrap();
        let location = g.vertex_type_id("Location").unwrap();
        let mentions = g.edge_type_id("mentions").unwrap();
        let located = g.edge_type_id("located").unwrap();
        assert_eq!(
            s.estimated_edge_matches(Some(article), mentions, Some(keyword)),
            2.0
        );
        assert_eq!(
            s.estimated_edge_matches(Some(article), located, Some(location)),
            1.0
        );
        // Unseen triple of a seen type gets a small non-zero estimate.
        assert_eq!(
            s.estimated_edge_matches(Some(keyword), mentions, Some(article)),
            0.5
        );
        // Untyped endpoints fall back to the edge-type count.
        assert_eq!(s.estimated_edge_matches(None, mentions, None), 2.0);
    }

    #[test]
    fn estimated_fanout_reflects_average_degree() {
        let (g, s) = build(&[
            ("a1", "Article", "k1", "Keyword", "mentions", 1),
            ("a1", "Article", "k2", "Keyword", "mentions", 2),
            ("a2", "Article", "k1", "Keyword", "mentions", 3),
        ]);
        let article = g.vertex_type_id("Article").unwrap();
        let mentions = g.edge_type_id("mentions").unwrap();
        // 3 mention-edges leaving 2 articles -> 1.5 average out fan-out.
        let f = s.estimated_fanout(article, Direction::Out, mentions);
        assert!((f - 1.5).abs() < 1e-9);
    }

    #[test]
    fn expiry_observation_decrements_type_counts() {
        let (g, mut s) = build(&[
            ("a1", "Article", "k1", "Keyword", "mentions", 1),
            ("a2", "Article", "k1", "Keyword", "mentions", 2),
        ]);
        let article = g.vertex_type_id("Article").unwrap();
        let keyword = g.vertex_type_id("Keyword").unwrap();
        let mentions = g.edge_type_id("mentions").unwrap();
        s.observe_expiry(article, mentions, keyword);
        assert_eq!(s.types().edge_count(mentions), 1);
        assert_eq!(s.types().triple_count(article, mentions, keyword), 1);
    }

    #[test]
    fn a_graph_without_wedges_gives_no_wedge_estimate() {
        let (_, s) = build(&[("a", "A", "b", "B", "t", 1)]);
        assert_eq!(s.triads().total_wedges(), 0.0);
        let key = WedgeKey::new(
            TypeId(0),
            (TypeId(0), crate::triads::Orientation::Outgoing),
            (TypeId(0), crate::triads::Orientation::Outgoing),
        );
        assert_eq!(s.estimated_wedges(&key), -1.0);
    }

    #[test]
    fn resample_degrees_reflects_current_graph() {
        let (g, mut s) = build(&[
            ("a1", "Article", "k1", "Keyword", "mentions", 1),
            ("a2", "Article", "k1", "Keyword", "mentions", 2),
        ]);
        s.resample_degrees(&g);
        // k1 has degree 2, articles degree 1 each -> histogram has 3 samples.
        assert_eq!(s.degrees().histogram().count(), 3);
        assert_eq!(s.degrees().histogram().max(), Some(2));
    }
}
