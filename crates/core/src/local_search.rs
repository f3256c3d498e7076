//! Local search: matching SJ-Tree leaf primitives around a newly arrived edge.
//!
//! Paper §4.1–4.2: "for every incoming edge we perform a local search to
//! detect a match with the smallest subgraphs associated with the leaves of
//! the SJ-Tree", where a local search is "a subgraph search performed in the
//! neighborhood of an edge in the data graph for a small query subgraph".
//!
//! The search anchors the new data edge on each query edge of the primitive it
//! could realise, then extends the remaining primitive edges by backtracking
//! over the (type-filtered) neighbourhood of already-bound vertices. Every
//! produced [`PartialMatch`] contains the new edge, so each embedding is
//! discovered exactly once — at the arrival of its last edge.

use crate::binding::PartialMatch;
use crate::constraints::CompiledConstraints;
use smallvec::SmallVec;
use streamworks_graph::{Direction, Duration, DynamicGraph, Edge};
use streamworks_query::{QueryEdgeId, QueryGraph};

/// Inline capacity of the remaining-edge worklists: primitives are small
/// (1–3 edges typically), so the backtracking search allocates nothing.
type EdgeList = SmallVec<QueryEdgeId, 8>;

/// Statistics from one local-search invocation (fed into the per-query metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LocalSearchStats {
    /// Candidate data edges examined while extending partial embeddings.
    pub candidates_examined: u64,
}

/// Finds the embeddings of `primitive_edges` in which `new_edge` realises the
/// specific query edge `anchor`. Used by the matcher's per-type anchor index,
/// which has already narrowed the anchors compatible with `new_edge`'s type.
#[allow(clippy::too_many_arguments)]
pub fn find_primitive_matches_anchored(
    graph: &DynamicGraph,
    query: &QueryGraph,
    constraints: &CompiledConstraints,
    primitive_edges: &[QueryEdgeId],
    anchor: QueryEdgeId,
    new_edge: &Edge,
    window: Duration,
    out: &mut Vec<PartialMatch>,
    stats: &mut LocalSearchStats,
) {
    if !constraints.edge_matches(graph, query, anchor, new_edge) {
        return;
    }
    let q = query.edge(anchor);
    let mut seed = PartialMatch::seed(
        query.vertex_count(),
        anchor,
        new_edge.id,
        new_edge.timestamp,
    );
    if !seed.binding.bind(q.src, new_edge.src) {
        return;
    }
    if !seed.binding.bind(q.dst, new_edge.dst) {
        return;
    }
    let remaining: EdgeList = primitive_edges
        .iter()
        .copied()
        .filter(|&e| e != anchor)
        .collect();
    extend(
        graph,
        query,
        constraints,
        &remaining,
        seed,
        window,
        out,
        stats,
    );
}

/// Recursive extension over the remaining query edges of the primitive.
#[allow(clippy::too_many_arguments)]
fn extend(
    graph: &DynamicGraph,
    query: &QueryGraph,
    constraints: &CompiledConstraints,
    remaining: &[QueryEdgeId],
    current: PartialMatch,
    window: Duration,
    out: &mut Vec<PartialMatch>,
    stats: &mut LocalSearchStats,
) {
    if remaining.is_empty() {
        out.push(current);
        return;
    }
    // Pick a remaining query edge with at least one bound endpoint (one exists
    // whenever the primitive is connected). Prefer edges with both endpoints
    // bound: they are pure existence checks and prune earliest.
    let pick = remaining
        .iter()
        .enumerate()
        .max_by_key(|(_, &qe)| {
            let e = query.edge(qe);
            let src_bound = current.binding.get(e.src).is_some() as u8;
            let dst_bound = current.binding.get(e.dst).is_some() as u8;
            src_bound + dst_bound
        })
        .map(|(i, _)| i)
        .unwrap_or(0);
    let qe = remaining[pick];
    let mut rest: EdgeList = SmallVec::new();
    for (i, &e) in remaining.iter().enumerate() {
        if i != pick {
            rest.push(e);
        }
    }

    let q = query.edge(qe);
    let src_bound = current.binding.get(q.src);
    let dst_bound = current.binding.get(q.dst);

    // Choose the anchor endpoint to expand from.
    let (anchor_qv, anchor_dv) = match (src_bound, dst_bound) {
        (Some(dv), _) => (q.src, dv),
        (None, Some(dv)) => (q.dst, dv),
        (None, None) => {
            // Disconnected primitive (should not happen for validated plans):
            // fall back to scanning all live edges with the full checks.
            for edge in graph.edges() {
                stats.candidates_examined += 1;
                if !constraints.edge_matches(graph, query, qe, edge) {
                    continue;
                }
                if current.uses_data_edge(edge.id) {
                    continue;
                }
                let q = query.edge(qe);
                let mut next = current.clone();
                if !next.binding.bind(q.src, edge.src) || !next.binding.bind(q.dst, edge.dst) {
                    continue;
                }
                if !next.add_edge(qe, edge.id, edge.timestamp) {
                    continue;
                }
                if !next.within_window(window) {
                    continue;
                }
                extend(graph, query, constraints, &rest, next, window, out, stats);
            }
            return;
        }
    };

    // Walk the type-filtered neighbourhood of the anchor directly (no boxed
    // iterator, no collected scratch vector). The typed iterator already
    // guarantees the edge type, and the anchor endpoint was validated when it
    // was bound, so each candidate only needs its *far* endpoint checked.
    let anchor_is_src = q.src == anchor_qv;
    let dir = if anchor_is_src {
        Direction::Out
    } else {
        Direction::In
    };
    match constraints.edge_type_filter(qe) {
        Err(()) => {} // query edge type unknown to the graph: no candidates
        Ok(Some(t)) => {
            for edge in graph.incident_edges(anchor_dv, dir, t) {
                stats.candidates_examined += 1;
                try_extension(
                    graph,
                    query,
                    constraints,
                    qe,
                    anchor_is_src,
                    edge,
                    &current,
                    &rest,
                    window,
                    out,
                    stats,
                );
            }
        }
        Ok(None) => {
            for edge in graph.incident_edges_any_type(anchor_dv, dir) {
                stats.candidates_examined += 1;
                try_extension(
                    graph,
                    query,
                    constraints,
                    qe,
                    anchor_is_src,
                    edge,
                    &current,
                    &rest,
                    window,
                    out,
                    stats,
                );
            }
        }
    }
}

/// Attempts to extend `current` with a neighbourhood candidate for `qe`.
///
/// Precondition (guaranteed by `extend`): the candidate's edge type satisfies
/// `qe`'s type constraint and its anchor-side endpoint is already bound and
/// validated, so only edge predicates and the far endpoint are (re)checked —
/// and the far endpoint only when it is newly bound (an already-bound far
/// vertex was validated when it was first bound, and `bind` rejects
/// mismatches).
#[allow(clippy::too_many_arguments)]
fn try_extension(
    graph: &DynamicGraph,
    query: &QueryGraph,
    constraints: &CompiledConstraints,
    qe: QueryEdgeId,
    anchor_is_src: bool,
    edge: &Edge,
    current: &PartialMatch,
    rest: &[QueryEdgeId],
    window: Duration,
    out: &mut Vec<PartialMatch>,
    stats: &mut LocalSearchStats,
) {
    if current.uses_data_edge(edge.id) {
        return;
    }
    let q = query.edge(qe);
    if !q.predicates.iter().all(|p| p.matches(&edge.attrs)) {
        return;
    }
    let (far_qv, far_dv) = if anchor_is_src {
        (q.dst, edge.dst)
    } else {
        (q.src, edge.src)
    };
    if current.binding.get(far_qv).is_none()
        && !constraints.vertex_matches(graph, query, far_qv, far_dv)
    {
        return;
    }
    let mut next = current.clone();
    if !next.binding.bind(q.src, edge.src) || !next.binding.bind(q.dst, edge.dst) {
        return;
    }
    if !next.add_edge(qe, edge.id, edge.timestamp) {
        return;
    }
    if !next.within_window(window) {
        return;
    }
    extend(graph, query, constraints, rest, next, window, out, stats);
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamworks_graph::{EdgeEvent, Timestamp};
    use streamworks_query::QueryGraphBuilder;

    /// Every embedding of `primitive_edges` that uses `new_edge`, the edge
    /// anchored on each query edge of the primitive in turn.
    fn find_primitive_matches(
        graph: &DynamicGraph,
        query: &QueryGraph,
        constraints: &CompiledConstraints,
        primitive_edges: &[QueryEdgeId],
        new_edge: &Edge,
        window: Duration,
        out: &mut Vec<PartialMatch>,
    ) {
        let mut stats = LocalSearchStats::default();
        for &anchor in primitive_edges {
            find_primitive_matches_anchored(
                graph,
                query,
                constraints,
                primitive_edges,
                anchor,
                new_edge,
                window,
                out,
                &mut stats,
            );
        }
    }

    fn news_query() -> QueryGraph {
        // (a:Article)-[:mentions]->(k:Keyword), (a)-[:located]->(l:Location)
        QueryGraphBuilder::new("wedge")
            .window(Duration::from_hours(1))
            .vertex("a", "Article")
            .vertex("k", "Keyword")
            .vertex("l", "Location")
            .edge("a", "mentions", "k")
            .edge("a", "located", "l")
            .build()
            .unwrap()
    }

    fn ingest(
        g: &mut DynamicGraph,
        src: &str,
        st: &str,
        dst: &str,
        dt: &str,
        et: &str,
        t: i64,
    ) -> Edge {
        let r = g.ingest(&EdgeEvent::new(
            src,
            st,
            dst,
            dt,
            et,
            Timestamp::from_secs(t),
        ));
        g.edge(r.edge).unwrap().clone()
    }

    #[test]
    fn two_edge_primitive_matches_when_second_edge_arrives() {
        let mut g = DynamicGraph::unbounded();
        let q = news_query();
        ingest(&mut g, "a1", "Article", "k1", "Keyword", "mentions", 10);
        let located = ingest(&mut g, "a1", "Article", "l1", "Location", "located", 20);
        let c = CompiledConstraints::compile(&q, &g);
        let mut out = Vec::new();
        let prim = [QueryEdgeId(0), QueryEdgeId(1)];
        find_primitive_matches(&g, &q, &c, &prim, &located, q.window(), &mut out);
        assert_eq!(out.len(), 1);
        let m = &out[0];
        assert_eq!(m.edge_count(), 2);
        assert_eq!(
            m.binding.get(q.vertex_by_name("a").unwrap().id),
            g.vertex_by_key("a1")
        );
    }

    #[test]
    fn no_match_when_first_edge_missing() {
        let mut g = DynamicGraph::unbounded();
        let q = news_query();
        let located = ingest(&mut g, "a1", "Article", "l1", "Location", "located", 20);
        let c = CompiledConstraints::compile(&q, &g);
        let mut out = Vec::new();
        find_primitive_matches(
            &g,
            &q,
            &c,
            &[QueryEdgeId(0), QueryEdgeId(1)],
            &located,
            q.window(),
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn window_excludes_stale_combinations() {
        let mut g = DynamicGraph::unbounded();
        let mut q = news_query();
        q.set_window(Duration::from_secs(5));
        ingest(&mut g, "a1", "Article", "k1", "Keyword", "mentions", 10);
        let located = ingest(&mut g, "a1", "Article", "l1", "Location", "located", 100);
        let c = CompiledConstraints::compile(&q, &g);
        let mut out = Vec::new();
        find_primitive_matches(
            &g,
            &q,
            &c,
            &[QueryEdgeId(0), QueryEdgeId(1)],
            &located,
            q.window(),
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn multiple_embeddings_from_one_edge() {
        let mut g = DynamicGraph::unbounded();
        let q = news_query();
        // a1 mentions two keywords; the located edge completes a wedge with each.
        ingest(&mut g, "a1", "Article", "k1", "Keyword", "mentions", 1);
        ingest(&mut g, "a1", "Article", "k2", "Keyword", "mentions", 2);
        let located = ingest(&mut g, "a1", "Article", "l1", "Location", "located", 3);
        let c = CompiledConstraints::compile(&q, &g);
        let mut out = Vec::new();
        find_primitive_matches(
            &g,
            &q,
            &c,
            &[QueryEdgeId(0), QueryEdgeId(1)],
            &located,
            q.window(),
            &mut out,
        );
        assert_eq!(out.len(), 2);
        // The two embeddings bind k differently.
        let k = q.vertex_by_name("k").unwrap().id;
        let mut keywords: Vec<_> = out.iter().map(|m| m.binding.get(k).unwrap()).collect();
        keywords.sort();
        keywords.dedup();
        assert_eq!(keywords.len(), 2);
    }

    #[test]
    fn single_edge_primitive_is_a_type_check() {
        let mut g = DynamicGraph::unbounded();
        let q = news_query();
        let mention = ingest(&mut g, "a1", "Article", "k1", "Keyword", "mentions", 1);
        let c = CompiledConstraints::compile(&q, &g);
        let mut out = Vec::new();
        find_primitive_matches(
            &g,
            &q,
            &c,
            &[QueryEdgeId(0)],
            &mention,
            q.window(),
            &mut out,
        );
        assert_eq!(out.len(), 1);
        // The located edge does not match the mentions primitive.
        let located = ingest(&mut g, "a1", "Article", "l1", "Location", "located", 2);
        out.clear();
        find_primitive_matches(
            &g,
            &q,
            &c,
            &[QueryEdgeId(0)],
            &located,
            q.window(),
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn injectivity_prevents_vertex_reuse() {
        // Query: two distinct IPs both flowing into a third.
        let q = QueryGraphBuilder::new("fanin")
            .window(Duration::from_hours(1))
            .vertex("x", "IP")
            .vertex("y", "IP")
            .vertex("t", "IP")
            .edge("x", "flow", "t")
            .edge("y", "flow", "t")
            .build()
            .unwrap();
        let mut g = DynamicGraph::unbounded();
        // Only one source flows twice into the target: x and y would have to be
        // the same data vertex, which injectivity forbids.
        ingest(&mut g, "s", "IP", "t", "IP", "flow", 1);
        let second = ingest(&mut g, "s", "IP", "t", "IP", "flow", 2);
        let c = CompiledConstraints::compile(&q, &g);
        let mut out = Vec::new();
        find_primitive_matches(
            &g,
            &q,
            &c,
            &[QueryEdgeId(0), QueryEdgeId(1)],
            &second,
            q.window(),
            &mut out,
        );
        assert!(out.is_empty());
        // A genuinely different source produces a match.
        let third = ingest(&mut g, "s2", "IP", "t", "IP", "flow", 3);
        out.clear();
        find_primitive_matches(
            &g,
            &q,
            &c,
            &[QueryEdgeId(0), QueryEdgeId(1)],
            &third,
            q.window(),
            &mut out,
        );
        // 4 embeddings: the query is symmetric in (x, y), and s has two parallel
        // flow edges into t, so s2 can play x or y combined with either s edge.
        assert_eq!(out.len(), 4);
    }
}
