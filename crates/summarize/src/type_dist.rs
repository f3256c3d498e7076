//! Vertex-, edge- and typed-edge-triple frequency distributions.
//!
//! This is the second of the three summary kinds listed in paper §4.3
//! ("distribution of vertex and edge types"). On top of plain per-type counts
//! we track *typed edge triples* `(source vertex type, edge type, destination
//! vertex type)`, which is exactly the statistic the query planner needs to
//! estimate how many data edges can match a given query edge.

use serde::{Deserialize, Serialize};
use streamworks_graph::hash::FxHashMap;
use streamworks_graph::TypeId;

/// A `(src vertex type, edge type, dst vertex type)` signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EdgeTripleKey {
    /// Type of the source vertex.
    pub src_vtype: TypeId,
    /// Type of the edge.
    pub etype: TypeId,
    /// Type of the destination vertex.
    pub dst_vtype: TypeId,
}

/// Frequency distribution of vertex types, edge types and typed edge triples.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TypeDistribution {
    vertex_counts: Vec<u64>,
    live_vertex_counts: Vec<u64>,
    edge_counts: Vec<u64>,
    triple_counts: FxHashMap<EdgeTripleKey, u64>,
    total_vertices: u64,
    total_edges: u64,
}

impl TypeDistribution {
    /// Creates an empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    fn bump(counts: &mut Vec<u64>, idx: usize, delta: i64) {
        if idx >= counts.len() {
            counts.resize(idx + 1, 0);
        }
        if delta >= 0 {
            counts[idx] += delta as u64;
        } else {
            counts[idx] = counts[idx].saturating_sub((-delta) as u64);
        }
    }

    /// Records a newly observed vertex of type `vtype`. Fed this way a
    /// distribution sees no vertex leave, so the vertex counts as live too.
    pub fn observe_vertex(&mut self, vtype: TypeId) {
        self.observe_vertices(vtype, 1, 1);
    }

    /// Records `created` newly observed vertices of type `vtype`, `live` of
    /// which are still in the graph.
    pub(crate) fn observe_vertices(&mut self, vtype: TypeId, created: u64, live: u64) {
        Self::bump(&mut self.vertex_counts, vtype.index(), created as i64);
        Self::bump(&mut self.live_vertex_counts, vtype.index(), live as i64);
        self.total_vertices += created;
    }

    /// Records a newly inserted edge.
    pub fn observe_edge(&mut self, src_vtype: TypeId, etype: TypeId, dst_vtype: TypeId) {
        Self::bump(&mut self.edge_counts, etype.index(), 1);
        self.total_edges += 1;
        *self
            .triple_counts
            .entry(EdgeTripleKey {
                src_vtype,
                etype,
                dst_vtype,
            })
            .or_insert(0) += 1;
    }

    /// Records the expiry of an edge (reverses [`Self::observe_edge`]).
    pub fn retract_edge(&mut self, src_vtype: TypeId, etype: TypeId, dst_vtype: TypeId) {
        Self::bump(&mut self.edge_counts, etype.index(), -1);
        self.total_edges = self.total_edges.saturating_sub(1);
        if let Some(c) = self.triple_counts.get_mut(&EdgeTripleKey {
            src_vtype,
            etype,
            dst_vtype,
        }) {
            *c = c.saturating_sub(1);
        }
    }

    /// Count of vertices with the given type observed so far (created, not
    /// necessarily live).
    pub fn vertex_count(&self, vtype: TypeId) -> u64 {
        self.vertex_counts.get(vtype.index()).copied().unwrap_or(0)
    }

    /// Count of live vertices with the given type: those still in the graph
    /// a summary was built from, every observed one for a hand-fed summary.
    pub fn live_vertex_count(&self, vtype: TypeId) -> u64 {
        self.live_vertex_counts
            .get(vtype.index())
            .copied()
            .unwrap_or(0)
    }

    /// Count of live edges with the given type.
    pub fn edge_count(&self, etype: TypeId) -> u64 {
        self.edge_counts.get(etype.index()).copied().unwrap_or(0)
    }

    /// Count of live edges matching a typed triple.
    pub fn triple_count(&self, src_vtype: TypeId, etype: TypeId, dst_vtype: TypeId) -> u64 {
        self.triple_counts
            .get(&EdgeTripleKey {
                src_vtype,
                etype,
                dst_vtype,
            })
            .copied()
            .unwrap_or(0)
    }

    /// Total vertices observed.
    pub fn total_vertices(&self) -> u64 {
        self.total_vertices
    }

    /// Total live vertices, over every type.
    pub fn total_live_vertices(&self) -> u64 {
        self.live_vertex_counts.iter().sum()
    }

    /// Total live edges.
    pub fn total_edges(&self) -> u64 {
        self.total_edges
    }

    /// Relative frequency of an edge type among all live edges (1.0 when the
    /// distribution is empty, i.e. "no information").
    pub fn edge_type_frequency(&self, etype: TypeId) -> f64 {
        if self.total_edges == 0 {
            1.0
        } else {
            self.edge_count(etype) as f64 / self.total_edges as f64
        }
    }

    /// Iterates non-zero typed triples.
    pub fn triples(&self) -> impl Iterator<Item = (EdgeTripleKey, u64)> + '_ {
        self.triple_counts
            .iter()
            .filter(|(_, &c)| c > 0)
            .map(|(k, &c)| (*k, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: TypeId = TypeId(0);
    const K: TypeId = TypeId(1);
    const MENTIONS: TypeId = TypeId(0);
    const LOCATED: TypeId = TypeId(1);

    #[test]
    fn observe_and_query_counts() {
        let mut d = TypeDistribution::new();
        d.observe_vertex(A);
        d.observe_vertex(A);
        d.observe_vertex(K);
        d.observe_edge(A, MENTIONS, K);
        d.observe_edge(A, MENTIONS, K);
        d.observe_edge(A, LOCATED, K);

        assert_eq!(d.vertex_count(A), 2);
        assert_eq!(d.vertex_count(K), 1);
        assert_eq!(d.edge_count(MENTIONS), 2);
        assert_eq!(d.triple_count(A, MENTIONS, K), 2);
        assert_eq!(d.triple_count(K, MENTIONS, A), 0);
        assert_eq!(d.total_edges(), 3);
        assert_eq!(d.total_vertices(), 3);
        assert_eq!(d.total_live_vertices(), 3);
    }

    #[test]
    fn retraction_reverses_observation() {
        let mut d = TypeDistribution::new();
        d.observe_edge(A, MENTIONS, K);
        d.observe_edge(A, MENTIONS, K);
        d.retract_edge(A, MENTIONS, K);
        assert_eq!(d.edge_count(MENTIONS), 1);
        assert_eq!(d.triple_count(A, MENTIONS, K), 1);
        assert_eq!(d.total_edges(), 1);
        // Retracting below zero saturates.
        d.retract_edge(A, MENTIONS, K);
        d.retract_edge(A, MENTIONS, K);
        assert_eq!(d.edge_count(MENTIONS), 0);
        assert_eq!(d.total_edges(), 0);
    }

    #[test]
    fn frequency_defaults_to_one_when_empty() {
        let d = TypeDistribution::new();
        assert_eq!(d.edge_type_frequency(MENTIONS), 1.0);
        let mut d = d;
        d.observe_edge(A, MENTIONS, K);
        d.observe_edge(A, LOCATED, K);
        assert!((d.edge_type_frequency(MENTIONS) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn triples_iterator_skips_zeroed_entries() {
        let mut d = TypeDistribution::new();
        d.observe_edge(A, MENTIONS, K);
        d.retract_edge(A, MENTIONS, K);
        d.observe_edge(A, LOCATED, K);
        let triples: Vec<_> = d.triples().collect();
        assert_eq!(triples.len(), 1);
        assert_eq!(triples[0].0.etype, LOCATED);
    }

    #[test]
    fn unknown_types_count_zero() {
        let d = TypeDistribution::new();
        assert_eq!(d.vertex_count(TypeId(9)), 0);
        assert_eq!(d.edge_count(TypeId(9)), 0);
    }
}
