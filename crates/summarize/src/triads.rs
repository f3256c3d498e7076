//! Multi-relational triad (two-edge path) distribution.
//!
//! The third summary of paper §4.3 is "the frequency distribution of
//! multi-relational triad structures". We count *typed wedges*: ordered pairs
//! of edges sharing a centre vertex, keyed by the centre's vertex type, the
//! two edge types and their orientations relative to the centre. A two-edge
//! query primitive (the most common SJ-Tree leaf) corresponds to exactly one
//! wedge signature, so this distribution directly estimates leaf selectivity.
//!
//! The wedge signature of a neighbour depends only on its *type group*, never
//! on the neighbour's identity, so both ways of counting read the graph's
//! per-`(direction, type)` live-edge counters instead of scanning
//! neighbourhoods:
//!
//! * [`TriadDistribution::of`] counts the **live** wedges of a graph: per
//!   live vertex, the products of its incident type groups —
//!   O(live vertices × groups²), independent of degree.
//! * [`TriadDistribution::observe_edge`] counts **cumulatively**: each
//!   inserted edge adds the wedges it closes at its two endpoints, O(#types)
//!   per edge, and nothing is taken away when an edge expires. The two agree
//!   on a graph from which nothing has expired.

use serde::{Deserialize, Serialize};
use streamworks_graph::hash::FxHashMap;
use streamworks_graph::{Direction, DynamicGraph, Edge, TypeId};

/// Orientation of an edge relative to the wedge's centre vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Orientation {
    /// Edge points away from the centre (centre is the source).
    Outgoing,
    /// Edge points into the centre (centre is the destination).
    Incoming,
}

/// A typed wedge signature: centre vertex type plus the two incident edge
/// legs, stored in canonical (sorted) order so that the signature does not
/// depend on arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WedgeKey {
    /// Vertex type of the centre.
    pub center_vtype: TypeId,
    /// First leg (canonically the smaller of the two).
    pub leg_a: (TypeId, Orientation),
    /// Second leg.
    pub leg_b: (TypeId, Orientation),
}

impl WedgeKey {
    /// Builds a canonical wedge key from two legs in either order.
    pub fn new(
        center_vtype: TypeId,
        leg1: (TypeId, Orientation),
        leg2: (TypeId, Orientation),
    ) -> Self {
        let (leg_a, leg_b) = if leg1 <= leg2 {
            (leg1, leg2)
        } else {
            (leg2, leg1)
        };
        WedgeKey {
            center_vtype,
            leg_a,
            leg_b,
        }
    }
}

/// Distribution of typed wedges.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TriadDistribution {
    counts: FxHashMap<WedgeKey, f64>,
    total: f64,
    updates: u64,
}

impl TriadDistribution {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// The live wedges of `graph`: every pair of distinct live edges that
    /// share an endpoint, counted at that endpoint (see module docs).
    pub fn of(graph: &DynamicGraph) -> Self {
        let mut dist = TriadDistribution::new();
        let mut groups: Vec<((TypeId, Orientation), f64)> = Vec::new();
        for v in graph.vertices() {
            groups.clear();
            for (dir, orientation) in [
                (Direction::Out, Orientation::Outgoing),
                (Direction::In, Orientation::Incoming),
            ] {
                let counts = graph.live_type_counts(v.id, dir);
                groups.extend(counts.map(|(etype, n)| ((etype, orientation), n as f64)));
            }
            // Pairs inside one group, then with each later group.
            for (i, &(leg, n)) in groups.iter().enumerate() {
                dist.add(WedgeKey::new(v.vtype, leg, leg), n * (n - 1.0) / 2.0);
                for &(other, m) in &groups[i + 1..] {
                    dist.add(WedgeKey::new(v.vtype, leg, other), n * m);
                }
            }
        }
        // A self-loop is one leg out of its vertex and one leg into it: the
        // products above paired the edge with itself.
        for e in graph.edges().filter(|e| e.src == e.dst) {
            if let Some(v) = graph.vertex(e.src) {
                let (out, inc) = (
                    (e.etype, Orientation::Outgoing),
                    (e.etype, Orientation::Incoming),
                );
                dist.add(WedgeKey::new(v.vtype, out, inc), -1.0);
            }
        }
        dist.counts.retain(|_, count| *count > 0.0);
        dist
    }

    fn add(&mut self, key: WedgeKey, count: f64) {
        if count != 0.0 {
            *self.counts.entry(key).or_insert(0.0) += count;
            self.total += count;
        }
    }

    /// Observes a newly inserted edge: every wedge the new edge forms with an
    /// existing incident edge at either endpoint is counted.
    ///
    /// Must be called *after* the edge has been inserted into `graph`.
    pub fn observe_edge(&mut self, graph: &DynamicGraph, edge: &Edge) {
        self.updates += 1;
        // Wedges centred at the source: new edge is Outgoing there.
        self.count_wedges_at(graph, edge, edge.src, Orientation::Outgoing);
        // Wedges centred at the destination: new edge is Incoming there.
        self.count_wedges_at(graph, edge, edge.dst, Orientation::Incoming);
    }

    fn count_wedges_at(
        &mut self,
        graph: &DynamicGraph,
        new_edge: &Edge,
        center: streamworks_graph::VertexId,
        new_orientation: Orientation,
    ) {
        let Some(center_v) = graph.vertex(center) else {
            return;
        };
        let center_vtype = center_v.vtype;
        let new_leg = (new_edge.etype, new_orientation);
        // One update per distinct (type, orientation) group of live incident
        // edges — the wedge key never depends on the specific neighbour.
        for (dir, orientation) in [
            (Direction::Out, Orientation::Outgoing),
            (Direction::In, Orientation::Incoming),
        ] {
            for (etype, count) in graph.live_type_counts(center, dir) {
                let mut count = count;
                // The just-inserted edge sits in its own group at this centre;
                // it does not form a wedge with itself.
                if etype == new_edge.etype
                    && ((orientation == Orientation::Outgoing && center == new_edge.src)
                        || (orientation == Orientation::Incoming && center == new_edge.dst))
                {
                    count -= 1;
                }
                if count == 0 {
                    continue;
                }
                let key = WedgeKey::new(center_vtype, new_leg, (etype, orientation));
                self.add(key, count as f64);
            }
        }
    }

    /// Count of wedges matching a signature.
    pub fn wedge_count(&self, key: &WedgeKey) -> f64 {
        self.counts.get(key).copied().unwrap_or(0.0)
    }

    /// Total number of wedges.
    pub fn total_wedges(&self) -> f64 {
        self.total
    }

    /// Relative frequency of a wedge signature (1.0 when no wedges observed,
    /// i.e. "no information").
    pub fn wedge_frequency(&self, key: &WedgeKey) -> f64 {
        if self.total <= 0.0 {
            1.0
        } else {
            self.wedge_count(key) / self.total
        }
    }

    /// Number of edges fed through [`Self::observe_edge`].
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Iterates non-zero wedge signatures with their counts.
    pub fn wedges(&self) -> impl Iterator<Item = (&WedgeKey, f64)> {
        self.counts.iter().map(|(k, &v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamworks_graph::{EdgeEvent, Timestamp};

    fn ingest(g: &mut DynamicGraph, src: &str, st: &str, dst: &str, dt: &str, et: &str, t: i64) {
        g.ingest(&EdgeEvent::new(
            src,
            st,
            dst,
            dt,
            et,
            Timestamp::from_secs(t),
        ));
    }

    #[test]
    fn wedge_key_is_canonical() {
        let a = WedgeKey::new(
            TypeId(0),
            (TypeId(1), Orientation::Outgoing),
            (TypeId(2), Orientation::Incoming),
        );
        let b = WedgeKey::new(
            TypeId(0),
            (TypeId(2), Orientation::Incoming),
            (TypeId(1), Orientation::Outgoing),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn streaming_counts_match_exact_on_small_graph() {
        let mut g = DynamicGraph::unbounded();
        let mut dist = TriadDistribution::new();
        let events = [
            ("a1", "Article", "k1", "Keyword", "mentions", 1),
            ("a2", "Article", "k1", "Keyword", "mentions", 2),
            ("a1", "Article", "l1", "Location", "located", 3),
            ("a2", "Article", "l1", "Location", "located", 4),
        ];
        for (s, st, d, dt, et, t) in events {
            let ev = EdgeEvent::new(s, st, d, dt, et, Timestamp::from_secs(t));
            let r = g.ingest(&ev);
            let edge = g.edge(r.edge).unwrap().clone();
            dist.observe_edge(&g, &edge);
        }
        let exact = TriadDistribution::of(&g);
        assert_eq!(dist.total_wedges(), exact.total_wedges());
        for (key, count) in exact.wedges() {
            assert!(
                (dist.wedge_count(key) - count).abs() < 1e-9,
                "mismatch for {key:?}"
            );
        }
    }

    #[test]
    fn exact_rebuild_counts_wedges() {
        let mut g = DynamicGraph::unbounded();
        // Star: k1 is mentioned by 3 articles -> C(3,2) = 3 wedges at k1.
        ingest(&mut g, "a1", "Article", "k1", "Keyword", "mentions", 1);
        ingest(&mut g, "a2", "Article", "k1", "Keyword", "mentions", 2);
        ingest(&mut g, "a3", "Article", "k1", "Keyword", "mentions", 3);
        let exact = TriadDistribution::of(&g);
        assert_eq!(exact.total_wedges(), 3.0);
        let key = WedgeKey::new(
            g.vertex_type_id("Keyword").unwrap(),
            (g.edge_type_id("mentions").unwrap(), Orientation::Incoming),
            (g.edge_type_id("mentions").unwrap(), Orientation::Incoming),
        );
        assert_eq!(exact.wedge_count(&key), 3.0);
        assert!((exact.wedge_frequency(&key) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn streaming_counts_are_exact_on_hubs() {
        let mut g = DynamicGraph::unbounded();
        let mut dist = TriadDistribution::new();
        // Hub with 100 incoming mention edges: O(degree²) wedges, counted in
        // O(#types) per insertion via the adjacency live counters.
        for i in 0..100 {
            let ev = EdgeEvent::new(
                format!("a{i}"),
                "Article",
                "k1",
                "Keyword",
                "mentions",
                Timestamp::from_secs(i as i64),
            );
            let r = g.ingest(&ev);
            let edge = g.edge(r.edge).unwrap().clone();
            dist.observe_edge(&g, &edge);
        }
        let exact = TriadDistribution::of(&g);
        // Exact count is C(100,2) = 4950; streaming must agree exactly.
        assert_eq!(exact.total_wedges(), 4950.0);
        assert_eq!(dist.total_wedges(), exact.total_wedges());
        assert_eq!(dist.updates(), 100);
    }

    #[test]
    fn live_counts_follow_expiry_and_skip_a_self_loop_paired_with_itself() {
        let mut g = DynamicGraph::new(streamworks_graph::GraphConfig::with_retention(
            streamworks_graph::Duration::from_secs(10),
        ));
        ingest(&mut g, "h", "Host", "h", "Host", "link", 0);
        ingest(&mut g, "h", "Host", "h", "Host", "link", 1);
        ingest(&mut g, "h", "Host", "x", "Host", "link", 2);
        let (host, link) = (
            g.vertex_type_id("Host").unwrap(),
            g.edge_type_id("link").unwrap(),
        );
        let (out, inc) = ((link, Orientation::Outgoing), (link, Orientation::Incoming));
        // At h: 3 out-legs, 2 in-legs; the two loops are not wedges of themselves.
        let live = TriadDistribution::of(&g);
        assert_eq!(live.wedge_count(&WedgeKey::new(host, out, out)), 3.0);
        assert_eq!(live.wedge_count(&WedgeKey::new(host, inc, inc)), 1.0);
        assert_eq!(live.wedge_count(&WedgeKey::new(host, out, inc)), 6.0 - 2.0);
        assert_eq!(live.total_wedges(), 8.0);
        // Both loops expire: one out-leg left at h, one in-leg at x.
        ingest(&mut g, "y", "Host", "z", "Host", "link", 12);
        assert_eq!(TriadDistribution::of(&g).total_wedges(), 0.0);
        assert_eq!(TriadDistribution::of(&g).wedges().count(), 0);
    }

    #[test]
    fn empty_distribution_has_neutral_frequency() {
        let dist = TriadDistribution::new();
        let key = WedgeKey::new(
            TypeId(0),
            (TypeId(0), Orientation::Outgoing),
            (TypeId(0), Orientation::Outgoing),
        );
        assert_eq!(dist.wedge_frequency(&key), 1.0);
        assert_eq!(dist.total_wedges(), 0.0);
    }
}
