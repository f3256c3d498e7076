//! Bindings and partial matches.
//!
//! A [`PartialMatch`] is the runtime object tracked in the SJ-Tree's match
//! collections (paper property 3): an injective assignment of *some* query
//! vertices to data vertices together with the data edges realising the query
//! edges covered so far, plus the earliest/latest timestamps needed to enforce
//! the query window `τ(g) < tW`.
//!
//! Both structures are tuned for the matcher hot path, which clones a partial
//! match per candidate extension and builds one per successful join:
//!
//! * [`Binding`] keeps its slots in a [`SmallVec`] (inline up to 8 query
//!   vertices — larger queries spill transparently), a `mask` bitset of bound
//!   query vertices, and a `bloom` filter over bound *data* vertex ids. The
//!   bloom makes the injectivity check in [`Binding::bind`] /
//!   [`Binding::merge`] O(1) in the common no-collision case instead of an
//!   O(k) scan per bind (O(k²) per merge).
//! * [`PartialMatch::edges`] stores its `(query edge, data edge)` pairs inline
//!   (up to 6), so cloning a match during local search allocates nothing for
//!   typical query sizes.
//!
//! A `PartialMatch` is **176 bytes** and, within the two inline capacities,
//! owns no heap: the vendored `SmallVec` is a length plus a union of the
//! inline array and a `(pointer, capacity)` header, so there is no `Vec` to
//! copy on clone or to check on drop — a move or clone is a copy of the
//! lengths and inline bytes, a drop is two length compares. The join climb
//! builds, files and later sweeps about forty of these per event on the
//! join-heavy workloads, which is why the bytes matter. A query over the
//! capacities still works (the vectors spill, [`PartialMatch::spilled`]
//! reports it, `QueryMetrics::binding_spills` counts it).
//! [`PartialMatch::merge`] builds its result as a copy of one input that the
//! other is merged into in place.

use serde::{Deserialize, Serialize};
use smallvec::SmallVec;
use streamworks_graph::{Duration, EdgeId, Timestamp, VertexId};
use streamworks_query::{QueryEdgeId, QueryVertexId};

/// Inline capacity of a binding: queries with at most this many vertices
/// never heap-allocate their slot table.
pub const INLINE_VERTICES: usize = 8;

/// Inline capacity of a partial match's edge list.
pub const INLINE_EDGES: usize = 6;

#[inline]
fn bloom_bit(dv: VertexId) -> u64 {
    1u64 << (dv.0 & 63)
}

/// Slot sentinel for "unbound" (vertex ids are dense from zero, so
/// `u32::MAX` can never name a real vertex). Packing slots as bare `u32`s
/// halves the binding's size versus `Option<VertexId>`, and the binding is
/// the most-copied structure on the hot path.
const UNBOUND: u32 = u32::MAX;

/// A partial assignment of query vertices to data vertices.
///
/// Stored as a dense slot table indexed by query-vertex id (query graphs are
/// small), which makes projection and merging cheap. `mask` mirrors which
/// slots are bound (bit `i` ⇔ slot `i`, for the first 64 vertices); `bloom`
/// over-approximates the set of bound data vertices for fast injectivity
/// rejection.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Binding {
    slots: SmallVec<u32, INLINE_VERTICES>,
    mask: u64,
    bloom: u64,
}

impl Binding {
    /// An empty binding for a query with `vertex_count` vertices.
    pub fn new(vertex_count: usize) -> Self {
        let mut slots = SmallVec::new();
        for _ in 0..vertex_count {
            slots.push(UNBOUND);
        }
        Binding {
            slots,
            mask: 0,
            bloom: 0,
        }
    }

    /// The data vertex bound to `qv`, if any.
    #[inline]
    pub fn get(&self, qv: QueryVertexId) -> Option<VertexId> {
        match self.slots.as_slice().get(qv.0) {
            Some(&raw) if raw != UNBOUND => Some(VertexId(raw)),
            _ => None,
        }
    }

    /// True if `dv` is the image of some bound query vertex.
    #[inline]
    fn maps_to(&self, dv: VertexId) -> bool {
        if self.bloom & bloom_bit(dv) == 0 {
            return false; // definite miss: dv never bound
        }
        self.slots.iter().any(|s| *s == dv.0)
    }

    /// Binds `qv` to `dv`. Returns `false` (and leaves the binding unchanged)
    /// if `qv` is already bound to a different vertex or if `dv` is already
    /// the image of a different query vertex (injectivity).
    #[inline]
    pub fn bind(&mut self, qv: QueryVertexId, dv: VertexId) -> bool {
        debug_assert_ne!(dv.0, UNBOUND, "vertex id reserved as the unbound sentinel");
        let existing = self.slots[qv.0];
        if existing != UNBOUND {
            return existing == dv.0;
        }
        if self.maps_to(dv) {
            return false;
        }
        self.slots[qv.0] = dv.0;
        if qv.0 < 64 {
            self.mask |= 1 << qv.0;
        }
        self.bloom |= bloom_bit(dv);
        true
    }

    /// Number of bound query vertices.
    #[inline]
    pub fn bound_count(&self) -> usize {
        if self.slots.len() <= 64 {
            self.mask.count_ones() as usize
        } else {
            self.slots.iter().filter(|s| **s != UNBOUND).count()
        }
    }

    /// Iterates `(query vertex, data vertex)` pairs in query-vertex order.
    pub fn iter(&self) -> impl Iterator<Item = (QueryVertexId, VertexId)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, &s)| s != UNBOUND)
            .map(|(i, &s)| (QueryVertexId(i), VertexId(s)))
    }

    /// Projects the binding onto a list of query vertices. Returns `None` if
    /// any of them is unbound.
    pub fn project(&self, vertices: &[QueryVertexId]) -> Option<Vec<VertexId>> {
        vertices.iter().map(|&v| self.get(v)).collect()
    }

    /// Projects the binding onto `vertices`, appending to `out` (which is
    /// *not* cleared). Returns `false` — leaving `out` partially filled — if
    /// any vertex is unbound. The allocation-free twin of [`Self::project`].
    #[inline]
    pub fn project_into<const N: usize>(
        &self,
        vertices: &[QueryVertexId],
        out: &mut SmallVec<VertexId, N>,
    ) -> bool {
        for &v in vertices {
            match self.get(v) {
                Some(dv) => out.push(dv),
                None => return false,
            }
        }
        true
    }

    /// True if the slot table has outgrown its inline capacity
    /// ([`INLINE_VERTICES`]) and lives on the heap.
    #[inline]
    pub fn spilled(&self) -> bool {
        !self.slots.is_inline()
    }

    /// Merges `other` into a copy of `self`. Returns `None` on any conflict:
    /// a query vertex bound to different data vertices, or two query vertices
    /// bound to the same data vertex (injectivity across the merged binding).
    pub fn merge(&self, other: &Binding) -> Option<Binding> {
        let mut merged = self.clone();
        merged.merge_from(other).then_some(merged)
    }

    /// Merges `other` into `self` in place; `false` on a conflict (see
    /// [`Self::merge`]), which leaves `self` partially merged.
    #[inline]
    fn merge_from(&mut self, other: &Binding) -> bool {
        debug_assert_eq!(self.slots.len(), other.slots.len());
        let theirs = other.slots.as_slice();
        if theirs.len() <= 64 {
            // Walk only the bound slots of `other` via its mask.
            let mut remaining = other.mask;
            while remaining != 0 {
                let i = remaining.trailing_zeros() as usize;
                remaining &= remaining - 1;
                debug_assert_ne!(theirs[i], UNBOUND, "mask bit set for bound slot");
                if !self.merge_slot(i, VertexId(theirs[i])) {
                    return false;
                }
            }
            true
        } else {
            theirs
                .iter()
                .enumerate()
                .all(|(i, &slot)| slot == UNBOUND || self.merge_slot(i, VertexId(slot)))
        }
    }

    /// Binds slot `i` to `dv` during a merge; `false` on conflict.
    #[inline]
    fn merge_slot(&mut self, i: usize, dv: VertexId) -> bool {
        let existing = self.slots[i];
        if existing != UNBOUND {
            return existing == dv.0;
        }
        if self.maps_to(dv) {
            return false; // injectivity: dv already used elsewhere
        }
        self.slots[i] = dv.0;
        if i < 64 {
            self.mask |= 1 << i;
        }
        self.bloom |= bloom_bit(dv);
        true
    }
}

/// A partial (or complete) match tracked at one SJ-Tree node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartialMatch {
    /// The vertex binding.
    pub binding: Binding,
    /// The data edge realising each covered query edge, sorted by query edge id.
    pub edges: SmallVec<(QueryEdgeId, EdgeId), INLINE_EDGES>,
    /// Earliest data-edge timestamp in the match.
    pub earliest: Timestamp,
    /// Latest data-edge timestamp in the match.
    pub latest: Timestamp,
}

impl PartialMatch {
    /// Creates a match covering a single data edge.
    pub fn seed(vertex_count: usize, qe: QueryEdgeId, edge: EdgeId, ts: Timestamp) -> Self {
        let mut edges = SmallVec::new();
        edges.push((qe, edge));
        PartialMatch {
            binding: Binding::new(vertex_count),
            edges,
            earliest: ts,
            latest: ts,
        }
    }

    /// Number of query edges covered.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// True if either inline hot-path structure (the binding's slot table or
    /// the edge list) has spilled to the heap — i.e. the query exceeds
    /// [`INLINE_VERTICES`] vertices or [`INLINE_EDGES`] edges. Surfaced per
    /// query as [`crate::QueryMetrics::binding_spills`].
    #[inline]
    pub fn spilled(&self) -> bool {
        self.binding.spilled() || !self.edges.is_inline()
    }

    /// The time span `τ(g)` of the match.
    #[inline]
    pub fn span(&self) -> Duration {
        self.latest - self.earliest
    }

    /// True if the span is strictly below the window (paper: `τ(g) < tW`).
    #[inline]
    pub fn within_window(&self, window: Duration) -> bool {
        self.span().as_micros() < window.as_micros()
    }

    /// The data edge bound to a query edge, if covered.
    pub fn data_edge(&self, qe: QueryEdgeId) -> Option<EdgeId> {
        self.edges.iter().find(|(q, _)| *q == qe).map(|(_, e)| *e)
    }

    /// True if `edge` is one of the data edges of this match.
    #[inline]
    pub fn uses_data_edge(&self, edge: EdgeId) -> bool {
        self.edges.iter().any(|(_, e)| *e == edge)
    }

    /// Records that `qe` is realised by `edge` with timestamp `ts`, keeping the
    /// edge list sorted. Returns `false` if `qe` is already covered or `edge`
    /// is already used for another query edge.
    pub fn add_edge(&mut self, qe: QueryEdgeId, edge: EdgeId, ts: Timestamp) -> bool {
        if self.edges.iter().any(|(q, e)| *q == qe || *e == edge) {
            return false;
        }
        let pos = self.edges.as_slice().partition_point(|(q, _)| *q < qe);
        self.edges.insert(pos, (qe, edge));
        if ts < self.earliest {
            self.earliest = ts;
        }
        if ts > self.latest {
            self.latest = ts;
        }
        true
    }

    /// Attempts to merge two matches covering disjoint query-edge sets into one.
    ///
    /// Fails (returns `None`) if the bindings conflict, if the query-edge sets
    /// overlap, or if the same data edge realises two different query edges.
    ///
    /// The result starts as a copy of `self` (for a paper-sized query: two
    /// lengths and the inline bytes, no heap) and `other` is merged into it
    /// in place — no second binding or edge list is built on the side.
    pub fn merge(&self, other: &PartialMatch) -> Option<PartialMatch> {
        // Cloned straight into the `Option` it is returned in (measured:
        // cheaper than `then_some`, which moves the finished match again).
        let mut merged = Some(self.clone());
        if !merged.as_mut().is_some_and(|m| m.merge_from(other)) {
            merged = None;
        }
        merged
    }

    /// Merges `other` into `self` in place; `false` on a conflict (see
    /// [`Self::merge`]), which leaves `self` partially merged.
    #[inline]
    fn merge_from(&mut self, other: &PartialMatch) -> bool {
        if !self.binding.merge_from(&other.binding) {
            return false;
        }
        for &(qe, edge) in &other.edges {
            // The lists are short (bounded by the query size), so a scan
            // per inserted edge beats sorting a scratch vector.
            if self.edges.iter().any(|&(q, e)| q == qe || e == edge) {
                return false;
            }
            let pos = self.edges.partition_point(|&(q, _)| q < qe);
            self.edges.insert(pos, (qe, edge));
        }
        self.earliest = self.earliest.min(other.earliest);
        self.latest = self.latest.max(other.latest);
        true
    }

    /// A stable 64-bit signature of the (query edge → data edge) assignment,
    /// used for deduplication checks in tests and reports.
    pub fn signature(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut hasher = streamworks_graph::hash::FxHasher::default();
        for (q, e) in &self.edges {
            q.0.hash(&mut hasher);
            e.0.hash(&mut hasher);
        }
        hasher.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    #[test]
    fn bind_enforces_consistency_and_injectivity() {
        let mut b = Binding::new(3);
        assert!(b.bind(QueryVertexId(0), v(10)));
        // Re-binding the same pair is fine.
        assert!(b.bind(QueryVertexId(0), v(10)));
        // Conflicting rebind fails.
        assert!(!b.bind(QueryVertexId(0), v(11)));
        // Injectivity: another query vertex cannot map to v10.
        assert!(!b.bind(QueryVertexId(1), v(10)));
        assert!(b.bind(QueryVertexId(1), v(11)));
        assert_eq!(b.bound_count(), 2);
        assert_eq!(b.get(QueryVertexId(2)), None);
    }

    #[test]
    fn bind_rejects_bloom_collisions_correctly() {
        // v(1) and v(65) share a bloom bit (65 & 63 == 1): the filter must
        // fall back to the exact scan and still allow the non-conflicting bind.
        let mut b = Binding::new(3);
        assert!(b.bind(QueryVertexId(0), v(1)));
        assert!(
            b.bind(QueryVertexId(1), v(65)),
            "bloom collision is not a conflict"
        );
        // A genuine duplicate is still rejected.
        assert!(!b.bind(QueryVertexId(2), v(1)));
        assert!(!b.bind(QueryVertexId(2), v(65)));
    }

    #[test]
    fn projection_requires_all_vertices_bound() {
        let mut b = Binding::new(3);
        b.bind(QueryVertexId(0), v(5));
        b.bind(QueryVertexId(2), v(7));
        assert_eq!(
            b.project(&[QueryVertexId(0), QueryVertexId(2)]),
            Some(vec![v(5), v(7)])
        );
        assert_eq!(b.project(&[QueryVertexId(1)]), None);
        assert_eq!(b.project(&[]), Some(vec![]));
    }

    #[test]
    fn project_into_fills_without_allocating() {
        let mut b = Binding::new(3);
        b.bind(QueryVertexId(0), v(5));
        b.bind(QueryVertexId(2), v(7));
        let mut key: SmallVec<VertexId, 4> = SmallVec::new();
        assert!(b.project_into(&[QueryVertexId(2), QueryVertexId(0)], &mut key));
        assert!(key.is_inline());
        assert_eq!(key.as_slice(), &[v(7), v(5)]);
        key.clear();
        assert!(!b.project_into(&[QueryVertexId(1)], &mut key));
    }

    #[test]
    fn merge_bindings_detects_conflicts() {
        let mut a = Binding::new(3);
        a.bind(QueryVertexId(0), v(1));
        a.bind(QueryVertexId(1), v(2));
        let mut b = Binding::new(3);
        b.bind(QueryVertexId(1), v(2));
        b.bind(QueryVertexId(2), v(3));
        let merged = a.merge(&b).unwrap();
        assert_eq!(merged.bound_count(), 3);

        // Conflict: same query vertex, different data vertices.
        let mut c = Binding::new(3);
        c.bind(QueryVertexId(0), v(9));
        assert!(a.merge(&c).is_none());

        // Injectivity violation: different query vertices, same data vertex.
        let mut d = Binding::new(3);
        d.bind(QueryVertexId(2), v(1));
        assert!(a.merge(&d).is_none());
    }

    #[test]
    fn merge_handles_bloom_aliased_vertices() {
        // v(2) and v(66) alias in the bloom but are distinct vertices; the
        // merge must accept them and still reject a true duplicate.
        let mut a = Binding::new(3);
        a.bind(QueryVertexId(0), v(2));
        let mut b = Binding::new(3);
        b.bind(QueryVertexId(1), v(66));
        let merged = a.merge(&b).unwrap();
        assert_eq!(merged.bound_count(), 2);

        let mut c = Binding::new(3);
        c.bind(QueryVertexId(2), v(2));
        assert!(a.merge(&c).is_none());
    }

    #[test]
    fn merge_walks_masks_beyond_inline_capacity() {
        // Exercise the spilled-slot path (> INLINE_VERTICES vertices).
        let n = INLINE_VERTICES + 4;
        let mut a = Binding::new(n);
        a.bind(QueryVertexId(0), v(100));
        let mut b = Binding::new(n);
        b.bind(QueryVertexId(n - 1), v(200));
        let merged = a.merge(&b).unwrap();
        assert_eq!(merged.get(QueryVertexId(0)), Some(v(100)));
        assert_eq!(merged.get(QueryVertexId(n - 1)), Some(v(200)));
        assert_eq!(merged.bound_count(), 2);
    }

    #[test]
    fn partial_match_window_and_span() {
        let mut m = PartialMatch::seed(3, QueryEdgeId(0), EdgeId(1), Timestamp::from_secs(100));
        assert!(m.add_edge(QueryEdgeId(1), EdgeId(2), Timestamp::from_secs(130)));
        assert_eq!(m.span(), Duration::from_secs(30));
        assert!(m.within_window(Duration::from_secs(31)));
        assert!(!m.within_window(Duration::from_secs(30)));
        assert!(!m.within_window(Duration::from_secs(10)));
    }

    #[test]
    fn add_edge_rejects_duplicates() {
        let mut m = PartialMatch::seed(3, QueryEdgeId(0), EdgeId(1), Timestamp::from_secs(1));
        assert!(!m.add_edge(QueryEdgeId(0), EdgeId(5), Timestamp::from_secs(2)));
        assert!(!m.add_edge(QueryEdgeId(1), EdgeId(1), Timestamp::from_secs(2)));
        assert!(m.add_edge(QueryEdgeId(1), EdgeId(2), Timestamp::from_secs(2)));
        assert_eq!(m.edge_count(), 2);
        assert_eq!(m.data_edge(QueryEdgeId(1)), Some(EdgeId(2)));
        assert!(m.uses_data_edge(EdgeId(1)));
        assert!(!m.uses_data_edge(EdgeId(9)));
    }

    #[test]
    fn merge_matches_combines_edges_and_times() {
        let mut a = PartialMatch::seed(4, QueryEdgeId(0), EdgeId(1), Timestamp::from_secs(10));
        a.binding.bind(QueryVertexId(0), v(100));
        a.binding.bind(QueryVertexId(1), v(101));
        let mut b = PartialMatch::seed(4, QueryEdgeId(1), EdgeId(2), Timestamp::from_secs(20));
        b.binding.bind(QueryVertexId(1), v(101));
        b.binding.bind(QueryVertexId(2), v(102));
        let m = a.merge(&b).unwrap();
        assert_eq!(m.edge_count(), 2);
        assert_eq!(m.earliest, Timestamp::from_secs(10));
        assert_eq!(m.latest, Timestamp::from_secs(20));
        assert_eq!(m.binding.bound_count(), 3);
    }

    #[test]
    fn merge_matches_rejects_overlap_and_shared_data_edges() {
        let a = PartialMatch::seed(4, QueryEdgeId(0), EdgeId(1), Timestamp::from_secs(10));
        let b = PartialMatch::seed(4, QueryEdgeId(0), EdgeId(2), Timestamp::from_secs(20));
        assert!(a.merge(&b).is_none(), "overlapping query edges");
        let c = PartialMatch::seed(4, QueryEdgeId(1), EdgeId(1), Timestamp::from_secs(20));
        assert!(a.merge(&c).is_none(), "same data edge for two query edges");
    }

    #[test]
    fn signatures_distinguish_different_assignments() {
        let a = PartialMatch::seed(2, QueryEdgeId(0), EdgeId(1), Timestamp::from_secs(1));
        let b = PartialMatch::seed(2, QueryEdgeId(0), EdgeId(2), Timestamp::from_secs(1));
        let a2 = PartialMatch::seed(2, QueryEdgeId(0), EdgeId(1), Timestamp::from_secs(9));
        assert_ne!(a.signature(), b.signature());
        assert_eq!(a.signature(), a2.signature());
    }

    #[test]
    fn hot_path_structures_stay_inline_for_small_queries() {
        // The zero-allocation guarantee of the hot path: bindings and edge
        // lists of paper-sized queries never touch the heap.
        let mut m = PartialMatch::seed(
            INLINE_VERTICES,
            QueryEdgeId(0),
            EdgeId(1),
            Timestamp::from_secs(1),
        );
        for i in 0..INLINE_VERTICES {
            m.binding.bind(QueryVertexId(i), v(1000 + i as u32));
        }
        for q in 1..INLINE_EDGES {
            assert!(m.add_edge(
                QueryEdgeId(q),
                EdgeId(1 + q as u64),
                Timestamp::from_secs(1)
            ));
        }
        assert!(m.edges.is_inline());
        assert!(!m.spilled());
    }

    #[test]
    fn a_partial_match_is_176_bytes() {
        // Slot table 8 + 8×4, mask 8, bloom 8; edge list 8 + 6×16; two
        // timestamps. The budget is 192 (three cache lines); the union-style
        // small vector spends none of it on a heap header (the always-present
        // `Vec` of the earlier layout made this 224).
        use std::mem::size_of;
        assert_eq!(size_of::<Binding>(), 56);
        assert_eq!(size_of::<PartialMatch>(), 176);
        const { assert!(size_of::<PartialMatch>() <= 192) };
    }

    #[test]
    fn spilled_matches_round_trip() {
        use std::hash::{Hash, Hasher};
        fn hash_of<T: Hash + ?Sized>(t: &T) -> u64 {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            t.hash(&mut h);
            h.finish()
        }
        // Edge list: push past the inline capacity, insert while spilled
        // (query edge 1 lands in the middle), and come back inline.
        let ts = Timestamp::from_secs(1);
        let mut m = PartialMatch::seed(INLINE_VERTICES + 1, QueryEdgeId(0), EdgeId(100), ts);
        for q in 2..=INLINE_EDGES + 1 {
            assert!(m.add_edge(QueryEdgeId(q), EdgeId(100 + q as u64), ts));
        }
        assert!(!m.edges.is_inline());
        assert!(m.add_edge(QueryEdgeId(1), EdgeId(101), ts));
        let order: Vec<usize> = m.edges.iter().map(|(q, _)| q.0).collect();
        assert_eq!(order, (0..=INLINE_EDGES + 1).collect::<Vec<_>>());
        assert_eq!(hash_of(&m.edges), hash_of(m.edges.as_slice()));

        // A clone of a spilled match is deep, for both vectors.
        assert!(m.binding.bind(QueryVertexId(INLINE_VERTICES), v(7)));
        let mut copy = m.clone();
        assert_eq!(copy, m);
        assert_eq!(hash_of(&copy.binding), hash_of(&m.binding));
        assert!(copy.binding.bind(QueryVertexId(0), v(8)));
        copy.edges.truncate(INLINE_EDGES);
        assert!(copy.edges.is_inline() && copy.binding.spilled());
        assert_eq!(copy.edges.as_slice(), &m.edges[..INLINE_EDGES]);
        assert_eq!(m.binding.get(QueryVertexId(0)), None);
        assert_eq!(m.edge_count(), INLINE_EDGES + 2);
        drop(m);
        assert_eq!(copy.binding.get(QueryVertexId(INLINE_VERTICES)), Some(v(7)));

        // Merging spilled matches goes through the same in-place path.
        let other = {
            let mut o = PartialMatch::seed(INLINE_VERTICES + 1, QueryEdgeId(9), EdgeId(9), ts);
            assert!(o.binding.bind(QueryVertexId(1), v(9)));
            o
        };
        let merged = copy.merge(&other).unwrap();
        assert_eq!(merged.edge_count(), INLINE_EDGES + 1);
        assert!(merged.spilled());
        assert_eq!(merged.binding.bound_count(), 3);
    }

    #[test]
    fn oversized_queries_report_their_spill() {
        // One vertex over the inline capacity: the slot table heap-allocates.
        let big_binding = PartialMatch::seed(
            INLINE_VERTICES + 1,
            QueryEdgeId(0),
            EdgeId(1),
            Timestamp::from_secs(1),
        );
        assert!(big_binding.binding.spilled());
        assert!(big_binding.spilled());

        // One edge over the inline capacity: the edge list heap-allocates.
        let mut big_edges =
            PartialMatch::seed(4, QueryEdgeId(0), EdgeId(1), Timestamp::from_secs(1));
        for q in 1..=INLINE_EDGES {
            big_edges.add_edge(
                QueryEdgeId(q),
                EdgeId(1 + q as u64),
                Timestamp::from_secs(1),
            );
        }
        assert!(!big_edges.binding.spilled());
        assert!(big_edges.spilled());
    }
}
