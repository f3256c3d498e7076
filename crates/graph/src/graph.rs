//! The dynamic multi-relational property graph.
//!
//! [`DynamicGraph`] is the data-graph substrate of StreamWorks (paper §2.1):
//! a directed, typed, timestamped multigraph that is updated one edge event at
//! a time and optionally forgets edges that have fallen out of a retention
//! window. It is intentionally a *store*, not a matcher: the incremental
//! algorithm lives in `streamworks-core` and queries this structure through
//! the neighbourhood accessors defined here.

use crate::adjacency::{AdjEntry, AdjacencyList, Direction};
use crate::attr::Attrs;
use crate::edge::{Edge, EdgeEvent};
use crate::error::GraphError;
use crate::ids::{Duration, EdgeId, Timestamp, TypeId, VertexId};
use crate::interner::Interner;
use crate::stats::GraphStats;
use crate::vertex::Vertex;
use crate::window::SlidingWindow;
use serde::{Deserialize, Serialize};

/// Configuration of a [`DynamicGraph`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GraphConfig {
    /// How long edges are retained after their timestamp. `None` keeps all edges.
    ///
    /// For correctness of a continuous query with window `tW` the retention
    /// must be at least `tW`; the engine in `streamworks-core` enforces that.
    pub retention: Option<Duration>,
    /// Initial capacity hint for the vertex table.
    pub expected_vertices: usize,
}

impl Default for GraphConfig {
    fn default() -> Self {
        GraphConfig {
            retention: None,
            expected_vertices: 1024,
        }
    }
}

impl GraphConfig {
    /// Config with a retention horizon.
    pub fn with_retention(retention: Duration) -> Self {
        GraphConfig {
            retention: Some(retention),
            ..Default::default()
        }
    }
}

/// Outcome of ingesting one edge event.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestResult {
    /// Id assigned to the new edge.
    pub edge: EdgeId,
    /// Resolved source vertex.
    pub src: VertexId,
    /// Resolved destination vertex.
    pub dst: VertexId,
    /// True if the source vertex was created by this ingest.
    pub src_created: bool,
    /// True if the destination vertex was created by this ingest.
    pub dst_created: bool,
    /// Edges that expired out of the retention window as a consequence of the
    /// stream time advancing to this event's timestamp.
    pub expired: Vec<EdgeId>,
}

/// Dense, id-indexed storage for live edges.
///
/// Edge ids are allocated sequentially and expire in (approximately)
/// timestamp order, so the live edges always occupy a narrow id band. Storing
/// them in a deque indexed by `id - base` makes the per-edge lookup on the
/// matcher hot path a bounds check plus an index — no hashing — and ingest a
/// plain `push_back`. Expired slots become `None` holes; the dead prefix is
/// trimmed as soon as it clears.
///
/// A straggler — an edge that stays live long after its id-neighbours expired
/// (e.g. a producer with a skewed future clock advances stream time so far
/// that everything after it expires on arrival) — would pin `base` and let
/// the deque grow with the stream. When the deque exceeds a multiple of the
/// live count, stragglers at the front are migrated into a small `overflow`
/// hash map so the dense band stays proportional to the live population.
#[derive(Debug, Clone, Default)]
struct EdgeSlab {
    /// Edge id of `slots[0]`.
    base: u64,
    slots: std::collections::VecDeque<Option<Edge>>,
    /// Long-lived stragglers evicted from the front of the dense band.
    /// Empty in the common in-order-expiry case.
    overflow: crate::hash::FxHashMap<EdgeId, Edge>,
    live: usize,
}

impl EdgeSlab {
    /// Appends an edge; its id must be the next sequential id.
    #[inline]
    fn push(&mut self, edge: Edge) {
        debug_assert_eq!(edge.id.0, self.base + self.slots.len() as u64);
        self.slots.push_back(Some(edge));
        self.live += 1;
        if self.slots.len() > 4 * self.live + 1024 {
            self.evict_stragglers();
        }
    }

    #[inline]
    fn get(&self, id: EdgeId) -> Option<&Edge> {
        match id.0.checked_sub(self.base) {
            Some(idx) => self.slots.get(idx as usize)?.as_ref(),
            // Below the dense band: either long expired or a straggler.
            None => self.overflow.get(&id),
        }
    }

    #[inline]
    fn contains(&self, id: EdgeId) -> bool {
        self.get(id).is_some()
    }

    fn remove(&mut self, id: EdgeId) -> Option<Edge> {
        let Some(idx) = id.0.checked_sub(self.base) else {
            let removed = self.overflow.remove(&id);
            if removed.is_some() {
                self.live -= 1;
            }
            return removed;
        };
        let removed = self.slots.get_mut(idx as usize)?.take();
        if removed.is_some() {
            self.live -= 1;
            self.trim_front();
        }
        removed
    }

    /// Reclaims the dead prefix (expiry tracks timestamp order, which tracks
    /// id order for in-order streams, so this stays tight).
    fn trim_front(&mut self) {
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
    }

    /// Moves live edges pinning the front of an oversized dense band into the
    /// overflow map until the band is proportional to the live count again.
    fn evict_stragglers(&mut self) {
        while self.slots.len() > 4 * self.live + 1024 {
            match self.slots.pop_front() {
                Some(Some(edge)) => {
                    self.base += 1;
                    self.overflow.insert(edge.id, edge);
                }
                Some(None) => self.base += 1,
                None => break,
            }
            self.trim_front();
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.live
    }

    /// Smallest live edge id: the dense band's front (kept live by
    /// `trim_front`) or an older straggler in the overflow map.
    fn oldest_live(&self) -> Option<EdgeId> {
        let band = if self.slots.is_empty() {
            None
        } else {
            Some(EdgeId(self.base))
        };
        let straggler = self.overflow.keys().min().copied();
        match (band, straggler) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        }
    }

    fn iter(&self) -> impl Iterator<Item = &Edge> {
        self.overflow
            .values()
            .chain(self.slots.iter().filter_map(|s| s.as_ref()))
    }
}

/// A directed, typed, timestamped multigraph with sliding-window retention.
#[derive(Debug, Clone)]
pub struct DynamicGraph {
    config: GraphConfig,
    key_interner: Interner,
    vtype_interner: Interner,
    etype_interner: Interner,
    vertices: Vec<Vertex>,
    /// Vertex id per interned key symbol (symbols are dense, so a vector
    /// replaces a second hash probe on ingest). `u32::MAX` = no vertex.
    vertex_by_key: Vec<VertexId>,
    edges: EdgeSlab,
    adjacency: Vec<AdjacencyList>,
    window: SlidingWindow,
    next_edge_id: u64,
    /// Live edge count per edge type.
    edge_type_counts: Vec<u64>,
    /// Vertex count per vertex type (vertices are never removed).
    vertex_type_counts: Vec<u64>,
    /// Cumulative number of ingested edges (including expired ones).
    ingested_edges: u64,
    /// The source vertex of the last ingested event and the type its event
    /// named (see `ensure_source`).
    last_source: Option<(VertexId, TypeId)>,
}

impl DynamicGraph {
    /// Creates an empty graph with the given configuration.
    pub fn new(config: GraphConfig) -> Self {
        let window = SlidingWindow::new(config.retention);
        DynamicGraph {
            key_interner: Interner::with_capacity(config.expected_vertices),
            vtype_interner: Interner::new(),
            etype_interner: Interner::new(),
            vertices: Vec::with_capacity(config.expected_vertices),
            vertex_by_key: Vec::with_capacity(config.expected_vertices),
            edges: EdgeSlab::default(),
            adjacency: Vec::with_capacity(config.expected_vertices),
            window,
            next_edge_id: 0,
            edge_type_counts: Vec::new(),
            vertex_type_counts: Vec::new(),
            ingested_edges: 0,
            last_source: None,
            config,
        }
    }

    /// Creates an empty graph with default configuration (no retention).
    pub fn unbounded() -> Self {
        Self::new(GraphConfig::default())
    }

    /// The graph's configuration.
    pub fn config(&self) -> &GraphConfig {
        &self.config
    }

    // ------------------------------------------------------------------
    // Type and key interning
    // ------------------------------------------------------------------

    /// Interns (or looks up) a vertex type label.
    pub fn intern_vertex_type(&mut self, name: &str) -> TypeId {
        let id = TypeId(self.vtype_interner.intern(name));
        if id.index() >= self.vertex_type_counts.len() {
            self.vertex_type_counts.resize(id.index() + 1, 0);
        }
        id
    }

    /// Interns (or looks up) an edge type label.
    pub fn intern_edge_type(&mut self, name: &str) -> TypeId {
        let id = TypeId(self.etype_interner.intern(name));
        if id.index() >= self.edge_type_counts.len() {
            self.edge_type_counts.resize(id.index() + 1, 0);
        }
        id
    }

    /// Looks up a vertex type label without interning it.
    pub fn vertex_type_id(&self, name: &str) -> Option<TypeId> {
        self.vtype_interner.lookup(name).map(TypeId)
    }

    /// Looks up an edge type label without interning it.
    pub fn edge_type_id(&self, name: &str) -> Option<TypeId> {
        self.etype_interner.lookup(name).map(TypeId)
    }

    /// Resolves a vertex type id back to its label.
    pub fn vertex_type_name(&self, id: TypeId) -> Option<&str> {
        self.vtype_interner.resolve(id.0)
    }

    /// Resolves an edge type id back to its label.
    pub fn edge_type_name(&self, id: TypeId) -> Option<&str> {
        self.etype_interner.resolve(id.0)
    }

    /// Number of distinct vertex types observed.
    pub fn vertex_type_count(&self) -> usize {
        self.vtype_interner.len()
    }

    /// Number of distinct edge types observed.
    pub fn edge_type_count(&self) -> usize {
        self.etype_interner.len()
    }

    /// Resolves the external key of a vertex.
    pub fn vertex_key(&self, v: VertexId) -> Option<&str> {
        self.vertices
            .get(v.index())
            .and_then(|vx| self.key_interner.resolve(vx.key_sym))
    }

    /// Looks up a vertex by its external key.
    pub fn vertex_by_key(&self, key: &str) -> Option<VertexId> {
        let sym = self.key_interner.lookup(key)?;
        match self.vertex_by_key.get(sym as usize) {
            Some(&v) if v.0 != u32::MAX => Some(v),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Mutation
    // ------------------------------------------------------------------

    /// Ensures a vertex with the given external key and type exists, returning
    /// its id and whether it was created.
    ///
    /// If the vertex already exists its type is *not* changed (the first
    /// observation wins), matching the append-only semantics of a stream.
    pub fn ensure_vertex(&mut self, key: &str, vtype_name: &str) -> (VertexId, bool) {
        let vtype = self.intern_vertex_type(vtype_name);
        self.ensure_vertex_typed(key, vtype)
    }

    /// Like [`Self::ensure_vertex`] but with a pre-interned type id.
    pub fn ensure_vertex_typed(&mut self, key: &str, vtype: TypeId) -> (VertexId, bool) {
        let sym = self.key_interner.intern(key);
        if let Some(&v) = self.vertex_by_key.get(sym as usize) {
            if v.0 != u32::MAX {
                return (v, false);
            }
        }
        let id = VertexId(self.vertices.len() as u32);
        self.vertices.push(Vertex {
            id,
            key_sym: sym,
            vtype,
            attrs: Attrs::new(),
            out_degree: 0,
            in_degree: 0,
        });
        self.adjacency.push(AdjacencyList::new());
        if sym as usize >= self.vertex_by_key.len() {
            self.vertex_by_key
                .resize(sym as usize + 1, VertexId(u32::MAX));
        }
        self.vertex_by_key[sym as usize] = id;
        if vtype.index() >= self.vertex_type_counts.len() {
            self.vertex_type_counts.resize(vtype.index() + 1, 0);
        }
        self.vertex_type_counts[vtype.index()] += 1;
        (id, true)
    }

    /// Sets an attribute on an existing vertex.
    pub fn set_vertex_attr(
        &mut self,
        v: VertexId,
        key: impl Into<String>,
        value: impl Into<crate::AttrValue>,
    ) -> Result<(), GraphError> {
        let vx = self
            .vertices
            .get_mut(v.index())
            .ok_or(GraphError::UnknownVertex(v))?;
        vx.attrs.set(key, value);
        Ok(())
    }

    /// Ingests a single edge event: resolves or creates both endpoint
    /// vertices, inserts the edge, advances stream time and expires edges that
    /// fall out of the retention window.
    pub fn ingest(&mut self, event: &EdgeEvent) -> IngestResult {
        let (src, src_created) = self.ensure_source(&event.src_key, &event.src_type);
        let (dst, dst_created) = self.ensure_vertex(&event.dst_key, &event.dst_type);
        let etype = self.intern_edge_type(&event.edge_type);
        let (edge, expired) =
            self.add_edge_internal(src, dst, etype, event.timestamp, event.attrs.clone());
        IngestResult {
            edge,
            src,
            dst,
            src_created,
            dst_created,
            expired,
        }
    }

    /// [`Self::ensure_vertex`] for the source of an ingested event. An
    /// entity's edges tend to arrive together (an article and its mentions, a
    /// host and its burst of flows), so the last source is remembered and
    /// recognised by two string compares in place of two hash look-ups. The
    /// type label has to repeat as well: a label not seen before must still be
    /// interned, even though an existing vertex keeps its first type.
    fn ensure_source(&mut self, key: &str, vtype_name: &str) -> (VertexId, bool) {
        if let Some((v, named)) = self.last_source {
            if self.vertex_key(v) == Some(key) && self.vertex_type_name(named) == Some(vtype_name) {
                return (v, false);
            }
        }
        let named = self.intern_vertex_type(vtype_name);
        let (v, created) = self.ensure_vertex_typed(key, named);
        self.last_source = Some((v, named));
        (v, created)
    }

    /// Inserts an edge between two existing vertices with a pre-interned type.
    /// Returns the new edge id and any edges expired by the time advance.
    pub fn add_edge(
        &mut self,
        src: VertexId,
        dst: VertexId,
        etype: TypeId,
        timestamp: Timestamp,
        attrs: Attrs,
    ) -> Result<(EdgeId, Vec<EdgeId>), GraphError> {
        if src.index() >= self.vertices.len() {
            return Err(GraphError::UnknownVertex(src));
        }
        if dst.index() >= self.vertices.len() {
            return Err(GraphError::UnknownVertex(dst));
        }
        if etype.index() >= self.edge_type_counts.len() {
            return Err(GraphError::UnknownType(etype));
        }
        Ok(self.add_edge_internal(src, dst, etype, timestamp, attrs))
    }

    fn add_edge_internal(
        &mut self,
        src: VertexId,
        dst: VertexId,
        etype: TypeId,
        timestamp: Timestamp,
        attrs: Attrs,
    ) -> (EdgeId, Vec<EdgeId>) {
        let id = EdgeId(self.next_edge_id);
        self.next_edge_id += 1;
        self.ingested_edges += 1;

        let edge = Edge {
            id,
            src,
            dst,
            etype,
            timestamp,
            attrs,
        };
        self.edges.push(edge);
        self.edge_type_counts[etype.index()] += 1;

        self.adjacency[src.index()].push(
            Direction::Out,
            etype,
            AdjEntry {
                edge: id,
                neighbor: dst,
                timestamp,
            },
        );
        self.adjacency[dst.index()].push(
            Direction::In,
            etype,
            AdjEntry {
                edge: id,
                neighbor: src,
                timestamp,
            },
        );
        self.vertices[src.index()].out_degree += 1;
        self.vertices[dst.index()].in_degree += 1;

        let expired = self.window.insert(id, timestamp);
        for &e in &expired {
            self.remove_edge_internal(e);
        }
        (id, expired)
    }

    /// Advances stream time without inserting an edge, expiring old edges.
    pub fn advance_time(&mut self, ts: Timestamp) -> Vec<EdgeId> {
        let expired = self.window.advance(ts);
        for &e in &expired {
            self.remove_edge_internal(e);
        }
        expired
    }

    fn remove_edge_internal(&mut self, id: EdgeId) {
        let Some(edge) = self.edges.remove(id) else {
            return;
        };
        self.edge_type_counts[edge.etype.index()] =
            self.edge_type_counts[edge.etype.index()].saturating_sub(1);
        let src = &mut self.vertices[edge.src.index()];
        src.out_degree = src.out_degree.saturating_sub(1);
        let dst = &mut self.vertices[edge.dst.index()];
        dst.in_degree = dst.in_degree.saturating_sub(1);

        // Both `note_dead` calls must land before any compaction: a
        // self-loop touches the same adjacency list twice, and compacting
        // between the two calls (compaction rebuilds both sides and resets
        // the live counters) would make the second call double-decrement.
        if edge.src == edge.dst {
            let adj = &mut self.adjacency[edge.src.index()];
            adj.note_dead(Direction::Out, edge.etype);
            adj.note_dead(Direction::In, edge.etype);
            if !adj.release_if_dead() && adj.should_compact() {
                let edges = &self.edges;
                adj.compact(|e| edges.contains(e));
            }
            return;
        }
        for (v, dir) in [(edge.src, Direction::Out), (edge.dst, Direction::In)] {
            let adj = &mut self.adjacency[v.index()];
            adj.note_dead(dir, edge.etype);
            if !adj.release_if_dead() && adj.should_compact() {
                let edges = &self.edges;
                adj.compact(|e| edges.contains(e));
            }
        }
    }

    // ------------------------------------------------------------------
    // Lookup and iteration
    // ------------------------------------------------------------------

    /// Returns the vertex record for `v`.
    pub fn vertex(&self, v: VertexId) -> Option<&Vertex> {
        self.vertices.get(v.index())
    }

    /// Returns the live edge record for `e` (expired edges return `None`).
    #[inline]
    pub fn edge(&self, e: EdgeId) -> Option<&Edge> {
        self.edges.get(e)
    }

    /// True if the edge is still live (not expired).
    #[inline]
    pub fn is_live(&self, e: EdgeId) -> bool {
        self.edges.contains(e)
    }

    /// Number of vertices ever created.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of live edges.
    pub fn live_edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Total number of edges ingested, including expired ones.
    pub fn ingested_edge_count(&self) -> u64 {
        self.ingested_edges
    }

    /// The smallest edge id still live, `None` when no edge is. Edge ids are
    /// assigned in arrival order, so every id below this bound has expired —
    /// the horizon behind which arrival-order bookkeeping (e.g. the engine's
    /// checkpoint-replay intervals) can be discarded.
    pub fn oldest_live_edge_id(&self) -> Option<EdgeId> {
        self.edges.oldest_live()
    }

    /// Largest observed stream timestamp.
    pub fn now(&self) -> Timestamp {
        self.window.now()
    }

    /// The retention window, if configured.
    pub fn retention(&self) -> Option<Duration> {
        self.config.retention
    }

    /// Replaces the retention window. Widening it keeps more future edges
    /// (edges already expired are not revived); narrowing it takes effect as
    /// stream time advances, except that [`Self::entries_after`] honours
    /// the narrower horizon at once. Used by the continuous-query engine to
    /// ensure retention covers the largest registered query window.
    pub fn set_retention(&mut self, retention: Option<Duration>) {
        let widens = match (self.config.retention, retention) {
            (Some(old), Some(new)) => new > old,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if widens {
            // Adjacency entries of edges the narrower horizon expired would
            // fall inside the wider one, and `entries_after` tells live
            // from stale by timestamp alone: drop them now.
            let edges = &self.edges;
            for adj in &mut self.adjacency {
                if adj.dead_len() > 0 {
                    adj.compact(|e| edges.contains(e));
                }
            }
        }
        self.config.retention = retention;
        self.window.set_retention(retention);
    }

    /// Live out-degree + in-degree of a vertex.
    pub fn degree(&self, v: VertexId) -> u32 {
        self.vertices
            .get(v.index())
            .map(|x| x.degree())
            .unwrap_or(0)
    }

    /// Number of live vertices of a given type (vertices never expire, so this
    /// counts every vertex ever observed with the type).
    pub fn vertices_of_type(&self, t: TypeId) -> u64 {
        self.vertex_type_counts.get(t.index()).copied().unwrap_or(0)
    }

    /// Number of live edges of a given type.
    pub fn edges_of_type(&self, t: TypeId) -> u64 {
        self.edge_type_counts.get(t.index()).copied().unwrap_or(0)
    }

    /// Iterates all vertex records.
    pub fn vertices(&self) -> impl Iterator<Item = &Vertex> {
        self.vertices.iter()
    }

    /// Iterates all live edges in id (arrival) order.
    pub fn edges(&self) -> impl Iterator<Item = &Edge> {
        self.edges.iter()
    }

    /// Iterates the live edges incident to `v` in direction `dir` with edge
    /// type `etype`.
    #[inline]
    pub fn incident_edges(
        &self,
        v: VertexId,
        dir: Direction,
        etype: TypeId,
    ) -> impl Iterator<Item = &Edge> + '_ {
        let entries = self
            .adjacency
            .get(v.index())
            .map(|a| a.entries(dir, etype))
            .unwrap_or(&[]);
        entries.iter().filter_map(move |e| self.edges.get(e.edge))
    }

    /// Iterates the adjacency entries of the live edges incident to `v` in
    /// direction `dir` with type `etype` and a timestamp newer than `after`,
    /// latest arrival first.
    ///
    /// An entry carries neighbour, timestamp and edge id, and is live iff its
    /// timestamp is inside the retention horizon, so the walk reads no edge
    /// record — and stops at the first entry that is too old while the
    /// bucket is time-ordered (see [`AdjacencyList::entries_after`]).
    #[inline]
    pub fn entries_after(
        &self,
        dir: Direction,
        v: VertexId,
        etype: TypeId,
        after: Timestamp,
    ) -> impl Iterator<Item = &AdjEntry> + '_ {
        static EMPTY: AdjacencyList = AdjacencyList::new();
        let horizon = self.window.horizon().unwrap_or(Timestamp(i64::MIN));
        (self.adjacency.get(v.index()).unwrap_or(&EMPTY)).entries_after(dir, etype, after, horizon)
    }

    /// Iterates the live edges incident to `v` in direction `dir`, across all
    /// edge types.
    pub fn incident_edges_any_type(
        &self,
        v: VertexId,
        dir: Direction,
    ) -> impl Iterator<Item = &Edge> + '_ {
        self.adjacency
            .get(v.index())
            .into_iter()
            .flat_map(move |a| a.entries_all_types(dir))
            .filter_map(move |(_, e)| self.edges.get(e.edge))
    }

    /// A monotonically growing version of the graph's type schema (vertex and
    /// edge type interners). Matchers cache compiled type constraints and only
    /// re-resolve when this changes, keeping the per-edge hot path free of
    /// interner probing.
    #[inline]
    pub fn schema_version(&self) -> u64 {
        ((self.vtype_interner.len() as u64) << 32) | self.etype_interner.len() as u64
    }

    /// Iterates `(edge, neighbor)` pairs for the live neighbourhood of `v` in
    /// direction `dir` restricted to edge type `etype`.
    pub fn neighbors(
        &self,
        v: VertexId,
        dir: Direction,
        etype: TypeId,
    ) -> impl Iterator<Item = (&Edge, VertexId)> + '_ {
        self.incident_edges(v, dir, etype).map(move |e| {
            let n = match dir {
                Direction::Out => e.dst,
                Direction::In => e.src,
            };
            (e, n)
        })
    }

    /// Count of live incident edges of a given type and direction (degree by
    /// type) — an O(1) counter read, no neighbourhood scan.
    #[inline]
    pub fn degree_by_type(&self, v: VertexId, dir: Direction, etype: TypeId) -> usize {
        self.adjacency
            .get(v.index())
            .map(|a| a.live_count(dir, etype))
            .unwrap_or(0)
    }

    /// Iterates `(edge type, live incident-edge count)` for a vertex and
    /// direction. O(#types present), independent of degree.
    pub fn live_type_counts(
        &self,
        v: VertexId,
        dir: Direction,
    ) -> impl Iterator<Item = (TypeId, usize)> + '_ {
        self.adjacency
            .get(v.index())
            .into_iter()
            .flat_map(move |a| a.live_counts(dir))
    }

    /// Point-in-time statistics snapshot.
    pub fn stats(&self) -> GraphStats {
        GraphStats {
            vertices: self.vertex_count() as u64,
            live_edges: self.live_edge_count() as u64,
            ingested_edges: self.ingested_edges,
            expired_edges: self.window.expired_total(),
            vertex_types: self.vertex_type_count() as u64,
            edge_types: self.edge_type_count() as u64,
            now: self.now(),
        }
    }
}

impl Default for DynamicGraph {
    fn default() -> Self {
        Self::unbounded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(src: &str, dst: &str, et: &str, t: i64) -> EdgeEvent {
        EdgeEvent::new(src, "IP", dst, "IP", et, Timestamp::from_secs(t))
    }

    #[test]
    fn self_loop_expiry_keeps_live_counters_exact_across_compaction() {
        // Enough expired self-loops to cross the compaction threshold while
        // they are being removed: compaction between the Out- and In-side
        // dead notes of one loop used to double-decrement the live counter.
        let mut g = DynamicGraph::unbounded();
        g.set_retention(Some(Duration::from_secs(1)));
        for _ in 0..40 {
            g.ingest(&event("a", "a", "flow", 1));
        }
        let a = g.vertex_by_key("a").unwrap();
        let flow = g.edge_type_id("flow").unwrap();
        assert_eq!(g.degree_by_type(a, Direction::Out, flow), 40);

        let expired = g.advance_time(Timestamp::from_secs(100));
        assert_eq!(expired.len(), 40);
        assert_eq!(g.live_edge_count(), 0);
        assert_eq!(g.degree_by_type(a, Direction::Out, flow), 0);
        assert_eq!(g.degree_by_type(a, Direction::In, flow), 0);

        // The list stays usable: a fresh loop counts 1 on both sides.
        g.ingest(&event("a", "a", "flow", 100));
        assert_eq!(g.degree_by_type(a, Direction::Out, flow), 1);
        assert_eq!(g.degree_by_type(a, Direction::In, flow), 1);
    }

    #[test]
    fn ingest_creates_vertices_once() {
        let mut g = DynamicGraph::unbounded();
        let r1 = g.ingest(&event("a", "b", "flow", 1));
        assert!(r1.src_created && r1.dst_created);
        let r2 = g.ingest(&event("a", "c", "flow", 2));
        assert!(!r2.src_created && r2.dst_created);
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.live_edge_count(), 2);
        assert_eq!(g.vertex_by_key("a"), Some(r1.src));
    }

    #[test]
    fn a_repeated_source_resolves_like_a_first_one() {
        let mut g = DynamicGraph::unbounded();
        let typed = |src: &str, src_type: &str, dst: &str, t: i64| {
            EdgeEvent::new(src, src_type, dst, "IP", "flow", Timestamp::from_secs(t))
        };
        let first = g.ingest(&typed("a", "Host", "b", 1));
        let again = g.ingest(&typed("a", "Host", "c", 2));
        assert_eq!((again.src, again.src_created), (first.src, false));
        // Another key, and the remembered key under a label not seen before:
        // the label is interned, the vertex keeps its first type.
        let other = g.ingest(&typed("b", "IP", "a", 3));
        assert_eq!((other.src, other.src_created), (first.dst, false));
        let relabelled = g.ingest(&typed("b", "Router", "a", 4));
        assert_eq!((relabelled.src, relabelled.src_created), (first.dst, false));
        assert!(g.vertex_type_id("Router").is_some());
        assert_eq!(
            g.vertex(first.dst).unwrap().vtype,
            g.vertex_type_id("IP").unwrap()
        );
        let back = g.ingest(&typed("a", "Host", "b", 5));
        assert_eq!((back.src, back.src_created), (first.src, false));
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.degree(first.src), 5);
    }

    #[test]
    fn a_vertex_gone_quiet_keeps_no_adjacency_storage() {
        // A stream of ever-new sources into one hub: once a source's edges
        // have expired its list is freed, not left for a compaction threshold
        // (32 stale entries) it would never reach.
        let mut g = DynamicGraph::new(GraphConfig::with_retention(Duration::from_secs(10)));
        for i in 0..200 {
            g.ingest(&event(&format!("s{i}"), "hub", "flow", i));
            g.ingest(&event(&format!("s{i}"), "hub", "login", i));
        }
        let quiet = g.vertex_by_key("s0").unwrap();
        assert_eq!(g.adjacency[quiet.index()].raw_len(), 0);
        let stored: usize = g.adjacency.iter().map(AdjacencyList::raw_len).sum();
        let hub = g.vertex_by_key("hub").unwrap();
        assert_eq!(
            stored - g.adjacency[hub.index()].raw_len(),
            g.live_edge_count()
        );
        // A quiet vertex that speaks again starts from an empty list.
        g.ingest(&event("s0", "hub", "flow", 200));
        let flow = g.edge_type_id("flow").unwrap();
        assert_eq!(g.degree_by_type(quiet, Direction::Out, flow), 1);
        assert_eq!(g.neighbors(quiet, Direction::Out, flow).count(), 1);
    }

    #[test]
    fn neighbors_filtered_by_type_and_direction() {
        let mut g = DynamicGraph::unbounded();
        g.ingest(&event("a", "b", "flow", 1));
        g.ingest(&event("a", "c", "login", 2));
        g.ingest(&event("d", "a", "flow", 3));
        let a = g.vertex_by_key("a").unwrap();
        let flow = g.edge_type_id("flow").unwrap();
        let login = g.edge_type_id("login").unwrap();

        let out_flow: Vec<_> = g.neighbors(a, Direction::Out, flow).collect();
        assert_eq!(out_flow.len(), 1);
        assert_eq!(g.vertex_key(out_flow[0].1), Some("b"));

        let out_login: Vec<_> = g.neighbors(a, Direction::Out, login).collect();
        assert_eq!(out_login.len(), 1);

        let in_flow: Vec<_> = g.neighbors(a, Direction::In, flow).collect();
        assert_eq!(in_flow.len(), 1);
        assert_eq!(g.vertex_key(in_flow[0].1), Some("d"));
    }

    #[test]
    fn retention_expires_edges_and_updates_degrees() {
        let mut g = DynamicGraph::new(GraphConfig::with_retention(Duration::from_secs(10)));
        g.ingest(&event("a", "b", "flow", 0));
        g.ingest(&event("a", "c", "flow", 5));
        let a = g.vertex_by_key("a").unwrap();
        assert_eq!(g.degree(a), 2);

        let r = g.ingest(&event("a", "d", "flow", 20));
        assert_eq!(r.expired.len(), 2);
        assert_eq!(g.live_edge_count(), 1);
        assert_eq!(g.degree(a), 1);
        let flow = g.edge_type_id("flow").unwrap();
        assert_eq!(g.edges_of_type(flow), 1);

        // Expired edges are no longer visible through adjacency.
        let out: Vec<_> = g.neighbors(a, Direction::Out, flow).collect();
        assert_eq!(out.len(), 1);
        assert_eq!(g.vertex_key(out[0].1), Some("d"));
    }

    #[test]
    fn advance_time_expires_without_insert() {
        let mut g = DynamicGraph::new(GraphConfig::with_retention(Duration::from_secs(1)));
        g.ingest(&event("a", "b", "flow", 0));
        let expired = g.advance_time(Timestamp::from_secs(100));
        assert_eq!(expired.len(), 1);
        assert_eq!(g.live_edge_count(), 0);
        assert_eq!(g.stats().expired_edges, 1);
    }

    #[test]
    fn multigraph_allows_parallel_edges() {
        let mut g = DynamicGraph::unbounded();
        g.ingest(&event("a", "b", "flow", 1));
        g.ingest(&event("a", "b", "flow", 2));
        g.ingest(&event("a", "b", "flow", 3));
        assert_eq!(g.live_edge_count(), 3);
        let a = g.vertex_by_key("a").unwrap();
        let flow = g.edge_type_id("flow").unwrap();
        assert_eq!(g.degree_by_type(a, Direction::Out, flow), 3);
    }

    #[test]
    fn add_edge_rejects_unknown_vertices_and_types() {
        let mut g = DynamicGraph::unbounded();
        let (a, _) = g.ensure_vertex("a", "IP");
        let flow = g.intern_edge_type("flow");
        let err = g
            .add_edge(a, VertexId(99), flow, Timestamp::from_secs(1), Attrs::new())
            .unwrap_err();
        assert!(matches!(err, GraphError::UnknownVertex(_)));
        let err = g
            .add_edge(a, a, TypeId(42), Timestamp::from_secs(1), Attrs::new())
            .unwrap_err();
        assert!(matches!(err, GraphError::UnknownType(_)));
    }

    #[test]
    fn vertex_attrs_can_be_set_and_read() {
        let mut g = DynamicGraph::unbounded();
        let (a, _) = g.ensure_vertex("article-1", "Article");
        g.set_vertex_attr(a, "section", "politics").unwrap();
        assert_eq!(
            g.vertex(a).unwrap().attrs.get("section").unwrap().as_str(),
            Some("politics")
        );
        assert!(g.set_vertex_attr(VertexId(9), "x", 1i64).is_err());
    }

    #[test]
    fn type_counts_track_live_population() {
        let mut g = DynamicGraph::unbounded();
        g.ingest(&EdgeEvent::new(
            "art1",
            "Article",
            "kw1",
            "Keyword",
            "mentions",
            Timestamp::from_secs(1),
        ));
        g.ingest(&EdgeEvent::new(
            "art2",
            "Article",
            "kw1",
            "Keyword",
            "mentions",
            Timestamp::from_secs(2),
        ));
        let article = g.vertex_type_id("Article").unwrap();
        let keyword = g.vertex_type_id("Keyword").unwrap();
        let mentions = g.edge_type_id("mentions").unwrap();
        assert_eq!(g.vertices_of_type(article), 2);
        assert_eq!(g.vertices_of_type(keyword), 1);
        assert_eq!(g.edges_of_type(mentions), 2);
        assert_eq!(g.vertex_type_name(article), Some("Article"));
        assert_eq!(g.edge_type_name(mentions), Some("mentions"));
    }

    #[test]
    fn straggler_edge_does_not_pin_slab_memory() {
        // A producer with a skewed clock delivers one edge far in the future;
        // stream time jumps forward and every subsequent normally-stamped
        // edge expires on arrival. The straggler must not pin the dense edge
        // band: memory stays proportional to the live count.
        let mut g = DynamicGraph::new(GraphConfig::with_retention(Duration::from_secs(60)));
        g.ingest(&event("skewed", "victim", "flow", 1_000_000));
        for i in 0..20_000i64 {
            g.ingest(&event("a", "b", "flow", i));
        }
        assert_eq!(g.live_edge_count(), 1, "only the future edge is live");
        assert!(
            g.edges.slots.len() <= 4 * g.edges.live + 1024 + 1,
            "dense band grew to {} slots for {} live edges",
            g.edges.slots.len(),
            g.edges.live
        );
        // The straggler is still fully addressable after spilling to overflow.
        let skewed = g.vertex_by_key("skewed").unwrap();
        let flow = g.edge_type_id("flow").unwrap();
        let visible: Vec<_> = g.neighbors(skewed, Direction::Out, flow).collect();
        assert_eq!(visible.len(), 1);
        assert_eq!(g.edges().count(), 1);
        // The oldest live id is the overflow straggler (id 0), not the band.
        assert_eq!(g.oldest_live_edge_id(), Some(EdgeId(0)));
    }

    #[test]
    fn oldest_live_edge_id_tracks_expiry() {
        let mut g = DynamicGraph::new(GraphConfig::with_retention(Duration::from_secs(10)));
        assert_eq!(g.oldest_live_edge_id(), None);
        g.ingest(&event("a", "b", "flow", 0));
        g.ingest(&event("c", "d", "flow", 5));
        assert_eq!(g.oldest_live_edge_id(), Some(EdgeId(0)));
        // Advancing time expires the first edge; the bound moves forward.
        g.ingest(&event("e", "f", "flow", 12));
        assert_eq!(g.oldest_live_edge_id(), Some(EdgeId(1)));
        g.ingest(&event("g", "h", "flow", 100));
        assert_eq!(g.oldest_live_edge_id(), Some(EdgeId(3)));
    }

    #[test]
    fn heavy_expiry_compacts_adjacency_without_losing_live_edges() {
        let mut g = DynamicGraph::new(GraphConfig::with_retention(Duration::from_secs(10)));
        // A hub vertex receives many edges over a long stream; old ones must
        // disappear from its neighbourhood while recent ones stay visible.
        for i in 0..1000i64 {
            g.ingest(&event("hub", &format!("peer{i}"), "flow", i));
        }
        let hub = g.vertex_by_key("hub").unwrap();
        let flow = g.edge_type_id("flow").unwrap();
        let visible: Vec<_> = g.neighbors(hub, Direction::Out, flow).collect();
        // Retention of 10s at t=999 keeps edges with t in [989, 999] => 11 edges.
        assert_eq!(visible.len(), 11);
        assert!(visible
            .iter()
            .all(|(e, _)| e.timestamp >= Timestamp::from_secs(989)));
        assert_eq!(g.live_edge_count(), 11);
    }

    /// `entries_after` must yield exactly the live edges incident to `v` in
    /// `dir` newer than `after` — what a scan checked against the edge table
    /// finds.
    fn assert_entries_after_match_edge_table_in(
        g: &DynamicGraph,
        dir: Direction,
        v: &str,
        after: &[i64],
    ) {
        let v = g.vertex_by_key(v).unwrap();
        let flow = g.edge_type_id("flow").unwrap();
        for &after in after {
            let after = Timestamp::from_secs(after);
            let mut want: Vec<EdgeId> = g
                .incident_edges(v, dir, flow)
                .filter(|e| e.timestamp > after)
                .map(|e| e.id)
                .collect();
            let got: Vec<&AdjEntry> = g.entries_after(dir, v, flow, after).collect();
            for entry in &got {
                let edge = g.edge(entry.edge).expect("only live entries");
                let far = match dir {
                    Direction::Out => edge.dst,
                    Direction::In => edge.src,
                };
                assert_eq!((entry.neighbor, entry.timestamp), (far, edge.timestamp));
            }
            let mut got: Vec<EdgeId> = got.iter().map(|e| e.edge).collect();
            assert!(got.windows(2).all(|w| w[0] > w[1]), "latest arrival first");
            got.sort();
            want.sort();
            assert_eq!(got, want, "{dir:?} after {after:?}");
        }
    }

    /// [`assert_entries_after_match_edge_table_in`] for the out-edges of `v`
    /// and the in-edges of every vertex they reach.
    fn assert_entries_after_match_edge_table(g: &DynamicGraph, v: &str, after: &[i64]) {
        assert_entries_after_match_edge_table_in(g, Direction::Out, v, after);
        let flow = g.edge_type_id("flow").unwrap();
        let hub = g.vertex_by_key(v).unwrap();
        for (_, dst) in g.neighbors(hub, Direction::Out, flow) {
            let dst = g.vertex_key(dst).unwrap();
            assert_entries_after_match_edge_table_in(g, Direction::In, dst, after);
        }
    }

    #[test]
    fn entries_after_of_a_time_ordered_bucket() {
        let mut g = DynamicGraph::new(GraphConfig::with_retention(Duration::from_secs(100)));
        for t in 0..20 {
            g.ingest(&event("hub", &format!("p{}", t % 3), "flow", t));
            g.ingest(&event("hub", "p0", "dns", t));
        }
        assert_entries_after_match_edge_table(&g, "hub", &[-1, 0, 7, 18, 19, 50]);
        let hub = g.vertex_by_key("hub").unwrap();
        let flow = g.edge_type_id("flow").unwrap();
        let newer = g.entries_after(Direction::Out, hub, flow, Timestamp::from_secs(16));
        assert_eq!(newer.count(), 3);
        // A vertex without adjacency of that type, and one the graph never saw.
        let p0 = g.vertex_by_key("p0").unwrap();
        assert_eq!(
            g.entries_after(Direction::Out, p0, flow, Timestamp(i64::MIN))
                .count(),
            0
        );
        let unseen = VertexId(1_000);
        assert_eq!(
            g.entries_after(Direction::Out, unseen, flow, Timestamp(i64::MIN))
                .count(),
            0
        );
    }

    #[test]
    fn entries_after_of_a_disordered_bucket_scan_past_the_late_arrival() {
        let mut g = DynamicGraph::new(GraphConfig::with_retention(Duration::from_secs(100)));
        for t in 10..20 {
            g.ingest(&event("hub", "p", "flow", t));
        }
        g.ingest(&event("hub", "late", "flow", 3)); // behind every earlier arrival
        g.ingest(&event("hub", "p", "flow", 20));
        g.ingest(&event("hub", "p", "flow", 21));
        assert_entries_after_match_edge_table(&g, "hub", &[0, 2, 3, 12, 20, 21]);
        // The late edge sits between newer ones: an early exit at the first
        // old entry would return 2 of the 5 edges newer than t=16.
        let hub = g.vertex_by_key("hub").unwrap();
        let flow = g.edge_type_id("flow").unwrap();
        let newer = g.entries_after(Direction::Out, hub, flow, Timestamp::from_secs(16));
        assert_eq!(newer.count(), 5);
    }

    #[test]
    fn entries_after_skip_stale_entries_before_compaction() {
        let mut g = DynamicGraph::new(GraphConfig::with_retention(Duration::from_secs(10)));
        // 20 of the 31 entries are stale at the end, below the compaction
        // threshold of 32: the adjacency list still holds them.
        for t in 0..=30 {
            g.ingest(&event("hub", "p", "flow", t));
        }
        let hub = g.vertex_by_key("hub").unwrap();
        assert_eq!(g.adjacency[hub.index()].dead_len(), 20);
        assert_entries_after_match_edge_table(&g, "hub", &[-1, 5, 19, 20, 21, 30]);
        // Same with an out-of-order arrival that is dead on arrival and one
        // that is not: the bucket is disordered and partly stale.
        g.ingest(&event("hub", "dead", "flow", 2));
        g.ingest(&event("hub", "late", "flow", 25));
        g.ingest(&event("hub", "p", "flow", 33));
        assert_entries_after_match_edge_table(&g, "hub", &[-1, 5, 22, 23, 24, 25, 30, 33]);
    }

    #[test]
    fn entries_after_stop_at_a_retention_shorter_than_the_callers_window() {
        // An explicit retention wins over query windows, so a caller may ask
        // for a horizon the graph no longer holds.
        let mut g = DynamicGraph::new(GraphConfig::with_retention(Duration::from_secs(5)));
        for t in 0..=30 {
            g.ingest(&event("hub", "p", "flow", t));
        }
        let hub = g.vertex_by_key("hub").unwrap();
        let flow = g.edge_type_id("flow").unwrap();
        let window_start = g.now().minus(Duration::from_secs(60));
        assert_eq!(
            g.entries_after(Direction::Out, hub, flow, window_start)
                .count(),
            6
        );
        assert_entries_after_match_edge_table(&g, "hub", &[-30, 0, 24, 25, 26]);
    }

    #[test]
    fn widening_the_retention_does_not_revive_stale_entries() {
        let mut g = DynamicGraph::new(GraphConfig::with_retention(Duration::from_secs(5)));
        for t in 0..=20 {
            g.ingest(&event("hub", "p", "flow", t));
        }
        let hub = g.vertex_by_key("hub").unwrap();
        assert_eq!(g.adjacency[hub.index()].dead_len(), 15);
        // The expired edges' timestamps are inside the new horizon.
        g.set_retention(Some(Duration::from_secs(100)));
        assert_eq!(g.adjacency[hub.index()].dead_len(), 0);
        assert_entries_after_match_edge_table(&g, "hub", &[-1, 10, 15, 16]);
        g.ingest(&event("hub", "p", "flow", 8)); // live under the new horizon
        assert_entries_after_match_edge_table(&g, "hub", &[-1, 7, 8, 16]);
    }
}
