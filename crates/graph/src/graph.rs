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
use crate::keys::{key_hash, KeyIndex};
use crate::log::EdgeLog;
use crate::stats::GraphStats;
use crate::vertex::Vertex;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Configuration of a [`DynamicGraph`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GraphConfig {
    /// How long edges are retained after their timestamp. `None` keeps all edges.
    ///
    /// For correctness of a continuous query with window `tW` the retention
    /// must be at least `tW`; the engine in `streamworks-core` enforces that.
    pub retention: Option<Duration>,
}

impl GraphConfig {
    /// Config with a retention horizon.
    pub fn with_retention(retention: Duration) -> Self {
        GraphConfig {
            retention: Some(retention),
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
}

/// The `id` of a parked slot's record: no vertex has it.
const PARKED: VertexId = VertexId(u32::MAX);

/// A directed, typed, timestamped multigraph with sliding-window retention.
///
/// **Vertex lifecycle.** A vertex is created when an event names a key that
/// has no vertex, and is evicted when its last retained edge expires: its
/// adjacency list is emptied and its slot is *parked* in a FIFO stamped with
/// stream time, still holding its key (which stays in the key index) and its
/// type. A key that speaks again under the same type while its slot is
/// parked takes the slot back: the same vertex resumes. Otherwise the slot
/// goes, key buffer and adjacency buffers and all, to the next new vertex
/// once it has waited out the quarantine, so a warm graph allocates nothing
/// for a new vertex. A [`VertexId`] therefore names one vertex only while
/// that vertex keeps a retained edge or its slot stays parked.
///
/// **Quarantine: never reuse an id inside a horizon.** A parked slot goes to
/// another key only once `now − evicted_at > quarantine`, where the
/// quarantine is at least the retention and every window handed to
/// [`DynamicGraph::reserve_ids_for`]. Matcher state that names the evicted
/// vertex — a partial match in a join store, an RPQ product node — was built
/// from its edges, all older than `evicted_at − retention` (they had
/// expired). Any edge the slot's next vertex is given is live on arrival, so
/// newer than `now − retention > evicted_at + quarantine − retention`. The
/// two are more than `quarantine ≥ tW` apart: a join of stale and new state
/// fails the window check, and the RPQ matcher, which prunes entries older
/// than its window before every edge, has dropped the stale nodes before the
/// new vertex's first edge reaches it. Nor is stale state *looked at* under
/// the new vertex by a matcher that hides everything older than `now − tW`
/// before each probe, as the join stores of `streamworks-core` do, however
/// rarely it sweeps: a stale partial match has `earliest ≤ evicted_at −
/// retention`, and the slot changes hands only at `now > evicted_at +
/// quarantine`, so `earliest < now − quarantine ≤ now − tW`.
#[derive(Debug, Clone)]
pub struct DynamicGraph {
    config: GraphConfig,
    vtype_interner: Interner,
    etype_interner: Interner,
    /// Vertex slots, live and parked (a parked record's `id` is `PARKED`).
    vertices: Vec<Vertex>,
    /// Adjacency per vertex slot.
    adjacency: Vec<AdjacencyList>,
    /// Key → slot of every live vertex, and of every parked slot whose key
    /// has not made a new vertex since.
    keys: KeyIndex,
    /// Evicted slots with their eviction time and eviction count, oldest
    /// first. An entry whose slot has been taken back by its key since (the
    /// count moved on, or the slot is live) is skipped.
    parked: VecDeque<(Timestamp, VertexId, u32)>,
    /// Evictions per slot.
    evictions: Vec<u32>,
    /// How long a parked slot waits before another key gets it (type docs).
    quarantine: Duration,
    /// Vertices not parked.
    live_vertices: usize,
    edges: EdgeLog,
    /// Largest observed stream timestamp.
    now: Timestamp,
    /// Live edge count per edge type.
    edge_type_counts: Vec<u64>,
    /// Live vertex count per vertex type.
    vertex_type_counts: Vec<u64>,
    /// Vertices created over the graph's lifetime (a key that returns after
    /// its vertex was evicted counts again).
    vertices_created: u64,
    /// Per vertex type, the vertices created by an ingested edge that was
    /// retained on arrival (see [`Self::vertices_created_of_type`]).
    created_by_type: Vec<u64>,
    /// Ingested edges retained on arrival (see [`Self::retained_edge_count`]).
    retained_edges: u64,
    /// Cumulative number of ingested edges (including expired ones).
    ingested_edges: u64,
    /// The source vertex of the last ingested event and the type its event
    /// named (see `ensure_source`).
    last_source: Option<(VertexId, TypeId)>,
}

impl DynamicGraph {
    /// Creates an empty graph with the given configuration.
    pub fn new(config: GraphConfig) -> Self {
        DynamicGraph {
            vtype_interner: Interner::new(),
            etype_interner: Interner::new(),
            vertices: Vec::new(),
            adjacency: Vec::new(),
            keys: KeyIndex::default(),
            parked: VecDeque::new(),
            evictions: Vec::new(),
            quarantine: config.retention.unwrap_or(Duration::ZERO),
            live_vertices: 0,
            edges: EdgeLog::new(),
            now: Timestamp(i64::MIN),
            edge_type_counts: Vec::new(),
            vertex_type_counts: Vec::new(),
            vertices_created: 0,
            created_by_type: Vec::new(),
            retained_edges: 0,
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

    /// Resolves the external key of a vertex id: the live vertex's, or,
    /// while the slot is parked, the key of the vertex evicted from it. The
    /// quarantine keeps a slot parked for as long as matcher state naming
    /// the evicted vertex can still complete a match (see the type docs), so
    /// every match resolves to the keys its edges joined.
    pub fn vertex_key(&self, v: VertexId) -> Option<&str> {
        self.vertices.get(v.index()).map(|vx| vx.key.as_str())
    }

    /// Looks up a live vertex by its external key.
    pub fn vertex_by_key(&self, key: &str) -> Option<VertexId> {
        let vertices = &self.vertices;
        (self.keys)
            .find(key_hash(key), |slot| vertices[slot as usize].key == key)
            .map(VertexId)
            .filter(|&v| self.vertices[v.index()].id == v)
    }

    // ------------------------------------------------------------------
    // Mutation
    // ------------------------------------------------------------------

    /// Ensures a vertex with the given external key and type exists, returning
    /// its id and whether it was created.
    ///
    /// If the vertex already exists its type is *not* changed (the first
    /// observation wins). A key whose vertex was evicted takes its parked
    /// slot back (not a creation) when it returns under the same type;
    /// under another type, or once the slot went to another key, it makes a
    /// new vertex of the type it is given.
    pub fn ensure_vertex(&mut self, key: &str, vtype_name: &str) -> (VertexId, bool) {
        let vtype = self.intern_vertex_type(vtype_name);
        self.ensure_vertex_typed(key, vtype)
    }

    /// Like [`Self::ensure_vertex`] but with a pre-interned type id.
    pub fn ensure_vertex_typed(&mut self, key: &str, vtype: TypeId) -> (VertexId, bool) {
        let hash = key_hash(key);
        let vertices = &self.vertices;
        if let Some(slot) = self.keys.find(hash, |s| vertices[s as usize].key == key) {
            let v = VertexId(slot);
            let vx = &mut self.vertices[v.index()];
            if vx.id == v {
                return (v, false);
            }
            if vx.vtype == vtype {
                // The key's parked vertex resumes; its FIFO entry goes stale.
                vx.id = v;
                self.vertex_type_counts[vtype.index()] += 1;
                self.live_vertices += 1;
                return (v, false);
            }
            // Under another label the key makes a new vertex; the parked
            // slot leaves the index and waits for reuse.
            self.keys.remove(hash, slot);
        }
        let id = self.take_parked().unwrap_or_else(|| {
            self.vertices.push(Vertex {
                id: PARKED,
                key: String::new(),
                vtype,
                attrs: Attrs::new(),
                out_degree: 0,
                in_degree: 0,
            });
            self.adjacency.push(AdjacencyList::new());
            self.evictions.push(0);
            VertexId(self.vertices.len() as u32 - 1)
        });
        let vx = &mut self.vertices[id.index()];
        vx.id = id;
        vx.key.clear();
        vx.key.push_str(key);
        vx.vtype = vtype;
        vx.attrs = Attrs::new();
        self.keys.insert(hash, id.0);
        if vtype.index() >= self.vertex_type_counts.len() {
            self.vertex_type_counts.resize(vtype.index() + 1, 0);
        }
        self.vertex_type_counts[vtype.index()] += 1;
        self.vertices_created += 1;
        self.live_vertices += 1;
        (id, true)
    }

    /// The oldest parked slot, if it may go to another key (type docs),
    /// with its old key dropped from the index.
    fn take_parked(&mut self) -> Option<VertexId> {
        let horizon = self.now.minus(self.quarantine);
        while let Some(&(at, v, n)) = self.parked.front() {
            let vx = &self.vertices[v.index()];
            if vx.id == PARKED && self.evictions[v.index()] == n {
                if at >= horizon {
                    return None;
                }
                self.keys.remove(key_hash(&vx.key), v.0);
                self.parked.pop_front();
                return Some(v);
            }
            self.parked.pop_front();
        }
        None
    }

    /// Keeps an evicted vertex's id out of reuse for at least `window` of
    /// stream time, so no matcher state up to `window` old meets the id's
    /// next vertex (see the type docs). The retention is always covered;
    /// the engine calls this with every query window, since an explicit
    /// retention may be shorter than one. The quarantine never shrinks.
    pub fn reserve_ids_for(&mut self, window: Duration) {
        self.quarantine = self.quarantine.max(window);
    }

    /// Sets an attribute on an existing vertex.
    pub fn set_vertex_attr(
        &mut self,
        v: VertexId,
        key: impl Into<String>,
        value: impl Into<crate::AttrValue>,
    ) -> Result<(), GraphError> {
        let vx = (self.vertices.get_mut(v.index()))
            .filter(|vx| vx.id == v)
            .ok_or(GraphError::UnknownVertex(v))?;
        vx.attrs.set(key, value);
        Ok(())
    }

    /// Ingests a single edge event: resolves or creates both endpoint
    /// vertices, inserts the edge, advances stream time and expires edges that
    /// fall out of the retention window. An edge already behind the horizon
    /// expires at once: it is never live.
    pub fn ingest(&mut self, event: &EdgeEvent) -> IngestResult {
        self.now = self.now.max(event.timestamp);
        let (src, src_created) = self.ensure_source(&event.src_key, &event.src_type);
        let (dst, dst_created) = self.ensure_vertex(&event.dst_key, &event.dst_type);
        let etype = self.intern_edge_type(&event.edge_type);
        let edge = self.insert_edge(src, dst, etype, event.timestamp, event.attrs.clone());
        self.expire();
        if self.edges.contains(edge) {
            self.retained_edges += 1;
            for (v, created) in [(src, src_created), (dst, dst_created)] {
                if created {
                    let t = self.vertices[v.index()].vtype.index();
                    if t >= self.created_by_type.len() {
                        self.created_by_type.resize(t + 1, 0);
                    }
                    self.created_by_type[t] += 1;
                }
            }
        } else {
            // Expired on arrival: no matcher saw the edge, nor a vertex it
            // created, so such a vertex's slot needs no quarantine.
            for (v, created) in [(src, src_created), (dst, dst_created)] {
                let parked = created.then(|| self.parked.iter().rposition(|p| p.1 == v));
                if let Some((_, v, n)) = parked.flatten().and_then(|at| self.parked.remove(at)) {
                    self.parked.push_front((Timestamp(i64::MIN), v, n));
                }
            }
        }
        IngestResult {
            edge,
            src,
            dst,
            src_created,
            dst_created,
        }
    }

    /// [`Self::ensure_vertex`] for the source of an ingested event. An
    /// entity's edges tend to arrive together (an article and its mentions, a
    /// host and its burst of flows), so the last source is remembered and
    /// recognised by two string compares in place of a hash look-up. The
    /// type label has to repeat as well: a label not seen before must still be
    /// interned, even though an existing vertex keeps its first type.
    fn ensure_source(&mut self, key: &str, vtype_name: &str) -> (VertexId, bool) {
        if let Some((v, named)) = self.last_source {
            if self.vertices[v.index()].key == key
                && self.vertex_type_name(named) == Some(vtype_name)
            {
                return (v, false);
            }
        }
        let named = self.intern_vertex_type(vtype_name);
        let (v, created) = self.ensure_vertex_typed(key, named);
        self.last_source = Some((v, named));
        (v, created)
    }

    /// Inserts an edge between two live vertices with a pre-interned type,
    /// then expires what falls behind the horizon. Returns the new edge id.
    pub fn add_edge(
        &mut self,
        src: VertexId,
        dst: VertexId,
        etype: TypeId,
        timestamp: Timestamp,
        attrs: Attrs,
    ) -> Result<EdgeId, GraphError> {
        for v in [src, dst] {
            if self.vertex(v).is_none() {
                return Err(GraphError::UnknownVertex(v));
            }
        }
        if etype.index() >= self.edge_type_counts.len() {
            return Err(GraphError::UnknownType(etype));
        }
        self.now = self.now.max(timestamp);
        let edge = self.insert_edge(src, dst, etype, timestamp, attrs);
        self.expire();
        Ok(edge)
    }

    fn insert_edge(
        &mut self,
        src: VertexId,
        dst: VertexId,
        etype: TypeId,
        timestamp: Timestamp,
        attrs: Attrs,
    ) -> EdgeId {
        let id = EdgeId(self.ingested_edges);
        self.ingested_edges += 1;
        self.edges.push(Edge {
            id,
            src,
            dst,
            etype,
            timestamp,
            attrs,
        });
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
        id
    }

    /// Advances stream time without inserting an edge, expiring old edges.
    /// Returns how many expired.
    pub fn advance_time(&mut self, ts: Timestamp) -> usize {
        self.now = self.now.max(ts);
        self.expire()
    }

    /// Expires every edge behind the retention horizon, oldest first.
    fn expire(&mut self) -> usize {
        let Some(cutoff) = self.horizon() else {
            return 0;
        };
        let mut expired = 0;
        while let Some(edge) = self.edges.pop_expired(cutoff) {
            self.retire(&edge);
            expired += 1;
        }
        expired
    }

    /// Removes an expired edge from the counters and adjacency, and evicts
    /// an endpoint it leaves without a retained edge.
    fn retire(&mut self, edge: &Edge) {
        self.edge_type_counts[edge.etype.index()] -= 1;
        self.vertices[edge.src.index()].out_degree -= 1;
        self.vertices[edge.dst.index()].in_degree -= 1;
        // Both dead notes land before any compaction: a self-loop touches
        // the same list twice, and compacting in between (which resets the
        // live counters) would make the second note double-decrement.
        self.adjacency[edge.src.index()].note_dead(Direction::Out, edge.etype);
        self.adjacency[edge.dst.index()].note_dead(Direction::In, edge.etype);
        let far = (edge.dst != edge.src).then_some(edge.dst);
        for v in std::iter::once(edge.src).chain(far) {
            if self.vertices[v.index()].degree() == 0 {
                self.evict(v);
            } else if self.adjacency[v.index()].should_compact() {
                let edges = &self.edges;
                self.adjacency[v.index()].compact(|e| edges.contains(e));
            }
        }
    }

    /// Evicts a vertex that has no retained edge left and parks its slot.
    fn evict(&mut self, v: VertexId) {
        let vx = &mut self.vertices[v.index()];
        self.vertex_type_counts[vx.vtype.index()] -= 1;
        vx.id = PARKED;
        self.adjacency[v.index()].clear();
        if self.last_source.is_some_and(|(s, _)| s == v) {
            self.last_source = None;
        }
        self.live_vertices -= 1;
        let n = &mut self.evictions[v.index()];
        *n = n.wrapping_add(1);
        self.parked.push_back((self.now, v, *n));
        // Keys that keep taking their slots back leave stale entries behind.
        let parked = self.vertices.len() - self.live_vertices;
        if self.parked.len() > 2 * parked + 64 {
            let (vertices, evictions) = (&self.vertices, &self.evictions);
            (self.parked)
                .retain(|&(_, v, n)| vertices[v.index()].id == PARKED && evictions[v.index()] == n);
        }
    }

    // ------------------------------------------------------------------
    // Lookup and iteration
    // ------------------------------------------------------------------

    /// Returns the record of the live vertex `v` (`None` for a parked slot).
    #[inline]
    pub fn vertex(&self, v: VertexId) -> Option<&Vertex> {
        self.vertices.get(v.index()).filter(|vx| vx.id == v)
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

    /// Number of live vertices: those with a retained edge, plus any
    /// created by [`Self::ensure_vertex`] that never had one.
    pub fn vertex_count(&self) -> usize {
        self.live_vertices
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
        self.now
    }

    /// The retention window, if configured.
    pub fn retention(&self) -> Option<Duration> {
        self.config.retention
    }

    /// The retention horizon: edges older than this have expired. `None`
    /// when retention is unbounded.
    fn horizon(&self) -> Option<Timestamp> {
        self.config.retention.map(|r| self.now.minus(r))
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
        if let Some(retention) = retention {
            self.reserve_ids_for(retention);
        }
    }

    /// Live out-degree + in-degree of a vertex.
    pub fn degree(&self, v: VertexId) -> u32 {
        self.vertex(v).map(Vertex::degree).unwrap_or(0)
    }

    /// Number of live vertices of a given type.
    pub fn vertices_of_type(&self, t: TypeId) -> u64 {
        self.vertex_type_counts.get(t.index()).copied().unwrap_or(0)
    }

    /// Number of live edges of a given type.
    pub fn edges_of_type(&self, t: TypeId) -> u64 {
        self.edge_type_counts.get(t.index()).copied().unwrap_or(0)
    }

    /// Vertices of type `t` created by [`Self::ingest`] for an edge that was
    /// retained on arrival, over the graph's lifetime. A key counts again
    /// when it makes a new vertex: after its slot went to another key, or
    /// under another type; it does not when it takes its parked slot back.
    /// A vertex created for an edge already behind the horizon is not
    /// counted.
    pub fn vertices_created_of_type(&self, t: TypeId) -> u64 {
        self.created_by_type.get(t.index()).copied().unwrap_or(0)
    }

    /// Edges [`Self::ingest`] retained on arrival (not already behind the
    /// horizon), over the graph's lifetime.
    pub fn retained_edge_count(&self) -> u64 {
        self.retained_edges
    }

    /// Iterates the records of the live vertices, in slot order.
    pub fn vertices(&self) -> impl Iterator<Item = &Vertex> {
        self.vertices.iter().filter(|vx| vx.id != PARKED)
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
        let horizon = self.horizon().unwrap_or(Timestamp(i64::MIN));
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
            vertices: self.vertices_created,
            live_vertices: self.vertex_count() as u64,
            vertex_slots: self.vertices.len() as u64,
            live_edges: self.live_edge_count() as u64,
            ingested_edges: self.ingested_edges,
            expired_edges: self.edges.expired_total(),
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
        g.ingest(&event("a", "b", "flow", 1));
        let a = g.vertex_by_key("a").unwrap();
        let flow = g.edge_type_id("flow").unwrap();
        assert_eq!(g.degree_by_type(a, Direction::Out, flow), 41);
        for _ in 0..38 {
            g.ingest(&event("a", "a", "flow", 2));
        }
        assert_eq!(g.advance_time(Timestamp::from_secs(3)), 41);
        assert_eq!(g.degree_by_type(a, Direction::Out, flow), 38);
        assert_eq!(g.degree_by_type(a, Direction::In, flow), 38);

        assert_eq!(g.advance_time(Timestamp::from_secs(100)), 38);
        assert_eq!(g.live_edge_count(), 0);
        assert_eq!(g.vertex_by_key("a"), None, "evicted with its last loop");
        assert_eq!(g.degree_by_type(a, Direction::Out, flow), 0);
        // A fresh loop counts 1 on both sides.
        g.ingest(&event("a", "a", "flow", 100));
        let a = g.vertex_by_key("a").unwrap();
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
    fn a_vertex_gone_quiet_is_evicted_and_its_slot_reused_after_the_quarantine() {
        // Ever-new sources into one hub: each source leaves with its last
        // edge, and its slot waits out the quarantine (the 10 s retention)
        // before a new source takes it, buffers and all.
        let mut g = DynamicGraph::new(GraphConfig::with_retention(Duration::from_secs(10)));
        for i in 0..200 {
            g.ingest(&event(&format!("s{i}"), "hub", "flow", i));
            g.ingest(&event(&format!("s{i}"), "hub", "login", i));
        }
        assert_eq!(g.vertex_by_key("s0"), None);
        // 11 sources hold a retained edge, 11 wait in quarantine, the hub.
        let stats = g.stats();
        assert_eq!((stats.live_vertices, stats.vertex_slots), (12, 23));
        assert_eq!(stats.vertices, 201);
        assert_eq!(g.vertices().count(), 12);
        let hub = g.vertex_by_key("hub").unwrap();
        let stored: usize = g.adjacency.iter().map(AdjacencyList::raw_len).sum();
        assert_eq!(
            stored - g.adjacency[hub.index()].raw_len(),
            g.live_edge_count()
        );
        let ip = g.vertex_type_id("IP").unwrap();
        assert_eq!(g.vertices_of_type(ip), 12);

        // A key that speaks again is a new vertex in a recycled slot, typed
        // by its new event, with an empty neighbourhood of its own.
        let back = g.ingest(&EdgeEvent::new(
            "s0",
            "Host",
            "hub",
            "IP",
            "flow",
            Timestamp::from_secs(200),
        ));
        assert!(back.src_created && back.src.index() < 23);
        let flow = g.edge_type_id("flow").unwrap();
        assert_eq!(g.degree_by_type(back.src, Direction::Out, flow), 1);
        assert_eq!(g.neighbors(back.src, Direction::Out, flow).count(), 1);
        assert_eq!(
            g.vertex(back.src).unwrap().vtype,
            g.vertex_type_id("Host").unwrap()
        );
        assert_eq!(g.vertex_key(back.src), Some("s0"));
    }

    /// Ten windows of ever-new sources into fixed hubs: the vertex slots
    /// and the key index after window 10 stay within 1.5× their size after
    /// window 2 (`streamworks-core` repeats this through an engine).
    #[test]
    fn memory_stays_bounded_over_ten_windows_of_new_vertices() {
        let mut g = DynamicGraph::new(GraphConfig::with_retention(Duration::from_secs(60)));
        let mut sizes = Vec::new();
        for t in 0..10 * 60 {
            for j in 0..3 {
                g.ingest(&event(
                    &format!("s{t}-{j}"),
                    &format!("hub{}", j % 2),
                    "flow",
                    t,
                ));
            }
            if (t + 1) % 60 == 0 {
                let stats = g.stats();
                assert!(stats.live_vertices as usize <= g.keys.len());
                sizes.push((stats.vertex_slots, g.keys.len() as u64));
            }
        }
        let (two, ten) = (sizes[1], sizes[9]);
        assert!(two.0 > 300 && two.1 > 150, "{two:?}");
        assert!(2 * ten.0 <= 3 * two.0, "vertex slots {two:?} -> {ten:?}");
        assert!(2 * ten.1 <= 3 * two.1, "key index {two:?} -> {ten:?}");
        assert_eq!(g.stats().vertices, 1_802);
    }

    #[test]
    fn a_parked_slot_waits_out_the_quarantine() {
        let mut g = DynamicGraph::new(GraphConfig::with_retention(Duration::from_secs(10)));
        g.reserve_ids_for(Duration::from_secs(30));
        g.ingest(&event("a", "hub", "flow", 0));
        g.ingest(&event("b", "hub", "flow", 11)); // a leaves at t=11
        let a_slot = VertexId(0);
        assert!(g.vertex(a_slot).is_none() && g.vertex_by_key("a").is_none());
        // The parked slot still resolves to the evicted vertex's key.
        assert_eq!(g.vertex_key(a_slot), Some("a"));
        assert!(g.set_vertex_attr(a_slot, "x", 1i64).is_err());
        // 30 s of quarantine from t=11: t=41 is not past it, t=42 is.
        let early = g.ingest(&event("c", "hub", "flow", 41));
        assert_ne!(early.src, a_slot);
        let late = g.ingest(&event("d", "hub", "flow", 42));
        assert_eq!((late.src, late.src_created), (a_slot, true));
        assert_eq!(g.vertex_key(a_slot), Some("d"));
        assert_eq!(g.stats().vertex_slots, 4);
    }

    #[test]
    fn a_key_back_under_its_type_resumes_its_parked_vertex() {
        let mut g = DynamicGraph::new(GraphConfig::with_retention(Duration::from_secs(10)));
        let first = g.ingest(&event("a", "hub", "flow", 0));
        g.ingest(&event("b", "hub", "flow", 11)); // a is evicted
        assert_eq!(g.vertex_by_key("a"), None);
        assert_eq!(g.vertex_count(), 2);
        // Back under the same type: the same vertex, not a creation.
        let back = g.ingest(&event("a", "hub", "flow", 12));
        assert_eq!((back.src, back.src_created), (first.src, false));
        assert_eq!(g.vertex_by_key("a"), Some(first.src));
        assert_eq!((g.vertex_count(), g.stats().vertices), (3, 3));
        // Evicted again, then back under another type: a new vertex.
        g.ingest(&event("c", "hub", "flow", 30));
        let host = EdgeEvent::new("a", "Host", "hub", "IP", "flow", Timestamp::from_secs(31));
        let retyped = g.ingest(&host);
        assert!(retyped.src_created && retyped.src != first.src);
        assert_eq!(
            g.vertex(retyped.src).unwrap().vtype,
            g.vertex_type_id("Host").unwrap()
        );
        assert_eq!(g.vertex_by_key("a"), Some(retyped.src));
        // The parked slot still renders its key, and goes to another key
        // after b's, parked just before it.
        assert_eq!(g.vertex_key(first.src), Some("a"));
        assert_eq!(g.ingest(&event("d", "hub", "flow", 50)).src, VertexId(2));
        let later = g.ingest(&event("e", "hub", "flow", 50));
        assert_eq!((later.src, later.src_created), (first.src, true));
        assert_eq!(g.vertex_key(first.src), Some("e"));
        // That left the retyped vertex's index entry alone: it resumes too.
        let host = EdgeEvent::new("a", "Host", "hub", "IP", "flow", Timestamp::from_secs(51));
        let again = g.ingest(&host);
        assert_eq!((again.src, again.src_created), (retyped.src, false));
    }

    #[test]
    fn an_edge_expired_on_arrival_leaves_no_vertex_behind() {
        let mut g = DynamicGraph::new(GraphConfig::with_retention(Duration::from_secs(10)));
        g.ingest(&event("a", "b", "flow", 100));
        for i in 0..50 {
            let r = g.ingest(&event(&format!("old{i}"), "b", "flow", i));
            assert!(g.edge(r.edge).is_none());
            assert_eq!(g.vertex_by_key(&format!("old{i}")), None);
        }
        assert_eq!(g.stats().vertex_slots, 3);
        assert_eq!(g.stats().expired_edges, 50);
        let b = g.vertex_by_key("b").unwrap();
        assert_eq!(g.degree(b), 1);
    }

    #[test]
    fn creations_and_retained_edges_count_only_edges_live_on_arrival() {
        let mut g = DynamicGraph::new(GraphConfig::with_retention(Duration::from_secs(10)));
        g.ingest(&event("a", "hub", "flow", 0));
        g.ingest(&event("old", "hub", "flow", -20)); // expired on arrival
        let ip = g.vertex_type_id("IP").unwrap();
        assert_eq!(g.vertices_created_of_type(ip), 2);
        assert_eq!((g.retained_edge_count(), g.stats().vertices), (1, 3));
        // a is evicted; back under its type it resumes, under another it is new.
        g.ingest(&event("b", "hub", "flow", 11));
        g.ingest(&event("a", "hub", "flow", 12));
        assert_eq!(g.vertices_created_of_type(ip), 3);
        g.ingest(&event("c", "hub", "flow", 30));
        g.ingest(&EdgeEvent::new(
            "a",
            "Host",
            "hub",
            "IP",
            "flow",
            Timestamp::from_secs(31),
        ));
        let host = g.vertex_type_id("Host").unwrap();
        assert_eq!(
            (
                g.vertices_created_of_type(ip),
                g.vertices_created_of_type(host)
            ),
            (4, 1)
        );
        assert_eq!(g.retained_edge_count(), 5);
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

        g.ingest(&event("a", "d", "flow", 20));
        assert_eq!(g.stats().expired_edges, 2);
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
        assert_eq!(g.advance_time(Timestamp::from_secs(100)), 1);
        assert_eq!(g.live_edge_count(), 0);
        assert_eq!(g.stats().expired_edges, 1);
        assert_eq!(g.vertex_count(), 0);
    }

    #[test]
    fn horizon_reflects_retention() {
        let mut g = DynamicGraph::new(GraphConfig::with_retention(Duration::from_secs(10)));
        assert!(g.horizon().is_some());
        g.ingest(&event("a", "b", "flow", 100));
        assert_eq!(g.horizon(), Some(Timestamp::from_secs(90)));
        // A narrower retention moves the horizon at once.
        g.set_retention(Some(Duration::from_secs(5)));
        assert_eq!(g.horizon(), Some(Timestamp::from_secs(95)));
        assert_eq!(DynamicGraph::unbounded().horizon(), None);
    }

    #[test]
    fn no_retention_never_expires() {
        let mut g = DynamicGraph::unbounded();
        for t in 0..1000 {
            g.ingest(&event(&format!("s{t}"), "hub", "flow", t));
        }
        assert_eq!(g.advance_time(Timestamp::from_secs(1_000_000)), 0);
        assert_eq!((g.live_edge_count(), g.vertex_count()), (1000, 1001));
        assert_eq!(g.stats().expired_edges, 0);
    }

    #[test]
    fn stream_time_never_regresses() {
        let mut g = DynamicGraph::new(GraphConfig::with_retention(Duration::from_secs(10)));
        g.ingest(&event("a", "b", "flow", 50));
        g.ingest(&event("a", "b", "flow", 30)); // late, and behind the horizon
        assert_eq!(g.now(), Timestamp::from_secs(50));
        assert_eq!(g.live_edge_count(), 1);
        g.advance_time(Timestamp::from_secs(40));
        assert_eq!(g.now(), Timestamp::from_secs(50));
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
        // The edge log's bound is its own test; here: neither do the
        // vertices the expired-on-arrival edges named.
        assert_eq!(g.stats().vertex_slots, 4);
        // The straggler is still fully addressable after leaving the deque.
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
