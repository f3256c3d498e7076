//! The incremental SJ-Tree matcher (paper §4.2).
//!
//! One [`SjTreeMatcher`] is instantiated per registered query. It owns one
//! [`SharedJoinStore`] per **internal** SJ-Tree node — the same per-parent
//! join index the sharded workers run on — and implements the paper's
//! two-step algorithm for every incoming edge:
//!
//! 1. **Local search** — match the edge against the search primitives at the
//!    leaves; each embedding found enters the join propagation at its leaf.
//! 2. **Join propagation** — a match at a node is filed on its side of the
//!    parent's shared store, probing the sibling side with the parent's
//!    cut-subgraph as the join key in the same hash lookup; every successful
//!    combination climbs to the parent, repeating until no larger match can
//!    be produced. A combination at the root that satisfies `τ(g) < tW` is a
//!    complete match.
//!
//! The climb is **in place and depth-first** (`Climb::file`): the probe
//! closure handed to [`SharedJoinStore::probe_then_insert`] files each
//! successful merge straight into the *parent's* store, so a joined match
//! goes from [`PartialMatch::merge`] to the ring slot that keeps it with no
//! buffer in between. A node's id is smaller than its parent's
//! (`SjTreeShape::validate`), so splitting the store vector after a node
//! yields its parent's store and, disjointly, every store above that.
//!
//! **Lazy join sides** (the Lazy Search of arxiv 1407.3745). One child V of
//! an internal node P may be *lazy*: internal, not the root, not the child
//! of a lazy node, at most one per parent, nothing at or below a node the
//! sharing index feeds. With S its sibling and X a key of P's cut, X is
//! *hot* while P's S side holds a slot under X. A V match under a cold X is
//! never built: the check runs before the merge at V's store. The first S
//! match under a cold X tombstones what V's side still holds under X and is
//! filed; at the end of `absorb` (V's store may lie below the climb's split)
//! every live V match under X is rebuilt from V's children, through a second
//! chain keyed on P's cut, and filed with a probe of S. **Invariant:** while
//! X is hot, V's side holds every live V match under X; while X is cold no S
//! partner is live, so a dropped V match loses nothing. Each embedding still
//! completes once, at its latest edge: the S or V match arriving last meets
//! the other filed or rebuilt, never both, and a climb that reaches S never
//! enters V's subtree, so the rebuild reads V's store as it was.
//! Prototype on `join_hot` (this box): 148–154 k → 271–278 k ev/s,
//! p50 4.5 → 1.7 µs, live matches 10 503 → 1 879.

use crate::anchors::AnchorIndex;
use crate::binding::PartialMatch;
use crate::constraints::CompiledConstraints;
use crate::join::{self, NodeRoute, NO_PARENT};
use crate::local_search::{find_primitive_matches_anchored, LocalSearchStats};
use crate::match_store::{JoinKey, JoinSide, SharedJoinStore};
use crate::metrics::QueryMetrics;
use smallvec::SmallVec;
use streamworks_graph::{Duration, DynamicGraph, Edge, Timestamp, TypeId, VertexId};
use streamworks_query::{QueryGraph, QueryPlan, QueryVertexId, SjNodeId};

/// A node's part in lazy materialisation (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Eager,
    /// Its matches are built only under parent keys its sibling holds.
    Lazy,
    /// The sibling of the lazy node it names: its matches turn keys hot.
    Awaited(u32),
}

/// Picks the lazy nodes top-down: an internal node that is not the root, not
/// the child of a lazy node, not at or below a node in `fed`, and the first
/// such child of its parent.
fn roles(plan: &QueryPlan, fed: &[SjNodeId]) -> Vec<Role> {
    let shape = &plan.shape;
    let mut roles = vec![Role::Eager; shape.node_count()];
    let mut blocked: Vec<bool> = (0..shape.node_count())
        .map(|n| fed.contains(&SjNodeId(n)))
        .collect();
    // A parent's id exceeds its children's: descending ids is top-down.
    for p in (0..shape.node_count()).rev() {
        let Some((left, right)) = shape.node(SjNodeId(p)).children else {
            continue;
        };
        blocked[left.0] |= blocked[p];
        blocked[right.0] |= blocked[p];
        if roles[p] == Role::Lazy {
            continue;
        }
        if let Some((lazy, sibling)) = [(left, right), (right, left)]
            .into_iter()
            .find(|(v, _)| !shape.node(*v).is_leaf() && !blocked[v.0])
        {
            roles[lazy.0] = Role::Lazy;
            roles[sibling.0] = Role::Awaited(lazy.0 as u32);
        }
    }
    roles
}

/// Incremental matcher for one query plan.
#[derive(Debug)]
pub struct SjTreeMatcher {
    plan: QueryPlan,
    constraints: CompiledConstraints,
    /// Shared two-sided join store per SJ-Tree node, indexed by `SjNodeId`;
    /// `Some` for internal nodes only (leaves file their matches into their
    /// parent's store, the root emits instead of storing).
    stores: Vec<Option<SharedJoinStore>>,
    /// Precomputed per-node climb steps (see [`NodeRoute`]).
    routes: Vec<NodeRoute>,
    roles: Vec<Role>,
    /// Lazy nodes and parent keys turned hot by the current `absorb`.
    pending: Vec<(usize, JoinKey)>,
    metrics: QueryMetrics,
    /// Optional cap on live matches per node (guards against partial-match
    /// explosion under hostile plans; `None` = unbounded).
    max_matches_per_node: Option<usize>,
    /// Per-type anchor dispatch (leaf, anchor query edge) with the
    /// schema-version gate: an incoming edge whose type matches no query edge
    /// costs one hash probe instead of a walk over every leaf primitive.
    anchors: AnchorIndex<SjNodeId>,
    /// Scratch buffers reused across edges so the per-event path performs no
    /// transient allocations once warm.
    found: Vec<PartialMatch>,
    primitive_scratch: Vec<(SjNodeId, PartialMatch)>,
}

impl SjTreeMatcher {
    /// Creates a matcher for `plan`, compiled against `graph`.
    pub fn new(plan: QueryPlan, graph: &DynamicGraph) -> Self {
        Self::fed_at(plan, graph, &[])
    }

    /// [`Self::new`] for a matcher the sharing index feeds at `fed`: no node
    /// at or below one of them is lazy (nothing fills its store).
    pub(crate) fn fed_at(plan: QueryPlan, graph: &DynamicGraph, fed: &[SjNodeId]) -> Self {
        let constraints = CompiledConstraints::compile(&plan.query, graph);
        let roles = roles(&plan, fed);
        let shape = &plan.shape;
        // One shared store per internal node, keyed on that node's cut (the
        // join key both children project onto). A lazy node's is walked by
        // its parent's key too, on the side binding more of the parent's cut.
        let stores = shape
            .nodes()
            .map(|n| {
                let (left, right) = n.children?;
                let mut store = SharedJoinStore::new(n.cut_vertices.clone());
                if roles[n.id.0] == Role::Lazy {
                    let cut = &shape.node(n.parent?).cut_vertices;
                    let [l, r] = [left, right].map(|child| -> Vec<_> {
                        let bound = &shape.node(child).vertices;
                        cut.iter().copied().filter(|v| bound.contains(v)).collect()
                    });
                    if l.len() >= r.len() {
                        store.thread_scan_chain(JoinSide::Left, l);
                    } else {
                        store.thread_scan_chain(JoinSide::Right, r);
                    }
                }
                Some(store)
            })
            .collect();
        let routes = join::node_routes(&plan);
        let mut matcher = SjTreeMatcher {
            constraints,
            stores,
            routes,
            roles,
            pending: Vec::new(),
            metrics: QueryMetrics::default(),
            max_matches_per_node: None,
            anchors: AnchorIndex::new(graph.schema_version()),
            found: Vec::new(),
            primitive_scratch: Vec::new(),
            plan,
        };
        matcher.rebuild_anchor_index();
        matcher
    }

    /// Rebuilds the per-type anchor dispatch table from the currently
    /// resolved constraints. Called at construction and whenever the graph's
    /// type schema grows.
    fn rebuild_anchor_index(&mut self) {
        self.anchors.begin_rebuild();
        for &leaf in self.plan.shape.leaves() {
            for &qe in self.plan.shape.primitive_edges(leaf) {
                self.anchors
                    .add(self.constraints.edge_type_filter(qe), leaf, qe);
            }
        }
    }

    /// Sets a cap on live partial matches per SJ-Tree node.
    pub fn with_match_cap(mut self, cap: Option<usize>) -> Self {
        self.max_matches_per_node = cap;
        self
    }

    /// The plan this matcher executes.
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// Mutable access to the executed pattern, for predicate refinement
    /// only: predicate-lifted shared entries widen their per-slot `InSet`
    /// constant filters as subscribers join. The graph structure, the
    /// decomposition, and the edge/vertex *types* must not change after
    /// planning — the join stores, climb routes, and anchor index are built
    /// from them and are not rebuilt.
    pub fn query_mut(&mut self) -> &mut QueryGraph {
        &mut self.plan.query
    }

    /// The query window `tW`.
    pub fn window(&self) -> Duration {
        self.plan.query.window()
    }

    /// The cumulative counters behind [`Self::metrics`], without the live
    /// partial-match gauge (which costs a pass over the stores) — for the
    /// sharing index, which reads them after every event.
    pub(crate) fn counters(&self) -> &QueryMetrics {
        &self.metrics
    }

    /// Current metrics snapshot.
    pub fn metrics(&self) -> QueryMetrics {
        let mut m = self.metrics;
        m.partial_matches_live = self.stores.iter().flatten().map(|s| s.len() as u64).sum();
        m
    }

    /// True if `node` is a lazy join side: its matches are materialised only
    /// under the parent keys its sibling holds (see the module docs).
    pub fn is_lazy(&self, node: SjNodeId) -> bool {
        self.roles[node.0] == Role::Lazy
    }

    /// Live partial matches *materialised* at a specific SJ-Tree node. A
    /// node's matches live on its side of the parent's shared store; the
    /// root stores nothing (its combinations are emitted), and a lazy node
    /// holds only those under keys its sibling holds.
    pub fn node_match_count(&self, node: SjNodeId) -> usize {
        let route = self.routes[node.0];
        if route.parent == NO_PARENT {
            return 0;
        }
        self.stores[route.parent as usize]
            .as_ref()
            .map(|s| s.side_len(route.side))
            .unwrap_or(0)
    }

    /// The fraction of the query's edges covered by the largest partial match
    /// currently materialised anywhere in the tree (the "% matched" figure
    /// of the paper's Fig. 7 progression view; a lazy node's unbuilt matches
    /// do not count).
    ///
    /// O(#nodes): each store maintains a running maximum edge count.
    pub fn best_partial_fraction(&self) -> f64 {
        if self.metrics.complete_matches > 0 {
            return 1.0;
        }
        let total = self.plan.query.edge_count() as f64;
        let best = self
            .stores
            .iter()
            .flatten()
            .map(SharedJoinStore::best_edge_count)
            .max()
            .unwrap_or(0);
        best as f64 / total
    }

    /// Processes one newly inserted data edge: the local-search front end
    /// (`primitive_matches_into`) followed by the join propagation (`absorb`)
    /// of every embedding it found. Complete matches are appended to `out`.
    pub fn process_edge(&mut self, graph: &DynamicGraph, edge: &Edge, out: &mut Vec<PartialMatch>) {
        let mut primitives = std::mem::take(&mut self.primitive_scratch);
        primitives.clear();
        self.primitive_matches_into(graph, edge, &mut primitives);
        for (leaf, m) in primitives.drain(..) {
            self.absorb(leaf, m, out);
        }
        self.primitive_scratch = primitives;
    }

    /// Type constraints only change when the graph interns a new type name;
    /// gating the refresh on the schema version keeps the steady-state path
    /// a single integer compare.
    fn sync_schema(&mut self, graph: &DynamicGraph) {
        if self.anchors.schema_changed(graph.schema_version()) {
            self.constraints.refresh(&self.plan.query, graph);
            self.rebuild_anchor_index();
        }
    }

    /// The resolved type filter of every query edge, against the graph's
    /// current schema — what the sharing index files this matcher under in
    /// its own per-type dispatch table (see `AnchorIndex::add` for the three
    /// outcomes).
    pub(crate) fn edge_type_filters(
        &mut self,
        graph: &DynamicGraph,
    ) -> impl Iterator<Item = Result<Option<TypeId>, ()>> + '_ {
        self.sync_schema(graph);
        self.plan
            .query
            .edge_ids()
            .map(|qe| self.constraints.edge_type_filter(qe))
    }

    /// The matcher's *local-search front end*: runs the schema-gated
    /// constraint refresh and the per-type anchor dispatch for one data edge,
    /// appending every primitive embedding found as `(leaf, match)` to `out`
    /// — without touching the match stores. Returns the number of anchored
    /// searches it ran.
    ///
    /// Every execution feeds the results into [`Self::absorb`] or its
    /// sharded twin (`crate::ShardedMatcher::absorb`, which routes by join
    /// key instead), so all of them share one front end. The search-side
    /// metrics (`edges_processed`, `local_search_candidates`) are accounted
    /// here; `primitive_matches` is counted where an embedding is absorbed.
    pub(crate) fn primitive_matches_into(
        &mut self,
        graph: &DynamicGraph,
        edge: &Edge,
        out: &mut Vec<(SjNodeId, PartialMatch)>,
    ) -> u64 {
        self.metrics.edges_processed += 1;
        self.sync_schema(graph);
        let window = self.window();

        // Dispatch through the per-type anchor index: only the (leaf, anchor)
        // pairs whose query-edge type can accept this data edge are searched.
        let anchors = self.anchors.take_for_type(edge.etype);

        let mut found = std::mem::take(&mut self.found);
        let mut stats = LocalSearchStats::default();
        for &(leaf, anchor) in &anchors {
            found.clear();
            find_primitive_matches_anchored(
                graph,
                &self.plan.query,
                &self.constraints,
                self.plan.shape.primitive_edges(leaf),
                anchor,
                edge,
                window,
                &mut found,
                &mut stats,
            );
            for m in found.drain(..) {
                out.push((leaf, m));
            }
        }
        self.metrics.local_search_candidates += stats.candidates_examined;
        self.found = found;
        let searches = anchors.len() as u64;
        self.anchors.give_back(anchors);
        searches
    }

    /// Files a match at `node` and propagates joins towards the root — the
    /// one entry into the join climb. `node` is a leaf for an embedding of
    /// the local search (this matcher's own front end, or a shared entry's,
    /// already remapped into this query's vertex/edge space), which counts
    /// one primitive match; it is an internal node or the root for a
    /// *joined* match of a shared entry, whose searches and joins below
    /// `node` ran once inside the entry, not here. Complete matches are
    /// appended to `out`.
    pub(crate) fn absorb(&mut self, node: SjNodeId, m: PartialMatch, out: &mut Vec<PartialMatch>) {
        // Internal nodes are exactly the ones that own a store.
        if self.stores[node.0].is_none() {
            self.metrics.primitive_matches += 1;
        }
        let mut climb = Climb {
            routes: &self.routes,
            roles: &self.roles,
            metrics: &mut self.metrics,
            cap: self.max_matches_per_node,
            window: self.plan.query.window(),
            out,
            pending: &mut self.pending,
        };
        climb.file(&mut self.stores[node.0 + 1..], node.0, m);
        while let Some((lazy, key)) = climb.pending.pop() {
            climb.materialise(&mut self.stores, lazy, &key);
        }
    }

    /// Removes every partial match whose earliest edge is older than
    /// `now - tW`: such matches can never be completed within the window.
    /// Exact on every node — the shared stores' sweep visits every held
    /// match, so none is retained behind an in-window head — and no
    /// surviving match is moved.
    pub fn prune(&mut self, now: Timestamp) {
        let cutoff = now.minus(self.window());
        let mut removed = 0usize;
        for store in self.stores.iter_mut().flatten() {
            removed += store.expire_older_than(cutoff);
        }
        self.metrics.partial_matches_expired += removed as u64;
    }

    /// Drops all stored partial matches and resets metrics (used between
    /// experiment repetitions).
    pub fn reset(&mut self) {
        for store in self.stores.iter_mut().flatten() {
            store.clear();
        }
        self.metrics = QueryMetrics::default();
    }
}

/// The store of the internal node at index `at` of `stores`.
fn store_at(stores: &[Option<SharedJoinStore>], at: usize) -> &SharedJoinStore {
    stores[at]
        .as_ref()
        .expect("internal node has a shared store")
}

/// One join climb: everything it reads and counts besides the stores.
struct Climb<'a> {
    routes: &'a [NodeRoute],
    roles: &'a [Role],
    metrics: &'a mut QueryMetrics,
    cap: Option<usize>,
    window: Duration,
    out: &'a mut Vec<PartialMatch>,
    pending: &'a mut Vec<(usize, JoinKey)>,
}

impl Climb<'_> {
    /// Files `m` at `node` and climbs every join it completes, depth first
    /// (as deep as the tree is high). `above` holds the stores of the nodes
    /// after `node`; those after its parent's go on to the probe closure.
    /// The sibling side is probed *before* the match is filed (a match never
    /// joins with matches at its own node, so the order is equivalent) and
    /// the match is then moved — not cloned — in, all in one hash lookup.
    fn file(&mut self, above: &mut [Option<SharedJoinStore>], node: usize, m: PartialMatch) {
        // Spill telemetry: each materialised match whose inline storage
        // went to the heap is counted once, when it surfaces here.
        if m.spilled() {
            self.metrics.binding_spills += 1;
        }
        let NodeRoute { parent, side, .. } = self.routes[node];
        if parent == NO_PARENT {
            // Root-level combination: a complete match.
            self.metrics.complete_matches += 1;
            self.out.push(m);
            return;
        }
        let parent = parent as usize;
        let (store, above) = above[parent - node - 1..]
            .split_first_mut()
            .expect("a parent's store comes after its child's");
        let store = store.as_mut().expect("internal node has a shared store");
        // The per-node cap (one node = one side of its parent's store).
        if self.cap.is_some_and(|cap| store.side_len(side) >= cap) {
            self.metrics.matches_dropped_by_cap += 1;
            return;
        }
        self.metrics.partial_matches_inserted += 1;
        let Some(key) = store.join_key_for(&m) else {
            debug_assert!(false, "a node-complete match binds its join key");
            return;
        };
        if self.roles[parent] == Role::Lazy {
            return self.file_at_lazy(store, above, parent, side, key, m);
        }
        if let Role::Awaited(lazy) = self.roles[node] {
            if !store.holds(side, &key) {
                // Cold → hot: the lazy side is rebuilt under `key` once the
                // climb is over, and probes this match then.
                self.metrics.lazy_materialisations += 1;
                store.withdraw(side.other(), &key);
                store.insert(side, key.clone(), m);
                self.pending.push((lazy as usize, key));
                return;
            }
        }
        store.probe_then_insert(side, key, m, |m, candidate| {
            self.join(above, parent, m, candidate)
        });
    }

    /// Merges `m` with `candidate` and files the result at `node` if it fits
    /// the window.
    fn join(
        &mut self,
        above: &mut [Option<SharedJoinStore>],
        node: usize,
        m: &PartialMatch,
        candidate: &PartialMatch,
    ) {
        self.metrics.joins_attempted += 1;
        if let Some(combined) = m.merge(candidate) {
            if combined.within_window(self.window) {
                self.metrics.joins_succeeded += 1;
                self.file(above, node, combined);
            }
        }
    }

    /// Files `m` in `store`, the lazy node `lazy`'s, joining it only with
    /// the candidates whose match would land under a hot key of the lazy
    /// node's parent — decided by `m` alone when it binds the parent's cut.
    fn file_at_lazy(
        &mut self,
        store: &mut SharedJoinStore,
        above: &mut [Option<SharedJoinStore>],
        lazy: usize,
        side: JoinSide,
        key: JoinKey,
        m: PartialMatch,
    ) {
        let up = self.routes[lazy];
        let (at, awaited) = (up.parent as usize - lazy - 1, up.side.other());
        let mut parent_key = JoinKey::new();
        let cut = store_at(above, at).key_vertices();
        let alone = m.binding.project_into(cut, &mut parent_key);
        if alone && !store_at(above, at).holds(awaited, &parent_key) {
            self.metrics.merges_skipped_cold += 1;
            return store.insert(side, key, m);
        }
        store.probe_then_insert(side, key, m, |m, candidate| {
            let parent = store_at(above, at);
            if !alone {
                parent_key.clear();
                parent_key.extend(parent.key_vertices().iter().map(|&v| {
                    let bound = m.binding.get(v).or_else(|| candidate.binding.get(v));
                    bound.expect("a lazy node's match binds its parent's cut")
                }));
                if !parent.holds(awaited, &parent_key) {
                    self.metrics.merges_skipped_cold += 1;
                    return;
                }
            }
            self.join(above, lazy, m, candidate);
        });
    }

    /// Rebuilds every live match of the lazy node `lazy` under its parent's
    /// key `key` from the lazy node's store and files each with a probe of
    /// the sibling side. `stores` is the matcher's whole store vector.
    fn materialise(
        &mut self,
        stores: &mut [Option<SharedJoinStore>],
        lazy: usize,
        key: &[VertexId],
    ) {
        let (below, above) = stores.split_at_mut(lazy + 1);
        let store = store_at(below, lazy);
        let cut = store_at(above, self.routes[lazy].parent as usize - lazy - 1).key_vertices();
        // A cut vertex the scanned match does not bind, its candidate must.
        let pinned: SmallVec<(QueryVertexId, VertexId), 4> =
            cut.iter().copied().zip(key.iter().copied()).collect();
        let (side, scanned) = store.scan(cut, key);
        for m in scanned {
            let own_key = store
                .join_key_for(m)
                .expect("stored match binds its join key");
            for candidate in store.candidates(side, &own_key) {
                let agrees = |&(v, d): &(QueryVertexId, VertexId)| {
                    candidate.binding.get(v).is_none_or(|bound| bound == d)
                };
                if pinned.iter().all(agrees) {
                    self.join(above, lazy, m, candidate);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamworks_graph::{EdgeEvent, EdgeId, Timestamp};
    use streamworks_query::{Planner, QueryGraphBuilder, TreeShapeKind};

    fn wedge_query(window_secs: i64) -> QueryPlan {
        let q = QueryGraphBuilder::new("wedge")
            .window(Duration::from_secs(window_secs))
            .vertex("a1", "Article")
            .vertex("a2", "Article")
            .vertex("k", "Keyword")
            .edge("a1", "mentions", "k")
            .edge("a2", "mentions", "k")
            .build()
            .unwrap();
        // Single-edge primitives so the tree has two leaves and genuinely
        // stores partial matches (a 2-edge primitive would collapse this query
        // into one leaf that emits complete matches directly).
        Planner::new()
            .plan_with(
                q,
                &streamworks_query::SelectivityOrdered {
                    max_primitive_size: 1,
                },
            )
            .unwrap()
    }

    fn feed(
        g: &mut DynamicGraph,
        m: &mut SjTreeMatcher,
        src: &str,
        dst: &str,
        et: &str,
        t: i64,
    ) -> Vec<PartialMatch> {
        let (st, dt) = if et == "mentions" {
            ("Article", "Keyword")
        } else {
            ("Article", "Location")
        };
        let r = g.ingest(&EdgeEvent::new(
            src,
            st,
            dst,
            dt,
            et,
            Timestamp::from_secs(t),
        ));
        let edge = g.edge(r.edge).unwrap().clone();
        let mut out = Vec::new();
        m.process_edge(g, &edge, &mut out);
        out
    }

    #[test]
    fn complete_match_emitted_when_pattern_completes() {
        let mut g = DynamicGraph::unbounded();
        let mut matcher = SjTreeMatcher::new(wedge_query(3600), &g);
        assert!(feed(&mut g, &mut matcher, "a1", "k1", "mentions", 10).is_empty());
        let matches = feed(&mut g, &mut matcher, "a2", "k1", "mentions", 20);
        // Two articles sharing keyword k1: one embedding per (a1,a2) assignment.
        assert_eq!(matches.len(), 2);
        let metrics = matcher.metrics();
        assert_eq!(metrics.complete_matches, 2);
        assert!(metrics.edges_processed >= 2);
        assert!(matcher.best_partial_fraction() >= 1.0);
    }

    #[test]
    fn matches_outside_window_are_not_reported() {
        let mut g = DynamicGraph::unbounded();
        let mut matcher = SjTreeMatcher::new(wedge_query(30), &g);
        feed(&mut g, &mut matcher, "a1", "k1", "mentions", 10);
        // 100 - 10 = 90s span > 30s window.
        let matches = feed(&mut g, &mut matcher, "a2", "k1", "mentions", 100);
        assert!(matches.is_empty());
    }

    #[test]
    fn prune_discards_unjoinable_partial_matches() {
        let mut g = DynamicGraph::unbounded();
        let mut matcher = SjTreeMatcher::new(wedge_query(30), &g);
        for i in 0..50 {
            feed(&mut g, &mut matcher, &format!("a{i}"), "k1", "mentions", i);
        }
        let before = matcher.metrics().partial_matches_live;
        assert!(before > 0);
        matcher.prune(Timestamp::from_secs(1_000));
        let after = matcher.metrics();
        assert_eq!(after.partial_matches_live, 0);
        assert_eq!(after.partial_matches_expired, before);
    }

    #[test]
    fn match_cap_limits_partial_match_growth() {
        let mut g = DynamicGraph::unbounded();
        let mut matcher = SjTreeMatcher::new(wedge_query(3600), &g).with_match_cap(Some(5));
        for i in 0..20 {
            feed(&mut g, &mut matcher, &format!("a{i}"), "k1", "mentions", i);
        }
        let m = matcher.metrics();
        assert!(m.matches_dropped_by_cap > 0);
        assert!(m.partial_matches_live <= 10); // 5 per node, 2 nodes with stores in use
    }

    #[test]
    fn reset_clears_state() {
        let mut g = DynamicGraph::unbounded();
        let mut matcher = SjTreeMatcher::new(wedge_query(3600), &g);
        feed(&mut g, &mut matcher, "a1", "k1", "mentions", 1);
        feed(&mut g, &mut matcher, "a2", "k1", "mentions", 2);
        assert!(matcher.metrics().complete_matches > 0);
        matcher.reset();
        assert_eq!(matcher.metrics().complete_matches, 0);
        assert_eq!(matcher.metrics().partial_matches_live, 0);
    }

    #[test]
    fn oversized_query_increments_spill_counter() {
        // Nine vertices (> INLINE_VERTICES = 8): every partial match carries a
        // heap-spilled binding slot table, and the matcher must say so.
        let mut b = QueryGraphBuilder::new("big_star").window(Duration::from_hours(1));
        for i in 0..8 {
            b = b.vertex(&format!("a{i}"), "Article");
        }
        b = b.vertex("k", "Keyword");
        for i in 0..8 {
            b = b.edge(&format!("a{i}"), "mentions", "k");
        }
        let plan = Planner::new().plan(b.build().unwrap()).unwrap();
        let mut g = DynamicGraph::unbounded();
        let mut matcher = SjTreeMatcher::new(plan, &g);
        for i in 0..4 {
            feed(&mut g, &mut matcher, &format!("x{i}"), "k1", "mentions", i);
        }
        let m = matcher.metrics();
        assert!(m.partial_matches_inserted > 0);
        assert_eq!(
            m.binding_spills,
            m.partial_matches_inserted + m.complete_matches,
            "every materialised match of an oversized query spills"
        );

        // The paper-sized wedge query never spills.
        let mut g2 = DynamicGraph::unbounded();
        let mut small = SjTreeMatcher::new(wedge_query(3600), &g2);
        feed(&mut g2, &mut small, "a1", "k1", "mentions", 1);
        feed(&mut g2, &mut small, "a2", "k1", "mentions", 2);
        assert_eq!(small.metrics().binding_spills, 0);
    }

    /// Two articles sharing a keyword *and* a location, one leaf per edge.
    /// Balanced, the tree is `(e0 ⋈ e1) ⋈ (e2 ⋈ e3)` — an internal node that
    /// is the *right* child of its parent; left-deep it is three levels of
    /// joins. The benchmark's pinned plan has neither.
    fn four_leaf_plan(kind: TreeShapeKind) -> QueryPlan {
        let q = QueryGraphBuilder::new("coloc_pair")
            .window(Duration::from_secs(30))
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
        let single_edge_leaves = streamworks_query::SelectivityOrdered {
            max_primitive_size: 1,
        };
        let plan = Planner::new()
            .tree_kind(kind)
            .plan_with(q, &single_edge_leaves)
            .unwrap();
        assert_eq!(plan.shape.leaves().len(), 4);
        plan
    }

    /// Runs a fixed 240-event stream (8 articles, 3 keywords, 2 cities, one
    /// event per second, prune every 16) through the matcher and through
    /// `NaiveEdgeExpansion`, returning both emitted multisets — each match as
    /// its data edges in query-edge order, sorted — and the matcher's
    /// counters.
    fn run_four_leaf(
        kind: TreeShapeKind,
        cap: Option<usize>,
    ) -> (Vec<Vec<EdgeId>>, Vec<Vec<EdgeId>>, QueryMetrics) {
        let plan = four_leaf_plan(kind);
        let mut g = DynamicGraph::unbounded();
        let mut naive = streamworks_baseline::NaiveEdgeExpansion::new(plan.query.clone());
        let mut matcher = SjTreeMatcher::new(plan, &g).with_match_cap(cap);
        let (mut emitted, mut expected) = (Vec::new(), Vec::new());
        // A fixed linear congruential sequence picks the end points.
        let mut state = 17u64;
        let mut pick = |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        for i in 0..240i64 {
            let article = format!("a{}", pick(8));
            let (dst, dt, et) = if pick(3) == 0 {
                (format!("city{}", pick(2)), "Location", "located")
            } else {
                (format!("k{}", pick(3)), "Keyword", "mentions")
            };
            let r = g.ingest(&EdgeEvent::new(
                article,
                "Article",
                dst,
                dt,
                et,
                Timestamp::from_secs(i),
            ));
            let edge = g.edge(r.edge).unwrap().clone();
            let mut out = Vec::new();
            matcher.process_edge(&g, &edge, &mut out);
            emitted.extend(
                out.iter()
                    .map(|m| m.edges.iter().map(|&(_, e)| e).collect::<Vec<_>>()),
            );
            expected.extend(naive.process_edge(&g, &edge).into_iter().map(|e| e.edges));
            if (i + 1) % 16 == 0 {
                matcher.prune(edge.timestamp);
            }
        }
        emitted.sort();
        expected.sort();
        (emitted, expected, matcher.metrics())
    }

    /// The in-place climb against the reference matcher (uncapped: the same
    /// multiset of complete matches) and against the buffered climb it
    /// replaced (capped at 20 per node, so the cap fires on joined matches
    /// mid-climb: `recorded` holds the counters of the commit before the
    /// in-place climb on this stream — dropped by cap, joins attempted,
    /// joins succeeded, partial matches inserted, complete matches — and
    /// which matches the cap drops depends on the order the climb visits
    /// them in). Re-recorded when the root's left child — internal in both
    /// trees — became a lazy side: it files only the matches its sibling
    /// waits for, rebuilt ones included, so the cap fills later and fewer
    /// joins run; the uncapped multiset above did not move.
    fn check_four_leaf(kind: TreeShapeKind, recorded: [u64; 5]) {
        let (emitted, expected, uncapped) = run_four_leaf(kind, None);
        assert_eq!(emitted.len(), 2116);
        assert_eq!(emitted, expected, "every embedding, each once");
        assert_eq!(uncapped.matches_dropped_by_cap, 0);

        let (emitted, _, m) = run_four_leaf(kind, Some(20));
        assert_eq!(
            [
                m.matches_dropped_by_cap,
                m.joins_attempted,
                m.joins_succeeded,
                m.partial_matches_inserted,
                m.complete_matches,
            ],
            recorded
        );
        assert_eq!(emitted.len() as u64, m.complete_matches);
        assert!(emitted.iter().all(|e| expected.binary_search(e).is_ok()));
    }

    #[test]
    fn balanced_tree_climbs_through_a_right_hand_internal_node() {
        // Before the lazy side: [1159, 2283, 1429, 697, 53].
        check_four_leaf(TreeShapeKind::Balanced, [695, 1540, 1031, 667, 149]);
    }

    #[test]
    fn left_deep_tree_climbs_three_levels() {
        // Before the lazy side: [758, 1729, 1134, 723, 133].
        check_four_leaf(TreeShapeKind::LeftDeep, [682, 1626, 1061, 669, 190]);
    }

    #[test]
    fn a_capped_awaited_match_materialises_nothing() {
        // `join_hot`'s tree ((e0 ⋈ e1) ⋈ e2) with two matches per node: the
        // third location meets a full side and is dropped before it could
        // turn its article's key hot and rebuild the pairs under it.
        let q = QueryGraphBuilder::new("hot_wedge")
            .window(Duration::from_secs(60))
            .vertex("a1", "Article")
            .vertex("a2", "Article")
            .vertex("k", "Keyword")
            .vertex("l", "Location")
            .edge("a1", "mentions", "k")
            .edge("a2", "mentions", "k")
            .edge("a1", "located", "l")
            .build()
            .unwrap();
        let leaves = (0..3).map(|e| vec![streamworks_query::QueryEdgeId(e)]);
        let leaves = streamworks_query::ManualDecomposition::new(leaves.collect());
        let plan = Planner::new().plan_with(q, &leaves).unwrap();
        let mut g = DynamicGraph::unbounded();
        let mut matcher = SjTreeMatcher::new(plan, &g).with_match_cap(Some(2));
        feed(&mut g, &mut matcher, "x", "paris", "located", 0);
        feed(&mut g, &mut matcher, "z", "rome", "located", 1);
        assert_eq!(matcher.metrics().lazy_materialisations, 2);
        feed(&mut g, &mut matcher, "x", "k", "mentions", 2);
        assert_eq!(feed(&mut g, &mut matcher, "y", "k", "mentions", 3).len(), 1);
        let before = matcher.metrics();
        // (y, x, oslo) would complete: capped, nothing is rebuilt for it.
        assert!(feed(&mut g, &mut matcher, "y", "oslo", "located", 4).is_empty());
        let after = matcher.metrics();
        assert_eq!(after.lazy_materialisations, 2);
        assert_eq!(
            after.matches_dropped_by_cap,
            before.matches_dropped_by_cap + 1
        );
        assert_eq!(after.partial_matches_live, before.partial_matches_live);
        assert_eq!(after.joins_attempted, before.joins_attempted);
    }

    #[test]
    fn three_leaf_plan_joins_across_levels() {
        // Fig. 2-style query: three articles sharing a keyword and a location.
        let q = QueryGraphBuilder::new("news_triple")
            .window(Duration::from_hours(6))
            .vertex("a1", "Article")
            .vertex("a2", "Article")
            .vertex("a3", "Article")
            .vertex("k", "Keyword")
            .vertex("l", "Location")
            .edge("a1", "mentions", "k")
            .edge("a2", "mentions", "k")
            .edge("a3", "mentions", "k")
            .edge("a1", "located", "l")
            .edge("a2", "located", "l")
            .edge("a3", "located", "l")
            .build()
            .unwrap();
        let plan = Planner::new().plan(q).unwrap();
        let mut g = DynamicGraph::unbounded();
        let mut matcher = SjTreeMatcher::new(plan, &g);
        let mut complete = 0usize;
        let mut t = 0;
        for a in ["x", "y", "z"] {
            complete += feed(&mut g, &mut matcher, a, "k1", "mentions", t).len();
            t += 1;
            complete += feed(&mut g, &mut matcher, a, "paris", "located", t).len();
            t += 1;
        }
        // Three articles, each with the keyword and the location: 3! = 6
        // assignments of (a1, a2, a3) to (x, y, z).
        assert_eq!(complete, 6);
        assert_eq!(matcher.metrics().complete_matches, 6);
        // Partial fraction reaches 1.0 once complete matches exist.
        assert_eq!(matcher.best_partial_fraction(), 1.0);
    }
}
