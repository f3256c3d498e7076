//! The incremental SJ-Tree matcher (paper §4.2).
//!
//! One [`SjTreeMatcher`] is instantiated per registered query and runs on the
//! engine's ingest thread. It owns one [`SharedJoinStore`] per **internal**
//! SJ-Tree node — the same per-parent join index the sharing index's entries
//! run on — and implements the paper's two-step algorithm for every incoming
//! edge:
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
//! *hot* while P's S side holds a visible match under X (visible: live and
//! not behind the stores' horizon, `now − tW`), so whether X is hot does
//! not depend on when the stores were last swept. A V match under a cold X is
//! never built: the check runs before the merge at V's store. The first S
//! match under a cold X tombstones what V's side still holds under X and is
//! filed; at the end of `absorb` (V's store may lie below the climb's split)
//! every visible V match under X is rebuilt from V's children, through a
//! second chain keyed on P's cut, and filed with a probe of S (a V match
//! built from a hidden child would be hidden too). **Invariant:** while X is
//! hot, V's side holds every visible V match under X; while X is cold no S
//! partner is visible, and the horizon only advances, so a dropped V match
//! loses nothing. Each embedding still completes once, at its latest edge:
//! the S or V match arriving last meets the other filed or rebuilt, never
//! both, and a climb that reaches S never enters V's subtree, so the
//! rebuild reads V's store as it was.
//! Whether a key is hot is asked of P's store (`SharedJoinStore::holds`),
//! which keeps a recency table on S's side only: most keys asked about are
//! cold, and the table decides most of those without the key index.
//! Measured in interleaved pairs of the benchmark's `join_hot` unit
//! (BENCH_PR21.json): lazy sides took it from 153 k to 278 k events/s,
//! `ingest_p50_us` 4.53 → 1.70 µs and the live-match peak 10 503 → 1 879.

use crate::anchors::AnchorIndex;
use crate::binding::PartialMatch;
use crate::constraints::CompiledConstraints;
use crate::local_search::{find_primitive_matches_anchored, LocalSearchStats};
use crate::match_store::{JoinKey, JoinSide, SharedJoinStore};
use crate::metrics::QueryMetrics;
use smallvec::SmallVec;
use streamworks_graph::{Duration, DynamicGraph, Edge, Timestamp, TypeId, VertexId};
use streamworks_query::{QueryGraph, QueryPlan, QueryVertexId, SjNodeId};

/// Sentinel `parent` value of the root's [`NodeRoute`] (never climbed from).
const NO_PARENT: u32 = u32::MAX;

/// Precomputed per-node climb step, so the join hot loop never touches the
/// plan (no `Arc` traffic, no repeated tree lookups). For the root the
/// `parent` field is the [`NO_PARENT`] sentinel — a match reaching it is a
/// complete match, not a climb.
#[derive(Debug, Clone, Copy)]
struct NodeRoute {
    /// Parent node index (`NO_PARENT` for the root).
    parent: u32,
    /// Which child of the parent this node is.
    side: JoinSide,
}

/// Builds the per-node climb table for a plan's tree shape.
fn node_routes(plan: &QueryPlan) -> Vec<NodeRoute> {
    let shape = &plan.shape;
    shape
        .nodes()
        .map(|n| match n.parent {
            Some(parent) => {
                // `Climb::file` splits the store vector on this.
                debug_assert!(parent.0 > n.id.0, "a parent's id exceeds its child's");
                let (left, _) = shape.node(parent).children.expect("parent is internal");
                NodeRoute {
                    parent: parent.0 as u32,
                    side: if n.id == left {
                        JoinSide::Left
                    } else {
                        JoinSide::Right
                    },
                }
            }
            None => NodeRoute {
                parent: NO_PARENT,
                side: JoinSide::Left,
            },
        })
        .collect()
}

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
    /// Every store hides the matches behind it; it never moves back.
    horizon: Timestamp,
    /// The furthest an edge given to `process_edge` lay behind `graph.now()`.
    lateness: Duration,
    metrics: QueryMetrics,
    /// Per-type anchor dispatch (leaf, anchor query edge) with the
    /// schema-version gate: an incoming edge whose type matches no query edge
    /// costs one hash probe instead of a walk over every leaf primitive.
    anchors: AnchorIndex<SjNodeId>,
    /// Scratch buffers reused across edges so the per-event path performs no
    /// transient allocations once warm.
    found: Vec<PartialMatch>,
    leaf_scratch: Vec<(SjNodeId, PartialMatch)>,
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
        // its parent's key too, on the side binding more of the parent's cut;
        // its parent keeps a recency table on the awaited side, the one
        // whose keys `holds` is asked about.
        let stores = shape
            .nodes()
            .map(|n| {
                let (left, right) = n.children?;
                let mut store = SharedJoinStore::new(n.cut_vertices.clone());
                for (child, side) in [(left, JoinSide::Left), (right, JoinSide::Right)] {
                    if matches!(roles[child.0], Role::Awaited(_)) {
                        store.keep_recency(side);
                    }
                }
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
        let routes = node_routes(&plan);
        let mut matcher = SjTreeMatcher {
            constraints,
            stores,
            routes,
            roles,
            pending: Vec::new(),
            horizon: Timestamp(i64::MIN),
            lateness: Duration::ZERO,
            metrics: QueryMetrics::default(),
            anchors: AnchorIndex::new(graph.schema_version()),
            found: Vec::new(),
            leaf_scratch: Vec::new(),
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

    /// Current metrics snapshot, exact at every event: live partial matches
    /// are those a probe could still offer (not behind the horizon; one
    /// metadata pass per store holding a hidden one), and expired ones are
    /// every match a store reclaimed, inside a climb or by [`Self::prune`].
    pub fn metrics(&self) -> QueryMetrics {
        self.metrics_at(Timestamp(i64::MIN))
    }

    /// [`Self::metrics`] with stream time at `now`, though no climb may yet
    /// have carried the horizon to `now − tW`.
    pub(crate) fn metrics_at(&self, now: Timestamp) -> QueryMetrics {
        let mut m = self.metrics;
        for store in self.stores.iter().flatten() {
            m.partial_matches_live += store.visible_len(now.minus(self.window())) as u64;
            m.partial_matches_expired += store.expired_total();
        }
        m
    }

    /// True if `node` is a lazy join side: its matches are materialised only
    /// under the parent keys its sibling holds (see the module docs).
    pub fn is_lazy(&self, node: SjNodeId) -> bool {
        self.roles[node.0] == Role::Lazy
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
    ///
    /// The climb's stream time is `graph.now()` less the largest lateness
    /// seen so far, so a late edge still meets every partner it can complete
    /// with, and what is emitted does not depend on when [`Self::prune`] runs.
    pub fn process_edge(&mut self, graph: &DynamicGraph, edge: &Edge, out: &mut Vec<PartialMatch>) {
        self.lateness = self.lateness.max(graph.now().since(edge.timestamp));
        let now = graph.now().minus(self.lateness);
        let mut primitives = std::mem::take(&mut self.leaf_scratch);
        primitives.clear();
        self.primitive_matches_into(graph, edge, &mut primitives);
        for (leaf, m) in primitives.drain(..) {
            self.absorb(leaf, m, now, out);
        }
        self.leaf_scratch = primitives;
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
    /// [`Self::process_edge`] and the sharing index's entries feed the
    /// results into [`Self::absorb`]. The search-side metrics (`edges_processed`,
    /// `local_search_candidates`) are accounted here; `primitive_matches` is
    /// counted where an embedding is absorbed.
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
    /// `node` ran once inside the entry, not here. The stores first hide
    /// what lies behind `now − tW`. Complete matches are appended to `out`.
    pub(crate) fn absorb(
        &mut self,
        node: SjNodeId,
        m: PartialMatch,
        now: Timestamp,
        out: &mut Vec<PartialMatch>,
    ) {
        self.advance_horizon(now);
        // Internal nodes are exactly the ones that own a store.
        if self.stores[node.0].is_none() {
            self.metrics.primitive_matches += 1;
        }
        let mut climb = Climb {
            routes: &self.routes,
            roles: &self.roles,
            metrics: &mut self.metrics,
            window: self.plan.query.window(),
            out,
            pending: &mut self.pending,
        };
        climb.file(&mut self.stores[node.0 + 1..], node.0, m);
        while let Some((lazy, key)) = climb.pending.pop() {
            climb.materialise(&mut self.stores, lazy, &key);
        }
    }

    /// Hides every partial match whose earliest edge is older than
    /// `now - tW` from every later probe, in every store (see
    /// [`SharedJoinStore::set_horizon`]): such matches can never be
    /// completed within the window. The horizon never moves back, which
    /// the lazy sides' invariant needs (see the module docs).
    fn advance_horizon(&mut self, now: Timestamp) {
        let horizon = now.minus(self.window());
        if horizon > self.horizon {
            self.horizon = horizon;
            for store in self.stores.iter_mut().flatten() {
                store.set_horizon(horizon);
            }
        }
    }

    /// Advances the horizon to `now - tW`, as every climb does, and removes
    /// every partial match behind it at once — nothing needs to on a
    /// schedule, since a full store reclaims before it grows. Exact on every
    /// node, and no surviving match is moved.
    pub fn prune(&mut self, now: Timestamp) {
        self.advance_horizon(now);
        let cutoff = now.minus(self.window());
        for store in self.stores.iter_mut().flatten() {
            store.expire_older_than(cutoff);
        }
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
        let NodeRoute { parent, side } = self.routes[node];
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
        self.metrics.partial_matches_inserted += 1;
        // Every branch below files `m` on `side`.
        store.make_room(side);
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
                &streamworks_query::CostBasedOrdered {
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
        // Live counts what a probe could still offer: one match per leaf
        // and event of the last 31 seconds (earliest at or after 49 − 30).
        assert_eq!(matcher.metrics().partial_matches_live, 2 * 31);
        matcher.prune(Timestamp::from_secs(1_000));
        let after = matcher.metrics();
        assert_eq!(after.partial_matches_live, 0);
        assert_eq!(
            after.partial_matches_expired,
            after.partial_matches_inserted
        );
    }

    /// Slots the matcher's stores hold: live matches, hidden ones included,
    /// and tombstones no front has passed.
    fn slots_held(matcher: &SjTreeMatcher) -> usize {
        let stores = matcher.stores.iter().flatten();
        stores.map(|s| s.len() + s.expiry_backlog()).sum()
    }

    #[test]
    fn a_matcher_never_pruned_stays_bounded() {
        // A hot wedge — four articles a second over six keywords, a 30 s
        // window — fed through `process_edge` alone: nothing calls `prune`,
        // so only the stores' own reclaiming keeps them bounded.
        let window = 30;
        let mut g = DynamicGraph::unbounded();
        let mut matcher = SjTreeMatcher::new(wedge_query(window), &g);
        let (mut peak, mut peaks) = (0, Vec::new());
        for t in 0..10 * window {
            for j in 0..4 {
                let (article, keyword) = (
                    format!("a{}", (5 * t + j) % 97),
                    format!("k{}", (t + j) % 6),
                );
                feed(&mut g, &mut matcher, &article, &keyword, "mentions", t);
                peak = peak.max(slots_held(&matcher));
            }
            if (t + 1) % window == 0 {
                peaks.push(peak);
            }
        }
        let (two, ten) = (peaks[1], peaks[9]);
        assert!(two >= 2 * 4 * 30, "two windows hold {two} slots");
        assert!(
            2 * ten <= 3 * two,
            "slots held: {two} over 2 windows, {ten} over 10"
        );
        // The counters: exactly the window's matches are live, one per leaf
        // and event of the last 31 seconds, and every other filed match is
        // counted expired.
        let m = matcher.metrics();
        assert_eq!(m.partial_matches_live, 2 * 4 * 31);
        let held: usize = matcher
            .stores
            .iter()
            .flatten()
            .map(SharedJoinStore::len)
            .sum();
        assert_eq!(
            m.partial_matches_expired + held as u64,
            m.partial_matches_inserted
        );
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

    #[test]
    fn only_the_awaited_side_of_a_lazy_nodes_parent_keeps_a_recency_table() {
        let graph = DynamicGraph::unbounded();
        let tables = |matcher: &SjTreeMatcher| -> Vec<(usize, JoinSide)> {
            let stores = matcher.stores.iter().enumerate();
            let stores = stores.filter_map(|(n, store)| Some((n, store.as_ref()?)));
            stores
                .flat_map(|(n, store)| {
                    [JoinSide::Left, JoinSide::Right]
                        .into_iter()
                        .filter(|&side| store.recency_buckets(side) > 0)
                        .map(move |side| (n, side))
                })
                .collect()
        };
        assert!(tables(&SjTreeMatcher::new(wedge_query(60), &graph)).is_empty());
        for kind in [TreeShapeKind::Balanced, TreeShapeKind::LeftDeep] {
            let plan = four_leaf_plan(kind);
            let matcher = SjTreeMatcher::new(plan.clone(), &graph);
            let awaited: Vec<_> = (0..plan.shape.node_count())
                .filter(|&n| matches!(matcher.roles[n], Role::Awaited(_)))
                .map(|n| (matcher.routes[n].parent as usize, matcher.routes[n].side))
                .collect();
            assert_eq!(awaited.len(), 1, "{kind:?}: one lazy node");
            assert_eq!(tables(&matcher), awaited, "{kind:?}");
            // Fed at the lazy node's parent, nothing is lazy and no store
            // keeps a table.
            let fed = [SjNodeId(awaited[0].0)];
            let fed = SjTreeMatcher::fed_at(plan, &graph, &fed);
            assert!(tables(&fed).is_empty(), "{kind:?}, fed");
        }
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
        let single_edge_leaves = streamworks_query::CostBasedOrdered {
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
    /// event per second, pruned every `prune_every` events or never) through
    /// the matcher and through `NaiveEdgeExpansion`, returning what each
    /// emitted — each match as its data edges in query-edge order; the
    /// matcher's in emission order, the reference's sorted — and the
    /// matcher's counters.
    fn run_four_leaf(
        kind: TreeShapeKind,
        prune_every: Option<i64>,
    ) -> (Vec<Vec<EdgeId>>, Vec<Vec<EdgeId>>, QueryMetrics) {
        let plan = four_leaf_plan(kind);
        let mut g = DynamicGraph::unbounded();
        let mut naive = streamworks_baseline::NaiveEdgeExpansion::new(plan.query.clone());
        let mut matcher = SjTreeMatcher::new(plan, &g);
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
            if prune_every.is_some_and(|every| (i + 1) % every == 0) {
                matcher.prune(edge.timestamp);
            }
        }
        expected.sort();
        (emitted, expected, matcher.metrics())
    }

    /// The in-place climb against the reference matcher — the same multiset
    /// of complete matches, each once — and against a recorded climb order:
    /// `digest` hashes the unsorted emission sequence (FNV-1a over every
    /// emitted match's data edges, in emission order), and `recorded` holds
    /// joins attempted, joins succeeded, partial matches inserted, complete
    /// matches, lazy materialisations and merges skipped cold. The order
    /// complete matches come out in is the order the climb visits
    /// candidates in. Both are the same whether the matcher is pruned after
    /// every event, every 16 or never: the matcher hides what the window
    /// left behind on every climb, not when it is pruned.
    fn check_four_leaf(kind: TreeShapeKind, digest: u64, recorded: [u64; 6]) {
        for prune_every in [Some(1), Some(16), None] {
            let (mut emitted, expected, m) = run_four_leaf(kind, prune_every);
            let fnv = (emitted.iter().flatten()).fold(0xcbf2_9ce4_8422_2325, |h, e| {
                (h ^ e.0).wrapping_mul(0x100_0000_01b3)
            });
            assert_eq!(
                fnv, digest,
                "the emission order, pruned every {prune_every:?}"
            );
            assert_eq!(
                [
                    m.joins_attempted,
                    m.joins_succeeded,
                    m.partial_matches_inserted,
                    m.complete_matches,
                    m.lazy_materialisations,
                    m.merges_skipped_cold,
                ],
                recorded,
                "pruned every {prune_every:?}"
            );
            emitted.sort();
            assert_eq!(emitted.len(), 2116);
            assert_eq!(emitted, expected, "every embedding, each once");
        }
    }

    #[test]
    fn balanced_tree_climbs_through_a_right_hand_internal_node() {
        check_four_leaf(
            TreeShapeKind::Balanced,
            0x5533_ac18_4eb3_08d3,
            [4269, 3878, 2242, 2116, 216, 1347],
        );
    }

    #[test]
    fn left_deep_tree_climbs_three_levels() {
        check_four_leaf(
            TreeShapeKind::LeftDeep,
            0x4e85_4093_016c_51ef,
            [5817, 5233, 3597, 2116, 44, 1635],
        );
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
