//! Incremental windowed-RPQ evaluation on the product graph.
//!
//! The second query class behind the engine (see `streamworks_query::rpq`
//! for the compilation pipeline): a [`RpqMatcher`] evaluates one regular
//! path query incrementally in the style of S-Graffito, on the *product
//! graph* whose nodes are `(graph vertex, DFA state)` pairs.
//!
//! **State: one vertex-major product index.** Every vertex that can start a
//! path is the root of a spanning tree; the root `(source, start state)` is
//! implicit (a zero-hop path never ages out, so there is nothing to store).
//! Every other tree node is one [`Entry`] `{root, state, ts, parent}` in the
//! list of *its vertex*, sorted by `(root, state)`: `ts` is the node's
//! **window timestamp** — the maximum, over paths from the root that reach
//! the vertex in that state, of the path's oldest edge — and `parent` the
//! witness pointer `(vertex, state, edge)` of the path that realised it. A
//! node is live while `ts` is inside the query window; because `ts` is a max
//! over path bottlenecks, it expires exactly when its *last* supporting path
//! leaves the window. An arriving edge `u -> v` reads the trees it can
//! extend off `u`'s list in one walk and finds each target by binary search
//! in `v`'s list; the entries of one root at a vertex are neighbours, so
//! "does the pair `(root, v)` already have an accepting node" is a look left
//! and right.
//!
//! **Relaxation: only the edges that can improve a node.** Between events
//! the index is a fixpoint: for every live node `(v, s)` and in-window edge
//! `e = v -> w` with `s --l--> s'`, `ts(w, s') >= min(ts(v, s), ts(e))`. A
//! new edge offers `min(ts(u, s), ts(edge))` to `(v, s')`; a strict
//! improvement updates the node and is queued for propagation through the
//! live graph adjacency (which is what makes out-of-order arrival work: an
//! old edge splicing two subtrees re-relaxes everything downstream). The
//! queue entry carries the timestamp the node rose *from* (`old`, minimal
//! for a created node) and the one it rose *to* (`new`), and the propagation
//! step scans only out-edges newer than `old`. That loses nothing: an edge
//! with `ts(e) <= old` would offer `min(new, ts(e)) = ts(e) = min(old,
//! ts(e))`, which the fixpoint says its target already holds. Strict
//! improvement bounds the work and — a node's timestamp only rises, and a
//! child never holds more than its witness parent did — keeps witness chains
//! acyclic and parents alive at least as long as their children.
//!
//! A match `(source, target)` is **emitted when the pair enters the live
//! result set**: the first accepting node of the root at `target` is created
//! (or re-created after expiry). Refinements of a live pair do not re-emit.
//!
//! **Expiry: one schedule entry per live node.** A min-heap entry is pushed
//! when a node is created and at no other time. Since a node's timestamp
//! only rises, its entry comes due no later than the node does: on pop, an
//! equal timestamp expires the node, a newer one moves the entry to the
//! node's current timestamp. The schedule is as long as the index, and it is
//! drained to the current horizon before every event and on every prune, so
//! windowed semantics are exact and all state reads 0 after a full-window
//! drain.

use crate::metrics::QueryMetrics;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};
use streamworks_graph::hash::FxHashMap;
use streamworks_graph::{Duration, DynamicGraph, Edge, EdgeId, Timestamp, TypeId, VertexId};
use streamworks_query::{RpqDfa, RpqQuery};

/// One emitted path match: the pair that just entered the live result set,
/// plus the witness path (tree branch) that realised it.
#[derive(Debug, Clone)]
pub(crate) struct RpqPathMatch {
    /// Path start vertex (the tree root).
    pub source: VertexId,
    /// Path end vertex (where an accepting state was reached).
    pub target: VertexId,
    /// Witness edges in path order, `source` to `target`.
    pub edges: Vec<EdgeId>,
}

/// One live non-root product node, stored in the list of its vertex.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Root vertex of the spanning tree the node belongs to.
    root: VertexId,
    /// DFA state reached at the vertex.
    state: u32,
    /// Max over supporting paths of the path's oldest edge timestamp.
    ts: Timestamp,
    /// `(parent vertex, parent state, realising edge)`; a parent of
    /// `(root, start state)` is the implicit root.
    parent: (VertexId, u32, EdgeId),
}

/// Position of `(root, state)` in a vertex's sorted entry list.
fn position(list: &[Entry], root: VertexId, state: u32) -> Result<usize, usize> {
    list.binary_search_by_key(&(root, state), |e| (e.root, e.state))
}

/// Incremental matcher for one windowed regular path query.
#[derive(Debug)]
pub(crate) struct RpqMatcher {
    rpq: RpqQuery,
    dfa: RpqDfa,
    /// The product index: live non-root nodes by `VertexId::index()`, each
    /// list sorted by `(root, state)`.
    index: Vec<Vec<Entry>>,
    /// Min-heap expiry schedule over `(ts, root, vertex, state)`, exactly
    /// one entry per live node; an entry older than its node is moved, not
    /// duplicated (see the module docs).
    expiry: BinaryHeap<Reverse<(Timestamp, VertexId, VertexId, u32)>>,
    /// DFA symbol per graph edge type, refreshed on schema-version bumps.
    symbol_of_type: FxHashMap<TypeId, u32>,
    /// Graph edge type per DFA symbol (`None` until the graph interns the
    /// label), same refresh discipline.
    type_of_symbol: Vec<Option<TypeId>>,
    seen_schema: Option<u64>,
    metrics: QueryMetrics,
    /// Live non-root product nodes across all trees.
    nodes_live: u64,
    /// Propagation queue `(root, vertex, state, old ts, new ts)`, recycled
    /// across events.
    queue: VecDeque<(VertexId, VertexId, u32, Timestamp, Timestamp)>,
    /// Snapshot of the arriving edge's source list (a self-loop inserts into
    /// the list it seeds from), recycled across events.
    seeds: Vec<Entry>,
}

impl RpqMatcher {
    /// Creates a matcher, compiling the query's pattern to its minimized DFA.
    pub fn new(rpq: RpqQuery, graph: &DynamicGraph) -> Self {
        let dfa = rpq.compile();
        let mut matcher = RpqMatcher {
            dfa,
            index: Vec::new(),
            expiry: BinaryHeap::new(),
            symbol_of_type: FxHashMap::default(),
            type_of_symbol: Vec::new(),
            seen_schema: None,
            metrics: QueryMetrics::default(),
            nodes_live: 0,
            queue: VecDeque::new(),
            seeds: Vec::new(),
            rpq,
        };
        matcher.refresh_symbols(graph);
        matcher
    }

    /// The query this matcher executes.
    pub fn query(&self) -> &RpqQuery {
        &self.rpq
    }

    /// The query window `tW`.
    pub fn window(&self) -> Duration {
        self.rpq.window()
    }

    /// Current metrics snapshot.
    pub fn metrics(&self) -> QueryMetrics {
        let mut m = self.metrics;
        m.rpq_tree_nodes_live = self.nodes_live;
        // Spanning-tree nodes are this query class's partial matches; mirror
        // them into the shared gauge so dashboards read both kinds alike.
        m.partial_matches_live = self.nodes_live;
        m
    }

    /// Resolves the DFA alphabet against the graph's interned edge types.
    /// Gated on the schema version: one integer compare per event steady
    /// state, same discipline as `crate::anchors::AnchorIndex`.
    fn refresh_symbols(&mut self, graph: &DynamicGraph) {
        let schema = graph.schema_version();
        if self.seen_schema == Some(schema) {
            return;
        }
        self.seen_schema = Some(schema);
        self.symbol_of_type.clear();
        self.type_of_symbol.clear();
        for (sym, label) in self.dfa.labels().iter().enumerate() {
            let t = graph.edge_type_id(label);
            if let Some(t) = t {
                self.symbol_of_type.insert(t, sym as u32);
            }
            self.type_of_symbol.push(t);
        }
    }

    /// Drains the expiry schedule up to `now - tW`: every product node whose
    /// last supporting path has left the window is removed. Called before
    /// each event and on every prune, so the live counters are exact at
    /// observation points.
    fn expire_until(&mut self, now: Timestamp) {
        let cutoff = now.minus(self.window());
        while let Some(mut due) = self.expiry.peek_mut() {
            let Reverse((ts, root, v, s)) = *due;
            if ts > cutoff {
                break;
            }
            let list = &mut self.index[v.index()];
            let at = position(list, root, s).expect("one schedule entry per live node");
            if list[at].ts > ts {
                // Refined since it was scheduled: the entry follows the node.
                *due = Reverse((list[at].ts, root, v, s));
                continue;
            }
            PeekMut::pop(due);
            list.remove(at);
            self.nodes_live -= 1;
            self.metrics.partial_matches_expired += 1;
        }
    }

    /// Processes one newly inserted data edge; emitted path matches are
    /// appended to `out` in discovery order.
    pub fn process_edge(&mut self, graph: &DynamicGraph, edge: &Edge, out: &mut Vec<RpqPathMatch>) {
        self.metrics.edges_processed += 1;
        self.refresh_symbols(graph);
        let now = graph.now();
        self.expire_until(now);
        let Some(&sym) = self.symbol_of_type.get(&edge.etype) else {
            return; // label not in the query alphabet
        };
        let cutoff = now.minus(self.window());
        if edge.timestamp <= cutoff {
            return; // arrived so late it is already outside the window
        }

        // Seed: the implicit root at the edge's source, then every live
        // `(src, s)` of any tree, each with a transition on the edge's label.
        let start = self.dfa.start();
        if let Some(next) = self.dfa.step(start, sym) {
            let parent = (edge.src, start, edge.id);
            self.offer(edge.src, edge.dst, next, edge.timestamp, parent, out);
        }
        let mut seeds = std::mem::take(&mut self.seeds);
        seeds.clear();
        seeds.extend_from_slice(self.index.get(edge.src.index()).map_or(&[], Vec::as_slice));
        for e in &seeds {
            if let Some(next) = self.dfa.step(e.state, sym) {
                let parent = (edge.src, e.state, edge.id);
                self.offer(
                    e.root,
                    edge.dst,
                    next,
                    e.ts.min(edge.timestamp),
                    parent,
                    out,
                );
            }
        }
        self.seeds = seeds;

        // Propagate every rise through the out-edges that can carry it: those
        // newer than what the node held before (and still inside the window).
        while let Some((root, v, s, old, new)) = self.queue.pop_front() {
            let after = old.max(cutoff);
            for sym in 0..self.type_of_symbol.len() {
                let (Some(etype), Some(next)) =
                    (self.type_of_symbol[sym], self.dfa.step(s, sym as u32))
                else {
                    continue;
                };
                for hop in graph.out_entries_after(v, etype, after) {
                    let cand = new.min(hop.timestamp);
                    self.offer(root, hop.neighbor, next, cand, (v, s, hop.edge), out);
                }
            }
        }
    }

    /// Offers `cand` as the window timestamp of product node `(v, s)` of
    /// `root`'s tree. Creations (including re-creations after expiry) of
    /// accepting nodes emit when the `(root, v)` pair enters the live result
    /// set; strict refinements update the witness pointer silently; both are
    /// queued for propagation; everything else is a no-op.
    fn offer(
        &mut self,
        root: VertexId,
        v: VertexId,
        s: u32,
        cand: Timestamp,
        parent: (VertexId, u32, EdgeId),
        out: &mut Vec<RpqPathMatch>,
    ) {
        self.metrics.rpq_relaxations += 1;
        if v == root && s == self.dfa.start() {
            return; // the implicit root: nothing improves on a zero-hop path
        }
        if self.index.len() <= v.index() {
            self.index.resize_with(v.index() + 1, Vec::new);
        }
        let list = &mut self.index[v.index()];
        let old = match position(list, root, s) {
            Ok(at) if list[at].ts >= cand => return, // no improvement
            Ok(at) => {
                let node = &mut list[at];
                node.parent = parent;
                std::mem::replace(&mut node.ts, cand)
            }
            Err(at) => {
                // The entries of one root sit side by side: the pair is new
                // to the live result set iff none of them is accepting yet.
                let of_root = |e: &&Entry| e.root == root;
                let enters = self.dfa.is_accepting(s)
                    && !(list[..at].iter().rev().take_while(of_root))
                        .chain(list[at..].iter().take_while(of_root))
                        .any(|e| self.dfa.is_accepting(e.state));
                let node = Entry {
                    root,
                    state: s,
                    ts: cand,
                    parent,
                };
                list.insert(at, node);
                self.nodes_live += 1;
                self.metrics.partial_matches_inserted += 1;
                self.expiry.push(Reverse((cand, root, v, s)));
                if enters {
                    out.push(self.witness(root, v, s));
                    self.metrics.rpq_accepts += 1;
                    self.metrics.complete_matches += 1;
                }
                Timestamp(i64::MIN)
            }
        };
        self.metrics.rpq_expansions += 1;
        self.queue.push_back((root, v, s, old, cand));
    }

    /// Builds the witness path for the accepting node `(target, state)` by
    /// walking parent pointers until the implicit root (the one node of the
    /// tree that is not stored). Chains are acyclic and every parent outlives
    /// its children (see the module docs), so the walk terminates there.
    fn witness(&self, root: VertexId, target: VertexId, state: u32) -> RpqPathMatch {
        let mut edges = Vec::new();
        let mut cursor = (target, state);
        let stored = |(v, s): (VertexId, u32)| {
            let list = self.index.get(v.index())?;
            Some(&list[position(list, root, s).ok()?])
        };
        while let Some(node) = stored(cursor) {
            edges.push(node.parent.2);
            cursor = (node.parent.0, node.parent.1);
        }
        edges.reverse();
        RpqPathMatch {
            source: root,
            target,
            edges,
        }
    }

    /// Removes every product node whose window timestamp has left the
    /// window as of `now` (the engine's prune entry point).
    pub fn prune(&mut self, now: Timestamp) {
        self.expire_until(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamworks_graph::EdgeEvent;
    use streamworks_query::parse_rpq;

    fn graph() -> DynamicGraph {
        let mut g = DynamicGraph::unbounded();
        g.set_retention(Some(Duration::from_secs(1_000_000)));
        g
    }

    fn feed(
        g: &mut DynamicGraph,
        m: &mut RpqMatcher,
        src: &str,
        dst: &str,
        label: &str,
        at: i64,
    ) -> Vec<RpqPathMatch> {
        let ev = EdgeEvent::new(src, "V", dst, "V", label, Timestamp::from_secs(at));
        let result = g.ingest(&ev);
        let edge = g.edge(result.edge).expect("edge is live").clone();
        let mut out = Vec::new();
        m.process_edge(g, &edge, &mut out);
        out
    }

    fn matcher(g: &DynamicGraph, text: &str) -> RpqMatcher {
        RpqMatcher::new(parse_rpq(text).unwrap(), g)
    }

    fn key(g: &DynamicGraph, v: VertexId) -> String {
        g.vertex_key(v).unwrap().to_owned()
    }

    /// Size of the live result set: `(root, vertex)` pairs with at least one
    /// accepting entry.
    fn live_pairs(m: &RpqMatcher) -> usize {
        let pairs_at = |list: &Vec<Entry>| {
            let mut roots: Vec<VertexId> = (list.iter())
                .filter(|e| m.dfa.is_accepting(e.state))
                .map(|e| e.root)
                .collect();
            roots.dedup();
            roots.len()
        };
        m.index.iter().map(pairs_at).sum()
    }

    fn assert_no_state(m: &RpqMatcher) {
        assert_eq!(m.metrics().rpq_tree_nodes_live, 0);
        assert!(m.index.iter().all(Vec::is_empty), "index drained");
        assert!(m.expiry.is_empty(), "schedule drained");
    }

    #[test]
    fn two_hop_path_emits_once() {
        let mut g = graph();
        let mut m = matcher(&g, "RPQ p WINDOW 1h PATH a b");
        assert!(feed(&mut g, &mut m, "u", "x", "a", 10).is_empty());
        let matches = feed(&mut g, &mut m, "x", "v", "b", 20);
        assert_eq!(matches.len(), 1);
        assert_eq!(key(&g, matches[0].source), "u");
        assert_eq!(key(&g, matches[0].target), "v");
        assert_eq!(matches[0].edges.len(), 2);
        // A second b-edge to a different vertex emits a second pair.
        let more = feed(&mut g, &mut m, "x", "w", "b", 21);
        assert_eq!(more.len(), 1);
        assert_eq!(key(&g, more[0].target), "w");
    }

    #[test]
    fn out_of_order_arrival_still_matches() {
        let mut g = graph();
        let mut m = matcher(&g, "RPQ p WINDOW 1h PATH a b");
        // The second hop arrives first.
        assert!(feed(&mut g, &mut m, "x", "v", "b", 20).is_empty());
        let matches = feed(&mut g, &mut m, "u", "x", "a", 10);
        assert_eq!(matches.len(), 1);
        assert_eq!(key(&g, matches[0].source), "u");
        assert_eq!(key(&g, matches[0].target), "v");
    }

    #[test]
    fn kleene_star_closes_over_cycles_without_diverging() {
        let mut g = graph();
        let mut m = matcher(&g, "RPQ p WINDOW 1h PATH a+");
        feed(&mut g, &mut m, "u", "v", "a", 1);
        feed(&mut g, &mut m, "v", "u", "a", 2); // cycle u -> v -> u
        let before = m.metrics().rpq_expansions;
        feed(&mut g, &mut m, "v", "w", "a", 3);
        assert!(
            m.metrics().rpq_expansions - before < 100,
            "relaxation diverged"
        );
        // Live pairs: (u,v) (u,u) (u,w) (v,u) (v,v) (v,w).
        assert_eq!(live_pairs(&m), 6);
    }

    #[test]
    fn expiry_drains_all_tree_state() {
        let mut g = graph();
        let mut m = matcher(&g, "RPQ p WINDOW 30s PATH a b");
        feed(&mut g, &mut m, "u", "x", "a", 10);
        feed(&mut g, &mut m, "x", "v", "b", 20);
        assert!(m.metrics().rpq_tree_nodes_live > 0);
        // Advance far past the window.
        g.advance_time(Timestamp::from_secs(1000));
        m.prune(g.now());
        assert_no_state(&m);
    }

    #[test]
    fn pair_reentry_after_expiry_reemits() {
        let mut g = graph();
        let mut m = matcher(&g, "RPQ p WINDOW 30s PATH a");
        assert_eq!(feed(&mut g, &mut m, "u", "v", "a", 0).len(), 1);
        // Refinement while still live: no re-emission.
        assert_eq!(feed(&mut g, &mut m, "u", "v", "a", 10).len(), 0);
        // Expire (now=100 -> cutoff=70), then a fresh edge re-enters the pair.
        assert_eq!(feed(&mut g, &mut m, "u", "v", "a", 100).len(), 1);
    }

    #[test]
    fn late_edge_outside_window_is_ignored() {
        let mut g = graph();
        let mut m = matcher(&g, "RPQ p WINDOW 30s PATH a");
        feed(&mut g, &mut m, "x", "y", "a", 100);
        // ts=50 against now=100, window 30: dead on arrival.
        assert_eq!(feed(&mut g, &mut m, "u", "v", "a", 50).len(), 0);
        assert_eq!(m.metrics().edges_processed, 2);
    }

    #[test]
    fn witness_bottleneck_is_exact_under_refinement() {
        let mut g = graph();
        let mut m = matcher(&g, "RPQ p WINDOW 100s PATH a b");
        feed(&mut g, &mut m, "u", "x", "a", 10);
        feed(&mut g, &mut m, "x", "v", "b", 20); // pair (u,v) live, bottleneck 10
                                                 // A fresher a-edge refines (x, s1) from 10 to 90.
        feed(&mut g, &mut m, "u", "x", "a", 90);
        // Expire the old bottleneck: now=130, cutoff=30. Path via ts 90/20...
        // the b-edge (20) is the bottleneck now, so the pair dies with it.
        g.advance_time(Timestamp::from_secs(130));
        m.prune(g.now());
        assert_eq!(live_pairs(&m), 0);
        // But a fresh b-edge revives it through the refined (x, s1)=90.
        let matches = feed(&mut g, &mut m, "x", "v", "b", 131);
        assert_eq!(matches.len(), 1);
    }

    #[test]
    fn schedule_holds_one_entry_per_live_node() {
        // Two hubs take most of the traffic, with parallel edges and
        // self-loops, so most relaxations refine a live node: the stream that
        // used to grow the schedule by one entry per refinement.
        let mut g = graph();
        let mut m = matcher(&g, "RPQ p WINDOW 40s PATH a+");
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let mut pick = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            match (x >> 33) % 10 {
                0..=3 => "h0".to_owned(),
                4..=6 => "h1".to_owned(),
                k => format!("v{}", (x >> 40) % 12 + k),
            }
        };
        let (mut refinements, mut peak) = (0, 0);
        for i in 0..10_000 {
            let before = m.metrics();
            feed(&mut g, &mut m, &pick(), &pick(), "a", i / 10);
            let after = m.metrics();
            refinements += (after.rpq_expansions - before.rpq_expansions)
                - (after.partial_matches_inserted - before.partial_matches_inserted);
            peak = peak.max(after.rpq_tree_nodes_live);
            assert_eq!(
                m.expiry.len() as u64,
                after.rpq_tree_nodes_live,
                "event {i}"
            );
            let stored: usize = m.index.iter().map(Vec::len).sum();
            assert_eq!(stored as u64, after.rpq_tree_nodes_live, "event {i}");
        }
        assert!(
            refinements > 10 * peak,
            "{refinements} refinements, {peak} nodes"
        );
        let total = m.metrics();
        assert!(total.partial_matches_expired > 0, "nodes expired under way");
        assert!(total.rpq_relaxations >= total.rpq_expansions);

        g.advance_time(Timestamp::from_secs(10_000));
        m.prune(g.now());
        assert_no_state(&m);
        assert_eq!(
            m.metrics().partial_matches_expired,
            m.metrics().partial_matches_inserted
        );
    }
}
