//! Incremental windowed-RPQ evaluation on the product graph.
//!
//! The second query class behind the engine (see `streamworks_query::rpq`
//! for the compilation pipeline): a [`RpqMatcher`] evaluates one regular
//! path query incrementally in the style of S-Graffito, on the *product
//! graph* whose nodes are `(graph vertex, DFA state)` pairs.
//!
//! **State: one vertex-major product index.** Every vertex that can start a
//! path roots a spanning tree; the root `(source, start state)` is implicit
//! (a zero-hop path never ages out). Every other tree node is one [`Entry`]
//! `{root, state, ts, parent}` in the list of *its vertex*, sorted by
//! `(root, state)`: `ts` is the node's **window timestamp** — the max, over
//! paths from the root reaching the vertex in that state, of the path's
//! oldest edge — and `parent` the witness pointer `(vertex, state, edge)`.
//! A node is live while `ts` is in the window, so it expires exactly when
//! its *last* supporting path does. An edge `u -> v` reads the trees it
//! extends off `u`'s list in one walk and finds each target by binary
//! search in `v`'s; a root's entries at a vertex are neighbours, so "does
//! `(root, v)` already have an accepting node" is a look left and right.
//!
//! **Relaxation: only the edges that can improve a node.** Between events
//! the index is a fixpoint: for every live node `(v, s)` and in-window edge
//! `e = v -> w` with `s --l--> s'`, `ts(w, s') >= min(ts(v, s), ts(e))`. A
//! new edge offers `min(ts(u, s), ts(edge))` to `(v, s')`; a strict
//! improvement updates the node and is queued for propagation through the
//! live adjacency (so an old edge arriving late, splicing two subtrees,
//! re-relaxes everything downstream). The queue entry carries the timestamp
//! the node rose *from* (`old`) and *to* (`new`), and propagation scans only
//! edges newer than `old`: one with `ts(e) <= old` would offer `min(new,
//! ts(e)) = min(old, ts(e))`, which its target already holds. A timestamp
//! only rises and a child never holds more than its witness parent did, so
//! witness chains are acyclic and parents outlive their children.
//!
//! A match `(source, target)` is **emitted when the pair enters the live
//! result set**: the first accepting node of the root at `target` is created
//! (or re-created after expiry). Refinements of a live pair do not re-emit.
//!
//! **Expiry: one schedule entry per live node**, pushed when the node is
//! created. A node's timestamp only rises, so its entry comes due no later
//! than the node: on pop, equal expires the node, newer moves the entry. The
//! engine drains the schedule before every event (its own `expiry_sweep`
//! stage) and on every prune, so expiry is exact and a full-window drain
//! leaves no state.
//!
//! **Which end roots the trees.** All of the above holds with the path
//! turned around: trees rooted at path *targets* by the reversed pattern's
//! DFA (`PathExpr::reversed`), seeded at an edge's `dst`, relaxed through
//! in-edges, an accepting node `(root, v)` being the pair `(v, root)`. Every
//! live edge whose label leaves the start state roots a tree, so before each
//! edge the matcher compares both ends' live root edges (`edges_of_type`
//! over `RpqDfa::start_symbols`) and turns when the other end has strictly
//! fewer (ties stay), at most once per window: it drops the index, replays
//! silently the live in-window edges the query observed up to the current
//! one, each relaxed against only the edges that arrived before it, and
//! emits in index order the pairs live now that were not before. The pair
//! set is the same from both ends while every live in-window alphabet edge
//! was observed. A tree starts at an observed edge, and the ends start a
//! path at different edges, so while the window holds an unobserved one
//! (mid-stream registration, a resume) the trees stay at the sources, or
//! return there at once — to the index the source end would have built.

use crate::metrics::{QueryMetrics, RpqEnd};
use crate::shared_index::anchor_in_observed;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};
use streamworks_graph::hash::FxHashMap;
use streamworks_graph::{Direction, DynamicGraph, Edge, EdgeId};
use streamworks_graph::{Timestamp, TypeId, VertexId};
use streamworks_query::{RpqDfa, RpqQuery};

/// One emitted path match: the pair that just entered the live result set,
/// plus the witness path (tree branch) that realised it.
#[derive(Debug, Clone)]
pub(crate) struct RpqPathMatch {
    /// Path start vertex.
    pub source: VertexId,
    /// Path end vertex.
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
    /// The witness parent; `(root, start state)` is the implicit root.
    parent: Parent,
}

/// `(parent vertex, parent state, realising edge)` of a tree node.
type Parent = (VertexId, u32, EdgeId);

/// Position of `(root, state)` in a vertex's sorted entry list.
fn position(list: &[Entry], root: VertexId, state: u32) -> Result<usize, usize> {
    list.binary_search_by_key(&(root, state), |e| (e.root, e.state))
}

/// Incremental matcher for one windowed regular path query.
#[derive(Debug)]
pub(crate) struct RpqMatcher {
    rpq: RpqQuery,
    /// The automata of this end (the reversed pattern's at `Target`) and the other.
    dfa: RpqDfa,
    other: RpqDfa,
    end: RpqEnd,
    /// Stream time of the last turn; the next waits a full window.
    turned_at: Option<Timestamp>,
    /// Observation intervals last seen; newest live alphabet edge outside.
    seen_observed: Vec<u64>,
    unobserved_until: Option<Timestamp>,
    /// Edge types that root a tree at this end and at the other.
    root_types: [Vec<TypeId>; 2],
    /// The product index: live non-root nodes by `VertexId::index()`.
    index: Vec<Vec<Entry>>,
    /// Min-heap expiry schedule `(ts, root, vertex, state)`, one per node.
    expiry: BinaryHeap<Reverse<(Timestamp, VertexId, VertexId, u32)>>,
    /// `dfa` symbol per graph edge type, refreshed on schema-version bumps.
    symbol_of_type: FxHashMap<TypeId, u32>,
    /// Graph edge type per `dfa` symbol (`None` until interned), likewise.
    type_of_symbol: Vec<Option<TypeId>>,
    seen_schema: Option<u64>,
    metrics: QueryMetrics,
    /// Live non-root product nodes across all trees.
    nodes_live: u64,
    /// Propagation queue `(root, vertex, state, old ts, new ts)`.
    queue: VecDeque<(VertexId, VertexId, u32, Timestamp, Timestamp)>,
    /// Copy of the arriving edge's seed list (a self-loop inserts into it).
    seeds: Vec<Entry>,
    /// Accepting nodes `(root, vertex, state)` this edge brought live pairs.
    entered: Vec<(VertexId, VertexId, u32)>,
}

impl RpqMatcher {
    /// Creates a matcher, compiling the query's pattern and its reverse to
    /// their minimized DFAs. The trees start rooted at path sources.
    pub fn new(rpq: RpqQuery, graph: &DynamicGraph) -> Self {
        let mut matcher = RpqMatcher {
            dfa: rpq.compile(),
            other: RpqDfa::compile(&rpq.pattern().reversed()),
            end: RpqEnd::Source,
            turned_at: None,
            seen_observed: Vec::new(),
            unobserved_until: None,
            root_types: Default::default(),
            index: Vec::new(),
            expiry: BinaryHeap::new(),
            symbol_of_type: FxHashMap::default(),
            type_of_symbol: Vec::new(),
            seen_schema: None,
            metrics: QueryMetrics::default(),
            nodes_live: 0,
            queue: VecDeque::new(),
            seeds: Vec::new(),
            entered: Vec::new(),
            rpq,
        };
        matcher.refresh_symbols(graph);
        matcher
    }

    /// The query this matcher executes.
    pub fn query(&self) -> &RpqQuery {
        &self.rpq
    }

    /// Current metrics snapshot.
    pub fn metrics(&self) -> QueryMetrics {
        let mut m = self.metrics;
        m.rpq_tree_nodes_live = self.nodes_live;
        m.rpq_end = self.end;
        // Tree nodes are this query class's partial matches: mirror them.
        m.partial_matches_live = self.nodes_live;
        m
    }

    /// Resolves the alphabet of `dfa`, and both ends' root labels, against
    /// the graph's edge types, once per schema version (as `AnchorIndex`).
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
        let roots = |dfa: &RpqDfa| -> Vec<TypeId> {
            (dfa.start_symbols().into_iter())
                .filter_map(|sym| graph.edge_type_id(&dfa.labels()[sym as usize]))
                .collect()
        };
        self.root_types = [roots(&self.dfa), roots(&self.other)];
    }

    /// Processes one newly inserted data edge after [`Self::prune`], turning
    /// the trees around first where the module docs say; emitted matches go
    /// to `out` in discovery order. `observed`: the observation intervals.
    pub fn process_edge(
        &mut self,
        graph: &DynamicGraph,
        observed: &[u64],
        edge: &Edge,
        out: &mut Vec<RpqPathMatch>,
    ) {
        self.metrics.edges_processed += 1;
        self.refresh_symbols(graph);
        if self.seen_observed != observed {
            self.seen_observed = observed.to_vec(); // registration or a resume
            let unobserved = (graph.edges()).filter(|e| !anchor_in_observed(e.id.0, observed));
            let alphabet = unobserved.filter(|e| self.symbol_of_type.contains_key(&e.etype));
            self.unobserved_until = alphabet.map(|e| e.timestamp).max();
        }
        let cutoff = graph.now().minus(self.rpq.window());
        let live = |types: &[TypeId]| types.iter().map(|&t| graph.edges_of_type(t)).sum::<u64>();
        let whole = self.unobserved_until.is_none_or(|t| t <= cutoff);
        let due = self.turned_at.is_none_or(|at| at <= cutoff);
        let rarer = || live(&self.root_types[1]) < live(&self.root_types[0]);
        if (whole && due && rarer()) || (!whole && self.end == RpqEnd::Target) {
            self.turn(graph, observed, edge.id);
        } else {
            self.relax(graph, edge, cutoff);
        }
        self.emit_entered(out);
    }

    /// Folds an in-window alphabet edge into the index: seeds at its near end
    /// (the source, or the target at `Target`), then propagates every rise.
    fn relax(&mut self, graph: &DynamicGraph, edge: &Edge, cutoff: Timestamp) {
        let sym = self.symbol_of_type.get(&edge.etype);
        let Some(&sym) = sym.filter(|_| edge.timestamp > cutoff) else {
            return;
        };
        let (near, far, dir) = match self.end {
            RpqEnd::Source => (edge.src, edge.dst, Direction::Out),
            RpqEnd::Target => (edge.dst, edge.src, Direction::In),
        };
        // Seed: the implicit root at the near end, then every live `(near,
        // s)` of any tree, each with a transition on the edge's label.
        let start = self.dfa.start();
        if let Some(next) = self.dfa.step(start, sym) {
            self.offer(near, far, next, edge.timestamp, (near, start, edge.id));
        }
        let mut seeds = std::mem::take(&mut self.seeds);
        seeds.clear();
        seeds.extend_from_slice(self.index.get(near.index()).map_or(&[], Vec::as_slice));
        for e in &seeds {
            if let Some(next) = self.dfa.step(e.state, sym) {
                let cand = e.ts.min(edge.timestamp);
                self.offer(e.root, far, next, cand, (near, e.state, edge.id));
            }
        }
        self.seeds = seeds;
        // Propagate every rise through the edges that can carry it: newer than
        // the node was, in the window, and (in a replay) older than this edge.
        while let Some((root, v, s, old, new)) = self.queue.pop_front() {
            let after = old.max(cutoff);
            for sym in 0..self.type_of_symbol.len() {
                let (Some(etype), Some(next)) =
                    (self.type_of_symbol[sym], self.dfa.step(s, sym as u32))
                else {
                    continue;
                };
                let hops = graph.entries_after(dir, v, etype, after);
                for hop in hops.filter(|hop| hop.edge <= edge.id) {
                    let cand = new.min(hop.timestamp);
                    self.offer(root, hop.neighbor, next, cand, (v, s, hop.edge));
                }
            }
        }
    }

    /// Offers `cand` as the window timestamp of node `(v, s)` of `root`'s
    /// tree. A creation is noted in `entered` if it brings the `(root, v)`
    /// pair into the live result set; a strict refinement updates the
    /// witness pointer; both are queued for propagation.
    fn offer(&mut self, root: VertexId, v: VertexId, s: u32, cand: Timestamp, parent: Parent) {
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
                    self.entered.push((root, v, s));
                }
                Timestamp(i64::MIN)
            }
        };
        self.metrics.rpq_expansions += 1;
        self.queue.push_back((root, v, s, old, cand));
    }

    /// Emits the pairs noted in `entered`, each with its witness path.
    fn emit_entered(&mut self, out: &mut Vec<RpqPathMatch>) {
        let mut entered = std::mem::take(&mut self.entered);
        self.metrics.rpq_accepts += entered.len() as u64;
        self.metrics.complete_matches += entered.len() as u64;
        out.extend(entered.iter().map(|&(root, v, s)| self.witness(root, v, s)));
        entered.clear();
        self.entered = entered;
    }

    /// Roots the trees at the other end by the replay of the module docs, up
    /// to `last`; notes in `entered` the pairs live now but not before.
    fn turn(&mut self, graph: &DynamicGraph, observed: &[u64], last: EdgeId) {
        // Live pairs as the other end's `(root, vertex)`, sorted by index order.
        let live = self.accepting_nodes().into_iter();
        let before: Vec<_> = live.map(|(r, v, _)| (v, r)).collect();
        // Dropped nodes count as expired: inserted minus expired stays live.
        self.metrics.partial_matches_expired += std::mem::take(&mut self.nodes_live);
        self.index.clear();
        self.expiry.clear();
        std::mem::swap(&mut self.dfa, &mut self.other);
        self.end = self.end.opposite();
        self.seen_schema = None;
        self.refresh_symbols(graph);
        self.turned_at = Some(graph.now());
        self.metrics.rpq_end_switches += 1;
        let cutoff = graph.now().minus(self.rpq.window());
        let replayed = graph.edges().take_while(|e| e.id <= last);
        for e in replayed.filter(|e| anchor_in_observed(e.id.0, observed)) {
            self.relax(graph, e, cutoff);
        }
        self.entered = self.accepting_nodes();
        (self.entered).retain(|&(r, v, _)| before.binary_search(&(r, v)).is_err());
    }

    /// The first accepting node of every live `(root, vertex)` pair, in
    /// index order: the live result set.
    fn accepting_nodes(&self) -> Vec<(VertexId, VertexId, u32)> {
        let mut nodes = Vec::new();
        for (v, list) in self.index.iter().enumerate() {
            let accepting = list.iter().filter(|e| self.dfa.is_accepting(e.state));
            nodes.extend(accepting.map(|e| (e.root, VertexId(v as u32), e.state)));
        }
        nodes.dedup_by_key(|&mut (root, v, _)| (root, v));
        nodes
    }

    /// Builds the witness path for the accepting node `(v, state)` by
    /// walking parent pointers to the implicit root, the one node of the
    /// tree not stored (chains are acyclic, see the module docs).
    fn witness(&self, root: VertexId, v: VertexId, state: u32) -> RpqPathMatch {
        let mut edges = Vec::new();
        let mut cursor = (v, state);
        let stored = |(v, s): (VertexId, u32)| {
            let list = self.index.get(v.index())?;
            Some(&list[position(list, root, s).ok()?])
        };
        while let Some(node) = stored(cursor) {
            edges.push(node.parent.2);
            cursor = (node.parent.0, node.parent.1);
        }
        let (source, target) = if self.end == RpqEnd::Source {
            edges.reverse(); // the walk from a source root ran target to source
            (root, v)
        } else {
            (v, root)
        };
        RpqPathMatch {
            source,
            target,
            edges,
        }
    }

    /// Removes every node whose last supporting path has left the window
    /// as of `now`: the engine calls it before each event and on prunes.
    pub fn prune(&mut self, now: Timestamp) {
        let cutoff = now.minus(self.rpq.window());
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamworks_graph::{Duration, EdgeEvent};
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
        m.prune(g.now());
        m.process_edge(g, &[0], &edge, &mut out);
        out
    }

    fn matcher(g: &DynamicGraph, text: &str) -> RpqMatcher {
        RpqMatcher::new(parse_rpq(text).unwrap(), g)
    }

    fn key(g: &DynamicGraph, v: VertexId) -> String {
        g.vertex_key(v).unwrap().to_owned()
    }

    /// Size of the live result set.
    fn live_pairs(m: &RpqMatcher) -> usize {
        m.accepting_nodes().len()
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

    /// The labels of a witness, checked contiguous from `source` to `target`.
    fn witness_word(g: &DynamicGraph, m: &RpqPathMatch) -> Vec<String> {
        let mut at = m.source;
        let mut word = Vec::new();
        for id in &m.edges {
            let edge = g.edge(*id).expect("witness edges are live");
            assert_eq!(edge.src, at, "witness is contiguous");
            word.push(g.edge_type_name(edge.etype).unwrap().to_owned());
            at = edge.dst;
        }
        assert_eq!(at, m.target, "witness ends at the target");
        word
    }

    #[test]
    fn trees_rooted_at_targets_report_pairs_and_witnesses_source_first() {
        let mut g = graph();
        let mut m = matcher(&g, "RPQ p WINDOW 1h PATH a b c");
        // One `a` edge and no `c` edge: the first edge already turns the
        // trees to the target end.
        assert!(feed(&mut g, &mut m, "u", "x", "a", 10).is_empty());
        assert_eq!(m.metrics().rpq_end, RpqEnd::Target);
        assert_eq!(m.metrics().rpq_end_switches, 1);
        assert!(feed(&mut g, &mut m, "x", "y", "b", 11).is_empty());
        let matches = feed(&mut g, &mut m, "y", "v", "c", 12);
        assert_eq!(matches.len(), 1);
        assert_eq!(key(&g, matches[0].source), "u");
        assert_eq!(key(&g, matches[0].target), "v");
        assert_eq!(witness_word(&g, &matches[0]), ["a", "b", "c"]);
        // A second source reaching `x` is a second pair, found from `v`.
        let more = feed(&mut g, &mut m, "w", "x", "a", 13);
        assert_eq!(more.len(), 1);
        assert_eq!(key(&g, more[0].source), "w");
        assert_eq!(witness_word(&g, &more[0]), ["a", "b", "c"]);
    }

    #[test]
    fn a_turn_emits_only_new_pairs_and_waits_a_window() {
        let mut g = graph();
        let mut m = matcher(&g, "RPQ p WINDOW 1h PATH a b");
        // As many `b` edges as `a` edges: the trees stay at the sources.
        assert!(feed(&mut g, &mut m, "x", "v", "b", 1).is_empty());
        assert_eq!(feed(&mut g, &mut m, "u", "x", "a", 2).len(), 1);
        assert_eq!(m.metrics().rpq_end_switches, 0);
        // A second `a` edge makes the targets the rarer end. The rebuild
        // finds `(u, v)` again and `(u2, v)` for the first time: only the
        // new pair is emitted, with a valid witness.
        let turned = feed(&mut g, &mut m, "u2", "x", "a", 3);
        assert_eq!(m.metrics().rpq_end, RpqEnd::Target);
        assert_eq!(turned.len(), 1);
        assert_eq!(key(&g, turned[0].source), "u2");
        assert_eq!(key(&g, turned[0].target), "v");
        assert_eq!(witness_word(&g, &turned[0]), ["a", "b"]);
        assert_eq!(live_pairs(&m), 2);
        // Now the sources are rarer again, but a turn waits a full window.
        for (i, dst) in ["w1", "w2", "w3"].into_iter().enumerate() {
            assert_eq!(feed(&mut g, &mut m, "x", dst, "b", 4 + i as i64).len(), 2);
        }
        assert_eq!(m.metrics().rpq_end_switches, 1);
        // A window later the trees turn back; everything has expired, so
        // the rebuild finds nothing to emit.
        assert!(feed(&mut g, &mut m, "y", "z", "b", 3_700).is_empty());
        let after = m.metrics();
        assert_eq!((after.rpq_end, after.rpq_end_switches), (RpqEnd::Source, 2));
        assert_no_state(&m);
        assert_eq!(
            after.partial_matches_expired,
            after.partial_matches_inserted
        );
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
