//! Multi-query sharing: the interning index.
//!
//! StreamWorks is a registry system — many standing queries watch one stream
//! — and registries built from shared templates contain many *structurally
//! identical* pieces: the same search primitive, the same join subtree, the
//! same template with a different compared literal. Without sharing, the
//! engine's per-event cost is `O(#queries)`: every registered query runs its
//! own anchored local search and its own join climb for every incoming edge,
//! even when a thousand queries would do exactly the same work.
//!
//! [`SharedIndex`] is the layer between registration and matching that
//! removes that multiplier. It interns **entries**; every SJ-Tree node of a
//! registered plan — a leaf primitive is simply the height-0 case of a
//! subtree — can subscribe to one:
//!
//! * An entry is a *lifted canonical form* ([`LiftedPrimitive`]: typed
//!   edges, directions, predicates and window under any query-vertex
//!   renaming, with edge `eq` constants abstracted to slots) plus its own
//!   [`SjTreeMatcher`] over the canonical pattern. Forms are interned by
//!   structural fingerprint; an explicit canonical-form equality check
//!   behind the hash guarantees a fingerprint collision can never merge
//!   non-isomorphic forms. Entries are refcounted by their subscriptions:
//!   the last deregistration frees the entry.
//! * At [`register_plan`](crate::ContinuousQueryEngine::register_plan) time
//!   the plan's tree is walked top-down ([`SharedIndex::subscribe`]) and the
//!   query subscribes at every *maximal* node whose form is interned; below
//!   a subscribed node nothing else subscribes.
//! * Per event, each entry the edge's type can reach runs its anchored
//!   searches — and, if it has internal nodes, its join climb — **once**,
//!   and the resulting matches fan out to every active subscriber, filtered
//!   by bound constants (lifted entries), gated on what the subscriber
//!   itself observed, and remapped through the subscriber's precomputed
//!   vertex/edge permutation into its own query space.
//!
//! What an entry may skip follows from the entry itself. One whose matcher
//! is a single leaf holds no join state: everything it reports is re-read
//! from the graph, so it can be created for its first subscriber, rests
//! while every subscriber is paused, and a registry in which no such entry
//! serves two subscribers does not need the index at all
//! ([`SharedIndex::needs_dispatch`]). One with join stores is created *cold*
//! — only once a second query proves the shape recurs, see [`Advert`] — and
//! is fed every event from then on.
//!
//! The index also keeps the engine-level dedup counters surfaced as
//! [`crate::EngineMetrics`], and per-subscription accounting that lets
//! [`crate::QueryMetrics::local_search_candidates`] stay exact per query even
//! though the search ran once for many queries.

use crate::anchors::AnchorIndex;
use crate::binding::{Binding, PartialMatch};
use crate::metrics::EngineMetrics;
use crate::sj_matcher::SjTreeMatcher;
use smallvec::SmallVec;
use streamworks_graph::hash::{FxHashMap, FxHashSet};
use streamworks_graph::{AttrValue, Duration, DynamicGraph, Edge, Timestamp};
use streamworks_query::{
    eq_constant_token, LiftedPrimitive, ManualDecomposition, Planner, QueryEdgeId, QueryGraph,
    QueryPlan, QueryVertexId, SjNodeId,
};

/// True when `anchor` (an arrival-order edge id) falls inside one of the
/// `[open, close)` observation intervals of a query's `observed` boundary
/// list (odd length = the final interval is still open). This is the gate
/// that makes shared delivery exact under pause/resume and late
/// registration: a match is delivered only if every leaf embedding of the
/// *subscriber's own* partition was anchored at an edge the subscriber
/// observed — exactly the embeddings its private matcher would have formed.
pub(crate) fn anchor_in_observed(anchor: u64, observed: &[u64]) -> bool {
    let mut i = 0;
    while i < observed.len() {
        let open = observed[i];
        let close = observed.get(i + 1).copied();
        if anchor >= open && close.is_none_or(|c| anchor < c) {
            return true;
        }
        i += 2;
    }
    false
}

/// Deterministic FNV-1a over constant tokens: the O(1) prefilter key of
/// lifted constant dispatch (exact token equality decides behind it, so a
/// hash collision can never misroute an embedding).
fn tokens_hash(tokens: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in tokens {
        for b in t.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= 0xff; // token separator
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One query's subscription to an entry: which SJ-Tree node of the
/// subscriber the entry's matches feed, how canonical-space bindings
/// translate into the subscriber's query space, and the per-subscriber state
/// of constant dispatch and observation gating.
#[derive(Debug)]
struct Subscriber {
    /// The subscribing query's slot index.
    slot: u32,
    /// The subscriber's SJ-Tree node this entry realises: matches are
    /// absorbed here and the climb continues toward the root (for a
    /// whole-tree subscription this *is* the root and absorbed matches are
    /// complete).
    node: SjNodeId,
    /// Canonical vertex id → subscriber query vertex.
    vertex_map: Vec<QueryVertexId>,
    /// Canonical edge position → subscriber query edge.
    edge_map: Vec<QueryEdgeId>,
    /// The subscriber query's total vertex count (binding slot table size).
    vertex_count: usize,
    /// This query's registered constant tokens, in the entry's slot order
    /// (empty unless the entry is lifted).
    constants: Vec<String>,
    /// FNV prefilter key of `constants` (see [`tokens_hash`]).
    const_hash: u64,
    /// The *subscriber's own* leaf partition of the subscribed subtree, as
    /// groups of canonical edge positions: observation gating anchors each
    /// group at its max data-edge id. The partition must be the subscriber's
    /// — two decompositions of the same subtree partition the edges
    /// differently, and window acceptance is partition-independent but
    /// observation gating is not. One group when `node` is a leaf.
    gate_partition: Vec<Vec<u32>>,
    /// False while the subscriber is paused: it drops out of the fan-out.
    active: bool,
    /// Entry candidate counter at the start of the current active interval.
    cand_base: u64,
    /// Candidates attributed over closed active intervals.
    cand_accum: u64,
}

impl Subscriber {
    /// Translates a canonical-space match into the subscriber's query space:
    /// bindings move through the vertex permutation, covered edges through
    /// the edge permutation, timestamps are preserved.
    fn remap(&self, m: &PartialMatch) -> PartialMatch {
        let mut binding = Binding::new(self.vertex_count);
        for (canon_v, dv) in m.binding.iter() {
            let bound = binding.bind(self.vertex_map[canon_v.0], dv);
            debug_assert!(bound, "a bijective renaming preserves injectivity");
        }
        let mut edges: SmallVec<(QueryEdgeId, streamworks_graph::EdgeId), 6> = SmallVec::new();
        for &(qe, de) in &m.edges {
            edges.push((self.edge_map[qe.0], de));
        }
        edges.as_mut_slice().sort_unstable_by_key(|(q, _)| *q);
        PartialMatch {
            binding,
            edges,
            earliest: m.earliest,
            latest: m.latest,
        }
    }

    /// Observation gate: deliver a match to this subscriber only if every
    /// leaf of the subscriber's own partition is anchored (max data-edge id
    /// over the leaf's covered edges) inside the subscriber's observed
    /// intervals — exactly the leaf embeddings its private anchored search
    /// would have formed, so pause gaps and late registration behave
    /// identically to private matching.
    fn admits(&self, m: &PartialMatch, observed: &[u64]) -> bool {
        self.gate_partition.iter().all(|leaf| {
            let mut anchor = 0u64;
            let mut found = false;
            for &pos in leaf {
                if let Some(&(_, de)) = m.edges.iter().find(|(qe, _)| qe.0 == pos as usize) {
                    found = true;
                    anchor = anchor.max(de.0);
                }
            }
            found && anchor_in_observed(anchor, observed)
        })
    }
}

/// One interned form: the subtree of typed, predicated edges below some
/// SJ-Tree node (a single search primitive when that node is a leaf), owning
/// its own matcher over the — possibly lifted — canonical pattern. The
/// matcher runs the anchored searches *and* the join climb once; its
/// complete matches are the entry's results, fanned out to every subscriber.
#[derive(Debug)]
struct Entry {
    /// The lifted canonical form (fingerprint + exact isomorphism check +
    /// constant slot table).
    form: LiftedPrimitive,
    /// The entry's own matcher over the canonical search pattern (constants
    /// removed when lifted): a one-leaf plan when the entry was created for
    /// a leaf, the default plan of the pattern otherwise.
    matcher: SjTreeMatcher,
    /// True when `matcher` has internal nodes, i.e. join stores whose
    /// partials later matches depend on (see the module docs for what
    /// follows from it).
    stateful: bool,
    /// Subscribing (query, node) pairs, refcounting the entry.
    subscribers: Vec<Subscriber>,
    /// Subscribers currently active (not paused).
    active_subs: usize,
    /// `local_search_candidates` snapshot of the matcher (the attribution
    /// counter `cand_base`/`cand_accum` intervals are cut against).
    candidates: u64,
    /// `joins_attempted` snapshot of the matcher at the last event (for the
    /// per-event joins-run delta).
    joins_seen: u64,
    /// `SharedIndex::events` stamp of the last event fed to the matcher.
    last_fed: u64,
    /// Complete (entry-root) matches of the current event.
    results: Vec<PartialMatch>,
    /// Per-result bound constant tokens (`None`: a slot attribute was
    /// missing, so no tenant's `eq` predicate can hold). Empty unless lifted.
    result_consts: Vec<Option<Vec<String>>>,
    /// Per-result constant hashes aligned with `result_consts` (prefilter).
    result_hashes: Vec<u64>,
    /// Per-slot union of subscribed constant tokens. The entry's search
    /// pattern carries an `InSet` filter per lifted slot, widened — never
    /// narrowed, see [`SharedIndex::attach`] — as subscribers bring new
    /// constants, so the shared search stays as selective as the tenants'
    /// own `eq` predicates. Empty unless lifted.
    accepted: Vec<FxHashSet<String>>,
}

/// A pending advert: `slot` walked past this internal node's form without
/// finding a live entry. When a *different* slot later walks past an
/// isomorphic form, the entry is created ("promoted") and the newcomer
/// subscribes; the advertiser keeps matching the subtree privately —
/// retro-subscribing it to a cold entry would lose the join state it has
/// already accumulated.
#[derive(Debug)]
struct Advert {
    slot: u32,
    window: Duration,
    form: LiftedPrimitive,
}

/// A pending fan-out unit of one event: entry `entry`'s results go to
/// subscriber `sub` of that entry. Sort key fields first, so the engine
/// delivers in deterministic (slot, node) order.
pub(crate) type Delivery = (u32, u32, u32, u32); // (slot, node, entry, sub)

/// The interning index (see the module docs).
///
/// A lifted entry's search pattern has the tenants' `eq` constants
/// abstracted away; searching it unconstrained would enumerate every
/// embedding of the bare shape. Each lifted slot therefore carries an
/// `InSet` predicate holding the **union of the subscribed constants**
/// (widened in [`Self::attach`]), so the shared search rejects exactly the
/// attribute values no tenant watches — as selective as the tenants' own
/// predicates, while still running once for all of them.
#[derive(Debug, Default)]
pub(crate) struct SharedIndex {
    /// Per-node match cap handed to entry matchers (the engine's
    /// `max_matches_per_node`).
    match_cap: Option<usize>,
    /// Entry slots; freed entries are `None` and re-occupied via `free`.
    entries: Vec<Option<Entry>>,
    free: Vec<u32>,
    /// Fingerprint → entry indices. More than one index under a hash is a
    /// fingerprint collision (`LiftedPrimitive::matches` decides), a second
    /// window, or a leaf-created twin of a stateful entry.
    by_hash: FxHashMap<u64, Vec<u32>>,
    /// Query slot → entries it subscribes to (one per subscription;
    /// duplicates when several nodes of one query intern to the same entry).
    per_slot: FxHashMap<u32, Vec<u32>>,
    /// Fingerprint → adverts (purged when the advertising slot leaves).
    adverts: FxHashMap<u64, Vec<Advert>>,
    /// Per-type dispatch of entries — the same [`AnchorIndex`] the per-query
    /// matcher dispatches its leaves through, keyed by entry index (the
    /// anchor edge is unused: the entry's matcher runs its own dispatch).
    anchors: AnchorIndex<u32>,
    /// Entries with results in the current event.
    touched: Vec<u32>,
    /// Reusable buffers for one entry's embeddings and matcher output.
    primitive_scratch: Vec<(SjNodeId, PartialMatch)>,
    complete_scratch: Vec<PartialMatch>,
    /// Events processed through the index.
    events: u64,
    /// Anchored searches actually run.
    searches_run: u64,
    /// Anchored searches saved vs. the per-query path (`active_subs - 1` per
    /// search run).
    searches_saved: u64,
    /// Embeddings produced by shared searches (pre-fan-out).
    embeddings_found: u64,
    /// Matches delivered to subscriber nodes (post-fan-out).
    deliveries: u64,
    /// Join-climb steps actually run inside entries.
    joins_run: u64,
    /// Join-climb steps saved vs. the per-query path.
    joins_saved: u64,
    /// Matches that passed lifted constant dispatch.
    lifted_hits: u64,
}

impl SharedIndex {
    /// Creates the index; `match_cap` is forwarded to entry matchers.
    pub fn new(match_cap: Option<usize>) -> Self {
        SharedIndex {
            match_cap,
            ..Default::default()
        }
    }

    /// Walks `plan`'s SJ-Tree top-down from the root and subscribes `slot`
    /// at every *maximal* node whose form is — or can now be — interned.
    ///
    /// A leaf subscribes to a live entry without join stores of its form, or
    /// creates a one-leaf entry on the spot. (An entry *with* stores would
    /// not do: a leaf search re-reads the whole window from the graph, which
    /// a cold-started join tree only covers from its creation on.) An
    /// internal node subscribes to any live entry of its form, or promotes a
    /// pending advert from another slot into a cold entry; failing both it
    /// advertises the form and the walk descends into its children.
    ///
    /// Returns the nodes subscribed — where the index feeds the query's own
    /// matcher, which must keep every node at or below them eager.
    ///
    /// All-or-nothing: returns `None` — with no subscription or advert left
    /// behind — if any leaf the walk reaches cannot be canonicalized
    /// (pathologically symmetric primitive). Such a query is matched
    /// privately instead; a query is either fully index-dispatched or fully
    /// private, never half.
    pub fn subscribe(
        &mut self,
        slot: u32,
        plan: &QueryPlan,
        graph: &DynamicGraph,
    ) -> Option<Vec<SjNodeId>> {
        debug_assert!(
            !self.per_slot.contains_key(&slot),
            "slot must be unsubscribed before re-subscribing"
        );
        let window = plan.query.window();
        let mut fed = Vec::new();
        let mut stack = vec![plan.shape.root()];
        while let Some(node_id) = stack.pop() {
            let node = plan.shape.node(node_id);
            let form = LiftedPrimitive::build(&plan.query, &node.edges, true);
            let Some((left, right)) = node.children else {
                let idx = form.as_ref().and_then(|form| {
                    self.find_entry(form, window, true)
                        .or_else(|| self.create_entry(form, &plan.query, graph, true))
                });
                let (Some(form), Some(idx)) = (form, idx) else {
                    self.unsubscribe(slot);
                    return None;
                };
                self.attach(idx, slot, node_id, plan, form);
                fed.push(node_id);
                continue;
            };
            if let Some(form) = form {
                let idx = self.find_entry(&form, window, false).or_else(|| {
                    self.has_matching_advert(&form, window, slot)
                        .then(|| self.create_entry(&form, &plan.query, graph, false))
                        .flatten()
                });
                if let Some(idx) = idx {
                    self.attach(idx, slot, node_id, plan, form);
                    fed.push(node_id);
                    continue;
                }
                self.adverts
                    .entry(form.canon().fingerprint())
                    .or_default()
                    .push(Advert { slot, window, form });
            }
            stack.push(left);
            stack.push(right);
        }
        Some(fed)
    }

    /// Removes every subscription of `slot` and purges its adverts. Entries
    /// left without subscribers are freed (the refcount discipline: the last
    /// deregistration releases the shared state); adverts of *other* slots
    /// persist, so a freed form can be promoted again later. A surviving
    /// entry keeps the departing slot's constants in its `InSet` search
    /// filter — the filter only ever widens while an entry is live
    /// (narrowing would invalidate stored partials); a freed entry starts
    /// over, dropping the stale constants.
    pub fn unsubscribe(&mut self, slot: u32) {
        self.adverts.retain(|_, list| {
            list.retain(|a| a.slot != slot);
            !list.is_empty()
        });
        let Some(mut entry_indices) = self.per_slot.remove(&slot) else {
            return;
        };
        entry_indices.sort_unstable();
        entry_indices.dedup();
        for idx in entry_indices {
            let entry = self.entries[idx as usize]
                .as_mut()
                .expect("subscribed entry is live");
            entry.subscribers.retain(|s| {
                if s.slot == slot {
                    if s.active {
                        entry.active_subs -= 1;
                    }
                    false
                } else {
                    true
                }
            });
            if entry.subscribers.is_empty() {
                let fingerprint = entry.form.canon().fingerprint();
                self.entries[idx as usize] = None;
                self.free.push(idx);
                self.anchors.mark_dirty();
                if let Some(chain) = self.by_hash.get_mut(&fingerprint) {
                    chain.retain(|&i| i != idx);
                    if chain.is_empty() {
                        self.by_hash.remove(&fingerprint);
                    }
                }
            }
        }
    }

    /// Activates or deactivates every subscription of `slot` (pause/resume),
    /// cutting its candidate-attribution intervals. Inactive subscriptions
    /// drop out of the fan-out.
    pub fn set_active(&mut self, slot: u32, active: bool) {
        let Some(entry_indices) = self.per_slot.get(&slot) else {
            return;
        };
        for &idx in entry_indices {
            let entry = self.entries[idx as usize]
                .as_mut()
                .expect("subscribed entry is live");
            let candidates = entry.candidates;
            for sub in entry.subscribers.iter_mut().filter(|s| s.slot == slot) {
                if sub.active == active {
                    continue;
                }
                sub.active = active;
                if active {
                    entry.active_subs += 1;
                    sub.cand_base = candidates;
                } else {
                    entry.active_subs -= 1;
                    sub.cand_accum += candidates - sub.cand_base;
                }
            }
        }
    }

    /// True when events have to go through the index; false when every
    /// subscribed query can just as well run its own matcher, which is
    /// cheaper at one subscriber per entry. The index can be bypassed — and
    /// re-entered later — only while all the state a match may need lives in
    /// the queries' private matchers: no entry holds join stores (it would
    /// miss the bypassed events), and no subscription sits at an internal
    /// node (the private matcher below it was not fed while the index
    /// served it). What is left are one-leaf entries serving leaves, and
    /// those pay off from the second active subscriber on.
    pub fn needs_dispatch(&self) -> bool {
        self.entries.iter().flatten().any(|e| {
            e.stateful
                || e.active_subs >= 2
                || e.subscribers.iter().any(|s| s.gate_partition.len() > 1)
        })
    }

    /// Events processed through the index so far (the basis of per-query
    /// `edges_processed` accounting while index-dispatched).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Local-search candidates attributable to `slot`: what its own searches
    /// would have examined, summed over its subscriptions' active intervals.
    pub fn slot_candidates(&self, slot: u32) -> u64 {
        let Some(entry_indices) = self.per_slot.get(&slot) else {
            return 0;
        };
        // `per_slot` lists one entry per subscription, so an entry shared by
        // several nodes of this query appears several times; the inner loop
        // already sums every subscription of the slot, so visit each entry
        // once.
        let mut entry_indices = entry_indices.clone();
        entry_indices.sort_unstable();
        entry_indices.dedup();
        let mut total = 0u64;
        for idx in entry_indices {
            let entry = self.entries[idx as usize]
                .as_ref()
                .expect("subscribed entry is live");
            for sub in entry.subscribers.iter().filter(|s| s.slot == slot) {
                total += sub.cand_accum;
                if sub.active {
                    total += entry.candidates - sub.cand_base;
                }
            }
        }
        total
    }

    /// Feeds one incoming edge to every entry its type can reach: the
    /// entry's matcher runs its anchored searches and join climb once, and
    /// complete (entry-root) matches accumulate — with their bound constant
    /// tokens when lifted — until the engine fans them out
    /// ([`Self::collect_deliveries`] lists the pending work).
    ///
    /// An entry with join stores is fed even while every subscriber is
    /// paused. Skipping such edges would be unsound: a leaf embedding is
    /// always anchored at its own max data edge, so a gap edge can anchor an
    /// *entry*-leaf partial that a post-resume joined match needs — while
    /// anchoring no leaf of the *subscriber's* partition, so
    /// [`Subscriber::admits`] (which gates on the subscriber's partition,
    /// not the entry's) rightly admits the match. An entry without stores
    /// has nothing a later match could need and rests until a subscriber
    /// resumes.
    pub fn search_edge(&mut self, graph: &DynamicGraph, edge: &Edge) {
        self.events += 1;
        self.touched.clear();
        if self.anchors.schema_changed(graph.schema_version()) || self.anchors.is_dirty() {
            self.rebuild_anchors(graph);
        }
        let anchors = self.anchors.take_for_type(edge.etype);
        let mut primitives = std::mem::take(&mut self.primitive_scratch);
        let mut complete = std::mem::take(&mut self.complete_scratch);
        for &(idx, _) in &anchors {
            let entry = self.entries[idx as usize]
                .as_mut()
                .expect("anchor tables only reference live entries");
            // An entry with a typed and an untyped edge is listed twice.
            if entry.last_fed == self.events || (entry.active_subs == 0 && !entry.stateful) {
                continue;
            }
            entry.last_fed = self.events;
            entry.results.clear();
            entry.result_consts.clear();
            entry.result_hashes.clear();
            primitives.clear();
            complete.clear();
            let searches = entry
                .matcher
                .primitive_matches_into(graph, edge, &mut primitives);
            self.embeddings_found += primitives.len() as u64;
            for (leaf, m) in primitives.drain(..) {
                entry.matcher.absorb(leaf, m, &mut complete);
            }
            let m = entry.matcher.counters();
            let joins = m.joins_attempted - entry.joins_seen;
            entry.joins_seen = m.joins_attempted;
            entry.candidates = m.local_search_candidates;
            let spared = (entry.active_subs as u64).saturating_sub(1);
            self.searches_run += searches;
            self.searches_saved += searches * spared;
            self.joins_run += joins;
            self.joins_saved += joins * spared;
            if complete.is_empty() {
                continue;
            }
            let lifted = entry.form.is_lifted();
            for found in complete.drain(..) {
                if lifted {
                    let consts = bound_constants(graph, &entry.form, &found);
                    entry
                        .result_hashes
                        .push(consts.as_deref().map_or(0, tokens_hash));
                    entry.result_consts.push(consts);
                }
                entry.results.push(found);
            }
            self.touched.push(idx);
        }
        self.anchors.give_back(anchors);
        self.primitive_scratch = primitives;
        self.complete_scratch = complete;
    }

    /// Appends one [`Delivery`] per (entry with results, active subscriber)
    /// pair of the current event — for lifted entries only subscribers whose
    /// constant hash appears among the results (the exact token comparison
    /// happens at delivery). The tuples sort by (slot, node), giving the
    /// engine the same per-event query order as the private loop.
    pub fn collect_deliveries(&self, out: &mut Vec<Delivery>) {
        for &idx in &self.touched {
            let entry = self.entries[idx as usize]
                .as_ref()
                .expect("touched entries are live");
            let lifted = entry.form.is_lifted();
            for (si, sub) in entry.subscribers.iter().enumerate() {
                if !sub.active || (lifted && !entry.result_hashes.contains(&sub.const_hash)) {
                    continue;
                }
                out.push((sub.slot, sub.node.0 as u32, idx, si as u32));
            }
        }
    }

    /// Carries out one [`Delivery`]: every result of the entry that the
    /// subscriber is owed — the bound constants equal its registered ones
    /// (lifted entries), and [`Subscriber::admits`] it against the query's
    /// `observed` intervals — is remapped into the subscriber's query space
    /// and handed to `absorb` together with the subscription node.
    pub fn fan_out(
        &mut self,
        d: &Delivery,
        observed: &[u64],
        mut absorb: impl FnMut(SjNodeId, PartialMatch),
    ) {
        let entry = self.entries[d.2 as usize]
            .as_ref()
            .expect("deliveries reference live entries");
        let sub = &entry.subscribers[d.3 as usize];
        let lifted = entry.form.is_lifted();
        for (i, m) in entry.results.iter().enumerate() {
            if lifted {
                if entry.result_consts[i].as_deref() != Some(sub.constants.as_slice()) {
                    continue;
                }
                self.lifted_hits += 1;
            }
            if sub.admits(m, observed) {
                self.deliveries += 1;
                absorb(sub.node, sub.remap(m));
            }
        }
    }

    /// Expires partial matches inside every entry's matcher.
    pub fn prune(&mut self, now: Timestamp) {
        for entry in self.entries.iter_mut().flatten() {
            entry.matcher.prune(now);
        }
    }

    /// Engine-level dedup counters (see [`EngineMetrics`]). An entry counts
    /// as a *primitive* when it is exactly what a leaf search is — one
    /// search primitive, no lifted constant — and as a *subtree* when it
    /// does more: a join climb, or constant dispatch.
    pub fn metrics(&self) -> EngineMetrics {
        let mut m = EngineMetrics {
            shared_searches_run: self.searches_run,
            searches_saved: self.searches_saved,
            shared_embeddings: self.embeddings_found,
            fanout_deliveries: self.deliveries,
            subtree_joins_run: self.joins_run,
            subtree_joins_saved: self.joins_saved,
            lifted_dispatch_hits: self.lifted_hits,
            ..Default::default()
        };
        for entry in self.entries.iter().flatten() {
            let subscribed = entry.subscribers.len() as u64;
            let lifted = entry.form.is_lifted();
            m.lifted_entries += u64::from(lifted);
            if entry.stateful || lifted {
                m.distinct_subtrees += 1;
                m.subscribed_subtrees += subscribed;
            } else {
                m.distinct_primitives += 1;
                m.subscribed_primitives += subscribed;
            }
        }
        m
    }

    /// Finds a live entry isomorphic to `form` (same lifted canonical form
    /// **and** window), full equality checked behind the fingerprint so hash
    /// collisions never merge distinct forms. With `storeless`, entries
    /// holding join stores do not qualify (see [`Self::subscribe`]).
    fn find_entry(&self, form: &LiftedPrimitive, window: Duration, storeless: bool) -> Option<u32> {
        let chain = self.by_hash.get(&form.canon().fingerprint())?;
        chain.iter().copied().find(|&idx| {
            let entry = self.entries[idx as usize]
                .as_ref()
                .expect("hash chains only reference live entries");
            !(storeless && entry.stateful)
                && entry.matcher.window() == window
                && entry.form.matches(form)
        })
    }

    /// True when another slot has advertised an isomorphic form with the
    /// same window — the promotion trigger. The advert stays in place: if
    /// the promoted entry is later freed, the advertiser's interest still
    /// stands.
    fn has_matching_advert(&self, form: &LiftedPrimitive, window: Duration, slot: u32) -> bool {
        self.adverts
            .get(&form.canon().fingerprint())
            .is_some_and(|list| {
                list.iter()
                    .any(|a| a.slot != slot && a.window == window && a.form.matches(form))
            })
    }

    /// Creates an entry for `form`: plans the canonical search pattern — as
    /// one leaf primitive when `one_leaf`, with the default strategy
    /// otherwise — and builds the entry's own matcher. `None` when the
    /// pattern cannot be planned.
    fn create_entry(
        &mut self,
        form: &LiftedPrimitive,
        query: &QueryGraph,
        graph: &DynamicGraph,
        one_leaf: bool,
    ) -> Option<u32> {
        let pattern = form.search_pattern(query);
        let plan = if one_leaf {
            let edges = pattern.edge_ids().collect();
            Planner::new().plan_with(pattern, &ManualDecomposition::new(vec![edges]))
        } else {
            Planner::new().plan(pattern)
        }
        .ok()?;
        let entry = Entry {
            form: form.clone(),
            stateful: plan.shape.leaves().len() > 1,
            matcher: SjTreeMatcher::new(plan, graph).with_match_cap(self.match_cap),
            subscribers: Vec::new(),
            active_subs: 0,
            candidates: 0,
            joins_seen: 0,
            last_fed: 0,
            results: Vec::new(),
            result_consts: Vec::new(),
            result_hashes: Vec::new(),
            accepted: vec![FxHashSet::default(); form.slots().len()],
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.entries[i as usize] = Some(entry);
                i
            }
            None => {
                self.entries.push(Some(entry));
                (self.entries.len() - 1) as u32
            }
        };
        self.by_hash
            .entry(form.canon().fingerprint())
            .or_default()
            .push(idx);
        self.anchors.mark_dirty();
        Some(idx)
    }

    /// Subscribes `slot` at `node_id` to entry `idx`, precomputing the remap
    /// permutations, the constant tokens, and the subscriber's own leaf
    /// partition (canonical edge positions) for observation gating.
    fn attach(
        &mut self,
        idx: u32,
        slot: u32,
        node_id: SjNodeId,
        plan: &QueryPlan,
        form: LiftedPrimitive,
    ) {
        let canon_pos: FxHashMap<QueryEdgeId, u32> = form
            .canon()
            .edge_order()
            .iter()
            .enumerate()
            .map(|(i, &qe)| (qe, i as u32))
            .collect();
        let mut gate_partition = Vec::new();
        let mut stack = vec![node_id];
        while let Some(n) = stack.pop() {
            let nd = plan.shape.node(n);
            match nd.children {
                Some((a, b)) => {
                    stack.push(a);
                    stack.push(b);
                }
                None => gate_partition.push(
                    nd.edges
                        .iter()
                        .map(|qe| canon_pos[qe])
                        .collect::<Vec<u32>>(),
                ),
            }
        }
        let entry = self.entries[idx as usize]
            .as_mut()
            .expect("attach targets a live entry");
        // Widen the entry's per-slot constant filter with this subscriber's
        // tokens. The filter only ever grows while the entry is live (a
        // leaving subscriber does not retract its constants), so partials
        // stored under the old filter remain a valid subset of the new one.
        // An embedding dropped while its constant was unwatched can only be
        // needed by a later subscriber of that constant, whose observation
        // gate rejects matches anchored before it subscribed — the same
        // contract that makes cold-entry promotion exact.
        for (j, (pos, key)) in form.slots().iter().enumerate() {
            let tok = &form.constants()[j];
            if entry.accepted[j].insert(tok.clone()) {
                entry.matcher.query_mut().extend_in_set(
                    QueryEdgeId(*pos as usize),
                    key,
                    &token_values(tok),
                );
            }
        }
        entry.subscribers.push(Subscriber {
            slot,
            node: node_id,
            vertex_map: form.canon().vertex_order().to_vec(),
            edge_map: form.canon().edge_order().to_vec(),
            vertex_count: plan.query.vertex_count(),
            const_hash: tokens_hash(form.constants()),
            constants: form.constants().to_vec(),
            gate_partition,
            active: true,
            cand_base: entry.candidates,
            cand_accum: 0,
        });
        entry.active_subs += 1;
        self.per_slot.entry(slot).or_default().push(idx);
    }

    /// Rebuilds the per-type dispatch table from the live entries' resolved
    /// constraints (re-resolved here when the graph's schema has grown).
    fn rebuild_anchors(&mut self, graph: &DynamicGraph) {
        self.anchors.begin_rebuild();
        let mut filters = Vec::new();
        for (idx, entry) in self.entries.iter_mut().enumerate() {
            let Some(entry) = entry else { continue };
            filters.clear();
            filters.extend(entry.matcher.edge_type_filters(graph));
            filters.sort_unstable();
            filters.dedup();
            for &filter in &filters {
                self.anchors.add(filter, idx as u32, QueryEdgeId(0));
            }
        }
    }
}

/// Reads the constant tokens a joined match actually bound at the entry's
/// slot positions: for each (canonical edge position, key) slot, the data
/// edge's attribute rendered through
/// [`streamworks_query::eq_constant_token`] (so integral floats dispatch to
/// integer-registered tenants exactly as `Predicate::matches` would accept
/// them). `None` when a slot attribute is missing — no tenant's `eq`
/// predicate can hold, so the match is dispatched nowhere.
fn bound_constants(
    graph: &DynamicGraph,
    lifted: &LiftedPrimitive,
    m: &PartialMatch,
) -> Option<Vec<String>> {
    let mut out = Vec::with_capacity(lifted.slots().len());
    for (pos, key) in lifted.slots() {
        let de = m
            .edges
            .iter()
            .find(|(qe, _)| qe.0 == *pos as usize)
            .map(|&(_, d)| d)?;
        let edge = graph.edge(de)?;
        out.push(eq_constant_token(edge.attrs.get(key)?));
    }
    Some(out)
}

/// Decodes an `eq` constant token (see
/// [`streamworks_query::eq_constant_token`]) back into the attribute values
/// a tenant's `eq` predicate accepts, for the entry's `InSet` search filter.
/// An `i` token covers both the integer and (when exactly representable) the
/// float spelling, mirroring `Eq`'s numeric coercion. Over-approximation is
/// safe — the filter is a prefilter, exact constant comparison happens at
/// dispatch — but under-approximation would drop embeddings a tenant is
/// owed.
fn token_values(tok: &str) -> Vec<AttrValue> {
    if let Some(rest) = tok.strip_prefix('i') {
        let Ok(n) = rest.parse::<i64>() else {
            return Vec::new();
        };
        let mut vals = vec![AttrValue::Int(n)];
        let f = n as f64;
        if f as i64 == n {
            vals.push(AttrValue::Float(f));
        }
        return vals;
    }
    if let Some(rest) = tok.strip_prefix('f') {
        let Ok(bits) = u64::from_str_radix(rest, 16) else {
            return Vec::new();
        };
        return vec![AttrValue::Float(f64::from_bits(bits))];
    }
    if let Some(rest) = tok.strip_prefix('s') {
        return match rest.split_once('#') {
            Some((_, text)) => vec![AttrValue::Str(text.to_owned())],
            None => Vec::new(),
        };
    }
    if let Some(rest) = tok.strip_prefix('b') {
        return vec![AttrValue::Bool(rest == "1")];
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamworks_graph::{Duration, EdgeEvent, Timestamp};
    use streamworks_query::{Planner, Predicate, QueryGraphBuilder, SelectivityOrdered};

    const SINGLE_EDGE: SelectivityOrdered = SelectivityOrdered {
        max_primitive_size: 1,
    };

    fn pair_query(name: &str, a1: &str, a2: &str, window: Duration) -> QueryGraph {
        QueryGraphBuilder::new(name)
            .window(window)
            .vertex(a1, "Article")
            .vertex(a2, "Article")
            .vertex("k", "Keyword")
            .edge(a1, "mentions", "k")
            .edge(a2, "mentions", "k")
            .build()
            .unwrap()
    }

    /// Two isomorphic single-edge leaves under a join root.
    fn pair_plan(name: &str, a1: &str, a2: &str) -> QueryPlan {
        let q = pair_query(name, a1, a2, Duration::from_hours(1));
        Planner::new().plan_with(q, &SINGLE_EDGE).unwrap()
    }

    /// Default (2-edge-primitive) decomposition: the pair query collapses to
    /// one leaf whose search genuinely walks the neighbourhood, so candidate
    /// attribution is observable.
    fn pair_plan_wide(name: &str, a1: &str, a2: &str) -> QueryPlan {
        Planner::new()
            .plan(pair_query(name, a1, a2, Duration::from_hours(1)))
            .unwrap()
    }

    /// One mention edge: the primitive both leaves of [`pair_plan`] are.
    fn mention_plan(name: &str) -> QueryPlan {
        let q = QueryGraphBuilder::new(name)
            .window(Duration::from_hours(1))
            .vertex("x", "Article")
            .vertex("y", "Keyword")
            .edge("x", "mentions", "y")
            .build()
            .unwrap();
        Planner::new().plan(q).unwrap()
    }

    /// Like [`pair_plan`] but with a liftable `eq` constant on both mention
    /// edges.
    fn labelled_pair_plan(name: &str, label: &str) -> QueryPlan {
        let q = QueryGraphBuilder::new(name)
            .window(Duration::from_hours(1))
            .vertex("a1", "Article")
            .vertex("a2", "Article")
            .vertex("k", "Keyword")
            .edge_with("a1", "mentions", "k", vec![Predicate::eq("label", label)])
            .edge_with("a2", "mentions", "k", vec![Predicate::eq("label", label)])
            .build()
            .unwrap();
        Planner::new().plan_with(q, &SINGLE_EDGE).unwrap()
    }

    /// A path of `hops` flow edges: from three hops on, the default plan of
    /// its whole-tree form has join stores.
    fn path_query(name: &str, hops: usize, window: Duration) -> QueryGraph {
        let mut b = QueryGraphBuilder::new(name).window(window);
        for i in 0..=hops {
            b = b.vertex(&format!("v{i}"), "IP");
        }
        for i in 0..hops {
            b = b.edge(&format!("v{i}"), "flow", &format!("v{}", i + 1));
        }
        b.build().unwrap()
    }

    /// [`path_query`] planned as single-edge leaves.
    fn path_plan(name: &str, hops: usize, window: Duration) -> QueryPlan {
        Planner::new()
            .plan_with(path_query(name, hops, window), &SINGLE_EDGE)
            .unwrap()
    }

    fn mention(src: &str, dst: &str, t: i64) -> EdgeEvent {
        EdgeEvent::new(
            src,
            "Article",
            dst,
            "Keyword",
            "mentions",
            Timestamp::from_secs(t),
        )
    }

    fn feed(graph: &mut DynamicGraph, index: &mut SharedIndex, ev: EdgeEvent) -> Vec<Delivery> {
        let r = graph.ingest(&ev);
        let edge = graph.edge(r.edge).unwrap().clone();
        index.search_edge(graph, &edge);
        let mut deliveries = Vec::new();
        index.collect_deliveries(&mut deliveries);
        deliveries.sort_unstable();
        deliveries
    }

    /// Everything delivery `d` hands over to a subscriber that has observed
    /// the whole stream.
    fn owed(index: &mut SharedIndex, d: &Delivery) -> Vec<(SjNodeId, PartialMatch)> {
        let mut out = Vec::new();
        index.fan_out(d, &[0], |node, m| out.push((node, m)));
        out
    }

    /// The live entry subscribed to by `slot` at the root of `plan`.
    fn root_entry(index: &SharedIndex, slot: u32, plan: &QueryPlan) -> usize {
        index
            .entries
            .iter()
            .position(|e| {
                e.as_ref().is_some_and(|e| {
                    e.subscribers
                        .iter()
                        .any(|s| s.slot == slot && s.node == plan.shape.root())
                })
            })
            .expect("slot subscribes at its root")
    }

    #[test]
    fn isomorphic_leaves_intern_to_one_entry() {
        let graph = DynamicGraph::unbounded();
        let mut index = SharedIndex::default();
        // A query with two isomorphic single-edge leaves plus a query that
        // *is* that edge: one entry, three subscriptions. (The pair's root
        // only advertises: no second query has its shape.)
        let p0 = pair_plan("q0", "a1", "a2");
        assert!(index.subscribe(0, &p0, &graph).is_some());
        assert!(index.subscribe(1, &mention_plan("q1"), &graph).is_some());
        let m = index.metrics();
        assert_eq!(m.distinct_primitives, 1);
        assert_eq!(m.subscribed_primitives, 3);
        assert_eq!(m.distinct_subtrees, 0);
        assert!(index.needs_dispatch());

        // Last unsubscription frees the entry.
        index.unsubscribe(0);
        assert_eq!(index.metrics().distinct_primitives, 1);
        index.unsubscribe(1);
        let m = index.metrics();
        assert_eq!(m.distinct_primitives, 0);
        assert_eq!(m.subscribed_primitives, 0);
        assert!(!index.needs_dispatch());
    }

    #[test]
    fn different_windows_do_not_share() {
        let graph = DynamicGraph::unbounded();
        let mut index = SharedIndex::default();
        index.subscribe(0, &pair_plan_wide("q0", "a1", "a2"), &graph);
        let short = pair_query("q1", "a1", "a2", Duration::from_secs(30));
        index.subscribe(1, &Planner::new().plan(short).unwrap(), &graph);
        // Same structure, different window: two distinct entries.
        assert_eq!(index.metrics().distinct_primitives, 2);
    }

    #[test]
    fn forced_fingerprint_collisions_stay_separate_entries() {
        // Adversarial case: two non-isomorphic forms forced onto one
        // fingerprint must chain under the hash, never merge.
        let flow = |name: &str, second_src: &str| {
            QueryGraphBuilder::new(name)
                .window(Duration::from_secs(60))
                .vertex("a", "IP")
                .vertex("b", "IP")
                .vertex("c", "IP")
                .edge("a", "flow", "b")
                .edge(second_src, "flow", "c")
                .build()
                .unwrap()
        };
        let (path, fan) = (flow("p", "b"), flow("f", "a"));
        let edges: Vec<QueryEdgeId> = path.edge_ids().collect();
        let lp = LiftedPrimitive::build(&path, &edges, true).unwrap();
        let mut lf = LiftedPrimitive::build(&fan, &edges, true).unwrap();
        lf.force_fingerprint_for_tests(lp.canon().fingerprint());

        let graph = DynamicGraph::unbounded();
        let mut index = SharedIndex::default();
        let window = path.window();
        let e1 = index.create_entry(&lp, &path, &graph, true).unwrap();
        let e2 = index.create_entry(&lf, &fan, &graph, true).unwrap();
        assert_ne!(e1, e2);
        assert_eq!(index.by_hash[&lp.canon().fingerprint()].len(), 2);
        // Looking either up finds its own entry, never the collider.
        assert_eq!(index.find_entry(&lp, window, true), Some(e1));
        assert_eq!(index.find_entry(&lf, window, true), Some(e2));
    }

    #[test]
    fn search_runs_once_and_fans_out_remapped_embeddings() {
        let mut graph = DynamicGraph::unbounded();
        let mut index = SharedIndex::default();
        let plan0 = pair_plan("q0", "a1", "a2");
        index.subscribe(0, &plan0, &graph);
        index.subscribe(1, &mention_plan("q1"), &graph);

        let deliveries = feed(&mut graph, &mut index, mention("art", "rust", 1));
        let m = index.metrics();
        // One entry with one anchor, searched once with 3 subscriptions
        // active: 2 searches saved.
        assert_eq!(m.shared_searches_run, 1);
        assert_eq!(m.searches_saved, 2);
        assert_eq!(m.shared_embeddings, 1);
        assert_eq!(deliveries.len(), 3, "one delivery per subscription");

        // Remap lands the embedding in each subscriber's own space; the two
        // leaves of q0 bind different query edges after remap.
        let a = owed(&mut index, &deliveries[0]);
        let b = owed(&mut index, &deliveries[1]);
        assert_eq!((deliveries[0].0, deliveries[1].0), (0, 0));
        assert_eq!((a.len(), b.len()), (1, 1));
        assert_ne!(a[0].0, b[0].0, "two different leaves of q0");
        assert_eq!(a[0].1.edge_count(), 1);
        assert_eq!(a[0].1.binding.bound_count(), 2);
        assert_eq!(a[0].1.earliest, Timestamp::from_secs(1));
        assert_ne!(a[0].1.edges[0].0, b[0].1.edges[0].0);
        assert_eq!(index.metrics().fanout_deliveries, 2);
    }

    #[test]
    fn candidate_attribution_counts_each_subscription_once() {
        // One query whose two leaves intern to the SAME entry (two isomorphic
        // article wedges): per_slot lists the entry twice, and attribution
        // must still charge each subscription exactly once per search.
        let wedge_pair = QueryGraphBuilder::new("wedges")
            .window(Duration::from_hours(1))
            .vertex("a1", "Article")
            .vertex("a2", "Article")
            .vertex("k", "Keyword")
            .vertex("l", "Location")
            .edge("a1", "mentions", "k") // 0
            .edge("a2", "mentions", "k") // 1
            .edge("a1", "located", "l") // 2
            .edge("a2", "located", "l") // 3
            .build()
            .unwrap();
        let plan = Planner::new()
            .plan_with(
                wedge_pair,
                &ManualDecomposition::new(vec![
                    vec![QueryEdgeId(0), QueryEdgeId(2)],
                    vec![QueryEdgeId(1), QueryEdgeId(3)],
                ]),
            )
            .unwrap();
        // Reference: a single-wedge query — the same canonical primitive,
        // subscribed once.
        let single = QueryGraphBuilder::new("wedge")
            .window(Duration::from_hours(1))
            .vertex("a", "Article")
            .vertex("k", "Keyword")
            .vertex("l", "Location")
            .edge("a", "mentions", "k")
            .edge("a", "located", "l")
            .build()
            .unwrap();
        let single_plan = Planner::new().plan(single).unwrap();

        let mut graph = DynamicGraph::unbounded();
        let mut index = SharedIndex::default();
        assert!(index.subscribe(0, &plan, &graph).is_some());
        assert!(index.subscribe(1, &single_plan, &graph).is_some());
        assert_eq!(index.metrics().distinct_primitives, 1);
        assert_eq!(index.metrics().subscribed_primitives, 3);

        for (i, (dst, dtype, etype)) in [
            ("rust", "Keyword", "mentions"),
            ("paris", "Location", "located"),
            ("go", "Keyword", "mentions"),
        ]
        .iter()
        .enumerate()
        {
            let ev = EdgeEvent::new(
                "art",
                "Article",
                *dst,
                *dtype,
                *etype,
                Timestamp::from_secs(i as i64),
            );
            feed(&mut graph, &mut index, ev);
        }
        let pair_share = index.slot_candidates(0);
        let single_share = index.slot_candidates(1);
        assert!(single_share > 0, "the wedge search walks the neighbourhood");
        assert_eq!(
            pair_share,
            2 * single_share,
            "two subscriptions of one entry are charged exactly twice the \
             single subscription's share, not four times"
        );
    }

    #[test]
    fn joined_entries_follow_advert_promotion_and_refcount_lifecycle() {
        let graph = DynamicGraph::unbounded();
        let mut index = SharedIndex::default();
        let plans: Vec<QueryPlan> = (0..4)
            .map(|i| path_plan(&format!("q{i}"), 3, Duration::from_hours(1)))
            .collect();

        // First query of a form only advertises its internal nodes: just
        // its leaves are interned.
        assert!(index.subscribe(0, &plans[0], &graph).is_some());
        assert_eq!(index.metrics().distinct_subtrees, 0);
        assert_eq!(index.metrics().subscribed_primitives, 3);

        // The second query promotes the advert into a cold entry with join
        // stores and subscribes at its root — and nowhere below it; the
        // advertiser keeps matching the subtree privately.
        assert!(index.subscribe(1, &plans[1], &graph).is_some());
        let m = index.metrics();
        assert_eq!((m.distinct_subtrees, m.subscribed_subtrees), (1, 1));
        assert_eq!(m.subscribed_primitives, 3);
        let root = root_entry(&index, 1, &plans[1]);
        assert!(index.entries[root].as_ref().unwrap().stateful);

        // A third query joins the live entry directly.
        assert!(index.subscribe(2, &plans[2], &graph).is_some());
        assert_eq!(index.metrics().subscribed_subtrees, 2);

        // The last unsubscription frees the entry, but the advertiser's
        // interest persists: a newcomer re-promotes the same form.
        index.unsubscribe(1);
        index.unsubscribe(2);
        assert_eq!(index.metrics().distinct_subtrees, 0);
        assert!(index.subscribe(3, &plans[3], &graph).is_some());
        assert_eq!(index.metrics().distinct_subtrees, 1);

        // Once the advertiser leaves too, its advert is purged: a fresh
        // slot starts the advertise-then-promote cycle over.
        index.unsubscribe(3);
        index.unsubscribe(0);
        assert!(index.subscribe(0, &plans[0], &graph).is_some());
        assert_eq!(index.metrics().distinct_subtrees, 0);
    }

    #[test]
    fn joined_entries_with_different_windows_stay_separate() {
        let graph = DynamicGraph::unbounded();
        let mut index = SharedIndex::default();
        let hour = Duration::from_hours(1);
        index.subscribe(0, &path_plan("q0", 3, hour), &graph);
        index.subscribe(1, &path_plan("q1", 3, hour), &graph);
        assert_eq!(index.metrics().distinct_subtrees, 1);
        // Same structure, different window: the live entry does not match,
        // and the pending adverts (both 1h) do not promote it either.
        index.subscribe(2, &path_plan("q2", 3, Duration::from_secs(30)), &graph);
        let m = index.metrics();
        assert_eq!((m.distinct_subtrees, m.subscribed_subtrees), (1, 1));
    }

    #[test]
    fn a_leaf_never_subscribes_to_an_entry_with_join_stores() {
        // The three-hop path as ONE leaf primitive: its search re-reads the
        // whole window from the graph, which the cold-started join tree of
        // the same form does not cover — so it gets a one-leaf twin.
        let graph = DynamicGraph::unbounded();
        let mut index = SharedIndex::default();
        let hour = Duration::from_hours(1);
        index.subscribe(0, &path_plan("q0", 3, hour), &graph);
        let p1 = path_plan("q1", 3, hour);
        index.subscribe(1, &p1, &graph);
        let joined = root_entry(&index, 1, &p1);

        let all: Vec<QueryEdgeId> = p1.query.edge_ids().collect();
        let one_leaf = Planner::new()
            .plan_with(p1.query.clone(), &ManualDecomposition::new(vec![all]))
            .unwrap();
        assert!(index.subscribe(2, &one_leaf, &graph).is_some());
        let twin = root_entry(&index, 2, &one_leaf);
        assert_ne!(twin, joined);
        assert!(!index.entries[twin].as_ref().unwrap().stateful);
        // The other way round is fine: an internal node takes either.
        let p3 = path_plan("q3", 3, hour);
        index.subscribe(3, &p3, &graph);
        assert!([joined, twin].contains(&root_entry(&index, 3, &p3)));
    }

    #[test]
    fn lifted_leaves_intern_at_their_first_subscriber() {
        let graph = DynamicGraph::unbounded();
        let lifted = |name: &str, label: &str| {
            let q = QueryGraphBuilder::new(name)
                .window(Duration::from_hours(1))
                .vertex("a", "Article")
                .vertex("k", "Keyword")
                .edge_with("a", "mentions", "k", vec![Predicate::eq("label", label)])
                .build()
                .unwrap();
            Planner::new().plan(q).unwrap()
        };
        let mut index = SharedIndex::default();
        assert!(index
            .subscribe(0, &lifted("t0", "politics"), &graph)
            .is_some());
        let m = index.metrics();
        assert_eq!((m.distinct_subtrees, m.lifted_entries), (1, 1));
        assert_eq!(m.distinct_primitives, 0);
        // Alone on its entry, the tenant runs privately just as well.
        assert!(!index.needs_dispatch());
        // A second constant folds into the same entry.
        assert!(index
            .subscribe(1, &lifted("t1", "sports"), &graph)
            .is_some());
        let m = index.metrics();
        assert_eq!((m.distinct_subtrees, m.subscribed_subtrees), (1, 2));
        assert!(index.needs_dispatch());
    }

    #[test]
    fn lifted_entry_dispatches_by_bound_constant() {
        let mut graph = DynamicGraph::unbounded();
        let mut index = SharedIndex::default();
        // Three constant-variant tenants: t0 advertises its root (its two
        // leaves share a lifted single-edge entry), t1 promotes, t2 joins —
        // one whole-pair entry with two subscribers (politics and sports).
        assert!(index
            .subscribe(0, &labelled_pair_plan("t0", "culture"), &graph)
            .is_some());
        let politics = labelled_pair_plan("t1", "politics");
        assert!(index.subscribe(1, &politics, &graph).is_some());
        assert!(index
            .subscribe(2, &labelled_pair_plan("t2", "sports"), &graph)
            .is_some());
        let m = index.metrics();
        assert_eq!((m.distinct_subtrees, m.lifted_entries), (2, 2));
        assert_eq!(m.subscribed_subtrees, 4);

        // Two politics-labelled mentions of one keyword complete the pair
        // inside the entry's own matcher.
        let ev = |src: &str, t: i64| mention(src, "election", t).with_attr("label", "politics");
        feed(&mut graph, &mut index, ev("art1", 0));
        let deliveries = feed(&mut graph, &mut index, ev("art2", 1));
        // The constant-hash prefilter already routes the pair to the
        // politics tenant only (culture watches neither mention).
        assert_eq!(deliveries.len(), 1, "{deliveries:?}");
        assert_eq!(deliveries[0].0, 1);
        let entry = index.entries[root_entry(&index, 1, &politics)]
            .as_ref()
            .unwrap();
        // The symmetric pair admits both article assignments, exactly like a
        // private matcher would, each bound to the tenant's constants.
        assert_eq!(entry.results.len(), 2);
        let sub = &entry.subscribers[deliveries[0].3 as usize];
        for c in &entry.result_consts {
            assert_eq!(c.as_deref(), Some(sub.constants.as_slice()));
        }
        // Remap lands the joined pair in the subscriber's own space, at its
        // root: two covered edges, three bound vertices.
        let got = owed(&mut index, &deliveries[0]);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, politics.shape.root());
        assert_eq!(got[0].1.edge_count(), 2);
        assert_eq!(got[0].1.binding.bound_count(), 3);
        assert_eq!(index.metrics().lifted_dispatch_hits, 2);
    }

    #[test]
    fn token_values_cover_every_eq_accepted_spelling() {
        // Ints cover both numeric spellings `Eq` coerces across.
        assert_eq!(
            token_values("i3"),
            vec![AttrValue::Int(3), AttrValue::Float(3.0)]
        );
        // Non-integral floats round-trip through their bit pattern.
        let bits = 0.5f64.to_bits();
        assert_eq!(
            token_values(&format!("f{bits:016x}")),
            vec![AttrValue::Float(0.5)]
        );
        assert_eq!(
            token_values("s8#politics"),
            vec![AttrValue::Str("politics".into())]
        );
        assert_eq!(token_values("b1"), vec![AttrValue::Bool(true)]);
        // Malformed tokens decode to nothing (the filter then rejects, like
        // the unsatisfiable `eq` it mirrors).
        assert!(token_values("x?").is_empty());
    }

    #[test]
    fn lifted_entry_search_filters_unsubscribed_constants() {
        let mut graph = DynamicGraph::unbounded();
        let mut index = SharedIndex::default();
        index.subscribe(0, &labelled_pair_plan("t0", "politics"), &graph);
        let sports = labelled_pair_plan("t1", "sports");
        index.subscribe(1, &sports, &graph);
        index.subscribe(2, &labelled_pair_plan("t2", "culture"), &graph);
        let pair = root_entry(&index, 1, &sports);

        let ev = |src: &str, label: &str, t: i64| mention(src, "fair", t).with_attr("label", label);

        // "weather" is watched by no subscriber: the InSet filter rejects
        // the mentions at the anchor check, so no entry enumerates any
        // embedding for them.
        feed(&mut graph, &mut index, ev("w1", "weather", 0));
        assert!(feed(&mut graph, &mut index, ev("w2", "weather", 1)).is_empty());
        assert_eq!(index.metrics().shared_embeddings, 0);

        // A watched constant still flows end to end.
        feed(&mut graph, &mut index, ev("c1", "culture", 2));
        let deliveries = feed(&mut graph, &mut index, ev("c2", "culture", 3));
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].0, 2);

        // A late subscriber widens the filter from its subscription on. The
        // next weather mention completes pairs against the earlier w1/w2
        // edges re-read from the graph — exactly what the tenant's own
        // just-registered matcher would find; the observation gate is what
        // filters pre-subscription anchors.
        index.subscribe(3, &labelled_pair_plan("t3", "weather"), &graph);
        let deliveries = feed(&mut graph, &mut index, ev("w3", "weather", 4));
        assert_eq!(deliveries.len(), 1, "{deliveries:?}");
        assert_eq!(deliveries[0].0, 3);
        // Partners w1, w2 (weather) and c1, c2 (culture) each pair with w3
        // in both edge assignments; only the all-weather tuples carry t3's
        // constants and survive its dispatch — and of those, a subscriber
        // that only started observing at w3 is owed none.
        let entry = index.entries[pair].as_ref().unwrap();
        assert_eq!(entry.results.len(), 8);
        assert_eq!(owed(&mut index, &deliveries[0]).len(), 4);
        let mut late = 0;
        index.fan_out(&deliveries[0], &[4], |_, _| late += 1);
        assert_eq!(late, 0);
    }

    #[test]
    fn admits_gates_each_subscriber_leaf_on_its_own_anchor() {
        use streamworks_graph::EdgeId;
        // A synthetic subscriber whose partition splits three canonical
        // edges into leaves {0,1} and {2}; leaf anchors are the max data
        // edge ids: 50 and 20.
        let sub = Subscriber {
            slot: 0,
            node: SjNodeId(0),
            vertex_map: Vec::new(),
            edge_map: Vec::new(),
            vertex_count: 0,
            constants: Vec::new(),
            const_hash: 0,
            gate_partition: vec![vec![0, 1], vec![2]],
            active: true,
            cand_base: 0,
            cand_accum: 0,
        };
        let mut edges: SmallVec<(QueryEdgeId, EdgeId), 6> = SmallVec::new();
        edges.push((QueryEdgeId(0), EdgeId(10)));
        edges.push((QueryEdgeId(1), EdgeId(50)));
        edges.push((QueryEdgeId(2), EdgeId(20)));
        let m = PartialMatch {
            binding: Binding::new(0),
            edges,
            earliest: Timestamp::from_secs(0),
            latest: Timestamp::from_secs(0),
        };
        // Observed from edge 0 onward: both anchors inside.
        assert!(sub.admits(&m, &[0]));
        // Interval closed at 30: anchor 50 falls outside.
        assert!(!sub.admits(&m, &[0, 30]));
        // Pause gap [30, 40): anchor 50 lands in the reopened interval,
        // anchor 20 in the first — admitted. Note edge 10 sits in the gap:
        // non-anchor edges need not be observed.
        assert!(sub.admits(&m, &[0, 30, 40]));
        // Late registration at 25: anchor 20 was never observed.
        assert!(!sub.admits(&m, &[25]));
        // A partition leaf with no covered edge never admits.
        let missing = Subscriber {
            gate_partition: vec![vec![0], vec![7]],
            ..sub
        };
        assert!(!missing.admits(&m, &[0]));
    }

    #[test]
    fn paused_subscribers_drop_out_of_search_and_fanout() {
        let mut graph = DynamicGraph::unbounded();
        let mut index = SharedIndex::default();
        index.subscribe(0, &pair_plan_wide("q0", "a1", "a2"), &graph);
        index.subscribe(1, &pair_plan_wide("q1", "x", "y"), &graph);
        index.set_active(0, false);

        feed(&mut graph, &mut index, mention("art1", "rust", 1));
        let deliveries = feed(&mut graph, &mut index, mention("art2", "rust", 2));
        assert!(
            !deliveries.is_empty(),
            "the second mention completes a pair"
        );
        assert!(
            deliveries.iter().all(|d| d.0 == 1),
            "only the active subscriber receives: {deliveries:?}"
        );
        // Candidate attribution: the paused slot accrues nothing, the active
        // one is charged the search's neighbourhood walk.
        assert_eq!(index.slot_candidates(0), 0);
        assert!(index.slot_candidates(1) > 0);

        // With every subscriber paused an entry without join stores is not
        // searched at all.
        index.set_active(1, false);
        let before = index.metrics().shared_searches_run;
        feed(&mut graph, &mut index, mention("art3", "go", 3));
        assert_eq!(index.metrics().shared_searches_run, before);
        assert!(!index.needs_dispatch());

        // Resuming re-opens the attribution interval without re-charging
        // searches run while paused.
        index.set_active(0, true);
        assert_eq!(index.slot_candidates(0), 0);
        feed(&mut graph, &mut index, mention("art4", "rust", 4));
        assert!(index.slot_candidates(0) > 0);
    }

    #[test]
    fn entries_of_every_height_share_one_accounting() {
        // A height-0 entry (a two-hop path as one leaf primitive) and a
        // height-2 entry (the five-hop path: 2 + 2 + 1 edges under two
        // joins), each with two subscribing slots, go through the very same
        // refcount / pause / candidate bookkeeping.
        let mut graph = DynamicGraph::unbounded();
        let mut index = SharedIndex::default();
        let hour = Duration::from_hours(1);
        let plan = |name: &str, hops| Planner::new().plan(path_query(name, hops, hour)).unwrap();
        let paths: Vec<QueryPlan> = (0..3).map(|i| plan(&format!("p{i}"), 5)).collect();
        for (slot, plan) in paths.iter().enumerate() {
            assert!(index.subscribe(slot as u32, plan, &graph).is_some());
        }
        let hops = plan("hops", 2);
        assert!(index.subscribe(3, &hops, &graph).is_some());
        // p0 advertised and keeps its two two-hop leaves on one entry, next
        // to `hops` itself; p1 promoted the whole path, p2 joined it.
        let low = root_entry(&index, 3, &hops);
        let high = root_entry(&index, 1, &paths[1]);
        // (`SjTreeShape::height` counts levels: a lone leaf is 1.)
        let levels = |index: &SharedIndex, e: usize| {
            let entry = index.entries[e].as_ref().unwrap();
            entry.matcher.plan().shape.height()
        };
        assert_eq!((levels(&index, low), levels(&index, high)), (1, 3));

        let flow = |i: usize, t: i64| {
            let (src, dst) = (format!("h{i}"), format!("h{}", i + 1));
            EdgeEvent::new(src, "IP", dst, "IP", "flow", Timestamp::from_secs(t))
        };
        for (entry, subs, (a, b)) in [(low, 3, (0u32, 3u32)), (high, 2, (1, 2))] {
            let refs = |index: &SharedIndex| {
                let e = index.entries[entry].as_ref().unwrap();
                (e.subscribers.len(), e.active_subs)
            };
            assert_eq!(refs(&index), (subs, subs));
            // Both slots accrue candidates while active ...
            let base = (index.slot_candidates(a), index.slot_candidates(b));
            for i in 0..3 {
                feed(&mut graph, &mut index, flow(i, i as i64));
            }
            let (ca, cb) = (index.slot_candidates(a), index.slot_candidates(b));
            assert!(ca > base.0 && cb > base.1);
            // ... a paused slot leaves the fan-out and stops accruing ...
            index.set_active(b, false);
            assert_eq!(refs(&index), (subs, subs - 1));
            let deliveries = feed(&mut graph, &mut index, flow(3, 3));
            assert!(deliveries.iter().all(|d| d.0 != b), "{deliveries:?}");
            assert!(index.slot_candidates(a) > ca);
            assert_eq!(index.slot_candidates(b), cb);
            // ... and picks up again, from where it left off, on resume.
            index.set_active(b, true);
            assert_eq!(refs(&index), (subs, subs));
            feed(&mut graph, &mut index, flow(4, 4));
            assert!(index.slot_candidates(b) > cb);
        }
        // The refcount frees each entry with its last subscriber, whatever
        // its height.
        for slot in [1, 2] {
            assert!(index.entries[high].is_some());
            index.unsubscribe(slot);
        }
        assert!(index.entries[high].is_none());
        for slot in [0, 3] {
            assert!(index.entries[low].is_some());
            index.unsubscribe(slot);
        }
        assert!(index.entries[low].is_none());
    }
}
