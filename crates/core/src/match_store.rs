//! The *shared per-parent join store* — the single match collection every
//! execution mode runs on.
//!
//! Each **internal** SJ-Tree node "maintains a set of matching subgraphs"
//! (paper property 3) for both of its children. Sibling nodes project onto
//! the same cut — the parent's join key — so instead of one store per child
//! (two hash maps, an insert + probe costing two lookups), one
//! [`SharedJoinStore`] per internal node holds both children's matches in a
//! single map from [`JoinKey`] to a two-sided bucket:
//! [`SharedJoinStore::probe_then_insert`] finds the bucket once, scans the
//! sibling side for join candidates, and files the new match on its own side
//! — one hash operation for the whole §4.2 join step.
//!
//! Both the in-process [`crate::SjTreeMatcher`] and the shard workers of
//! [`crate::ShardedMatcher`] drive this store through `probe_then_insert`,
//! so there is exactly one join engine in the codebase. They differ in what
//! the probe closure does with a successful merge: in process it files the
//! merged match into the parent's store on the spot (the depth-first climb
//! of `sj_matcher`), a shard worker collects it for routing (`crate::join`).
//! The closure runs while the sibling side is borrowed and may not touch
//! *this* store; it never needs to, because a merge belongs one node up.
//!
//! Hot-path representation:
//!
//! * [`JoinKey`] is an inline small-vector (cuts of real queries are 1–2
//!   vertices; up to 4 stay allocation-free), and key projection appends into
//!   it without heap work.
//! * Matches are stored **contiguously inside their bucket side**, so a
//!   probe is a sequential scan — no handle chasing on the path every join
//!   attempt walks — and by value: 176 heap-free bytes each for a
//!   paper-sized query (`crate::binding`), moved in once by the caller.
//! * Expiry is **exact** and scheduled by a real min-heap keyed on earliest
//!   timestamp. The heap holds one entry per *bucket side* — that side's
//!   minimum earliest — rather than one per match: an entry is pushed only
//!   when a side's minimum decreases (for streams with mostly-increasing
//!   timestamps that is once per side, not once per match — a per-match heap
//!   measured ~25% slower end to end on the join-heavy bench), and
//!   superseded entries are dropped by **lazy stale deletion** when popped.
//!   [`SharedJoinStore::expire_older_than`] pops every side whose minimum
//!   predates the cutoff and sweeps exactly that side — nothing is ever
//!   retained behind an in-window head (the failure mode of the retired
//!   `MatchStore`'s FIFO queue), so `partial_matches_live` is exact on every
//!   execution path, and a prune pass only ever touches bucket sides that
//!   actually contain expirable matches. A pass that cannot remove anything
//!   costs one heap peek.
//! * The store maintains a histogram of covered query edges over live
//!   matches, so "best partial match" queries are O(1) reads and an expiry
//!   burst never rescans the store to restore the maximum.

use crate::binding::PartialMatch;
use smallvec::SmallVec;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use streamworks_graph::hash::FxHashMap;
use streamworks_graph::{Timestamp, VertexId};
use streamworks_query::QueryVertexId;

/// The join-key projection of a binding: the data vertices bound to the cut
/// vertices, in cut order. Inline up to 4 cut vertices — covering every plan
/// the decomposition strategies produce — so key construction is
/// allocation-free.
pub type JoinKey = SmallVec<VertexId, 4>;

/// Which child of an internal SJ-Tree node a match belongs to in a
/// [`SharedJoinStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum JoinSide {
    /// The internal node's left child.
    Left,
    /// The internal node's right child.
    Right,
}

impl JoinSide {
    /// The opposite side (the sibling a probe scans).
    #[inline]
    pub fn other(self) -> JoinSide {
        match self {
            JoinSide::Left => JoinSide::Right,
            JoinSide::Right => JoinSide::Left,
        }
    }

    #[inline]
    fn index(self) -> usize {
        match self {
            JoinSide::Left => 0,
            JoinSide::Right => 1,
        }
    }
}

/// One key's matches, split by which child they belong to, plus the running
/// minimum earliest timestamp per side (the value the expiry heap schedules
/// on; `Timestamp(i64::MAX)` for an empty side).
#[derive(Debug)]
struct SideBucket {
    sides: [Vec<PartialMatch>; 2],
    min_earliest: [Timestamp; 2],
}

impl Default for SideBucket {
    fn default() -> Self {
        SideBucket {
            sides: [Vec::new(), Vec::new()],
            min_earliest: [Timestamp(i64::MAX), Timestamp(i64::MAX)],
        }
    }
}

/// One scheduled sweep: "bucket `key`, side `side`, had minimum `earliest`".
/// An entry is stale — dropped when popped — if the side has since been
/// swept, emptied, or re-scheduled under a smaller minimum.
#[derive(Debug, Clone)]
struct ExpiryEntry {
    earliest: Timestamp,
    key: JoinKey,
    side: JoinSide,
}

// `BinaryHeap` is a max-heap; order entries by *descending* earliest so the
// oldest side minimum surfaces first. The key is deliberately excluded from
// the ordering (entries with equal timestamps pop in unspecified order,
// which expiry does not care about).
impl PartialEq for ExpiryEntry {
    fn eq(&self, other: &Self) -> bool {
        self.earliest == other.earliest && self.side == other.side
    }
}
impl Eq for ExpiryEntry {}
impl PartialOrd for ExpiryEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ExpiryEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .earliest
            .cmp(&self.earliest)
            .then_with(|| other.side.cmp(&self.side))
    }
}

/// The per-parent shared join index: one match collection per **internal**
/// SJ-Tree node holding both children's matches, keyed by the parent's cut
/// projection. See the module docs for the representation; see
/// [`Self::probe_then_insert`] for the single-hash-op join step every
/// execution mode shares.
#[derive(Debug)]
pub struct SharedJoinStore {
    /// The cut vertices of the owning internal node (the join key both
    /// children project onto).
    key_vertices: Vec<QueryVertexId>,
    /// Hash index from join key to the two-sided match bucket.
    buckets: FxHashMap<JoinKey, SideBucket>,
    /// Per-side backlog of matches whose key had no bucket when they were
    /// filed: they stay out of the hash index entirely until the sibling
    /// side's next probe drains them in (amortized one hash op per match,
    /// and matches that expire un-probed never touch the index at all —
    /// the asymmetric-selectivity regime the decomposition deliberately
    /// creates).
    pending: [Vec<PartialMatch>; 2],
    /// Minimum earliest timestamp per pending backlog
    /// (`Timestamp(i64::MAX)` when empty); the exact-expiry guard for the
    /// unindexed segment.
    pending_min: [Timestamp; 2],
    /// Exact-expiry schedule for the bucket index: min-heap of per-side
    /// minima (see module docs).
    expiry: BinaryHeap<ExpiryEntry>,
    live: [usize; 2],
    inserted_total: u64,
    expired_total: u64,
    /// Live-match counts by covered edge count (index = `edge_count()`),
    /// so the running maximum is maintained in O(1) on insert and removal.
    edge_histogram: Vec<u32>,
    max_edges: usize,
}

impl SharedJoinStore {
    /// Creates a store for an internal node whose cut is `key_vertices`.
    pub fn new(key_vertices: Vec<QueryVertexId>) -> Self {
        SharedJoinStore {
            key_vertices,
            buckets: FxHashMap::default(),
            pending: [Vec::new(), Vec::new()],
            pending_min: [Timestamp(i64::MAX), Timestamp(i64::MAX)],
            expiry: BinaryHeap::new(),
            live: [0, 0],
            inserted_total: 0,
            expired_total: 0,
            edge_histogram: Vec::new(),
            max_edges: 0,
        }
    }

    /// The join-key vertices (the owning node's cut).
    pub fn key_vertices(&self) -> &[QueryVertexId] {
        &self.key_vertices
    }

    /// Live matches stored across both sides.
    pub fn len(&self) -> usize {
        self.live[0] + self.live[1]
    }

    /// True if no matches are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live matches stored for one child.
    pub fn side_len(&self, side: JoinSide) -> usize {
        self.live[side.index()]
    }

    /// Total matches ever inserted.
    pub fn inserted_total(&self) -> u64 {
        self.inserted_total
    }

    /// Total matches removed by expiry.
    pub fn expired_total(&self) -> u64 {
        self.expired_total
    }

    /// Entries currently in the expiry schedule (live side minima plus
    /// not-yet-popped stale entries); exposed for capacity tests.
    pub fn expiry_backlog(&self) -> usize {
        self.expiry.len()
    }

    /// Largest number of query edges covered by any live match (0 if empty).
    pub fn best_edge_count(&self) -> usize {
        self.max_edges
    }

    /// Computes the join key this store files `m` under (the projection onto
    /// the cut). `None` if the match does not bind every cut vertex.
    pub fn join_key_for(&self, m: &PartialMatch) -> Option<JoinKey> {
        let mut key = JoinKey::new();
        if m.binding.project_into(&self.key_vertices, &mut key) {
            Some(key)
        } else {
            None
        }
    }

    /// Scans the sibling side of `key` for join candidates — calling
    /// `probe(&m, candidate)` for each — and then files `m` under `key` on
    /// `side`. One hash lookup covers both the probe and the insert, the
    /// sibling scan is a contiguous walk, and the whole step performs no
    /// allocation once the store's capacities are warm.
    ///
    /// The probe-before-store order is the join discipline every execution
    /// mode shares: a match never joins with matches on its own side, so
    /// every (left, right) pair under a key is offered to `probe` exactly
    /// once, by whichever member is filed later. Candidates are offered
    /// newest first.
    pub fn probe_then_insert<F>(
        &mut self,
        side: JoinSide,
        key: JoinKey,
        m: PartialMatch,
        mut probe: F,
    ) where
        F: FnMut(&PartialMatch, &PartialMatch),
    {
        let earliest = m.earliest;
        let edge_count = m.edge_count();

        // Any sibling match this probe must see is either already in the
        // bucket index or in the sibling's pending backlog: drain the
        // backlog first (a no-op in the join-heavy steady state, where
        // buckets exist and nothing ever goes pending).
        self.drain_pending(side.other());

        match self.buckets.get_mut(key.as_slice()) {
            Some(bucket) => {
                // Newest sibling first. The order is observable: the
                // in-place climb files each merge's result (and everything
                // it completes higher up) before the next candidate is
                // offered, so it decides which matches a per-node cap drops
                // and the order complete matches come out in. The counters
                // recorded in `sj_matcher`'s four-leaf tests pin it.
                for candidate in bucket.sides[side.other().index()].iter().rev() {
                    probe(&m, candidate);
                }
                bucket.sides[side.index()].push(m);
                // Schedule the side for expiry only when its minimum
                // decreases (for in-order streams: once per side, not once
                // per match). The side's previous entry, if any, goes stale
                // and is dropped lazily on pop.
                if earliest < bucket.min_earliest[side.index()] {
                    bucket.min_earliest[side.index()] = earliest;
                    self.expiry.push(ExpiryEntry {
                        earliest,
                        key,
                        side,
                    });
                }
            }
            None => {
                // No sibling match has this key (the drain above would have
                // built the bucket): no candidates to probe, and the match
                // stays out of the hash index until the sibling side next
                // probes — or expires without ever paying for indexing.
                if earliest < self.pending_min[side.index()] {
                    self.pending_min[side.index()] = earliest;
                }
                self.pending[side.index()].push(m);
            }
        }
        self.live[side.index()] += 1;
        self.inserted_total += 1;
        if edge_count >= self.edge_histogram.len() {
            self.edge_histogram.resize(edge_count + 1, 0);
        }
        self.edge_histogram[edge_count] += 1;
        self.max_edges = self.max_edges.max(edge_count);
    }

    /// Moves every pending match of `side` into the bucket index (called
    /// before a sibling probe scans that side). Amortized one hash op per
    /// match over its lifetime; empty backlogs return immediately.
    fn drain_pending(&mut self, side: JoinSide) {
        if self.pending[side.index()].is_empty() {
            return;
        }
        let drained = std::mem::take(&mut self.pending[side.index()]);
        for m in drained {
            let earliest = m.earliest;
            let key = self
                .join_key_for(&m)
                .expect("stored match binds its join key");
            let bucket = self.buckets.entry(key.clone()).or_default();
            bucket.sides[side.index()].push(m);
            if earliest < bucket.min_earliest[side.index()] {
                bucket.min_earliest[side.index()] = earliest;
                self.expiry.push(ExpiryEntry {
                    earliest,
                    key,
                    side,
                });
            }
        }
        self.pending_min[side.index()] = Timestamp(i64::MAX);
    }

    /// Iterates every stored match (both sides, unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = &PartialMatch> {
        self.buckets
            .values()
            .flat_map(|b| b.sides.iter().flatten())
            .chain(self.pending.iter().flatten())
    }

    /// Removes every match whose earliest edge is older than `cutoff` (such
    /// matches can never satisfy `τ(g) < tW` once stream time has passed
    /// `cutoff + tW`), returning the number removed.
    ///
    /// **Exact**: every live bucket side carries a fresh schedule entry for
    /// its minimum earliest, so the heap surfaces every side containing an
    /// expirable match, and each surfaced side is swept completely — a
    /// skewed stream whose merged matches carry older `earliest` values than
    /// previously filed ones cannot hide state behind an in-window head.
    /// Sides with nothing to expire are never touched; a pass that cannot
    /// remove anything costs one heap peek.
    pub fn expire_older_than(&mut self, cutoff: Timestamp) -> usize {
        let mut removed = 0usize;
        // Unindexed segment first: sweep each pending backlog whose minimum
        // proves it holds something expirable.
        for side in [JoinSide::Left, JoinSide::Right] {
            let i = side.index();
            if self.pending_min[i] >= cutoff {
                continue;
            }
            let before = self.pending[i].len();
            let mut min = Timestamp(i64::MAX);
            let hist = &mut self.edge_histogram;
            self.pending[i].retain(|m| {
                if m.earliest < cutoff {
                    hist[m.edge_count()] -= 1;
                    false
                } else {
                    if m.earliest < min {
                        min = m.earliest;
                    }
                    true
                }
            });
            let swept = before - self.pending[i].len();
            removed += swept;
            self.live[i] -= swept;
            self.pending_min[i] = min;
        }
        loop {
            match self.expiry.peek() {
                Some(entry) if entry.earliest < cutoff => {}
                _ => break,
            }
            let ExpiryEntry {
                earliest,
                key,
                side,
            } = self.expiry.pop().expect("peeked entry exists");
            let Some(bucket) = self.buckets.get_mut(key.as_slice()) else {
                continue; // stale: bucket fully removed since scheduling
            };
            if bucket.min_earliest[side.index()] != earliest {
                continue; // stale: side swept or re-scheduled since
            }
            // Sweep the scheduled side, recomputing its minimum.
            let side_vec = &mut bucket.sides[side.index()];
            let before = side_vec.len();
            let mut min = Timestamp(i64::MAX);
            let hist = &mut self.edge_histogram;
            side_vec.retain(|m| {
                if m.earliest < cutoff {
                    hist[m.edge_count()] -= 1;
                    false
                } else {
                    if m.earliest < min {
                        min = m.earliest;
                    }
                    true
                }
            });
            let swept = before - side_vec.len();
            removed += swept;
            self.live[side.index()] -= swept;
            bucket.min_earliest[side.index()] = min;
            if side_vec.is_empty() {
                if bucket.sides[side.other().index()].is_empty() {
                    self.buckets.remove(key.as_slice());
                }
            } else {
                self.expiry.push(ExpiryEntry {
                    earliest: min,
                    key,
                    side,
                });
            }
        }
        self.expired_total += removed as u64;
        while self.max_edges > 0 && self.edge_histogram[self.max_edges] == 0 {
            self.max_edges -= 1;
        }
        removed
    }

    /// Moves every match of `other` — a store for the *same* SJ-Tree node,
    /// previously owned by another shard — into this store, without
    /// re-running any join probes.
    ///
    /// Used by the `Degrade` shard-failure policy to transplant a
    /// quarantined shard's state onto a survivor. Correctness rests on the
    /// sharding invariant that all state for one join key lives in exactly
    /// one shard: the incoming keys are disjoint from the resident ones, and
    /// every (left, right) pair under them has already been offered to the
    /// donor's probe. Re-probing here would re-emit those joins; the
    /// wholesale move preserves the exact match multiset. Expiry stays
    /// exact: every transplanted bucket side is re-scheduled on its recorded
    /// minimum, and the pending minima merge.
    pub fn absorb(&mut self, other: SharedJoinStore) {
        debug_assert_eq!(
            self.key_vertices, other.key_vertices,
            "absorb requires stores of the same SJ-Tree node"
        );
        let SharedJoinStore {
            key_vertices: _,
            buckets,
            pending,
            pending_min,
            expiry: _,
            live,
            inserted_total,
            expired_total,
            edge_histogram,
            max_edges,
        } = other;
        for (key, mut bucket) in buckets {
            let dst = self.buckets.entry(key.clone()).or_default();
            for side in [JoinSide::Left, JoinSide::Right] {
                let i = side.index();
                if bucket.sides[i].is_empty() {
                    continue;
                }
                dst.sides[i].append(&mut bucket.sides[i]);
                if bucket.min_earliest[i] < dst.min_earliest[i] {
                    dst.min_earliest[i] = bucket.min_earliest[i];
                    self.expiry.push(ExpiryEntry {
                        earliest: bucket.min_earliest[i],
                        key: key.clone(),
                        side,
                    });
                }
            }
        }
        let [p_left, p_right] = pending;
        for (side, backlog) in [(JoinSide::Left, p_left), (JoinSide::Right, p_right)] {
            let i = side.index();
            if pending_min[i] < self.pending_min[i] {
                self.pending_min[i] = pending_min[i];
            }
            self.pending[i].extend(backlog);
        }
        self.live[0] += live[0];
        self.live[1] += live[1];
        self.inserted_total += inserted_total;
        self.expired_total += expired_total;
        if edge_histogram.len() > self.edge_histogram.len() {
            self.edge_histogram.resize(edge_histogram.len(), 0);
        }
        for (i, count) in edge_histogram.into_iter().enumerate() {
            self.edge_histogram[i] += count;
        }
        self.max_edges = self.max_edges.max(max_edges);
    }

    /// Drops every stored match.
    pub fn clear(&mut self) {
        self.buckets.clear();
        self.pending = [Vec::new(), Vec::new()];
        self.pending_min = [Timestamp(i64::MAX), Timestamp(i64::MAX)];
        self.expiry.clear();
        self.live = [0, 0];
        self.edge_histogram.clear();
        self.max_edges = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamworks_graph::EdgeId;
    use streamworks_query::QueryEdgeId;

    fn m(qv_bindings: &[(usize, u32)], edge: u64, ts: i64) -> PartialMatch {
        let mut pm = PartialMatch::seed(
            4,
            QueryEdgeId(edge as usize % 4),
            EdgeId(edge),
            Timestamp::from_secs(ts),
        );
        for &(qv, dv) in qv_bindings {
            assert!(pm.binding.bind(QueryVertexId(qv), VertexId(dv)));
        }
        pm
    }

    fn key_of(store: &SharedJoinStore, pm: &PartialMatch) -> JoinKey {
        store.join_key_for(pm).unwrap()
    }

    fn file(store: &mut SharedJoinStore, side: JoinSide, pm: PartialMatch) -> usize {
        let k = key_of(store, &pm);
        let mut seen = 0;
        store.probe_then_insert(side, k, pm, |_, _| seen += 1);
        seen
    }

    #[test]
    fn probes_only_the_sibling_side() {
        let mut store = SharedJoinStore::new(vec![QueryVertexId(0)]);
        let left1 = m(&[(0, 10), (1, 20)], 1, 100);
        let left2 = m(&[(0, 10), (1, 21)], 2, 101);
        let right = m(&[(0, 10), (2, 30)], 3, 102);

        assert_eq!(file(&mut store, JoinSide::Left, left1), 0);
        // A second left-side match under the same key must NOT see the first
        // (same-side matches never join).
        assert_eq!(file(&mut store, JoinSide::Left, left2), 0);
        assert_eq!(store.side_len(JoinSide::Left), 2);

        // A right-side match under the key probes both left matches.
        let k = key_of(&store, &right);
        let mut seen = 0;
        store.probe_then_insert(JoinSide::Right, k, right, |m, cand| {
            assert_eq!(m.binding.get(QueryVertexId(2)), Some(VertexId(30)));
            assert!(cand.binding.get(QueryVertexId(1)).is_some());
            seen += 1;
        });
        assert_eq!(seen, 2);
        assert_eq!(store.len(), 3);
        assert_eq!(store.inserted_total(), 3);
    }

    #[test]
    fn separates_keys() {
        let mut store = SharedJoinStore::new(vec![QueryVertexId(0)]);
        assert_eq!(file(&mut store, JoinSide::Left, m(&[(0, 10)], 1, 100)), 0);
        // A right-side match under a *different* key probes nothing.
        assert_eq!(file(&mut store, JoinSide::Right, m(&[(0, 99)], 2, 101)), 0);
    }

    #[test]
    fn composite_join_keys_project_in_order() {
        let store = SharedJoinStore::new(vec![QueryVertexId(1), QueryVertexId(0)]);
        let key = store.join_key_for(&m(&[(0, 10), (1, 20)], 9, 100)).unwrap();
        assert_eq!(key.as_slice(), &[VertexId(20), VertexId(10)]);
    }

    #[test]
    fn empty_key_store_groups_everything_together() {
        // An internal node with an empty cut groups all matches under one key.
        let mut store = SharedJoinStore::new(vec![]);
        assert_eq!(file(&mut store, JoinSide::Left, m(&[(0, 1)], 1, 10)), 0);
        assert_eq!(file(&mut store, JoinSide::Right, m(&[(0, 2)], 2, 20)), 1);
    }

    #[test]
    fn expiry_sweeps_exactly_and_skips_when_nothing_can_expire() {
        let mut store = SharedJoinStore::new(vec![QueryVertexId(0)]);
        for i in 0..10i64 {
            let pm = m(&[(0, (i % 3) as u32)], i as u64, 100 + i);
            let side = if i % 2 == 0 {
                JoinSide::Left
            } else {
                JoinSide::Right
            };
            file(&mut store, side, pm);
        }
        assert_eq!(store.len(), 10);
        // Cutoff below the minimum: the heap peek says nothing can go.
        assert_eq!(store.expire_older_than(Timestamp::from_secs(100)), 0);
        // Remove the first five (earliest 100..=104).
        assert_eq!(store.expire_older_than(Timestamp::from_secs(105)), 5);
        assert_eq!(store.len(), 5);
        assert_eq!(store.expired_total(), 5);
        // Survivors are still probeable.
        let probe = m(&[(0, 0)], 99, 200);
        let seen = file(&mut store, JoinSide::Left, probe);
        assert!(seen > 0, "surviving right-side matches remain indexed");
        store.clear();
        assert!(store.is_empty());
    }

    #[test]
    fn absorb_transplants_without_reprobing_and_keeps_expiry_exact() {
        // Donor and survivor hold disjoint key sets (the sharding invariant).
        let mut survivor = SharedJoinStore::new(vec![QueryVertexId(0)]);
        file(&mut survivor, JoinSide::Left, m(&[(0, 1)], 1, 100));
        file(&mut survivor, JoinSide::Right, m(&[(0, 1)], 2, 200));

        let mut donor = SharedJoinStore::new(vec![QueryVertexId(0)]);
        file(&mut donor, JoinSide::Left, m(&[(0, 7)], 3, 50));
        file(&mut donor, JoinSide::Left, m(&[(0, 8)], 4, 300)); // stays pending
        let donor_inserted = donor.inserted_total();

        survivor.absorb(donor);
        assert_eq!(survivor.len(), 4);
        assert_eq!(survivor.inserted_total(), 2 + donor_inserted);

        // Transplanted matches join with *new* arrivals exactly once…
        assert_eq!(file(&mut survivor, JoinSide::Right, m(&[(0, 7)], 5, 60)), 1);
        // …and the transplanted side minima stay on the expiry schedule:
        // cutoff 150 removes the ts=50/60 pair plus the survivor's ts=100.
        assert_eq!(
            survivor.expire_older_than(Timestamp::from_secs(150)),
            3,
            "transplanted state must not hide from expiry"
        );
        assert_eq!(survivor.len(), 2);
    }

    #[test]
    fn skewed_insertion_order_expires_exactly() {
        // The regime the old FIFO expiry queue got wrong: a match with an
        // *older* earliest timestamp filed after newer ones (merged matches
        // inherit the minimum of their components, so this happens on every
        // join-heavy stream). The heap re-schedules the side on the new
        // minimum and the sweep removes exactly the expirable set.
        let mut store = SharedJoinStore::new(vec![QueryVertexId(0)]);
        file(&mut store, JoinSide::Left, m(&[(0, 1)], 1, 200));
        file(&mut store, JoinSide::Left, m(&[(0, 2)], 2, 100)); // older, behind
        file(&mut store, JoinSide::Left, m(&[(0, 3)], 3, 300));
        // Cutoff between the skewed entry and the head of insertion order:
        // exactly the ts=100 match must go, regardless of arrival position.
        assert_eq!(store.expire_older_than(Timestamp::from_secs(150)), 1);
        assert_eq!(store.len(), 2);
        assert!(store
            .iter()
            .all(|pm| pm.earliest >= Timestamp::from_secs(150)));
        // Full-window drain leaves nothing behind the head.
        assert_eq!(store.expire_older_than(Timestamp::from_secs(1_000)), 2);
        assert_eq!(store.len(), 0);
        assert_eq!(store.expired_total(), 3);
    }

    #[test]
    fn long_stream_keeps_schedule_and_memory_bounded() {
        // Decreasing side minima are the worst case for the lazy schedule
        // (every insert can push an entry); periodic expiry must keep both
        // the live population and the heap backlog proportional to the live
        // state, not the stream length.
        let mut store = SharedJoinStore::new(vec![QueryVertexId(0)]);
        for i in 0..10_000i64 {
            file(
                &mut store,
                JoinSide::Left,
                m(&[(0, (i % 7) as u32)], i as u64, i),
            );
            store.expire_older_than(Timestamp::from_secs(i - 50));
        }
        assert!(store.len() <= 52);
        assert!(
            store.expiry_backlog() <= 64,
            "schedule backlog grew to {} entries for ~51 live matches",
            store.expiry_backlog()
        );
    }

    #[test]
    fn sweep_keeps_buckets_consistent() {
        // Several matches under the same key; expire a prefix and verify the
        // survivors are all still probeable through the bucket.
        let mut store = SharedJoinStore::new(vec![QueryVertexId(0)]);
        for i in 0..10 {
            file(&mut store, JoinSide::Left, m(&[(0, 42)], i, 100 + i as i64));
        }
        store.expire_older_than(Timestamp::from_secs(105));
        let mut survivors = Vec::new();
        let probe = m(&[(0, 42)], 99, 200);
        let k = key_of(&store, &probe);
        store.probe_then_insert(JoinSide::Right, k, probe, |_, cand| {
            survivors.push(cand.edges[0].1 .0);
        });
        assert_eq!(survivors.len(), 5);
        for id in 5..10u64 {
            assert!(survivors.contains(&id), "edge {id} lost from bucket");
        }
    }

    #[test]
    fn best_edge_count_tracks_running_max() {
        let mut store = SharedJoinStore::new(vec![QueryVertexId(0)]);
        assert_eq!(store.best_edge_count(), 0);
        file(&mut store, JoinSide::Left, m(&[(0, 1)], 1, 10));
        assert_eq!(store.best_edge_count(), 1);
        let mut big = m(&[(0, 2)], 2, 20);
        assert!(big.add_edge(QueryEdgeId(3), EdgeId(30), Timestamp::from_secs(21)));
        file(&mut store, JoinSide::Right, big);
        assert_eq!(store.best_edge_count(), 2);
        // Expiring the maximal match restores the max from the histogram.
        store.expire_older_than(Timestamp::from_secs(15));
        assert_eq!(store.best_edge_count(), 2);
        store.expire_older_than(Timestamp::from_secs(100));
        assert_eq!(store.best_edge_count(), 0);
    }

    #[test]
    fn join_side_other_flips() {
        assert_eq!(JoinSide::Left.other(), JoinSide::Right);
        assert_eq!(JoinSide::Right.other(), JoinSide::Left);
    }
}
