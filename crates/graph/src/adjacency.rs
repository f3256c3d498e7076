//! Per-vertex adjacency lists grouped by direction and edge type.
//!
//! The matcher's *local search* (paper §4.1) repeatedly asks for "edges of
//! type `t` incident to vertex `v` in direction `d`". Grouping adjacency by
//! `(direction, edge type)` makes that query a single map lookup plus a dense
//! scan, instead of a filter over all incident edges. Each `(direction, type)`
//! bucket additionally maintains a **live-edge counter**, so typed degree
//! queries — and the summarizer's wedge accounting, which only needs
//! *how many* live neighbours of each type exist, not which — are O(1) reads
//! with no neighbourhood scan.
//!
//! Expired edges are removed lazily: [`crate::DynamicGraph`] drops them from
//! its edge table immediately, and adjacency vectors are compacted once their
//! dead fraction crosses a threshold — or freed outright when their last live
//! entry dies, so a vertex that has gone quiet holds no adjacency storage
//! ([`AdjacencyList::release_if_dead`]). Iteration checks liveness against the
//! edge table — or, in [`AdjacencyList::entries_after`], against the
//! retention horizon, which needs no lookup: an edge is expired exactly when
//! its timestamp falls behind the horizon — so stale entries are never
//! observable from the graph's API.

use crate::ids::{EdgeId, Timestamp, TypeId, VertexId};
use serde::{Deserialize, Serialize};

/// Direction of traversal relative to a vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Edges whose source is the vertex.
    Out,
    /// Edges whose destination is the vertex.
    In,
}

impl Direction {
    /// The opposite direction.
    pub fn reverse(self) -> Direction {
        match self {
            Direction::Out => Direction::In,
            Direction::In => Direction::Out,
        }
    }
}

/// One adjacency entry: an incident edge and the neighbouring endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdjEntry {
    /// The incident edge.
    pub edge: EdgeId,
    /// The endpoint on the far side of the edge.
    pub neighbor: VertexId,
    /// Timestamp of the edge (duplicated here to avoid an edge-table lookup
    /// during time-window filtering).
    pub timestamp: Timestamp,
}

/// Entries of one `(direction, edge type)` group plus its live-edge count.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct AdjBucket {
    /// Incident edges in arrival order; may contain expired (stale) entries
    /// until the next compaction.
    entries: Vec<AdjEntry>,
    /// Number of `entries` that refer to live edges.
    live: u32,
    /// Set when an entry arrived with an older timestamp than its
    /// predecessor: `entries` is then no longer sorted by time and
    /// [`AdjacencyList::entries_after`] may not stop at the first old entry.
    /// Compaction clears it again once the survivors are back in order.
    #[serde(default)]
    disordered: bool,
}

/// Adjacency of a single vertex.
///
/// Buckets are held in a small vector rather than a hash map: a vertex
/// typically touches one to three edge types, and at that size a linear scan
/// over inline `(type, bucket)` pairs is both faster and cache-friendlier
/// than hashing.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AdjacencyList {
    out: Vec<(TypeId, AdjBucket)>,
    inc: Vec<(TypeId, AdjBucket)>,
    /// Number of entries (across both directions) that refer to expired edges
    /// and have not been compacted away yet.
    dead: usize,
}

impl AdjacencyList {
    /// Creates an empty adjacency list.
    pub const fn new() -> Self {
        AdjacencyList {
            out: Vec::new(),
            inc: Vec::new(),
            dead: 0,
        }
    }

    fn side(&self, dir: Direction) -> &[(TypeId, AdjBucket)] {
        match dir {
            Direction::Out => &self.out,
            Direction::In => &self.inc,
        }
    }

    fn side_mut(&mut self, dir: Direction) -> &mut Vec<(TypeId, AdjBucket)> {
        match dir {
            Direction::Out => &mut self.out,
            Direction::In => &mut self.inc,
        }
    }

    fn bucket(&self, dir: Direction, etype: TypeId) -> Option<&AdjBucket> {
        self.side(dir)
            .iter()
            .find(|(t, _)| *t == etype)
            .map(|(_, b)| b)
    }

    /// Appends an entry for a newly inserted edge.
    pub fn push(&mut self, dir: Direction, etype: TypeId, entry: AdjEntry) {
        let side = self.side_mut(dir);
        let bucket = match side.iter_mut().position(|(t, _)| *t == etype) {
            Some(i) => &mut side[i].1,
            None => {
                side.push((etype, AdjBucket::default()));
                &mut side.last_mut().expect("just pushed").1
            }
        };
        if (bucket.entries.last()).is_some_and(|last| entry.timestamp < last.timestamp) {
            bucket.disordered = true;
        }
        bucket.entries.push(entry);
        bucket.live += 1;
    }

    /// Records that one referenced edge of the given group has expired
    /// (keeps the live counters exact and feeds the compaction heuristic).
    pub fn note_dead(&mut self, dir: Direction, etype: TypeId) {
        self.dead += 1;
        if let Some((_, bucket)) = self.side_mut(dir).iter_mut().find(|(t, _)| *t == etype) {
            debug_assert!(bucket.live > 0, "live counter underflow");
            bucket.live = bucket.live.saturating_sub(1);
        }
    }

    /// Iterates raw entries for a direction and edge type. Entries may be stale;
    /// the caller must check liveness against the edge table.
    #[inline]
    pub fn entries(&self, dir: Direction, etype: TypeId) -> &[AdjEntry] {
        self.bucket(dir, etype)
            .map(|b| b.entries.as_slice())
            .unwrap_or(&[])
    }

    /// Iterates the entries of one group whose timestamp is newer than
    /// `after` and not older than `horizon`, latest arrival first.
    ///
    /// The graph expires every edge older than its retention horizon, so with
    /// that horizon passed in the entries yielded are exactly the live ones
    /// newer than `after` — no edge-table lookup. While the group has only
    /// seen timestamps in arrival order the walk stops at the first entry
    /// that fails the test (everything before it is older still); after an
    /// out-of-order arrival it filters the whole group instead.
    pub fn entries_after(
        &self,
        dir: Direction,
        etype: TypeId,
        after: Timestamp,
        horizon: Timestamp,
    ) -> impl Iterator<Item = &AdjEntry> + '_ {
        let (entries, ordered) = match self.bucket(dir, etype) {
            Some(b) => (b.entries.as_slice(), !b.disordered),
            None => (&[][..], true),
        };
        let newer = move |e: &&AdjEntry| e.timestamp > after && e.timestamp >= horizon;
        entries
            .iter()
            .rev()
            .take_while(move |e| !ordered || newer(e))
            .filter(newer)
    }

    /// Iterates raw entries for a direction across all edge types.
    pub fn entries_all_types(&self, dir: Direction) -> impl Iterator<Item = (TypeId, &AdjEntry)> {
        self.side(dir)
            .iter()
            .flat_map(|(t, b)| b.entries.iter().map(move |e| (*t, e)))
    }

    /// Number of live incident edges of one `(direction, type)` group — O(1)
    /// in the neighbourhood size (a scan over the few types present).
    #[inline]
    pub fn live_count(&self, dir: Direction, etype: TypeId) -> usize {
        self.bucket(dir, etype)
            .map(|b| b.live as usize)
            .unwrap_or(0)
    }

    /// Iterates `(edge type, live count)` for a direction, skipping groups
    /// with no live edges — O(#types), no neighbourhood scan.
    pub fn live_counts(&self, dir: Direction) -> impl Iterator<Item = (TypeId, usize)> + '_ {
        self.side(dir)
            .iter()
            .filter(|(_, b)| b.live > 0)
            .map(|(t, b)| (*t, b.live as usize))
    }

    /// Total number of stored entries (including stale ones).
    pub fn raw_len(&self) -> usize {
        self.out.iter().map(|(_, b)| b.entries.len()).sum::<usize>()
            + self.inc.iter().map(|(_, b)| b.entries.len()).sum::<usize>()
    }

    /// Number of entries known to be stale.
    pub fn dead_len(&self) -> usize {
        self.dead
    }

    /// True if compaction is worthwhile (more than half of the entries are stale
    /// and there are enough of them to matter).
    pub fn should_compact(&self) -> bool {
        self.dead >= 32 && self.dead * 2 >= self.raw_len()
    }

    /// Frees the whole list once it holds nothing but stale entries, however
    /// few; true if it did.
    ///
    /// That is a vertex gone quiet (an article whose mentions have all
    /// expired). [`Self::should_compact`] would leave its buffers allocated
    /// for good; handed back at once, the allocator reuses them for the next
    /// new vertex, so ingest writes to warm memory and a stream of ever-new
    /// vertices keeps no dead buffers per vertex.
    pub fn release_if_dead(&mut self) -> bool {
        let dead = self.dead > 0 && !self.out.iter().chain(&self.inc).any(|(_, b)| b.live > 0);
        if dead {
            *self = AdjacencyList::new();
        }
        dead
    }

    /// Removes every entry for which `is_live` returns `false`.
    pub fn compact(&mut self, mut is_live: impl FnMut(EdgeId) -> bool) {
        for side in [&mut self.out, &mut self.inc] {
            side.retain_mut(|(_, b)| {
                b.entries.retain(|e| is_live(e.edge));
                b.live = b.entries.len() as u32;
                b.disordered =
                    b.disordered && (b.entries.windows(2)).any(|w| w[1].timestamp < w[0].timestamp);
                !b.entries.is_empty()
            });
        }
        self.dead = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(e: u64, n: u32) -> AdjEntry {
        AdjEntry {
            edge: EdgeId(e),
            neighbor: VertexId(n),
            timestamp: Timestamp::from_secs(e as i64),
        }
    }

    #[test]
    fn push_and_lookup_by_type_and_direction() {
        let mut adj = AdjacencyList::new();
        adj.push(Direction::Out, TypeId(0), entry(1, 10));
        adj.push(Direction::Out, TypeId(1), entry(2, 11));
        adj.push(Direction::In, TypeId(0), entry(3, 12));

        assert_eq!(adj.entries(Direction::Out, TypeId(0)).len(), 1);
        assert_eq!(adj.entries(Direction::Out, TypeId(1)).len(), 1);
        assert_eq!(adj.entries(Direction::In, TypeId(0)).len(), 1);
        assert_eq!(adj.entries(Direction::In, TypeId(1)).len(), 0);
        assert_eq!(adj.raw_len(), 3);
    }

    #[test]
    fn entries_all_types_covers_every_type() {
        let mut adj = AdjacencyList::new();
        adj.push(Direction::Out, TypeId(0), entry(1, 10));
        adj.push(Direction::Out, TypeId(1), entry(2, 11));
        let mut seen: Vec<u64> = adj
            .entries_all_types(Direction::Out)
            .map(|(_, e)| e.edge.0)
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2]);
    }

    #[test]
    fn live_counts_track_pushes_and_deaths() {
        let mut adj = AdjacencyList::new();
        adj.push(Direction::Out, TypeId(0), entry(1, 10));
        adj.push(Direction::Out, TypeId(0), entry(2, 11));
        adj.push(Direction::Out, TypeId(1), entry(3, 12));
        assert_eq!(adj.live_count(Direction::Out, TypeId(0)), 2);
        assert_eq!(adj.live_count(Direction::Out, TypeId(1)), 1);
        assert_eq!(adj.live_count(Direction::In, TypeId(0)), 0);

        adj.note_dead(Direction::Out, TypeId(0));
        assert_eq!(adj.live_count(Direction::Out, TypeId(0)), 1);
        let mut counts: Vec<_> = adj.live_counts(Direction::Out).collect();
        counts.sort();
        assert_eq!(counts, vec![(TypeId(0), 1), (TypeId(1), 1)]);
        assert_eq!(adj.dead_len(), 1);
    }

    #[test]
    fn compact_removes_dead_entries() {
        let mut adj = AdjacencyList::new();
        for i in 0..100 {
            adj.push(Direction::Out, TypeId(0), entry(i, i as u32));
        }
        for _ in 0..60 {
            adj.note_dead(Direction::Out, TypeId(0));
        }
        assert!(adj.should_compact());
        // Edges with id < 60 are "expired".
        adj.compact(|e| e.0 >= 60);
        assert_eq!(adj.raw_len(), 40);
        assert_eq!(adj.dead_len(), 0);
        assert_eq!(adj.live_count(Direction::Out, TypeId(0)), 40);
        assert!(!adj.should_compact());
    }

    #[test]
    fn a_late_arrival_disorders_its_bucket_until_compaction_removes_it() {
        let mut adj = AdjacencyList::new();
        let disordered =
            |adj: &AdjacencyList| adj.bucket(Direction::Out, TypeId(0)).unwrap().disordered;
        let newer_than_4 = |adj: &AdjacencyList| -> Vec<u64> {
            adj.entries_after(
                Direction::Out,
                TypeId(0),
                Timestamp::from_secs(4),
                Timestamp(i64::MIN),
            )
            .map(|e| e.edge.0)
            .collect()
        };
        adj.push(Direction::Out, TypeId(0), entry(5, 0));
        adj.push(Direction::Out, TypeId(0), entry(5, 1)); // a tie keeps the order
        assert!(!disordered(&adj));
        adj.push(Direction::Out, TypeId(0), entry(3, 2));
        adj.push(Direction::Out, TypeId(0), entry(6, 3));
        assert!(disordered(&adj));
        adj.push(Direction::In, TypeId(0), entry(9, 4));
        assert!(!adj.bucket(Direction::In, TypeId(0)).unwrap().disordered);
        // Latest arrival first, scanning past the late entry.
        assert_eq!(newer_than_4(&adj), vec![6, 5, 5]);

        adj.compact(|e| e.0 != 3);
        assert!(!disordered(&adj));
        assert_eq!(newer_than_4(&adj), vec![6, 5, 5]);
    }

    #[test]
    fn a_list_is_released_when_its_last_live_entry_dies() {
        let mut adj = AdjacencyList::new();
        assert!(!adj.release_if_dead(), "nothing to free");
        adj.push(Direction::Out, TypeId(0), entry(0, 0));
        adj.push(Direction::In, TypeId(1), entry(1, 1));
        adj.note_dead(Direction::Out, TypeId(0));
        assert!(!adj.release_if_dead(), "one entry is still live");
        assert_eq!(adj.raw_len(), 2);
        adj.note_dead(Direction::In, TypeId(1));
        assert!(adj.release_if_dead());
        assert_eq!((adj.raw_len(), adj.dead_len()), (0, 0));
        assert_eq!(adj.out.capacity() + adj.inc.capacity(), 0);
        // The list is as good as new.
        adj.push(Direction::Out, TypeId(0), entry(2, 2));
        assert_eq!(adj.live_count(Direction::Out, TypeId(0)), 1);
    }

    #[test]
    fn small_lists_do_not_trigger_compaction() {
        let mut adj = AdjacencyList::new();
        adj.push(Direction::Out, TypeId(0), entry(0, 0));
        adj.note_dead(Direction::Out, TypeId(0));
        assert!(!adj.should_compact());
    }

    #[test]
    fn direction_reverse() {
        assert_eq!(Direction::Out.reverse(), Direction::In);
        assert_eq!(Direction::In.reverse(), Direction::Out);
    }
}
