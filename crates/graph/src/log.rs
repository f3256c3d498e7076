//! The edge log: every retained edge, once, in arrival order.
//!
//! The paper's query semantics only ever need edges that can still take part
//! in a match whose time span is below the query window `tW`, so the graph
//! keeps a *retention horizon*: once stream time passes `timestamp +
//! retention`, an edge expires. [`EdgeLog`] is both the store of the live
//! edge records and the order they expire in:
//!
//! * **Storage by arrival.** Edge ids are sequential, so a record lives at
//!   `id - base` of one deque: a lookup is a bounds check and an index, an
//!   append is a `push_back`, and expiring the oldest edge advances the head.
//! * **Expiry in timestamp order, exactly once.** An edge that arrives with
//!   a timestamp older than stream time — bounded skew from a lagging
//!   producer — is *late*: it keeps its arrival slot, and its `(timestamp,
//!   id)` is also filed in a small sorted **late queue**. Every other edge is
//!   in order, so those records are sorted by timestamp along the deque.
//!   [`EdgeLog::pop_expired`] takes the older of the deque's front and the
//!   late queue's front. A late edge leaves through the late queue and
//!   leaves a tombstone (`None`) in its arrival slot, which the head skips.
//!   The head never meets a live late edge: the in-order edge that made it
//!   late arrived before it and is not older, so it has left first.
//! * **A straggler does not pin memory.** A far-future edge (a producer with
//!   a skewed clock) stays live while everything after it expires on
//!   arrival, and its slot would hold the head. Once the deque exceeds
//!   `4 × live + 1024` slots, live records at its front move to a small
//!   `overflow` map and into the late queue, so the deque stays proportional
//!   to the live count and the moved edges still expire in order.
//!
//! Chosen over a sorted tail (late edges inserted at their timestamp
//! position in the one deque): that would lose the lookup by `id - base`,
//! while the late queue costs nothing on an in-order stream, where it stays
//! empty.

use crate::edge::Edge;
use crate::hash::FxHashMap;
use crate::ids::{EdgeId, Timestamp};
use std::collections::VecDeque;

/// Retained edges in arrival order plus their expiry order (module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct EdgeLog {
    /// Edge id of `slots[0]`; the front slot, when there is one, is live.
    base: u64,
    slots: VecDeque<Option<Edge>>,
    /// `(timestamp, id)` of every live edge the head will not expire —
    /// late arrivals and records moved to `overflow` — sorted.
    late: VecDeque<(Timestamp, EdgeId)>,
    /// Live records moved off the front of an oversized deque.
    overflow: FxHashMap<EdgeId, Edge>,
    live: usize,
    /// Largest timestamp appended so far.
    newest: Timestamp,
    expired_total: u64,
}

impl EdgeLog {
    pub(crate) fn new() -> Self {
        EdgeLog {
            newest: Timestamp(i64::MIN),
            ..Default::default()
        }
    }

    /// Appends an edge; its id must be the next sequential id.
    #[inline]
    pub(crate) fn push(&mut self, edge: Edge) {
        debug_assert_eq!(edge.id.0, self.base + self.slots.len() as u64);
        if edge.timestamp < self.newest {
            let key = (edge.timestamp, edge.id);
            // The id is the largest yet: after every equal timestamp.
            let at = self.late.partition_point(|&k| k < key);
            self.late.insert(at, key);
        } else {
            self.newest = edge.timestamp;
        }
        self.slots.push_back(Some(edge));
        self.live += 1;
        if self.slots.len() > 4 * self.live + 1024 {
            self.evict_stragglers();
        }
    }

    /// Removes and returns the oldest live edge if its timestamp is before
    /// `cutoff`. Ties go by arrival.
    #[inline]
    pub(crate) fn pop_expired(&mut self, cutoff: Timestamp) -> Option<Edge> {
        let head = (self.slots.front())
            .and_then(Option::as_ref)
            .map(|e| (e.timestamp, e.id));
        let late = self.late.front().copied();
        let edge = match (head, late) {
            // Equal keys name the same record: a late edge the head reached.
            (_, Some(l)) if l.0 < cutoff && head.is_none_or(|h| l <= h) => {
                self.late.pop_front();
                self.take(l.1)
            }
            (Some(h), _) if h.0 < cutoff => {
                self.base += 1;
                self.slots.pop_front().flatten()
            }
            _ => return None,
        };
        self.trim_front();
        self.live -= 1;
        self.expired_total += 1;
        debug_assert!(
            edge.is_some(),
            "the late queue and the head list live records"
        );
        edge
    }

    /// Removes a live record by id, leaving a tombstone in the deque.
    fn take(&mut self, id: EdgeId) -> Option<Edge> {
        match id.0.checked_sub(self.base) {
            Some(idx) => self.slots.get_mut(idx as usize)?.take(),
            None => self.overflow.remove(&id),
        }
    }

    /// Pops the tombstones at the front, so the front slot is live.
    fn trim_front(&mut self) {
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
    }

    /// Moves live records pinning the front of an oversized deque into the
    /// overflow map (and, if the head was to expire them, into the late
    /// queue) until the deque is proportional to the live count again.
    fn evict_stragglers(&mut self) {
        while self.slots.len() > 4 * self.live + 1024 {
            let Some(slot) = self.slots.pop_front() else {
                break;
            };
            self.base += 1;
            if let Some(edge) = slot {
                let key = (edge.timestamp, edge.id);
                if let Err(at) = self.late.binary_search(&key) {
                    self.late.insert(at, key);
                }
                self.overflow.insert(edge.id, edge);
            }
            self.trim_front();
        }
    }

    #[inline]
    pub(crate) fn get(&self, id: EdgeId) -> Option<&Edge> {
        match id.0.checked_sub(self.base) {
            Some(idx) => self.slots.get(idx as usize)?.as_ref(),
            None => self.overflow.get(&id),
        }
    }

    #[inline]
    pub(crate) fn contains(&self, id: EdgeId) -> bool {
        self.get(id).is_some()
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    pub(crate) fn expired_total(&self) -> u64 {
        self.expired_total
    }

    /// Smallest live edge id: the deque's front or an older overflow record.
    pub(crate) fn oldest_live(&self) -> Option<EdgeId> {
        let front = (!self.slots.is_empty()).then_some(EdgeId(self.base));
        let moved = self.overflow.keys().min().copied();
        match (front, moved) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        }
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &Edge> {
        self.overflow
            .values()
            .chain(self.slots.iter().filter_map(Option::as_ref))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Attrs;
    use crate::ids::{Duration, TypeId, VertexId};

    fn edge(id: u64, secs: i64) -> Edge {
        Edge {
            id: EdgeId(id),
            src: VertexId(0),
            dst: VertexId(1),
            etype: TypeId(0),
            timestamp: Timestamp::from_secs(secs),
            attrs: Attrs::new(),
        }
    }

    fn drain(log: &mut EdgeLog, cutoff_secs: i64) -> Vec<u64> {
        let cutoff = Timestamp::from_secs(cutoff_secs);
        std::iter::from_fn(|| log.pop_expired(cutoff))
            .map(|e| e.id.0)
            .collect()
    }

    #[test]
    fn in_order_edges_expire_from_the_head() {
        let mut log = EdgeLog::new();
        for (id, t) in [(0, 0), (1, 5), (2, 11)] {
            log.push(edge(id, t));
        }
        assert_eq!(drain(&mut log, 1), vec![0]);
        assert_eq!((log.len(), log.expired_total()), (2, 1));
        assert_eq!(log.oldest_live(), Some(EdgeId(1)));
        assert!(log.get(EdgeId(0)).is_none() && log.contains(EdgeId(2)));
    }

    #[test]
    fn a_cutoff_past_every_edge_empties_the_log() {
        let mut log = EdgeLog::new();
        log.push(edge(0, 0));
        log.push(edge(1, 1));
        assert_eq!(drain(&mut log, 98), vec![0, 1]);
        assert_eq!((log.len(), log.expired_total()), (0, 2));
        assert_eq!((log.oldest_live(), log.iter().count()), (None, 0));
    }

    #[test]
    fn late_edges_expire_in_timestamp_order_exactly_once() {
        let mut log = EdgeLog::new();
        log.push(edge(0, 10));
        log.push(edge(1, 4)); // late
        log.push(edge(2, 7)); // late
        log.push(edge(3, 10)); // a tie with the newest is in order
        log.push(edge(4, 7)); // late, tied with edge 2
        assert_eq!(drain(&mut log, 5), vec![1]);
        // Edge 1's slot is a tombstone behind the live head.
        assert!(log.get(EdgeId(1)).is_none() && log.contains(EdgeId(0)));
        assert_eq!(drain(&mut log, 25), vec![2, 4, 0, 3]);
        assert_eq!((log.len(), log.expired_total()), (0, 5));
        assert_eq!(log.oldest_live(), None);
        log.push(edge(5, 30));
        assert_eq!(log.oldest_live(), Some(EdgeId(5)));
    }

    #[test]
    fn a_far_future_straggler_does_not_pin_the_deque() {
        let mut log = EdgeLog::new();
        let retention = Duration::from_secs(60);
        log.push(edge(0, 1_000_000));
        let cutoff = Timestamp::from_secs(1_000_000).minus(retention);
        for id in 1..20_000u64 {
            log.push(edge(id, id as i64));
            assert_eq!(log.pop_expired(cutoff).map(|e| e.id.0), Some(id));
        }
        assert_eq!(log.len(), 1);
        assert!(log.slots.len() <= 4 * log.live + 1024 + 1);
        assert_eq!(log.oldest_live(), Some(EdgeId(0)));
        assert_eq!(log.iter().count(), 1);
        // The moved record still expires, once.
        assert_eq!(drain(&mut log, 2_000_000), vec![0]);
        assert_eq!((log.len(), log.iter().count()), (0, 0));
    }
}
