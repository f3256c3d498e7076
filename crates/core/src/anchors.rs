//! Schema-gated per-type anchor dispatch, shared by every local-search front
//! end.
//!
//! Both the per-query [`SjTreeMatcher`](crate::SjTreeMatcher) and the
//! cross-query `SharedIndex` answer the same question on every
//! incoming edge: *which (owner, anchor query edge) pairs could this edge
//! realise?* The answer is a hash lookup on the edge's resolved type plus the
//! anchors whose query edge carries no type constraint — and it has to be
//! recomputed whenever the graph interns a new type name (constraints resolve
//! against the live schema) or the owning pattern set changes.
//!
//! [`AnchorIndex`] owns that dispatch table, the schema-version gate, the
//! dirty flag, and the per-event scratch buffer, generically over the owner
//! key `K` (an SJ-Tree leaf id for the matcher, an entry index for the shared
//! index).

use streamworks_graph::hash::FxHashMap;
use streamworks_graph::TypeId;
use streamworks_query::QueryEdgeId;

/// The per-type anchor dispatch table of one local-search front end.
///
/// `K` identifies the owner of an anchor (leaf, entry index, ...). The table
/// is rebuilt lazily: callers mark it dirty on membership changes, check
/// [`Self::schema_changed`] per event (refreshing their compiled constraints
/// when it fires), and rebuild through [`Self::begin_rebuild`] + [`Self::add`]
/// when [`Self::is_dirty`] reports stale tables.
#[derive(Debug)]
pub(crate) struct AnchorIndex<K> {
    /// For each resolved data edge type, the `(owner, anchor query edge)`
    /// pairs a new edge of that type could realise.
    by_type: FxHashMap<TypeId, Vec<(K, QueryEdgeId)>>,
    /// Anchors whose query edge has no type constraint (probed for every
    /// edge).
    any_type: Vec<(K, QueryEdgeId)>,
    /// Graph schema version the tables were resolved against.
    seen_schema: u64,
    /// Tables stale (membership or schema changed since the last rebuild).
    dirty: bool,
    /// Per-event scratch list, recycled so the steady-state path performs no
    /// transient allocations once warm.
    scratch: Vec<(K, QueryEdgeId)>,
}

impl<K> Default for AnchorIndex<K> {
    fn default() -> Self {
        AnchorIndex {
            by_type: FxHashMap::default(),
            any_type: Vec::new(),
            seen_schema: 0,
            dirty: false,
            scratch: Vec::new(),
        }
    }
}

impl<K: Copy> AnchorIndex<K> {
    /// An empty, clean index pinned to `schema` (the version the owner's
    /// constraints were just compiled against).
    pub fn new(schema: u64) -> Self {
        AnchorIndex {
            seen_schema: schema,
            ..AnchorIndex::default()
        }
    }

    /// Marks the tables stale (owner set changed: subscribe/unsubscribe,
    /// plan swap, ...).
    pub fn mark_dirty(&mut self) {
        self.dirty = true;
    }

    /// True if a rebuild is pending.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Schema-version gate, one integer compare on the steady-state path.
    /// Returns `true` — exactly once per version bump — when the graph has
    /// interned new type names since the last call; the caller must then
    /// refresh its compiled constraints before the next rebuild. The tables
    /// are marked dirty automatically.
    pub fn schema_changed(&mut self, schema: u64) -> bool {
        if self.seen_schema == schema {
            return false;
        }
        self.seen_schema = schema;
        self.dirty = true;
        true
    }

    /// Clears the tables and the dirty flag; follow with [`Self::add`] for
    /// every anchor.
    pub fn begin_rebuild(&mut self) {
        self.by_type.clear();
        self.any_type.clear();
        self.dirty = false;
    }

    /// Files one anchor under the outcome of its owner's
    /// `edge_type_filter`: `Err(())` = type unseen by the graph (nothing can
    /// match yet, dropped), `Ok(Some(t))` = dispatched on type `t`,
    /// `Ok(None)` = unconstrained (probed for every edge).
    pub fn add(&mut self, filter: Result<Option<TypeId>, ()>, owner: K, anchor: QueryEdgeId) {
        match filter {
            Err(()) => {}
            Ok(Some(t)) => self.by_type.entry(t).or_default().push((owner, anchor)),
            Ok(None) => self.any_type.push((owner, anchor)),
        }
    }

    /// The anchors a data edge of type `etype` dispatches to: the typed
    /// bucket followed by the unconstrained anchors, in the recycled scratch
    /// buffer. Return it through [`Self::give_back`] after the event.
    pub fn take_for_type(&mut self, etype: TypeId) -> Vec<(K, QueryEdgeId)> {
        let mut anchors = std::mem::take(&mut self.scratch);
        anchors.clear();
        if let Some(typed) = self.by_type.get(&etype) {
            anchors.extend_from_slice(typed);
        }
        anchors.extend_from_slice(&self.any_type);
        anchors
    }

    /// Returns the scratch buffer taken by [`Self::take_for_type`].
    pub fn give_back(&mut self, scratch: Vec<(K, QueryEdgeId)>) {
        self.scratch = scratch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatches_typed_and_any_anchors() {
        let mut idx: AnchorIndex<u32> = AnchorIndex::new(1);
        idx.begin_rebuild();
        idx.add(Ok(Some(TypeId(7))), 0, QueryEdgeId(0));
        idx.add(Ok(None), 1, QueryEdgeId(1));
        idx.add(Err(()), 2, QueryEdgeId(2)); // unseen type: dropped

        let hits = idx.take_for_type(TypeId(7));
        assert_eq!(hits, vec![(0, QueryEdgeId(0)), (1, QueryEdgeId(1))]);
        idx.give_back(hits);

        let misses = idx.take_for_type(TypeId(9));
        assert_eq!(misses, vec![(1, QueryEdgeId(1))]);
        idx.give_back(misses);
    }

    #[test]
    fn schema_gate_fires_once_per_version() {
        let mut idx: AnchorIndex<u32> = AnchorIndex::new(1);
        assert!(!idx.schema_changed(1));
        assert!(!idx.is_dirty());
        assert!(idx.schema_changed(2));
        assert!(idx.is_dirty());
        assert!(!idx.schema_changed(2));
        assert!(idx.is_dirty()); // stays dirty until rebuilt
        idx.begin_rebuild();
        assert!(!idx.is_dirty());
    }

    #[test]
    fn mark_dirty_survives_until_rebuild() {
        let mut idx: AnchorIndex<u8> = AnchorIndex::default();
        idx.mark_dirty();
        assert!(idx.is_dirty());
        idx.begin_rebuild();
        assert!(!idx.is_dirty());
    }
}
