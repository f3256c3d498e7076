//! The climb table every execution mode walks, and the *buffering* join step
//! of the sharded one.
//!
//! [`node_routes`] is the precomputed per-node table both the in-process
//! `SjTreeMatcher` and the shard workers read instead of chasing the plan's
//! tree shape per match. In process, a merged match is filed into the
//! parent's store from inside the probe (`sj_matcher::Climb::file`); a shard
//! worker must route it first — its next join key may hash to another shard —
//! so `ShardWorker::process` calls [`probe_insert`], which collects them.

use crate::binding::PartialMatch;
use crate::match_store::{JoinSide, SharedJoinStore};
use streamworks_graph::Duration;
use streamworks_query::QueryPlan;

/// Sentinel `parent` value of the root's [`NodeRoute`] (never climbed from).
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// Precomputed per-node climb step, so the join hot loop never touches the
/// plan (no `Arc` traffic, no repeated tree lookups). For the root the
/// `parent` field is the [`NO_PARENT`] sentinel — a match reaching it is a
/// complete match, not a climb.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeRoute {
    /// Parent node index (`NO_PARENT` for the root).
    pub parent: u32,
    /// Which child of the parent this node is.
    pub side: JoinSide,
    /// True when the parent is the root: a successful join there is a
    /// complete match.
    pub parent_is_root: bool,
}

/// Builds the per-node climb table for a plan's tree shape.
pub(crate) fn node_routes(plan: &QueryPlan) -> Vec<NodeRoute> {
    let shape = &plan.shape;
    let root = shape.root();
    shape
        .nodes()
        .map(|n| match n.parent {
            Some(parent) => {
                // The in-process climb splits its store vector on this.
                debug_assert!(parent.0 > n.id.0, "a parent's id exceeds its child's");
                let (left, _) = shape.node(parent).children.expect("parent is internal");
                NodeRoute {
                    parent: parent.0 as u32,
                    side: if n.id == left {
                        JoinSide::Left
                    } else {
                        JoinSide::Right
                    },
                    parent_is_root: parent == root,
                }
            }
            None => NodeRoute {
                parent: NO_PARENT,
                side: JoinSide::Left,
                parent_is_root: false,
            },
        })
        .collect()
}

/// One §4.2 join step at an internal node's shared store, buffered: project
/// `m`'s join key, scan the sibling side for candidates, append every
/// successful in-window merge to `merged` (in the store's probe order), and
/// file `m` on its own side — one hash operation for the whole step
/// ([`SharedJoinStore::probe_then_insert`]). Returns the number of sibling
/// candidates offered to the merge.
#[inline]
pub(crate) fn probe_insert(
    store: &mut SharedJoinStore,
    side: JoinSide,
    m: PartialMatch,
    window: Duration,
    merged: &mut Vec<PartialMatch>,
) -> u64 {
    let Some(key) = store.join_key_for(&m) else {
        debug_assert!(false, "a node-complete match binds its join key");
        return 0;
    };
    let mut attempted = 0;
    store.probe_then_insert(side, key, m, |m, candidate| {
        attempted += 1;
        merged.extend(m.merge(candidate).filter(|c| c.within_window(window)));
    });
    attempted
}
