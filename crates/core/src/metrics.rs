//! Per-query runtime counters.
//!
//! The metrics mirror the quantities the paper's evaluation narrative cares
//! about: how many partial matches a plan materialises (the cost the
//! selectivity-driven decomposition is designed to minimise, §4.1), how many
//! join attempts succeed, and how many complete matches are emitted.

use serde::{Deserialize, Serialize};

/// Which end of the path a regular path query's spanning trees are rooted
/// at: the end with fewer live edges that can start a tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RpqEnd {
    /// Path sources, walked forward with the pattern's automaton.
    #[default]
    Source,
    /// Path targets, walked backward with the reversed pattern's automaton.
    Target,
}

impl RpqEnd {
    /// The end across the path from this one.
    pub(crate) fn opposite(self) -> RpqEnd {
        match self {
            RpqEnd::Source => RpqEnd::Target,
            RpqEnd::Target => RpqEnd::Source,
        }
    }
}

impl std::fmt::Display for RpqEnd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RpqEnd::Source => "source",
            RpqEnd::Target => "target",
        })
    }
}

/// Counters for one registered query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryMetrics {
    /// Data edges offered to the matcher.
    pub edges_processed: u64,
    /// Candidate data edges examined during local search.
    pub local_search_candidates: u64,
    /// Embeddings of leaf primitives produced by local search.
    pub primitive_matches: u64,
    /// Partial matches inserted across all SJ-Tree nodes (including leaves).
    pub partial_matches_inserted: u64,
    /// Partial matches currently *materialised* in the join stores (updated
    /// on insert/expiry). A lazy join side holds its matches only under the
    /// keys its sibling holds, so this counts what is built, not every
    /// within-window partial embedding.
    ///
    /// **Exact on every execution path** since the store unification: the
    /// shared join store's expiry sweep visits every held match, so it never
    /// retains stale matches behind an in-window head, so this reads 0 after a full-window
    /// drain — single-threaded and sharded alike.
    pub partial_matches_live: u64,
    /// Partial matches removed by window expiry.
    pub partial_matches_expired: u64,
    /// Join attempts between sibling match collections.
    pub joins_attempted: u64,
    /// Join attempts that produced a larger partial match.
    pub joins_succeeded: u64,
    /// Complete matches emitted (root-level combinations within the window).
    pub complete_matches: u64,
    /// Partial matches dropped because a per-node cap was reached.
    pub matches_dropped_by_cap: u64,
    /// Partial matches whose inline hot-path storage spilled to the heap
    /// (queries with more than 8 vertices or 6 edges — see
    /// `streamworks_core::binding`). A non-zero count flags a query that is
    /// silently paying a per-match allocation the paper-sized fast path
    /// avoids.
    pub binding_spills: u64,
    /// Match events dropped by this query's subscriber sinks under a
    /// `DropOldest`/`DropNewest` overflow policy (see
    /// `streamworks_core::SinkOverflowPolicy`). Sinks with the `Block`
    /// policy — and unbounded sinks — never contribute here. Defaults to 0
    /// when absent from serialized form (snapshots written before overflow
    /// policies existed).
    #[serde(default)]
    pub sink_events_dropped: u64,
    /// RPQ only: product-graph spanning-tree nodes currently live across the
    /// query's trees (0 for SJ-Tree queries). Exact after a prune: reads 0
    /// once a full window has drained.
    #[serde(default)]
    pub rpq_tree_nodes_live: u64,
    /// RPQ only: relaxation attempts — every candidate timestamp offered to
    /// a product node (the RPQ analogue of `joins_attempted`). The share that
    /// is not an expansion is wasted work.
    #[serde(default)]
    pub rpq_relaxations: u64,
    /// RPQ only: relaxation attempts that created a tree node or raised its
    /// timestamp (the RPQ analogue of `joins_succeeded`).
    #[serde(default)]
    pub rpq_expansions: u64,
    /// RPQ only: accepting-state arrivals, i.e. path matches emitted. Equal
    /// to `complete_matches` for a pure RPQ query; kept separate so absorbed
    /// mixed-kind aggregates can still attribute accepts.
    #[serde(default)]
    pub rpq_accepts: u64,
    /// RPQ only: times the matcher turned its spanning trees around to the
    /// other end of the path (at most one per query window; see the `rpq`
    /// module docs, "Which end roots the trees").
    #[serde(default)]
    pub rpq_end_switches: u64,
    /// RPQ only: the end of the path the spanning trees are rooted at now
    /// ([`RpqEnd::Source`] for SJ-Tree queries). A gauge: [`Self::absorb`]
    /// keeps the receiver's.
    #[serde(default)]
    pub rpq_end: RpqEnd,
    /// Durable delivery attempts performed for this query's durable
    /// subscriptions (every try counts: first attempts, retries and
    /// probation probes). Zero when no durable subscribers are registered.
    #[serde(default)]
    pub delivery_attempts: u64,
    /// Delivery attempts that were retries or probation probes — performed
    /// while the subscription was `Degraded` or `Quarantined`.
    #[serde(default)]
    pub delivery_retries: u64,
    /// Promotions of a durable subscription back to `Active` after a
    /// degraded or quarantined spell.
    #[serde(default)]
    pub delivery_recoveries: u64,
    /// Gauge: matches routed to this query's durable subscriptions but not
    /// yet acknowledged (the summed outbox depth). Zero when every durable
    /// subscriber is caught up.
    #[serde(default)]
    pub cursor_lag: u64,
    /// Cold → hot transitions of a lazy join side: an arrival under a key
    /// its sibling side held nothing under, which rebuilt the lazy side's
    /// matches under that key (see `SjTreeMatcher`'s module docs).
    #[serde(default)]
    pub lazy_materialisations: u64,
    /// Join work at a lazy node skipped because its parent's key was cold:
    /// one per match filed there without a probe (it binds the parent's cut
    /// itself), one per sibling candidate passed over without a merge.
    #[serde(default)]
    pub merges_skipped_cold: u64,
}

impl QueryMetrics {
    /// Join success ratio (1.0 when no joins were attempted).
    pub fn join_success_rate(&self) -> f64 {
        if self.joins_attempted == 0 {
            1.0
        } else {
            self.joins_succeeded as f64 / self.joins_attempted as f64
        }
    }

    /// Complete matches per processed edge.
    pub fn matches_per_edge(&self) -> f64 {
        if self.edges_processed == 0 {
            0.0
        } else {
            self.complete_matches as f64 / self.edges_processed as f64
        }
    }

    /// Adds another metrics snapshot into this one (used to aggregate across
    /// queries or runs).
    pub fn absorb(&mut self, other: &QueryMetrics) {
        self.edges_processed += other.edges_processed;
        self.local_search_candidates += other.local_search_candidates;
        self.primitive_matches += other.primitive_matches;
        self.partial_matches_inserted += other.partial_matches_inserted;
        self.partial_matches_live += other.partial_matches_live;
        self.partial_matches_expired += other.partial_matches_expired;
        self.joins_attempted += other.joins_attempted;
        self.joins_succeeded += other.joins_succeeded;
        self.complete_matches += other.complete_matches;
        self.matches_dropped_by_cap += other.matches_dropped_by_cap;
        self.binding_spills += other.binding_spills;
        self.sink_events_dropped += other.sink_events_dropped;
        self.rpq_tree_nodes_live += other.rpq_tree_nodes_live;
        self.rpq_relaxations += other.rpq_relaxations;
        self.rpq_expansions += other.rpq_expansions;
        self.rpq_accepts += other.rpq_accepts;
        self.rpq_end_switches += other.rpq_end_switches;
        self.delivery_attempts += other.delivery_attempts;
        self.delivery_retries += other.delivery_retries;
        self.delivery_recoveries += other.delivery_recoveries;
        self.cursor_lag += other.cursor_lag;
        self.lazy_materialisations += other.lazy_materialisations;
        self.merges_skipped_cold += other.merges_skipped_cold;
    }
}

/// Engine-level counters of the multi-query sharing subsystem (the interning
/// index — see `ARCHITECTURE.md`'s "query registration & sharing" layer).
///
/// The headline figure is the **dedup ratio**: how many subscribed leaf
/// primitives are served per distinct interned primitive. With sharing
/// active, the engine runs one anchored local search per distinct primitive
/// per event instead of one per subscription, so `searches_saved` counts the
/// per-query searches that never had to run. Obtained from
/// [`crate::ContinuousQueryEngine::engine_metrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineMetrics {
    /// Live distinct primitives in the shared index: interned entries that
    /// are exactly one plain leaf search — a single search primitive with no
    /// lifted constant — and have at least one subscription.
    pub distinct_primitives: u64,
    /// Live subscriptions to them (one per (query, subscription node) pair).
    pub subscribed_primitives: u64,
    /// Anchored local searches actually run by the shared dispatch path.
    pub shared_searches_run: u64,
    /// Anchored searches the per-query path would have run in addition
    /// (one per extra active subscriber of every search run).
    pub searches_saved: u64,
    /// Embeddings produced by shared searches (pre-fan-out, canonical space).
    pub shared_embeddings: u64,
    /// Matches delivered to subscriber nodes (post-fan-out; one shared match
    /// counts once per receiving subscription).
    pub fanout_deliveries: u64,
    /// Live distinct shared subtrees: interned entries that do more than one
    /// plain leaf search — they run a join climb, dispatch on a lifted
    /// constant, or both. Zero when absent from serialized form
    /// (pre-subtree snapshots).
    #[serde(default)]
    pub distinct_subtrees: u64,
    /// Live subtree subscriptions (one per (query, subscription node) pair).
    #[serde(default)]
    pub subscribed_subtrees: u64,
    /// Live entries whose form abstracts at least one `eq` constant (a
    /// subset of `distinct_subtrees`, served by constant dispatch).
    #[serde(default)]
    pub lifted_entries: u64,
    /// Join-climb steps (join attempts) actually run inside shared subtree
    /// entries.
    #[serde(default)]
    pub subtree_joins_run: u64,
    /// Join-climb steps the per-query path would have run in addition (one
    /// per extra active subscriber of every entry's climb).
    #[serde(default)]
    pub subtree_joins_saved: u64,
    /// Joined matches delivered through constant dispatch of a *lifted*
    /// entry: the embedding was found by a constant-free search and routed to
    /// its tenants by hashing the bound constants instead of running one
    /// search per distinct constant.
    #[serde(default)]
    pub lifted_dispatch_hits: u64,
    /// Durable delivery attempts across every registered query (see
    /// [`QueryMetrics::delivery_attempts`]).
    #[serde(default)]
    pub delivery_attempts: u64,
    /// Retry/probe attempts across every registered query (see
    /// [`QueryMetrics::delivery_retries`]).
    #[serde(default)]
    pub delivery_retries: u64,
    /// Promotions back to `Active` across every registered query (see
    /// [`QueryMetrics::delivery_recoveries`]).
    #[serde(default)]
    pub delivery_recoveries: u64,
    /// Gauge: undelivered durable outbox entries across every registered
    /// query (see [`QueryMetrics::cursor_lag`]).
    #[serde(default)]
    pub cursor_lag: u64,
}

impl EngineMetrics {
    /// Subscribed-to-distinct primitive ratio: `1.0` means no structural
    /// overlap between registered queries, `N` means each distinct primitive
    /// serves `N` query leaves on average. (`1.0` when the index is empty.)
    pub fn dedup_ratio(&self) -> f64 {
        if self.distinct_primitives == 0 {
            1.0
        } else {
            self.subscribed_primitives as f64 / self.distinct_primitives as f64
        }
    }

    /// Subscribed-to-distinct *subtree* ratio: `N` means each interned join
    /// subtree serves `N` subscriptions on average (`1.0` when the subtree
    /// layer is empty or off).
    pub fn subtree_dedup_ratio(&self) -> f64 {
        if self.distinct_subtrees == 0 {
            1.0
        } else {
            self.subscribed_subtrees as f64 / self.distinct_subtrees as f64
        }
    }

    /// Fraction of all would-be anchored searches that the shared index
    /// eliminated (`0.0` when nothing has been searched yet).
    pub fn search_savings_rate(&self) -> f64 {
        let total = self.shared_searches_run + self.searches_saved;
        if total == 0 {
            0.0
        } else {
            self.searches_saved as f64 / total as f64
        }
    }
}

/// Counters for one shard of a sharded single-query matcher
/// (see `crate::ShardedMatcher`).
///
/// Shard counters are updated by the worker threads through relaxed atomics
/// and snapshotted by [`crate::ShardedMatcher::shard_metrics`] /
/// [`crate::ContinuousQueryEngine::shard_metrics`]; they are exact whenever
/// the matcher is quiescent (between `ingest` calls). Comparing
/// `items_routed` across shards shows how evenly the join-key hash spreads
/// the query's live state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardMetrics {
    /// Work items (primitive or merged matches) this shard received, from the
    /// driver or from other shards.
    pub items_routed: u64,
    /// Merged matches this shard produced whose next join key hashed to a
    /// *different* shard (cross-shard handoffs at internal SJ-Tree nodes).
    pub handoffs_out: u64,
    /// Partial matches filed into this shard's join stores.
    pub partial_matches_inserted: u64,
    /// Partial matches currently stored in this shard.
    pub partial_matches_live: u64,
    /// Partial matches removed by window expiry.
    pub partial_matches_expired: u64,
    /// Join attempts against sibling matches in this shard.
    pub joins_attempted: u64,
    /// Join attempts that produced a larger partial match.
    pub joins_succeeded: u64,
    /// Complete (root-level) matches this shard emitted into the fan-in
    /// channel.
    pub complete_matches: u64,
    /// Partial matches dropped because the per-shard node cap was reached.
    pub matches_dropped_by_cap: u64,
    /// Matches processed here whose inline storage had spilled to the heap.
    pub binding_spills: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero_denominators() {
        let m = QueryMetrics::default();
        assert_eq!(m.join_success_rate(), 1.0);
        assert_eq!(m.matches_per_edge(), 0.0);
    }

    #[test]
    fn ratios_compute() {
        let m = QueryMetrics {
            edges_processed: 100,
            joins_attempted: 10,
            joins_succeeded: 4,
            complete_matches: 2,
            ..Default::default()
        };
        assert!((m.join_success_rate() - 0.4).abs() < 1e-12);
        assert!((m.matches_per_edge() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn absorb_sums_counters() {
        let mut a = QueryMetrics {
            edges_processed: 1,
            complete_matches: 2,
            ..Default::default()
        };
        let b = QueryMetrics {
            edges_processed: 3,
            complete_matches: 4,
            partial_matches_expired: 7,
            binding_spills: 5,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.edges_processed, 4);
        assert_eq!(a.complete_matches, 6);
        assert_eq!(a.partial_matches_expired, 7);
        assert_eq!(a.binding_spills, 5);
    }
}
