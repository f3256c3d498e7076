//! Per-query runtime counters.
//!
//! The metrics mirror the quantities the paper's evaluation narrative cares
//! about: how many partial matches a plan materialises (the cost the
//! selectivity-driven decomposition is designed to minimise, §4.1), how many
//! join attempts succeed, and how many complete matches are emitted.

use serde::Serialize;

/// Which end of the path a regular path query's spanning trees are rooted
/// at: the end with fewer live edges that can start a tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct QueryMetrics {
    /// Data edges offered to the matcher.
    pub edges_processed: u64,
    /// Candidate data edges examined during local search.
    pub local_search_candidates: u64,
    /// Embeddings of leaf primitives produced by local search.
    pub primitive_matches: u64,
    /// Partial matches inserted across all SJ-Tree nodes (including leaves).
    pub partial_matches_inserted: u64,
    /// Partial matches currently *materialised* in the join stores. A lazy
    /// join side holds its matches only under the keys its sibling holds,
    /// so this counts what is built, not every within-window partial
    /// embedding.
    ///
    /// **Exact** on every read: it counts the matches a probe could still
    /// offer, those neither behind the store's horizon nor older than the
    /// window at the graph's current time, whether or not their store has
    /// reclaimed the hidden ones yet. It reads 0 after a full-window drain.
    pub partial_matches_live: u64,
    /// Partial matches removed by window expiry.
    pub partial_matches_expired: u64,
    /// Join attempts between sibling match collections.
    pub joins_attempted: u64,
    /// Join attempts that produced a larger partial match.
    pub joins_succeeded: u64,
    /// Complete matches emitted (root-level combinations within the window).
    pub complete_matches: u64,
    /// Partial matches whose inline hot-path storage spilled to the heap
    /// (queries with more than 8 vertices or 6 edges — see
    /// `streamworks_core::binding`). A non-zero count flags a query that is
    /// silently paying a per-match allocation the paper-sized fast path
    /// avoids.
    pub binding_spills: u64,
    /// Matches dropped by the outboxes of this query's durable
    /// subscriptions under their [`crate::SinkOverflow`] policy (`Block`
    /// drops only while the destination is down). In-process subscribers
    /// have no outbox and never contribute here.
    pub sink_events_dropped: u64,
    /// RPQ only: product-graph spanning-tree nodes currently live across the
    /// query's trees (0 for SJ-Tree queries). Exact after a prune: reads 0
    /// once a full window has drained.
    pub rpq_tree_nodes_live: u64,
    /// RPQ only: relaxation attempts — every candidate timestamp offered to
    /// a product node (the RPQ analogue of `joins_attempted`). The share that
    /// is not an expansion is wasted work.
    pub rpq_relaxations: u64,
    /// RPQ only: relaxation attempts that created a tree node or raised its
    /// timestamp (the RPQ analogue of `joins_succeeded`).
    pub rpq_expansions: u64,
    /// RPQ only: accepting-state arrivals, i.e. path matches emitted. Equal
    /// to `complete_matches` for an RPQ; zero for a subgraph query.
    pub rpq_accepts: u64,
    /// RPQ only: times the matcher turned its spanning trees around to the
    /// other end of the path (at most one per query window; see the `rpq`
    /// module docs, "Which end roots the trees").
    pub rpq_end_switches: u64,
    /// RPQ only: the end of the path the spanning trees are rooted at now
    /// ([`RpqEnd::Source`] for SJ-Tree queries). A gauge.
    pub rpq_end: RpqEnd,
    /// Durable delivery attempts performed for this query's durable
    /// subscriptions (every try counts: first attempts, retries and
    /// probation probes). Zero when no durable subscribers are registered.
    pub delivery_attempts: u64,
    /// Delivery attempts that were retries or probation probes — performed
    /// while the subscription was `Degraded` or `Quarantined`.
    pub delivery_retries: u64,
    /// Promotions of a durable subscription back to `Active` after a
    /// degraded or quarantined spell.
    pub delivery_recoveries: u64,
    /// Gauge: matches routed to this query's durable subscriptions but not
    /// yet acknowledged (the summed outbox depth). Zero when every durable
    /// subscriber is caught up.
    pub cursor_lag: u64,
    /// Cold → hot transitions of a lazy join side: an arrival under a key
    /// its sibling side held nothing under, which rebuilt the lazy side's
    /// matches under that key (see `SjTreeMatcher`'s module docs).
    pub lazy_materialisations: u64,
    /// Join work at a lazy node skipped because its parent's key was cold:
    /// one per match filed there without a probe (it binds the parent's cut
    /// itself), one per sibling candidate passed over without a merge.
    pub merges_skipped_cold: u64,
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct EngineMetrics {
    /// Live distinct primitives in the shared index: interned entries that
    /// are exactly one plain leaf search — a single search primitive with no
    /// lifted constant — and have at least one subscription.
    pub distinct_primitives: u64,
    /// Live subscriptions to them (one per (query, subscription node) pair).
    pub subscribed_primitives: u64,
    /// Anchored local searches actually run by the shared dispatch path.
    pub shared_searches_run: u64,
    /// Anchored searches one search per subscriber would have run in
    /// addition (one per extra active subscriber of every search run).
    pub searches_saved: u64,
    /// Embeddings produced by shared searches (pre-fan-out, canonical space).
    pub shared_embeddings: u64,
    /// Matches delivered to subscriber nodes (post-fan-out; one shared match
    /// counts once per receiving subscription).
    pub fanout_deliveries: u64,
    /// Live distinct shared subtrees: interned entries that do more than one
    /// plain leaf search — they run a join climb, dispatch on a lifted
    /// constant, or both.
    pub distinct_subtrees: u64,
    /// Live subtree subscriptions (one per (query, subscription node) pair).
    pub subscribed_subtrees: u64,
    /// Live entries whose form abstracts at least one `eq` constant (a
    /// subset of `distinct_subtrees`, served by constant dispatch).
    pub lifted_entries: u64,
    /// Join-climb steps (join attempts) actually run inside shared subtree
    /// entries.
    pub subtree_joins_run: u64,
    /// Join-climb steps one climb per subscriber would have run in addition
    /// (one per extra active subscriber of every entry's climb).
    pub subtree_joins_saved: u64,
    /// Joined matches delivered through constant dispatch of a *lifted*
    /// entry: the embedding was found by a constant-free search and routed to
    /// its tenants by hashing the bound constants instead of running one
    /// search per distinct constant.
    pub lifted_dispatch_hits: u64,
    /// Durable delivery attempts across every registered query (see
    /// [`QueryMetrics::delivery_attempts`]).
    pub delivery_attempts: u64,
    /// Retry/probe attempts across every registered query (see
    /// [`QueryMetrics::delivery_retries`]).
    pub delivery_retries: u64,
    /// Promotions back to `Active` across every registered query (see
    /// [`QueryMetrics::delivery_recoveries`]).
    pub delivery_recoveries: u64,
    /// Gauge: undelivered durable outbox entries across every registered
    /// query (see [`QueryMetrics::cursor_lag`]).
    pub cursor_lag: u64,
    /// Gauge: live vertices of the data graph (`GraphStats::live_vertices`).
    pub live_vertices: u64,
    /// Gauge: vertex slots of the data graph, live and parked for reuse
    /// (`GraphStats::vertex_slots`) — the length of every vertex-indexed
    /// table, the RPQ product index included.
    pub vertex_slots: u64,
    /// Gauge: entries of the table of shared vertex keys that emitted
    /// matches carry, indexed by vertex slot — never more than
    /// `vertex_slots`.
    pub key_cache_entries: u64,
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
