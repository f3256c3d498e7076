//! The continuous-query engine: the "StreamWorks" system object.
//!
//! [`ContinuousQueryEngine`] ties the substrates together the way Fig. 1 of
//! the paper sketches: the dynamic graph store and its summaries are updated
//! by every incoming edge event, registered queries are planned against the
//! summaries, and each event is pushed through every query's incremental
//! SJ-Tree matcher, emitting [`MatchEvent`]s for completed patterns.
//!
//! The engine is a *service object*: it is built through the validating
//! [`crate::EngineBuilder`], queries are registered and come back as
//! generation-tagged [`QueryHandle`]s with a full lifecycle
//! ([`ContinuousQueryEngine::pause`] / [`ContinuousQueryEngine::resume`] /
//! [`ContinuousQueryEngine::deregister`]), each query can carry its own
//! subscriptions ([`ContinuousQueryEngine::subscribe`]), and every way of
//! feeding events — single, slice, iterator — goes through the unified
//! [`ContinuousQueryEngine::ingest`] surface.

use std::sync::Arc;

use crate::binding::PartialMatch;
use crate::config::{EngineBuilder, EngineConfig};
use crate::delivery::{
    ConnectError, DeliveryCursor, DeliveryStatus, DurableSub, RetryPolicy, SinkSpec,
};
use crate::error::EngineError;
use crate::event::{CollectingSink, EventSink, MatchEvent, QueryId, SinkOverflow};
use crate::handle::{QueryHandle, SubscriptionId};
use crate::ingest::Ingest;
use crate::metrics::{EngineMetrics, QueryMetrics, ShardMetrics};
use crate::parallel::{panic_message, ShardFailure, ShardedMatcher};
use crate::rpq::{RpqMatcher, RpqPathMatch};
use crate::shared_index::{Delivery, SharedIndex};
use crate::sj_matcher::SjTreeMatcher;
use crate::telemetry::{
    shard_skew, DeliverySnapshot, QuerySnapshot, ShardSetSnapshot, Stage, StageSnapshot,
    TelemetryCheckpoint, TelemetryHub, TelemetryLevel, TelemetrySnapshot,
};
use streamworks_graph::{
    Duration, DynamicGraph, EdgeEvent, EdgeId, GraphConfig, GraphStats, Timestamp, TypeId,
};
use streamworks_query::{
    DecompositionStrategy, Planner, QueryGraph, QueryPlan, RpqQuery, SelectivityOrdered, SjNodeId,
    TreeShapeKind,
};
use streamworks_summarize::GraphSummary;

/// Per-edge bookkeeping the engine needs after an edge has expired (the graph
/// drops expired edge records, so their type information is cached here).
#[derive(Debug, Clone, Copy)]
struct EdgeTypeInfo {
    etype: TypeId,
    src_vtype: TypeId,
    dst_vtype: TypeId,
}

/// Id-indexed storage for [`EdgeTypeInfo`], mirroring the graph's dense edge
/// slab: edge ids are sequential and expire nearly in order, so a deque with
/// a base offset replaces a hash map on the per-edge path. Stragglers that
/// would pin the band (timestamp-skewed producers) spill to a small overflow
/// map so memory stays proportional to the live edge count.
#[derive(Debug, Default)]
struct EdgeTypeSlab {
    base: u64,
    slots: std::collections::VecDeque<Option<EdgeTypeInfo>>,
    overflow: streamworks_graph::hash::FxHashMap<EdgeId, EdgeTypeInfo>,
    live: usize,
}

impl EdgeTypeSlab {
    fn insert(&mut self, id: EdgeId, info: EdgeTypeInfo) {
        if self.slots.is_empty() && self.overflow.is_empty() {
            self.base = id.0;
        }
        let Some(idx) = id.0.checked_sub(self.base) else {
            return; // before the live band: an edge that expired on ingest
        };
        let idx = idx as usize;
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, None);
        }
        if self.slots[idx].replace(info).is_none() {
            self.live += 1;
        }
        if self.slots.len() > 4 * self.live + 1024 {
            self.evict_stragglers();
        }
    }

    fn remove(&mut self, id: EdgeId) -> Option<EdgeTypeInfo> {
        let Some(idx) = id.0.checked_sub(self.base) else {
            let removed = self.overflow.remove(&id);
            if removed.is_some() {
                self.live -= 1;
            }
            return removed;
        };
        let info = self.slots.get_mut(idx as usize)?.take();
        if info.is_some() {
            self.live -= 1;
            while matches!(self.slots.front(), Some(None)) {
                self.slots.pop_front();
                self.base += 1;
            }
        }
        info
    }

    /// Spills live entries pinning the front of an oversized band into the
    /// overflow map (see `EdgeSlab::evict_stragglers` in `streamworks-graph`).
    fn evict_stragglers(&mut self) {
        while self.slots.len() > 4 * self.live + 1024 {
            match self.slots.pop_front() {
                Some(Some(info)) => {
                    self.overflow.insert(EdgeId(self.base), info);
                    self.base += 1;
                }
                Some(None) => self.base += 1,
                None => break,
            }
            while matches!(self.slots.front(), Some(None)) {
                self.slots.pop_front();
                self.base += 1;
            }
        }
    }
}

/// How a query's SJ-Tree is executed: in-process on the ingest thread, or
/// sharded by join-key hash across worker threads (see
/// [`crate::EngineBuilder::shards`]).
// One value per registered query (never mass-allocated), and the common
// `Single` variant sits on the per-event dispatch path — keeping it inline
// avoids a pointer chase there, so the size asymmetry is deliberate.
#[allow(clippy::large_enum_variant)]
enum QueryExec {
    Single(SjTreeMatcher),
    // Boxed: the sharded matcher carries channel endpoints and worker
    // handles; it is only touched via routing/flush calls.
    Sharded(Box<ShardedMatcher>),
    /// A windowed regular path query, evaluated on the product graph (see
    /// `crate::rpq`). The engine's second query class: it shares the whole
    /// lifecycle — slots, handles, pause/resume, subscriptions, checkpoints —
    /// but has no SJ-Tree plan, never runs sharded, and never subscribes to
    /// the sharing index.
    Rpq(Box<RpqMatcher>),
}

impl QueryExec {
    /// The SJ-Tree plan; `None` for an RPQ, which has no decomposition.
    fn plan(&self) -> Option<&QueryPlan> {
        match self {
            QueryExec::Single(m) => Some(m.plan()),
            QueryExec::Sharded(s) => Some(s.plan()),
            QueryExec::Rpq(_) => None,
        }
    }

    fn metrics(&self) -> QueryMetrics {
        match self {
            QueryExec::Single(m) => m.metrics(),
            QueryExec::Sharded(s) => s.metrics(),
            QueryExec::Rpq(m) => m.metrics(),
        }
    }

    fn prune(&mut self, now: Timestamp) {
        match self {
            QueryExec::Single(m) => m.prune(now),
            QueryExec::Sharded(s) => s.prune(now),
            QueryExec::Rpq(m) => m.prune(now),
        }
    }

    /// The matcher carrying the compiled plan and local-search state — for a
    /// sharded query this is the driver-side front end, whose per-node match
    /// stores are empty (join state lives in the shards). `None` for an RPQ.
    fn matcher(&self) -> Option<&SjTreeMatcher> {
        match self {
            QueryExec::Single(m) => Some(m),
            QueryExec::Sharded(s) => Some(s.front()),
            QueryExec::Rpq(_) => None,
        }
    }

    /// Files a match a shared entry produced (already remapped into this
    /// query's space) at `node` of the query's SJ-Tree. In-process, matches
    /// it completes are appended to `out`; sharded, it is routed under
    /// stream position `seq` and completions surface at the next quiescent
    /// point (see `flush_sharded`).
    fn absorb(&mut self, node: SjNodeId, m: PartialMatch, seq: u64, out: &mut Vec<PartialMatch>) {
        match self {
            QueryExec::Single(matcher) => matcher.absorb(node, m, out),
            QueryExec::Sharded(sharded) => sharded.absorb(node, m, seq),
            // RPQs never subscribe to the sharing index (they have no SJ-Tree
            // to intern), so the fan-out cannot list one.
            QueryExec::Rpq(_) => unreachable!("RPQ in shared fan-out"),
        }
    }

    /// The registered query's name, whichever class it is.
    fn query_name(&self) -> &str {
        match self {
            QueryExec::Single(m) => m.plan().query.name(),
            QueryExec::Sharded(s) => s.plan().query.name(),
            QueryExec::Rpq(m) => m.query().name(),
        }
    }
}

/// The live state of one registered query.
struct QueryState {
    exec: QueryExec,
    paused: bool,
    /// Stream time when the query was paused (`None` while running). Carried
    /// into checkpoints so restore can replay exactly the pre-pause prefix.
    paused_at: Option<Timestamp>,
    /// Arrival-order boundaries of the intervals this query has observed:
    /// registration and every resume push an opening bound (the graph's
    /// ingested-edge count), every pause pushes a closing bound — so an odd
    /// length means the query is currently observing. An edge was shown to
    /// the query iff its id falls in one of the `[open, close)` intervals.
    /// Checkpoint restore replays exactly these intervals to the query;
    /// timestamps alone could not cut a replay exactly (ties and bounded
    /// skew straddle the boundaries), and a single pause bound could not
    /// represent mid-stream registration or pause/resume cycles.
    observed: Vec<u64>,
    /// True when the query's SJ-Tree is subscribed to the sharing index:
    /// with sharing active, its searches (and the joins below its
    /// subscription nodes) run inside shared entries and its matcher only
    /// receives remapped matches. False (pathologically symmetric primitive,
    /// or sharing disabled) keeps the query on the private loop.
    shared: bool,
    /// Index-dispatched events accounted over closed active intervals (the
    /// per-query `edges_processed` contribution of the shared path).
    shared_edges_accum: u64,
    /// `SharedIndex::events` at the start of the current active interval.
    shared_edges_base: u64,
    /// Per-query subscriptions, in subscription order.
    subscribers: Vec<Subscription>,
    /// Durable subscriptions ([`ContinuousQueryEngine::subscribe_durable`]):
    /// serialisable sink specs with per-subscription delivery cursors and
    /// bounded outboxes, drained at the end of each `ingest` call and
    /// persisted in checkpoints.
    durables: Vec<DurableSub>,
}

/// One per-query subscription. Delivery to its sink is supervised: a sink
/// that panics (or reports an injected delivery error) is *quarantined* —
/// detached and its failure recorded — so one bad subscriber can never
/// poison the engine or starve the query's other subscribers.
struct Subscription {
    token: u64,
    /// `None` once quarantined.
    sink: Option<Box<dyn EventSink>>,
    /// The failure that quarantined the sink, queryable through
    /// [`ContinuousQueryEngine::subscription_health`].
    error: Option<String>,
    /// Drop counter frozen from the sink at quarantine time (live sinks are
    /// read directly via [`EventSink::events_dropped`]).
    dropped: u64,
}

/// Health of one subscription (see
/// [`ContinuousQueryEngine::subscription_health`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubscriptionHealth {
    /// The sink is attached and receiving matches.
    Active,
    /// Durable subscriptions only: recent deliveries failed and are being
    /// retried under the engine's [`crate::RetryPolicy`] (exponential
    /// backoff); matches keep accumulating in the subscription's outbox.
    /// In-process sinks never pass through this state — they quarantine on
    /// the first failure.
    Degraded {
        /// Consecutive failed delivery attempts so far.
        failures: u32,
    },
    /// The sink panicked (or failed) during a delivery and was detached;
    /// the payload is the recorded failure message. For a durable
    /// subscription this means the retry budget is exhausted — probation
    /// (an automatic probe after the backoff cap, or
    /// [`ContinuousQueryEngine::resubscribe`]) can still promote it back.
    /// The subscription stays registered — and this health stays
    /// queryable — until unsubscribed.
    Quarantined(String),
}

/// One query slot. Deregistration bumps the generation and puts the slot on
/// the free list; a later registration re-occupies it under the new
/// generation, so slot memory stays bounded under register/deregister churn
/// while every handle ever issued to a previous occupant stays stale —
/// the discipline `SharedJoinStore` applies to its match slots.
struct QuerySlot {
    generation: u32,
    state: Option<QueryState>,
}

impl QuerySlot {
    fn live(&self) -> Option<&QueryState> {
        self.state.as_ref()
    }
}

/// Drops leading *closed* observation intervals lying wholly behind the
/// live-edge horizon: none of their edges can appear in a checkpoint's
/// retained set any more, so they can never affect a replay. Keeps the
/// boundary list bounded under indefinite pause/resume churn.
fn trim_observed(observed: &mut Vec<u64>, live_horizon: u64) {
    let mut drop = 0;
    while drop + 1 < observed.len() && observed[drop + 1] <= live_horizon {
        drop += 2;
    }
    if drop > 0 {
        observed.drain(..drop);
    }
}

/// Delivers one complete match to the query's subscriptions and the
/// call-level sink — the single emission point every dispatch path (the
/// private per-query loop, the shared-index fan-out, and the sharded
/// fan-in flush) goes through, so emission semantics cannot diverge
/// between paths.
///
/// Subscriber deliveries are supervised (`catch_unwind` plus the
/// `sink-delivery` failpoint): a failing sink is quarantined in place and
/// the remaining subscribers — and the call-level sink — still receive the
/// event. The call-level sink is *not* supervised: it lives on the caller's
/// own stack, so a panic there is the caller's to handle.
#[allow(clippy::too_many_arguments)] // internal plumbing shared by every emission path
fn deliver_match(
    handle: QueryHandle,
    query: &QueryGraph,
    graph: &DynamicGraph,
    m: &PartialMatch,
    subscribers: &mut [Subscription],
    durables: &mut [DurableSub],
    policy: &RetryPolicy,
    sink: &mut dyn EventSink,
) {
    deliver_event(
        MatchEvent::from_match(handle, query, graph, m),
        subscribers,
        durables,
        policy,
        sink,
    );
}

/// The kind-agnostic half of [`deliver_match`]: supervised delivery of an
/// already-built event to the query's subscriptions and the call-level sink.
/// RPQ path matches enter here directly (they have no `PartialMatch`), so
/// both query classes share one emission point.
///
/// Durable subscriptions only *route* here: the rendered match joins each
/// outbox and is delivered (with retry/backoff) when the outboxes drain at
/// the end of the `ingest` call. With no durable subscribers registered the
/// durable branch is a single emptiness check.
fn deliver_event(
    event: MatchEvent,
    subscribers: &mut [Subscription],
    durables: &mut [DurableSub],
    policy: &RetryPolicy,
    sink: &mut dyn EventSink,
) {
    for sub in subscribers.iter_mut() {
        let Some(subscriber) = sub.sink.as_mut() else {
            continue; // already quarantined
        };
        let failure = if crate::failpoint::fire_at("sink-delivery", sub.token as usize) {
            Some("injected sink-delivery error".to_owned())
        } else {
            let ev = event.clone();
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| subscriber.on_match(ev)))
                .err()
                .map(|payload| panic_message(payload.as_ref()))
        };
        if let Some(message) = failure {
            sub.dropped = sub
                .sink
                .as_ref()
                .map_or(sub.dropped, |s| s.events_dropped_for(event.query));
            sub.sink = None;
            sub.error = Some(message);
        }
    }
    if !durables.is_empty() {
        let line = event.render();
        for durable in durables.iter_mut() {
            durable.enqueue(line.clone(), policy);
        }
    }
    sink.on_match(event);
}

/// The StreamWorks continuous-query engine.
pub struct ContinuousQueryEngine {
    config: EngineConfig,
    graph: DynamicGraph,
    summary: GraphSummary,
    /// Query slots, indexed by `QueryId`.
    queries: Vec<QuerySlot>,
    /// Indices of vacant slots, re-occupied (under a fresh generation) before
    /// the slot vector grows.
    free_slots: Vec<u32>,
    /// Slot indices of live, unpaused queries in query-id order — the
    /// dispatch table the per-event loop walks. Rebuilt on every lifecycle
    /// change (register / deregister / pause / resume), so paused or
    /// deregistered queries cost nothing per event.
    dispatch: Vec<u32>,
    /// The multi-query sharing layer: every subscribed query's SJ-Tree nodes
    /// — leaves and maximal common subtrees alike — interned by lifted
    /// canonical form, so each distinct form's searches and join climb run
    /// once per event and fan out to every subscriber, constant-dispatched
    /// and observation-gated per subscriber.
    shared: SharedIndex,
    /// True while events are dispatched through the index: sharing is
    /// enabled and [`SharedIndex::needs_dispatch`]. Recomputed on every
    /// lifecycle change; with no overlap the engine stays on the private
    /// per-query loop (identical results, zero sharing overhead).
    sharing_active: bool,
    /// Live, unpaused queries *not* subscribed to the index — dispatched
    /// privately even while `sharing_active`.
    private_dispatch: Vec<u32>,
    /// Reusable buffer of the current event's fan-out work.
    delivery_scratch: Vec<Delivery>,
    /// Monotonic token generator for subscription ids.
    next_subscription: u64,
    /// Durable subscriptions across all live queries, so the end-of-ingest
    /// delivery pass costs nothing while there are none. Kept at
    /// `subscribe_durable`, `unsubscribe`, `deregister` and checkpoint
    /// restore (`attach_durable`).
    live_durables: usize,
    /// Type info of live edges, used to update the summary on expiry.
    live_edge_types: EdgeTypeSlab,
    edges_since_prune: u64,
    /// Edge events absorbed over the engine's lifetime — the stream position
    /// stamped onto sharded queries' completed matches so the fan-in flush
    /// can interleave matches of different queries in arrival order.
    events_ingested: u64,
    events_emitted: u64,
    /// Reusable buffer for complete matches produced per event.
    match_scratch: Vec<PartialMatch>,
    /// Reusable buffer for RPQ path matches produced per event.
    rpq_scratch: Vec<RpqPathMatch>,
    /// Reusable buffer carrying an in-process matcher's leaf embeddings from
    /// its search half to its climb half.
    primitive_scratch: Vec<(SjNodeId, PartialMatch)>,
    /// `Some` while [`crate::TelemetryLevel::Sampled`]: the shared stage
    /// histograms plus the driver thread's span ring. `None` means every
    /// instrumentation site reduces to one branch.
    telemetry: Option<TelemetryHub>,
    /// `Some(reason)` once a shard failure could not be contained (the
    /// [`crate::ShardFailurePolicy::FailFast`] policy, or a `Degrade` with
    /// no surviving shard): join state is gone, so serving further calls
    /// would silently under-report matches. Every fallible engine method
    /// returns [`EngineError::Poisoned`] from then on.
    poisoned: Option<String>,
}

impl ContinuousQueryEngine {
    /// Starts a validating [`EngineBuilder`] — the service-facing way to
    /// construct an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// Creates an engine directly from a configuration snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`EngineConfig::validate`]; use
    /// [`Self::builder`] (or [`EngineBuilder::from_config`]) for the
    /// non-panicking path.
    pub fn new(config: EngineConfig) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid engine configuration: {msg}");
        }
        let graph = DynamicGraph::new(GraphConfig {
            retention: config.retention,
            ..Default::default()
        });
        ContinuousQueryEngine {
            summary: GraphSummary::with_config(config.summary),
            graph,
            queries: Vec::new(),
            free_slots: Vec::new(),
            dispatch: Vec::new(),
            shared: SharedIndex::new(config.max_matches_per_node),
            sharing_active: false,
            private_dispatch: Vec::new(),
            delivery_scratch: Vec::new(),
            next_subscription: 0,
            live_durables: 0,
            live_edge_types: EdgeTypeSlab::default(),
            edges_since_prune: 0,
            events_ingested: 0,
            events_emitted: 0,
            match_scratch: Vec::new(),
            rpq_scratch: Vec::new(),
            primitive_scratch: Vec::new(),
            telemetry: match config.telemetry_level {
                TelemetryLevel::Off => None,
                TelemetryLevel::Sampled => Some(TelemetryHub::new(config.telemetry_sample_every)),
            },
            poisoned: None,
            config,
        }
    }

    /// Builds the execution backend the configuration asks for: an
    /// in-process matcher, or — when [`EngineConfig::shards`] is above 1 — a
    /// join-key-sharded matcher spread over worker threads. `fed` are the
    /// nodes the sharing index feeds (see [`SharedIndex::subscribe`]).
    fn build_exec(&self, plan: QueryPlan, fed: &[SjNodeId]) -> QueryExec {
        if self.config.shards > 1 {
            QueryExec::Sharded(Box::new(ShardedMatcher::with_telemetry(
                plan,
                &self.graph,
                self.config.shards,
                self.config.max_matches_per_node,
                self.config.channel_capacity,
                self.config.shard_failure_policy,
                self.telemetry
                    .as_ref()
                    .map(|h| (Arc::clone(&h.core), Arc::clone(&h.driver_ring))),
            )))
        } else {
            QueryExec::Single(
                SjTreeMatcher::fed_at(plan, &self.graph, fed)
                    .with_match_cap(self.config.max_matches_per_node),
            )
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Read access to the data graph.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// Read access to the maintained graph summary.
    pub fn summary(&self) -> &GraphSummary {
        &self.summary
    }

    /// Basic counters of the underlying graph.
    pub fn graph_stats(&self) -> GraphStats {
        self.graph.stats()
    }

    /// Total number of match events emitted so far (fan-out to per-query
    /// subscribers does not multiply the count).
    pub fn events_emitted(&self) -> u64 {
        self.events_emitted
    }

    /// Overrides the emitted-event counter (used by checkpoint restore so the
    /// counter continues from its pre-restart value instead of double-counting
    /// the suppressed replay).
    pub(crate) fn set_events_emitted(&mut self, value: u64) {
        self.events_emitted = value;
    }

    /// Snapshots the durable subscriptions of one query for a checkpoint,
    /// tagged with the query's position in the checkpoint's slot order.
    pub(crate) fn capture_durables(
        &self,
        handle: QueryHandle,
        query: usize,
    ) -> Vec<DeliveryCursor> {
        self.state(handle).map_or_else(
            |_| Vec::new(),
            |state| state.durables.iter().map(|d| d.to_cursor(query)).collect(),
        )
    }

    /// Re-attaches one captured durable subscription during checkpoint
    /// restore. The destination is reconnected and truncated to exactly
    /// `cursor` acknowledged matches, discarding any unacknowledged writes
    /// a crashed run raced in after the snapshot. In strict mode a
    /// destination shorter than the cursor (evidence of external
    /// tampering or loss) surfaces as [`EngineError::CorruptCheckpoint`];
    /// otherwise connection problems are left for the first delivery
    /// attempt to retry.
    pub(crate) fn attach_durable(
        &mut self,
        handle: QueryHandle,
        cursor: &DeliveryCursor,
        strict: bool,
    ) -> Result<(), EngineError> {
        self.next_subscription = self.next_subscription.max(cursor.token + 1);
        let mut sub = DurableSub::from_cursor(cursor);
        match cursor.spec.connect(cursor.cursor) {
            Ok(target) => sub.target = Some(target),
            Err(ConnectError::Corrupt { offset, detail }) if strict => {
                return Err(EngineError::CorruptCheckpoint {
                    offset: Some(offset),
                    detail,
                });
            }
            Err(_) => {}
        }
        self.state_mut(handle)?.durables.push(sub);
        self.live_durables += 1;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Query registration and lifecycle
    // ------------------------------------------------------------------

    /// Registers a pre-built plan, returning the query's handle. A slot freed
    /// by an earlier [`Self::deregister`] is re-occupied (under a fresh
    /// generation, so the old occupant's handles stay stale) before the slot
    /// table grows.
    ///
    /// With [`EngineConfig::shared_matching`] enabled (the default), the
    /// plan's SJ-Tree is interned into the engine's sharing index at this
    /// point: the tree is walked top-down for maximal subtrees matching an
    /// already-interned (or advertised) form — those nodes' whole join
    /// climbs are shared — down to the leaves, so a leaf isomorphic to a
    /// primitive some registered query already watches shares one anchored
    /// local search per event instead of running its own.
    pub fn register_plan(&mut self, plan: QueryPlan) -> QueryHandle {
        self.extend_retention(plan.query.window());
        let index = self.alloc_slot();
        let fed = self
            .config
            .shared_matching
            .then(|| self.shared.subscribe(index as u32, &plan, &self.graph))
            .flatten();
        let state = QueryState {
            exec: self.build_exec(plan, fed.as_deref().unwrap_or_default()),
            paused: false,
            paused_at: None,
            observed: vec![self.graph.ingested_edge_count()],
            shared: fed.is_some(),
            shared_edges_accum: 0,
            shared_edges_base: self.shared.events(),
            subscribers: Vec::new(),
            durables: Vec::new(),
        };
        self.queries[index].state = Some(state);
        self.rebuild_dispatch();
        QueryHandle::new(QueryId(index), self.queries[index].generation)
    }

    /// Plans a query with the default (selectivity-ordered) strategy using the
    /// engine's current summaries, then registers it.
    pub fn register_query(&mut self, query: QueryGraph) -> Result<QueryHandle, EngineError> {
        self.register_query_with(
            query,
            &SelectivityOrdered::default(),
            TreeShapeKind::LeftDeep,
        )
    }

    /// Plans a query with an explicit decomposition strategy and tree shape,
    /// then registers it.
    pub fn register_query_with(
        &mut self,
        query: QueryGraph,
        strategy: &dyn DecompositionStrategy,
        tree_kind: TreeShapeKind,
    ) -> Result<QueryHandle, EngineError> {
        let plan = Planner::new()
            .with_statistics(&self.summary, &self.graph)
            .tree_kind(tree_kind)
            .plan_with(query, strategy)?;
        Ok(self.register_plan(plan))
    }

    /// Parses a DSL query (see `streamworks_query::parse_query`) and registers it.
    pub fn register_dsl(&mut self, text: &str) -> Result<QueryHandle, EngineError> {
        let query = streamworks_query::parse_query(text)?;
        self.register_query(query)
    }

    /// Registers a windowed regular path query — the engine's second query
    /// class. The query's pattern is compiled to its minimized DFA and
    /// evaluated incrementally on the product graph (see `crate::rpq`);
    /// every path match is emitted as a [`MatchEvent`] binding `src` and
    /// `dst` and carrying the witness edges.
    ///
    /// The returned handle shares the full lifecycle of subgraph queries:
    /// pause/resume, deregistration, subscriptions, checkpoint/restore. An
    /// RPQ always runs single-threaded on the ingest thread ([`Self::plan`],
    /// [`Self::matcher`] and [`Self::shard_metrics`] do not apply — the
    /// first two return [`EngineError::WrongQueryKind`]), and
    /// [`Self::replan`] is a documented no-op: an RPQ's DFA is canonical, so
    /// there is no decomposition to revisit.
    pub fn register_rpq(&mut self, rpq: RpqQuery) -> QueryHandle {
        self.extend_retention(rpq.window());
        let index = self.alloc_slot();
        let state = QueryState {
            exec: QueryExec::Rpq(Box::new(RpqMatcher::new(rpq, &self.graph))),
            paused: false,
            paused_at: None,
            observed: vec![self.graph.ingested_edge_count()],
            shared: false,
            shared_edges_accum: 0,
            shared_edges_base: self.shared.events(),
            subscribers: Vec::new(),
            durables: Vec::new(),
        };
        self.queries[index].state = Some(state);
        self.rebuild_dispatch();
        QueryHandle::new(QueryId(index), self.queries[index].generation)
    }

    /// Parses an RPQ (see `streamworks_query::parse_rpq`, e.g.
    /// `RPQ lateral WINDOW 30m PATH login (flow | dns)* exploit`) and
    /// registers it.
    pub fn register_rpq_dsl(&mut self, text: &str) -> Result<QueryHandle, EngineError> {
        let rpq = streamworks_query::parse_rpq(text)?;
        Ok(self.register_rpq(rpq))
    }

    /// The pattern of a registered regular path query.
    /// [`EngineError::WrongQueryKind`] for a subgraph query.
    pub fn rpq_query(&self, handle: QueryHandle) -> Result<&RpqQuery, EngineError> {
        match &self.state(handle)?.exec {
            QueryExec::Rpq(m) => Ok(m.query()),
            _ => Err(EngineError::WrongQueryKind {
                handle,
                expected: "regular path",
            }),
        }
    }

    /// Whether the registered query is a regular path query.
    pub fn is_rpq(&self, handle: QueryHandle) -> Result<bool, EngineError> {
        Ok(matches!(self.state(handle)?.exec, QueryExec::Rpq(_)))
    }

    /// Pops a free slot or grows the slot table, returning the index.
    fn alloc_slot(&mut self) -> usize {
        match self.free_slots.pop() {
            Some(i) => i as usize,
            None => {
                self.queries.push(QuerySlot {
                    generation: 0,
                    state: None,
                });
                self.queries.len() - 1
            }
        }
    }

    /// Removes a query from the engine. Its matcher — and with it every
    /// `SharedJoinStore` of partial matches the query had accumulated — is dropped
    /// immediately, along with the query's subscriptions. The handle (and any
    /// copy of it) is permanently stale afterwards, even once a later
    /// registration re-occupies the slot under a new generation.
    ///
    /// Retention derived from the query's window is *not* shrunk back: edges
    /// already admitted under the old horizon stay until they expire.
    pub fn deregister(&mut self, handle: QueryHandle) -> Result<(), EngineError> {
        let slot = self.slot_mut(handle)?;
        let dropped = slot.state.take().map_or(0, |state| state.durables.len());
        slot.generation = slot.generation.wrapping_add(1);
        self.live_durables -= dropped;
        self.free_slots.push(handle.id().0 as u32);
        // Release the query's shared-index subscriptions; entries it was the
        // last subscriber of are freed, and its adverts are purged.
        self.shared.unsubscribe(handle.id().0 as u32);
        self.rebuild_dispatch();
        Ok(())
    }

    /// Stops routing events to a query. Its accumulated partial matches stay
    /// (and keep expiring on the prune cadence); the per-event cost of a
    /// paused query is zero because the dispatch table is rebuilt without it.
    /// Pausing an already-paused query is a no-op.
    pub fn pause(&mut self, handle: QueryHandle) -> Result<(), EngineError> {
        let now = self.graph.now();
        let bound = self.graph.ingested_edge_count();
        let live_horizon = self.observed_live_horizon();
        let shared_events = self.shared.events();
        let state = self.state_mut(handle)?;
        if !state.paused {
            state.paused = true;
            state.paused_at = Some(now);
            state.observed.push(bound);
            trim_observed(&mut state.observed, live_horizon);
            state.shared_edges_accum += shared_events - state.shared_edges_base;
            if state.shared {
                self.shared.set_active(handle.id().0 as u32, false);
            }
            self.rebuild_dispatch();
        }
        Ok(())
    }

    /// Resumes event routing for a paused query. Edges that streamed past
    /// while it was paused are not replayed — matches needing them are
    /// missed, exactly as for a query registered late. Resuming an unpaused
    /// query is a no-op.
    pub fn resume(&mut self, handle: QueryHandle) -> Result<(), EngineError> {
        let bound = self.graph.ingested_edge_count();
        let live_horizon = self.observed_live_horizon();
        let shared_events = self.shared.events();
        let state = self.state_mut(handle)?;
        if state.paused {
            state.paused = false;
            state.paused_at = None;
            state.observed.push(bound);
            trim_observed(&mut state.observed, live_horizon);
            state.shared_edges_base = shared_events;
            if state.shared {
                self.shared.set_active(handle.id().0 as u32, true);
            }
            self.rebuild_dispatch();
        }
        Ok(())
    }

    /// Whether the query is currently paused.
    pub fn is_paused(&self, handle: QueryHandle) -> Result<bool, EngineError> {
        Ok(self.state(handle)?.paused)
    }

    /// Stream time at which the query was paused, `None` while it is
    /// running. Captured into [`crate::EngineCheckpoint`] so a restore can
    /// replay exactly the pre-pause prefix of the retained edges to a paused
    /// query.
    pub fn pause_time(&self, handle: QueryHandle) -> Result<Option<Timestamp>, EngineError> {
        Ok(self.state(handle)?.paused_at)
    }

    /// Arrival-order observation boundaries of a query: registration and
    /// every resume open an interval (the graph's ingested-edge count at
    /// that moment), every pause closes one, so an odd length means the
    /// query is currently observing. An edge was shown to the query iff its
    /// id falls in one of the `[open, close)` intervals. These are the
    /// exact cuts [`crate::EngineCheckpoint::capture`] records so restore
    /// can replay to each query precisely what it observed — timestamps
    /// alone cannot (ties and skew straddle the boundaries), and neither
    /// can a single prefix (mid-stream registration, pause/resume cycles).
    pub(crate) fn observed_bounds(&self, handle: QueryHandle) -> &[u64] {
        self.state(handle)
            .map(|s| s.observed.as_slice())
            .unwrap_or(&[])
    }

    /// Edge-id bound below which no edge is live any more (every retained
    /// edge has an id at or above it) — the horizon behind which observation
    /// intervals are dead weight.
    fn observed_live_horizon(&self) -> u64 {
        self.graph
            .oldest_live_edge_id()
            .map(|id| id.0)
            .unwrap_or_else(|| self.graph.ingested_edge_count())
    }

    /// Overrides a paused query's recorded pause time (checkpoint restore
    /// re-applies the original timestamp after the prefix replay, so a
    /// second capture round-trips it verbatim).
    pub(crate) fn set_pause_time(&mut self, handle: QueryHandle, at: Option<Timestamp>) {
        if let Ok(state) = self.state_mut(handle) {
            state.paused_at = at;
        }
    }

    /// Re-plans an already-registered query using the engine's *current*
    /// statistics and replaces its matcher. Subscriptions and the paused flag
    /// survive the re-plan.
    ///
    /// Paper §4.3 lists "continuously collecting the statistics information
    /// from the data stream and updating the query decomposition" as future
    /// work; this method implements the mechanism. Partial matches accumulated
    /// under the old plan are discarded (they are keyed to the old SJ-Tree
    /// shape), so matches whose first edges arrived before the re-plan and
    /// whose last edges arrive after it may be missed — call it during quiet
    /// periods or accept the gap, exactly as a production system would. A
    /// checkpoint taken later reproduces the same gap: restore replays only
    /// post-replan edges to the query, never reconstructing the discarded
    /// partials.
    pub fn replan(
        &mut self,
        handle: QueryHandle,
        strategy: &dyn DecompositionStrategy,
        tree_kind: TreeShapeKind,
    ) -> Result<(), EngineError> {
        // An RPQ has no decomposition to revisit (its minimized DFA is
        // canonical): replanning one is a successful no-op, so lifecycle
        // drivers can replan their whole query set without special-casing.
        let Some(plan) = self.state(handle)?.exec.plan() else {
            return Ok(());
        };
        let query = plan.query.clone();
        let plan = Planner::new()
            .with_statistics(&self.summary, &self.graph)
            .tree_kind(tree_kind)
            .plan_with(query, strategy)?;
        // Re-intern under the new plan: the old subscriptions are released
        // (freeing entries this query was the last subscriber of) and the
        // new decomposition subscribes afresh.
        let id = handle.id().0 as u32;
        self.shared.unsubscribe(id);
        let fed = self
            .config
            .shared_matching
            .then(|| self.shared.subscribe(id, &plan, &self.graph))
            .flatten();
        let shared = fed.is_some();
        let shared_events = self.shared.events();
        let bound = self.graph.ingested_edge_count();
        let exec = self.build_exec(plan, fed.as_deref().unwrap_or_default());
        let state = self.state_mut(handle)?;
        state.exec = exec;
        state.shared = shared;
        state.shared_edges_accum = 0;
        state.shared_edges_base = shared_events;
        // The old plan's partial matches are discarded (see the method
        // docs), so the observed-replay window restarts here too: a
        // checkpoint restore must not reconstruct partials from edges whose
        // state this replan just dropped.
        state.observed.clear();
        if !state.paused {
            state.observed.push(bound);
        }
        let paused = state.paused;
        if paused && shared {
            // Subscribing activates; a paused query stays out of fan-out.
            self.shared.set_active(id, false);
        }
        self.rebuild_dispatch();
        Ok(())
    }

    /// Number of live (registered, not deregistered) queries.
    pub fn query_count(&self) -> usize {
        self.queries.iter().filter(|s| s.state.is_some()).count()
    }

    /// Handles of every live query, in query-id (slot) order. This is
    /// registration order until a freed slot is re-occupied.
    pub fn handles(&self) -> Vec<QueryHandle> {
        self.queries
            .iter()
            .enumerate()
            .filter(|(_, s)| s.state.is_some())
            .map(|(i, s)| QueryHandle::new(QueryId(i), s.generation))
            .collect()
    }

    /// The plan of a registered subgraph query.
    /// [`EngineError::WrongQueryKind`] for a regular path query, which has
    /// no SJ-Tree decomposition (see [`Self::rpq_query`]).
    pub fn plan(&self, handle: QueryHandle) -> Result<&QueryPlan, EngineError> {
        self.state(handle)?
            .exec
            .plan()
            .ok_or(EngineError::WrongQueryKind {
                handle,
                expected: "subgraph",
            })
    }

    /// Metrics of a registered query. For a sharded query the snapshot
    /// aggregates the driver's local-search counters with every shard's
    /// join/store counters. For an index-covered query the shared dispatch
    /// path's contribution is folded in — `edges_processed` counts every
    /// event dispatched while the query was active, and
    /// `local_search_candidates` attributes each shared search's work to
    /// every query it served — so the counters read the same whether the
    /// query's searches ran privately or through the shared index. (One
    /// exception: a *lifted* entry searches once for all the constants its
    /// subscribers watch, and each of them is charged that whole walk, not
    /// only the part its own constant caused.)
    pub fn metrics(&self, handle: QueryHandle) -> Result<QueryMetrics, EngineError> {
        let state = self.state(handle)?;
        let mut m = state.exec.metrics();
        if state.shared {
            let mut shared_edges = state.shared_edges_accum;
            if !state.paused {
                shared_edges += self.shared.events() - state.shared_edges_base;
            }
            m.edges_processed += shared_edges;
            m.local_search_candidates += self.shared.slot_candidates(handle.id().0 as u32);
        }
        m.sink_events_dropped += state
            .subscribers
            .iter()
            .map(|s| {
                s.dropped
                    + s.sink
                        .as_ref()
                        .map_or(0, |sink| sink.events_dropped_for(handle.id()))
            })
            .sum::<u64>();
        for d in &state.durables {
            m.sink_events_dropped += d.dropped;
            m.delivery_attempts += d.attempts;
            m.delivery_retries += d.retries;
            m.delivery_recoveries += d.recoveries;
            m.cursor_lag += d.lag();
        }
        Ok(m)
    }

    /// Engine-level counters of the multi-query sharing subsystem: distinct
    /// vs. subscribed primitives and subtrees (the dedup ratios), searches
    /// and join climbs run and saved, embeddings found and fanned out, and
    /// lifted-dispatch hits. All zero while no query is registered or
    /// [`EngineConfig::shared_matching`] is disabled.
    pub fn engine_metrics(&self) -> EngineMetrics {
        let mut m = self.shared.metrics();
        for slot in &self.queries {
            if let Some(state) = &slot.state {
                for d in &state.durables {
                    m.delivery_attempts += d.attempts;
                    m.delivery_retries += d.retries;
                    m.delivery_recoveries += d.recoveries;
                    m.cursor_lag += d.lag();
                }
            }
        }
        m
    }

    /// True while events are dispatched through the sharing index: sharing
    /// is enabled and at least one entry currently serves two or more active
    /// subscriptions, or serves a whole join subtree. With no structural
    /// overlap the engine stays on the per-query path.
    pub fn sharing_active(&self) -> bool {
        self.sharing_active
    }

    /// Per-shard counters of a registered query: `Some` with one
    /// [`ShardMetrics`] per shard when the engine runs sharded
    /// ([`crate::EngineBuilder::shards`] above 1), `None` for the
    /// single-threaded execution.
    pub fn shard_metrics(
        &self,
        handle: QueryHandle,
    ) -> Result<Option<Vec<ShardMetrics>>, EngineError> {
        Ok(match &self.state(handle)?.exec {
            QueryExec::Single(_) | QueryExec::Rpq(_) => None,
            QueryExec::Sharded(s) => Some(s.shard_metrics()),
        })
    }

    /// Metrics of every live query, in the order of [`Self::handles`].
    /// Empty once the engine is poisoned (per-query metrics are no longer
    /// meaningful without their join state).
    pub fn all_metrics(&self) -> Vec<(QueryHandle, QueryMetrics)> {
        self.handles()
            .into_iter()
            .filter_map(|h| self.metrics(h).ok().map(|m| (h, m)))
            .collect()
    }

    /// The unified observability snapshot: per-stage latency histograms,
    /// every live query's counters, engine-wide sharing counters, per-shard
    /// counters with their routing-skew ratio, live durable-delivery state
    /// and the recent trace spans — everything the CLI's `stats` command and
    /// `--metrics-json` flag export. [`crate::MetricsRegistry::gather`] is a
    /// façade over this method.
    ///
    /// Stage histograms and spans are empty while
    /// [`crate::TelemetryLevel::Off`] (the counters sections are always
    /// populated). Each subscription's `lag` is recomputed from its live
    /// outbox depth at snapshot time, so a quarantined subscription's
    /// backlog keeps growing here instead of freezing at the value its last
    /// successful drain cached.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let stages: Vec<StageSnapshot> = self
            .telemetry
            .as_ref()
            .map(|h| {
                Stage::ALL
                    .iter()
                    .map(|&s| StageSnapshot::from_histogram(s, &h.core.stage_snapshot(s)))
                    .collect()
            })
            .unwrap_or_default();
        let mut queries = Vec::new();
        let mut shards = Vec::new();
        let mut delivery = Vec::new();
        for (idx, slot) in self.queries.iter().enumerate() {
            let Some(state) = slot.state.as_ref() else {
                continue;
            };
            let handle = QueryHandle::new(QueryId(idx), slot.generation);
            let name = state.exec.query_name().to_string();
            if let Ok(metrics) = self.metrics(handle) {
                queries.push(QuerySnapshot {
                    name: name.clone(),
                    paused: state.paused,
                    metrics,
                });
            }
            if let QueryExec::Sharded(sharded) = &state.exec {
                let per_shard = sharded.shard_metrics();
                let skew = shard_skew(&per_shard);
                shards.push(ShardSetSnapshot {
                    query: name.clone(),
                    shards: per_shard,
                    skew,
                });
            }
            for d in &state.durables {
                delivery.push(DeliverySnapshot {
                    query: name.clone(),
                    token: d.token,
                    target: d.spec.describe(),
                    status: match &d.status {
                        DeliveryStatus::Active => "active".to_string(),
                        DeliveryStatus::Degraded { .. } => "degraded".to_string(),
                        DeliveryStatus::Quarantined { .. } => "quarantined".to_string(),
                    },
                    routed: d.routed,
                    dropped: d.dropped,
                    attempts: d.attempts,
                    retries: d.retries,
                    recoveries: d.recoveries,
                    lag: d.lag(),
                });
            }
        }
        let mut spans = Vec::new();
        if let Some(h) = &self.telemetry {
            h.driver_ring.collect_into(&mut spans);
            for slot in &self.queries {
                if let Some(state) = &slot.state {
                    if let QueryExec::Sharded(sharded) = &state.exec {
                        sharded.collect_spans(&mut spans);
                    }
                }
            }
            spans.sort_by_key(|s| (s.seq, s.start_ns));
        }
        TelemetrySnapshot {
            level: self.config.telemetry_level.name().to_string(),
            sample_every: self.config.telemetry_sample_every,
            events_ingested: self.events_ingested,
            events_emitted: self.events_emitted,
            stages,
            queries,
            engine: self.engine_metrics(),
            shards,
            delivery,
            spans,
        }
    }

    /// Captures the live stage histograms for a checkpoint; `None` while
    /// telemetry is off.
    pub(crate) fn capture_telemetry(&self) -> Option<TelemetryCheckpoint> {
        self.telemetry
            .as_ref()
            .map(|h| TelemetryCheckpoint::capture(&h.core))
    }

    /// Detaches the telemetry hub so checkpoint replay is not re-measured on
    /// the driver thread (the replayed events were already measured by the
    /// engine that wrote the checkpoint). Pair with
    /// [`Self::resume_telemetry`]. Sharded matchers registered before the
    /// suspension keep their own clones and still record their worker-side
    /// stages; restore tolerates that overlap (counters stay monotone).
    pub(crate) fn suspend_telemetry(&mut self) -> Option<TelemetryHub> {
        self.telemetry.take()
    }

    /// Reinstates the hub taken by [`Self::suspend_telemetry`] and folds the
    /// restored checkpoint's captured stage counters into it.
    pub(crate) fn resume_telemetry(
        &mut self,
        hub: Option<TelemetryHub>,
        restored: Option<&TelemetryCheckpoint>,
    ) {
        self.telemetry = hub;
        if let (Some(h), Some(cp)) = (&self.telemetry, restored) {
            cp.absorb_into(&h.core);
        }
    }

    /// Partial matches currently stored across every live query's
    /// `SharedJoinStore`s — the figure that drops to zero for a query's share when
    /// it is deregistered.
    pub fn live_partial_matches(&self) -> u64 {
        self.queries
            .iter()
            .filter_map(QuerySlot::live)
            .map(|s| s.exec.metrics().partial_matches_live)
            .sum()
    }

    /// Direct access to a registered matcher (used by experiments that inspect
    /// per-node match collections). For a sharded query this returns the
    /// driver-side front end, whose per-node stores are empty — the join
    /// state lives in the shards and is observable through
    /// [`Self::shard_metrics`].
    /// [`EngineError::WrongQueryKind`] for a regular path query, whose state
    /// lives in product-graph trees rather than an SJ-Tree.
    pub fn matcher(&self, handle: QueryHandle) -> Result<&SjTreeMatcher, EngineError> {
        self.state(handle)?
            .exec
            .matcher()
            .ok_or(EngineError::WrongQueryKind {
                handle,
                expected: "subgraph",
            })
    }

    // ------------------------------------------------------------------
    // Subscriptions
    // ------------------------------------------------------------------

    /// Attaches a sink to one query: every future match of that query is
    /// delivered to it (in addition to whatever sink an `ingest_with` call
    /// passes). Use [`crate::CountingSink`], [`crate::BufferingSink`],
    /// [`crate::ChannelSink`] or [`crate::CallbackSink`] to observe the
    /// delivery while the engine owns the sink.
    pub fn subscribe(
        &mut self,
        handle: QueryHandle,
        sink: impl EventSink + 'static,
    ) -> Result<SubscriptionId, EngineError> {
        let token = self.next_subscription;
        let state = self.state_mut(handle)?;
        state.subscribers.push(Subscription {
            token,
            sink: Some(Box::new(sink)),
            error: None,
            dropped: 0,
        });
        self.next_subscription += 1;
        Ok(SubscriptionId {
            query: handle.id(),
            token,
        })
    }

    /// Attaches a durable subscription to one query: matches are rendered,
    /// buffered in a bounded outbox and delivered to the serialisable
    /// [`SinkSpec`] destination at the end of each `ingest` call, with
    /// retry/backoff per [`crate::EngineConfig::retry_policy`]. The
    /// subscription's delivery cursor (count of acknowledged matches) is
    /// persisted by [`crate::EngineCheckpoint`], so a restored engine
    /// resumes delivery exactly after the last acknowledged match. Uses a
    /// 1024-entry outbox with [`SinkOverflow::Block`] (drain inline when
    /// full); see [`Self::subscribe_durable_with`] to choose both.
    pub fn subscribe_durable(
        &mut self,
        handle: QueryHandle,
        spec: SinkSpec,
    ) -> Result<SubscriptionId, EngineError> {
        self.subscribe_durable_with(handle, spec, 1024, SinkOverflow::Block)
    }

    /// [`Self::subscribe_durable`] with an explicit outbox capacity and
    /// overflow policy. `DropOldest`/`DropNewest` count every dropped match
    /// on the subscription's drop counter; `Block` drains the outbox inline
    /// before accepting the overflowing match, falling back to
    /// `DropOldest` when the destination is down (delivery happens on the
    /// ingest thread, so truly blocking would deadlock the stream).
    /// [`EngineError::InvalidConfig`] for a zero capacity.
    pub fn subscribe_durable_with(
        &mut self,
        handle: QueryHandle,
        spec: SinkSpec,
        capacity: usize,
        overflow: SinkOverflow,
    ) -> Result<SubscriptionId, EngineError> {
        if capacity == 0 {
            return Err(EngineError::InvalidConfig(
                "durable outbox capacity must be at least 1".into(),
            ));
        }
        let token = self.next_subscription;
        let state = self.state_mut(handle)?;
        state
            .durables
            .push(DurableSub::new(token, spec, capacity, overflow));
        self.live_durables += 1;
        self.next_subscription += 1;
        Ok(SubscriptionId {
            query: handle.id(),
            token,
        })
    }

    /// Puts a quarantined or degraded durable subscription back on
    /// probation: its failure count and backoff gates are cleared and the
    /// next drain reconnects and re-attempts delivery from the cursor.
    /// [`EngineError::UnknownSubscription`] for a non-durable or unknown id.
    pub fn resubscribe(&mut self, sub: SubscriptionId) -> Result<(), EngineError> {
        self.check_poisoned()?;
        let state = self
            .queries
            .get_mut(sub.query.0)
            .and_then(|slot| slot.state.as_mut())
            .ok_or(EngineError::UnknownSubscription(sub))?;
        let durable = state
            .durables
            .iter_mut()
            .find(|d| d.token == sub.token)
            .ok_or(EngineError::UnknownSubscription(sub))?;
        durable.probation();
        Ok(())
    }

    /// Drains every durable subscription's outbox now, ignoring backoff and
    /// quarantine gates (each gets at least one fresh attempt). Returns the
    /// total number of matches still undelivered afterwards — zero means
    /// every durable subscriber is fully caught up. Intended for shutdown
    /// and for tests; regular draining happens at the end of each `ingest`.
    pub fn flush_deliveries(&mut self) -> u64 {
        let start = self.telemetry.as_ref().map(|h| h.core.now_ns());
        let policy = self.config.retry_policy;
        let mut lag = 0;
        for slot in &mut self.queries {
            if let Some(state) = slot.state.as_mut() {
                for durable in &mut state.durables {
                    durable.drain(&policy, true);
                    lag += durable.lag();
                }
            }
        }
        if let (Some(h), Some(start)) = (&self.telemetry, start) {
            h.core
                .record(Stage::DeliveryFlush, h.core.now_ns().saturating_sub(start));
        }
        lag
    }

    /// End-of-ingest delivery pass: every durable subscription whose gates
    /// allow an attempt drains as much of its outbox as the destination
    /// accepts.
    fn drain_deliveries(&mut self) {
        if self.live_durables == 0 {
            return;
        }
        let policy = self.config.retry_policy;
        let mut walked = 0;
        for slot in &mut self.queries {
            if let Some(state) = slot.state.as_mut() {
                for durable in &mut state.durables {
                    durable.drain(&policy, false);
                }
                walked += state.durables.len();
            }
        }
        debug_assert_eq!(walked, self.live_durables, "live durable count drifted");
    }

    /// Detaches a subscription (in-process or durable). The sink is dropped;
    /// a stale or unknown id is rejected. (Deregistering a query drops all
    /// its subscriptions at once.)
    pub fn unsubscribe(&mut self, sub: SubscriptionId) -> Result<(), EngineError> {
        self.check_poisoned()?;
        let state = self
            .queries
            .get_mut(sub.query.0)
            .and_then(|slot| slot.state.as_mut())
            .ok_or(EngineError::UnknownSubscription(sub))?;
        let (subscribers, durables) = (state.subscribers.len(), state.durables.len());
        state.subscribers.retain(|s| s.token != sub.token);
        state.durables.retain(|d| d.token != sub.token);
        let detached = durables - state.durables.len();
        if state.subscribers.len() == subscribers && detached == 0 {
            return Err(EngineError::UnknownSubscription(sub));
        }
        self.live_durables -= detached;
        Ok(())
    }

    /// Number of subscriptions on a query — durable ones and quarantined
    /// ones included (they stay registered so their health remains
    /// queryable).
    pub fn subscription_count(&self, handle: QueryHandle) -> Result<usize, EngineError> {
        let state = self.state(handle)?;
        Ok(state.subscribers.len() + state.durables.len())
    }

    /// Ids of the query's durable subscriptions, in registration order. An
    /// engine restored from an [`crate::EngineCheckpoint`] re-attaches
    /// durable subscriptions without handing back their original
    /// [`SubscriptionId`]s; this accessor recovers them so the caller can
    /// still [`Self::resubscribe`], [`Self::unsubscribe`] or query
    /// [`Self::subscription_health`] after a restore.
    pub fn durable_subscriptions(
        &self,
        handle: QueryHandle,
    ) -> Result<Vec<SubscriptionId>, EngineError> {
        let state = self.state(handle)?;
        Ok(state
            .durables
            .iter()
            .map(|d| SubscriptionId {
                query: handle.id(),
                token: d.token,
            })
            .collect())
    }

    /// Health of one subscription: [`SubscriptionHealth::Active`] while its
    /// sink is attached, [`SubscriptionHealth::Quarantined`] once a panic
    /// (or injected delivery error) during match delivery detached it. A
    /// quarantined subscription receives no further events; unsubscribe it
    /// and re-subscribe a fresh sink to resume delivery.
    pub fn subscription_health(
        &self,
        sub: SubscriptionId,
    ) -> Result<SubscriptionHealth, EngineError> {
        self.check_poisoned()?;
        let state = self
            .queries
            .get(sub.query.0)
            .and_then(|slot| slot.state.as_ref())
            .ok_or(EngineError::UnknownSubscription(sub))?;
        if let Some(subscription) = state.subscribers.iter().find(|s| s.token == sub.token) {
            return Ok(match &subscription.error {
                Some(message) => SubscriptionHealth::Quarantined(message.clone()),
                None => SubscriptionHealth::Active,
            });
        }
        let durable = state
            .durables
            .iter()
            .find(|d| d.token == sub.token)
            .ok_or(EngineError::UnknownSubscription(sub))?;
        Ok(match &durable.status {
            DeliveryStatus::Active => SubscriptionHealth::Active,
            DeliveryStatus::Degraded { failures } => SubscriptionHealth::Degraded {
                failures: *failures,
            },
            DeliveryStatus::Quarantined { reason } => {
                SubscriptionHealth::Quarantined(reason.clone())
            }
        })
    }

    // ------------------------------------------------------------------
    // Slot plumbing
    // ------------------------------------------------------------------

    fn rebuild_dispatch(&mut self) {
        self.dispatch.clear();
        self.private_dispatch.clear();
        for (i, slot) in self.queries.iter().enumerate() {
            if let Some(state) = &slot.state {
                if !state.paused {
                    self.dispatch.push(i as u32);
                    if !state.shared {
                        self.private_dispatch.push(i as u32);
                    }
                }
            }
        }
        // The shared path only pays off (and only changes the work profile)
        // when some entry actually fans out or holds join state; otherwise
        // every query stays on the private loop and the index lies dormant.
        self.sharing_active = self.config.shared_matching && self.shared.needs_dispatch();
    }

    /// Errors with [`EngineError::Poisoned`] once an uncontained shard
    /// failure has invalidated the engine's join state — the gate every
    /// fallible public method passes through.
    fn check_poisoned(&self) -> Result<(), EngineError> {
        match &self.poisoned {
            Some(reason) => Err(EngineError::Poisoned(reason.clone())),
            None => Ok(()),
        }
    }

    /// The uncontained-failure reason poisoning this engine, if any. While
    /// `Some`, every fallible method returns [`EngineError::Poisoned`];
    /// rebuild the engine (e.g. from a checkpoint) to recover.
    pub fn poison_reason(&self) -> Option<&str> {
        self.poisoned.as_deref()
    }

    fn slot_mut(&mut self, handle: QueryHandle) -> Result<&mut QuerySlot, EngineError> {
        self.check_poisoned()?;
        match self.queries.get_mut(handle.id().0) {
            Some(slot) if slot.generation == handle.generation() && slot.state.is_some() => {
                Ok(slot)
            }
            _ => Err(EngineError::StaleHandle(handle)),
        }
    }

    fn state(&self, handle: QueryHandle) -> Result<&QueryState, EngineError> {
        self.check_poisoned()?;
        match self.queries.get(handle.id().0) {
            Some(slot) if slot.generation == handle.generation() => {
                slot.state.as_ref().ok_or(EngineError::StaleHandle(handle))
            }
            _ => Err(EngineError::StaleHandle(handle)),
        }
    }

    fn state_mut(&mut self, handle: QueryHandle) -> Result<&mut QueryState, EngineError> {
        self.slot_mut(handle)
            .map(|slot| slot.state.as_mut().expect("slot_mut checked liveness"))
    }

    fn extend_retention(&mut self, window: Duration) {
        if self.config.retention.is_some() {
            return; // explicit retention wins
        }
        let needed = Some(match self.graph.retention() {
            Some(current) if current.as_micros() >= window.as_micros() => current,
            _ => window,
        });
        self.graph.set_retention(needed);
    }

    // ------------------------------------------------------------------
    // Stream processing
    // ------------------------------------------------------------------

    /// Absorbs events from any [`Ingest`] source — a single `&EdgeEvent`, a
    /// slice or `Vec` of events, or an iterator wrapped in
    /// [`crate::EventBatch`] — returning the complete matches in arrival
    /// order. Matches are also fanned out to the per-query subscriptions.
    ///
    /// Batch sources report exactly the same matches as feeding the events
    /// one at a time; they additionally amortise the per-event overheads (one
    /// sink and one scratch set for the whole batch) and finish with a single
    /// partial-match prune covering the trailing sub-interval of the prune
    /// cadence.
    ///
    /// # Errors
    ///
    /// [`EngineError::ShardFailed`] when a sharded worker died during the
    /// call: with `degraded: true` the failure was contained (state
    /// transplanted onto surviving shards — the engine keeps serving, and
    /// this batch's matches were still delivered to subscriptions, though
    /// not returned here); with `degraded: false` the engine is poisoned
    /// and every subsequent call returns [`EngineError::Poisoned`]. Attach
    /// a subscription ([`Self::subscribe`]) to observe matches across
    /// degraded batches, or use [`Self::ingest_with`].
    pub fn ingest<B: Ingest>(&mut self, batch: B) -> Result<Vec<MatchEvent>, EngineError> {
        let mut sink = CollectingSink::new();
        self.ingest_with(batch, &mut sink)?;
        Ok(sink.into_events())
    }

    /// Like [`Self::ingest`], but delivers matches to `sink` instead of
    /// collecting them. Returns the number of matches emitted (fan-out to
    /// subscriptions does not multiply the count). On
    /// [`EngineError::ShardFailed`] with `degraded: true`, matches of the
    /// faulted batch have already reached `sink` — only the count is
    /// forfeited.
    pub fn ingest_with<B: Ingest>(
        &mut self,
        batch: B,
        sink: &mut dyn EventSink,
    ) -> Result<usize, EngineError> {
        self.check_poisoned()?;
        // Entry failpoint: fires before any state is touched, so a `Panic`
        // action unwinds with the engine still consistent. An `Error` action
        // is meaningless here (nothing has been mutated yet) and is ignored;
        // `Delay` exercises ingest-side latency.
        let _ = crate::failpoint::fire_at("ingest-front", 0);
        let trailing_prune = batch.is_batch();
        let start_seq = self.events_ingested;
        let mut emitted = 0usize;
        batch.drive(&mut |ev| emitted += self.process_event_inner(ev, sink));
        // The batch-boundary stages below cover the whole call; they are
        // timed when the call's sequence range contains a sampled event, and
        // that event's sequence number keys their spans.
        let batch_sample = self.telemetry.as_ref().and_then(|h| {
            h.core
                .first_sampled(start_seq, self.events_ingested)
                .map(|seq| (h.clone(), seq))
        });
        // Sharded queries join asynchronously; the end of the ingest call is
        // the quiescent point where their fan-in is flushed, in stream order.
        let fan_in_start = batch_sample.as_ref().map(|(h, _)| h.core.now_ns());
        emitted += self.flush_sharded(sink);
        if let (Some((h, seq)), Some(start)) = (&batch_sample, fan_in_start) {
            let dur = h.core.now_ns().saturating_sub(start);
            h.core.record(Stage::FanInDrain, dur);
            h.driver_ring.push(*seq, Stage::FanInDrain, start, dur);
        }
        // Cover the trailing partial prune interval so a sequence of batches
        // never carries more than `prune_every` edges of stale partials.
        // (`prune_now` records the expiry-sweep stage itself.)
        if trailing_prune && self.edges_since_prune > 0 {
            self.prune_now();
        }
        // Durable subscribers buffer their matches in per-subscription
        // outboxes during dispatch; the end of the ingest call is the one
        // point where delivery (with retry/backoff) is attempted.
        let flush_start = batch_sample.as_ref().map(|(h, _)| h.core.now_ns());
        self.drain_deliveries();
        if let (Some((h, seq)), Some(start)) = (&batch_sample, flush_start) {
            let dur = h.core.now_ns().saturating_sub(start);
            h.core.record(Stage::DeliveryFlush, dur);
            h.driver_ring.push(*seq, Stage::DeliveryFlush, start, dur);
        }
        self.surface_shard_failures()?;
        Ok(emitted)
    }

    /// Surfaces structured failures reported by sharded workers during this
    /// call. Under [`crate::ShardFailurePolicy::Degrade`] the failed shard's
    /// join state was transplanted onto a survivor and the engine keeps
    /// serving; under `FailFast` — or when no survivor was left to adopt
    /// the state — the engine poisons itself so later calls cannot silently
    /// under-report matches.
    fn surface_shard_failures(&mut self) -> Result<(), EngineError> {
        if self.config.shards <= 1 {
            return Ok(()); // no query of this engine is sharded (`build_exec`)
        }
        let mut failures: Vec<ShardFailure> = Vec::new();
        for slot in &mut self.queries {
            if let Some(state) = &mut slot.state {
                if let QueryExec::Sharded(sharded) = &mut state.exec {
                    failures.append(&mut sharded.take_failures());
                }
            }
        }
        let Some(first) = failures.into_iter().next() else {
            return Ok(());
        };
        if !first.degraded {
            self.poisoned = Some(first.message.clone());
        }
        Err(EngineError::ShardFailed {
            shard: first.shard,
            message: first.message,
            degraded: first.degraded,
        })
    }

    /// Drains every sharded query's completed-match fan-in: waits for the
    /// shard workers to quiesce, materialises the matches as [`MatchEvent`]s,
    /// and delivers them to each query's subscribers and to `sink` in
    /// arrival order — interleaved across queries by the stream position of
    /// the completing edge (ties fall back to query-slot order, matching the
    /// per-event dispatch order of the in-process path). Single-threaded
    /// queries emit inline and are untouched.
    fn flush_sharded(&mut self, sink: &mut dyn EventSink) -> usize {
        if self.config.shards <= 1 {
            // No query of this engine is sharded (`build_exec`): skip the walk
            // over every slot, which a one-event `ingest` call would
            // otherwise pay per event.
            return 0;
        }
        let mut completed: Vec<(u64, usize, PartialMatch)> = Vec::new();
        for (idx, slot) in self.queries.iter_mut().enumerate() {
            let Some(state) = slot.state.as_mut() else {
                continue;
            };
            let QueryExec::Sharded(sharded) = &mut state.exec else {
                continue;
            };
            for (seq, m) in sharded.take_completed() {
                completed.push((seq, idx, m));
            }
        }
        if completed.is_empty() {
            return 0;
        }
        // Stable: preserves each query's own (already seq-sorted) order.
        completed.sort_by_key(|(seq, _, _)| *seq);
        let graph = &self.graph;
        let policy = self.config.retry_policy;
        let mut emitted = 0usize;
        for (_, idx, m) in &completed {
            let slot = &mut self.queries[*idx];
            let handle = QueryHandle::new(QueryId(*idx), slot.generation);
            let state = slot
                .state
                .as_mut()
                .expect("matches were collected from a live slot");
            deliver_match(
                handle,
                &state
                    .exec
                    .plan()
                    .expect("sharded queries carry a plan")
                    .query,
                graph,
                m,
                &mut state.subscribers,
                &mut state.durables,
                &policy,
                sink,
            );
            emitted += 1;
        }
        self.events_emitted += emitted as u64;
        emitted
    }

    fn process_event_inner(&mut self, event: &EdgeEvent, sink: &mut dyn EventSink) -> usize {
        let seq = self.events_ingested;
        self.events_ingested += 1;
        // The hub is only cloned (two `Arc` bumps) for sampled events; for
        // every other event each instrumentation site below is one branch on
        // a `None`.
        let hub = self
            .telemetry
            .as_ref()
            .filter(|h| h.core.should_sample(seq))
            .cloned();
        let ingest_start = hub.as_ref().map(|h| h.core.now_ns());
        // 1. Update the graph.
        let result = self.graph.ingest(event);

        // 2. Update the summary (vertices, new edge, expired edges). The edge
        // is borrowed from the graph for the whole step — matchers, summary
        // and sinks all take the graph immutably, so no clone is needed.
        let Some(edge) = self.graph.edge(result.edge) else {
            // The event arrived so late that it is already outside the
            // retention horizon: the graph expired it on ingest. It cannot
            // participate in any within-window match (every edge it could
            // combine with has expired too), so only account the expiries it
            // caused and move on.
            for expired in &result.expired {
                if let Some(info) = self.live_edge_types.remove(*expired) {
                    if self.config.maintain_summary {
                        self.summary
                            .observe_expiry(info.src_vtype, info.etype, info.dst_vtype);
                    }
                }
            }
            if let (Some(h), Some(start)) = (&hub, ingest_start) {
                let dur = h.core.now_ns().saturating_sub(start);
                h.core.record(Stage::IngestFront, dur);
                h.driver_ring.push(seq, Stage::IngestFront, start, dur);
            }
            return 0;
        };
        if self.config.maintain_summary {
            if result.src_created {
                if let Some(v) = self.graph.vertex(result.src) {
                    self.summary.observe_vertex(v.vtype);
                }
            }
            if result.dst_created {
                if let Some(v) = self.graph.vertex(result.dst) {
                    self.summary.observe_vertex(v.vtype);
                }
            }
            self.summary.observe_insertion(&self.graph, edge);
        }
        let src_vtype = self
            .graph
            .vertex(edge.src)
            .map(|v| v.vtype)
            .unwrap_or(TypeId(0));
        let dst_vtype = self
            .graph
            .vertex(edge.dst)
            .map(|v| v.vtype)
            .unwrap_or(TypeId(0));
        self.live_edge_types.insert(
            edge.id,
            EdgeTypeInfo {
                etype: edge.etype,
                src_vtype,
                dst_vtype,
            },
        );
        for expired in &result.expired {
            if let Some(info) = self.live_edge_types.remove(*expired) {
                if self.config.maintain_summary {
                    self.summary
                        .observe_expiry(info.src_vtype, info.etype, info.dst_vtype);
                }
            }
        }

        if let (Some(h), Some(start)) = (&hub, ingest_start) {
            let dur = h.core.now_ns().saturating_sub(start);
            h.core.record(Stage::IngestFront, dur);
            h.driver_ring.push(seq, Stage::IngestFront, start, dur);
        }

        // 3. Matching. With sharing active, every shared entry the edge can
        // reach runs its anchored searches and join climb once, and each
        // resulting match is fanned out — constant-dispatched, observation-
        // gated and remapped through the subscriber's vertex permutation — to
        // the subscribing queries' nodes, where the per-query join climb
        // proceeds exactly as on the private loop; queries not subscribed to
        // the index keep the private loop. Without sharing, every live,
        // unpaused matcher (the dispatch table) runs its own search.
        // Sharded matchers only route here — their completed matches surface
        // at the next quiescent point (see `flush_sharded`).
        //
        // Telemetry: a sampled event's search work, climb work and RPQ
        // expiry drains are accumulated separately across both loops below
        // and recorded once each, so one edge contributes one observation
        // per stage no matter how many queries it touched. The clock is
        // only read for sampled events (`now` is `None` otherwise). (A
        // sharded matcher times its own front search and routing — see
        // `ShardedMatcher::process_edge_at` — so it is excluded here.)
        let now = || hub.as_ref().map(|h| h.core.now_ns());
        let lap = |total: &mut Option<u64>, from: Option<u64>, to: Option<u64>| {
            if let (Some(from), Some(to)) = (from, to) {
                *total.get_or_insert(0) += to.saturating_sub(from);
            }
        };
        let match_start = now();
        let mut search_ns: Option<u64> = None;
        let mut climb_ns: Option<u64> = None;
        let mut expiry_ns: Option<u64> = None;
        let mut emitted = 0usize;
        let mut complete = std::mem::take(&mut self.match_scratch);
        let graph = &self.graph;
        let policy = self.config.retry_policy;
        if self.sharing_active {
            let t0 = now();
            self.shared.search_edge(graph, edge);
            let t1 = now();
            lap(&mut search_ns, t0, t1);
            let mut deliveries = std::mem::take(&mut self.delivery_scratch);
            deliveries.clear();
            self.shared.collect_deliveries(&mut deliveries);
            // (slot, node) order mirrors the private loop's per-event query
            // order, so subscribers observe the same stream either way.
            deliveries.sort_unstable();
            for d in &deliveries {
                let slot = &mut self.queries[d.0 as usize];
                let handle = QueryHandle::new(QueryId(d.0 as usize), slot.generation);
                let state = slot
                    .state
                    .as_mut()
                    .expect("the fan-out only lists live queries");
                let exec = &mut state.exec;
                complete.clear();
                self.shared.fan_out(d, &state.observed, |node, m| {
                    exec.absorb(node, m, seq, &mut complete)
                });
                for m in complete.drain(..) {
                    deliver_match(
                        handle,
                        &exec.plan().expect("subscribers carry a plan").query,
                        graph,
                        &m,
                        &mut state.subscribers,
                        &mut state.durables,
                        &policy,
                        sink,
                    );
                    emitted += 1;
                }
            }
            lap(&mut climb_ns, t1, now());
            self.delivery_scratch = deliveries;
        }
        let private = if self.sharing_active {
            &self.private_dispatch
        } else {
            &self.dispatch
        };
        for &idx in private {
            let slot = &mut self.queries[idx as usize];
            let handle = QueryHandle::new(QueryId(idx as usize), slot.generation);
            let state = slot
                .state
                .as_mut()
                .expect("dispatch table only lists live queries");
            let matcher = match &mut state.exec {
                QueryExec::Single(matcher) => matcher,
                QueryExec::Sharded(sharded) => {
                    sharded.process_edge_at(graph, edge, seq);
                    continue;
                }
                QueryExec::Rpq(rpq) => {
                    // The second query class rides the same dispatch pass:
                    // path matches are materialised as events binding
                    // src/dst and delivered through the shared supervised
                    // emission point. Its expiry drain is timed as the
                    // expiry sweep; its delta expansion is all anchored
                    // search — no join climb — so that time lands there.
                    let mut paths = std::mem::take(&mut self.rpq_scratch);
                    paths.clear();
                    let t0 = now();
                    rpq.prune(graph.now());
                    let t1 = now();
                    lap(&mut expiry_ns, t0, t1);
                    rpq.process_edge(graph, &state.observed, edge, &mut paths);
                    lap(&mut search_ns, t1, now());
                    let name = rpq.query().name();
                    for p in paths.drain(..) {
                        let event = MatchEvent::from_path(handle, name, graph, &p);
                        deliver_event(
                            event,
                            &mut state.subscribers,
                            &mut state.durables,
                            &policy,
                            sink,
                        );
                        emitted += 1;
                    }
                    self.rpq_scratch = paths;
                    continue;
                }
            };
            // `SjTreeMatcher::process_edge`, spelled out as its two halves —
            // anchored search, then the join climb — so that a sampled
            // event's time lands in each half's own stage.
            complete.clear();
            let mut prims = std::mem::take(&mut self.primitive_scratch);
            prims.clear();
            let t0 = now();
            matcher.primitive_matches_into(graph, edge, &mut prims);
            let t1 = now();
            for (leaf, m) in prims.drain(..) {
                matcher.absorb(leaf, m, &mut complete);
            }
            lap(&mut search_ns, t0, t1);
            lap(&mut climb_ns, t1, now());
            self.primitive_scratch = prims;
            for m in complete.drain(..) {
                deliver_match(
                    handle,
                    &matcher.plan().query,
                    graph,
                    &m,
                    &mut state.subscribers,
                    &mut state.durables,
                    &policy,
                    sink,
                );
                emitted += 1;
            }
        }
        if let (Some(h), Some(start)) = (&hub, match_start) {
            if let Some(ns) = search_ns {
                h.core.record(Stage::LocalSearch, ns);
                h.driver_ring.push(seq, Stage::LocalSearch, start, ns);
            }
            if let Some(ns) = climb_ns {
                h.core.record(Stage::JoinClimb, ns);
                h.driver_ring.push(seq, Stage::JoinClimb, start, ns);
            }
            if let Some(ns) = expiry_ns {
                h.core.record(Stage::ExpirySweep, ns);
                h.driver_ring.push(seq, Stage::ExpirySweep, start, ns);
            }
        }
        self.match_scratch = complete;
        self.events_emitted += emitted as u64;

        // 4. Periodic partial-match pruning. The cadence is preserved even
        // inside batches: deferring pruning to the batch boundary measurably
        // *hurts* (unpruned partial matches bloat the sibling collections
        // every join probes), so batching only amortises the trailing
        // partial interval, never a full `prune_every` window.
        self.edges_since_prune += 1;
        if self.edges_since_prune >= self.config.prune_every {
            self.prune_now();
        }
        emitted
    }

    /// Prunes expired partial matches in every live matcher and shared
    /// entry immediately (paused queries included — their stale partials
    /// keep expiring). For sharded queries the sweeps run on the shard
    /// workers, behind a barrier on either side (see
    /// [`ShardedMatcher::prune`]), so metrics read afterwards reflect the
    /// prune.
    pub fn prune_now(&mut self) {
        // Prunes are rare (once per `prune_every` edges), so they are timed
        // whenever telemetry is on rather than per-event sampled; sweeps that
        // run on shard workers record their own time there. No span: a sweep
        // covers a window, not one sampled edge.
        let start = self.telemetry.as_ref().map(|h| h.core.now_ns());
        let now = self.graph.now();
        for slot in &mut self.queries {
            if let Some(state) = &mut slot.state {
                state.exec.prune(now);
            }
        }
        self.shared.prune(now);
        self.edges_since_prune = 0;
        if let (Some(h), Some(start)) = (&self.telemetry, start) {
            h.core
                .record(Stage::ExpirySweep, h.core.now_ns().saturating_sub(start));
        }
    }
}

impl std::fmt::Debug for ContinuousQueryEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContinuousQueryEngine")
            .field("queries", &self.query_count())
            .field("active", &self.dispatch.len())
            .field("graph", &self.graph.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{BufferingSink, CountingSink};
    use streamworks_graph::Timestamp;
    use streamworks_query::QueryGraphBuilder;

    fn engine() -> ContinuousQueryEngine {
        ContinuousQueryEngine::builder().build().unwrap()
    }

    fn ev(src: &str, st: &str, dst: &str, dt: &str, et: &str, t: i64) -> EdgeEvent {
        EdgeEvent::new(src, st, dst, dt, et, Timestamp::from_secs(t))
    }

    fn common_keyword_query(window: Duration) -> QueryGraph {
        QueryGraphBuilder::new("common_keyword")
            .window(window)
            .vertex("a1", "Article")
            .vertex("a2", "Article")
            .vertex("k", "Keyword")
            .edge("a1", "mentions", "k")
            .edge("a2", "mentions", "k")
            .build()
            .unwrap()
    }

    #[test]
    fn register_and_match_via_dsl() {
        let mut engine = engine();
        let handle = engine
            .register_dsl(
                "QUERY pair WINDOW 1h MATCH (a1:Article)-[:mentions]->(k:Keyword), (a2:Article)-[:mentions]->(k)",
            )
            .unwrap();
        assert_eq!(engine.query_count(), 1);
        let e1 = engine
            .ingest(&ev("a1", "Article", "k1", "Keyword", "mentions", 10))
            .unwrap();
        assert!(e1.is_empty());
        let e2 = engine
            .ingest(&ev("a2", "Article", "k1", "Keyword", "mentions", 20))
            .unwrap();
        assert_eq!(e2.len(), 2);
        assert_eq!(e2[0].query, handle.id());
        assert_eq!(engine.events_emitted(), 2);
        assert_eq!(engine.metrics(handle).unwrap().complete_matches, 2);
    }

    #[test]
    fn window_is_enforced_end_to_end() {
        let mut engine = engine();
        engine
            .register_query(common_keyword_query(Duration::from_secs(30)))
            .unwrap();
        engine
            .ingest(&ev("a1", "Article", "k1", "Keyword", "mentions", 0))
            .unwrap();
        let matches = engine
            .ingest(&ev("a2", "Article", "k1", "Keyword", "mentions", 100))
            .unwrap();
        assert!(matches.is_empty());
        // A third article arriving close to the second *does* match with it.
        let matches = engine
            .ingest(&ev("a3", "Article", "k1", "Keyword", "mentions", 110))
            .unwrap();
        assert_eq!(matches.len(), 2);
    }

    #[test]
    fn retention_auto_extends_to_query_window() {
        let mut engine = engine();
        assert_eq!(engine.graph().retention(), None);
        engine
            .register_query(common_keyword_query(Duration::from_secs(600)))
            .unwrap();
        assert_eq!(engine.graph().retention(), Some(Duration::from_secs(600)));
        engine
            .register_query(common_keyword_query(Duration::from_secs(60)))
            .unwrap();
        // Retention keeps covering the largest window.
        assert_eq!(engine.graph().retention(), Some(Duration::from_secs(600)));
    }

    #[test]
    fn multiple_queries_run_side_by_side() {
        let mut engine = engine();
        let keyword_q = engine
            .register_query(common_keyword_query(Duration::from_hours(1)))
            .unwrap();
        let location_q = engine
            .register_dsl(
                "QUERY colocated WINDOW 1h MATCH (a1:Article)-[:located]->(l:Location), (a2:Article)-[:located]->(l)",
            )
            .unwrap();
        let events = [
            ev("a1", "Article", "k1", "Keyword", "mentions", 1),
            ev("a2", "Article", "k1", "Keyword", "mentions", 2),
            ev("a1", "Article", "paris", "Location", "located", 3),
            ev("a2", "Article", "paris", "Location", "located", 4),
        ];
        let all = engine.ingest(&events).unwrap();
        let keyword_hits = all.iter().filter(|e| e.query == keyword_q.id()).count();
        let location_hits = all.iter().filter(|e| e.query == location_q.id()).count();
        assert_eq!(keyword_hits, 2);
        assert_eq!(location_hits, 2);
    }

    #[test]
    fn summary_tracks_live_edges_through_expiry() {
        let mut engine = ContinuousQueryEngine::builder()
            .retention(Duration::from_secs(10))
            .build()
            .unwrap();
        engine
            .register_query(common_keyword_query(Duration::from_secs(10)))
            .unwrap();
        engine
            .ingest(&ev("a1", "Article", "k1", "Keyword", "mentions", 0))
            .unwrap();
        engine
            .ingest(&ev("a2", "Article", "k2", "Keyword", "mentions", 100))
            .unwrap();
        // The first edge expired; the summary's live edge count reflects that.
        let mentions = engine.graph().edge_type_id("mentions").unwrap();
        assert_eq!(engine.summary().types().edge_count(mentions), 1);
        assert_eq!(engine.graph().live_edge_count(), 1);
    }

    #[test]
    fn prune_keeps_partial_match_population_bounded() {
        let mut engine = ContinuousQueryEngine::builder()
            .prune_every(16)
            .build()
            .unwrap();
        let handle = engine
            .register_query_with(
                common_keyword_query(Duration::from_secs(5)),
                &streamworks_query::SelectivityOrdered {
                    max_primitive_size: 1,
                },
                TreeShapeKind::LeftDeep,
            )
            .unwrap();
        // A long stream of articles each mentioning their own keyword: no
        // matches, and partial matches should be pruned as time advances.
        for i in 0..500 {
            engine
                .ingest(&ev(
                    &format!("a{i}"),
                    "Article",
                    &format!("k{}", i % 7),
                    "Keyword",
                    "mentions",
                    i,
                ))
                .unwrap();
        }
        let metrics = engine.metrics(handle).unwrap();
        assert!(metrics.partial_matches_expired > 0);
        assert!(
            metrics.partial_matches_live < 100,
            "live partial matches should stay bounded, got {}",
            metrics.partial_matches_live
        );
    }

    #[test]
    fn replan_uses_learned_statistics_and_keeps_matching() {
        use streamworks_query::LeftDeepEdgeChain;
        let mut engine = engine();
        // Registered before any data: the plan is frequency-blind.
        let handle = engine
            .register_query_with(
                common_keyword_query(Duration::from_hours(1)),
                &LeftDeepEdgeChain,
                TreeShapeKind::LeftDeep,
            )
            .unwrap();
        assert_eq!(
            engine.plan(handle).unwrap().strategy,
            "left-deep-edge-chain"
        );

        engine
            .ingest(&ev("a1", "Article", "k1", "Keyword", "mentions", 1))
            .unwrap();
        engine
            .ingest(&ev("a2", "Article", "k2", "Keyword", "mentions", 2))
            .unwrap();

        // Re-plan with statistics; the strategy name changes and matching
        // continues to work for patterns completed entirely after the re-plan.
        engine
            .replan(
                handle,
                &SelectivityOrdered::default(),
                TreeShapeKind::LeftDeep,
            )
            .unwrap();
        assert_eq!(engine.plan(handle).unwrap().strategy, "selectivity-ordered");
        engine
            .ingest(&ev("a3", "Article", "k3", "Keyword", "mentions", 10))
            .unwrap();
        let matches = engine
            .ingest(&ev("a4", "Article", "k3", "Keyword", "mentions", 11))
            .unwrap();
        assert_eq!(matches.len(), 2);

        // Stale handles are rejected.
        let bogus = QueryHandle::new(QueryId(99), 0);
        assert!(engine
            .replan(
                bogus,
                &SelectivityOrdered::default(),
                TreeShapeKind::LeftDeep
            )
            .is_err());
    }

    #[test]
    fn events_resolve_bindings_to_external_keys() {
        let mut engine = engine();
        engine
            .register_query(common_keyword_query(Duration::from_hours(1)))
            .unwrap();
        engine
            .ingest(&ev("a1", "Article", "k1", "Keyword", "mentions", 1))
            .unwrap();
        let matches = engine
            .ingest(&ev("a2", "Article", "k1", "Keyword", "mentions", 2))
            .unwrap();
        let keys: Vec<_> = matches[0].bindings.iter().map(|b| b.key.as_str()).collect();
        assert!(keys.contains(&"a1"));
        assert!(keys.contains(&"a2"));
        assert!(keys.contains(&"k1"));
    }

    #[test]
    fn sharded_engine_reports_the_same_matches() {
        let mut single = engine();
        let mut sharded = ContinuousQueryEngine::builder().shards(3).build().unwrap();
        let mut handles = Vec::new();
        for e in [&mut single, &mut sharded] {
            handles.push(
                e.register_query(common_keyword_query(Duration::from_hours(1)))
                    .unwrap(),
            );
        }
        let events = vec![
            ev("a1", "Article", "k1", "Keyword", "mentions", 1),
            ev("a2", "Article", "k1", "Keyword", "mentions", 2),
            ev("a3", "Article", "k2", "Keyword", "mentions", 3),
            ev("a4", "Article", "k1", "Keyword", "mentions", 4),
        ];
        let expected = single.ingest(&events).unwrap();
        let got = sharded.ingest(&events).unwrap();
        // Same events in stream order (MatchEvent derives PartialEq).
        let mut expected_sorted = expected.clone();
        let mut got_sorted = got.clone();
        expected_sorted.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        got_sorted.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        assert_eq!(expected_sorted, got_sorted);
        assert_eq!(
            single.metrics(handles[0]).unwrap().complete_matches,
            sharded.metrics(handles[1]).unwrap().complete_matches
        );
        // Per-shard counters exist for the sharded engine only.
        assert_eq!(sharded.shard_metrics(handles[1]).unwrap().unwrap().len(), 3);
        assert!(single.shard_metrics(handles[0]).unwrap().is_none());
    }

    #[test]
    fn subscriptions_fan_out_per_query() {
        let mut engine = engine();
        let keyword_q = engine
            .register_query(common_keyword_query(Duration::from_hours(1)))
            .unwrap();
        let location_q = engine
            .register_dsl(
                "QUERY colocated WINDOW 1h MATCH (a1:Article)-[:located]->(l:Location), (a2:Article)-[:located]->(l)",
            )
            .unwrap();
        let (count_sink, keyword_count) = CountingSink::new();
        engine.subscribe(keyword_q, count_sink).unwrap();
        let (buffer_sink, location_buffer) = BufferingSink::new();
        let location_sub = engine.subscribe(location_q, buffer_sink).unwrap();
        assert_eq!(engine.subscription_count(keyword_q).unwrap(), 1);

        engine
            .ingest(&[
                ev("a1", "Article", "k1", "Keyword", "mentions", 1),
                ev("a2", "Article", "k1", "Keyword", "mentions", 2),
                ev("a1", "Article", "paris", "Location", "located", 3),
                ev("a2", "Article", "paris", "Location", "located", 4),
            ])
            .unwrap();
        // Each tenant saw only its own query's matches.
        assert_eq!(keyword_count.get(), 2);
        let location_events = location_buffer.drain();
        assert_eq!(location_events.len(), 2);
        assert!(location_events.iter().all(|e| e.query == location_q.id()));

        // Unsubscribing stops delivery; a second cancel of the same id fails.
        engine.unsubscribe(location_sub).unwrap();
        assert!(engine.unsubscribe(location_sub).is_err());
        engine
            .ingest(&[
                ev("a3", "Article", "paris", "Location", "located", 5),
                ev("a4", "Article", "paris", "Location", "located", 6),
            ])
            .unwrap();
        assert!(location_buffer.is_empty());
        assert_eq!(engine.subscription_count(location_q).unwrap(), 0);
    }

    #[test]
    fn observed_boundaries_stay_bounded_under_pause_resume_churn() {
        // A service throttling a query with periodic pause/resume must not
        // accumulate observation boundaries forever: intervals wholly behind
        // the retention horizon are trimmed as new boundaries are pushed.
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        let handle = engine
            .register_query(common_keyword_query(Duration::from_secs(5)))
            .unwrap();
        for i in 0..50i64 {
            // Events 1000s apart with a 5s window: everything expires.
            engine
                .ingest(&ev(
                    &format!("a{i}"),
                    "Article",
                    "k",
                    "Keyword",
                    "mentions",
                    i * 1_000,
                ))
                .unwrap();
            engine.pause(handle).unwrap();
            engine.resume(handle).unwrap();
        }
        assert!(
            engine.observed_bounds(handle).len() <= 4,
            "boundaries behind the live horizon are trimmed, got {:?}",
            engine.observed_bounds(handle)
        );
    }

    #[test]
    fn invalid_config_panics_in_new() {
        let result = std::panic::catch_unwind(|| {
            ContinuousQueryEngine::new(EngineConfig {
                prune_every: 0,
                ..Default::default()
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn durable_subscriptions_deliver_and_report_metrics() {
        use crate::delivery::{memory_sink_contents, reset_memory_sink, SinkSpec};
        let key = "engine_durable_memory";
        reset_memory_sink(key);
        let mut engine = engine();
        let handle = engine
            .register_query(common_keyword_query(Duration::from_hours(1)))
            .unwrap();
        let sub = engine
            .subscribe_durable(handle, SinkSpec::Memory { key: key.into() })
            .unwrap();
        assert_eq!(engine.subscription_count(handle).unwrap(), 1);
        let events = [
            ev("a1", "Article", "k1", "Keyword", "mentions", 1),
            ev("a2", "Article", "k1", "Keyword", "mentions", 2),
        ];
        engine.ingest(&events).unwrap();
        // Delivery happens at the end of the ingest call, no flush needed.
        let lines = memory_sink_contents(key);
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().all(|l| l.contains("common_keyword")));
        let m = engine.metrics(handle).unwrap();
        assert_eq!(m.delivery_attempts, 2);
        assert_eq!(m.delivery_retries, 0);
        assert_eq!(m.cursor_lag, 0);
        assert_eq!(engine.engine_metrics().delivery_attempts, 2);
        assert_eq!(
            engine.subscription_health(sub).unwrap(),
            SubscriptionHealth::Active
        );
        assert_eq!(engine.live_durables, 1);
        engine.unsubscribe(sub).unwrap();
        assert_eq!(engine.subscription_count(handle).unwrap(), 0);
        // The count the end-of-ingest pass is skipped on follows every way a
        // durable subscription can go.
        assert_eq!(engine.live_durables, 0);
        for _ in 0..2 {
            engine
                .subscribe_durable(handle, SinkSpec::Memory { key: key.into() })
                .unwrap();
        }
        engine.deregister(handle).unwrap();
        assert_eq!(engine.live_durables, 0);
        engine.ingest(&events).unwrap();
        reset_memory_sink(key);
    }

    #[test]
    fn shared_buffer_drops_attribute_to_the_evicted_query_via_metrics() {
        let mut engine = engine();
        let q_kw = engine
            .register_query(common_keyword_query(Duration::from_hours(1)))
            .unwrap();
        let q_loc = engine
            .register_dsl(
                "QUERY colocated WINDOW 1h MATCH (a1:Article)-[:located]->(l:Location), (a2:Article)-[:located]->(l)",
            )
            .unwrap();
        // Both queries share one 2-slot DropOldest buffer.
        let (sink, _buffer) = BufferingSink::bounded(2, SinkOverflow::DropOldest);
        let shared = sink.share();
        engine.subscribe(q_kw, sink).unwrap();
        engine.subscribe(q_loc, shared).unwrap();
        // Two keyword matches fill the buffer, then two location matches
        // evict them: the drops belong to the *evicted* keyword query.
        let events = [
            ev("a1", "Article", "k1", "Keyword", "mentions", 1),
            ev("a2", "Article", "k1", "Keyword", "mentions", 2),
            ev("a1", "Article", "paris", "Location", "located", 3),
            ev("a2", "Article", "paris", "Location", "located", 4),
        ];
        engine.ingest(&events).unwrap();
        assert_eq!(engine.metrics(q_kw).unwrap().sink_events_dropped, 2);
        assert_eq!(engine.metrics(q_loc).unwrap().sink_events_dropped, 0);
    }
}
