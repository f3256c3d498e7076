//! The continuous-query engine: the "StreamWorks" system object.
//!
//! [`ContinuousQueryEngine`] ties the substrates together the way Fig. 1 of
//! the paper sketches: the dynamic graph store and its summaries are updated
//! by every incoming edge event, registered queries are planned against the
//! summaries, and each event is pushed through the incremental SJ-Tree
//! matching — once per distinct form, through the sharing index — emitting
//! [`MatchEvent`]s for completed patterns.
//!
//! The engine is a *service object*: it is built through the validating
//! [`crate::EngineBuilder`], queries are registered and come back as
//! generation-tagged [`QueryHandle`]s with a full lifecycle
//! ([`ContinuousQueryEngine::pause`] / [`ContinuousQueryEngine::resume`] /
//! [`ContinuousQueryEngine::deregister`]), each query can carry its own
//! subscriptions ([`ContinuousQueryEngine::subscribe`]), and every way of
//! feeding events — single, slice, iterator — goes through the unified
//! [`ContinuousQueryEngine::ingest`] surface.

use crate::binding::PartialMatch;
use crate::config::{EngineBuilder, EngineConfig};
use crate::delivery::{
    ConnectError, DeliveryCursor, DeliveryStatus, DurableSub, RetryPolicy, SinkOverflow, SinkSpec,
};
use crate::error::EngineError;
use crate::event::{EventSink, KeyCache, MatchEvent, QueryId, SharedStr};
use crate::handle::{QueryHandle, SubscriptionId};
use crate::ingest::Ingest;
use crate::metrics::{EngineMetrics, QueryMetrics};
use crate::rpq::{RpqMatcher, RpqPathMatch};
use crate::shared_index::{Delivery, SharedIndex};
use crate::sj_matcher::SjTreeMatcher;
use crate::telemetry::{
    ns_since, DeliverySnapshot, QuerySnapshot, Stage, Telemetry, TelemetryCheckpoint,
    TelemetryLevel, TelemetrySnapshot,
};
use std::sync::OnceLock;
use streamworks_graph::{Duration, DynamicGraph, EdgeEvent, GraphConfig, GraphStats, Timestamp};
use streamworks_query::{
    DecompositionStrategy, Planner, QueryGraph, QueryPlan, RpqQuery, SjNodeId, TreeShapeKind,
};
use streamworks_summarize::GraphSummary;

/// How a query is executed on the ingest thread: an SJ-Tree matcher, or the
/// product-graph evaluator of a regular path query.
// One value per registered query (never mass-allocated), and the common
// `Single` variant sits on the per-event dispatch path — keeping it inline
// avoids a pointer chase there, so the size asymmetry is deliberate.
#[allow(clippy::large_enum_variant)]
enum QueryExec {
    Single(SjTreeMatcher),
    /// A windowed regular path query, evaluated on the product graph (see
    /// `crate::rpq`). The engine's second query class: it shares the whole
    /// lifecycle — slots, handles, pause/resume, subscriptions, checkpoints —
    /// but has no SJ-Tree plan and never subscribes to the sharing index.
    Rpq(Box<RpqMatcher>),
}

impl QueryExec {
    /// The SJ-Tree plan; `None` for an RPQ, which has no decomposition.
    fn plan(&self) -> Option<&QueryPlan> {
        match self {
            QueryExec::Single(m) => Some(m.plan()),
            QueryExec::Rpq(_) => None,
        }
    }

    /// The query's metrics with stream time at `now`.
    fn metrics(&self, now: Timestamp) -> QueryMetrics {
        match self {
            QueryExec::Single(m) => m.metrics_at(now),
            QueryExec::Rpq(m) => m.metrics(),
        }
    }

    fn prune(&mut self, now: Timestamp) {
        match self {
            QueryExec::Single(m) => m.prune(now),
            QueryExec::Rpq(m) => m.prune(now),
        }
    }

    /// The SJ-Tree matcher; `None` for an RPQ.
    fn matcher(&self) -> Option<&SjTreeMatcher> {
        match self {
            QueryExec::Single(m) => Some(m),
            QueryExec::Rpq(_) => None,
        }
    }

    /// The registered query's name, whichever class it is.
    fn query_name(&self) -> &str {
        match self {
            QueryExec::Single(m) => m.plan().query.name(),
            QueryExec::Rpq(m) => m.query().name(),
        }
    }
}

/// The live state of one registered query.
struct QueryState {
    exec: QueryExec,
    /// Stream time when the query was paused (`None` while running), for
    /// operators; checkpoints carry it verbatim.
    paused_at: Option<Timestamp>,
    /// Arrival-order boundaries of the intervals this query has observed:
    /// registration and every resume push an opening bound (the graph's
    /// ingested-edge count), every pause pushes a closing bound — so an odd
    /// length means the query is currently observing, and this list is the
    /// only record of whether it is paused ([`QueryState::is_paused`];
    /// trimming drops whole closed pairs only). An edge was shown to
    /// the query iff its id falls in one of the `[open, close)` intervals.
    /// Checkpoint restore replays exactly these intervals to the query;
    /// timestamps alone could not cut a replay exactly (ties and bounded
    /// skew straddle the boundaries), and a single pause bound could not
    /// represent mid-stream registration or pause/resume cycles.
    observed: Vec<u64>,
    /// Index-dispatched events accounted over closed active intervals: a
    /// subgraph query's `edges_processed` (its searches run inside shared
    /// entries, its matcher only receives remapped matches).
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
    /// The query's variable names in query-vertex order (`src`, `dst` for
    /// an RPQ), built once at registration and shared by every event.
    names: Vec<SharedStr>,
}

impl QueryState {
    /// Paused iff the last observation interval is closed.
    fn is_paused(&self) -> bool {
        self.observed.len().is_multiple_of(2)
    }
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

/// Renders a panic payload for a quarantine record: panics raised with a
/// string (the overwhelmingly common case — `panic!`, `expect`, assertion
/// macros) keep their message; anything else gets a placeholder.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Delivers one match event to the query's subscriptions and the call-level
/// sink — the single emission point of both query classes.
///
/// Subscriber deliveries are supervised (`catch_unwind` plus the
/// `sink-delivery` failpoint): a failing sink is quarantined in place and
/// the remaining subscribers — and the call-level sink — still receive the
/// event. The call-level sink is *not* supervised: it lives on the caller's
/// own stack, so a panic there is the caller's to handle.
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

/// The four durable-delivery counters summed over `durables`: attempts,
/// retries, recoveries and cursor lag, in the order of their
/// [`QueryMetrics`] and [`EngineMetrics`] fields.
fn delivery_counters<'a>(durables: impl IntoIterator<Item = &'a DurableSub>) -> [u64; 4] {
    (durables.into_iter()).fold([0; 4], |[a, r, v, l], d| {
        [a + d.attempts, r + d.retries, v + d.recoveries, l + d.lag()]
    })
}

/// The StreamWorks continuous-query engine.
pub struct ContinuousQueryEngine {
    config: EngineConfig,
    graph: DynamicGraph,
    /// The graph's summary, built on the first read after an ingest call
    /// and kept until the next one (see [`Self::summary`]).
    summary: OnceLock<GraphSummary>,
    /// Query slots, indexed by `QueryId`.
    queries: Vec<QuerySlot>,
    /// Indices of vacant slots, re-occupied (under a fresh generation) before
    /// the slot vector grows.
    free_slots: Vec<u32>,
    /// Slot indices of live, unpaused regular path queries in query-id
    /// order — the queries the per-event loop walks. Rebuilt on every
    /// lifecycle change (register / deregister / pause / resume).
    rpq_dispatch: Vec<u32>,
    /// The multi-query sharing layer, through which every subgraph query is
    /// matched: their SJ-Tree nodes — leaves and maximal common subtrees
    /// alike — interned by lifted canonical form, so each distinct form's
    /// searches and join climb run once per event and fan out to every
    /// subscriber, constant-dispatched and observation-gated per subscriber.
    shared: SharedIndex,
    /// Reusable buffer of the current event's fan-out work.
    delivery_scratch: Vec<Delivery>,
    /// Monotonic token generator for subscription ids.
    next_subscription: u64,
    /// Durable subscriptions across all live queries, so the end-of-ingest
    /// delivery pass costs nothing while there are none. Kept at
    /// `subscribe_durable`, `unsubscribe`, `deregister` and checkpoint
    /// restore (`attach_durable`).
    live_durables: usize,
    /// Edge events absorbed over the engine's lifetime — the sequence number
    /// telemetry samples and keys its spans by.
    events_ingested: u64,
    events_emitted: u64,
    /// Reusable buffer for complete matches produced per event.
    match_scratch: Vec<PartialMatch>,
    /// Reusable buffer for RPQ path matches produced per event.
    rpq_scratch: Vec<RpqPathMatch>,
    /// The shared keys of vertices emitted matches bind, by vertex slot.
    keys: KeyCache,
    /// `Some` while [`crate::TelemetryLevel::Sampled`]: the stage
    /// histograms plus the span ring. `None` means every instrumentation
    /// site reduces to one branch. Boxed to keep the engine's inline size.
    telemetry: Option<Box<Telemetry>>,
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
        });
        ContinuousQueryEngine {
            summary: OnceLock::new(),
            graph,
            queries: Vec::new(),
            free_slots: Vec::new(),
            rpq_dispatch: Vec::new(),
            shared: SharedIndex::default(),
            delivery_scratch: Vec::new(),
            next_subscription: 0,
            live_durables: 0,
            events_ingested: 0,
            events_emitted: 0,
            match_scratch: Vec::new(),
            rpq_scratch: Vec::new(),
            keys: KeyCache::default(),
            telemetry: match config.telemetry_level {
                TelemetryLevel::Off => None,
                TelemetryLevel::Sampled => {
                    Some(Box::new(Telemetry::new(config.telemetry_sample_every)))
                }
            },
            config,
        }
    }

    /// Builds the in-process matcher of a plan. `fed` are the nodes the
    /// sharing index feeds (see [`SharedIndex::subscribe`]).
    fn build_exec(&self, plan: QueryPlan, fed: &[SjNodeId]) -> QueryExec {
        QueryExec::Single(SjTreeMatcher::fed_at(plan, &self.graph, fed))
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Read access to the data graph.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// The summary of the graph as it stands ([`GraphSummary::of`]): built
    /// on the first read after an ingest call and cached until the next one,
    /// so the per-event path pays nothing for it. Planning
    /// ([`Self::register_query`], [`Self::replan`]) reads it too.
    pub fn summary(&self) -> &GraphSummary {
        self.summary.get_or_init(|| GraphSummary::of(&self.graph))
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
    /// a crashed run raced in after the snapshot. A destination shorter
    /// than the cursor (evidence of external tampering or loss) surfaces as
    /// [`EngineError::CorruptCheckpoint`]; transient connection problems
    /// are left for the first delivery attempt to retry.
    pub(crate) fn attach_durable(
        &mut self,
        handle: QueryHandle,
        cursor: &DeliveryCursor,
    ) -> Result<(), EngineError> {
        self.next_subscription = self.next_subscription.max(cursor.token + 1);
        let mut sub = DurableSub::from_cursor(cursor);
        match cursor.spec.connect(cursor.cursor) {
            Ok(target) => sub.target = Some(target),
            Err(ConnectError::Corrupt { offset, detail }) => {
                return Err(EngineError::CorruptCheckpoint {
                    offset: Some(offset),
                    detail,
                });
            }
            Err(ConnectError::Transient(_)) => {}
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
    /// The plan's SJ-Tree is interned into the engine's sharing index at
    /// this point, which is how the query is matched from then on: the tree
    /// is walked top-down for maximal subtrees matching an already-interned
    /// (or advertised) form — those nodes' whole join climbs are shared —
    /// down to the leaves, so a leaf isomorphic to a primitive some
    /// registered query already watches shares one anchored local search
    /// per event instead of running its own.
    ///
    /// # Panics
    ///
    /// Panics if a leaf of the plan is not a connected primitive, which no
    /// plan from a [`Planner`] or from [`crate::EngineCheckpoint::load`] has
    /// (see `SjTreeShape::validate`).
    pub fn register_plan(&mut self, plan: QueryPlan) -> QueryHandle {
        self.extend_retention(plan.query.window());
        let index = self.alloc_slot();
        let fed = self.shared.subscribe(index as u32, &plan, &self.graph);
        let names = (plan.query.vertices())
            .map(|v| v.name.as_str().into())
            .collect();
        let state = QueryState {
            names,
            exec: self.build_exec(plan, &fed),
            paused_at: None,
            observed: vec![self.graph.ingested_edge_count()],
            shared_edges_accum: 0,
            shared_edges_base: self.shared.events(),
            subscribers: Vec::new(),
            durables: Vec::new(),
        };
        self.queries[index].state = Some(state);
        self.rebuild_dispatch();
        QueryHandle::new(QueryId(index), self.queries[index].generation)
    }

    /// Plans a query the way [`Planner::plan`] does (the cost-based strategy,
    /// left-deep) using the engine's current summaries, then registers it.
    pub fn register_query(&mut self, query: QueryGraph) -> Result<QueryHandle, EngineError> {
        let plan = Planner::new()
            .with_statistics(self.summary(), &self.graph)
            .plan(query)?;
        Ok(self.register_plan(plan))
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
            .with_statistics(self.summary(), &self.graph)
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
    /// pause/resume, deregistration, subscriptions, checkpoint/restore.
    /// [`Self::plan`] and [`Self::matcher`] do not apply to an RPQ (they
    /// return [`EngineError::WrongQueryKind`]), and
    /// [`Self::replan`] is a documented no-op: an RPQ's DFA is canonical, so
    /// there is no decomposition to revisit.
    pub fn register_rpq(&mut self, rpq: RpqQuery) -> QueryHandle {
        self.extend_retention(rpq.window());
        let index = self.alloc_slot();
        let state = QueryState {
            names: vec!["src".into(), "dst".into()],
            exec: QueryExec::Rpq(Box::new(RpqMatcher::new(rpq, &self.graph))),
            paused_at: None,
            observed: vec![self.graph.ingested_edge_count()],
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
    /// in their join stores, which reclaim the expired ones when a filing
    /// finds them full (or on [`Self::prune_now`]); the per-event cost of a
    /// paused query is zero because the dispatch table is rebuilt without it.
    /// Pausing an already-paused query is a no-op.
    pub fn pause(&mut self, handle: QueryHandle) -> Result<(), EngineError> {
        let now = self.graph.now();
        let bound = self.graph.ingested_edge_count();
        let live_horizon = self.observed_live_horizon();
        let shared_events = self.shared.events();
        let state = self.state_mut(handle)?;
        if !state.is_paused() {
            state.paused_at = Some(now);
            state.observed.push(bound);
            trim_observed(&mut state.observed, live_horizon);
            state.shared_edges_accum += shared_events - state.shared_edges_base;
            self.shared.set_active(handle.id().0 as u32, false);
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
        if state.is_paused() {
            state.paused_at = None;
            state.observed.push(bound);
            trim_observed(&mut state.observed, live_horizon);
            state.shared_edges_base = shared_events;
            self.shared.set_active(handle.id().0 as u32, true);
            self.rebuild_dispatch();
        }
        Ok(())
    }

    /// Whether the query is currently paused.
    pub fn is_paused(&self, handle: QueryHandle) -> Result<bool, EngineError> {
        Ok(self.state(handle)?.is_paused())
    }

    /// Stream time at which the query was paused, `None` while it is
    /// running. [`crate::EngineCheckpoint`] carries it verbatim; the restore
    /// replay is cut by the observation intervals, not by this timestamp.
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
    /// statistics and replaces its matcher. Subscriptions and the pause state
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
            .with_statistics(self.summary(), &self.graph)
            .tree_kind(tree_kind)
            .plan_with(query, strategy)?;
        // Re-intern under the new plan: the old subscriptions are released
        // (freeing entries this query was the last subscriber of) and the
        // new decomposition subscribes afresh.
        let id = handle.id().0 as u32;
        self.shared.unsubscribe(id);
        let fed = self.shared.subscribe(id, &plan, &self.graph);
        let shared_events = self.shared.events();
        let bound = self.graph.ingested_edge_count();
        let exec = self.build_exec(plan, &fed);
        let state = self.state_mut(handle)?;
        state.exec = exec;
        state.shared_edges_accum = 0;
        state.shared_edges_base = shared_events;
        // The old plan's partial matches are discarded (see the method
        // docs), so the observed-replay window restarts here too: a
        // checkpoint restore must not reconstruct partials from edges whose
        // state this replan just dropped.
        let paused = state.is_paused();
        state.observed.clear();
        if paused {
            // Subscribing activates; a paused query stays out of fan-out.
            self.shared.set_active(id, false);
        } else {
            state.observed.push(bound);
        }
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

    /// Metrics of a registered query. A subgraph query's searches run inside
    /// the sharing index's entries, so the index's share is folded in —
    /// `edges_processed` counts every event dispatched while the query was
    /// active, and `local_search_candidates` attributes each shared search's
    /// work to every query it served — and the counters read the same as
    /// for the query alone in an engine. (One exception: a *lifted* entry
    /// searches once for all the constants its subscribers watch, and each
    /// of them is charged that whole walk, not only the part its own
    /// constant caused.)
    pub fn metrics(&self, handle: QueryHandle) -> Result<QueryMetrics, EngineError> {
        let state = self.state(handle)?;
        let mut m = state.exec.metrics(self.graph.now());
        if state.exec.plan().is_some() {
            let mut shared_edges = state.shared_edges_accum;
            if !state.is_paused() {
                shared_edges += self.shared.events() - state.shared_edges_base;
            }
            m.edges_processed += shared_edges;
            m.local_search_candidates += self.shared.slot_candidates(handle.id().0 as u32);
        }
        m.sink_events_dropped += state.durables.iter().map(|d| d.dropped).sum::<u64>();
        [
            m.delivery_attempts,
            m.delivery_retries,
            m.delivery_recoveries,
            m.cursor_lag,
        ] = delivery_counters(&state.durables);
        Ok(m)
    }

    /// Engine-level counters of the multi-query sharing subsystem: distinct
    /// vs. subscribed primitives and subtrees (the dedup ratios), searches
    /// and join climbs run and saved, embeddings found and fanned out, and
    /// lifted-dispatch hits (all zero while no subgraph query is
    /// registered), plus the data graph's live-vertex and vertex-slot gauges.
    pub fn engine_metrics(&self) -> EngineMetrics {
        let mut m = self.shared.metrics();
        let graph = self.graph.stats();
        m.live_vertices = graph.live_vertices;
        m.vertex_slots = graph.vertex_slots;
        m.key_cache_entries = self.keys.len() as u64;
        [
            m.delivery_attempts,
            m.delivery_retries,
            m.delivery_recoveries,
            m.cursor_lag,
        ] = delivery_counters(
            (self.queries.iter())
                .filter_map(QuerySlot::live)
                .flat_map(|s| &s.durables),
        );
        m
    }

    /// Metrics of every live query, in the order of [`Self::handles`].
    pub fn all_metrics(&self) -> Vec<(QueryHandle, QueryMetrics)> {
        self.handles()
            .into_iter()
            .filter_map(|h| self.metrics(h).ok().map(|m| (h, m)))
            .collect()
    }

    /// The unified observability snapshot: per-stage latency histograms,
    /// every live query's counters, engine-wide sharing counters, live
    /// durable-delivery state and the recent trace spans — everything the
    /// CLI's `stats` command and `--metrics-json` flag export.
    ///
    /// Stage histograms and spans are empty while
    /// [`crate::TelemetryLevel::Off`] (the counters sections are always
    /// populated). Each subscription's `lag` is recomputed from its live
    /// outbox depth at snapshot time, so a quarantined subscription's
    /// backlog keeps growing here instead of freezing at the value its last
    /// successful drain cached.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let mut queries = Vec::new();
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
                    paused: state.is_paused(),
                    metrics,
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
        let t = self.telemetry.as_deref();
        TelemetrySnapshot {
            level: self.config.telemetry_level.name().to_string(),
            sample_every: self.config.telemetry_sample_every,
            events_ingested: self.events_ingested,
            events_emitted: self.events_emitted,
            stages: t.map(Telemetry::stage_snapshots).unwrap_or_default(),
            queries,
            engine: self.engine_metrics(),
            delivery,
            spans: t.map(Telemetry::spans).unwrap_or_default(),
        }
    }

    /// Captures the live stage histograms for a checkpoint; `None` while
    /// telemetry is off.
    pub(crate) fn capture_telemetry(&self) -> Option<TelemetryCheckpoint> {
        self.telemetry.as_deref().map(TelemetryCheckpoint::capture)
    }

    /// Detaches the telemetry so checkpoint replay is not re-measured (the
    /// replayed events were already measured by the engine that wrote the
    /// checkpoint). Pair with [`Self::resume_telemetry`].
    pub(crate) fn suspend_telemetry(&mut self) -> Option<Box<Telemetry>> {
        self.telemetry.take()
    }

    /// Puts back the telemetry taken by [`Self::suspend_telemetry`] and
    /// merges the restored checkpoint's captured stage counters into it.
    pub(crate) fn resume_telemetry(
        &mut self,
        mut telemetry: Option<Box<Telemetry>>,
        restored: Option<&TelemetryCheckpoint>,
    ) {
        if let (Some(t), Some(cp)) = (telemetry.as_deref_mut(), restored) {
            t.absorb(cp);
        }
        self.telemetry = telemetry;
    }

    /// Partial matches currently stored across every live query's
    /// `SharedJoinStore`s — the figure that drops to zero for a query's share when
    /// it is deregistered.
    pub fn live_partial_matches(&self) -> u64 {
        self.queries
            .iter()
            .filter_map(QuerySlot::live)
            .map(|s| s.exec.metrics(self.graph.now()).partial_matches_live)
            .sum()
    }

    /// Direct access to a registered matcher (used by experiments that inspect
    /// per-node match collections).
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
    /// passes), on the ingest thread and in stream order. The sink is
    /// usually a closure, e.g. `move |m: MatchEvent| { let _ = tx.send(m); }`
    /// over a `std::sync::mpsc` sender, or one that bumps a shared
    /// `AtomicU64`. The engine owns it from here on; a sink that panics is
    /// quarantined (see [`Self::subscription_health`]). For bounded delivery
    /// with a declared overflow policy and counted drops, see
    /// [`Self::subscribe_durable_with`].
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
        let start = self.telemetry.as_ref().map(|t| t.now_ns());
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
        if let (Some(t), Some(start)) = (self.telemetry.as_deref_mut(), start) {
            t.observe(Stage::DeliveryFlush, t.now_ns().saturating_sub(start));
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
        self.rpq_dispatch.clear();
        for (i, slot) in self.queries.iter().enumerate() {
            if let Some(state) = &slot.state {
                if !state.is_paused() && matches!(state.exec, QueryExec::Rpq(_)) {
                    self.rpq_dispatch.push(i as u32);
                }
            }
        }
    }

    fn slot_mut(&mut self, handle: QueryHandle) -> Result<&mut QuerySlot, EngineError> {
        match self.queries.get_mut(handle.id().0) {
            Some(slot) if slot.generation == handle.generation() && slot.state.is_some() => {
                Ok(slot)
            }
            _ => Err(EngineError::StaleHandle(handle)),
        }
    }

    fn state(&self, handle: QueryHandle) -> Result<&QueryState, EngineError> {
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
        // Matcher state lives up to a window, whatever the retention.
        self.graph.reserve_ids_for(window);
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
    /// one at a time; they amortise the per-event overheads (one sink and one
    /// scratch set for the whole batch).
    ///
    /// # Errors
    ///
    /// None today: every query runs in-process and nothing in the call can
    /// fail. The `Result` is kept so that a later failure mode is not a
    /// breaking change.
    pub fn ingest<B: Ingest>(&mut self, batch: B) -> Result<Vec<MatchEvent>, EngineError> {
        let mut matches = Vec::new();
        self.ingest_with(batch, &mut matches)?;
        Ok(matches)
    }

    /// Like [`Self::ingest`], but delivers matches to `sink` instead of
    /// collecting them. Returns the number of matches emitted (fan-out to
    /// subscriptions does not multiply the count).
    pub fn ingest_with<B: Ingest>(
        &mut self,
        batch: B,
        sink: &mut dyn EventSink,
    ) -> Result<usize, EngineError> {
        // Entry failpoint: fires before any state is touched, so a `Panic`
        // action unwinds with the engine still consistent. An `Error` action
        // is meaningless here (nothing has been mutated yet) and is ignored;
        // `Delay` exercises ingest-side latency.
        let _ = crate::failpoint::fire_at("ingest-front", 0);
        self.summary.take();
        let start_seq = self.events_ingested;
        let mut emitted = 0usize;
        batch.drive(&mut |ev| emitted += self.process_event_inner(ev, sink));
        // The batch-boundary stages below cover the whole call; they are
        // timed when the call's sequence range contains a sampled event, and
        // that event's sequence number keys their spans.
        let batch_sample = (self.telemetry.as_ref())
            .and_then(|t| t.first_sampled(start_seq, self.events_ingested));
        // Durable subscribers buffer their matches in per-subscription
        // outboxes during dispatch; the end of the ingest call is the one
        // point where delivery (with retry/backoff) is attempted.
        let flush_start = batch_sample
            .and(self.telemetry.as_deref())
            .map(Telemetry::now_ns);
        self.drain_deliveries();
        if let (Some(t), Some(seq), Some(start)) =
            (self.telemetry.as_deref_mut(), batch_sample, flush_start)
        {
            t.record(
                seq,
                Stage::DeliveryFlush,
                start,
                t.now_ns().saturating_sub(start),
            );
        }
        Ok(emitted)
    }

    fn process_event_inner(&mut self, event: &EdgeEvent, sink: &mut dyn EventSink) -> usize {
        let seq = self.events_ingested;
        self.events_ingested += 1;
        // A sampled event copies the telemetry epoch, times its stages into
        // locals and writes them once it is done; for every other event each
        // instrumentation site below is one branch on a `None`.
        let epoch = self.telemetry.as_ref().and_then(|t| t.sample(seq));
        let now = || epoch.map(ns_since);
        let ingest_start = now();
        // 1. Update the graph. (The summary is built from it when read.)
        let result = self.graph.ingest(event);
        // The new edge is borrowed from the graph for the whole event —
        // matchers and sinks all take the graph immutably, so no clone is
        // needed. `None` means the event arrived so late that it is already
        // outside the retention horizon: the graph expired it on ingest. It
        // cannot take part in any within-window match (every edge it could
        // combine with has expired too).
        let edge = self.graph.edge(result.edge);
        if let (Some(t), Some(start), Some(end)) =
            (self.telemetry.as_deref_mut(), ingest_start, now())
        {
            t.record(seq, Stage::IngestFront, start, end.saturating_sub(start));
        }
        let Some(edge) = edge else {
            return 0;
        };

        // 2. Matching. Every shared entry the edge can reach runs its
        // anchored searches and join climb once, and each resulting match is
        // fanned out — constant-dispatched, observation-gated and remapped
        // through the subscriber's vertex permutation — to the subscribing
        // queries' nodes, in (slot, node) order, where each query's own join
        // climb continues. Then every live, unpaused RPQ runs its matcher.
        //
        // Telemetry: a sampled event's search work, climb work and RPQ
        // expiry drains are accumulated separately across both steps below
        // and recorded once each, so one edge contributes one observation
        // per stage no matter how many queries it touched.
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
        if !self.shared.is_empty() {
            let t0 = now();
            self.shared.search_edge(graph, edge);
            let t1 = now();
            lap(&mut search_ns, t0, t1);
            let mut deliveries = std::mem::take(&mut self.delivery_scratch);
            deliveries.clear();
            self.shared.collect_deliveries(&mut deliveries);
            deliveries.sort_unstable();
            for d in &deliveries {
                let slot = &mut self.queries[d.0 as usize];
                let handle = QueryHandle::new(QueryId(d.0 as usize), slot.generation);
                let state = slot
                    .state
                    .as_mut()
                    .expect("the fan-out only lists live queries");
                let QueryExec::Single(matcher) = &mut state.exec else {
                    unreachable!("RPQs never subscribe to the sharing index")
                };
                complete.clear();
                self.shared.fan_out(d, &state.observed, |node, m| {
                    matcher.absorb(node, m, graph.now(), &mut complete)
                });
                let name = matcher.plan().query.name();
                for m in complete.drain(..) {
                    let event = MatchEvent::of_match(
                        handle,
                        name,
                        &m,
                        |qv| state.names[qv.0].clone(),
                        |v| self.keys.key(graph, v),
                    );
                    deliver_event(
                        event,
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
        for &idx in &self.rpq_dispatch {
            let slot = &mut self.queries[idx as usize];
            let handle = QueryHandle::new(QueryId(idx as usize), slot.generation);
            let state = slot
                .state
                .as_mut()
                .expect("dispatch table only lists live queries");
            let QueryExec::Rpq(rpq) = &mut state.exec else {
                unreachable!("the RPQ dispatch table lists only RPQs")
            };
            // Path matches are materialised as events binding src/dst. The
            // expiry drain is timed as the expiry sweep; the delta expansion
            // is all anchored search — no join climb — so that time lands
            // there.
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
                let event = MatchEvent::from_path(handle, name, &state.names, graph, &p, |v| {
                    self.keys.key(graph, v)
                });
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
        }
        if let (Some(t), Some(start)) = (self.telemetry.as_deref_mut(), match_start) {
            for (stage, ns) in [
                (Stage::LocalSearch, search_ns),
                (Stage::JoinClimb, climb_ns),
                (Stage::ExpirySweep, expiry_ns),
            ] {
                if let Some(ns) = ns {
                    t.record(seq, stage, start, ns);
                }
            }
        }
        self.match_scratch = complete;
        self.events_emitted += emitted as u64;
        emitted
    }

    /// Prunes expired partial matches in every live matcher and shared
    /// entry immediately (paused queries included — their stale partials
    /// keep expiring). This reclaims memory only: no probe sees an expired
    /// partial match, swept or not. The engine never calls it: a full join
    /// store reclaims what it hides before it grows, and each RPQ expires
    /// its own trees when dispatched.
    pub fn prune_now(&mut self) {
        // Timed whenever telemetry is on rather than per-event sampled. No
        // span: a sweep covers a window, not one sampled edge.
        let start = self.telemetry.as_ref().map(|t| t.now_ns());
        let now = self.graph.now();
        for slot in &mut self.queries {
            if let Some(state) = &mut slot.state {
                state.exec.prune(now);
            }
        }
        self.shared.prune(now);
        if let (Some(t), Some(start)) = (self.telemetry.as_deref_mut(), start) {
            t.observe(Stage::ExpirySweep, t.now_ns().saturating_sub(start));
        }
    }
}

impl std::fmt::Debug for ContinuousQueryEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContinuousQueryEngine")
            .field("queries", &self.query_count())
            .field("graph", &self.graph.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{mpsc, Arc};
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

    /// Ten windows of ever-new sources into fixed hubs through one subgraph
    /// query and one RPQ: the vertex slots (which bound the key index), the
    /// live vertices and the RPQ's per-vertex index after window 10 stay
    /// within 1.5× their size after window 2. (`streamworks-graph` has the
    /// same check on a bare graph, the key index included.)
    #[test]
    fn memory_stays_bounded_over_ten_windows_of_new_vertices() {
        let mut engine = engine();
        let window = Duration::from_secs(60);
        engine.register_query(common_keyword_query(window)).unwrap();
        let rpq = engine
            .register_rpq_dsl("RPQ reach WINDOW 60s PATH mentions located")
            .unwrap();
        // 6 new articles a second, each mentioning one of 64 keywords; one
        // keyword a second is located in one of 2 places. Evicted slots are
        // reused once their quarantine has passed.
        let mut sizes = Vec::new();
        for t in 0..10 * 60 {
            for j in 0..6 {
                let (article, k) = (format!("a{t}-{j}"), format!("k{}", (7 * t + j) % 64));
                engine
                    .ingest(&ev(&article, "Article", &k, "Keyword", "mentions", t))
                    .unwrap();
            }
            let (k, place) = (format!("k{}", t % 64), format!("p{}", t % 2));
            engine
                .ingest(&ev(&k, "Keyword", &place, "Place", "located", t))
                .unwrap();
            if (t + 1) % 60 == 0 {
                let stats = engine.graph_stats();
                let QueryExec::Rpq(m) = &engine.state(rpq).unwrap().exec else {
                    unreachable!("registered as an RPQ")
                };
                let gauges = engine.telemetry_snapshot().engine;
                assert_eq!(
                    (gauges.vertex_slots, gauges.live_vertices),
                    (stats.vertex_slots, stats.live_vertices)
                );
                sizes.push((
                    stats.vertex_slots,
                    stats.live_vertices,
                    m.index_len() as u64,
                ));
            }
        }
        let (two, ten) = (sizes[1], sizes[9]);
        assert!(two.0 > 700 && two.1 > 400 && two.2 > 400, "{two:?}");
        assert!(2 * ten.0 <= 3 * two.0, "vertex slots {two:?} -> {ten:?}");
        assert!(2 * ten.1 <= 3 * two.1, "live vertices {two:?} -> {ten:?}");
        assert!(2 * ten.2 <= 3 * two.2, "RPQ index {two:?} -> {ten:?}");
        assert!(engine.graph_stats().vertices > 3_600);
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
        let mut engine = engine();
        let handle = engine
            .register_query_with(
                common_keyword_query(Duration::from_secs(5)),
                &streamworks_query::CostBasedOrdered {
                    max_primitive_size: 1,
                },
                TreeShapeKind::LeftDeep,
            )
            .unwrap();
        // A long stream of articles each mentioning their own keyword: no
        // matches, and partial matches should be pruned as time advances.
        for i in 0..2_000 {
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
        // Nothing sweeps: the full store reclaims what it hides.
        let metrics = engine.metrics(handle).unwrap();
        assert!(metrics.partial_matches_expired > 0);
        // Exactly the window's survivors, one per leaf and event of the last
        // six seconds (a keyword comes back only after seven).
        assert_eq!(metrics.partial_matches_live, 2 * 6);
    }

    #[test]
    fn replan_uses_learned_statistics_and_keeps_matching() {
        use streamworks_query::{CostBasedOrdered, ManualDecomposition};
        let mut engine = engine();
        // Registered with the frequency-blind plan: single edges in id order.
        let query = common_keyword_query(Duration::from_hours(1));
        let blind = ManualDecomposition::new(query.edge_ids().map(|e| vec![e]).collect());
        let handle = engine
            .register_query_with(query, &blind, TreeShapeKind::LeftDeep)
            .unwrap();
        assert_eq!(engine.plan(handle).unwrap().strategy, "manual");

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
                &CostBasedOrdered::default(),
                TreeShapeKind::LeftDeep,
            )
            .unwrap();
        assert_eq!(engine.plan(handle).unwrap().strategy, "cost-based");
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
            .replan(bogus, &CostBasedOrdered::default(), TreeShapeKind::LeftDeep)
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
        let keyword_count = Arc::new(AtomicU64::new(0));
        let counter = keyword_count.clone();
        engine
            .subscribe(keyword_q, move |_: MatchEvent| {
                counter.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        let (tx, location_feed) = mpsc::channel();
        let location_sub = engine
            .subscribe(location_q, move |m: MatchEvent| {
                let _ = tx.send(m);
            })
            .unwrap();
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
        assert_eq!(keyword_count.load(Ordering::Relaxed), 2);
        let location_events: Vec<MatchEvent> = location_feed.try_iter().collect();
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
        assert!(location_feed.try_recv().is_err());
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
                telemetry_sample_every: 0,
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
}
