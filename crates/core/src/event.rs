//! Match events and event sinks.
//!
//! When the SJ-Tree matcher assembles a complete match inside the query
//! window, the engine emits a [`MatchEvent`]. Sinks decouple the engine from
//! what the application does with events (collect them, forward them over a
//! channel to a UI thread, call back into user code) — the library analogue of
//! the demo's map/table/graph views.
//!
//! Sinks are always invoked on the engine's ingest thread, as each match
//! completes, so they receive matches in stream order. Sink
//! implementations therefore need no synchronisation of their own (the
//! shareable observers — [`CountingSink`]/[`MatchCounter`] and
//! [`BufferingSink`]/[`MatchBuffer`] — synchronise only because their
//! *observer* half may live on another thread).

use crate::binding::PartialMatch;
use crate::handle::QueryHandle;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Deref;
use std::sync::{mpsc, Arc};
use streamworks_graph::{Duration, DynamicGraph, EdgeId, Timestamp, VertexId};
use streamworks_query::{QueryGraph, QueryVertexId};

/// Identifier assigned to a registered query by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct QueryId(pub usize);

/// An immutable string shared by reference count: a variable name or a
/// vertex key that many match events carry. Cloning one bumps a count
/// instead of copying the text. It reads as a `&str` (`Deref`,
/// [`Self::as_str`], `Display`), compares equal to `&str` and `String`, and
/// serialises as a plain JSON string, so an event's JSON and
/// [`MatchEvent::render`] line read as they did with `String` fields.
#[derive(Clone, PartialEq, Eq)]
pub struct SharedStr(Arc<str>);

impl SharedStr {
    /// The text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for SharedStr {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for SharedStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for SharedStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl From<&str> for SharedStr {
    fn from(s: &str) -> Self {
        SharedStr(Arc::from(s))
    }
}

impl From<String> for SharedStr {
    fn from(s: String) -> Self {
        SharedStr(Arc::from(s))
    }
}

impl PartialEq<&str> for SharedStr {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for SharedStr {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other
    }
}

impl Serialize for SharedStr {
    fn to_value(&self) -> serde::Value {
        self.as_str().to_value()
    }
}

impl Deserialize for SharedStr {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        String::from_value(v).map(SharedStr::from)
    }
}

/// One binding of a query variable in a match event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoundVertex {
    /// The query variable name, shared by every event of its query.
    pub variable: SharedStr,
    /// The data vertex bound to it.
    pub vertex: VertexId,
    /// The data vertex's external key (e.g. IP address, article URI).
    pub key: SharedStr,
}

/// A complete match of a registered query, reported as it is discovered.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchEvent {
    /// Which registered query matched.
    pub query: QueryId,
    /// Slot generation of the emitting query. Query ids are recycled by
    /// deregister/register churn; the generation distinguishes matches of a
    /// slot's previous occupants from its current one — compare via
    /// [`MatchEvent::handle`] rather than `query` when queries come and go.
    pub query_generation: u32,
    /// The query's name.
    pub query_name: String,
    /// Stream time at which the match completed (timestamp of its latest edge).
    pub at: Timestamp,
    /// Span `τ(g)` of the match.
    pub span: Duration,
    /// Variable bindings, in query-vertex order.
    pub bindings: Vec<BoundVertex>,
    /// The data edges realising the query edges, in query-edge order.
    pub edges: Vec<EdgeId>,
}

/// The shared keys of the data vertices that emitted matches bind, by
/// vertex slot, filled as matches name them.
///
/// An entry is reused only while its text still equals the graph's key for
/// the slot: a slot the graph recycled for another key gets a new entry on
/// its next use. The table is indexed by [`VertexId`], so it is never longer
/// than the graph's slot vector.
#[derive(Debug, Default)]
pub(crate) struct KeyCache {
    keys: Vec<Option<SharedStr>>,
}

impl KeyCache {
    /// The shared key of `v` as `graph` names it now.
    pub(crate) fn key(&mut self, graph: &DynamicGraph, v: VertexId) -> SharedStr {
        let Some(text) = graph.vertex_key(v) else {
            return SharedStr::from(UNKNOWN_KEY);
        };
        if v.index() >= self.keys.len() {
            self.keys.resize(v.index() + 1, None);
        }
        match &mut self.keys[v.index()] {
            Some(key) if key.as_str() == text => key.clone(),
            entry => entry.insert(SharedStr::from(text)).clone(),
        }
    }

    /// Entries held: at most the graph's vertex slots.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }
}

/// What an event shows as the key of a vertex the graph no longer holds.
const UNKNOWN_KEY: &str = "<unknown>";

impl MatchEvent {
    /// Builds an event from a root-level partial match, resolving variable
    /// names through `query` and vertex keys through `graph`. Each call
    /// allocates its own names and keys; the engine emits through shared
    /// ones instead.
    pub fn from_match(
        handle: QueryHandle,
        query: &QueryGraph,
        graph: &DynamicGraph,
        m: &PartialMatch,
    ) -> Self {
        Self::of_match(
            handle,
            query.name(),
            m,
            |qv| query.vertex(qv).name.as_str().into(),
            |v| graph.vertex_key(v).unwrap_or(UNKNOWN_KEY).into(),
        )
    }

    /// Builds an event from a root-level partial match, with `name` giving
    /// a query vertex's variable name and `key` a data vertex's key.
    pub(crate) fn of_match(
        handle: QueryHandle,
        query_name: &str,
        m: &PartialMatch,
        mut name: impl FnMut(QueryVertexId) -> SharedStr,
        key: impl FnMut(VertexId) -> SharedStr,
    ) -> Self {
        Self::build(
            handle,
            query_name,
            (m.latest, m.span()),
            m.binding.iter().map(|(qv, dv)| (name(qv), dv)),
            key,
            m.edges.iter().map(|(_, e)| *e).collect(),
        )
    }

    /// Builds an event from an RPQ path match: `names` (`src`, `dst`) bind
    /// the path endpoints, the witness edges are in path order, `at` is the
    /// freshest witness timestamp and `span` the witness's temporal extent.
    /// Witness edges are live at emission time (the matcher emits only
    /// inside the window), so their timestamps resolve against the graph.
    pub(crate) fn from_path(
        handle: QueryHandle,
        query_name: &str,
        names: &[SharedStr],
        graph: &DynamicGraph,
        path: &crate::rpq::RpqPathMatch,
        key: impl FnMut(VertexId) -> SharedStr,
    ) -> Self {
        let mut earliest = Timestamp(i64::MAX);
        let mut latest = Timestamp(i64::MIN);
        for &e in &path.edges {
            if let Some(edge) = graph.edge(e) {
                earliest = earliest.min(edge.timestamp);
                latest = latest.max(edge.timestamp);
            }
        }
        if earliest > latest {
            // Defensive: an empty or fully-expired witness collapses to now.
            earliest = graph.now();
            latest = earliest;
        }
        Self::build(
            handle,
            query_name,
            (latest, latest.since(earliest)),
            names.iter().cloned().zip([path.source, path.target]),
            key,
            path.edges.clone(),
        )
    }

    /// The one constructor behind [`Self::of_match`] and [`Self::from_path`]:
    /// each binding is a variable name from `bound` and the key `key` gives.
    fn build(
        handle: QueryHandle,
        query_name: &str,
        (at, span): (Timestamp, Duration),
        bound: impl Iterator<Item = (SharedStr, VertexId)>,
        mut key: impl FnMut(VertexId) -> SharedStr,
        edges: Vec<EdgeId>,
    ) -> Self {
        // One allocation: the upper bound is the query's vertex count.
        let mut bindings = Vec::with_capacity(bound.size_hint().1.unwrap_or(0));
        bindings.extend(bound.map(|(variable, vertex)| BoundVertex {
            variable,
            vertex,
            key: key(vertex),
        }));
        MatchEvent {
            query: handle.id(),
            query_generation: handle.generation(),
            query_name: query_name.to_owned(),
            at,
            span,
            bindings,
            edges,
        }
    }

    /// The handle of the query that emitted this event — equal to the handle
    /// `register_*` returned for it, and never equal to the handle of a
    /// different query that later recycled the same id.
    pub fn handle(&self) -> QueryHandle {
        QueryHandle::new(self.query, self.query_generation)
    }

    /// The data vertex bound to a query variable, if present.
    pub fn binding(&self, variable: &str) -> Option<&BoundVertex> {
        self.bindings.iter().find(|b| b.variable == variable)
    }

    /// Compact single-line rendering, e.g. for the tabular event views.
    pub fn render(&self) -> String {
        let vars: Vec<String> = self
            .bindings
            .iter()
            .map(|b| format!("{}={}", b.variable, b.key))
            .collect();
        format!(
            "[t={}s] {} span={}s {}",
            self.at.as_micros() / 1_000_000,
            self.query_name,
            self.span.as_secs(),
            vars.join(" ")
        )
    }
}

/// Where the engine delivers match events.
///
/// Delivery is supervised: a sink that panics inside [`EventSink::on_match`]
/// is detached from its subscription and the panic recorded — it never
/// poisons the engine or other subscribers (see
/// [`crate::ContinuousQueryEngine::subscription_health`]).
pub trait EventSink {
    /// Called once per complete match, in discovery order.
    fn on_match(&mut self, event: MatchEvent);

    /// Events this sink has discarded under a bounded-queue overflow policy
    /// (see [`SinkOverflow`]). The engine folds the per-subscriber totals
    /// into [`crate::QueryMetrics::sink_events_dropped`]. Unbounded sinks
    /// keep the default of zero.
    fn events_dropped(&self) -> u64 {
        0
    }

    /// Discarded events attributed to `query`'s subscription. Attribution
    /// follows the *discarded* match: under [`SinkOverflow::DropOldest`]
    /// the evicted match's query pays, not the incoming one's — they
    /// differ when subscriptions of several queries share one bounded
    /// buffer (see [`BufferingSink::share`]). The default charges the
    /// whole [`EventSink::events_dropped`] total, which is exact for the
    /// common case of a sink serving a single subscription.
    fn events_dropped_for(&self, query: QueryId) -> u64 {
        let _ = query;
        self.events_dropped()
    }
}

/// What a bounded sink queue does when it is full (see
/// [`BufferingSink::bounded`] and [`ChannelSink::bounded`]).
///
/// `Block` preserves every event at the cost of stalling the engine's
/// ingest thread until the consumer drains; the drop policies keep ingest
/// non-blocking and count what they discard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SinkOverflow {
    /// Wait for space: correctness-preserving backpressure onto the ingest
    /// thread.
    Block,
    /// Evict the oldest queued event to admit the new one (the consumer
    /// sees the freshest window of matches).
    DropOldest,
    /// Discard the new event (the consumer sees the oldest matches).
    DropNewest,
}

/// A sink that stores every event in memory.
#[derive(Debug, Default)]
pub struct CollectingSink {
    events: Vec<MatchEvent>,
}

impl CollectingSink {
    /// Creates an empty collecting sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The events collected so far.
    pub fn events(&self) -> &[MatchEvent] {
        &self.events
    }

    /// Number of collected events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events were collected.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Consumes the sink, returning the events.
    pub fn into_events(self) -> Vec<MatchEvent> {
        self.events
    }
}

impl EventSink for CollectingSink {
    fn on_match(&mut self, event: MatchEvent) {
        self.events.push(event);
    }
}

/// A sink that invokes a closure for every event.
pub struct CallbackSink<F: FnMut(MatchEvent)> {
    callback: F,
}

impl<F: FnMut(MatchEvent)> CallbackSink<F> {
    /// Wraps a closure as a sink.
    pub fn new(callback: F) -> Self {
        CallbackSink { callback }
    }
}

impl<F: FnMut(MatchEvent)> EventSink for CallbackSink<F> {
    fn on_match(&mut self, event: MatchEvent) {
        (self.callback)(event);
    }
}

/// A sink that forwards events over a `std::sync::mpsc` channel (e.g. to a
/// UI or logging thread), dropping events if the receiver has disconnected.
pub struct ChannelSink {
    sender: Sender,
    dropped: u64,
}

enum Sender {
    Unbounded(mpsc::Sender<MatchEvent>),
    Bounded(mpsc::SyncSender<MatchEvent>),
    Lossy(mpsc::SyncSender<MatchEvent>),
}

impl ChannelSink {
    fn new(sender: Sender) -> Self {
        ChannelSink { sender, dropped: 0 }
    }

    /// Creates an unbounded channel sink, returning the sink and the receiver.
    pub fn unbounded() -> (Self, mpsc::Receiver<MatchEvent>) {
        let (tx, rx) = mpsc::channel();
        (Self::new(Sender::Unbounded(tx)), rx)
    }

    /// Creates a bounded channel sink with [`SinkOverflow::Block`]
    /// semantics: when `capacity` events are queued, delivery (and with it
    /// the engine's ingest thread) blocks until the receiver drains — a slow
    /// consumer backpressures the stream instead of growing memory.
    pub fn bounded(capacity: usize) -> (Self, mpsc::Receiver<MatchEvent>) {
        let (tx, rx) = mpsc::sync_channel(capacity.max(1));
        (Self::new(Sender::Bounded(tx)), rx)
    }

    /// Creates a bounded channel sink with [`SinkOverflow::DropNewest`]
    /// semantics: when the queue is full the new event is discarded and
    /// counted ([`EventSink::events_dropped`]) — ingest never blocks.
    /// `DropOldest` is not offered here because a channel's sender half
    /// cannot evict queued elements; use [`BufferingSink::bounded`] for it.
    pub fn bounded_lossy(capacity: usize) -> (Self, mpsc::Receiver<MatchEvent>) {
        let (tx, rx) = mpsc::sync_channel(capacity.max(1));
        (Self::new(Sender::Lossy(tx)), rx)
    }
}

impl EventSink for ChannelSink {
    fn on_match(&mut self, event: MatchEvent) {
        match &self.sender {
            Sender::Unbounded(tx) => {
                let _ = tx.send(event);
            }
            Sender::Bounded(tx) => {
                let _ = tx.send(event);
            }
            Sender::Lossy(tx) => {
                if let Err(mpsc::TrySendError::Full(_)) = tx.try_send(event) {
                    self.dropped += 1;
                }
            }
        }
    }

    fn events_dropped(&self) -> u64 {
        self.dropped
    }
}

/// A sink that only counts matches, observable through its paired
/// [`MatchCounter`] while the engine owns the sink — the cheapest way for a
/// tenant to watch a subscription (see
/// [`crate::ContinuousQueryEngine::subscribe`]).
#[derive(Debug)]
pub struct CountingSink {
    count: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl CountingSink {
    /// Creates the sink and the shared counter observing it.
    pub fn new() -> (CountingSink, MatchCounter) {
        let count = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        (
            CountingSink {
                count: count.clone(),
            },
            MatchCounter(count),
        )
    }
}

impl EventSink for CountingSink {
    fn on_match(&mut self, _event: MatchEvent) {
        self.count
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

/// Shared observer of a [`CountingSink`].
#[derive(Debug, Clone)]
pub struct MatchCounter(std::sync::Arc<std::sync::atomic::AtomicU64>);

impl MatchCounter {
    /// Matches delivered to the paired sink so far.
    pub fn get(&self) -> u64 {
        self.0.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// Shared state behind a [`BufferingSink`] / [`MatchBuffer`] pair.
///
/// The mutex is locked with poison *recovery* ([`PoisonError::into_inner`]):
/// a panic on some other thread that held the lock must not cascade into the
/// engine's delivery path — a `VecDeque` of events is valid after any
/// interrupted push, so the data is safe to keep using.
#[derive(Debug, Default)]
struct BufferShared {
    queue: std::sync::Mutex<std::collections::VecDeque<MatchEvent>>,
    dropped: std::sync::atomic::AtomicU64,
    /// Per-query drop attribution, keyed by the *discarded* match's query
    /// id — exact even when subscriptions of several queries share one
    /// bounded buffer.
    dropped_by_query: std::sync::Mutex<std::collections::BTreeMap<usize, u64>>,
}

impl BufferShared {
    fn lock(&self) -> std::sync::MutexGuard<'_, std::collections::VecDeque<MatchEvent>> {
        self.queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn charge_drop(&self, query: usize) {
        self.dropped
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        *self
            .dropped_by_query
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .entry(query)
            .or_insert(0) += 1;
    }

    fn dropped_for(&self, query: usize) -> u64 {
        self.dropped_by_query
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&query)
            .copied()
            .unwrap_or(0)
    }
}

/// A sink that buffers every event behind a shared handle, so a subscriber
/// can drain its matches between ingest calls while the engine owns the sink
/// itself. The buffering twin of [`CollectingSink`] for the subscription API.
///
/// [`BufferingSink::new`] buffers without bound; [`BufferingSink::bounded`]
/// caps the queue with a declared [`SinkOverflow`] policy.
#[derive(Debug)]
pub struct BufferingSink {
    shared: std::sync::Arc<BufferShared>,
    capacity: Option<usize>,
    policy: SinkOverflow,
}

impl BufferingSink {
    /// Creates the sink and the shared buffer observing it (unbounded).
    pub fn new() -> (BufferingSink, MatchBuffer) {
        let shared = std::sync::Arc::new(BufferShared::default());
        (
            BufferingSink {
                shared: shared.clone(),
                capacity: None,
                policy: SinkOverflow::Block,
            },
            MatchBuffer(shared),
        )
    }

    /// Creates a sink whose buffer holds at most `capacity` events, applying
    /// `policy` when full. With [`SinkOverflow::Block`] the delivering
    /// thread waits for the observer to [`MatchBuffer::drain`]; the drop
    /// policies discard and count instead ([`MatchBuffer::dropped`]).
    pub fn bounded(capacity: usize, policy: SinkOverflow) -> (BufferingSink, MatchBuffer) {
        let shared = std::sync::Arc::new(BufferShared::default());
        (
            BufferingSink {
                shared: shared.clone(),
                capacity: Some(capacity.max(1)),
                policy,
            },
            MatchBuffer(shared),
        )
    }

    /// A second sink over the *same* buffer (same capacity and overflow
    /// policy), so subscriptions of several queries can share one bounded
    /// queue. Drop counters stay exact per subscription: an overflow is
    /// attributed to the discarded match's query
    /// ([`EventSink::events_dropped_for`]).
    pub fn share(&self) -> BufferingSink {
        BufferingSink {
            shared: self.shared.clone(),
            capacity: self.capacity,
            policy: self.policy,
        }
    }
}

impl EventSink for BufferingSink {
    fn on_match(&mut self, event: MatchEvent) {
        let cap = self.capacity.unwrap_or(usize::MAX);
        loop {
            let mut queue = self.shared.lock();
            if queue.len() < cap {
                queue.push_back(event);
                return;
            }
            match self.policy {
                SinkOverflow::Block => {
                    // Release the lock so the observer can drain, then retry.
                    drop(queue);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                SinkOverflow::DropOldest => {
                    // The *evicted* match's subscription pays for the drop,
                    // not the incoming one's.
                    let victim = queue.pop_front().map_or(event.query.0, |e| e.query.0);
                    queue.push_back(event);
                    drop(queue);
                    self.shared.charge_drop(victim);
                    return;
                }
                SinkOverflow::DropNewest => {
                    let victim = event.query.0;
                    drop(queue);
                    self.shared.charge_drop(victim);
                    return;
                }
            }
        }
    }

    fn events_dropped(&self) -> u64 {
        self.shared
            .dropped
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    fn events_dropped_for(&self, query: QueryId) -> u64 {
        self.shared.dropped_for(query.0)
    }
}

/// Shared observer of a [`BufferingSink`].
#[derive(Debug, Clone)]
pub struct MatchBuffer(std::sync::Arc<BufferShared>);

impl MatchBuffer {
    /// Removes and returns every buffered event, in delivery order.
    pub fn drain(&self) -> Vec<MatchEvent> {
        self.0.lock().drain(..).collect()
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.0.lock().len()
    }

    /// True if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events the paired sink has discarded under its overflow policy.
    pub fn dropped(&self) -> u64 {
        self.0.dropped.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Discards attributed to `query` — the discarded match's query, exact
    /// when several queries' subscriptions share this buffer (see
    /// [`BufferingSink::share`]).
    pub fn dropped_for(&self, query: QueryId) -> u64 {
        self.0.dropped_for(query.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamworks_graph::EdgeEvent;
    use streamworks_query::{QueryEdgeId, QueryGraphBuilder, QueryVertexId};

    fn sample_event() -> (DynamicGraph, QueryGraph, PartialMatch) {
        let mut g = DynamicGraph::unbounded();
        let r = g.ingest(&EdgeEvent::new(
            "a1",
            "Article",
            "k1",
            "Keyword",
            "mentions",
            Timestamp::from_secs(5),
        ));
        let q = QueryGraphBuilder::new("demo")
            .vertex("a", "Article")
            .vertex("k", "Keyword")
            .edge("a", "mentions", "k")
            .build()
            .unwrap();
        let mut m = PartialMatch::seed(2, QueryEdgeId(0), r.edge, Timestamp::from_secs(5));
        m.binding.bind(QueryVertexId(0), r.src);
        m.binding.bind(QueryVertexId(1), r.dst);
        (g, q, m)
    }

    #[test]
    fn events_resolve_variable_names_and_keys() {
        let (g, q, m) = sample_event();
        let ev = MatchEvent::from_match(QueryHandle::new(QueryId(0), 0), &q, &g, &m);
        assert_eq!(ev.query_name, "demo");
        assert_eq!(ev.binding("a").unwrap().key, "a1");
        assert_eq!(ev.binding("k").unwrap().key, "k1");
        assert!(ev.binding("ghost").is_none());
        assert_eq!(ev.edges.len(), 1);
        let line = ev.render();
        assert!(line.contains("demo"));
        assert!(line.contains("a=a1"));
    }

    #[test]
    fn key_cache_shares_a_key_until_its_slot_changes_hands() {
        // A 1 s retention: each pair's vertices are evicted by the next
        // pair, and their slots go to new keys once the quarantine passes.
        let retention = Duration::from_secs(1);
        let mut g = DynamicGraph::new(streamworks_graph::GraphConfig::with_retention(retention));
        let mut cache = KeyCache::default();
        let mut recycled = 0;
        let mut seen = std::collections::HashMap::new();
        for i in 0..40i64 {
            let (src, dst) = (format!("x{i}"), format!("y{i}"));
            let t = Timestamp::from_secs(10 * i);
            let r = g.ingest(&EdgeEvent::new(&src, "A", &dst, "B", "e", t));
            for (v, key) in [(r.src, &src), (r.dst, &dst)] {
                let first = cache.key(&g, v);
                assert_eq!(first, *key);
                // A second look-up shares the entry instead of copying it.
                assert!(Arc::ptr_eq(&first.0, &cache.key(&g, v).0));
                recycled += usize::from(seen.insert(v, key.clone()).is_some());
            }
            assert!(cache.len() as u64 <= g.stats().vertex_slots);
        }
        assert!(recycled > 20, "only {recycled} slots changed hands");
    }

    #[test]
    fn collecting_sink_accumulates() {
        let (g, q, m) = sample_event();
        let ev = MatchEvent::from_match(QueryHandle::new(QueryId(0), 0), &q, &g, &m);
        let mut sink = CollectingSink::new();
        assert!(sink.is_empty());
        sink.on_match(ev.clone());
        sink.on_match(ev);
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.into_events().len(), 2);
    }

    #[test]
    fn callback_and_channel_sinks_deliver() {
        let (g, q, m) = sample_event();
        let ev = MatchEvent::from_match(QueryHandle::new(QueryId(3), 0), &q, &g, &m);
        let mut count = 0usize;
        {
            let mut cb = CallbackSink::new(|_e| count += 1);
            cb.on_match(ev.clone());
            cb.on_match(ev.clone());
        }
        assert_eq!(count, 2);

        let (mut chan, rx) = ChannelSink::unbounded();
        chan.on_match(ev);
        let received = rx.try_recv().unwrap();
        assert_eq!(received.query, QueryId(3));
    }

    #[test]
    fn counting_sink_is_observable_while_owned_elsewhere() {
        let (g, q, m) = sample_event();
        let ev = MatchEvent::from_match(QueryHandle::new(QueryId(0), 0), &q, &g, &m);
        let (mut sink, counter) = CountingSink::new();
        assert_eq!(counter.get(), 0);
        sink.on_match(ev.clone());
        sink.on_match(ev);
        // The sink can live inside the engine; the counter observes remotely.
        drop(sink);
        assert_eq!(counter.get(), 2);
    }

    #[test]
    fn buffering_sink_drains_in_delivery_order() {
        let (g, q, m) = sample_event();
        let (mut sink, buffer) = BufferingSink::new();
        assert!(buffer.is_empty());
        sink.on_match(MatchEvent::from_match(
            QueryHandle::new(QueryId(0), 0),
            &q,
            &g,
            &m,
        ));
        sink.on_match(MatchEvent::from_match(
            QueryHandle::new(QueryId(1), 0),
            &q,
            &g,
            &m,
        ));
        assert_eq!(buffer.len(), 2);
        let drained = buffer.drain();
        assert_eq!(drained[0].query, QueryId(0));
        assert_eq!(drained[1].query, QueryId(1));
        assert!(buffer.is_empty());
        sink.on_match(MatchEvent::from_match(
            QueryHandle::new(QueryId(2), 0),
            &q,
            &g,
            &m,
        ));
        assert_eq!(buffer.drain().len(), 1);
    }

    fn event_for(query: usize) -> MatchEvent {
        let (g, q, m) = sample_event();
        MatchEvent::from_match(QueryHandle::new(QueryId(query), 0), &q, &g, &m)
    }

    #[test]
    fn bounded_buffer_drop_oldest_keeps_freshest_and_counts() {
        let (mut sink, buffer) = BufferingSink::bounded(2, SinkOverflow::DropOldest);
        for i in 0..5 {
            sink.on_match(event_for(i));
        }
        let kept: Vec<usize> = buffer.drain().iter().map(|e| e.query.0).collect();
        assert_eq!(kept, vec![3, 4]);
        assert_eq!(buffer.dropped(), 3);
        assert_eq!(sink.events_dropped(), 3);
    }

    #[test]
    fn shared_buffer_drop_oldest_charges_the_evicted_subscription() {
        // Two subscriptions (queries 0 and 1) share one bounded buffer.
        // Query 1's flood evicts query 0's queued matches: the drops belong
        // to query 0 (the evicted side), not to the incoming query 1.
        let (mut sink_a, buffer) = BufferingSink::bounded(2, SinkOverflow::DropOldest);
        let mut sink_b = sink_a.share();
        sink_a.on_match(event_for(0));
        sink_a.on_match(event_for(0));
        for _ in 0..2 {
            sink_b.on_match(event_for(1));
        }
        let kept: Vec<usize> = buffer.drain().iter().map(|e| e.query.0).collect();
        assert_eq!(kept, vec![1, 1]);
        assert_eq!(buffer.dropped(), 2);
        assert_eq!(buffer.dropped_for(QueryId(0)), 2);
        assert_eq!(buffer.dropped_for(QueryId(1)), 0);
        assert_eq!(sink_a.events_dropped_for(QueryId(0)), 2);
        assert_eq!(sink_b.events_dropped_for(QueryId(1)), 0);
        // DropNewest attribution stays on the refused (incoming) match.
        let (mut sink_c, buffer) = BufferingSink::bounded(1, SinkOverflow::DropNewest);
        let mut sink_d = sink_c.share();
        sink_c.on_match(event_for(0));
        sink_d.on_match(event_for(1));
        assert_eq!(buffer.dropped_for(QueryId(1)), 1);
        assert_eq!(buffer.dropped_for(QueryId(0)), 0);
    }

    #[test]
    fn bounded_buffer_drop_newest_keeps_oldest_and_counts() {
        let (mut sink, buffer) = BufferingSink::bounded(2, SinkOverflow::DropNewest);
        for i in 0..5 {
            sink.on_match(event_for(i));
        }
        let kept: Vec<usize> = buffer.drain().iter().map(|e| e.query.0).collect();
        assert_eq!(kept, vec![0, 1]);
        assert_eq!(buffer.dropped(), 3);
    }

    #[test]
    fn bounded_buffer_block_waits_for_the_observer() {
        let (mut sink, buffer) = BufferingSink::bounded(1, SinkOverflow::Block);
        sink.on_match(event_for(0));
        let drainer = {
            let buffer = buffer.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                buffer.drain().len()
            })
        };
        // Blocks until the observer thread drains, then succeeds; no drops.
        sink.on_match(event_for(1));
        assert_eq!(drainer.join().unwrap(), 1);
        assert_eq!(buffer.dropped(), 0);
        assert_eq!(buffer.drain().len(), 1);
    }

    #[test]
    fn lossy_channel_sink_counts_overflow_instead_of_blocking() {
        let (mut sink, rx) = ChannelSink::bounded_lossy(2);
        for i in 0..5 {
            sink.on_match(event_for(i));
        }
        assert_eq!(sink.events_dropped(), 3);
        let received: Vec<usize> = rx.try_iter().map(|e| e.query.0).collect();
        assert_eq!(received, vec![0, 1]);
    }

    #[test]
    fn match_buffer_recovers_from_a_poisoning_panic() {
        let (mut sink, buffer) = BufferingSink::new();
        sink.on_match(event_for(0));
        let poisoner = {
            let buffer = buffer.clone();
            std::thread::spawn(move || {
                let _guard = buffer.0.lock();
                panic!("poison the buffer mutex");
            })
        };
        assert!(poisoner.join().is_err());
        // The buffer stays usable for both halves despite the poisoned lock.
        sink.on_match(event_for(1));
        assert_eq!(buffer.len(), 2);
        assert_eq!(buffer.drain().len(), 2);
    }
}
