//! Match events and event sinks.
//!
//! When the SJ-Tree matcher assembles a complete match inside the query
//! window, the engine emits a [`MatchEvent`] to an [`EventSink`]: a closure
//! or a `Vec` that decides what the application does with it (collect it,
//! forward it over a channel to a UI thread, count it) — the library
//! analogue of the demo's map/table/graph views.
//!
//! Sinks are always invoked on the engine's ingest thread, as each match
//! completes, so they receive matches in stream order and need no
//! synchronisation of their own.

use crate::binding::PartialMatch;
use crate::handle::QueryHandle;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;
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

/// Where the engine delivers match events: a subscriber
/// ([`crate::ContinuousQueryEngine::subscribe`]) or the call-level sink of
/// [`crate::ContinuousQueryEngine::ingest_with`].
///
/// Every `FnMut(MatchEvent)` closure is a sink, and so is a
/// `Vec<MatchEvent>`, which collects. A channel or a counter is a one-line
/// closure over `std::sync::mpsc` or an `AtomicU64`.
///
/// Delivery is supervised: a subscriber that panics inside
/// [`EventSink::on_match`] is detached from its subscription and the panic
/// recorded — it never poisons the engine or other subscribers (see
/// [`crate::ContinuousQueryEngine::subscription_health`]).
pub trait EventSink {
    /// Called once per complete match, in discovery order.
    fn on_match(&mut self, event: MatchEvent);
}

impl<F: FnMut(MatchEvent)> EventSink for F {
    fn on_match(&mut self, event: MatchEvent) {
        self(event);
    }
}

impl EventSink for Vec<MatchEvent> {
    fn on_match(&mut self, event: MatchEvent) {
        self.push(event);
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
        let mut sink: Vec<MatchEvent> = Vec::new();
        assert!(sink.is_empty());
        sink.on_match(ev.clone());
        sink.on_match(ev);
        assert_eq!(sink.len(), 2);
    }

    #[test]
    fn callback_and_channel_sinks_deliver() {
        let (g, q, m) = sample_event();
        let ev = MatchEvent::from_match(QueryHandle::new(QueryId(3), 0), &q, &g, &m);
        let mut count = 0usize;
        {
            let mut cb = |_e: MatchEvent| count += 1;
            cb.on_match(ev.clone());
            cb.on_match(ev.clone());
        }
        assert_eq!(count, 2);

        let (tx, rx) = std::sync::mpsc::channel();
        let mut chan = move |e: MatchEvent| {
            let _ = tx.send(e);
        };
        chan.on_match(ev);
        let received = rx.try_recv().unwrap();
        assert_eq!(received.query, QueryId(3));
    }

    #[test]
    fn counting_sink_is_observable_while_owned_elsewhere() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let (g, q, m) = sample_event();
        let ev = MatchEvent::from_match(QueryHandle::new(QueryId(0), 0), &q, &g, &m);
        let counter = Arc::new(AtomicU64::new(0));
        let mut sink = {
            let count = counter.clone();
            move |_e: MatchEvent| {
                count.fetch_add(1, Ordering::Relaxed);
            }
        };
        assert_eq!(counter.load(Ordering::Relaxed), 0);
        sink.on_match(ev.clone());
        sink.on_match(ev);
        // The sink can live inside the engine; the counter observes remotely.
        drop(sink);
        assert_eq!(counter.load(Ordering::Relaxed), 2);
    }
}
