//! The repeated-search reference shared by the sharing suites: after every
//! event, one exhaustive windowed search per query over the live graph
//! (`RepeatedSearchMatcher` — no SJ-Tree, no sharing index), each embedding
//! reported the first time it appears.
//!
//! Included with `#[path = "common/repeated_search.rs"] mod repeated_search;`.

use std::collections::BTreeMap;
use streamworks::baseline::RepeatedSearchMatcher;
use streamworks::graph::GraphConfig;
use streamworks::{DynamicGraph, EdgeEvent, QueryGraph};

/// How often each (query name, data edges in query-edge order) embedding is
/// reported over `events` — the same key the suites build from the engine's
/// `MatchEvent`s. The graph retains the largest query window, as the
/// engine's does when every query is registered up front.
pub fn multiset(
    queries: &[QueryGraph],
    events: &[EdgeEvent],
) -> BTreeMap<(String, Vec<u64>), usize> {
    let retention = queries
        .iter()
        .map(QueryGraph::window)
        .max_by_key(|w| w.as_micros());
    let mut graph = DynamicGraph::new(GraphConfig { retention });
    let mut matchers: Vec<RepeatedSearchMatcher> = queries
        .iter()
        .map(|q| RepeatedSearchMatcher::new(q.clone()))
        .collect();
    let mut out = BTreeMap::new();
    for ev in events {
        graph.ingest(ev);
        for matcher in &mut matchers {
            for embedding in matcher.process_update(&graph) {
                let edges = embedding.signature().into_iter().map(|(_, e)| e).collect();
                *out.entry((matcher.query().name().to_owned(), edges))
                    .or_insert(0) += 1;
            }
        }
    }
    out
}
