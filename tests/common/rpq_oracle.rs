//! The brute-force windowed path oracle shared by the RPQ suites.
//!
//! The oracle keeps the full edge log and, after every single event,
//! recomputes from scratch the set of (source, target) pairs connected by a
//! label path the query's DFA accepts using only *live* edges (timestamp
//! strictly inside the window at the current stream time). The engine
//! reports a pair when it enters that set, so the emissions predicted for
//! one event are the pairs live after it that were not live before.
//!
//! Included with `#[path = "common/rpq_oracle.rs"] mod rpq_oracle;`.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

use streamworks::query::RpqDfa;
use streamworks::{ContinuousQueryEngine, Duration, EdgeEvent, MatchEvent, RpqQuery, Timestamp};

pub struct Oracle {
    pub dfa: RpqDfa,
    pub window: Duration,
    /// Every alphabet edge ever ingested: (src key, dst key, symbol, ts).
    edges: Vec<(String, String, u32, Timestamp)>,
}

impl Oracle {
    pub fn new(rpq: &RpqQuery) -> Self {
        Oracle {
            dfa: rpq.compile(),
            window: rpq.window(),
            edges: Vec::new(),
        }
    }

    /// All (source, target) pairs connected by an accepted label path over
    /// edges live at `now`, via BFS on the product graph from every vertex.
    pub fn reachable(&self, now: Timestamp) -> BTreeSet<(String, String)> {
        let cutoff = now.minus(self.window);
        let mut adj: HashMap<&str, Vec<(u32, &str)>> = HashMap::new();
        let mut verts: BTreeSet<&str> = BTreeSet::new();
        for (src, dst, sym, ts) in &self.edges {
            if *ts > cutoff {
                adj.entry(src.as_str())
                    .or_default()
                    .push((*sym, dst.as_str()));
                verts.insert(src.as_str());
                verts.insert(dst.as_str());
            }
        }
        let mut result = BTreeSet::new();
        for &root in &verts {
            let mut seen: HashSet<(&str, u32)> = HashSet::new();
            let mut queue: VecDeque<(&str, u32)> = VecDeque::new();
            seen.insert((root, self.dfa.start()));
            queue.push_back((root, self.dfa.start()));
            while let Some((v, s)) = queue.pop_front() {
                for &(sym, dst) in adj.get(v).into_iter().flatten() {
                    if let Some(ns) = self.dfa.step(s, sym) {
                        if seen.insert((dst, ns)) {
                            queue.push_back((dst, ns));
                        }
                    }
                }
            }
            for (v, s) in seen {
                // The parser rejects empty-string patterns, so the start
                // state is never accepting and every pair needs >= 1 edge.
                if self.dfa.is_accepting(s) {
                    result.insert((root.to_owned(), v.to_owned()));
                }
            }
        }
        result
    }

    /// Feeds one event at the already-advanced clock `now`; returns the
    /// pairs predicted to be emitted for it, sorted.
    pub fn ingest(&mut self, ev: &EdgeEvent, now: Timestamp) -> Vec<(String, String)> {
        let before = self.reachable(now);
        if let Some(sym) = self.dfa.symbol(&ev.edge_type) {
            if ev.timestamp > now.minus(self.window) {
                self.edges
                    .push((ev.src_key.clone(), ev.dst_key.clone(), sym, ev.timestamp));
            }
        }
        let after = self.reachable(now);
        after.difference(&before).cloned().collect()
    }
}

pub fn pair_of(m: &MatchEvent) -> (String, String) {
    (
        m.bindings.first().expect("src binding").key.to_string(),
        m.bindings.last().expect("dst binding").key.to_string(),
    )
}

/// Which witness the matcher reports for a pair depends on its relaxation
/// order, so the oracle cannot predict it — but whichever it is, it must be
/// a contiguous `source -> target` path of edges that are live and inside
/// the window at emission time `at`, spelling a word the DFA accepts.
pub fn assert_valid_witness(
    engine: &ContinuousQueryEngine,
    oracle: &Oracle,
    m: &MatchEvent,
    at: Timestamp,
) {
    let graph = engine.graph();
    let mut cursor = m.bindings.first().expect("src binding").vertex;
    let mut word = Vec::new();
    assert!(!m.edges.is_empty(), "empty witness: {m:?}");
    for id in &m.edges {
        let edge = graph
            .edge(*id)
            .unwrap_or_else(|| panic!("witness edge {id:?} is not live: {m:?}"));
        assert_eq!(edge.src, cursor, "witness is not contiguous: {m:?}");
        assert!(
            edge.timestamp > at.minus(oracle.window),
            "witness edge {edge:?} is outside the window at {at:?}: {m:?}"
        );
        word.push(graph.edge_type_name(edge.etype).expect("interned label"));
        cursor = edge.dst;
    }
    let target = m.bindings.last().expect("dst binding").vertex;
    assert_eq!(cursor, target, "witness does not end at the target: {m:?}");
    assert!(
        oracle.dfa.accepts(word.iter().copied()),
        "the DFA rejects the witness word {word:?}: {m:?}"
    );
}
