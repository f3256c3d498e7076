//! Exactness of lazy SJ-Tree join sides (`SjTreeMatcher`'s module docs):
//! a lazy node's matches are built only under the parent keys its sibling
//! holds and rebuilt per key when the first sibling match arrives, and the
//! matcher must still report every windowed embedding exactly once —
//! checked against `NaiveEdgeExpansion` across plans, `located` shares,
//! timestamp orders and prune cadences, plus two crafted cases: a key that
//! goes hot → cold → hot with lazy matches left behind, and a sharing-index
//! subscriber whose subscription node has a lazy sibling. Whether a key is
//! hot is decided on visibility, so when the stores are reclaimed decides
//! nothing: not what the engine emits, not in which order, not how much it
//! works.
//!
//! CI also runs this file in release (`cargo test --release --test
//! lazy_join_sides`).

use streamworks::baseline::NaiveEdgeExpansion;
use streamworks::engine::SjTreeMatcher;
use streamworks::query::{ManualDecomposition, QueryEdgeId, SjNodeId};
use streamworks::{
    ContinuousQueryEngine, Duration, DynamicGraph, EdgeEvent, EdgeId, EngineConfig, Planner,
    QueryGraph, QueryGraphBuilder, QueryMetrics, QueryPlan, Timestamp, TreeShapeKind,
};

/// Each match as its data edges in query-edge order.
type Emitted = Vec<Vec<EdgeId>>;

/// Articles mentioning keywords and located in cities; `edges` lists the
/// query edges as (source article, edge type, target).
fn query(window: i64, edges: &[(&str, &str, &str)]) -> QueryGraph {
    let mut b = QueryGraphBuilder::new("lazy").window(Duration::from_secs(window));
    let vertices = [
        ("a1", "Article"),
        ("a2", "Article"),
        ("a3", "Article"),
        ("k", "Keyword"),
        ("k2", "Keyword"),
        ("l", "Location"),
        ("l2", "Location"),
    ];
    for (v, vt) in vertices {
        if edges.iter().any(|e| e.0 == v || e.2 == v) {
            b = b.vertex(v, vt);
        }
    }
    for &(src, et, dst) in edges {
        b = b.edge(src, et, dst);
    }
    b.build().unwrap()
}

/// `query` planned with one leaf per edge, in edge order.
fn single_edge_plan(q: QueryGraph, kind: TreeShapeKind) -> QueryPlan {
    let leaves = (0..q.edge_count()).map(|e| vec![QueryEdgeId(e)]).collect();
    Planner::new()
        .tree_kind(kind)
        .plan_with(q, &ManualDecomposition::new(leaves))
        .unwrap()
}

const HOT_WEDGE: &[(&str, &str, &str)] = &[
    ("a1", "mentions", "k"),
    ("a2", "mentions", "k"),
    ("a1", "located", "l"),
];
const COLOC: &[(&str, &str, &str)] = &[
    ("a1", "mentions", "k"),
    ("a2", "mentions", "k"),
    ("a1", "located", "l"),
    ("a2", "located", "l"),
];
const COLOC_TRIPLE: &[(&str, &str, &str)] = &[
    ("a1", "mentions", "k"),
    ("a2", "mentions", "k"),
    ("a1", "located", "l"),
    ("a2", "located", "l"),
    ("a3", "mentions", "k"),
];

/// The plans of the matrix and their lazy node counts: the pinned
/// `join_hot` tree `((e0 ⋈ e1) ⋈ e2)`; the balanced four-leaf tree, whose
/// root cut {a1, a2} is split across the lazy node's children; the
/// left-deep four-leaf tree; and a left-deep five-leaf tree, lazy at two
/// alternating levels.
fn plans() -> Vec<(&'static str, QueryPlan, usize)> {
    vec![
        (
            "join_hot",
            single_edge_plan(query(40, HOT_WEDGE), TreeShapeKind::LeftDeep),
            1,
        ),
        (
            "balanced",
            single_edge_plan(query(40, COLOC), TreeShapeKind::Balanced),
            1,
        ),
        (
            "left_deep",
            single_edge_plan(query(40, COLOC), TreeShapeKind::LeftDeep),
            1,
        ),
        (
            "left_deep_5",
            single_edge_plan(query(30, COLOC_TRIPLE), TreeShapeKind::LeftDeep),
            2,
        ),
    ]
}

/// splitmix64.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// `events` events, one per second: `located_pct` % of them `located`, the
/// rest `mentions`; with `skew`, each timestamp lies up to `skew` seconds
/// behind its arrival.
fn stream(seed: u64, events: usize, located_pct: u64, skew: u64) -> Vec<EdgeEvent> {
    let mut rng = Rng(seed);
    (0..events as i64)
        .map(|i| {
            let t = Timestamp::from_secs(i - rng.below(skew + 1) as i64);
            let article = format!("a{}", rng.below(10));
            if rng.below(100) < located_pct {
                let city = format!("city{}", rng.below(3));
                EdgeEvent::new(article, "Article", city, "Location", "located", t)
            } else {
                let keyword = format!("k{}", rng.below(4));
                EdgeEvent::new(article, "Article", keyword, "Keyword", "mentions", t)
            }
        })
        .collect()
}

/// Feeds `events` to a matcher over `plan` and to the naive matcher,
/// pruning every `prune_every` events at the latest timestamp seen less
/// `skew` (the lateness bound, so a late edge finds what it may join).
/// Returns both sorted multisets and the matcher's counters.
fn run(
    plan: &QueryPlan,
    events: &[EdgeEvent],
    prune_every: usize,
    skew: u64,
) -> (Emitted, Emitted, QueryMetrics) {
    let mut graph = DynamicGraph::unbounded();
    let mut naive = NaiveEdgeExpansion::new(plan.query.clone());
    let mut matcher = SjTreeMatcher::new(plan.clone(), &graph);
    let (mut emitted, mut expected, mut out) = (Vec::new(), Vec::new(), Vec::new());
    let mut latest = Timestamp(i64::MIN);
    for (i, ev) in events.iter().enumerate() {
        let r = graph.ingest(ev);
        let edge = graph.edge(r.edge).unwrap().clone();
        latest = latest.max(edge.timestamp);
        out.clear();
        matcher.process_edge(&graph, &edge, &mut out);
        emitted.extend(
            out.iter()
                .map(|m| m.edges.iter().map(|&(_, e)| e).collect()),
        );
        expected.extend(
            naive
                .process_edge(&graph, &edge)
                .into_iter()
                .map(|e| e.edges),
        );
        if (i + 1) % prune_every == 0 {
            matcher.prune(latest.minus(Duration::from_secs(skew as i64)));
        }
    }
    emitted.sort();
    expected.sort();
    (emitted, expected, matcher.metrics())
}

#[test]
fn lazy_sides_match_the_naive_matcher_across_the_matrix() {
    for (name, plan, lazy_nodes) in plans() {
        let matcher = SjTreeMatcher::new(plan.clone(), &DynamicGraph::unbounded());
        let lazy = (0..plan.shape.node_count()).filter(|&n| matcher.is_lazy(SjNodeId(n)));
        assert_eq!(lazy.count(), lazy_nodes, "{name}: lazy nodes");
        for located_pct in [2, 25, 50, 90] {
            for skew in [0, 6] {
                let events = stream(located_pct * 31 + skew, 700, located_pct, skew);
                for prune_every in [1, 16, 256] {
                    let case = format!(
                        "{name}, {located_pct}% located, skew {skew}, prune every {prune_every}"
                    );
                    let (emitted, expected, m) = run(&plan, &events, prune_every, skew);
                    assert!(!expected.is_empty(), "{case}: the stream completes matches");
                    assert_eq!(emitted, expected, "{case}: every embedding, each once");
                    assert!(m.lazy_materialisations > 0, "{case}: keys turned hot");
                    assert!(m.merges_skipped_cold > 0, "{case}: cold keys skipped work");
                }
            }
        }
    }
}

/// One hand-fed edge: `(article, type, target, second)`.
fn feed_one(
    graph: &mut DynamicGraph,
    matcher: &mut SjTreeMatcher,
    naive: &mut NaiveEdgeExpansion,
    (article, et, target, t): (&str, &str, &str, i64),
) -> (Emitted, Emitted) {
    let tt = if et == "located" {
        "Location"
    } else {
        "Keyword"
    };
    let ev = EdgeEvent::new(article, "Article", target, tt, et, Timestamp::from_secs(t));
    let r = graph.ingest(&ev);
    let edge = graph.edge(r.edge).unwrap().clone();
    let mut out = Vec::new();
    matcher.process_edge(graph, &edge, &mut out);
    let mut emitted: Emitted = out
        .iter()
        .map(|m| m.edges.iter().map(|&(_, e)| e).collect())
        .collect();
    let mut expected: Emitted = naive
        .process_edge(graph, &edge)
        .into_iter()
        .map(|e| e.edges)
        .collect();
    emitted.sort();
    expected.sort();
    (emitted, expected)
}

#[test]
fn a_key_that_cools_and_heats_again_loses_and_repeats_nothing() {
    // `join_hot`'s tree, window 20 s: the pair side (e0 ⋈ e1) is lazy and
    // waits for `located` under a1.
    let plan = single_edge_plan(query(20, HOT_WEDGE), TreeShapeKind::LeftDeep);
    let mut graph = DynamicGraph::unbounded();
    let mut naive = NaiveEdgeExpansion::new(plan.query.clone());
    let mut matcher = SjTreeMatcher::new(plan, &graph);
    let mut feed = |matcher: &mut SjTreeMatcher, edge| {
        let (emitted, expected) = feed_one(&mut graph, matcher, &mut naive, edge);
        assert_eq!(emitted, expected, "at {edge:?}");
        emitted.len()
    };
    // Hot: x is located, so the pairs under a1 = x are built and filed.
    assert_eq!(feed(&mut matcher, ("x", "located", "paris", 0)), 0);
    assert_eq!(feed(&mut matcher, ("x", "mentions", "k", 5)), 0);
    assert_eq!(feed(&mut matcher, ("y", "mentions", "k", 6)), 1);
    assert_eq!(matcher.metrics().lazy_materialisations, 1);
    let pairs_held = matcher.metrics().partial_matches_live;
    // Cold: the location expires, the pair (x, y) stays filed.
    matcher.prune(Timestamp::from_secs(21));
    assert_eq!(
        matcher.metrics().partial_matches_live,
        pairs_held - 1,
        "only the location expired"
    );
    // A pair (x, z) under the cold key is never built…
    let skipped = matcher.metrics().merges_skipped_cold;
    assert_eq!(feed(&mut matcher, ("z", "mentions", "k", 22)), 0);
    assert!(matcher.metrics().merges_skipped_cold > skipped);
    // …and hot again, both pairs complete once each: (x, y) is rebuilt, not
    // found twice, (x, z) is built for the first time.
    assert_eq!(feed(&mut matcher, ("x", "located", "rome", 23)), 2);
    assert_eq!(matcher.metrics().lazy_materialisations, 2);
    // Hot now: a second location finds each pair under x once (the pair
    // left over from the first hot spell was tombstoned), and a new pair
    // is merged and completes with both locations on the spot.
    assert_eq!(feed(&mut matcher, ("x", "located", "oslo", 24)), 2);
    assert_eq!(feed(&mut matcher, ("w", "mentions", "k", 24)), 2);
    assert_eq!(matcher.metrics().lazy_materialisations, 2);
    assert_eq!(matcher.metrics().complete_matches, 7);
}

#[test]
fn a_subscription_node_with_a_lazy_sibling_is_fed_and_stays_exact() {
    // `coloc` registers first and advertises its join forms. `echo` is
    // balanced as ((e0 ⋈ e1) ⋈ (e2 ⋈ e3)) ⋈ (e4 ⋈ e5): its left child is
    // `coloc`'s whole pattern, so it subscribes there and is fed by the
    // index — it must stay eager, nothing fills the stores below it — and
    // its right child (a2 mentioning and located elsewhere) is lazy,
    // filled by its own leaves.
    let coloc = single_edge_plan(query(40, COLOC), TreeShapeKind::Balanced);
    let mut echo_edges = COLOC.to_vec();
    echo_edges.extend([("a2", "mentions", "k2"), ("a2", "located", "l2")]);
    let echo = single_edge_plan(query(40, &echo_edges), TreeShapeKind::Balanced);
    let (left, right) = echo.shape.node(echo.shape.root()).children.unwrap();
    assert_eq!(echo.shape.node(left).edges.len(), 4);
    assert_eq!(echo.shape.node(right).edges.len(), 2);
    let mut engine = ContinuousQueryEngine::new(EngineConfig::default());
    engine.register_plan(coloc);
    let handle = engine.register_plan(echo.clone());
    assert_eq!(
        engine.engine_metrics().subscribed_subtrees,
        1,
        "echo's left child"
    );

    let mut graph = DynamicGraph::unbounded();
    let mut naive = NaiveEdgeExpansion::new(echo.query.clone());
    let (mut emitted, mut expected) = (Vec::new(), Vec::new());
    for ev in stream(7, 900, 25, 0) {
        for m in engine.ingest(&ev).unwrap() {
            if m.query == handle.id() {
                emitted.push(m.edges);
            }
        }
        let r = graph.ingest(&ev);
        let edge = graph.edge(r.edge).unwrap().clone();
        expected.extend(
            naive
                .process_edge(&graph, &edge)
                .into_iter()
                .map(|e| e.edges),
        );
    }
    emitted.sort();
    expected.sort();
    assert!(!expected.is_empty());
    assert_eq!(emitted, expected);
    let m = engine.metrics(handle).unwrap();
    assert!(
        m.lazy_materialisations > 0,
        "the sibling of the fed node is lazy"
    );
    assert!(m.merges_skipped_cold > 0);
}

#[test]
fn the_sweep_cadence_decides_nothing() {
    // A default engine is never swept (its full stores reclaim on their
    // own); the other is swept after every event.
    // A key whose awaited matches are all hidden must read cold either way.
    let plans = [
        single_edge_plan(query(40, HOT_WEDGE), TreeShapeKind::LeftDeep),
        single_edge_plan(query(40, COLOC), TreeShapeKind::Balanced),
        single_edge_plan(query(40, COLOC), TreeShapeKind::LeftDeep),
    ];
    for (p, plan) in plans.into_iter().enumerate() {
        for located_pct in [2, 25, 50] {
            for skew in [0, 6] {
                let case = format!("plan {p}, {located_pct}% located, skew {skew}");
                let events = stream(located_pct * 7 + skew, 1_500, located_pct, skew);
                let [(rare, rare_work), (each, each_work)] = [false, true].map(|sweep_each| {
                    let mut engine = ContinuousQueryEngine::new(EngineConfig::default());
                    let handle = engine.register_plan(plan.clone());
                    let mut emitted: Emitted = Vec::new();
                    for ev in &events {
                        emitted.extend(engine.ingest(ev).unwrap().into_iter().map(|m| m.edges));
                        if sweep_each {
                            engine.prune_now();
                        }
                    }
                    let m = engine.metrics(handle).unwrap();
                    let counters = [
                        m.partial_matches_inserted,
                        m.joins_attempted,
                        m.joins_succeeded,
                        m.lazy_materialisations,
                        m.merges_skipped_cold,
                        m.complete_matches,
                    ];
                    (emitted, counters)
                });
                assert!(!rare.is_empty(), "{case}: the stream completes matches");
                assert!(rare_work[3] > 0, "{case}: keys turned hot");
                assert_eq!(rare_work, each_work, "{case}: the same work");
                assert_eq!(rare, each, "{case}: the same matches in the same order");
            }
        }
    }
}

#[test]
fn the_cold_key_check_changes_no_work_counter() {
    // `join_hot`'s shape, a hot wedge over three single-edge leaves, on
    // streams where few articles are located at a time, so most keys the
    // climb asks about are cold. The counters are the ones recorded before
    // the awaited side kept a recency table; deciding a key cold sooner
    // may change none of them.
    let plan = single_edge_plan(query(40, HOT_WEDGE), TreeShapeKind::LeftDeep);
    for (seed, skew, prune_every, recorded) in [
        (46, 0, 256, [26_847, 126, 28_120, 17_935, 13_005]),
        (47, 6, 1, [26_641, 133, 38_137, 21_290, 15_504]),
    ] {
        let events = stream(seed, 3_000, 5, skew);
        let (emitted, expected, m) = run(&plan, &events, prune_every, skew);
        assert_eq!(emitted, expected, "seed {seed}");
        let counters = [
            m.merges_skipped_cold,
            m.lazy_materialisations,
            m.joins_attempted,
            m.partial_matches_inserted,
            m.complete_matches,
        ];
        assert_eq!(counters, recorded, "seed {seed}");
    }
}
