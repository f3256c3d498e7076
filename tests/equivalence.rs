//! Equivalence of the incremental SJ-Tree engine with the baseline matchers.
//!
//! The strongest correctness evidence for the incremental algorithm is that,
//! on arbitrary streams and queries, it reports exactly the same set of
//! windowed embeddings as an exhaustive repeated search (and as the naive
//! per-edge expansion), each exactly once, and that every reported match
//! passes independent verification. These tests exercise that equivalence on
//! hand-built streams and on randomized streams via proptest.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};
use streamworks::baseline::{verify_assignment, NaiveEdgeExpansion, RepeatedSearchMatcher};
use streamworks::query::{CostBasedOrdered, QueryEdgeId, QueryGraph};
use streamworks::{
    ContinuousQueryEngine, Duration, DynamicGraph, EdgeEvent, EngineConfig, QueryGraphBuilder,
    Timestamp, TreeShapeKind,
};

/// Canonical form of a match: the sorted (query edge, data edge id) pairs.
type Signature = Vec<(usize, u64)>;

/// Runs the incremental engine over a stream and returns every reported match
/// as a signature, plus the count of reports (to detect duplicates).
fn run_incremental(
    query: &QueryGraph,
    events: &[EdgeEvent],
    primitive_size: usize,
) -> (BTreeSet<Signature>, usize) {
    let mut engine = ContinuousQueryEngine::new(EngineConfig::default());
    let id = engine
        .register_query_with(
            query.clone(),
            &CostBasedOrdered {
                max_primitive_size: primitive_size,
            },
            TreeShapeKind::LeftDeep,
        )
        .unwrap();
    let mut signatures = BTreeSet::new();
    let mut reports = 0usize;
    for ev in events {
        for m in engine.ingest(ev).unwrap() {
            assert_eq!(m.query, id.id());
            let sig: Signature = m.edges.iter().enumerate().map(|(q, e)| (q, e.0)).collect();
            signatures.insert(sig);
            reports += 1;
        }
    }
    (signatures, reports)
}

/// Runs the repeated-search baseline over the same stream.
fn run_repeated(query: &QueryGraph, events: &[EdgeEvent]) -> BTreeSet<Signature> {
    let mut graph = DynamicGraph::unbounded();
    let mut matcher = RepeatedSearchMatcher::new(query.clone());
    let mut signatures = BTreeSet::new();
    for ev in events {
        graph.ingest(ev);
        for emb in matcher.process_update(&graph) {
            signatures.insert(emb.signature());
        }
    }
    signatures
}

/// Runs the naive edge-expansion baseline over the same stream.
fn run_naive(query: &QueryGraph, events: &[EdgeEvent]) -> (BTreeSet<Signature>, usize) {
    let mut graph = DynamicGraph::unbounded();
    let mut matcher = NaiveEdgeExpansion::new(query.clone());
    let mut signatures = BTreeSet::new();
    let mut reports = 0usize;
    for ev in events {
        let r = graph.ingest(ev);
        let edge = graph.edge(r.edge).unwrap().clone();
        for emb in matcher.process_edge(&graph, &edge) {
            signatures.insert(emb.signature());
            reports += 1;
        }
    }
    (signatures, reports)
}

/// Checks all three matchers agree and that incremental matches verify.
fn assert_equivalent(query: &QueryGraph, events: &[EdgeEvent]) {
    let (inc1, reports1) = run_incremental(query, events, 1);
    let (inc2, _) = run_incremental(query, events, 2);
    let repeated = run_repeated(query, events);
    let (naive, naive_reports) = run_naive(query, events);

    assert_eq!(inc1, repeated, "incremental(size=1) vs repeated search");
    assert_eq!(inc2, repeated, "incremental(size=2) vs repeated search");
    assert_eq!(naive, repeated, "naive expansion vs repeated search");
    // No duplicate reports from the incremental engine or the naive baseline.
    assert_eq!(reports1, inc1.len(), "incremental reported duplicates");
    assert_eq!(naive_reports, naive.len(), "naive reported duplicates");

    // Every incremental match verifies independently.
    let mut reference = DynamicGraph::unbounded();
    for ev in events {
        reference.ingest(ev);
    }
    for sig in &inc1 {
        let assignment: Vec<(QueryEdgeId, streamworks::EdgeId)> = sig
            .iter()
            .map(|&(q, e)| (QueryEdgeId(q), streamworks::EdgeId(e)))
            .collect();
        verify_assignment(&reference, query, &assignment)
            .unwrap_or_else(|err| panic!("verification failed: {err:?} for {sig:?}"));
    }
}

// ---------------------------------------------------------------------------
// Hand-built scenarios
// ---------------------------------------------------------------------------

fn pair_query(window_secs: i64) -> QueryGraph {
    QueryGraphBuilder::new("pair")
        .window(Duration::from_secs(window_secs))
        .vertex("a1", "A")
        .vertex("a2", "A")
        .vertex("k", "K")
        .edge("a1", "rel", "k")
        .edge("a2", "rel", "k")
        .build()
        .unwrap()
}

fn triangle_query(window_secs: i64) -> QueryGraph {
    QueryGraphBuilder::new("triangle")
        .window(Duration::from_secs(window_secs))
        .vertex("a", "A")
        .vertex("b", "A")
        .vertex("c", "A")
        .edge("a", "rel", "b")
        .edge("b", "rel", "c")
        .edge("c", "rel", "a")
        .build()
        .unwrap()
}

#[test]
fn equivalence_on_shared_keyword_stream() {
    let events: Vec<EdgeEvent> = (0..20)
        .map(|i| {
            EdgeEvent::new(
                format!("a{}", i % 6),
                "A",
                format!("k{}", i % 3),
                "K",
                "rel",
                Timestamp::from_secs(i * 7),
            )
        })
        .collect();
    assert_equivalent(&pair_query(50), &events);
    assert_equivalent(&pair_query(10_000), &events);
}

#[test]
fn equivalence_on_triangles_with_parallel_edges() {
    let mut events = Vec::new();
    let hosts = ["x", "y", "z", "w"];
    for i in 0..30i64 {
        let src = hosts[(i % 4) as usize];
        let dst = hosts[((i + 1) % 4) as usize];
        events.push(EdgeEvent::new(
            src,
            "A",
            dst,
            "A",
            "rel",
            Timestamp::from_secs(i * 3),
        ));
        // Parallel edge with a different timestamp now and then.
        if i % 5 == 0 {
            events.push(EdgeEvent::new(
                src,
                "A",
                dst,
                "A",
                "rel",
                Timestamp::from_secs(i * 3 + 1),
            ));
        }
    }
    // Close a few triangles explicitly.
    events.push(EdgeEvent::new(
        "x",
        "A",
        "z",
        "A",
        "rel",
        Timestamp::from_secs(100),
    ));
    events.push(EdgeEvent::new(
        "z",
        "A",
        "y",
        "A",
        "rel",
        Timestamp::from_secs(101),
    ));
    events.push(EdgeEvent::new(
        "y",
        "A",
        "x",
        "A",
        "rel",
        Timestamp::from_secs(102),
    ));
    assert_equivalent(&triangle_query(40), &events);
}

#[test]
fn equivalence_with_mixed_types_and_predicates() {
    let query = QueryGraphBuilder::new("labelled")
        .window(Duration::from_secs(100))
        .vertex("a1", "A")
        .vertex("a2", "A")
        .vertex("k", "K")
        .edge_with(
            "a1",
            "rel",
            "k",
            vec![streamworks::Predicate::eq("label", "hot")],
        )
        .edge("a2", "rel", "k")
        .build()
        .unwrap();
    let mut events = Vec::new();
    for i in 0..25i64 {
        let mut ev = EdgeEvent::new(
            format!("a{}", i % 5),
            "A",
            format!("k{}", i % 2),
            "K",
            "rel",
            Timestamp::from_secs(i * 4),
        );
        if i % 3 == 0 {
            ev = ev.with_attr("label", "hot");
        }
        events.push(ev);
        // Noise of a different type.
        events.push(EdgeEvent::new(
            format!("a{}", i % 5),
            "A",
            format!("l{}", i % 4),
            "L",
            "other",
            Timestamp::from_secs(i * 4 + 1),
        ));
    }
    assert_equivalent(&query, &events);
}

// ---------------------------------------------------------------------------
// Randomized equivalence (seeded property-style cases)
// ---------------------------------------------------------------------------

/// Generates a random edge stream over a small vertex pool: the regime where
/// collisions (shared endpoints, parallel edges, mixed types) are dense enough
/// to exercise every join path.
fn random_stream(rng: &mut StdRng, max_len: usize) -> Vec<EdgeEvent> {
    let len = rng.gen_range(5..max_len);
    let mut t = 0i64;
    let mut events = Vec::with_capacity(len);
    while events.len() < len {
        let s = rng.gen_range(0..8u32);
        let d = rng.gen_range(0..8u32);
        if s == d {
            continue;
        }
        t += rng.gen_range(1..30i64);
        events.push(EdgeEvent::new(
            format!("v{s}"),
            "A",
            format!("v{d}"),
            "A",
            if rng.gen_bool(0.5) { "rel" } else { "other" },
            Timestamp::from_secs(t),
        ));
    }
    events
}

#[test]
fn random_streams_pair_query() {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    for _ in 0..24 {
        let events = random_stream(&mut rng, 40);
        let window = rng.gen_range(20i64..200);
        assert_equivalent(&pair_query(window), &events);
    }
}

#[test]
fn random_streams_triangle_query() {
    let mut rng = StdRng::seed_from_u64(0xB0B);
    for _ in 0..24 {
        let events = random_stream(&mut rng, 30);
        let window = rng.gen_range(20i64..200);
        assert_equivalent(&triangle_query(window), &events);
    }
}

#[test]
fn random_streams_path_query() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for _ in 0..24 {
        let window = rng.gen_range(20i64..200);
        let query = QueryGraphBuilder::new("path3")
            .window(Duration::from_secs(window))
            .vertex("a", "A")
            .vertex("b", "A")
            .vertex("c", "A")
            .vertex("d", "A")
            .edge("a", "rel", "b")
            .edge("b", "rel", "c")
            .edge("c", "other", "d")
            .build()
            .unwrap();
        let events = random_stream(&mut rng, 35);
        assert_equivalent(&query, &events);
    }
}

// ---------------------------------------------------------------------------
// Realistic workload equivalence (cyber / news generators)
// ---------------------------------------------------------------------------

/// The optimized matcher must emit exactly the repeated-search baseline's
/// complete-match sets (order-insensitive) on random cyber traffic.
#[test]
fn equivalence_on_random_cyber_workload() {
    use streamworks::workloads::cyber::{CyberConfig, CyberTrafficGenerator};
    use streamworks::workloads::queries::{port_scan_query, worm_spread_query};
    use streamworks::workloads::AttackKind;

    for seed in [7u64, 19, 101] {
        let workload = CyberTrafficGenerator::new(CyberConfig {
            hosts: 40,
            background_edges: 250,
            attacks: vec![(AttackKind::PortScan, 3), (AttackKind::WormSpread, 3)],
            seed,
            ..Default::default()
        })
        .generate();
        assert_equivalent(
            &port_scan_query(3, Duration::from_mins(5)),
            &workload.events,
        );
        assert_equivalent(
            &worm_spread_query(2, Duration::from_mins(5)),
            &workload.events,
        );
    }
}

/// Same equivalence on random news streams with planted co-occurrences.
#[test]
fn equivalence_on_random_news_workload() {
    use streamworks::workloads::queries::labelled_news_query;
    use streamworks::workloads::{NewsConfig, NewsStreamGenerator};

    for seed in [3u64, 23] {
        let workload = NewsStreamGenerator::new(NewsConfig {
            articles: 60,
            keywords: 12,
            locations: 4,
            planted_events: vec![("politics".into(), 3)],
            seed,
            ..Default::default()
        })
        .generate();
        assert_equivalent(
            &labelled_news_query("politics", Duration::from_mins(30)),
            &workload.events,
        );
    }
}

/// Batched ingest must report exactly the same matches as per-event ingest,
/// across arbitrary batch boundaries.
#[test]
fn batch_ingest_equals_streaming_ingest() {
    use streamworks::workloads::queries::labelled_news_query;
    use streamworks::workloads::{NewsConfig, NewsStreamGenerator};

    let events = NewsStreamGenerator::new(NewsConfig {
        articles: 120,
        keywords: 10,
        locations: 4,
        planted_events: vec![("politics".into(), 4)],
        ..Default::default()
    })
    .generate()
    .events;
    let query = labelled_news_query("politics", Duration::from_mins(30));

    let per_event: Vec<_> = {
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        engine.register_query(query.clone()).unwrap();
        events
            .iter()
            .flat_map(|ev| engine.ingest(ev).unwrap())
            .collect()
    };

    for chunk_size in [1usize, 7, 64, usize::MAX] {
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        engine.register_query(query.clone()).unwrap();
        let mut batched = Vec::new();
        for chunk in events.chunks(chunk_size.min(events.len())) {
            batched.extend(engine.ingest(chunk).unwrap());
        }
        assert_eq!(batched.len(), per_event.len(), "chunk={chunk_size}");
        let sig = |m: &streamworks::MatchEvent| {
            let mut e: Vec<u64> = m.edges.iter().map(|e| e.0).collect();
            e.sort_unstable();
            e
        };
        let mut a: Vec<_> = batched.iter().map(sig).collect();
        let mut b: Vec<_> = per_event.iter().map(sig).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "chunk={chunk_size}");
    }
}

// ---------------------------------------------------------------------------
// Window semantics
// ---------------------------------------------------------------------------

#[test]
fn every_reported_match_is_within_its_window() {
    // Build a stream whose matches straddle the window boundary, then check
    // the span of every reported match against an independent recomputation
    // from the raw events.
    let window = Duration::from_secs(50);
    let query = pair_query(50);
    let events: Vec<EdgeEvent> = (0..40)
        .map(|i| {
            EdgeEvent::new(
                format!("a{i}"),
                "A",
                format!("k{}", i % 2),
                "K",
                "rel",
                Timestamp::from_secs(i * 13),
            )
        })
        .collect();

    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    engine.register_query(query).unwrap();
    let mut timestamps: HashMap<u64, i64> = HashMap::new();
    let mut count = 0;
    for ev in &events {
        // Track edge-id -> timestamp as the graph assigns ids in arrival order.
        timestamps.insert(timestamps.len() as u64, ev.timestamp.as_micros());
        for m in engine.ingest(ev).unwrap() {
            let times: Vec<i64> = m.edges.iter().map(|e| timestamps[&e.0]).collect();
            let span = times.iter().max().unwrap() - times.iter().min().unwrap();
            assert!(span < window.as_micros(), "span {span} exceeds window");
            assert_eq!(m.span.as_micros(), span);
            count += 1;
        }
    }
    assert!(count > 0, "the scenario should produce at least one match");
}

// ---------------------------------------------------------------------------
// Exact expiry
// ---------------------------------------------------------------------------

/// After stream time advances a full window past the last event, every
/// partial match is expirable — and with the store's exact expiry,
/// `partial_matches_live` must read exactly 0 (the retired `MatchStore` FIFO
/// could retain stale matches behind an in-window head, so this figure used
/// to read high).
#[test]
fn partial_matches_drain_to_zero_after_full_window() {
    use streamworks::workloads::cyber::{CyberConfig, CyberTrafficGenerator};
    use streamworks::workloads::queries::{labelled_news_query, port_scan_query};
    use streamworks::workloads::{AttackKind, NewsConfig, NewsStreamGenerator};

    let cyber = CyberTrafficGenerator::new(CyberConfig {
        hosts: 40,
        background_edges: 400,
        attacks: vec![(AttackKind::PortScan, 3)],
        seed: 9,
        ..Default::default()
    })
    .generate()
    .events;
    let news = NewsStreamGenerator::new(NewsConfig {
        articles: 80,
        planted_events: vec![("politics".into(), 3)],
        seed: 4,
        ..Default::default()
    })
    .generate()
    .events;

    let cases: Vec<(&str, QueryGraph, &[EdgeEvent])> = vec![
        (
            "cyber",
            port_scan_query(3, Duration::from_mins(5)),
            &cyber[..],
        ),
        (
            "news",
            labelled_news_query("politics", Duration::from_mins(30)),
            &news[..],
        ),
    ];
    for (workload, query, events) in cases {
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        let handle = engine.register_query(query.clone()).unwrap();
        engine.ingest(events).unwrap();
        let live_before = engine.metrics(handle).unwrap().partial_matches_live;
        assert!(
            live_before > 0,
            "{workload}: the stream must leave partial state behind"
        );
        // Advance stream time a full window past the last event with an
        // edge no query matches, then prune: everything must drain.
        let last = events.iter().map(|e| e.timestamp).max().unwrap();
        let far = Timestamp(last.0 + 100 * query.window().as_micros());
        engine
            .ingest(&EdgeEvent::new("x", "Noise", "y", "Noise", "noise", far))
            .unwrap();
        engine.prune_now();
        let metrics = engine.metrics(handle).unwrap();
        assert_eq!(
            metrics.partial_matches_live, 0,
            "{workload}: exact expiry must drain every partial match"
        );
        assert!(metrics.partial_matches_expired >= live_before);
    }
}
