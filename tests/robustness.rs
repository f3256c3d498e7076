//! Failure injection and robustness: the engine must stay correct (or fail
//! loudly) on the inputs a production stream actually delivers — out-of-order
//! timestamps, duplicate and self-loop edges, types never seen at planning
//! time, zero-width windows — and the operational features added on top of the
//! paper (checkpoint/restore, adaptive re-planning, cost-based plans) must not
//! change the set of matches reported.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use streamworks::baseline::RepeatedSearchMatcher;
use streamworks::engine::EngineCheckpoint;
use streamworks::query::{CostBasedOrdered, LeftDeepEdgeChain, QueryGraph, TriadWedges};
use streamworks::{
    AdaptiveConfig, AdaptiveReplanner, ContinuousQueryEngine, Duration, DynamicGraph, EdgeEvent,
    EngineConfig, QueryGraphBuilder, Timestamp, TreeShapeKind,
};

type Signature = Vec<(usize, u64)>;

fn ev(src: &str, st: &str, dst: &str, dt: &str, et: &str, t: i64) -> EdgeEvent {
    EdgeEvent::new(src, st, dst, dt, et, Timestamp::from_secs(t))
}

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

fn wedge_query(window_secs: i64) -> QueryGraph {
    QueryGraphBuilder::new("wedge")
        .window(Duration::from_secs(window_secs))
        .vertex("a", "A")
        .vertex("k", "K")
        .vertex("l", "L")
        .edge("a", "rel", "k")
        .edge("a", "loc", "l")
        .build()
        .unwrap()
}

fn signatures(engine: &mut ContinuousQueryEngine, events: &[EdgeEvent]) -> BTreeSet<Signature> {
    let mut out = BTreeSet::new();
    for e in events {
        for m in engine.ingest(e).unwrap() {
            out.insert(
                m.edges
                    .iter()
                    .enumerate()
                    .map(|(q, id)| (q, id.0))
                    .collect(),
            );
        }
    }
    out
}

/// A match signature that is stable across an engine restart: the variable →
/// external-key bindings plus the completion time and span. (Raw [`EdgeId`]s
/// are arrival sequence numbers and therefore differ between a restored graph
/// and the original one.)
type KeySignature = (Vec<(String, String)>, i64, i64);

fn key_signatures(
    engine: &mut ContinuousQueryEngine,
    events: &[EdgeEvent],
) -> BTreeSet<KeySignature> {
    let mut out = BTreeSet::new();
    for e in events {
        for m in engine.ingest(e).unwrap() {
            let mut bindings: Vec<(String, String)> = m
                .bindings
                .iter()
                .map(|b| (b.variable.clone(), b.key.clone()))
                .collect();
            bindings.sort();
            out.insert((bindings, m.at.as_micros(), m.span.as_micros()));
        }
    }
    out
}

fn repeated_signatures(query: &QueryGraph, events: &[EdgeEvent]) -> BTreeSet<Signature> {
    let mut graph = DynamicGraph::unbounded();
    let mut matcher = RepeatedSearchMatcher::new(query.clone());
    let mut out = BTreeSet::new();
    for e in events {
        graph.ingest(e);
        for emb in matcher.process_update(&graph) {
            out.insert(emb.signature());
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Malformed / adversarial inputs
// ---------------------------------------------------------------------------

#[test]
fn self_loops_do_not_produce_non_injective_matches() {
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    engine.register_query(pair_query(1_000)).unwrap();
    // A self-loop on the keyword vertex and an article that mentions itself.
    engine.ingest(&ev("k1", "K", "k1", "K", "rel", 1)).unwrap();
    engine.ingest(&ev("a1", "A", "a1", "A", "rel", 2)).unwrap();
    // One legitimate mention; still no complete pair (a1 = a2 is forbidden).
    let matches = engine.ingest(&ev("a1", "A", "k1", "K", "rel", 3)).unwrap();
    assert!(matches.is_empty());
    // A second, distinct article completes the pattern exactly once per
    // automorphism.
    let matches = engine.ingest(&ev("a2", "A", "k1", "K", "rel", 4)).unwrap();
    assert_eq!(matches.len(), 2);
}

#[test]
fn duplicate_edge_events_agree_with_repeated_search() {
    let query = pair_query(500);
    let events = vec![
        ev("a1", "A", "k1", "K", "rel", 1),
        ev("a1", "A", "k1", "K", "rel", 1), // exact duplicate
        ev("a2", "A", "k1", "K", "rel", 2),
        ev("a2", "A", "k1", "K", "rel", 3), // same endpoints, later timestamp
    ];
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    engine.register_query(query.clone()).unwrap();
    let incremental = signatures(&mut engine, &events);
    let repeated = repeated_signatures(&query, &events);
    assert_eq!(incremental, repeated);
    assert!(!incremental.is_empty());
}

#[test]
fn out_of_order_timestamps_do_not_panic_and_respect_the_window() {
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    engine.register_query(pair_query(30)).unwrap();
    // The second mention arrives with an *older* timestamp, still inside the
    // window relative to the first edge.
    engine
        .ingest(&ev("a1", "A", "k1", "K", "rel", 100))
        .unwrap();
    let in_window = engine.ingest(&ev("a2", "A", "k1", "K", "rel", 80)).unwrap();
    assert_eq!(
        in_window.len(),
        2,
        "late-but-in-window edge must still match"
    );

    // A mention that is far in the past relative to the window must not match.
    let stale = engine.ingest(&ev("a3", "A", "k1", "K", "rel", 10)).unwrap();
    assert!(
        stale.iter().all(|m| m.span.as_secs() < 30),
        "any reported match must still satisfy τ(g) < tW"
    );
}

#[test]
fn clock_jumps_forward_expire_state_without_panicking() {
    use streamworks::SelectivityOrdered;
    let mut engine = ContinuousQueryEngine::new(EngineConfig {
        prune_every: 4,
        ..EngineConfig::default()
    });
    // Single-edge primitives so per-edge partial matches are actually stored.
    let id = engine
        .register_query_with(
            pair_query(60),
            &SelectivityOrdered {
                max_primitive_size: 1,
            },
            TreeShapeKind::LeftDeep,
        )
        .unwrap();
    engine.ingest(&ev("a1", "A", "k1", "K", "rel", 0)).unwrap();
    // Jump three hours ahead: the old partial match must be expired.
    engine
        .ingest(&ev("a2", "A", "k2", "K", "rel", 10_800))
        .unwrap();
    engine.prune_now();
    let metrics = engine.metrics(id).unwrap();
    assert!(metrics.partial_matches_expired > 0);
    // Matching continues normally at the new time frontier.
    let matches = engine
        .ingest(&ev("a3", "A", "k2", "K", "rel", 10_805))
        .unwrap();
    assert_eq!(matches.len(), 2);
}

#[test]
fn zero_width_window_reports_nothing() {
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    engine.register_query(pair_query(0)).unwrap();
    engine.ingest(&ev("a1", "A", "k1", "K", "rel", 5)).unwrap();
    let matches = engine.ingest(&ev("a2", "A", "k1", "K", "rel", 5)).unwrap();
    assert!(
        matches.is_empty(),
        "τ(g) < 0s can never hold, even for simultaneous edges"
    );
}

#[test]
fn types_unseen_at_registration_time_still_match_later() {
    // Register before *any* data: the type interner knows nothing about the
    // query's labels yet, so constraints must re-resolve lazily.
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    engine.register_query(wedge_query(600)).unwrap();
    // Unrelated traffic with completely different types arrives first.
    for i in 0..50 {
        engine
            .ingest(&ev(
                &format!("h{i}"),
                "Host",
                &format!("h{}", i + 1),
                "Host",
                "flow",
                i,
            ))
            .unwrap();
    }
    engine
        .ingest(&ev("a1", "A", "k1", "K", "rel", 100))
        .unwrap();
    let matches = engine
        .ingest(&ev("a1", "A", "l1", "L", "loc", 101))
        .unwrap();
    assert_eq!(matches.len(), 1);
}

#[test]
fn unrelated_edge_types_never_reach_the_matcher_as_matches() {
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    let id = engine.register_query(pair_query(1_000)).unwrap();
    for i in 0..200 {
        let out = engine
            .ingest(&ev(
                &format!("x{}", i % 17),
                "A",
                &format!("y{}", i % 13),
                "K",
                "other_rel",
                i,
            ))
            .unwrap();
        assert!(out.is_empty());
    }
    assert_eq!(engine.metrics(id).unwrap().complete_matches, 0);
}

// ---------------------------------------------------------------------------
// Operational features preserve match semantics
// ---------------------------------------------------------------------------

#[test]
fn checkpoint_restore_preserves_future_matches_on_a_cyber_stream() {
    use streamworks::workloads::queries::smurf_ddos_query;
    use streamworks::workloads::{AttackKind, CyberConfig, CyberTrafficGenerator};

    let workload = CyberTrafficGenerator::new(CyberConfig {
        hosts: 200,
        background_edges: 4_000,
        attacks: vec![(AttackKind::SmurfDdos, 4)],
        ..Default::default()
    })
    .generate();
    let query = smurf_ddos_query(4, Duration::from_mins(5));

    // Reference: process the whole stream without interruption.
    let mut reference = ContinuousQueryEngine::builder().build().unwrap();
    reference.register_query(query.clone()).unwrap();
    let half = workload.events.len() / 2;
    let first_half_ref = key_signatures(&mut reference, &workload.events[..half]);
    let second_half_ref = key_signatures(&mut reference, &workload.events[half..]);

    // Checkpointed run: restart the engine in the middle of the stream.
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    engine.register_query(query).unwrap();
    let first_half = key_signatures(&mut engine, &workload.events[..half]);
    let checkpoint = EngineCheckpoint::capture(&engine);
    let json = checkpoint.to_json().unwrap();
    let mut restored = EngineCheckpoint::from_json(&json).unwrap().restore();
    let second_half = key_signatures(&mut restored, &workload.events[half..]);

    assert_eq!(first_half, first_half_ref);
    assert_eq!(
        second_half, second_half_ref,
        "matches completing after the restart must be identical to an uninterrupted run"
    );
}

/// A checkpoint written before the two sharing knobs beside
/// `shared_matching` were removed from `EngineConfig` (docs/MIGRATION.md,
/// 0.9; the fixture was produced by the last commit that had them, both
/// `true`) carries two config keys nobody reads any more. It must load — the
/// unknown keys ignored, not an error and certainly not a panic — and
/// restore into the same index as registering its plans afresh: both lifted
/// tenants and plain pairs, planned as single-edge leaves and as one
/// whole-tree leaf, one query paused. (The fixture lives outside `tests/` so
/// that the removed names stay greppable to zero in the source tree.)
#[test]
fn checkpoints_written_with_the_removed_sharing_knobs_still_load() {
    let json = include_str!("../fixtures/checkpoint_pr12.json");
    assert_eq!(json.matches("_sharing\":true").count(), 2);
    let checkpoint = EngineCheckpoint::load(json).expect("unknown config keys are ignored");
    assert_eq!(checkpoint.plans.len(), 7);
    assert!(checkpoint.config.shared_matching);

    let dedup = |engine: &ContinuousQueryEngine| {
        let m = engine.engine_metrics();
        (
            (m.distinct_primitives, m.subscribed_primitives),
            (m.distinct_subtrees, m.subscribed_subtrees, m.lifted_entries),
        )
    };
    let mut restored = checkpoint.restore();
    let mut fresh = ContinuousQueryEngine::builder().build().unwrap();
    for plan in &checkpoint.plans {
        fresh.register_plan(plan.clone());
    }
    assert_eq!(dedup(&restored), dedup(&fresh));
    assert_ne!(dedup(&fresh), ((0, 0), (0, 0, 0)));
    assert!(restored.sharing_active());

    // The retained edges were replayed: a second politics mention of `rust`
    // completes the pair for both politics tenants (and for the unlabelled
    // pairs that were observing), on top of the pre-checkpoint partials.
    let done = restored
        .ingest(
            &ev("a2", "Article", "rust", "Keyword", "mentions", 20).with_attr("label", "politics"),
        )
        .unwrap();
    let by_query = |name: &str| done.iter().filter(|m| m.query_name == name).count();
    assert_eq!(by_query("t_politics"), 2);
    assert_eq!(by_query("wide_politics"), 2);
    assert_eq!(by_query("pair1"), 2);
    assert_eq!(by_query("pair2"), 0, "paused at capture, still paused");
    assert_eq!(by_query("t_sports") + by_query("t_culture"), 0);
}

#[test]
fn statistics_driven_strategies_agree_with_the_blind_plan() {
    use streamworks::workloads::{NewsConfig, NewsStreamGenerator};
    let workload = NewsStreamGenerator::new(NewsConfig {
        articles: 400,
        planted_events: vec![("politics".into(), 3)],
        ..Default::default()
    })
    .generate();
    let query =
        streamworks::workloads::queries::labelled_news_query("politics", Duration::from_mins(30));

    let mut results = Vec::new();
    let strategies: Vec<(&str, Box<dyn streamworks::query::DecompositionStrategy>)> = vec![
        ("blind", Box::new(LeftDeepEdgeChain)),
        ("cost", Box::new(CostBasedOrdered::default())),
        ("triads", Box::new(TriadWedges::default())),
    ];
    for (name, strategy) in &strategies {
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        engine
            .register_query_with(query.clone(), strategy.as_ref(), TreeShapeKind::LeftDeep)
            .unwrap();
        let sigs = signatures(&mut engine, &workload.events);
        results.push((name, sigs));
    }
    let reference = results[0].1.clone();
    assert!(!reference.is_empty(), "planted bursts must be detected");
    for (name, sigs) in &results[1..] {
        assert_eq!(sigs, &reference, "strategy {name} changed the result set");
    }
}

#[test]
fn adaptive_replanning_keeps_finding_matches_after_the_switch() {
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    let id = engine
        .register_query_with(
            wedge_query(3_600),
            &LeftDeepEdgeChain,
            TreeShapeKind::LeftDeep,
        )
        .unwrap();
    let mut replanner = AdaptiveReplanner::new(AdaptiveConfig {
        min_edges_between_replans: 200,
        drift_threshold: 0.05,
        min_improvement: 1.0,
        ..AdaptiveConfig::default()
    });
    replanner.check(&mut engine);

    // Skewed warm-up traffic that motivates a re-plan.
    let mut t = 0;
    for i in 0..600 {
        engine
            .ingest(&ev(
                &format!("a{}", i % 40),
                "A",
                &format!("k{}", i % 12),
                "K",
                "rel",
                t,
            ))
            .unwrap();
        t += 1;
    }
    let decisions = replanner.check(&mut engine);
    assert!(
        decisions.iter().any(|d| d.replanned),
        "re-plan expected on drifted statistics"
    );

    // Patterns completed entirely after the re-plan are still found.
    let before = engine.metrics(id).unwrap().complete_matches;
    engine
        .ingest(&ev("fresh", "A", "k-new", "K", "rel", t + 10))
        .unwrap();
    let matches = engine
        .ingest(&ev("fresh", "A", "l-new", "L", "loc", t + 11))
        .unwrap();
    assert_eq!(matches.len(), 1);
    assert_eq!(engine.metrics(id).unwrap().complete_matches, before + 1);
}

// ---------------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------------

fn to_events(raw: &[(u8, u8, i64)]) -> Vec<EdgeEvent> {
    raw.iter()
        .map(|&(a, k, t)| {
            ev(
                &format!("a{}", a % 6),
                "A",
                &format!("k{}", k % 4),
                "K",
                "rel",
                t.rem_euclid(300),
            )
        })
        .collect()
}

/// Like [`to_events`] but delivered in timestamp order (the setting in which
/// incremental matching is equivalent to unbounded repeated search).
fn to_sorted_events(raw: &[(u8, u8, i64)]) -> Vec<EdgeEvent> {
    let mut events = to_events(raw);
    events.sort_by_key(|e| e.timestamp);
    events
}

/// Draws a raw `(src, keyword, timestamp)` stream description.
fn random_raw(rng: &mut StdRng, max_len: usize) -> Vec<(u8, u8, i64)> {
    let len = rng.gen_range(1..max_len);
    (0..len)
        .map(|_| {
            (
                rng.gen_range(0..8u8),
                rng.gen_range(0..5u8),
                rng.gen_range(0i64..300),
            )
        })
        .collect()
}

/// Restarting from a checkpoint at *any* split point never changes the
/// matches reported for the rest of the stream.
#[test]
fn checkpoint_restore_is_transparent() {
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    for _ in 0..48 {
        let events = to_events(&random_raw(&mut rng, 40));
        let split = rng.gen_range(0usize..40).min(events.len());
        let window = rng.gen_range(20i64..200);
        let query = pair_query(window);

        let mut reference = ContinuousQueryEngine::builder().build().unwrap();
        reference.register_query(query.clone()).unwrap();
        let _ = key_signatures(&mut reference, &events[..split]);
        let tail_ref = key_signatures(&mut reference, &events[split..]);

        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        engine.register_query(query).unwrap();
        let _ = key_signatures(&mut engine, &events[..split]);
        let mut restored = engine.checkpoint().restore();
        let tail = key_signatures(&mut restored, &events[split..]);

        assert_eq!(tail, tail_ref);
    }
}

/// The cost-based strategy reports exactly the same windowed matches as
/// the repeated-search baseline on arbitrary streams.
#[test]
fn cost_based_plans_match_repeated_search() {
    let mut rng = StdRng::seed_from_u64(0xDECAF);
    for _ in 0..48 {
        let events = to_sorted_events(&random_raw(&mut rng, 35));
        let window = rng.gen_range(20i64..200);
        let query = pair_query(window);
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        engine
            .register_query_with(
                query.clone(),
                &CostBasedOrdered::default(),
                TreeShapeKind::LeftDeep,
            )
            .unwrap();
        let incremental = signatures(&mut engine, &events);
        let repeated = repeated_signatures(&query, &events);
        assert_eq!(incremental, repeated);
    }
}

/// Out-of-order delivery (shuffled timestamps assigned to arrival order)
/// never panics and never reports a match wider than the window.
#[test]
fn shuffled_streams_respect_window_semantics() {
    let mut rng = StdRng::seed_from_u64(0xF00D);
    for _ in 0..48 {
        let events = to_events(&random_raw(&mut rng, 40));
        let window = rng.gen_range(5i64..100);
        let query = pair_query(window);
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        engine.register_query(query).unwrap();
        for e in &events {
            for m in engine.ingest(e).unwrap() {
                assert!(m.span < Duration::from_secs(window));
            }
        }
    }
}
