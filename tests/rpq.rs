//! Regular-path-query correctness: every engine emission is pinned against a
//! brute-force windowed path enumerator (`common/rpq_oracle.rs`).
//!
//! The oracle keeps the full edge log and, after every single event,
//! recomputes from scratch the set of (source, target) pairs connected by a
//! label path the query's DFA accepts using only *live* edges (timestamp
//! strictly inside the window at the current stream time). The engine's
//! emission contract is "a pair is reported when it enters the live result
//! set" — so the predicted emissions for one event are exactly the pairs in
//! the oracle's live set after the event that were not in it immediately
//! before (at the same, already-advanced clock). The suite runs that
//! comparison per event across regex shapes (star, alternation, bounded
//! repetition), window sizes, out-of-order delivery, the two domain
//! workloads (cyber lateral movement, news citation chains), lifecycle
//! churn, and a checkpoint/restore cut mid-stream.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use streamworks::engine::EngineCheckpoint;
use streamworks::workloads::{
    citation_chain_rpq, lateral_movement_rpq, CitationChainGenerator, CitationConfig,
    LateralMovementConfig, LateralMovementGenerator,
};
use streamworks::{
    parse_rpq, ContinuousQueryEngine, Duration, EdgeEvent, QueryHandle, RpqQuery, Timestamp,
};

#[path = "common/rpq_oracle.rs"]
mod rpq_oracle;
use rpq_oracle::{assert_valid_witness, pair_of, Oracle};

/// Replays `events` one at a time through a fresh engine and the oracle,
/// asserting identical emissions — each with a valid witness — after every
/// single event. Returns the emitted pairs in emission order.
fn replay_against_oracle(rpq: &RpqQuery, events: &[EdgeEvent]) -> Vec<(String, String)> {
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    let handle = engine.register_rpq(rpq.clone());
    let mut oracle = Oracle::new(rpq);
    let mut now: Option<Timestamp> = None;
    let mut emitted = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let at = now.map_or(ev.timestamp, |n| n.max(ev.timestamp));
        now = Some(at);
        let matches = engine.ingest(ev).unwrap();
        let mut got = Vec::new();
        for m in matches.iter().filter(|m| m.handle() == handle) {
            assert_valid_witness(&engine, &oracle, m, at);
            got.push(pair_of(m));
        }
        got.sort();
        let want = oracle.ingest(ev, at);
        assert_eq!(got, want, "event #{i} ({ev:?}) at {at:?}");
        emitted.extend(got);
    }
    emitted
}

/// [`replay_against_oracle`], returning the total number of matches, so
/// callers can assert the run was not vacuous.
fn check_against_oracle(rpq: &RpqQuery, events: &[EdgeEvent]) -> usize {
    replay_against_oracle(rpq, events).len()
}

/// A random labelled stream over a small vertex set. `jitter_ms > 0` makes
/// delivery out of order (timestamps are perturbed backwards after the
/// arrival sequence is fixed).
fn random_events(
    labels: &[&str],
    vertices: usize,
    count: usize,
    max_step_ms: i64,
    jitter_ms: i64,
    seed: u64,
) -> Vec<EdgeEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0i64;
    (0..count)
        .map(|_| {
            t += rng.gen_range(1..=max_step_ms);
            let ts = Timestamp::from_millis((t - rng.gen_range(0..=jitter_ms)).max(0));
            let src = format!("v{}", rng.gen_range(0..vertices));
            let dst = format!("v{}", rng.gen_range(0..vertices));
            let label = labels[rng.gen_range(0..labels.len())];
            EdgeEvent::new(src, "V", dst, "V", label, ts)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Regex shapes, window sizes, out-of-order delivery
// ---------------------------------------------------------------------------

#[test]
fn star_pattern_matches_oracle_under_expiry() {
    let rpq = parse_rpq("RPQ star WINDOW 5s PATH a b* c").unwrap();
    // `d` is outside the alphabet: noise the matcher must ignore.
    let events = random_events(&["a", "b", "c", "d"], 8, 250, 300, 0, 42);
    let matches = check_against_oracle(&rpq, &events);
    assert!(matches > 0, "stream too sparse to exercise the pattern");
}

#[test]
fn alternation_matches_oracle() {
    let rpq = parse_rpq("RPQ alt WINDOW 4s PATH (a | b) c+").unwrap();
    let events = random_events(&["a", "b", "c"], 7, 220, 250, 0, 7);
    let matches = check_against_oracle(&rpq, &events);
    assert!(matches > 0);
}

#[test]
fn bounded_repetition_matches_oracle() {
    let rpq = parse_rpq("RPQ rep WINDOW 6s PATH a{2,4}").unwrap();
    let events = random_events(&["a", "b"], 6, 220, 250, 0, 99);
    let matches = check_against_oracle(&rpq, &events);
    assert!(matches > 0);
}

#[test]
fn out_of_order_delivery_matches_oracle() {
    // Timestamps jittered up to 2s backwards on a ~0.25s cadence: plenty of
    // late arrivals, some of them already outside the 3s window on arrival.
    let rpq = parse_rpq("RPQ ooo WINDOW 3s PATH a b* c").unwrap();
    let events = random_events(&["a", "b", "c"], 8, 250, 250, 2_000, 1234);
    check_against_oracle(&rpq, &events);
}

#[test]
fn window_size_sweep_matches_oracle() {
    let events = random_events(&["a", "b", "c"], 8, 180, 300, 400, 5);
    for (window, expect_matches) in [("500ms", false), ("8s", true), ("1h", true)] {
        let rpq = parse_rpq(&format!("RPQ w WINDOW {window} PATH a b* c")).unwrap();
        let matches = check_against_oracle(&rpq, &events);
        if expect_matches {
            assert!(matches > 0, "window {window} found nothing");
        }
    }
}

// ---------------------------------------------------------------------------
// Differential sweep: hubs, parallel edges, self-loops, disordered buckets
// ---------------------------------------------------------------------------

/// How a skewed stream is delivered.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Delivery {
    /// Timestamps rise with arrival order.
    InOrder,
    /// Every timestamp is pushed back by up to 2 s after the arrival order
    /// is fixed: most adjacency buckets lose their time order.
    Jittered,
    /// In order, except for one edge out of the busiest hub that arrives
    /// 1.5 s late in the middle of the stream: exactly one disordered
    /// bucket, at the vertex most relaxations pass through.
    OneLateHubEdge,
}

/// A stream over 10 vertices drawn with Zipf weights `1/rank` (so `v0` and
/// `v1` carry more than half of all endpoints, parallel edges and self-loops
/// are common), labels `a b c` plus `d` from outside every alphabet used.
fn skewed_events(count: usize, delivery: Delivery, seed: u64) -> Vec<EdgeEvent> {
    const WEIGHTS: [u32; 10] = [60, 30, 20, 15, 12, 10, 8, 7, 6, 6];
    let mut rng = StdRng::seed_from_u64(seed);
    let vertex = |rng: &mut StdRng| {
        let mut ticket = rng.gen_range(0..WEIGHTS.iter().sum::<u32>());
        let rank = WEIGHTS.iter().position(|&w| {
            let hit = ticket < w;
            ticket = ticket.saturating_sub(w);
            hit
        });
        format!("v{}", rank.expect("ticket below the total weight"))
    };
    let mut t = 0i64;
    let mut events = Vec::with_capacity(count + 1);
    for i in 0..count {
        t += rng.gen_range(1..=120i64);
        let jitter = match delivery {
            Delivery::Jittered => rng.gen_range(0..=2_000i64),
            _ => 0,
        };
        let (src, dst) = (vertex(&mut rng), vertex(&mut rng));
        let label = ["a", "b", "c", "d"][rng.gen_range(0..4usize)];
        let ts = Timestamp::from_millis((t - jitter).max(0));
        events.push(EdgeEvent::new(src, "V", dst, "V", label, ts));
        if delivery == Delivery::OneLateHubEdge && i == count / 2 {
            let late = Timestamp::from_millis((t - 1_500).max(0));
            let dst = vertex(&mut rng);
            events.push(EdgeEvent::new("v0", "V", dst, "V", "b", late));
            events.push(EdgeEvent::new("v0", "V", "v1", "V", "a", late));
        }
    }
    events
}

#[test]
fn skewed_streams_match_the_oracle_across_seeds_and_delivery_orders() {
    // 3 s of window over ~60 ms per event: pairs expire and re-enter all the
    // time, and hub nodes are refined many times before they do.
    for pattern in ["a b* c", "a+"] {
        let rpq = parse_rpq(&format!("RPQ sweep WINDOW 3s PATH {pattern}")).unwrap();
        let (mut matches, mut reentries) = (0, 0);
        for seed in 0..16 {
            for delivery in [
                Delivery::InOrder,
                Delivery::Jittered,
                Delivery::OneLateHubEdge,
            ] {
                let events = skewed_events(160, delivery, 1_000 + seed);
                let emitted = replay_against_oracle(&rpq, &events);
                let distinct: HashSet<&(String, String)> = emitted.iter().collect();
                matches += emitted.len();
                reentries += emitted.len() - distinct.len();
            }
        }
        assert!(matches > 1_000, "`{pattern}`: only {matches} matches");
        assert!(reentries > 100, "`{pattern}`: only {reentries} re-entries");
    }
}

#[test]
fn a_wider_window_registered_mid_stream_never_walks_expired_edges() {
    // While only the 1 s query is registered the graph retains 1 s; the hub
    // adjacency lists keep entries of expired edges until their next
    // compaction. Registering a 30 s query widens the retention over those
    // entries' timestamps — they must stay dead to the new matcher.
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    engine
        .register_rpq_dsl("RPQ narrow WINDOW 1s PATH a+")
        .unwrap();
    let events = skewed_events(300, Delivery::InOrder, 7);
    let (before, after) = events.split_at(150);
    for ev in before {
        engine.ingest(ev).unwrap();
    }
    let rpq = parse_rpq("RPQ wide WINDOW 30s PATH a+").unwrap();
    let wide = engine.register_rpq(rpq.clone());
    let oracle = Oracle::new(&rpq);
    let mut checked = 0;
    for ev in after {
        let matches = engine.ingest(ev).unwrap();
        for m in matches.iter().filter(|m| m.handle() == wide) {
            assert_valid_witness(&engine, &oracle, m, engine.graph().now());
            checked += 1;
        }
    }
    assert!(checked > 20, "only {checked} matches of the wide query");
}

// ---------------------------------------------------------------------------
// The two domain scenarios
// ---------------------------------------------------------------------------

#[test]
fn cyber_lateral_movement_matches_oracle_and_finds_all_chains() {
    let workload = LateralMovementGenerator::new(LateralMovementConfig {
        hosts: 16,
        background_edges: 150,
        edge_interval: Duration::from_millis(10),
        intrusions: vec![0, 2, 5],
        ..Default::default()
    })
    .generate();
    let rpq = lateral_movement_rpq(Duration::from_secs(600));

    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    engine.register_rpq(rpq.clone());
    let mut oracle = Oracle::new(&rpq);
    let mut now: Option<Timestamp> = None;
    let mut all: Vec<(String, String)> = Vec::new();
    for ev in &workload.events {
        let at = now.map_or(ev.timestamp, |n| n.max(ev.timestamp));
        now = Some(at);
        let mut got: Vec<(String, String)> =
            engine.ingest(ev).unwrap().iter().map(pair_of).collect();
        got.sort();
        assert_eq!(got, oracle.ingest(ev, at), "event {ev:?}");
        all.extend(got);
    }
    // Full recall on the planted ground truth.
    for chain in &workload.chains {
        assert!(
            all.iter()
                .any(|(s, t)| *s == chain.source && *t == chain.target),
            "planted chain {chain:?} not detected"
        );
    }
}

#[test]
fn news_citation_chains_match_oracle_and_find_all_chains() {
    let workload = CitationChainGenerator::new(CitationConfig {
        articles: 30,
        background_edges: 120,
        edge_interval: Duration::from_millis(20),
        chains: vec![2, 4],
        ..Default::default()
    })
    .generate();
    let rpq = citation_chain_rpq(Duration::from_secs(600));
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    engine.register_rpq(rpq.clone());
    let mut oracle = Oracle::new(&rpq);
    let mut now: Option<Timestamp> = None;
    let mut all: Vec<(String, String)> = Vec::new();
    for ev in &workload.events {
        let at = now.map_or(ev.timestamp, |n| n.max(ev.timestamp));
        now = Some(at);
        let mut got: Vec<(String, String)> =
            engine.ingest(ev).unwrap().iter().map(pair_of).collect();
        got.sort();
        assert_eq!(got, oracle.ingest(ev, at), "event {ev:?}");
        all.extend(got);
    }
    for chain in &workload.chains {
        assert!(
            all.iter()
                .any(|(s, t)| *s == chain.source && *t == chain.target),
            "planted chain {chain:?} not detected"
        );
    }
}

// ---------------------------------------------------------------------------
// Windowed expiry is exact
// ---------------------------------------------------------------------------

#[test]
fn tree_state_drains_to_zero_after_a_full_window() {
    let rpq = parse_rpq("RPQ drain WINDOW 10s PATH a b* c").unwrap();
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    let handle = engine.register_rpq(rpq);

    let events = random_events(&["a", "b", "c"], 6, 120, 200, 0, 21);
    for ev in &events {
        engine.ingest(ev).unwrap();
    }
    assert!(
        engine.metrics(handle).unwrap().rpq_tree_nodes_live > 0,
        "stream should leave live tree state behind"
    );

    // Advance the clock far past the window with an out-of-alphabet edge:
    // the matcher drains its expiry heap before the symbol check, so every
    // node, counter and tree must be gone afterwards.
    let far = Timestamp::from_secs(10_000);
    engine
        .ingest(&EdgeEvent::new("x", "V", "y", "V", "zz", far))
        .unwrap();
    let m = engine.metrics(handle).unwrap();
    assert_eq!(m.rpq_tree_nodes_live, 0, "tree state must drain exactly");
    assert_eq!(
        m.partial_matches_expired, m.partial_matches_inserted,
        "every inserted node must eventually expire"
    );
}

// ---------------------------------------------------------------------------
// Lifecycle churn
// ---------------------------------------------------------------------------

/// A two-hop chain that completes the pattern `a c` at `base_ms`.
fn chain(tag: &str, base_ms: i64) -> [EdgeEvent; 2] {
    [
        EdgeEvent::new(
            format!("{tag}-s"),
            "V",
            format!("{tag}-m"),
            "V",
            "a",
            Timestamp::from_millis(base_ms),
        ),
        EdgeEvent::new(
            format!("{tag}-m"),
            "V",
            format!("{tag}-t"),
            "V",
            "c",
            Timestamp::from_millis(base_ms + 100),
        ),
    ]
}

#[test]
fn lifecycle_churn_pauses_resumes_and_deregisters() {
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    let handle = engine
        .register_rpq_dsl("RPQ life WINDOW 1h PATH a b* c")
        .unwrap();
    assert!(engine.is_rpq(handle).unwrap());

    // Running: a completed chain emits.
    let matched: usize = chain("r1", 1_000)
        .iter()
        .map(|e| engine.ingest(e).unwrap().len())
        .sum();
    assert_eq!(matched, 1);

    // Paused: the query observes nothing, so a chain completed entirely
    // while paused is never reported — even after resume.
    engine.pause(handle).unwrap();
    let matched: usize = chain("p1", 2_000)
        .iter()
        .map(|e| engine.ingest(e).unwrap().len())
        .sum();
    assert_eq!(matched, 0, "paused query must not emit");
    engine.resume(handle).unwrap();
    assert!(engine.ingest(&chain("p2", 3_000)[1]).unwrap().is_empty());

    // Resumed: fresh chains match again.
    let matched: usize = chain("r2", 4_000)
        .iter()
        .map(|e| engine.ingest(e).unwrap().len())
        .sum();
    assert_eq!(matched, 1);

    // Replanning an RPQ is a successful no-op (its minimized DFA is
    // canonical) and does not disturb accumulated state.
    engine
        .replan(
            handle,
            &streamworks::SelectivityOrdered::default(),
            streamworks::TreeShapeKind::LeftDeep,
        )
        .unwrap();
    let matched: usize = chain("r3", 5_000)
        .iter()
        .map(|e| engine.ingest(e).unwrap().len())
        .sum();
    assert_eq!(matched, 1, "replan no-op must not disturb the matcher");

    // Deregister: the slot is released, the stale handle is rejected, and
    // further chains go unmatched.
    engine.deregister(handle).unwrap();
    assert!(engine.metrics(handle).is_err());
    let matched: usize = chain("d1", 6_000)
        .iter()
        .map(|e| engine.ingest(e).unwrap().len())
        .sum();
    assert_eq!(matched, 0);

    // Slot recycling: the next registration reuses the slot under a new
    // generation, so the old handle stays dead.
    let fresh = engine
        .register_rpq_dsl("RPQ life2 WINDOW 1h PATH a c")
        .unwrap();
    assert_eq!(fresh.id(), handle.id());
    assert_ne!(fresh, handle);
    assert!(engine.metrics(handle).is_err());
    assert!(engine.metrics(fresh).is_ok());
}

#[test]
fn wrong_query_kind_is_a_typed_error() {
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    let rpq = engine
        .register_rpq_dsl("RPQ kinds WINDOW 1h PATH a")
        .unwrap();
    let sj = engine
        .register_query(
            streamworks::QueryGraphBuilder::new("pair")
                .window(Duration::from_secs(3_600))
                .vertex("x", "V")
                .vertex("y", "V")
                .edge("x", "e", "y")
                .build()
                .unwrap(),
        )
        .unwrap();
    assert!(engine.plan(rpq).is_err(), "RPQ has no SJ-Tree plan");
    assert!(engine.rpq_query(sj).is_err(), "SJ query is not an RPQ");
    assert!(!engine.is_rpq(sj).unwrap());
    assert!(engine.rpq_query(rpq).is_ok());
}

// ---------------------------------------------------------------------------
// Checkpoint / restore mid-stream
// ---------------------------------------------------------------------------

#[test]
fn checkpoint_round_trip_mid_stream_preserves_rpq_semantics() {
    let rpq = parse_rpq("RPQ ckpt WINDOW 20s PATH a b* c").unwrap();
    let events = random_events(&["a", "b", "c"], 8, 200, 200, 0, 77);
    let (first, second) = events.split_at(events.len() / 2);

    // Original engine + oracle over the first half.
    let mut original = ContinuousQueryEngine::builder().build().unwrap();
    let handle = original.register_rpq(rpq.clone());
    let mut oracle = Oracle::new(&rpq);
    let mut now: Option<Timestamp> = None;
    for ev in first {
        let at = now.map_or(ev.timestamp, |n| n.max(ev.timestamp));
        now = Some(at);
        let mut got: Vec<(String, String)> =
            original.ingest(ev).unwrap().iter().map(pair_of).collect();
        got.sort();
        assert_eq!(got, oracle.ingest(ev, at));
    }

    // Cut: capture, serialise, restore. The restored engine must carry the
    // RPQ (as an RPQ, not a plan) and its reconstructed tree state.
    let json = EngineCheckpoint::capture(&original).to_json().unwrap();
    let mut restored = EngineCheckpoint::from_json(&json).unwrap().restore();
    let restored_handle = restored.handles()[0];
    assert!(restored.is_rpq(restored_handle).unwrap());
    assert_eq!(
        restored.rpq_query(restored_handle).unwrap().name(),
        rpq.name()
    );

    // Second half: the original, the restored engine and the oracle must
    // agree emission-for-emission. (The restored engine replayed only live
    // edges, so its already-reported pairs coincide with the original's.)
    for ev in second {
        let at = now.map_or(ev.timestamp, |n| n.max(ev.timestamp));
        now = Some(at);
        let mut from_original: Vec<(String, String)> = original
            .ingest(ev)
            .unwrap()
            .iter()
            .filter(|m| m.handle() == handle)
            .map(pair_of)
            .collect();
        from_original.sort();
        let mut from_restored: Vec<(String, String)> = restored
            .ingest(ev)
            .unwrap()
            .iter()
            .filter(|m| m.handle() == restored_handle)
            .map(pair_of)
            .collect();
        from_restored.sort();
        let want = oracle.ingest(ev, at);
        assert_eq!(from_original, want, "original diverged at {ev:?}");
        assert_eq!(from_restored, want, "restored diverged at {ev:?}");
    }
}

#[test]
fn checkpoint_interleaves_both_query_classes() {
    // Registration order SJ, RPQ, SJ, RPQ — the round-trip must preserve
    // each slot's kind and name.
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    let mk_sj = |name: &str| {
        streamworks::QueryGraphBuilder::new(name)
            .window(Duration::from_secs(3_600))
            .vertex("x", "V")
            .vertex("y", "V")
            .edge("x", "e", "y")
            .build()
            .unwrap()
    };
    engine.register_query(mk_sj("sj_a")).unwrap();
    engine
        .register_rpq_dsl("RPQ rpq_a WINDOW 1h PATH a c")
        .unwrap();
    engine.register_query(mk_sj("sj_b")).unwrap();
    let paused = engine
        .register_rpq_dsl("RPQ rpq_b WINDOW 1h PATH a b* c")
        .unwrap();
    engine.pause(paused).unwrap();
    engine.ingest(&chain("seed", 1_000)[0]).unwrap();

    let restored = EngineCheckpoint::capture(&engine).restore();
    let handles: Vec<QueryHandle> = restored.handles();
    assert_eq!(handles.len(), 4);
    let kinds: Vec<bool> = handles
        .iter()
        .map(|&h| restored.is_rpq(h).unwrap())
        .collect();
    assert_eq!(kinds, vec![false, true, false, true]);
    assert_eq!(restored.rpq_query(handles[1]).unwrap().name(), "rpq_a");
    assert_eq!(restored.rpq_query(handles[3]).unwrap().name(), "rpq_b");
    assert!(restored.is_paused(handles[3]).unwrap());
    assert!(!restored.is_paused(handles[1]).unwrap());
}
