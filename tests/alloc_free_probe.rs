//! Verifies the zero-allocation guarantee of the unified matcher hot path:
//! once a [`SharedJoinStore`]'s key index and its two rings are warm, the
//! `probe_then_insert` join step (key projection, one index look-up, sibling
//! chain walk, merge in the probe closure, append at the ring's tail), the
//! metadata-only expiry sweep, a compaction, and binding merges perform no
//! heap allocation for paper-sized queries — and neither does a whole
//! `SjTreeMatcher::process_edge`: local search, the in-place join climb
//! through both internal nodes, joined pairs and complete matches included.
//! The ingest front in front of it does not allocate either once warm:
//! `DynamicGraph::ingest` of a stream of ever-new vertices recycles evicted
//! vertex slots, key buffers and adjacency buffers, and a live vertex whose
//! edges of one type come and go refills the bucket a compaction emptied.
//! Uses a counting global allocator, so this test lives in its own
//! integration-test binary. The count is per thread: the harness runs the
//! tests of this file on parallel threads, and a process-wide counter would
//! charge one test with its neighbours' warm-up allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    // `const` initialiser and no destructor: safe to touch from inside the
    // allocator, at any point of a thread's life.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

use streamworks::engine::{JoinSide, PartialMatch, SharedJoinStore, SjTreeMatcher};
use streamworks::graph::GraphConfig;
use streamworks::query::{ManualDecomposition, QueryEdgeId, QueryVertexId};
use streamworks::{
    ContinuousQueryEngine, Duration, DynamicGraph, EdgeEvent, EdgeId, EventSink, MatchEvent,
    Planner, QueryGraphBuilder, QueryPlan, Timestamp, VertexId,
};

/// A sink that drops each event as it arrives.
struct Discard;

impl EventSink for Discard {
    fn on_match(&mut self, event: MatchEvent) {
        drop(event);
    }
}

fn pair_match(a: u32, b: u32, edge: u64, ts: i64) -> PartialMatch {
    let mut m = PartialMatch::seed(
        4,
        QueryEdgeId(edge as usize % 4),
        EdgeId(edge),
        Timestamp::from_secs(ts),
    );
    assert!(m.binding.bind(QueryVertexId(0), VertexId(a)));
    assert!(m.binding.bind(QueryVertexId(1), VertexId(b)));
    m
}

/// Files `m` on `side`, returning how many sibling candidates were probed.
fn file(store: &mut SharedJoinStore, side: JoinSide, m: PartialMatch) -> usize {
    let key = store.join_key_for(&m).expect("pair matches bind the key");
    let mut probed = 0usize;
    store.probe_then_insert(side, key, m, |m, candidate| {
        probed += 1;
        // The merge every real probe performs; both matches bind the same
        // key vertices, so the merge must succeed.
        assert!(m.binding.merge(&candidate.binding).is_some());
    });
    probed
}

#[test]
fn probe_then_insert_is_allocation_free_once_warm() {
    let mut store = SharedJoinStore::new(vec![QueryVertexId(0), QueryVertexId(1)]);

    // Warm-up: 16 keys, 8 matches per side per key (timestamps 0..8), so the
    // key index and both rings have backing capacity.
    for ts in 0..8i64 {
        for k in 0..16u32 {
            file(
                &mut store,
                JoinSide::Left,
                pair_match(k, 100 + k, (ts as u64) * 32 + k as u64, ts),
            );
            file(
                &mut store,
                JoinSide::Right,
                pair_match(k, 100 + k, (ts as u64) * 32 + 16 + k as u64, ts),
            );
        }
    }
    // Expire the older half: each ring's front advances past 64 slots, which
    // the next filings reuse.
    let removed = store.expire_older_than(Timestamp::from_secs(4));
    assert_eq!(removed, 128);
    assert_eq!(store.len(), 128);

    // Steady state: key projection + single-hash-op probe + sibling chain
    // walk + candidate merge + append into the ring's free slots must not
    // touch the allocator.
    let before = allocations();
    let mut hits = 0usize;
    for i in 0..16u32 {
        hits += file(
            &mut store,
            JoinSide::Right,
            pair_match(i, 100 + i, 500 + i as u64, 10 + i as i64),
        );
    }
    assert_eq!(
        allocations(),
        before,
        "SharedJoinStore::probe_then_insert allocated on the warm probe path"
    );
    assert_eq!(hits, 64, "every probe scans its key's 4 left candidates");
}

/// The hot-wedge pattern pinned to three single-edge leaves, left-deep:
/// ((e0 ⋈ e1 on k) ⋈ e2 on a1). Every mention edge files two leaf matches,
/// each of which merges with the sibling side's matches under its keyword
/// and files every joined pair at the root's left side; a located edge
/// probes those pairs and emits complete matches.
fn hot_wedge_plan(window: Duration) -> QueryPlan {
    let query = QueryGraphBuilder::new("hot_wedge")
        .window(window)
        .vertex("a1", "Article")
        .vertex("a2", "Article")
        .vertex("k", "Keyword")
        .vertex("l", "Location")
        .edge("a1", "mentions", "k")
        .edge("a2", "mentions", "k")
        .edge("a1", "located", "l")
        .build()
        .unwrap();
    let leaves = ManualDecomposition::new(vec![
        vec![QueryEdgeId(0)],
        vec![QueryEdgeId(1)],
        vec![QueryEdgeId(2)],
    ]);
    let plan = Planner::new().plan_with(query, &leaves).unwrap();
    assert_eq!(plan.shape.node_count(), 5);
    plan
}

/// A periodic stream (period 384 s): 16 articles, 4 keywords, 2 cities, one
/// located edge in eight.
fn hot_wedge_event(i: u64) -> EdgeEvent {
    let t = Timestamp::from_secs(i as i64);
    if i % 8 == 7 {
        let (article, city) = (format!("a{}", (i / 8) % 16), format!("city{}", (i / 8) % 2));
        EdgeEvent::new(article, "Article", city, "Location", "located", t)
    } else {
        let (article, keyword) = (format!("a{}", i % 16), format!("k{}", (i / 3) % 4));
        EdgeEvent::new(article, "Article", keyword, "Keyword", "mentions", t)
    }
}

#[test]
fn whole_join_climb_is_allocation_free_once_warm() {
    let plan = hot_wedge_plan(Duration::from_secs(96));
    // Every join key of the periodic stream recurs well within the window,
    // so after a few periods every key is indexed and every ring has seen
    // its largest population.
    let mut graph = DynamicGraph::unbounded();
    let mut matcher = SjTreeMatcher::new(plan, &graph);
    let mut out = Vec::new();
    let (mut allocated, mut complete) = (0u64, 0usize);
    const WARM_UP: u64 = 2_000;
    const MEASURED: u64 = 2_000;
    for i in 0..WARM_UP + MEASURED {
        let ingested = graph.ingest(&hot_wedge_event(i));
        let edge = graph.edge(ingested.edge).unwrap().clone();
        out.clear();
        let before = allocations();
        matcher.process_edge(&graph, &edge, &mut out);
        if i >= WARM_UP {
            allocated += allocations() - before;
            complete += out.len();
        }
        // The engine's expiry cadence, scaled to this window.
        if (i + 1) % 32 == 0 {
            matcher.prune(edge.timestamp);
        }
    }
    let metrics = matcher.metrics();
    assert!(complete > 1_000, "only {complete} complete matches");
    assert!(
        metrics.joins_succeeded > 10 * MEASURED,
        "only {} joined pairs and complete matches",
        metrics.joins_succeeded
    );
    assert!(metrics.partial_matches_expired > 0, "the window never slid");
    assert_eq!(metrics.binding_spills, 0);
    assert_eq!(
        allocated, 0,
        "SjTreeMatcher::process_edge allocated {allocated} times over {MEASURED} steady-state events"
    );
}

#[test]
fn an_emitted_match_costs_three_allocations_once_warm() {
    // The engine's whole emission path: ingest front, shared-index climb,
    // and one `MatchEvent` per complete match, built with the query's
    // shared variable names and the engine's shared vertex keys. What is
    // left per match is the event's own query name, bindings and edges;
    // copying each name and key again would cost 2 more per vertex.
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    engine.register_plan(hot_wedge_plan(Duration::from_secs(96)));
    let events: Vec<EdgeEvent> = (0..8_000).map(hot_wedge_event).collect();
    let (warm, measured) = events.split_at(6_000);
    for event in warm {
        engine.ingest_with(event, &mut Discard).unwrap();
    }
    let (mut allocated, mut emitted) = (0u64, 0u64);
    for event in measured {
        let before = allocations();
        emitted += engine.ingest_with(event, &mut Discard).unwrap() as u64;
        allocated += allocations() - before;
    }
    assert!(emitted > 1_000, "only {emitted} matches");
    assert!(
        allocated <= 3 * emitted,
        "{allocated} allocations for {emitted} emitted matches"
    );
}

#[test]
fn shared_vertex_keys_stay_within_the_vertex_slots() {
    // Ten windows of ever-new articles, each mentioning one of 4 keywords
    // and then located: every located edge completes wedges binding new
    // keys, and evicted slots go to new keys after their quarantine. The
    // key table follows the slot vector, and a recycled slot never shows
    // the key of the vertex it held before.
    const WINDOW: i64 = 60;
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    engine.register_plan(hot_wedge_plan(Duration::from_secs(WINDOW)));
    let mut sizes = Vec::new();
    for t in 0..10 * WINDOW {
        let (article, at) = (format!("a{t}"), Timestamp::from_secs(t));
        let keyword = format!("k{}", t % 4);
        let city = format!("city{}", t % 2);
        let mention = EdgeEvent::new(&article, "Article", keyword, "Keyword", "mentions", at);
        let located = EdgeEvent::new(&article, "Article", city, "Location", "located", at);
        engine.ingest(&mention).unwrap();
        for m in engine.ingest(&located).unwrap() {
            assert_eq!(m.binding("a1").unwrap().key, article);
            let a2 = &m.binding("a2").unwrap().key;
            let born: i64 = a2[1..].parse().unwrap();
            assert!(
                born % 4 == t % 4 && t - born <= WINDOW,
                "{article} with {a2}"
            );
        }
        if (t + 1) % WINDOW == 0 {
            let metrics = engine.engine_metrics();
            assert!(
                metrics.key_cache_entries <= metrics.vertex_slots,
                "{} cached keys for {} vertex slots",
                metrics.key_cache_entries,
                metrics.vertex_slots
            );
            sizes.push(metrics.key_cache_entries);
        }
    }
    let (two, ten) = (sizes[1], sizes[9]);
    assert!(two > 60, "{sizes:?}");
    assert!(2 * ten <= 3 * two, "cached keys {sizes:?}");
}

#[test]
fn graph_ingest_is_allocation_free_once_warm() {
    // News-shaped: a new article every 4 edges (one per second), each
    // mentioning 4 of 64 keywords. Article keys have equal length, and with
    // a 30 s retention each new article expires the one from 31 s before,
    // which is evicted; its slot is reused 30 s later. The keywords stay.
    let window = Duration::from_secs(30);
    let events: Vec<EdgeEvent> = (0..16_000u64)
        .map(|i| {
            let article = i / 4;
            EdgeEvent::new(
                format!("article-{article:06}"),
                "Article",
                format!("k{}", (article * 7 + i % 4 * 13) % 64),
                "Keyword",
                "mentions",
                Timestamp::from_secs(article as i64),
            )
        })
        .collect();
    let mut graph = DynamicGraph::new(GraphConfig::with_retention(window));
    const WARM_UP: usize = 6_000;
    for event in &events[..WARM_UP] {
        graph.ingest(event);
    }
    let slots = graph.stats().vertex_slots;
    let before = allocations();
    for event in &events[WARM_UP..] {
        graph.ingest(event);
    }
    let allocated = allocations() - before;
    let stats = graph.stats();
    assert_eq!(stats.expired_edges, 16_000 - 31 * 4, "the window slid");
    assert_eq!(stats.vertex_slots, slots, "evicted slots were reused");
    assert!(stats.vertices > 3_900, "every article made a vertex");
    assert_eq!(
        allocated, 0,
        "DynamicGraph::ingest allocated {allocated} times over 10 000 steady-state events"
    );
}

#[test]
fn graph_ingest_of_the_hot_wedge_stream_is_allocation_free_once_warm() {
    // An article's located edge comes every 128 s and expires after 96 s,
    // so its located bucket empties between two of them; compaction keeps
    // the emptied bucket and its buffer for the next one.
    let mut graph = DynamicGraph::new(GraphConfig::with_retention(Duration::from_secs(96)));
    for i in 0..6_000 {
        graph.ingest(&hot_wedge_event(i));
    }
    let events: Vec<EdgeEvent> = (6_000..8_000).map(hot_wedge_event).collect();
    let before = allocations();
    for event in &events {
        graph.ingest(event);
    }
    let allocated = allocations() - before;
    assert!(graph.stats().expired_edges > 5_000, "the window slid");
    assert_eq!(
        allocated, 0,
        "DynamicGraph::ingest allocated {allocated} times over 2 000 steady-state events"
    );
}

#[test]
fn exact_expiry_is_allocation_free() {
    // The expiry sweep must not allocate either: it marks tombstones in the
    // ring's metadata and advances the front by index. One full
    // insert-and-drain cycle warms every capacity, then the measured sweep
    // runs against it.
    let mut store = SharedJoinStore::new(vec![QueryVertexId(0), QueryVertexId(1)]);
    for i in 0..128u32 {
        file(
            &mut store,
            JoinSide::Left,
            pair_match(i, 200 + i, i as u64, i as i64),
        );
    }
    store.expire_older_than(Timestamp::from_secs(1_000_000));
    for i in 0..128u32 {
        file(
            &mut store,
            JoinSide::Left,
            pair_match(i, 200 + i, i as u64, 2_000_000 + i as i64),
        );
    }
    let before = allocations();
    let removed = store.expire_older_than(Timestamp::from_secs(2_000_064));
    assert_eq!(
        allocations(),
        before,
        "SharedJoinStore::expire_older_than allocated during the sweep"
    );
    assert_eq!(removed, 64, "the sweep is exact");
    assert_eq!(store.len(), 64);
}

#[test]
fn a_pinned_front_costs_bounded_slots_and_no_allocation_once_warm() {
    // One match that lives the whole window is filed first and pins its
    // ring's front; 100 000 matches with 500 ticks to live follow, one per
    // tick, with a sweep every 256. Tombstones pile up behind the pin until
    // a compaction reclaims them: the slots held stay within three times
    // the live matches (+ 64), nothing is lost, and once the ring and the
    // key index have seen their largest population nothing allocates.
    const WINDOW: i64 = 200_000;
    const TICKS: i64 = 100_000;
    const WARM_UP: i64 = 10_000;
    let mut store = SharedJoinStore::new(vec![QueryVertexId(0), QueryVertexId(1)]);
    file(&mut store, JoinSide::Left, pair_match(0, 100, 0, 0));
    let mut allocated = 0;
    for i in 1..=TICKS {
        let before = allocations();
        let k = (i % 16) as u32;
        file(
            &mut store,
            JoinSide::Left,
            pair_match(k, 100 + k, i as u64, i - WINDOW + 500),
        );
        if i % 256 == 0 {
            store.expire_older_than(Timestamp::from_secs(i - WINDOW));
            let held = store.len() + store.expiry_backlog();
            assert!(
                held <= 3 * store.len() + 64,
                "{held} slots held for {} live matches at tick {i}",
                store.len()
            );
        }
        if i > WARM_UP {
            allocated += allocations() - before;
        }
    }
    assert_eq!(allocated, 0, "filing, sweeping or compacting allocated");
    // The last sweep ran at tick 99 840: ticks 99 340.. and the pin are live.
    assert_eq!(store.len(), 1 + 661);
    let probe = pair_match(0, 100, 1_000_000, 0);
    let key = store.join_key_for(&probe).unwrap();
    let mut offered = Vec::new();
    store.probe_then_insert(JoinSide::Right, key, probe, |_, candidate| {
        offered.push(candidate.edges[0].1);
    });
    // Key (0, 100): every sixteenth tick, newest first, then the pin.
    let mut expected: Vec<EdgeId> = (99_340..=TICKS as u64)
        .rev()
        .filter(|i| i % 16 == 0)
        .map(EdgeId)
        .collect();
    expected.push(EdgeId(0));
    assert_eq!(offered, expected);
}

#[test]
fn binding_merge_is_allocation_free_for_inline_queries() {
    let left = pair_match(1, 101, 0, 10);
    let mut right = PartialMatch::seed(4, QueryEdgeId(1), EdgeId(9), Timestamp::from_secs(11));
    assert!(right.binding.bind(QueryVertexId(1), VertexId(101)));
    assert!(right.binding.bind(QueryVertexId(2), VertexId(202)));

    // Warm up (lazily initialised runtime bits must not pollute the count).
    assert!(left.binding.merge(&right.binding).is_some());

    let before = allocations();
    for _ in 0..1_000 {
        let merged = left
            .binding
            .merge(&right.binding)
            .expect("compatible bindings");
        assert_eq!(merged.bound_count(), 3);
        let full = left.merge(&right).expect("compatible matches");
        assert_eq!(full.edge_count(), 2);
    }
    assert_eq!(
        allocations(),
        before,
        "Binding/PartialMatch merge allocated for an inline-sized query"
    );
}

#[test]
fn partial_match_clone_is_allocation_free_for_inline_queries() {
    let m = pair_match(1, 101, 0, 10);
    let before = allocations();
    for _ in 0..1_000 {
        let c = m.clone();
        assert_eq!(c.edge_count(), 1);
    }
    assert_eq!(
        allocations(),
        before,
        "PartialMatch::clone allocated for an inline-sized query"
    );
}
