//! Recycled vertex ids never meet stale state.
//!
//! The graph evicts a vertex when its last retained edge expires and, once a
//! quarantine of at least the retention (and every query window) has passed,
//! gives its slot — and its `VertexId` — to a new vertex. Matcher state that
//! names the old vertex can outlive it: join stores are pruned on a cadence,
//! a paused query keeps its partial matches, a checkpoint carries the graph
//! across a restore. These streams send keys quiet and bring them back right
//! after the quarantine ends, half of them under another type label, with
//! fresh keys, late edges stamped just inside the horizon, and self-loops,
//! and hold the engine to references built on keys, never on ids. The
//! registry has joins on the article and on the keyword, second tenants fed
//! by entries of the sharing index (one with join stores of its own) and a
//! three-leaf plan with a lazy join side:
//!
//! * every subgraph match is **sound**: each data edge it names — found by
//!   its timestamp, unique per event — joins the keys its bindings report,
//!   and carries the query edge's label and endpoint types;
//! * the subgraph matches equal the repeated-search reference
//!   (`common/repeated_search.rs`) **exactly**, whether the engine's join
//!   stores are swept after every event or only reclaim when full, and none
//!   names an edge behind `now − window`: a late edge never completes with
//!   a stored partial match whose edges have left the window;
//! * the RPQ's emissions equal the brute-force path oracle
//!   (`common/rpq_oracle.rs`) event by event, each with a valid witness;
//! * pause/resume and a checkpoint→restore taken while slots are parked keep
//!   every match sound, and a restored engine emits what the original does.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use streamworks::engine::EngineCheckpoint;
use streamworks::query::ManualDecomposition;
use streamworks::{
    parse_rpq, ContinuousQueryEngine, Duration, EdgeEvent, EngineConfig, MatchEvent, Planner,
    QueryGraph, QueryGraphBuilder, QueryHandle, RpqQuery, Timestamp, TreeShapeKind,
};

#[path = "common/repeated_search.rs"]
mod repeated_search;
#[path = "common/rpq_oracle.rs"]
mod rpq_oracle;
use rpq_oracle::{assert_valid_witness, pair_of, Oracle};

/// The query window and the retention, in seconds.
const WINDOW: i64 = 20;
/// Keys that go quiet and come back.
const RETURNERS: usize = 12;

/// A seeded stream, one step per second of stream time. Every event's
/// timestamp is unique (`second × 10⁶ + event index`), so a timestamp names
/// its event.
///
/// * Returners `r0..r11` are active for 1–3 s (an `rel` and a `loc` edge a
///   second, now and then a `link` self-loop and a `link` to a place), then
///   quiet until 2·WINDOW + 1–3 s after their last edge: their vertex is
///   evicted WINDOW s after it and its slot waits another WINDOW s, so they
///   return right after the quarantine ends. Even-numbered ones switch
///   between types `A` and `B` on every return.
/// * 1–2 fresh keys a second send one `rel` or `loc` edge each.
/// * `churn` fresh keys a second send one `cite` edge each, which no query
///   reads: they keep slots changing hands at a low cost to the references.
/// * A quarter of the `loc` and fresh edges are late: stamped 1–2 s inside
///   the horizon (`now − WINDOW`), where a recycled id would meet a stale
///   partial match within the window.
fn stream(seed: u64, seconds: i64, churn: usize) -> Vec<EdgeEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut events: Vec<EdgeEvent> = Vec::new();
    let mut back_at: Vec<i64> = (0..RETURNERS as i64).collect();
    let mut burst_end: [Option<i64>; RETURNERS] = [None; RETURNERS];
    let mut cycle = [0usize; RETURNERS];
    let mut fresh = 0usize;
    let push = |events: &mut Vec<EdgeEvent>,
                src: &str,
                st: &str,
                dst: &str,
                dt: &str,
                et: &str,
                secs: i64| {
        let ts = Timestamp::from_micros(secs * 1_000_000 + events.len() as i64);
        events.push(EdgeEvent::new(src, st, dst, dt, et, ts));
    };
    for t in 0..seconds {
        let late = |rng: &mut StdRng| {
            if rng.gen_bool(0.25) {
                (t - WINDOW + rng.gen_range(1i64..=2)).max(0)
            } else {
                t
            }
        };
        for j in 0..RETURNERS {
            if t < back_at[j] {
                continue;
            }
            let end = *burst_end[j].get_or_insert(t + rng.gen_range(0i64..3));
            let key = format!("r{j}");
            let ty = if j % 2 == 0 && cycle[j] % 2 == 1 {
                "B"
            } else {
                "A"
            };
            let k = format!("k{}", rng.gen_range(0..3));
            push(&mut events, &key, ty, &k, "K", "rel", t);
            let l = format!("l{}", rng.gen_range(0..2));
            let at = late(&mut rng);
            push(&mut events, &key, ty, &l, "L", "loc", at);
            if rng.gen_bool(0.3) {
                push(&mut events, &key, ty, &key, ty, "link", t);
            }
            if rng.gen_bool(0.3) {
                push(&mut events, &key, ty, &l, "L", "link", t);
            }
            if t >= end {
                burst_end[j] = None;
                cycle[j] += 1;
                back_at[j] = t + 2 * WINDOW + rng.gen_range(1i64..=3);
            }
        }
        for _ in 0..rng.gen_range(1..=2) {
            let key = format!("f{fresh}");
            fresh += 1;
            let at = late(&mut rng);
            if rng.gen_bool(0.5) {
                let k = format!("k{}", rng.gen_range(0..3));
                push(&mut events, &key, "A", &k, "K", "rel", at);
            } else {
                let l = format!("l{}", rng.gen_range(0..2));
                push(&mut events, &key, "A", &l, "L", "loc", at);
            }
        }
        for _ in 0..churn {
            let key = format!("c{fresh}");
            fresh += 1;
            let at = late(&mut rng);
            push(&mut events, &key, "C", "hub", "H", "cite", at);
        }
    }
    events
}

/// Join on the article: a stale `rel` partial of an evicted vertex would
/// complete with a new vertex's late `loc` edge in the same slot.
fn wedge() -> QueryGraph {
    QueryGraphBuilder::new("wedge")
        .window(Duration::from_secs(WINDOW))
        .vertex("a", "A")
        .vertex("k", "K")
        .vertex("l", "L")
        .edge("a", "rel", "k")
        .edge("a", "loc", "l")
        .build()
        .unwrap()
}

/// Join on the keyword: two articles must stay two distinct vertices.
fn pair(name: &str) -> QueryGraph {
    QueryGraphBuilder::new(name)
        .window(Duration::from_secs(WINDOW))
        .vertex("a1", "A")
        .vertex("a2", "A")
        .vertex("k", "K")
        .edge("a1", "rel", "k")
        .edge("a2", "rel", "k")
        .build()
        .unwrap()
}

/// Two articles on one keyword, one of them located: the `join_hot` shape.
fn hot_wedge(name: &str, window: i64) -> QueryGraph {
    QueryGraphBuilder::new(name)
        .window(Duration::from_secs(window))
        .vertex("a1", "A")
        .vertex("a2", "A")
        .vertex("k", "K")
        .vertex("l", "L")
        .edge("a1", "rel", "k")
        .edge("a2", "rel", "k")
        .edge("a1", "loc", "l")
        .build()
        .unwrap()
}

/// Every subgraph query of the suite, in registration order.
///
/// * The second [`pair`] tenant is fed at its root by an entry of the
///   sharing index holding the whole pattern.
/// * `hot_wedge`, planned `((rel ⋈ rel) ⋈ loc)` like every query here, has
///   a lazy inner join. A node the sharing index feeds is never lazy, and
///   under the common window that join would be fed by the pair entry: so
///   its window is a second shorter, which keeps the late edges inside it.
/// * The second `located` tenant is fed at its root by an entry with join
///   stores of its own.
fn queries() -> Vec<QueryGraph> {
    vec![
        wedge(),
        pair("pair"),
        pair("pair_too"),
        hot_wedge("hot_wedge", WINDOW - 1),
        hot_wedge("located", WINDOW),
        hot_wedge("located_too", WINDOW),
    ]
}

fn rpq() -> RpqQuery {
    parse_rpq(&format!("RPQ reach WINDOW {WINDOW}s PATH link+")).unwrap()
}

struct Run {
    engine: ContinuousQueryEngine,
    queries: Vec<(QueryHandle, QueryGraph)>,
    rpq: QueryHandle,
    /// Sweep the join stores after every event (`prune_now`), on top of
    /// what each store reclaims when it fills.
    sweep_each_event: bool,
}

/// A default engine running every subgraph query on single-edge leaves (so
/// every edge files a partial match), left-deep, and the RPQ.
fn run(sweep_each_event: bool) -> Run {
    let mut engine = ContinuousQueryEngine::new(EngineConfig::default());
    let queries = queries()
        .into_iter()
        .map(|q| {
            let leaves = q.edge_ids().map(|e| vec![e]).collect();
            let plan = Planner::new()
                .tree_kind(TreeShapeKind::LeftDeep)
                .plan_with(q.clone(), &ManualDecomposition::new(leaves))
                .unwrap();
            (engine.register_plan(plan), q)
        })
        .collect();
    let rpq = engine.register_rpq(rpq());
    let shared = engine.engine_metrics();
    assert_eq!(
        (shared.distinct_subtrees, shared.subscribed_subtrees),
        (1, 1),
        "`located_too` is fed by an entry with join stores"
    );
    Run {
        engine,
        queries,
        rpq,
        sweep_each_event,
    }
}

/// A subgraph match as event indices in query-edge order.
type Found = (String, Vec<u64>);

/// Checks that `m` is sound against the stream (module docs) and returns it
/// as event indices. `index` maps the engine's edge ids to event indices.
fn sound(
    events: &[EdgeEvent],
    index: &dyn Fn(u64) -> usize,
    query: &QueryGraph,
    m: &MatchEvent,
) -> Found {
    let mut found = Vec::new();
    for (qe, edge) in query.edges().zip(&m.edges) {
        let i = index(edge.0);
        let ev = &events[i];
        let (src, dst) = (query.vertex(qe.src), query.vertex(qe.dst));
        let key = |name: &str| &m.binding(name).expect("every variable is bound").key;
        assert_eq!(
            (key(&src.name).as_str(), key(&dst.name).as_str()),
            (ev.src_key.as_str(), ev.dst_key.as_str()),
            "{} binds {:?} to edge {edge:?} = event #{i} {ev:?}",
            query.name(),
            m.bindings
        );
        assert_eq!(Some(&ev.edge_type), qe.etype.as_ref(), "event #{i}");
        assert_eq!(Some(&ev.src_type), src.vtype.as_ref(), "event #{i}");
        assert_eq!(Some(&ev.dst_type), dst.vtype.as_ref(), "event #{i}");
        found.push(i as u64);
    }
    assert!(m.span < query.window(), "{m:?}");
    (query.name().to_owned(), found)
}

/// What a run emitted: subgraph matches, with the ones that name an edge
/// behind the horizon at emission.
#[derive(Default)]
struct Emitted {
    all: BTreeMap<Found, usize>,
    stale: Vec<Found>,
}

/// Feeds `events[from..]` to `run`, checking every subgraph match for
/// soundness and every RPQ emission against `oracle` (which must have seen
/// `events[..from]`). `index` maps edge ids to event indices.
fn feed(
    run: &mut Run,
    oracle: &mut Oracle,
    events: &[EdgeEvent],
    from: usize,
    index: &dyn Fn(u64) -> usize,
    out: &mut Emitted,
) {
    let mut now = events[..from].iter().map(|e| e.timestamp).max();
    for (i, ev) in events.iter().enumerate().skip(from) {
        let at = now.map_or(ev.timestamp, |n| n.max(ev.timestamp));
        now = Some(at);
        let mut paths = Vec::new();
        let emitted = run.engine.ingest(ev).unwrap();
        if run.sweep_each_event {
            run.engine.prune_now();
        }
        for m in emitted {
            if m.handle() == run.rpq {
                assert_valid_witness(&run.engine, oracle, &m, at);
                paths.push(pair_of(&m));
                continue;
            }
            let (_, query) = (run.queries.iter())
                .find(|(h, _)| *h == m.handle())
                .expect("a registered query");
            let found = sound(events, index, query, &m);
            let horizon = at.minus(query.window());
            if found
                .1
                .iter()
                .any(|&e| events[e as usize].timestamp < horizon)
            {
                out.stale.push(found.clone());
            }
            *out.all.entry(found).or_insert(0) += 1;
        }
        paths.sort();
        assert_eq!(paths, oracle.ingest(ev, at), "RPQ at event #{i} {ev:?}");
    }
}

/// The reference matches over `events`, as event indices: the
/// repeated-search baseline on the short streams. On the long ones it would
/// search a live graph of thousands of edges after every event, so there the
/// reference is an engine swept after every event, which
/// `per_event_pruning_matches_the_references_exactly` holds equal to the
/// baseline (and which is checked sound and against the RPQ oracle here too).
fn reference(events: &[EdgeEvent]) -> BTreeMap<Found, usize> {
    if events.len() < 5_000 {
        // One graph per query, retaining that query's window: the baseline
        // then sees no edge behind `now − window` either.
        let one = |q: &QueryGraph| repeated_search::multiset(std::slice::from_ref(q), events);
        return queries().iter().flat_map(one).collect();
    }
    let mut exact = run(true);
    let mut got = Emitted::default();
    feed(
        &mut exact,
        &mut Oracle::new(&rpq()),
        events,
        0,
        &|e| e as usize,
        &mut got,
    );
    assert!(got.stale.is_empty());
    got.all
}

/// Equal to the reference, each match as often, and none naming an edge
/// behind the horizon at emission.
fn assert_matches_reference(got: &Emitted, want: &BTreeMap<Found, usize>) {
    for (found, n) in want {
        assert_eq!(got.all.get(found), Some(n), "reference match {found:?}");
    }
    let extra: Vec<&Found> = got.all.keys().filter(|f| !want.contains_key(*f)).collect();
    assert!(extra.is_empty(), "beyond the reference: {extra:?}");
    assert!(got.stale.is_empty(), "behind the horizon: {:?}", got.stale);
}

/// Stream length and churn: short streams for the engine swept after every
/// event, held to the repeated-search baseline; long ones, with more slots
/// changing hands while nothing sweeps, for the engine left to its stores'
/// own reclaiming, held to the engine swept after every event.
fn shape(sweep_each_event: bool) -> (i64, usize) {
    if sweep_each_event {
        (240, 4)
    } else {
        (400, 100)
    }
}

fn assert_recycles(run: &Run) {
    let stats = run.engine.graph_stats();
    assert!(
        2 * stats.vertices > 3 * stats.vertex_slots,
        "slots were reused: {stats:?}"
    );
}

/// The lazy side of the hot wedge was used: keys turned hot and cold keys
/// skipped merges.
fn assert_lazy_side_ran(run: &Run) {
    let (handle, _) = (run.queries.iter())
        .find(|(_, q)| q.name() == "hot_wedge")
        .expect("the hot wedge is registered");
    let m = run.engine.metrics(*handle).unwrap();
    assert!(m.lazy_materialisations > 0, "{m:?}");
    assert!(m.merges_skipped_cold > 0, "{m:?}");
}

#[test]
fn per_event_pruning_matches_the_references_exactly() {
    for seed in 1..=3 {
        let (seconds, churn) = shape(true);
        let events = stream(seed, seconds, churn);
        let mut run = run(true);
        let mut oracle = Oracle::new(&rpq());
        let mut got = Emitted::default();
        feed(&mut run, &mut oracle, &events, 0, &|e| e as usize, &mut got);
        assert!(
            got.all.len() > 100,
            "seed {seed}: {} matches",
            got.all.len()
        );
        assert_matches_reference(&got, &reference(&events));
        assert_recycles(&run);
        assert_lazy_side_ran(&run);
    }
}

/// The engine never swept, on a long stream, is exact against the engine
/// swept after every event: until a full store reclaims them, expired
/// partial matches stay in the stores but no probe sees them. A copy whose chain walk
/// ignores the horizon fails this test and the two below.
#[test]
fn lazy_pruning_keeps_every_match_sound() {
    let seed = 4;
    let (seconds, churn) = shape(false);
    let events = stream(seed, seconds, churn);
    let mut run = run(false);
    let mut oracle = Oracle::new(&rpq());
    let mut got = Emitted::default();
    feed(&mut run, &mut oracle, &events, 0, &|e| e as usize, &mut got);
    assert_matches_reference(&got, &reference(&events));
    assert_recycles(&run);
    assert_lazy_side_ran(&run);
}

#[test]
fn a_query_paused_across_a_quarantine_resumes_sound() {
    for (seed, sweep_each_event) in [(7, true), (8, false)] {
        let (seconds, churn) = shape(sweep_each_event);
        let events = stream(seed, seconds, churn);
        let mut run = run(sweep_each_event);
        let mut oracle = Oracle::new(&rpq());
        let mut got = Emitted::default();
        // Pause the subgraph queries for three windows — their stores keep
        // partial matches of vertices that are evicted and whose slots are
        // reused meanwhile — then resume.
        let (pause, resume) = (events.len() / 4, events.len() / 2);
        feed(
            &mut run,
            &mut oracle,
            &events[..pause],
            0,
            &|e| e as usize,
            &mut got,
        );
        for (h, _) in &run.queries {
            run.engine.pause(*h).unwrap();
        }
        feed(
            &mut run,
            &mut oracle,
            &events[..resume],
            pause,
            &|e| e as usize,
            &mut got,
        );
        for (h, _) in &run.queries {
            run.engine.resume(*h).unwrap();
        }
        feed(
            &mut run,
            &mut oracle,
            &events,
            resume,
            &|e| e as usize,
            &mut got,
        );
        // Every reference match made only of edges the queries observed.
        let observed = |e: &u64| (*e as usize) < pause || (*e as usize) >= resume;
        let seen = |f: &Found| f.1.iter().all(observed);
        let want: BTreeMap<Found, usize> = (reference(&events).into_iter())
            .filter(|(f, _)| seen(f))
            .collect();
        assert!(want.len() > 50, "seed {seed}: {} matches", want.len());
        assert_matches_reference(&got, &want);
        assert_recycles(&run);
    }
}

#[test]
fn a_restore_during_a_quarantine_emits_what_the_original_does() {
    for (seed, sweep_each_event) in [(9, true), (10, false)] {
        let (seconds, churn) = shape(sweep_each_event);
        let events = stream(seed, seconds, churn);
        let cut = events.len() / 2;
        let mut original = run(sweep_each_event);
        let mut oracle = Oracle::new(&rpq());
        let mut before = Emitted::default();
        feed(
            &mut original,
            &mut oracle,
            &events[..cut],
            0,
            &|e| e as usize,
            &mut before,
        );
        let stats = original.engine.graph_stats();
        assert!(
            stats.vertex_slots > stats.live_vertices,
            "slots are parked at the cut"
        );

        let checkpoint =
            EngineCheckpoint::load(&original.engine.checkpoint().to_json().unwrap()).unwrap();
        let mut restored = Run {
            engine: checkpoint.try_restore().unwrap(),
            queries: original.queries.clone(),
            rpq: original.rpq,
            sweep_each_event,
        };
        let mut restored_oracle = Oracle::new(&rpq());
        let mut after = Emitted::default();
        feed(
            &mut original,
            &mut oracle,
            &events,
            cut,
            &|e| e as usize,
            &mut after,
        );

        // The restored engine numbers the retained edges from 0 in arrival
        // order, then the rest of the stream.
        let by_ts: HashMap<Timestamp, usize> = events
            .iter()
            .enumerate()
            .map(|(i, e)| (e.timestamp, i))
            .collect();
        let replayed: Vec<usize> = checkpoint
            .live_edges
            .iter()
            .map(|e| by_ts[&e.timestamp])
            .collect();
        let index = |e: u64| {
            (replayed.get(e as usize).copied()).unwrap_or(cut + e as usize - replayed.len())
        };
        // The oracle at the cut: the edges it keeps are the same whatever
        // clock it is fed them at, as long as the window has not passed them.
        let at_cut = events[..cut].iter().map(|e| e.timestamp).max().unwrap();
        for ev in &events[..cut] {
            restored_oracle.ingest(ev, at_cut);
        }
        let mut resumed = Emitted::default();
        feed(
            &mut restored,
            &mut restored_oracle,
            &events,
            cut,
            &index,
            &mut resumed,
        );
        assert!(
            after.all.len() > 50,
            "seed {seed}: {} matches",
            after.all.len()
        );
        // A restore replays the retained edges only, and sweeps on its own
        // cadence; neither changes what either engine emits.
        let mut whole = before;
        for (found, n) in &after.all {
            *whole.all.entry(found.clone()).or_insert(0) += n;
        }
        whole.stale.extend(after.stale.iter().cloned());
        assert_matches_reference(&whole, &reference(&events));
        assert_matches_reference(&resumed, &after.all);
        assert_recycles(&restored);
    }
}
