//! The engine's summary, built on read, against the summary it used to keep.
//!
//! The engine keeps no statistics per edge: `engine.summary()` is
//! `GraphSummary::of(&graph)`, built from the live graph and two graph
//! counters when it is read. Before, the engine fed a `GraphSummary` on every
//! event — `observe_vertex` for each endpoint its `IngestResult` reported
//! created, `observe_insertion` for an edge retained on arrival,
//! `observe_expiry` for each edge that expired. Here a second graph, driven
//! exactly as the engine drives its own, feeds a hand-fed summary that way,
//! and at 20 points of each stream every statistic must agree exactly:
//! vertex counts per type, `total_vertices`, triples, edge counts,
//! `total_edges`, `live_edges` and `edges_observed`.
//!
//! The fan-out estimate and the live vertex counts it divides by are held
//! to the live graph instead: `estimated_fanout` for every (vertex type,
//! direction, edge type) must equal the average walked over the live
//! vertices, and the hand-fed estimate only while no vertex has left (the
//! hand-fed summary divides by every vertex it ever saw).
//!
//! Triads are the one statistic whose meaning changed: the summary counts
//! the live wedges, where the hand-fed one counts every wedge as its edge
//! arrives and never takes one away. They must equal a brute-force pairwise
//! count over the live graph, and, while nothing has expired, the hand-fed
//! count too.
//!
//! Streams: news with a 30-minute window, cyber with a 1-minute one, news
//! with nothing expiring, and keys that go quiet, come back and change type
//! among late, too-late and self-loop edges, with a checkpoint→restore in
//! the middle.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use streamworks::engine::EngineCheckpoint;
use streamworks::graph::{EdgeId, GraphConfig, TypeId};
use streamworks::query::SelectivityEstimator;
use streamworks::summarize::{Orientation, WedgeKey};
use streamworks::workloads::queries::{labelled_news_query, news_triple_query, smurf_ddos_query};
use streamworks::workloads::{CyberConfig, CyberTrafficGenerator, NewsConfig, NewsStreamGenerator};
use streamworks::{
    ContinuousQueryEngine, Direction, Duration, DynamicGraph, EdgeEvent, GraphSummary, QueryGraph,
    QueryGraphBuilder, Timestamp,
};

/// A graph driven as the engine drives its own, and the summary the engine
/// used to feed from it.
///
/// The engine under test runs with an explicit retention, so a graph given
/// that retention and the query's window hands out the same slots, and
/// reports the same `IngestResult`s.
struct HandFed {
    graph: DynamicGraph,
    summary: GraphSummary,
    retention: Duration,
    /// Retained edges by (timestamp, id) with their endpoint and edge
    /// types: the graph expires exactly those older than its horizon.
    live: BTreeMap<(Timestamp, EdgeId), (TypeId, TypeId, TypeId)>,
    /// The type each key last had, to tell a re-typed key from a resumed one.
    types: HashMap<String, TypeId>,
    /// How often the stream hit each case a creation count can get wrong.
    cases: Cases,
}

#[derive(Debug, Default)]
struct Cases {
    too_late: usize,
    self_loops: usize,
    /// A key back under its type while its vertex was parked: no creation.
    resumed: usize,
    /// A key back under another type: a creation.
    retyped: usize,
}

impl HandFed {
    fn new(retention: Duration, window: Duration) -> Self {
        let mut graph = DynamicGraph::new(GraphConfig::with_retention(retention));
        graph.reserve_ids_for(window);
        HandFed {
            graph,
            summary: GraphSummary::new(),
            retention,
            live: BTreeMap::new(),
            types: HashMap::new(),
            cases: Cases::default(),
        }
    }

    fn ingest(&mut self, event: &EdgeEvent) {
        let quiet = [&event.src_key, &event.dst_key]
            .map(|k| self.graph.vertex_by_key(k).is_none() && self.types.contains_key(k.as_str()));
        let r = self.graph.ingest(event);
        let horizon = self.graph.now().minus(self.retention);
        let kept = self.live.split_off(&(horizon, EdgeId(0)));
        for (src, etype, dst) in std::mem::replace(&mut self.live, kept).into_values() {
            self.summary.observe_expiry(src, etype, dst);
        }
        let Some(edge) = self.graph.edge(r.edge) else {
            self.cases.too_late += 1;
            return; // expired on arrival: neither the edge nor its vertices count
        };
        let vtype = |v| {
            self.graph
                .vertex(v)
                .expect("an endpoint of a live edge")
                .vtype
        };
        let ends = [(r.src_created, r.src), (r.dst_created, r.dst)];
        for (((created, v), key), quiet) in ends
            .into_iter()
            .zip([&event.src_key, &event.dst_key])
            .zip(quiet)
        {
            let last = self.types.insert(key.clone(), vtype(v));
            if created {
                self.summary.observe_vertex(vtype(v));
                self.cases.retyped += usize::from(last.is_some_and(|t| t != vtype(v)));
            } else {
                self.cases.resumed += usize::from(quiet);
            }
        }
        self.cases.self_loops += usize::from(edge.src == edge.dst);
        self.summary.observe_insertion(&self.graph, edge);
        let types = (vtype(edge.src), edge.etype, vtype(edge.dst));
        self.live.insert((edge.timestamp, edge.id), types);
    }
}

/// Every pair of distinct live edges sharing a vertex, counted at that
/// vertex: the O(Σ deg²) loop the summary crate rebuilt triads with before
/// it counted type groups.
fn pairwise_wedges(graph: &DynamicGraph) -> HashMap<WedgeKey, f64> {
    let mut counts = HashMap::new();
    for v in graph.vertices() {
        let mut legs = Vec::new();
        for e in graph.incident_edges_any_type(v.id, Direction::Out) {
            legs.push((e.etype, Orientation::Outgoing, e.id));
        }
        for e in graph.incident_edges_any_type(v.id, Direction::In) {
            legs.push((e.etype, Orientation::Incoming, e.id));
        }
        for i in 0..legs.len() {
            for j in (i + 1)..legs.len() {
                if legs[i].2 == legs[j].2 {
                    continue; // a self-loop's two legs are one edge
                }
                let key = WedgeKey::new(v.vtype, (legs[i].0, legs[i].1), (legs[j].0, legs[j].1));
                *counts.entry(key).or_insert(0.0) += 1.0;
            }
        }
    }
    counts
}

fn wedges(summary: &GraphSummary) -> HashMap<WedgeKey, f64> {
    summary.triads().wedges().map(|(k, c)| (*k, c)).collect()
}

fn assert_same_statistics(engine: &ContinuousQueryEngine, fed: &HandFed, at: &str) {
    let graph = engine.graph();
    assert_eq!(
        graph.stats(),
        fed.graph.stats(),
        "{at}: the graphs diverged"
    );
    assert_eq!(fed.live.len(), graph.live_edge_count(), "{at}");
    let (got, want) = (engine.summary(), &fed.summary);
    let vtypes: Vec<TypeId> = (0..graph.vertex_type_count() as u32).map(TypeId).collect();
    let etypes: Vec<TypeId> = (0..graph.edge_type_count() as u32).map(TypeId).collect();
    for &t in &vtypes {
        let (g, w) = (got.types().vertex_count(t), want.types().vertex_count(t));
        assert_eq!(g, w, "{at}: vertices of type {t:?}");
    }
    assert_eq!(
        got.types().total_vertices(),
        want.types().total_vertices(),
        "{at}"
    );
    let triples = |s: &GraphSummary| s.types().triples().collect::<HashMap<_, _>>();
    assert_eq!(triples(got), triples(want), "{at}: triples");
    for &e in &etypes {
        assert_eq!(
            got.types().edge_count(e),
            want.types().edge_count(e),
            "{at}"
        );
    }
    assert_eq!(
        got.types().total_edges(),
        want.types().total_edges(),
        "{at}"
    );
    for &v in &vtypes {
        // The live population and the live average fan-out, walked vertex
        // by vertex and edge by edge on the hand-fed graph.
        let live: Vec<_> = (fed.graph.vertices())
            .filter(|x| x.vtype == v)
            .map(|x| x.id)
            .collect();
        let population = got.types().live_vertex_count(v);
        assert_eq!(
            population,
            live.len() as u64,
            "{at}: live vertices of {v:?}"
        );
        for dir in [Direction::Out, Direction::In] {
            for &e in &etypes {
                let endpoints: usize = (live.iter())
                    .map(|&x| fed.graph.incident_edges(x, dir, e).count())
                    .sum();
                let average = if live.is_empty() {
                    1.0
                } else {
                    (endpoints as f64 / live.len() as f64).max(0.01)
                };
                let g = got.estimated_fanout(v, dir, e);
                assert_eq!(g, average, "{at}: fan-out of {v:?} {dir:?} {e:?}");
                // The hand-fed summary sees no vertex leave: while none has,
                // its fan-out is the same.
                if population == want.types().vertex_count(v) {
                    let w = want.estimated_fanout(v, dir, e);
                    assert_eq!(g, w, "{at}: hand-fed fan-out of {v:?} {dir:?} {e:?}");
                }
            }
        }
    }
    assert_eq!(
        got.degrees().live_edges(),
        want.degrees().live_edges(),
        "{at}"
    );
    assert_eq!(got.edges_observed(), want.edges_observed(), "{at}");

    let live = wedges(got);
    assert_eq!(live, pairwise_wedges(graph), "{at}: live triads");
    assert_eq!(
        got.triads().total_wedges(),
        live.values().sum::<f64>(),
        "{at}"
    );
    if graph.stats().expired_edges == 0 {
        assert_eq!(
            live,
            wedges(want),
            "{at}: nothing expired, yet triads differ"
        );
        assert_eq!(got.triads().total_wedges(), want.triads().total_wedges());
    }
}

/// Streams `events` through an engine registered with `query` and through
/// the hand-fed reference, comparing them at 20 points, and restores the
/// engine from a checkpoint (through JSON) after event `restore_at`.
/// Returns how many edges the engine expired, and the cases the stream hit.
fn run(
    events: &[EdgeEvent],
    query: QueryGraph,
    retention: Duration,
    restore_at: Option<usize>,
) -> (u64, Cases) {
    let window = query.window();
    let mut engine = ContinuousQueryEngine::builder()
        .retention(retention)
        .build()
        .unwrap();
    engine.register_query(query).unwrap();
    let mut fed = HandFed::new(retention, window);
    let mut expired = 0;
    let every = events.len().div_ceil(20);
    for (i, event) in events.iter().enumerate() {
        engine.ingest(event).unwrap();
        fed.ingest(event);
        if (i + 1) % every == 0 || i + 1 == events.len() {
            assert_same_statistics(&engine, &fed, &format!("after event {i}"));
        }
        if restore_at == Some(i) {
            expired += engine.graph_stats().expired_edges;
            let json = engine.checkpoint().to_json().unwrap();
            let checkpoint = EngineCheckpoint::load(&json).unwrap();
            engine = checkpoint.try_restore().unwrap();
            // The restored engine replays the live edges into a fresh graph.
            let cases = std::mem::take(&mut fed.cases);
            fed = HandFed::new(retention, window);
            fed.cases = cases;
            for event in &checkpoint.live_edges {
                fed.ingest(event);
            }
            assert_same_statistics(&engine, &fed, &format!("restored after event {i}"));
        }
    }
    (expired + engine.graph_stats().expired_edges, fed.cases)
}

fn news(articles: usize, seed: u64) -> Vec<EdgeEvent> {
    NewsStreamGenerator::new(NewsConfig {
        articles,
        seed,
        ..Default::default()
    })
    .generate()
    .events
}

#[test]
fn news_with_a_thirty_minute_window() {
    let window = Duration::from_mins(30);
    let events = news(500, 3);
    let (expired, _) = run(
        &events,
        labelled_news_query("politics", window),
        window,
        None,
    );
    assert!(expired > events.len() as u64 / 2, "{expired} expired");
}

#[test]
fn cyber_with_a_one_minute_window() {
    let events = CyberTrafficGenerator::new(CyberConfig {
        background_edges: 3_000,
        edge_interval: Duration::from_millis(50),
        seed: 5,
        ..Default::default()
    })
    .generate()
    .events;
    let window = Duration::from_mins(1);
    let (expired, _) = run(&events, smurf_ddos_query(3, window), window, None);
    assert!(expired > events.len() as u64 / 2, "{expired} expired");
}

#[test]
fn news_with_nothing_expiring_keeps_the_cumulative_triads() {
    let events = news(300, 11);
    let query = labelled_news_query("politics", Duration::from_mins(30));
    assert_eq!(run(&events, query, Duration::from_hours(10_000), None).0, 0);
}

/// The query window and the retention, in seconds.
const WINDOW: i64 = 20;

/// A seeded stream, one step per second, over keys `r0..r9` that send a
/// burst of edges and go quiet for 1–2.5 windows: back inside the
/// quarantine they resume their parked vertex, after it their slot may have
/// gone to another key. Even-numbered keys switch between types `A` and `B`
/// on every return. Fresh keys arrive every second; a fifth of the edges are
/// stamped up to 5 s behind (bounded skew), one in twenty behind the horizon
/// (too late: they expire on arrival), and returners send `link` self-loops.
fn returning_keys(seed: u64, seconds: i64) -> Vec<EdgeEvent> {
    const RETURNERS: usize = 10;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut events = Vec::new();
    let mut back_at = [0i64; RETURNERS];
    let mut burst_end: [Option<i64>; RETURNERS] = [None; RETURNERS];
    let mut cycle = [0usize; RETURNERS];
    let mut fresh = 0;
    for t in 0..seconds {
        let at = |rng: &mut StdRng| match rng.gen_range(0..20) {
            0 => Timestamp::from_secs(t - WINDOW - rng.gen_range(1i64..=10)),
            1..=4 => Timestamp::from_secs(t - rng.gen_range(1i64..=5)),
            _ => Timestamp::from_secs(t),
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
            let k = format!("k{}", rng.gen_range(0..4));
            events.push(EdgeEvent::new(&key, ty, &k, "K", "rel", at(&mut rng)));
            if rng.gen_bool(0.3) {
                events.push(EdgeEvent::new(&key, ty, &key, ty, "link", at(&mut rng)));
            }
            if t >= end {
                burst_end[j] = None;
                cycle[j] += 1;
                back_at[j] = t + rng.gen_range(WINDOW + 1..=5 * WINDOW / 2);
            }
        }
        for _ in 0..rng.gen_range(1..=3) {
            let (key, k) = (format!("f{fresh}"), format!("k{}", rng.gen_range(0..4)));
            fresh += 1;
            events.push(EdgeEvent::new(&key, "A", &k, "K", "rel", at(&mut rng)));
        }
    }
    events
}

#[test]
fn keys_that_go_quiet_come_back_and_change_type_across_a_restore() {
    let query = QueryGraphBuilder::new("pair")
        .window(Duration::from_secs(WINDOW))
        .vertex("a1", "A")
        .vertex("a2", "A")
        .vertex("k", "K")
        .edge("a1", "rel", "k")
        .edge("a2", "rel", "k")
        .build()
        .unwrap();
    for seed in [1, 2] {
        let events = returning_keys(seed, 300);
        let restore_at = Some(events.len() / 2);
        let retention = Duration::from_secs(WINDOW);
        let (expired, cases) = run(&events, query.clone(), retention, restore_at);
        assert!(expired > events.len() as u64 / 2, "{expired} expired");
        let Cases {
            too_late,
            self_loops,
            resumed,
            retyped,
        } = cases;
        assert!(too_late > 10 && self_loops > 10, "{cases:?}");
        assert!(resumed > 10 && retyped > 10, "{cases:?}");
    }
}

#[test]
fn news_triple_fan_outs_track_the_live_average_over_twenty_windows() {
    // Plans made mid-stream (registration, `replan`, the adaptive
    // replanner) read these fan-outs: they must follow the live graph, not
    // sink as the number of vertices ever created grows.
    at_twenty_news_windows(assert_fan_outs_near_the_live_average);
}

#[test]
fn news_triple_vertex_domains_track_the_live_population_over_twenty_windows() {
    // The planner's other per-vertex statistic: how many data vertices can
    // bind a query variable. It must follow the live population, not the
    // vertices ever created.
    at_twenty_news_windows(assert_vertex_domains_near_the_live_population);
}

/// Streams 20+ windows of news through an engine running `news_triple` and
/// hands the engine and the query to `check` at every window boundary.
fn at_twenty_news_windows(check: fn(&ContinuousQueryEngine, &QueryGraph, usize)) {
    let window = Duration::from_mins(30);
    let query = news_triple_query(window);
    let mut engine = ContinuousQueryEngine::builder()
        .retention(window)
        .build()
        .unwrap();
    engine.register_query(query.clone()).unwrap();
    let events = news(2_000, 5);
    let mut next = events[0].timestamp + window;
    let mut windows = 0;
    for event in &events {
        if event.timestamp >= next {
            check(&engine, &query, windows);
            windows += 1;
            next = next + window;
        }
        engine.ingest(event).unwrap();
    }
    assert!(windows >= 20, "the stream spans only {windows} windows");
}

/// Every vertex domain the planner reads for `query`, and the domain of an
/// untyped variable, within 2x of the live vertices it could bind.
fn assert_vertex_domains_near_the_live_population(
    engine: &ContinuousQueryEngine,
    query: &QueryGraph,
    window: usize,
) {
    let (graph, summary) = (engine.graph(), engine.summary());
    let estimator = SelectivityEstimator::with_summary(summary, graph);
    let untyped = QueryGraphBuilder::new("untyped")
        .any_vertex("x")
        .any_vertex("y")
        .edge("x", "mentions", "y")
        .build()
        .unwrap();
    let domains = (query.vertices())
        .map(|v| (query, v, v.vtype.as_deref()))
        .chain(untyped.vertices().map(|v| (&untyped, v, None)));
    for (q, vertex, vtype) in domains {
        let live = match vtype {
            Some(name) => {
                let t = graph.vertex_type_id(name).unwrap();
                graph.vertices().filter(|v| v.vtype == t).count()
            }
            None => graph.vertices().count(),
        } as f64;
        let estimate = estimator.vertex_domain(q, vertex.id);
        assert!(
            live > 0.0 && estimate <= 2.0 * live && live <= 2.0 * estimate,
            "window {window}: {} ({vtype:?}): domain {estimate}, {live} live vertices",
            vertex.name
        );
    }
}

/// Every fan-out the planner reads for `query` — each edge expanded from
/// either end — within 2x of the average walked over the live graph.
fn assert_fan_outs_near_the_live_average(
    engine: &ContinuousQueryEngine,
    query: &QueryGraph,
    window: usize,
) {
    let (graph, summary) = (engine.graph(), engine.summary());
    for edge in query.edges() {
        let etype = graph.edge_type_id(edge.etype.as_deref().unwrap()).unwrap();
        for (end, dir) in [(edge.src, Direction::Out), (edge.dst, Direction::In)] {
            let name = query.vertex(end).vtype.as_deref().unwrap();
            let vtype = graph.vertex_type_id(name).unwrap();
            let live: Vec<_> = (graph.vertices())
                .filter(|v| v.vtype == vtype)
                .map(|v| v.id)
                .collect();
            let endpoints: usize = (live.iter())
                .map(|&v| graph.incident_edges(v, dir, etype).count())
                .sum();
            let observed = endpoints as f64 / live.len() as f64;
            let estimate = summary.estimated_fanout(vtype, dir, etype);
            assert!(
                observed > 0.0 && estimate <= 2.0 * observed && observed <= 2.0 * estimate,
                "window {window}: {name} {dir:?} {:?}: estimate {estimate}, live average \
                 {observed} over {} vertices",
                edge.etype,
                live.len()
            );
        }
    }
}
