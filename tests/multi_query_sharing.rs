//! Equivalence pin for the multi-query sharing layer.
//!
//! Every subgraph query is matched through the canonical index, and the
//! contract is that sharing is *invisible* except in throughput: for an
//! overlapping template registry, the engine reports exactly the same
//! per-query match multiset as one independent engine per query — where no
//! query shares with another, i.e. sharing off — including under register →
//! pause → resume → deregister churn, and, without churn, the same as the
//! repeated-search baseline, which shares no code with the index. These
//! tests pin that contract on the multi-tenant template workload the
//! subsystem exists for, and check the dedup counters tell the truth about
//! the sharing that happened.

use std::collections::BTreeMap;
use streamworks::query::{ManualDecomposition, QueryEdgeId};
use streamworks::workloads::{MultiTenantGenerator, NewsConfig, TenantConfig};
use streamworks::{
    parse_query, ContinuousQueryEngine, Duration, EdgeEvent, MatchEvent, Planner, QueryGraph,
    QueryGraphBuilder, QueryHandle, Timestamp,
};

#[path = "common/repeated_search.rs"]
mod repeated_search;

/// Canonical multiset of matches: how often each (query name, data-edge
/// assignment) was reported. A count map also catches duplicated or missing
/// reports of the same embedding.
fn multiset(events: &[MatchEvent]) -> BTreeMap<(String, Vec<u64>), usize> {
    let mut out = BTreeMap::new();
    for ev in events {
        let edges: Vec<u64> = ev.edges.iter().map(|e| e.0).collect();
        *out.entry((ev.query_name.clone(), edges)).or_insert(0) += 1;
    }
    out
}

fn tenant_workload(tenants: usize) -> (Vec<QueryGraph>, Vec<EdgeEvent>) {
    let workload = MultiTenantGenerator::new(TenantConfig {
        tenants,
        window: Duration::from_mins(30),
        news: NewsConfig {
            articles: 220,
            seed: 11,
            ..Default::default()
        },
        ..Default::default()
    })
    .generate();
    (workload.queries, workload.events)
}

fn build_engine() -> ContinuousQueryEngine {
    ContinuousQueryEngine::builder().build().unwrap()
}

fn run(queries: &[QueryGraph], events: &[EdgeEvent], batch: usize) -> (Vec<MatchEvent>, Vec<u64>) {
    let mut engine = build_engine();
    let handles: Vec<QueryHandle> = queries
        .iter()
        .map(|q| engine.register_query(q.clone()).unwrap())
        .collect();
    let mut matches = Vec::new();
    for chunk in events.chunks(batch) {
        matches.extend(engine.ingest(chunk).unwrap());
    }
    let counts = handles
        .iter()
        .map(|h| engine.metrics(*h).unwrap().complete_matches)
        .collect();
    (matches, counts)
}

#[test]
fn sharing_reports_the_same_per_query_multiset_as_sharing_off() {
    let (queries, events) = tenant_workload(6);

    // Reference: the repeated-search baseline, which shares nothing.
    let expected = repeated_search::multiset(&queries, &events);
    assert!(
        !expected.is_empty(),
        "the template workload must produce matches"
    );
    // Every template kind matched somewhere (labelled pairs and co-location
    // pairs both appear in the reference).
    assert!(expected.keys().any(|(name, _)| name.ends_with("_pair")));
    assert!(expected.keys().any(|(name, _)| name.ends_with("_coloc")));

    let (shared, counts) = run(&queries, &events, 64);
    assert_eq!(
        multiset(&shared),
        expected,
        "the registry must match the per-query reference"
    );
    let expected_counts: Vec<u64> = queries
        .iter()
        .map(|q| {
            let reported = expected.iter().filter(|((name, _), _)| name == q.name());
            reported.map(|(_, n)| *n as u64).sum()
        })
        .collect();
    assert_eq!(counts, expected_counts, "per-query counts");
}

#[test]
fn sharing_matches_one_engine_per_query() {
    let (queries, events) = tenant_workload(4);
    let (all_matches, _) = run(&queries, &events, 128);
    let shared_multiset = multiset(&all_matches);

    // One completely independent engine per query.
    let mut independent = BTreeMap::new();
    for q in &queries {
        let (matches, _) = run(std::slice::from_ref(q), &events, 128);
        for (k, v) in multiset(&matches) {
            *independent.entry(k).or_insert(0) += v;
        }
    }
    assert_eq!(shared_multiset, independent);
}

#[test]
fn sharing_survives_lifecycle_churn() {
    let (queries, events) = tenant_workload(6);
    let (third, two_thirds) = (events.len() / 3, 2 * events.len() / 3);

    // Drive the whole registry in one engine, and each query alone in an
    // engine of its own, through the same lifecycle schedule: some tenants
    // pause mid-stream, one deregisters, two late tenants register, a paused
    // one resumes. Returns the matches and each query's final count (`None`
    // when it is not registered at the end).
    let drive = |only: Option<usize>| -> (Vec<MatchEvent>, Vec<Option<u64>>) {
        let wanted = |q: usize| only.is_none_or(|o| o == q);
        let mut engine = build_engine();
        let mut handles: Vec<Option<QueryHandle>> = vec![None; 10];
        for q in (0..8).filter(|&q| wanted(q)) {
            handles[q] = Some(engine.register_query(queries[q].clone()).unwrap());
        }
        let mut matches = Vec::new();
        for chunk in events[..third].chunks(32) {
            matches.extend(engine.ingest(chunk).unwrap());
        }
        for h in [handles[0], handles[5]].into_iter().flatten() {
            engine.pause(h).unwrap();
        }
        if let Some(h) = handles[3].take() {
            engine.deregister(h).unwrap();
        }
        for chunk in events[third..two_thirds].chunks(32) {
            matches.extend(engine.ingest(chunk).unwrap());
        }
        if let Some(h) = handles[0] {
            engine.resume(h).unwrap();
        }
        for q in (8..10).filter(|&q| wanted(q)) {
            handles[q] = Some(engine.register_query(queries[q].clone()).unwrap());
        }
        for chunk in events[two_thirds..].chunks(32) {
            matches.extend(engine.ingest(chunk).unwrap());
        }
        let counts = handles
            .iter()
            .map(|h| h.map(|h| engine.metrics(h).unwrap().complete_matches))
            .collect();
        (matches, counts)
    };

    let (with_sharing, shared_counts) = drive(None);
    let mut alone = Vec::new();
    let mut alone_counts = Vec::new();
    for q in 0..10 {
        let (matches, counts) = drive(Some(q));
        alone.extend(matches);
        alone_counts.push(counts[q]);
    }
    assert_eq!(multiset(&with_sharing), multiset(&alone));
    assert_eq!(shared_counts, alone_counts);
}

#[test]
fn per_query_metrics_read_the_same_with_sharing_on_and_off() {
    // What a tenant reads about its own query must not depend on whether its
    // searches ran once for everybody inside a shared entry or for it alone,
    // in an engine of its own.
    let (queries, events) = tenant_workload(8);
    let per_query = |queries: &[QueryGraph]| -> Vec<(String, [u64; 3], u64)> {
        let mut engine = build_engine();
        let handles: Vec<QueryHandle> = queries
            .iter()
            .map(|q| engine.register_query(q.clone()).unwrap())
            .collect();
        for chunk in events.chunks(64) {
            engine.ingest(chunk).unwrap();
        }
        handles
            .iter()
            .zip(queries)
            .map(|(h, q)| {
                let m = engine.metrics(*h).unwrap();
                let exact = [m.edges_processed, m.primitive_matches, m.complete_matches];
                (q.name().to_owned(), exact, m.local_search_candidates)
            })
            .collect()
    };
    let alone: Vec<_> = queries
        .iter()
        .flat_map(|q| per_query(std::slice::from_ref(q)))
        .collect();
    let shared = per_query(&queries);
    assert!(alone.iter().any(|(_, m, c)| m[2] > 0 && *c > 0));
    for ((name, exact, candidates), (_, alone_exact, alone_candidates)) in shared.iter().zip(&alone)
    {
        assert_eq!(exact, alone_exact, "{name}");
        if name.ends_with("_coloc") {
            assert_eq!(candidates, alone_candidates, "{name}");
        } else {
            // A lifted entry searches once for every watched constant, and
            // each subscriber is charged that whole walk: its own share plus
            // the other labels' (the attribution is per entry, not per
            // constant).
            assert!(candidates >= alone_candidates, "{name}");
        }
    }
}

#[test]
fn dedup_counters_tell_the_truth() {
    // Leaf regime, chosen by registry shape: every query is one constant-free
    // search primitive (its tree is a lone leaf), so the only overlap is
    // between single leaves and only plain height-0 entries can exist.
    let (queries, events) = tenant_workload(8);
    let mut registry: Vec<QueryGraph> = queries
        .into_iter()
        .filter(|q| q.name().ends_with("_coloc"))
        .collect();
    assert_eq!(registry.len(), 8);
    for i in 0..8 {
        registry.push(
            parse_query(&format!(
                "QUERY t{i}_comention WINDOW 30m \
                 MATCH (a1:Article)-[:mentions]->(k:Keyword), (a2:Article)-[:mentions]->(k)"
            ))
            .unwrap(),
        );
    }
    let mut engine = build_engine();
    for q in &registry {
        engine.register_query(q.clone()).unwrap();
    }
    // 16 queries built from 2 templates: the distinct primitive count stays
    // far below the subscription count.
    let m = engine.engine_metrics();
    assert!(m.subscribed_primitives >= 16);
    assert!(
        m.distinct_primitives * 2 <= m.subscribed_primitives,
        "dedup ratio at least 2x: {m:?}"
    );
    assert!(m.dedup_ratio() >= 2.0);
    // No join and no constant to dispatch on anywhere: nothing beyond plain
    // leaf entries was interned.
    assert_eq!(m.distinct_subtrees, 0);
    assert_eq!(m.subscribed_subtrees, 0);

    engine.ingest(&events[..events.len().min(2_000)]).unwrap();
    let m = engine.engine_metrics();
    assert!(m.shared_searches_run > 0);
    assert!(
        m.searches_saved > m.shared_searches_run,
        "with a >2x dedup ratio, most searches are saved: {m:?}"
    );
    assert!(m.search_savings_rate() > 0.5);

    // Deregistering everything empties the index.
    for h in engine.handles() {
        engine.deregister(h).unwrap();
    }
    let m = engine.engine_metrics();
    assert_eq!(m.distinct_primitives, 0);
    assert_eq!(m.subscribed_primitives, 0);
}

#[test]
fn subtree_counters_tell_the_truth() {
    // Default configuration: subtree sharing plus predicate-constant lifting.
    // The labelled pair templates (eq("label", …) predicates, identical shape
    // across all four labels) collapse into lifted subtree entries served by
    // constant dispatch; the unlabelled co-location template has no constants
    // to lift and stays on the leaf-level primitive index.
    let (queries, events) = tenant_workload(8);
    let mut engine = build_engine();
    for q in &queries {
        engine.register_query(q.clone()).unwrap();
    }
    let m = engine.engine_metrics();
    // Labelled pairs land on the subtree layer; lifting folds the four label
    // variants together, so distinct entries ≪ subscriptions. (The very
    // first pair query only *advertises* its form — entries are created cold
    // when a second query proves the shape recurs — so of the 8 pairs, 7
    // subscribe and the advertiser stays on the leaf path.)
    assert!(m.subscribed_subtrees >= 7, "{m:?}");
    assert!(
        m.distinct_subtrees * 2 <= m.subscribed_subtrees,
        "subtree dedup ratio at least 2x: {m:?}"
    );
    assert!(m.subtree_dedup_ratio() >= 2.0);
    // The co-location leaves still share through the primitive index.
    assert!(m.subscribed_primitives >= 8, "{m:?}");
    assert!(
        m.distinct_primitives * 2 <= m.subscribed_primitives,
        "{m:?}"
    );

    engine.ingest(&events[..events.len().min(4_000)]).unwrap();
    let m = engine.engine_metrics();
    // The planted per-label bursts produce pair matches, and every one of
    // them reaches its tenant through a lifted entry's constant dispatch.
    assert!(m.lifted_dispatch_hits > 0, "{m:?}");
    // The co-location leaf still proves leaf-level savings.
    assert!(m.shared_searches_run > 0, "{m:?}");
    assert!(m.searches_saved > 0, "{m:?}");

    // Deregistering everything empties both layers.
    for h in engine.handles() {
        engine.deregister(h).unwrap();
    }
    let m = engine.engine_metrics();
    assert_eq!(m.distinct_subtrees, 0);
    assert_eq!(m.subscribed_subtrees, 0);
    assert_eq!(m.distinct_primitives, 0);
    assert_eq!(m.subscribed_primitives, 0);
}

#[test]
fn checkpoint_restore_re_interns_the_index() {
    let (queries, events) = tenant_workload(4);
    let mut engine = build_engine();
    for q in &queries {
        engine.register_query(q.clone()).unwrap();
    }
    let split = events.len() / 2;
    let mut direct = engine.ingest(&events[..split]).unwrap();

    let checkpoint = engine.checkpoint();
    let mut restored = checkpoint.try_restore().unwrap();
    // The index is rebuilt by re-registration: same dedup structure.
    let before = engine.engine_metrics();
    let after = restored.engine_metrics();
    assert_eq!(after.distinct_primitives, before.distinct_primitives);
    assert_eq!(after.subscribed_primitives, before.subscribed_primitives);
    assert_eq!(after.distinct_subtrees, before.distinct_subtrees);
    assert_eq!(after.subscribed_subtrees, before.subscribed_subtrees);
    assert!(after.subscribed_primitives + after.subscribed_subtrees > 0);

    // And the restored engine keeps matching exactly like the original.
    // Edge ids are renumbered by the restore's replay, so matches are
    // compared by their (query, stream time, bound external keys) identity.
    let by_keys = |events: &[MatchEvent]| -> BTreeMap<(String, i64, Vec<String>), usize> {
        let mut out = BTreeMap::new();
        for ev in events {
            let mut keys: Vec<String> = ev
                .bindings
                .iter()
                .map(|b| format!("{}={}", b.variable, b.key))
                .collect();
            keys.sort_unstable();
            *out.entry((ev.query_name.clone(), ev.at.0, keys))
                .or_insert(0) += 1;
        }
        out
    };
    direct.clear();
    direct.extend(engine.ingest(&events[split..]).unwrap());
    let resumed = restored.ingest(&events[split..]).unwrap();
    assert_eq!(by_keys(&direct), by_keys(&resumed));
}

#[test]
fn a_leaf_too_symmetric_to_canonicalize_is_matched_on_its_own() {
    // An 8-spoke star as one leaf: eight indistinguishable spokes exceed the
    // canonicalization budget (8! relabellings). Registered twice, each copy
    // gets an entry of its own — nothing is shared — and both match.
    let star = |name: &str| {
        let mut b = QueryGraphBuilder::new(name).window(Duration::from_hours(1));
        for i in 0..8 {
            b = b.edge("hub", "rel", &format!("leaf{i}"));
        }
        b.build().unwrap()
    };
    let queries = [star("star_a"), star("star_b")];
    let mut engine = build_engine();
    for q in &queries {
        let all: Vec<QueryEdgeId> = q.edge_ids().collect();
        let plan = Planner::new()
            .plan_with(q.clone(), &ManualDecomposition::new(vec![all]))
            .unwrap();
        engine.register_plan(plan);
    }
    let m = engine.engine_metrics();
    assert_eq!((m.distinct_primitives, m.subscribed_primitives), (2, 2));
    assert_eq!(m.subscribed_subtrees, 0);

    // Eight spokes around one hub, one around another, and a different type.
    let at = Timestamp::from_secs;
    let mut events: Vec<EdgeEvent> = (0..8)
        .map(|i| EdgeEvent::new("h", "Host", format!("l{i}"), "Host", "rel", at(i)))
        .collect();
    events.push(EdgeEvent::new("g", "Host", "l0", "Host", "rel", at(8)));
    events.push(EdgeEvent::new("h", "Host", "x", "Host", "other", at(9)));
    let emitted = multiset(&engine.ingest(&events).unwrap());
    let expected = repeated_search::multiset(&queries, &events);
    // 8! injective spoke assignments per star.
    assert_eq!(expected.len(), 2 * 40_320);
    assert_eq!(emitted, expected);
}
