//! Equivalence pin for the multi-query sharing layer.
//!
//! The contract of the canonical primitive index is that sharing is
//! *invisible* except in throughput: for an overlapping template registry,
//! the engine with `shared_matching(true)` (the default) reports exactly the
//! same per-query match multiset as the engine with sharing disabled, as one
//! independent engine per query, and for any shard count — including under
//! register → pause → resume → deregister churn. These tests pin that
//! contract on the multi-tenant template workload the subsystem exists for,
//! and check the dedup counters tell the truth about the sharing that
//! happened.

use std::collections::BTreeMap;
use streamworks::workloads::{MultiTenantGenerator, NewsConfig, TenantConfig};
use streamworks::{
    parse_query, ContinuousQueryEngine, Duration, EdgeEvent, MatchEvent, QueryGraph, QueryHandle,
};

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

fn build_engine(shared: bool, shards: usize) -> ContinuousQueryEngine {
    ContinuousQueryEngine::builder()
        .shared_matching(shared)
        .shards(shards)
        .build()
        .unwrap()
}

fn run(
    queries: &[QueryGraph],
    events: &[EdgeEvent],
    shared: bool,
    shards: usize,
    batch: usize,
) -> (Vec<MatchEvent>, Vec<u64>) {
    let mut engine = build_engine(shared, shards);
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
fn sharing_reports_the_same_per_query_multiset_for_any_shard_count() {
    let (queries, events) = tenant_workload(6);

    // Reference: sharing off, single-threaded.
    let (reference, ref_counts) = run(&queries, &events, false, 1, 64);
    let expected = multiset(&reference);
    assert!(
        !expected.is_empty(),
        "the template workload must produce matches"
    );
    // Every template kind matched somewhere (labelled pairs and co-location
    // pairs both appear in the reference).
    assert!(expected.keys().any(|(name, _)| name.ends_with("_pair")));
    assert!(expected.keys().any(|(name, _)| name.ends_with("_coloc")));

    for shards in [1usize, 2, 4] {
        let (shared, counts) = run(&queries, &events, true, shards, 64);
        assert_eq!(
            multiset(&shared),
            expected,
            "sharing on, shards={shards} must match the per-query reference"
        );
        assert_eq!(counts, ref_counts, "per-query counts, shards={shards}");
    }
}

#[test]
fn sharing_matches_one_engine_per_query() {
    let (queries, events) = tenant_workload(4);
    let (all_matches, _) = run(&queries, &events, true, 1, 128);
    let shared_multiset = multiset(&all_matches);

    // One completely independent engine per query.
    let mut independent = BTreeMap::new();
    for q in &queries {
        let (matches, _) = run(std::slice::from_ref(q), &events, false, 1, 128);
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

    // Drive two engines — sharing on and off — through the same lifecycle
    // schedule: some tenants pause mid-stream, one deregisters, a late
    // tenant registers, a paused one resumes.
    let drive = |shared: bool| -> (Vec<MatchEvent>, Vec<u64>) {
        let mut engine = build_engine(shared, 1);
        let mut handles: Vec<QueryHandle> = queries[..8]
            .iter()
            .map(|q| engine.register_query(q.clone()).unwrap())
            .collect();
        let mut matches = Vec::new();
        for chunk in events[..third].chunks(32) {
            matches.extend(engine.ingest(chunk).unwrap());
        }
        engine.pause(handles[0]).unwrap();
        engine.pause(handles[5]).unwrap();
        engine.deregister(handles[3]).unwrap();
        for chunk in events[third..two_thirds].chunks(32) {
            matches.extend(engine.ingest(chunk).unwrap());
        }
        engine.resume(handles[0]).unwrap();
        for q in &queries[8..10] {
            handles.push(engine.register_query(q.clone()).unwrap());
        }
        for chunk in events[two_thirds..].chunks(32) {
            matches.extend(engine.ingest(chunk).unwrap());
        }
        let counts = handles
            .iter()
            .filter_map(|h| engine.metrics(*h).ok())
            .map(|m| m.complete_matches)
            .collect();
        (matches, counts)
    };

    let (with_sharing, shared_counts) = drive(true);
    let (without_sharing, plain_counts) = drive(false);
    assert_eq!(multiset(&with_sharing), multiset(&without_sharing));
    assert_eq!(shared_counts, plain_counts);
}

#[test]
fn per_query_metrics_read_the_same_with_sharing_on_and_off() {
    // What a tenant reads about its own query must not depend on whether its
    // searches ran privately or once for everybody inside a shared entry.
    let (queries, events) = tenant_workload(8);
    let per_query = |shared: bool| -> Vec<(String, [u64; 3], u64)> {
        let mut engine = build_engine(shared, 1);
        let handles: Vec<QueryHandle> = queries
            .iter()
            .map(|q| engine.register_query(q.clone()).unwrap())
            .collect();
        for chunk in events.chunks(64) {
            engine.ingest(chunk).unwrap();
        }
        assert_eq!(engine.sharing_active(), shared);
        handles
            .iter()
            .zip(&queries)
            .map(|(h, q)| {
                let m = engine.metrics(*h).unwrap();
                let exact = [m.edges_processed, m.primitive_matches, m.complete_matches];
                (q.name().to_owned(), exact, m.local_search_candidates)
            })
            .collect()
    };
    let private = per_query(false);
    let shared = per_query(true);
    assert!(private.iter().any(|(_, m, c)| m[2] > 0 && *c > 0));
    for ((name, exact, candidates), (_, private_exact, private_candidates)) in
        shared.iter().zip(&private)
    {
        assert_eq!(exact, private_exact, "{name}");
        if name.ends_with("_coloc") {
            assert_eq!(candidates, private_candidates, "{name}");
        } else {
            // A lifted entry searches once for every watched constant, and
            // each subscriber is charged that whole walk: its own share plus
            // the other labels' (the attribution is per entry, not per
            // constant).
            assert!(candidates >= private_candidates, "{name}");
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
    let mut engine = build_engine(true, 1);
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
    assert!(engine.sharing_active());
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
    assert!(!engine.sharing_active());
}

#[test]
fn subtree_counters_tell_the_truth() {
    // Default configuration: subtree sharing plus predicate-constant lifting.
    // The labelled pair templates (eq("label", …) predicates, identical shape
    // across all four labels) collapse into lifted subtree entries served by
    // constant dispatch; the unlabelled co-location template has no constants
    // to lift and stays on the leaf-level primitive index.
    let (queries, events) = tenant_workload(8);
    let mut engine = build_engine(true, 1);
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
    assert!(engine.sharing_active());

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
    assert!(!engine.sharing_active());
}

#[test]
fn checkpoint_restore_re_interns_the_index() {
    let (queries, events) = tenant_workload(4);
    let mut engine = build_engine(true, 1);
    for q in &queries {
        engine.register_query(q.clone()).unwrap();
    }
    let split = events.len() / 2;
    let mut direct = engine.ingest(&events[..split]).unwrap();

    let checkpoint = engine.checkpoint();
    let mut restored = ContinuousQueryEngine::from_checkpoint(&checkpoint);
    // The index is rebuilt by re-registration: same dedup structure.
    let before = engine.engine_metrics();
    let after = restored.engine_metrics();
    assert_eq!(after.distinct_primitives, before.distinct_primitives);
    assert_eq!(after.subscribed_primitives, before.subscribed_primitives);
    assert!(restored.sharing_active());

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
fn disjoint_registries_bypass_the_shared_path() {
    // Queries with no structural overlap anywhere: the engine must stay on
    // the classic dispatch (sharing_active false) while still interning the
    // primitives for later overlap.
    let mut engine = build_engine(true, 1);
    engine
        .register_dsl("QUERY a WINDOW 1h MATCH (x:IP)-[:flow]->(y:IP)")
        .unwrap();
    engine
        .register_dsl("QUERY b WINDOW 1h MATCH (u:User)-[:login]->(h:IP)")
        .unwrap();
    assert!(!engine.sharing_active());
    let m = engine.engine_metrics();
    assert_eq!(m.distinct_primitives, 2);
    assert_eq!(m.subscribed_primitives, 2);

    // A third query overlapping the first flips the engine onto the shared
    // path; deregistering it flips back.
    let c = engine
        .register_dsl("QUERY c WINDOW 1h MATCH (p:IP)-[:flow]->(q:IP)")
        .unwrap();
    assert!(engine.sharing_active());
    engine.deregister(c).unwrap();
    assert!(!engine.sharing_active());
}
