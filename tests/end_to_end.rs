//! End-to-end integration tests across all crates: the two application
//! scenarios of paper §5 (cyber security, news monitoring) plus multi-query
//! registration, plan-quality comparison and metric sanity.

use streamworks::baseline::verify_assignment;
use streamworks::query::QueryEdgeId;
use streamworks::workloads::queries::{
    labelled_news_query, news_triple_query, port_scan_query, smurf_ddos_query, worm_spread_query,
};
use streamworks::workloads::{
    AttackKind, CyberConfig, CyberTrafficGenerator, NewsConfig, NewsStreamGenerator,
};
use streamworks::{
    ContinuousQueryEngine, CostBasedOrdered, Duration, DynamicGraph, EngineConfig, TreeShapeKind,
};

#[test]
fn cyber_attacks_are_detected_with_ground_truth_recall() {
    let workload = CyberTrafficGenerator::new(CyberConfig {
        background_edges: 4_000,
        attacks: vec![
            (AttackKind::SmurfDdos, 4),
            (AttackKind::PortScan, 5),
            (AttackKind::WormSpread, 3),
        ],
        ..Default::default()
    })
    .generate();

    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    let smurf = engine
        .register_query(smurf_ddos_query(4, Duration::from_mins(5)))
        .unwrap();
    let scan = engine
        .register_query(port_scan_query(5, Duration::from_mins(1)))
        .unwrap();
    let worm = engine
        .register_query(worm_spread_query(2, Duration::from_mins(10)))
        .unwrap();

    let events = engine.ingest(&workload.events).unwrap();

    for attack in &workload.attacks {
        let qid = match attack.kind {
            AttackKind::SmurfDdos => smurf,
            AttackKind::PortScan => scan,
            AttackKind::WormSpread => worm,
        };
        let detected = events
            .iter()
            .any(|e| e.query == qid.id() && e.bindings.iter().any(|b| b.key == attack.attacker));
        assert!(
            detected,
            "attack {:?} by {} not detected",
            attack.kind, attack.attacker
        );
    }
}

#[test]
fn news_bursts_are_detected_and_matches_verify() {
    let workload = NewsStreamGenerator::new(NewsConfig {
        articles: 600,
        planted_events: vec![("politics".into(), 3), ("accident".into(), 3)],
        ..Default::default()
    })
    .generate();

    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    let politics = engine
        .register_query(labelled_news_query("politics", Duration::from_mins(30)))
        .unwrap();
    let accident = engine
        .register_query(labelled_news_query("accident", Duration::from_mins(30)))
        .unwrap();

    // Mirror the stream into an unbounded graph for independent verification
    // (the engine's own graph may expire edges past the retention horizon).
    let mut reference = DynamicGraph::unbounded();
    let mut all_events = Vec::new();
    for ev in &workload.events {
        reference.ingest(ev);
        all_events.extend(engine.ingest(ev).unwrap());
    }

    // Every planted burst is found by its labelled query.
    for planted in &workload.planted {
        let hit = all_events.iter().any(|e| {
            e.binding("k")
                .map(|b| b.key == planted.keyword)
                .unwrap_or(false)
                && e.binding("l")
                    .map(|b| b.key == planted.location)
                    .unwrap_or(false)
        });
        assert!(hit, "planted burst {} not detected", planted.keyword);
    }

    // Every emitted match verifies independently against the reference graph.
    for event in &all_events {
        let query = if event.query == politics.id() {
            labelled_news_query("politics", Duration::from_mins(30))
        } else {
            assert_eq!(event.query, accident.id());
            labelled_news_query("accident", Duration::from_mins(30))
        };
        let assignment: Vec<(QueryEdgeId, streamworks::EdgeId)> = event
            .edges
            .iter()
            .enumerate()
            .map(|(i, e)| (QueryEdgeId(i), *e))
            .collect();
        verify_assignment(&reference, &query, &assignment)
            .unwrap_or_else(|err| panic!("match failed verification: {err:?}"));
    }
}

#[test]
fn selectivity_plan_stores_fewer_partial_matches_than_blind_plan() {
    // Skewed news stream: mentions are ~3x more frequent than located edges,
    // so a plan that starts from located edges stores fewer partials. The
    // stream and window are kept small because the frequency-blind plan's
    // partial-match population grows combinatorially (which is the point).
    let workload = NewsStreamGenerator::new(NewsConfig {
        articles: 350,
        planted_events: vec![],
        ..Default::default()
    })
    .generate();
    let query = news_triple_query(Duration::from_mins(10));

    // Warm-up pass to build statistics, then register with/without them.
    let mut warm = ContinuousQueryEngine::builder().build().unwrap();
    for ev in &workload.events {
        warm.ingest(ev).unwrap();
    }

    // Statistics-driven plan on a fresh engine seeded with the learned stats:
    // we emulate that by planning against the warm engine's summary.
    let informed_plan = streamworks::Planner::new()
        .with_statistics(warm.summary(), warm.graph())
        .plan_with(
            query.clone(),
            &CostBasedOrdered {
                max_primitive_size: 1,
            },
        )
        .unwrap();
    // The frequency-blind plan: single edges in edge-id order.
    let single_edges = query.edge_ids().map(|e| vec![e]).collect();
    let blind_plan = streamworks::Planner::new()
        .plan_with(
            query.clone(),
            &streamworks::query::ManualDecomposition::new(single_edges),
        )
        .unwrap();

    let run = |plan: streamworks::QueryPlan| -> streamworks::QueryMetrics {
        let mut engine = ContinuousQueryEngine::new(EngineConfig::default());
        let id = engine.register_plan(plan);
        for ev in &workload.events {
            engine.ingest(ev).unwrap();
        }
        engine.metrics(id).unwrap()
    };
    let informed = run(informed_plan);
    let blind = run(blind_plan);

    // Both plans find the same complete matches...
    assert_eq!(informed.complete_matches, blind.complete_matches);
    // ...but the informed plan materialises fewer partial matches.
    assert!(
        informed.partial_matches_inserted <= blind.partial_matches_inserted,
        "informed {} vs blind {}",
        informed.partial_matches_inserted,
        blind.partial_matches_inserted
    );
}

#[test]
fn multiple_strategies_and_tree_kinds_agree_on_results() {
    let workload = NewsStreamGenerator::new(NewsConfig {
        articles: 250,
        planted_events: vec![("politics".into(), 3)],
        ..Default::default()
    })
    .generate();
    let query = labelled_news_query("politics", Duration::from_mins(30));

    let mut counts = Vec::new();
    for (strategy, kind) in [
        (
            CostBasedOrdered {
                max_primitive_size: 2,
            },
            TreeShapeKind::LeftDeep,
        ),
        (
            CostBasedOrdered {
                max_primitive_size: 1,
            },
            TreeShapeKind::LeftDeep,
        ),
        (
            CostBasedOrdered {
                max_primitive_size: 1,
            },
            TreeShapeKind::Balanced,
        ),
    ] {
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        let id = engine
            .register_query_with(query.clone(), &strategy, kind)
            .unwrap();
        let events = engine.ingest(&workload.events).unwrap();
        counts.push((events.len(), engine.metrics(id).unwrap().complete_matches));
    }
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "counts differ: {counts:?}"
    );
    assert!(counts[0].0 > 0, "expected at least one match");
}

#[test]
fn engine_sustains_multi_query_load_with_bounded_state() {
    // Spread the stream over a couple of hours of stream time so it far
    // exceeds every query window and edge expiry actually kicks in.
    let workload = CyberTrafficGenerator::new(CyberConfig {
        background_edges: 8_000,
        edge_interval: Duration::from_millis(500),
        attacks: vec![(AttackKind::SmurfDdos, 4)],
        ..Default::default()
    })
    .generate();

    let mut engine = ContinuousQueryEngine::new(EngineConfig::default());
    let ids = vec![
        engine
            .register_query(smurf_ddos_query(4, Duration::from_mins(2)))
            .unwrap(),
        engine
            .register_query(port_scan_query(4, Duration::from_secs(30)))
            .unwrap(),
        engine
            .register_query(worm_spread_query(2, Duration::from_mins(2)))
            .unwrap(),
        engine
            .register_dsl(
                "QUERY dns_pair WINDOW 60s MATCH (a:IP)-[:dns]->(x:IP), (b:IP)-[:dns]->(x)",
            )
            .unwrap(),
    ];
    for ev in &workload.events {
        engine.ingest(ev).unwrap();
    }
    // The stream spans hours while the windows are minutes: partial-match
    // populations must stay far below the number of processed edges.
    for id in ids {
        let m = engine.metrics(id).unwrap();
        assert!(m.edges_processed as usize >= workload.events.len());
        assert!(
            (m.partial_matches_live as usize) < workload.events.len() / 4,
            "query {id:?} holds {} live partial matches",
            m.partial_matches_live
        );
    }
    // The 2-minute retention keeps only a small suffix of the stream live.
    assert!(engine.graph().live_edge_count() < workload.events.len() / 2);
    assert!(engine.graph_stats().expired_edges > 0);
}
