//! Property-based tests of the planner: for arbitrary connected query graphs,
//! every decomposition strategy must produce a valid edge partition and every
//! constructed SJ-Tree must satisfy the structural properties of paper §3.2.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use streamworks::query::{
    validate_decomposition, CostBasedOrdered, DecompositionStrategy, ManualDecomposition, Planner,
    SjTreeShape, TreeShapeKind,
};
use streamworks::{Duration, QueryGraph, QueryGraphBuilder};

/// Builds a random connected query graph from a compact description.
///
/// `extra_edges[i] = (a, b, t)` adds an edge between vertices `a % n` and
/// `b % n` of type `t`; a spanning path over the first `n` vertices guarantees
/// connectivity.
fn build_query(n_vertices: usize, extra_edges: &[(u8, u8, u8)], window: i64) -> QueryGraph {
    let types = ["Host", "User", "Service"];
    let etypes = ["flow", "login", "uses"];
    let mut b = QueryGraphBuilder::new("random").window(Duration::from_secs(window));
    for i in 0..n_vertices {
        b = b.vertex(&format!("v{i}"), types[i % types.len()]);
    }
    // Spanning path keeps the query connected.
    for i in 1..n_vertices {
        b = b.edge(
            &format!("v{}", i - 1),
            etypes[i % etypes.len()],
            &format!("v{i}"),
        );
    }
    for &(a, eb, t) in extra_edges {
        let src = format!("v{}", a as usize % n_vertices);
        let dst = format!("v{}", eb as usize % n_vertices);
        if src == dst {
            continue;
        }
        b = b.edge(&src, etypes[t as usize % etypes.len()], &dst);
    }
    b.build().expect("constructed query is valid")
}

/// Draws a random `(a, b, t)` extra-edge list for [`build_query`].
fn random_extra(rng: &mut StdRng, max_len: usize) -> Vec<(u8, u8, u8)> {
    let len = rng.gen_range(0..max_len);
    (0..len)
        .map(|_| {
            (
                rng.gen_range(0..8u8),
                rng.gen_range(0..8u8),
                rng.gen_range(0..3u8),
            )
        })
        .collect()
}

#[test]
fn strategies_produce_valid_partitions_and_trees() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for _ in 0..64 {
        let n_vertices = rng.gen_range(2usize..8);
        let extra = random_extra(&mut rng, 6);
        let window = rng.gen_range(10i64..10_000);
        let query = build_query(n_vertices, &extra, window);
        let strategies: Vec<Box<dyn DecompositionStrategy>> = vec![
            Box::new(CostBasedOrdered {
                max_primitive_size: 1,
            }),
            Box::new(CostBasedOrdered {
                max_primitive_size: 2,
            }),
            Box::new(CostBasedOrdered {
                max_primitive_size: 3,
            }),
            // The frequency-blind reference: single edges in edge-id order.
            Box::new(ManualDecomposition::new(
                query.edge_ids().map(|e| vec![e]).collect(),
            )),
        ];
        for strategy in strategies {
            let est = streamworks::query::SelectivityEstimator::without_summary();
            let primitives = strategy.decompose(&query, &est).unwrap();
            validate_decomposition(&query, &primitives).unwrap();

            // Both tree shapes satisfy the paper's structural properties.
            for shape in [
                SjTreeShape::left_deep(&query, &primitives).unwrap(),
                SjTreeShape::balanced(&query, &primitives).unwrap(),
            ] {
                shape.validate(&query).unwrap();
                // The root covers every query edge (property 1).
                assert_eq!(shape.node(shape.root()).edges.len(), query.edge_count());
                // Leaves are exactly the primitives, in order.
                assert_eq!(shape.leaves().len(), primitives.len());
                for (leaf, prim) in shape.leaves().iter().zip(&primitives) {
                    assert_eq!(&shape.node(*leaf).edges, &prim.edges);
                }
                // Sibling/join-key consistency: siblings share the same join key,
                // and the key is a subset of both siblings' vertex sets.
                for node in shape.nodes() {
                    if let Some(sib) = shape.sibling(node.id) {
                        assert_eq!(shape.join_key(node.id), shape.join_key(sib));
                        for v in shape.join_key(node.id) {
                            assert!(node.vertices.contains(v));
                            assert!(shape.node(sib).vertices.contains(v));
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn planner_end_to_end_on_random_queries() {
    let mut rng = StdRng::seed_from_u64(0xFACADE);
    for _ in 0..64 {
        let n_vertices = rng.gen_range(2usize..7);
        let extra = random_extra(&mut rng, 5);
        let query = build_query(n_vertices, &extra, 300);
        for kind in [TreeShapeKind::LeftDeep, TreeShapeKind::Balanced] {
            let plan = Planner::new().tree_kind(kind).plan(query.clone()).unwrap();
            plan.shape.validate(&plan.query).unwrap();
            assert_eq!(plan.edge_estimates.len(), query.edge_count());
            assert!(plan.shape.height() <= query.edge_count() + 1);
            // Explain output mentions every query variable.
            let explain = plan.explain();
            for v in query.vertices() {
                assert!(explain.contains(&v.name));
            }
        }
    }
}

#[test]
fn dsl_round_trip_preserves_plannability() {
    // Parse → format → parse → plan should work for a representative query.
    let text = r#"
        QUERY roundtrip WINDOW 10m
        MATCH (a:Host)-[:flow]->(b:Host)-[:flow]->(c:Host),
              (u:User)-[:login]->(a)
        WHERE u.privileged = true
    "#;
    let q1 = streamworks::parse_query(text).unwrap();
    let q2 = streamworks::parse_query(&streamworks::query::format_query(&q1)).unwrap();
    assert_eq!(q1.edge_count(), q2.edge_count());
    assert_eq!(q1.vertex_count(), q2.vertex_count());
    let plan = Planner::new().plan(q2).unwrap();
    plan.shape.validate(&plan.query).unwrap();
}
