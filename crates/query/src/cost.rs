//! Plan cost model and the cost-based decomposition every automatic plan uses.
//!
//! Paper §4.1 states the planning goal — "push the most selective subgraph at
//! the lowest level in the subgraph join-tree to reduce the number of partial
//! matches" — and §4.3 lists the multi-relational triad distribution as a
//! statistic whose incorporation into decomposition was work in progress.
//! This module supplies both:
//!
//! * a **cost model** ([`estimate_shape_cost`]) that, given a
//!   [`SelectivityEstimator`], predicts how many partial matches each SJ-Tree
//!   node will store (the quantity the paper wants to minimise), and
//! * [`CostBasedOrdered`], which groups adjacent query edges into the wedge
//!   primitives the triad distribution estimates directly and then searches
//!   over join orders to minimise the total predicted partial-match
//!   population (exact dynamic programming for small queries, greedy beyond
//!   that).
//!
//! The ablation experiment E7 compares it against hand-picked
//! [`crate::ManualDecomposition`] plans, including the frequency-blind
//! single-edge chain.

use crate::decompose::{validate_decomposition, DecompositionStrategy, Primitive};
use crate::error::QueryError;
use crate::query_graph::{QueryEdgeId, QueryGraph};
use crate::selectivity::SelectivityEstimator;
use crate::sjtree::{SjNodeId, SjTreeShape};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

/// Predicted cost of a single SJ-Tree node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeCostEstimate {
    /// The SJ-Tree node this estimate concerns.
    pub node: SjNodeId,
    /// Query edges covered by the node's subgraph.
    pub edges: Vec<QueryEdgeId>,
    /// Whether the node is a leaf (search primitive) or an internal join node.
    pub is_leaf: bool,
    /// Estimated number of matching data subgraphs the node will store.
    pub estimated_matches: f64,
}

/// Predicted cost of a whole SJ-Tree shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShapeCostEstimate {
    /// Per-node estimates, in the shape's node order (leaves first).
    pub nodes: Vec<NodeCostEstimate>,
    /// Sum of the estimated match populations of every non-root node — the
    /// partial matches the engine must keep live (the paper's objective).
    pub stored_partial_matches: f64,
    /// Estimated number of complete matches produced at the root.
    pub root_matches: f64,
}

impl ShapeCostEstimate {
    /// Human-readable rendering used by plan-explain output and the
    /// plan-ablation experiment binary.
    pub fn render(&self, query: &QueryGraph) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "estimated stored partial matches: {:.1}, complete matches: {:.1}\n",
            self.stored_partial_matches, self.root_matches
        ));
        for n in &self.nodes {
            let edges: Vec<String> = n.edges.iter().map(|&e| query.describe_edge(e)).collect();
            out.push_str(&format!(
                "  {} n{:<2} {:>12.1}  {{{}}}\n",
                if n.is_leaf { "leaf" } else { "join" },
                n.node.0,
                n.estimated_matches,
                edges.join(", ")
            ));
        }
        out
    }
}

/// Predicts, for every node of `shape`, how many matching data subgraphs the
/// incremental matcher will store there, using the estimator's chain estimate
/// for the node's query subgraph.
pub fn estimate_shape_cost(
    query: &QueryGraph,
    estimator: &SelectivityEstimator<'_>,
    shape: &SjTreeShape,
) -> ShapeCostEstimate {
    let mut nodes = Vec::with_capacity(shape.node_count());
    let mut stored = 0.0;
    let mut root_matches = 0.0;
    for node in shape.nodes() {
        let estimated = estimator.subgraph_cardinality(query, &node.edges);
        if node.id == shape.root() {
            root_matches = estimated;
        } else {
            stored += estimated;
        }
        nodes.push(NodeCostEstimate {
            node: node.id,
            edges: node.edges.clone(),
            is_leaf: node.is_leaf(),
            estimated_matches: estimated,
        });
    }
    ShapeCostEstimate {
        nodes,
        stored_partial_matches: stored,
        root_matches,
    }
}

// ---------------------------------------------------------------------------
// Cost-based join ordering
// ---------------------------------------------------------------------------

/// Largest number of primitives [`CostBasedOrdered`] orders by the exact
/// dynamic program; larger plans fall back to the greedy ordering.
const EXHAUSTIVE_LIMIT: usize = 12;

/// Orders `primitives` (in place, returned) so that the total predicted
/// partial-match population of the left-deep join is minimal.
///
/// For up to `exhaustive_limit` primitives the order is found by dynamic
/// programming over primitive subsets (Selinger-style, restricted to
/// connected prefixes when possible); beyond that a greedy ordering is used:
/// start from the most selective primitive and repeatedly append the connected
/// primitive whose addition keeps the predicted prefix population smallest.
fn order_primitives_by_cost(
    query: &QueryGraph,
    estimator: &SelectivityEstimator<'_>,
    primitives: Vec<Primitive>,
    exhaustive_limit: usize,
) -> Vec<Primitive> {
    let n = primitives.len();
    if n <= 1 {
        return primitives;
    }
    if n <= exhaustive_limit && n <= 16 {
        order_exhaustive_dp(query, estimator, primitives)
    } else {
        order_greedy(query, estimator, primitives)
    }
}

fn primitive_vertices(query: &QueryGraph, p: &Primitive) -> BTreeSet<crate::QueryVertexId> {
    query.vertices_of_edges(&p.edges).into_iter().collect()
}

fn connected_to(
    query: &QueryGraph,
    placed_vertices: &BTreeSet<crate::QueryVertexId>,
    p: &Primitive,
) -> bool {
    primitive_vertices(query, p)
        .iter()
        .any(|v| placed_vertices.contains(v))
}

fn order_greedy(
    query: &QueryGraph,
    estimator: &SelectivityEstimator<'_>,
    mut pool: Vec<Primitive>,
) -> Vec<Primitive> {
    let mut ordered: Vec<Primitive> = Vec::with_capacity(pool.len());
    let mut placed_vertices: BTreeSet<crate::QueryVertexId> = BTreeSet::new();
    let mut prefix_edges: Vec<QueryEdgeId> = Vec::new();
    while !pool.is_empty() {
        let candidates: Vec<usize> = (0..pool.len())
            .filter(|&i| ordered.is_empty() || connected_to(query, &placed_vertices, &pool[i]))
            .collect();
        let candidates = if candidates.is_empty() {
            (0..pool.len()).collect()
        } else {
            candidates
        };
        let pick = candidates
            .into_iter()
            .min_by(|&a, &b| {
                let cost = |idx: usize| {
                    if ordered.is_empty() {
                        estimator.primitive_cardinality(query, &pool[idx].edges)
                    } else {
                        let mut edges = prefix_edges.clone();
                        edges.extend(pool[idx].edges.iter().copied());
                        estimator.subgraph_cardinality(query, &edges)
                    }
                };
                cost(a)
                    .partial_cmp(&cost(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("pool is non-empty");
        let p = pool.remove(pick);
        placed_vertices.extend(primitive_vertices(query, &p));
        prefix_edges.extend(p.edges.iter().copied());
        ordered.push(p);
    }
    ordered
}

fn order_exhaustive_dp(
    query: &QueryGraph,
    estimator: &SelectivityEstimator<'_>,
    primitives: Vec<Primitive>,
) -> Vec<Primitive> {
    let n = primitives.len();
    let full: u32 = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };

    // Pre-compute the chain estimate of every subset (the cost of storing
    // that subset as an intermediate node) and whether the subset's edge set
    // is connected.
    let subset_edges = |mask: u32| -> Vec<QueryEdgeId> {
        let mut edges = Vec::new();
        for (i, p) in primitives.iter().enumerate() {
            if mask & (1 << i) != 0 {
                edges.extend(p.edges.iter().copied());
            }
        }
        edges
    };
    let mut subset_cost = vec![0.0f64; (full as usize) + 1];
    let mut subset_connected = vec![false; (full as usize) + 1];
    for mask in 1..=full {
        let edges = subset_edges(mask);
        subset_cost[mask as usize] = if mask.count_ones() == 1 {
            let idx = mask.trailing_zeros() as usize;
            estimator.primitive_cardinality(query, &primitives[idx].edges)
        } else {
            estimator.subgraph_cardinality(query, &edges)
        };
        subset_connected[mask as usize] = query.edges_connected(&edges);
    }

    // dp[mask] = (min total cost of materialising the prefix `mask`, last primitive).
    let mut dp = vec![(f64::INFINITY, usize::MAX); (full as usize) + 1];
    for i in 0..n {
        let mask = 1u32 << i;
        dp[mask as usize] = (subset_cost[mask as usize], i);
    }
    for mask in 1..=full {
        let (cost_so_far, _) = dp[mask as usize];
        if !cost_so_far.is_finite() {
            continue;
        }
        for next in 0..n {
            if mask & (1 << next) != 0 {
                continue;
            }
            let new_mask = mask | (1 << next);
            // Prefer connected prefixes; allow disconnected ones only when the
            // query itself forces them (handled by the greedy fallback below).
            if !subset_connected[new_mask as usize] && subset_connected[full as usize] {
                continue;
            }
            // The newly formed prefix is stored as an internal node unless it
            // is the root (all primitives placed).
            let stored = if new_mask == full {
                0.0
            } else {
                subset_cost[new_mask as usize]
            };
            let leaf = subset_cost[(1u32 << next) as usize];
            let cand = cost_so_far + leaf + stored;
            if cand < dp[new_mask as usize].0 {
                dp[new_mask as usize] = (cand, next);
            }
        }
    }

    if !dp[full as usize].0.is_finite() {
        // The connectivity restriction made the full order unreachable
        // (disconnected query); fall back to the greedy ordering.
        return order_greedy(query, estimator, primitives);
    }

    // Reconstruct the order by walking back from the full set.
    let mut order_rev = Vec::with_capacity(n);
    let mut mask = full;
    while mask != 0 {
        let (_, last) = dp[mask as usize];
        order_rev.push(last);
        mask &= !(1u32 << last);
        if order_rev.len() > n {
            break;
        }
    }
    order_rev.reverse();
    let mut taken: Vec<Option<Primitive>> = primitives.into_iter().map(Some).collect();
    order_rev
        .into_iter()
        .filter_map(|i| taken[i].take())
        .collect()
}

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// Cost-based decomposition, the planner of every automatic plan
/// ([`crate::Planner::plan`]): greedy wedge grouping followed by a join-order
/// search that minimises the total predicted partial-match population of the
/// left-deep SJ-Tree.
#[derive(Debug, Clone, Copy)]
pub struct CostBasedOrdered {
    /// Maximum number of query edges per primitive (1 or 2 are typical).
    pub max_primitive_size: usize,
}

impl Default for CostBasedOrdered {
    fn default() -> Self {
        CostBasedOrdered {
            max_primitive_size: 2,
        }
    }
}

impl DecompositionStrategy for CostBasedOrdered {
    fn name(&self) -> &str {
        "cost-based"
    }

    fn decompose(
        &self,
        query: &QueryGraph,
        estimator: &SelectivityEstimator<'_>,
    ) -> Result<Vec<Primitive>, QueryError> {
        query.validate()?;
        let grouped = group_min_cardinality(query, estimator, self.max_primitive_size.max(1));
        let ordered = order_primitives_by_cost(query, estimator, grouped, EXHAUSTIVE_LIMIT);
        validate_decomposition(query, &ordered)?;
        Ok(ordered)
    }
}

/// Greedy grouping of query edges into primitives of at most `max_size`
/// edges, seeding each primitive with the most selective unassigned edge and
/// extending it with the adjacent edge that keeps the primitive estimate
/// smallest.
fn group_min_cardinality(
    query: &QueryGraph,
    estimator: &SelectivityEstimator<'_>,
    max_size: usize,
) -> Vec<Primitive> {
    let mut ranked: Vec<QueryEdgeId> = query.edge_ids().collect();
    ranked.sort_by(|&a, &b| {
        estimator
            .edge_cardinality(query, a)
            .partial_cmp(&estimator.edge_cardinality(query, b))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut assigned: BTreeSet<QueryEdgeId> = BTreeSet::new();
    let mut primitives = Vec::new();
    for &seed in &ranked {
        if assigned.contains(&seed) {
            continue;
        }
        let mut edges = vec![seed];
        assigned.insert(seed);
        while edges.len() < max_size {
            let candidate = ranked
                .iter()
                .copied()
                .filter(|e| !assigned.contains(e))
                .filter(|&e| {
                    edges
                        .iter()
                        .any(|&pe| query.edge(pe).is_adjacent_to(query.edge(e)))
                })
                .min_by(|&a, &b| {
                    let cost = |x: QueryEdgeId| {
                        let mut with = edges.clone();
                        with.push(x);
                        estimator.primitive_cardinality(query, &with)
                    };
                    cost(a)
                        .partial_cmp(&cost(b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
            match candidate {
                Some(e) => {
                    edges.push(e);
                    assigned.insert(e);
                }
                None => break,
            }
        }
        primitives.push(Primitive::new(edges));
    }
    primitives
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::QueryGraphBuilder;
    use crate::decompose::ManualDecomposition;
    use crate::plan::Planner;
    use streamworks_graph::{Duration, DynamicGraph, EdgeEvent, Timestamp};
    use streamworks_summarize::GraphSummary;

    fn fig2_query() -> QueryGraph {
        QueryGraphBuilder::new("news_triple")
            .window(Duration::from_hours(6))
            .vertex("a1", "Article")
            .vertex("a2", "Article")
            .vertex("a3", "Article")
            .vertex("k", "Keyword")
            .vertex("l", "Location")
            .edge("a1", "mentions", "k")
            .edge("a2", "mentions", "k")
            .edge("a3", "mentions", "k")
            .edge("a1", "located", "l")
            .edge("a2", "located", "l")
            .edge("a3", "located", "l")
            .build()
            .unwrap()
    }

    /// The frequency-blind reference plan: single edges in edge-id order.
    fn blind(query: &QueryGraph) -> ManualDecomposition {
        ManualDecomposition::new(query.edge_ids().map(|e| vec![e]).collect())
    }

    fn left_deep_cost(
        query: &QueryGraph,
        estimator: &SelectivityEstimator<'_>,
        primitives: &[Primitive],
    ) -> f64 {
        let shape = SjTreeShape::left_deep(query, primitives).unwrap();
        estimate_shape_cost(query, estimator, &shape).stored_partial_matches
    }

    /// A small news-like data graph: many mention edges, few located edges.
    fn news_graph() -> (DynamicGraph, GraphSummary) {
        let mut g = DynamicGraph::unbounded();
        let mut s = GraphSummary::new();
        let push = |g: &mut DynamicGraph,
                    s: &mut GraphSummary,
                    src: &str,
                    st: &str,
                    dst: &str,
                    dt: &str,
                    et: &str,
                    t: i64| {
            let ev = EdgeEvent::new(src, st, dst, dt, et, Timestamp::from_secs(t));
            let r = g.ingest(&ev);
            if r.src_created {
                s.observe_vertex(g.vertex(r.src).unwrap().vtype);
            }
            if r.dst_created {
                s.observe_vertex(g.vertex(r.dst).unwrap().vtype);
            }
            let e = g.edge(r.edge).unwrap().clone();
            s.observe_insertion(g, &e);
        };
        let mut t = 0;
        for a in 0..30 {
            for k in 0..4 {
                push(
                    &mut g,
                    &mut s,
                    &format!("a{a}"),
                    "Article",
                    &format!("k{k}"),
                    "Keyword",
                    "mentions",
                    t,
                );
                t += 1;
            }
        }
        for a in 0..5 {
            push(
                &mut g,
                &mut s,
                &format!("a{a}"),
                "Article",
                "paris",
                "Location",
                "located",
                t,
            );
            t += 1;
        }
        (g, s)
    }

    #[test]
    fn cost_based_plan_is_valid_and_not_worse_than_blind() {
        let (g, s) = news_graph();
        let q = fig2_query();
        let est = SelectivityEstimator::with_summary(&s, &g);
        let cost_prims = CostBasedOrdered::default().decompose(&q, &est).unwrap();
        validate_decomposition(&q, &cost_prims).unwrap();
        let blind_prims = blind(&q).decompose(&q, &est).unwrap();
        let cost_cost = left_deep_cost(&q, &est, &cost_prims);
        let blind_cost = left_deep_cost(&q, &est, &blind_prims);
        assert!(
            cost_cost <= blind_cost,
            "cost-based {cost_cost} should not exceed blind {blind_cost}"
        );
    }

    /// Wedges: the two-edge primitives the triad distribution prices.
    #[test]
    fn triad_wedges_produce_two_edge_primitives_on_fig2() {
        let (g, s) = news_graph();
        let q = fig2_query();
        let est = SelectivityEstimator::with_summary(&s, &g);
        let prims = CostBasedOrdered::default().decompose(&q, &est).unwrap();
        validate_decomposition(&q, &prims).unwrap();
        // The 6-edge Fig. 2 query decomposes into exactly three wedges.
        assert_eq!(prims.len(), 3);
        assert!(prims.iter().all(|p| p.len() == 2));
    }

    #[test]
    fn triad_wedges_handle_odd_edge_counts() {
        let q = QueryGraphBuilder::new("tri")
            .vertex("a", "A")
            .vertex("b", "B")
            .vertex("c", "C")
            .edge("a", "x", "b")
            .edge("b", "y", "c")
            .edge("c", "z", "a")
            .build()
            .unwrap();
        let est = SelectivityEstimator::without_summary();
        let prims = CostBasedOrdered::default().decompose(&q, &est).unwrap();
        validate_decomposition(&q, &prims).unwrap();
        assert_eq!(prims.iter().map(|p| p.len()).sum::<usize>(), 3);
        // One wedge plus one leftover single edge.
        assert_eq!(prims.len(), 2);
    }

    #[test]
    fn shape_cost_estimates_every_node_and_sums_non_root() {
        let (g, s) = news_graph();
        let q = fig2_query();
        let est = SelectivityEstimator::with_summary(&s, &g);
        let plan = Planner::new()
            .with_statistics(&s, &g)
            .plan_with(q.clone(), &CostBasedOrdered::default())
            .unwrap();
        let cost = estimate_shape_cost(&q, &est, &plan.shape);
        assert_eq!(cost.nodes.len(), plan.shape.node_count());
        let non_root_sum: f64 = cost
            .nodes
            .iter()
            .filter(|n| n.node != plan.shape.root())
            .map(|n| n.estimated_matches)
            .sum();
        assert!((non_root_sum - cost.stored_partial_matches).abs() < 1e-6);
        assert!(cost.root_matches >= 0.0);
        let rendered = cost.render(&q);
        assert!(rendered.contains("estimated stored partial matches"));
        assert!(rendered.contains("leaf"));
    }

    #[test]
    fn selective_plans_have_lower_estimated_cost_on_skewed_data() {
        let (g, s) = news_graph();
        let q = fig2_query();
        let est = SelectivityEstimator::with_summary(&s, &g);
        let planner = Planner::new().with_statistics(&s, &g);
        let cost_plan = planner
            .plan_with(q.clone(), &CostBasedOrdered::default())
            .unwrap();
        let blind_plan = planner.plan_with(q.clone(), &blind(&q)).unwrap();
        let c = estimate_shape_cost(&q, &est, &cost_plan.shape).stored_partial_matches;
        let b = estimate_shape_cost(&q, &est, &blind_plan.shape).stored_partial_matches;
        assert!(c <= b, "cost-based {c} vs blind {b}");
    }

    #[test]
    fn greedy_ordering_used_beyond_exhaustive_limit() {
        // A long path forces many primitives; with exhaustive_limit 2 the DP is
        // skipped and the greedy path must still produce a valid plan.
        let mut b = QueryGraphBuilder::new("long_path");
        for i in 0..9 {
            b = b.edge(&format!("v{i}"), "t", &format!("v{}", i + 1));
        }
        let q = b.build().unwrap();
        let est = SelectivityEstimator::without_summary();
        let single_edges = q.edge_ids().map(|e| Primitive::new(vec![e])).collect();
        let prims = order_primitives_by_cost(&q, &est, single_edges, 2);
        validate_decomposition(&q, &prims).unwrap();
        assert_eq!(prims.len(), 9);
    }

    #[test]
    fn disconnected_queries_fall_back_to_greedy_order() {
        let q = QueryGraphBuilder::new("two_parts")
            .vertex("a", "A")
            .vertex("b", "B")
            .vertex("c", "C")
            .vertex("d", "D")
            .edge("a", "x", "b")
            .edge("c", "y", "d")
            .build()
            .unwrap();
        let est = SelectivityEstimator::without_summary();
        let prims = CostBasedOrdered::default().decompose(&q, &est).unwrap();
        validate_decomposition(&q, &prims).unwrap();
        assert_eq!(prims.iter().map(|p| p.len()).sum::<usize>(), 2);
    }

    #[test]
    fn shape_cost_penalises_bad_orders() {
        let (g, s) = news_graph();
        let q = fig2_query();
        let est = SelectivityEstimator::with_summary(&s, &g);
        // Good order: start with a (mentions, located) wedge anchored on the
        // rare located edge. Bad order: chain the three frequent mention edges
        // first.
        let good = vec![
            Primitive::new(vec![QueryEdgeId(0), QueryEdgeId(3)]),
            Primitive::new(vec![QueryEdgeId(1), QueryEdgeId(4)]),
            Primitive::new(vec![QueryEdgeId(2), QueryEdgeId(5)]),
        ];
        let bad = vec![
            Primitive::new(vec![QueryEdgeId(0)]),
            Primitive::new(vec![QueryEdgeId(1)]),
            Primitive::new(vec![QueryEdgeId(2)]),
            Primitive::new(vec![QueryEdgeId(3)]),
            Primitive::new(vec![QueryEdgeId(4)]),
            Primitive::new(vec![QueryEdgeId(5)]),
        ];
        let good_cost = left_deep_cost(&q, &est, &good);
        let bad_cost = left_deep_cost(&q, &est, &bad);
        assert!(good_cost < bad_cost, "good={good_cost} bad={bad_cost}");
    }
}
