//! Adaptive re-planning: continuously collected statistics drive plan updates.
//!
//! Paper §4.3 closes with: "Continuously collecting the statistics information
//! from the data stream and updating the query decomposition and search
//! strategy remains an area for future work." The engine already maintains the
//! statistics ([`crate::ContinuousQueryEngine::summary`]) and exposes the
//! mechanism ([`crate::ContinuousQueryEngine::replan`]); this module adds
//! the *policy*: an [`AdaptiveReplanner`] that watches how far the live
//! edge-type distribution has drifted from the distribution each plan was
//! built against, predicts (with the plan cost model of `streamworks-query`)
//! whether a fresh statistics-driven plan would store fewer partial matches,
//! and re-plans only when the predicted improvement clears a configurable
//! threshold.
//!
//! The replanner is deliberately separate from the engine so applications can
//! call [`AdaptiveReplanner::check`] on their own cadence (every N edges, on a
//! timer, during quiet periods) — re-planning discards partial matches
//! accumulated under the old plan, so the policy should not fire on noise.

use crate::engine::ContinuousQueryEngine;
use crate::handle::QueryHandle;
use serde::{Deserialize, Serialize};
use streamworks_graph::hash::FxHashMap;
use streamworks_query::{
    estimate_shape_cost, CostBasedOrdered, Planner, SelectivityEstimator, TreeShapeKind,
};
use streamworks_summarize::EdgeTripleKey;

/// Policy knobs of the adaptive replanner.
///
/// The defaults are tuned for the **exact** O(#types) triad/type statistics
/// the summaries maintain (`streamworks-summarize`). The original values
/// (`min_edges_between_replans: 5_000`, `drift_threshold: 0.10`,
/// `min_improvement: 1.2`) were chosen when triad counts came from capped
/// neighbourhood *sampling*: large observation windows and wide margins
/// existed to keep estimator variance from triggering spurious re-plans.
/// With exact counts the measured drift carries no sampling noise — any
/// movement is real distribution change — so the observation window and both
/// thresholds tighten: see [`Default`] for the current values and
/// `EngineConfig`'s module docs for the pointer.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// Minimum number of newly observed edges between two re-plans of the same
    /// query (prevents thrashing on bursts). Default **2_000**: with exact
    /// statistics the window only needs to cover enough stream for the
    /// drifted distribution to be representative, not to average out
    /// estimator noise (was 5_000 under the sampled estimator).
    pub min_edges_between_replans: u64,
    /// Minimum total-variation distance between the edge-type distribution at
    /// plan time and now before a re-plan is even considered (0 = always
    /// consider, 1 = never). Default **0.05**: exact triad/type counts have
    /// zero sampling variance, so 5 points of measured drift is genuine
    /// (was 0.10 to stay above sampling jitter).
    pub drift_threshold: f64,
    /// Required ratio `current_cost / candidate_cost` before the re-plan is
    /// applied (1.0 = replan on any predicted improvement). Default **1.15**:
    /// the cost model's inputs are exact, so a 15% predicted reduction in
    /// stored partial matches is trustworthy enough to outweigh the
    /// partial-state discard a re-plan costs (was 1.2).
    pub min_improvement: f64,
    /// Tree shape used for the candidate plan.
    pub tree_kind: TreeShapeKind,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            min_edges_between_replans: 2_000,
            drift_threshold: 0.05,
            min_improvement: 1.15,
            tree_kind: TreeShapeKind::LeftDeep,
        }
    }
}

/// Outcome of one re-plan consideration for one query.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplanDecision {
    /// The query considered.
    pub query: QueryHandle,
    /// Total-variation distance between the baseline and current edge-type
    /// distributions (0 = identical, 1 = disjoint).
    pub drift: f64,
    /// Predicted stored-partial-match population of the current plan under the
    /// *current* statistics.
    pub current_cost: f64,
    /// Predicted stored-partial-match population of the candidate plan.
    pub candidate_cost: f64,
    /// Whether the candidate plan replaced the current one.
    pub replanned: bool,
    /// Why the decision came out the way it did.
    pub reason: String,
}

/// Snapshot of the edge-type (triple) distribution a plan was built against.
#[derive(Debug, Clone, Default)]
struct StatSnapshot {
    triples: FxHashMap<EdgeTripleKey, u64>,
    total: u64,
    edges_observed: u64,
}

impl StatSnapshot {
    fn capture(engine: &ContinuousQueryEngine) -> Self {
        let types = engine.summary().types();
        let mut triples = FxHashMap::default();
        let mut total = 0u64;
        for (key, count) in types.triples() {
            triples.insert(key, count);
            total += count;
        }
        StatSnapshot {
            triples,
            total,
            edges_observed: engine.graph().retained_edge_count(),
        }
    }

    /// Total-variation distance between this snapshot and the engine's current
    /// live edge-type distribution.
    fn drift_from(&self, engine: &ContinuousQueryEngine) -> f64 {
        let current = StatSnapshot::capture(engine);
        if self.total == 0 && current.total == 0 {
            return 0.0;
        }
        if self.total == 0 || current.total == 0 {
            return 1.0;
        }
        let mut keys: Vec<EdgeTripleKey> = self.triples.keys().copied().collect();
        for k in current.triples.keys() {
            if !self.triples.contains_key(k) {
                keys.push(*k);
            }
        }
        let mut distance = 0.0;
        for k in keys {
            let p = *self.triples.get(&k).unwrap_or(&0) as f64 / self.total as f64;
            let q = *current.triples.get(&k).unwrap_or(&0) as f64 / current.total as f64;
            distance += (p - q).abs();
        }
        distance / 2.0
    }
}

/// Watches statistics drift and re-plans registered queries when a fresh
/// statistics-driven plan is predicted to store materially fewer partial
/// matches. See the module documentation for the policy.
#[derive(Debug)]
pub struct AdaptiveReplanner {
    config: AdaptiveConfig,
    /// Baseline statistics snapshot per live query handle.
    baselines: FxHashMap<QueryHandle, StatSnapshot>,
    decisions: Vec<ReplanDecision>,
}

impl AdaptiveReplanner {
    /// Creates a replanner with the given policy.
    pub fn new(config: AdaptiveConfig) -> Self {
        AdaptiveReplanner {
            config,
            baselines: FxHashMap::default(),
            decisions: Vec::new(),
        }
    }

    /// Creates a replanner with the default policy.
    pub fn with_defaults() -> Self {
        Self::new(AdaptiveConfig::default())
    }

    /// The policy in effect.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.config
    }

    /// Every decision taken so far (including "considered but kept the plan").
    pub fn decisions(&self) -> &[ReplanDecision] {
        &self.decisions
    }

    /// Number of re-plans actually applied.
    pub fn replans_applied(&self) -> usize {
        self.decisions.iter().filter(|d| d.replanned).count()
    }

    /// Considers every registered query of `engine` for re-planning and applies
    /// the re-plan where the policy says so. Returns the decisions taken in
    /// this round (also appended to [`AdaptiveReplanner::decisions`]).
    pub fn check(&mut self, engine: &mut ContinuousQueryEngine) -> Vec<ReplanDecision> {
        let handles = engine.handles();
        // Forget deregistered queries; snapshot a baseline for new arrivals.
        self.baselines.retain(|h, _| handles.contains(h));
        for &handle in &handles {
            self.baselines
                .entry(handle)
                .or_insert_with(|| StatSnapshot::capture(engine));
        }

        let mut round = Vec::new();
        for handle in handles {
            let decision = self.consider(engine, handle);
            if let Some(d) = decision {
                round.push(d.clone());
                self.decisions.push(d);
            }
        }
        round
    }

    fn consider(
        &mut self,
        engine: &mut ContinuousQueryEngine,
        handle: QueryHandle,
    ) -> Option<ReplanDecision> {
        let baseline = self.baselines.get(&handle)?;
        // The graph's own counter, which the summary's `edges_observed`
        // copies: the gate builds no summary.
        let observed_since = engine
            .graph()
            .retained_edge_count()
            .saturating_sub(baseline.edges_observed);
        if observed_since < self.config.min_edges_between_replans {
            return None;
        }
        let drift = baseline.drift_from(engine);
        if drift < self.config.drift_threshold {
            return Some(ReplanDecision {
                query: handle,
                drift,
                current_cost: f64::NAN,
                candidate_cost: f64::NAN,
                replanned: false,
                reason: format!(
                    "drift {:.3} below threshold {:.3}",
                    drift, self.config.drift_threshold
                ),
            });
        }

        // Predict the cost of the current plan and of a candidate plan under
        // the *current* statistics. The candidate uses the strategy
        // registration uses (`Planner::plan`), so a query registered under
        // these statistics is its own candidate: only drift can make it lose.
        let strategy = CostBasedOrdered::default();
        let (current_cost, candidate_cost) = {
            let summary = engine.summary();
            let graph = engine.graph();
            let estimator = SelectivityEstimator::with_summary(summary, graph);
            let current_plan = engine.plan(handle).ok()?;
            let current_cost =
                estimate_shape_cost(&current_plan.query, &estimator, &current_plan.shape)
                    .stored_partial_matches;
            let candidate = Planner::new()
                .with_statistics(summary, graph)
                .tree_kind(self.config.tree_kind)
                .plan_with(current_plan.query.clone(), &strategy);
            let candidate_cost = match candidate {
                Ok(plan) => {
                    estimate_shape_cost(&plan.query, &estimator, &plan.shape).stored_partial_matches
                }
                Err(_) => f64::INFINITY,
            };
            (current_cost, candidate_cost)
        };

        let improvement = if candidate_cost > 0.0 {
            current_cost / candidate_cost
        } else if current_cost > 0.0 {
            f64::INFINITY
        } else {
            // Both plans are predicted to store no partial matches (e.g. a
            // single-primitive tree): there is nothing to improve.
            1.0
        };
        if !improvement.is_finite() && candidate_cost.is_infinite() {
            return Some(ReplanDecision {
                query: handle,
                drift,
                current_cost,
                candidate_cost,
                replanned: false,
                reason: "candidate planning failed".into(),
            });
        }
        if improvement < self.config.min_improvement {
            return Some(ReplanDecision {
                query: handle,
                drift,
                current_cost,
                candidate_cost,
                replanned: false,
                reason: format!(
                    "predicted improvement {:.2}x below required {:.2}x",
                    improvement, self.config.min_improvement
                ),
            });
        }

        let applied = engine
            .replan(handle, &strategy, self.config.tree_kind)
            .is_ok();
        if applied {
            self.baselines.insert(handle, StatSnapshot::capture(engine));
        }
        Some(ReplanDecision {
            query: handle,
            drift,
            current_cost,
            candidate_cost,
            replanned: applied,
            reason: if applied {
                format!(
                    "drift {:.3}, predicted improvement {:.2}x — replanned",
                    drift, improvement
                )
            } else {
                "engine rejected the re-plan".into()
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use streamworks_graph::{Duration, EdgeEvent, Timestamp};
    use streamworks_query::{ManualDecomposition, QueryGraph, QueryGraphBuilder};

    fn ev(src: &str, st: &str, dst: &str, dt: &str, et: &str, t: i64) -> EdgeEvent {
        EdgeEvent::new(src, st, dst, dt, et, Timestamp::from_secs(t))
    }

    /// The frequency-blind plan: single edges in edge-id order.
    fn blind(query: &QueryGraph) -> ManualDecomposition {
        ManualDecomposition::new(query.edge_ids().map(|e| vec![e]).collect())
    }

    fn wedge_query(window: Duration) -> QueryGraph {
        QueryGraphBuilder::new("wedge")
            .window(window)
            .vertex("a1", "Article")
            .vertex("k", "Keyword")
            .vertex("l", "Location")
            .edge("a1", "mentions", "k")
            .edge("a1", "located", "l")
            .build()
            .unwrap()
    }

    /// Feeds a stream where `mentions` edges vastly outnumber `located` edges,
    /// so a blind plan that anchors on `mentions` is predictably worse than a
    /// statistics-driven plan anchoring on `located`.
    fn feed_skewed(engine: &mut ContinuousQueryEngine, n: usize, start: i64) {
        let mut t = start;
        for i in 0..n {
            engine
                .ingest(&ev(
                    &format!("a{}", i % 50),
                    "Article",
                    &format!("k{}", i % 10),
                    "Keyword",
                    "mentions",
                    t,
                ))
                .unwrap();
            t += 1;
            if i % 40 == 0 {
                engine
                    .ingest(&ev(
                        &format!("a{}", i % 50),
                        "Article",
                        "paris",
                        "Location",
                        "located",
                        t,
                    ))
                    .unwrap();
                t += 1;
            }
        }
    }

    #[test]
    fn replans_after_drift_and_improvement() {
        let mut engine = ContinuousQueryEngine::new(EngineConfig::default());
        let query = wedge_query(Duration::from_hours(2));
        let handle = engine
            .register_query_with(query.clone(), &blind(&query), TreeShapeKind::LeftDeep)
            .unwrap();
        assert_eq!(engine.plan(handle).unwrap().strategy, "manual");

        let mut replanner = AdaptiveReplanner::new(AdaptiveConfig {
            min_edges_between_replans: 100,
            drift_threshold: 0.05,
            min_improvement: 1.0,
            ..AdaptiveConfig::default()
        });
        // Baseline snapshot is taken on the first check (empty graph).
        assert!(replanner.check(&mut engine).is_empty());

        feed_skewed(&mut engine, 500, 0);
        let decisions = replanner.check(&mut engine);
        assert_eq!(decisions.len(), 1);
        assert!(decisions[0].replanned, "reason: {}", decisions[0].reason);
        assert_eq!(engine.plan(handle).unwrap().strategy, "cost-based");
        assert_eq!(replanner.replans_applied(), 1);
        // The new plan still finds matches arriving after the re-plan.
        let out = engine
            .ingest(&[
                ev("fresh", "Article", "k0", "Keyword", "mentions", 10_000),
                ev("fresh", "Article", "paris", "Location", "located", 10_001),
            ])
            .unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn does_not_replan_below_drift_threshold() {
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        engine
            .register_query(wedge_query(Duration::from_hours(1)))
            .unwrap();
        let mut replanner = AdaptiveReplanner::new(AdaptiveConfig {
            min_edges_between_replans: 10,
            drift_threshold: 0.9,
            ..AdaptiveConfig::default()
        });
        // Capture the baseline on an already-populated graph, then keep feeding
        // the same distribution so the drift stays near zero.
        feed_skewed(&mut engine, 100, 0);
        replanner.check(&mut engine);
        feed_skewed(&mut engine, 100, 1_000);
        let decisions = replanner.check(&mut engine);
        assert!(decisions.iter().all(|d| !d.replanned));
        assert!(decisions
            .iter()
            .all(|d| d.reason.contains("drift") || d.reason.contains("improvement")));
        assert_eq!(replanner.replans_applied(), 0);
    }

    #[test]
    fn respects_min_edges_between_replans() {
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        engine
            .register_query(wedge_query(Duration::from_hours(1)))
            .unwrap();
        let mut replanner = AdaptiveReplanner::new(AdaptiveConfig {
            min_edges_between_replans: 1_000_000,
            drift_threshold: 0.0,
            ..AdaptiveConfig::default()
        });
        replanner.check(&mut engine);
        feed_skewed(&mut engine, 200, 0);
        // Not enough edges observed since the baseline: no decision at all.
        assert!(replanner.check(&mut engine).is_empty());
    }

    #[test]
    fn keeps_plan_when_improvement_is_too_small() {
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        // Register with the statistics-driven strategy already — the candidate
        // cannot beat it by the required margin.
        engine
            .register_query(wedge_query(Duration::from_hours(1)))
            .unwrap();
        let mut replanner = AdaptiveReplanner::new(AdaptiveConfig {
            min_edges_between_replans: 10,
            drift_threshold: 0.0,
            min_improvement: 100.0,
            ..AdaptiveConfig::default()
        });
        replanner.check(&mut engine);
        feed_skewed(&mut engine, 200, 0);
        let decisions = replanner.check(&mut engine);
        assert!(!decisions.is_empty());
        assert!(decisions.iter().all(|d| !d.replanned));
        assert!(decisions
            .iter()
            .any(|d| d.reason.contains("improvement") || d.reason.contains("drift")));
    }

    #[test]
    fn handles_multiple_queries_and_late_registration() {
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        let query = wedge_query(Duration::from_hours(1));
        engine
            .register_query_with(query.clone(), &blind(&query), TreeShapeKind::LeftDeep)
            .unwrap();
        let mut replanner = AdaptiveReplanner::new(AdaptiveConfig {
            min_edges_between_replans: 50,
            drift_threshold: 0.05,
            min_improvement: 1.0,
            ..AdaptiveConfig::default()
        });
        replanner.check(&mut engine);
        feed_skewed(&mut engine, 200, 0);
        // Register a second query after the stream started.
        engine
            .register_query_with(query.clone(), &blind(&query), TreeShapeKind::LeftDeep)
            .unwrap();
        let decisions = replanner.check(&mut engine);
        // Both queries get a decision slot eventually; the late one only after
        // it accumulates its own observation budget.
        assert!(!decisions.is_empty());
        feed_skewed(&mut engine, 200, 1_000);
        let second_round = replanner.check(&mut engine);
        assert!(second_round
            .iter()
            .any(|d| d.query.id() == crate::event::QueryId(1)));
        for d in replanner.decisions() {
            if d.replanned {
                assert_eq!(
                    engine.plan(d.query).unwrap().strategy,
                    "cost-based",
                    "replanned queries must carry the planner's strategy"
                );
            }
        }
    }
}
