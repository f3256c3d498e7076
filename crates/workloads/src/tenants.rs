//! Multi-tenant query registries: N tenants instantiating overlapping query
//! templates with distinct constants.
//!
//! The engine's multi-query sharing layer (the canonical primitive index)
//! exists for exactly this workload shape: a service hosting many tenants
//! whose standing queries are *instances of a small set of templates* — the
//! paper's Fig. 5 labelled query family scaled out. Each tenant registers
//!
//! * a **labelled pair** query (two articles mentioning one keyword, both
//!   mention edges carrying the tenant's topic label — the Fig. 5 family) —
//!   tenants drawing the same label from the pool are exact structural
//!   copies of each other; the label predicates keep the primitive
//!   *selective*, so it searches on every mention but only embeds on the
//!   planted bursts; and
//! * a **co-location pair** query (two articles sharing a location, no
//!   label) — structurally identical across *every* tenant, and
//!   *unselective*: it embeds on every co-located article pair, exercising
//!   the match-fan-out regime: with many tenants the total match volume
//!   grows linearly in the tenant count, and match fan-out rather than
//!   search cost dominates.
//!
//! The result is a registry whose distinct-primitive count is a small
//! constant (a few labels' worth) however many tenants register, so matching
//! cost under sharing is flat where one search per query would grow
//! linearly. The companion event
//! stream is the news generator's, with one planted co-occurrence burst per
//! label so every template finds matches.

use crate::news::{NewsConfig, NewsStreamGenerator, PlantedEvent};
use crate::schema::news as types;
use streamworks_graph::{Duration, EdgeEvent};
use streamworks_query::{Predicate, QueryGraph, QueryGraphBuilder};

/// Configuration of the multi-tenant registry generator.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Number of tenants; each registers a labelled pair query and a
    /// co-location pair.
    pub tenants: usize,
    /// Topic label pool; tenant `i` watches `labels[i % labels.len()]`, so
    /// `tenants / labels.len()` tenants share each labelled template
    /// instance exactly.
    pub labels: Vec<String>,
    /// Time window of every generated query.
    pub window: Duration,
    /// Event-stream configuration. `planted_events` is overridden with one
    /// burst per label so every labelled template has ground-truth matches.
    pub news: NewsConfig,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            tenants: 16,
            labels: vec![
                "politics".to_owned(),
                "accident".to_owned(),
                "earthquake".to_owned(),
                "sports".to_owned(),
            ],
            window: Duration::from_mins(30),
            news: NewsConfig::default(),
        }
    }
}

/// A generated multi-tenant workload: the tenants' query registry plus the
/// shared event stream they all watch.
#[derive(Debug, Clone)]
pub struct MultiTenantWorkload {
    /// All tenants' queries, in registration order (tenant-major: tenant 0's
    /// labelled pair, tenant 0's co-location pair, tenant 1's ...).
    pub queries: Vec<QueryGraph>,
    /// The shared event stream, in timestamp order.
    pub events: Vec<EdgeEvent>,
    /// Ground truth of the planted per-label bursts.
    pub planted: Vec<PlantedEvent>,
}

/// Generator for [`MultiTenantWorkload`]s.
#[derive(Debug, Clone)]
pub struct MultiTenantGenerator {
    config: TenantConfig,
}

impl MultiTenantGenerator {
    /// Creates a generator from a configuration.
    pub fn new(config: TenantConfig) -> Self {
        assert!(!config.labels.is_empty(), "label pool must not be empty");
        MultiTenantGenerator { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TenantConfig {
        &self.config
    }

    /// Generates the tenants' queries and the shared event stream.
    pub fn generate(&self) -> MultiTenantWorkload {
        let cfg = &self.config;
        let mut queries = Vec::with_capacity(cfg.tenants * 2);
        for t in 0..cfg.tenants {
            let label = &cfg.labels[t % cfg.labels.len()];
            queries.push(labelled_pair(t, label, cfg.window));
            queries.push(colocation_pair(t, cfg.window));
        }
        let mut news = cfg.news.clone();
        news.planted_events = (cfg.labels.iter())
            .map(|label| (label.clone(), 3usize))
            .collect();
        let workload = NewsStreamGenerator::new(news).generate();
        MultiTenantWorkload {
            queries,
            events: workload.events,
            planted: workload.planted,
        }
    }
}

/// Tenant `t`'s instance of the labelled-pair template (the Fig. 5 family):
/// two articles mentioning one keyword, both mention edges carrying
/// `label`. The predicates make the primitive selective — background
/// mentions are rejected at the anchor check — which is what keeps the
/// registry's per-event cost search-bound, the regime sharing deduplicates.
fn labelled_pair(tenant: usize, label: &str, window: Duration) -> QueryGraph {
    QueryGraphBuilder::new(format!("t{tenant}_{label}_pair"))
        .window(window)
        .vertex("a1", types::ARTICLE)
        .vertex("a2", types::ARTICLE)
        .vertex("k", types::KEYWORD)
        .edge_with(
            "a1",
            types::MENTIONS,
            "k",
            vec![Predicate::eq("label", label)],
        )
        .edge_with(
            "a2",
            types::MENTIONS,
            "k",
            vec![Predicate::eq("label", label)],
        )
        .build()
        .expect("static template is valid")
}

/// Tenant `t`'s instance of the co-location template: two articles sharing a
/// location — identical across every tenant up to renaming.
fn colocation_pair(tenant: usize, window: Duration) -> QueryGraph {
    QueryGraphBuilder::new(format!("t{tenant}_coloc"))
        .window(window)
        .vertex("a1", types::ARTICLE)
        .vertex("a2", types::ARTICLE)
        .vertex("l", types::LOCATION)
        .edge("a1", types::LOCATED, "l")
        .edge("a2", types::LOCATED, "l")
        .build()
        .expect("static template is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_two_queries_per_tenant_with_cycled_labels() {
        let workload = MultiTenantGenerator::new(TenantConfig {
            tenants: 6,
            labels: vec!["a".into(), "b".into()],
            news: NewsConfig {
                articles: 50,
                ..Default::default()
            },
            ..Default::default()
        })
        .generate();
        assert_eq!(workload.queries.len(), 12);
        assert!(workload.queries.iter().all(|q| q.is_connected()));
        // Labels cycle through the pool.
        assert_eq!(workload.queries[0].name(), "t0_a_pair");
        assert_eq!(workload.queries[2].name(), "t1_b_pair");
        assert_eq!(workload.queries[4].name(), "t2_a_pair");
        // Query names are unique (the engine registry requires nothing, but
        // reports key on names).
        let mut names: Vec<_> = workload.queries.iter().map(|q| q.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12);
        // One planted burst per label keeps every template matchable.
        assert_eq!(workload.planted.len(), 2);
        assert!(!workload.events.is_empty());
    }

    #[test]
    fn same_label_tenants_are_exact_template_copies() {
        let cfg = TenantConfig {
            tenants: 4,
            labels: vec!["x".into()],
            ..Default::default()
        };
        let workload = MultiTenantGenerator::new(cfg).generate();
        // All labelled pairs are structurally identical (names differ).
        let q0 = &workload.queries[0];
        let q2 = &workload.queries[2];
        assert_eq!(q0.edge_count(), q2.edge_count());
        assert_eq!(q0.vertex_count(), q2.vertex_count());
        for (e0, e2) in q0.edges().zip(q2.edges()) {
            assert_eq!(e0.etype, e2.etype);
            assert_eq!(e0.predicates, e2.predicates);
        }
    }

    #[test]
    #[should_panic(expected = "label pool")]
    fn empty_label_pool_is_rejected() {
        MultiTenantGenerator::new(TenantConfig {
            labels: vec![],
            ..Default::default()
        });
    }
}
