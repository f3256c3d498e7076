//! Names, units and directions of every metric, in one place. `BENCHMARK.json`
//! lists the same names; `swbench selftest` fails when the two disagree.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end: share of the parent's median by which the metric may worsen
    /// before it counts as a regression. Per-layer metrics have none.
    pub bound: Option<f64>,
    /// Which end-to-end metric, on which workload, the layer metric should
    /// move (README, "How the metrics interact").
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        moves,
    }
}

use Better::{Higher, Lower};

/// What a user of the engine sees. `failed_share` is not in this list: the
/// result line carries it as `failed` / `attempted`, and it is 0 on every
/// workload the driver runs. Neither is the p99 of one `ingest` call: its
/// spread between runs on this box (up to 39 %) is wider than any bound the
/// driver allows, so it is reported as the per-layer metric
/// `engine.ingest_p99_us`. The issue asked for 10 % (15 % for `setup_s`); the
/// timing bounds are the widest the driver allows, because the shared host
/// the driver measures on runs at two speeds about 25 % apart (README,
/// "Estimator" and "Bounds").
pub const END_TO_END: [Metric; 4] = [
    e2e("throughput_eps", "events/s", Higher, 0.25),
    e2e("ingest_p50_us", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
    e2e("setup_s", "s", Lower, 0.25),
];

impl Metric {
    /// The figure reported for an end-to-end metric over the rounds of one
    /// run. A timing is the **best round** (highest throughput, shortest
    /// time): a neighbour on the shared host can only slow a round down, and
    /// whole processes run about 25 % slower while one is busy, so the fast
    /// side of the rounds is the program and the slow side the box (README,
    /// "Estimator"). Memory has no such one-sided noise: its median. Neither
    /// has a round that is not `pinned` to one CPU as one thread
    /// (`join_hot_sharded`): where threads hand work to each other the
    /// scheduler's luck goes both ways (a per-event call there takes 70–75 µs
    /// and, one round in twenty, 18–40 µs), so its timings are medians too.
    pub fn estimate(&self, rounds: &[f64], pinned: bool) -> f64 {
        if self.unit == "MiB" || !pinned {
            return crate::stats::median(rounds);
        }
        let best = match self.better {
            Higher => rounds.iter().copied().max_by(f64::total_cmp),
            Lower => rounds.iter().copied().min_by(f64::total_cmp),
        };
        best.unwrap_or(f64::NAN)
    }
}

/// One layer each (layer = module name). A value of 0 on a workload means the
/// layer does no work there or cannot be measured there; `swbench trace`
/// prints those as `null` with the reason.
pub const PER_LAYER: [Metric; 49] = [
    layer(
        "graph.ingest_ns_per_event",
        "ns",
        Lower,
        "throughput_eps, ingest_p50_us on single_news",
    ),
    layer(
        "graph.live_edges_peak",
        "count",
        Lower,
        "peak_rss_mb on single_news",
    ),
    layer(
        "summarize.observe_ns_per_event",
        "ns",
        Lower,
        "throughput_eps on single_news",
    ),
    layer(
        "query.plan_us_per_query",
        "us",
        Lower,
        "setup_s on tenants_1024",
    ),
    layer(
        "local_search.ns_per_event",
        "ns",
        Lower,
        "throughput_eps on single_news, tenants_1024",
    ),
    layer(
        "local_search.candidates_per_event",
        "count",
        Lower,
        "throughput_eps on single_news, tenants_1024",
    ),
    layer(
        "local_search.hit_ratio",
        "ratio",
        Higher,
        "throughput_eps on single_news, tenants_1024",
    ),
    layer(
        "sj_matcher.process_edge_ns_per_event",
        "ns",
        Lower,
        "throughput_eps on join_hot",
    ),
    layer(
        "sj_matcher.prune_ns_per_event",
        "ns",
        Lower,
        "engine.ingest_p99_us on join_hot",
    ),
    layer(
        "match_store.probe_insert_ns_per_op",
        "ns",
        Lower,
        "throughput_eps on join_hot",
    ),
    layer(
        "match_store.expire_ns_per_match",
        "ns",
        Lower,
        "throughput_eps, engine.ingest_p99_us on join_hot",
    ),
    layer(
        "match_store.join_hit_ratio",
        "ratio",
        Higher,
        "throughput_eps on join_hot",
    ),
    layer(
        "match_store.live_matches_peak",
        "count",
        Lower,
        "peak_rss_mb on join_hot",
    ),
    layer(
        "event.render_ns_per_match",
        "ns",
        Lower,
        "throughput_eps on fanout_durable",
    ),
    layer(
        "engine.ingest_ns_per_event",
        "ns",
        Lower,
        "throughput_eps on every workload",
    ),
    layer(
        "engine.ingest_p99_us",
        "us",
        Lower,
        "the latency tail (prune sweeps, table growth, match bursts); demoted from end-to-end, see README",
    ),
    layer(
        "engine.residual_share",
        "ratio",
        Lower,
        "throughput_eps, ingest_p50_us on single_news, join_hot",
    ),
    layer(
        "stage.ingest_front_share",
        "ratio",
        Lower,
        "largest share names the bottleneck",
    ),
    layer(
        "stage.local_search_share",
        "ratio",
        Lower,
        "largest share names the bottleneck",
    ),
    layer(
        "stage.join_climb_share",
        "ratio",
        Lower,
        "largest share names the bottleneck",
    ),
    layer(
        "stage.shard_routing_share",
        "ratio",
        Lower,
        "largest share names the bottleneck",
    ),
    layer(
        "stage.fan_in_drain_share",
        "ratio",
        Lower,
        "largest share names the bottleneck",
    ),
    layer(
        "stage.expiry_sweep_share",
        "ratio",
        Lower,
        "largest share names the bottleneck",
    ),
    layer(
        "stage.delivery_flush_share",
        "ratio",
        Lower,
        "largest share names the bottleneck",
    ),
    layer(
        "stage.expiry_sweep_p99_us",
        "us",
        Lower,
        "engine.ingest_p99_us on join_hot",
    ),
    layer(
        "stage.delivery_flush_p99_us",
        "us",
        Lower,
        "engine.ingest_p99_us on fanout_durable",
    ),
    layer(
        "shared_index.dedup_ratio",
        "ratio",
        Higher,
        "throughput_eps on tenants_1024",
    ),
    layer(
        "shared_index.searches_saved_share",
        "ratio",
        Higher,
        "throughput_eps on tenants_1024",
    ),
    layer(
        "shared_index.fanout_deliveries_per_event",
        "count",
        Lower,
        "throughput_eps on tenants_1024",
    ),
    layer(
        "shared_index.lifted_dispatch_hits_per_event",
        "count",
        Lower,
        "throughput_eps on tenants_1024",
    ),
    layer(
        "shared_index.register_us_per_query",
        "us",
        Lower,
        "setup_s on tenants_1024, throughput_eps on tenants_churn",
    ),
    layer(
        "shared_index.deregister_us_per_query",
        "us",
        Lower,
        "throughput_eps on tenants_churn",
    ),
    layer(
        "parallel.items_routed_per_event",
        "count",
        Lower,
        "throughput_eps on join_hot_sharded",
    ),
    layer(
        "parallel.handoffs_per_event",
        "count",
        Lower,
        "throughput_eps, ingest_p50_us on join_hot_sharded",
    ),
    layer(
        "parallel.shard_skew",
        "ratio",
        Lower,
        "throughput_eps on join_hot_sharded",
    ),
    layer(
        "parallel.vs_inprocess_ratio",
        "ratio",
        Higher,
        "throughput_eps on join_hot_sharded; flat on join_hot",
    ),
    layer(
        "parallel.batch256_loss_share",
        "ratio",
        Lower,
        "the seed's sharded loss; 0 once fixed",
    ),
    layer(
        "rpq.expansions_per_event",
        "count",
        Lower,
        "throughput_eps on rpq_lateral",
    ),
    layer(
        "rpq.tree_nodes_live_peak",
        "count",
        Lower,
        "peak_rss_mb on rpq_lateral",
    ),
    layer(
        "rpq.accepts",
        "count",
        Higher,
        "correctness count on rpq_lateral",
    ),
    layer(
        "delivery.flush_ns_per_match",
        "ns",
        Lower,
        "throughput_eps, engine.ingest_p99_us on fanout_durable",
    ),
    layer(
        "delivery.attempts",
        "count",
        Lower,
        "throughput_eps on fanout_durable",
    ),
    layer(
        "delivery.retries",
        "count",
        Lower,
        "throughput_eps on fanout_durable",
    ),
    layer(
        "delivery.bytes_written",
        "count",
        Lower,
        "throughput_eps on fanout_durable",
    ),
    layer(
        "delivery.cursor_lag_max",
        "count",
        Lower,
        "engine.ingest_p99_us on fanout_durable",
    ),
    layer(
        "checkpoint.capture_ms",
        "ms",
        Lower,
        "none of the four today",
    ),
    layer("checkpoint.bytes", "count", Lower, "none of the four today"),
    layer(
        "checkpoint.restore_ms",
        "ms",
        Lower,
        "none of the four today",
    ),
    layer(
        "telemetry.overhead_ratio",
        "ratio",
        Higher,
        "tracing overhead, traced / untraced throughput_eps",
    ),
];

/// `true` when `name` is made of `[A-Za-z0-9_.-]`, starts with a letter or a
/// digit and has at most 64 characters (the driver's rule for names).
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
