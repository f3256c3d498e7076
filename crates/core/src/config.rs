//! Engine configuration and the validating builder.
//!
//! [`EngineConfig`] is the serialisable *snapshot* of an engine's settings
//! (checkpoints embed it verbatim); [`EngineBuilder`] is the service-facing
//! way to construct an engine — every setting is validated up front, so a
//! misconfigured deployment fails at build time with a
//! [`crate::EngineError::InvalidConfig`] instead of misbehaving mid-stream.
//!
//! Re-planning policy (observation window, drift and improvement thresholds)
//! lives in [`crate::AdaptiveConfig`]; its defaults are re-tuned for the
//! exact O(#types) triad statistics — see that type's rustdoc for the values
//! and the sampled-estimator history.

use crate::delivery::RetryPolicy;
use crate::engine::ContinuousQueryEngine;
use crate::error::EngineError;
use crate::telemetry::TelemetryLevel;
use serde::{Deserialize, Serialize};
use streamworks_graph::Duration;
use streamworks_summarize::SummaryConfig;

/// Configuration of a [`crate::ContinuousQueryEngine`].
///
/// Prefer assembling one through [`EngineBuilder`] (or
/// [`ContinuousQueryEngine::builder`]), which validates the settings;
/// the plain struct exists as the serialisable form carried by checkpoints.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Retention horizon of the underlying graph. `None` lets the engine pick
    /// the maximum window of the registered queries (extended automatically as
    /// queries are registered), which is the smallest retention that preserves
    /// correctness.
    pub retention: Option<Duration>,
    /// How many processed edges between partial-match pruning passes.
    pub prune_every: u64,
    /// Optional cap on live partial matches per SJ-Tree node per query.
    pub max_matches_per_node: Option<usize>,
    /// Whether to maintain the graph summary while streaming (needed for
    /// statistics-driven planning of queries registered later; costs extra
    /// per-edge work — see experiment E8).
    pub maintain_summary: bool,
    /// Summary configuration used when `maintain_summary` is set.
    pub summary: SummaryConfig,
    /// Worker threads each registered query's SJ-Tree match state is sharded
    /// over, by join-key hash (see `crate::ShardedMatcher`). `1` (the
    /// default) runs every matcher in-process on the ingest thread. Values
    /// above 1 spawn that many shard threads *per registered query*, so the
    /// knob targets deployments with one (or few) hot queries. When a cap is
    /// set, `max_matches_per_node` applies per shard. Defaults to 1 when
    /// absent from serialized form, so checkpoints written before the field
    /// existed keep restoring.
    #[serde(default = "default_shards")]
    pub shards: usize,
    /// Whether registered queries share work through the engine's interning
    /// index (`true`, the default): isomorphic SJ-Tree nodes across — and
    /// within — queries, from single leaf primitives up to whole trees and
    /// up to the literals their `eq` predicates compare against, run their
    /// anchored searches and join climb once per event and fan the matches
    /// out to every subscriber, making the per-event cost of a registry of
    /// template-derived queries `O(#distinct forms)` instead of
    /// `O(#queries)`. Matching results are identical either way; disable to
    /// measure the sharing win (`multi_query` bench) or to force strictly
    /// per-query execution. Defaults to `true` when absent from serialized
    /// form.
    #[serde(default = "default_shared_matching")]
    pub shared_matching: bool,
    /// Capacity (in queued items) of every channel in the sharded execution
    /// path: the ingest-to-shard routing channels, the shard-to-shard
    /// handoff channels and the results fan-in. Bounded channels give the
    /// pipeline a hard memory ceiling; when a shard falls behind, the ingest
    /// thread *blocks* (backpressure) rather than queueing unboundedly, which
    /// preserves the exact match multiset. Defaults to 1024 when absent from
    /// serialized form; validated to be at least 1.
    #[serde(default = "default_channel_capacity")]
    pub channel_capacity: usize,
    /// What the engine does when a shard worker dies mid-stream (see
    /// [`ShardFailurePolicy`]). Defaults to [`ShardFailurePolicy::FailFast`]
    /// when absent from serialized form.
    #[serde(default = "default_shard_failure_policy")]
    pub shard_failure_policy: ShardFailurePolicy,
    /// Retry schedule applied to failing durable subscriptions (see
    /// [`RetryPolicy`] and
    /// [`crate::ContinuousQueryEngine::subscribe_durable`]): max consecutive
    /// attempts before quarantine, exponential backoff with a cap, and the
    /// per-attempt delivery timeout. Defaults to [`RetryPolicy::default`]
    /// when absent from serialized form.
    #[serde(default = "default_retry_policy")]
    pub retry_policy: RetryPolicy,
    /// How much observability the engine records while streaming (see
    /// [`TelemetryLevel`] and `crates/core/src/telemetry.rs`): per-stage
    /// latency histograms plus one end-to-end trace span set per sampled
    /// event. Defaults to [`TelemetryLevel::Off`], which costs a single
    /// branch per instrumentation site; absent from legacy serialized form
    /// it stays off.
    #[serde(default)]
    pub telemetry_level: TelemetryLevel,
    /// Sampling cadence when `telemetry_level` is
    /// [`TelemetryLevel::Sampled`]: every `telemetry_sample_every`-th
    /// ingested event takes the full stage timing path. Defaults to 64 —
    /// coarse enough to keep the hot path at parity, fine enough that every
    /// active stage accumulates observations within a few thousand events.
    /// Validated to be at least 1.
    #[serde(default = "default_telemetry_sample_every")]
    pub telemetry_sample_every: u64,
}

/// Policy applied when a shard worker thread panics mid-stream.
///
/// Shard workers run under a supervisor (`catch_unwind`); a panic is caught
/// and reported as a structured failure, never an abort or a hang. This
/// policy decides what the engine does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardFailurePolicy {
    /// Surface [`crate::EngineError::ShardFailed`] from the ingest call and
    /// poison the engine: every subsequent operation returns
    /// [`crate::EngineError::Poisoned`]. The default — correct state cannot
    /// be silently assumed after a worker died mid-batch.
    FailFast,
    /// Quarantine the failed shard, transplant its join state onto the
    /// surviving workers (re-routing its hash slots), report the failure
    /// once via [`crate::EngineError::ShardFailed`] with `degraded = true`,
    /// and keep serving. Exactness: the transplant preserves the exact match
    /// multiset when the worker died at a batch boundary (as injected faults
    /// do); a panic in the middle of a half-applied batch loses at most the
    /// in-flight batch's matches for that shard — see ARCHITECTURE.md's
    /// "Failure model".
    Degrade,
}

/// Serde fallback for [`EngineConfig::shared_matching`]: checkpoints written
/// before the shared index existed restore with sharing enabled (results are
/// identical; only the dispatch strategy differs).
fn default_shared_matching() -> bool {
    true
}

/// Serde fallback for [`EngineConfig::shards`]: pre-sharding checkpoints
/// deserialize to the single-threaded execution (a bare `default` would give
/// 0, which validation rejects).
fn default_shards() -> usize {
    1
}

/// Serde fallback for [`EngineConfig::channel_capacity`]: checkpoints written
/// while the sharded path used unbounded channels restore with the default
/// bound.
fn default_channel_capacity() -> usize {
    1024
}

/// Serde fallback for [`EngineConfig::shard_failure_policy`]: pre-supervision
/// checkpoints restore with the conservative fail-fast behaviour.
fn default_shard_failure_policy() -> ShardFailurePolicy {
    ShardFailurePolicy::FailFast
}

/// Serde fallback for [`EngineConfig::retry_policy`]: checkpoints written
/// before durable delivery existed restore with the default retry schedule
/// (they contain no durable subscriptions, so the policy is dormant anyway).
fn default_retry_policy() -> RetryPolicy {
    RetryPolicy::default()
}

/// Serde fallback for [`EngineConfig::telemetry_sample_every`]: checkpoints
/// written before telemetry existed restore with the default cadence (the
/// level defaults to `Off`, so the cadence is dormant until switched on).
fn default_telemetry_sample_every() -> u64 {
    64
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            retention: None,
            prune_every: 256,
            max_matches_per_node: None,
            maintain_summary: true,
            summary: SummaryConfig::full(),
            shards: 1,
            shared_matching: true,
            channel_capacity: 1024,
            shard_failure_policy: ShardFailurePolicy::FailFast,
            retry_policy: RetryPolicy::default(),
            telemetry_level: TelemetryLevel::Off,
            telemetry_sample_every: 64,
        }
    }
}

impl EngineConfig {
    /// A configuration tuned for raw ingest speed: no summary maintenance and
    /// a modest partial-match cap.
    pub fn fast_ingest() -> Self {
        EngineConfig {
            maintain_summary: false,
            max_matches_per_node: Some(100_000),
            ..Default::default()
        }
    }

    /// Checks the settings for internal consistency. [`EngineBuilder::build`]
    /// calls this; it is public so checkpoint consumers can validate a
    /// deserialized configuration before trusting it.
    pub fn validate(&self) -> Result<(), String> {
        if self.prune_every == 0 {
            return Err(
                "prune_every must be positive (0 would prune after every edge check and \
                 never advance the cadence counter)"
                    .into(),
            );
        }
        if self.max_matches_per_node == Some(0) {
            return Err(
                "max_matches_per_node of 0 would drop every partial match; use None for \
                 unbounded or a positive cap"
                    .into(),
            );
        }
        if let Some(retention) = self.retention {
            if retention.as_micros() <= 0 {
                return Err(format!(
                    "retention must be a positive duration, got {}µs",
                    retention.as_micros()
                ));
            }
        }
        if self.shards == 0 {
            return Err(
                "shards must be at least 1 (1 runs matchers in-process; higher values \
                 shard each query's match state across that many worker threads)"
                    .into(),
            );
        }
        if self.shards > 256 {
            return Err(format!(
                "shards is capped at 256 worker threads per query, got {}",
                self.shards
            ));
        }
        if self.channel_capacity == 0 {
            return Err(
                "channel_capacity must be at least 1 (a zero-capacity channel would make \
                 every routed batch a rendezvous and deadlock the handoff protocol)"
                    .into(),
            );
        }
        if self.retry_policy.max_attempts == 0 {
            return Err(
                "retry_policy.max_attempts must be at least 1 (1 restores one-strike \
                 quarantine; 0 would quarantine before the first attempt)"
                    .into(),
            );
        }
        if self.retry_policy.backoff_cap_ms < self.retry_policy.backoff_base_ms {
            return Err(format!(
                "retry_policy.backoff_cap_ms ({}) must not be below backoff_base_ms ({})",
                self.retry_policy.backoff_cap_ms, self.retry_policy.backoff_base_ms
            ));
        }
        if self.retry_policy.attempt_timeout_ms == 0 {
            return Err(
                "retry_policy.attempt_timeout_ms must be at least 1 (a zero timeout would \
                 fail every transport delivery immediately)"
                    .into(),
            );
        }
        if self.telemetry_sample_every == 0 {
            return Err(
                "telemetry_sample_every must be at least 1 (1 samples every event; use \
                 TelemetryLevel::Off to disable telemetry entirely)"
                    .into(),
            );
        }
        Ok(())
    }
}

/// Validating builder for [`crate::ContinuousQueryEngine`].
///
/// ```
/// use streamworks_core::ContinuousQueryEngine;
/// use streamworks_graph::Duration;
///
/// let engine = ContinuousQueryEngine::builder()
///     .retention(Duration::from_hours(2))
///     .prune_every(512)
///     .max_matches_per_node(100_000)
///     .build()
///     .unwrap();
/// assert_eq!(engine.config().prune_every, 512);
///
/// // Invalid settings are rejected at build time.
/// assert!(ContinuousQueryEngine::builder().prune_every(0).build().is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct EngineBuilder {
    config: EngineConfig,
}

impl EngineBuilder {
    /// Starts from the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts from an existing configuration snapshot (e.g. a checkpoint's).
    pub fn from_config(config: EngineConfig) -> Self {
        EngineBuilder { config }
    }

    /// Starts from the raw-ingest preset: no summary maintenance and a modest
    /// partial-match cap (see [`EngineConfig::fast_ingest`]).
    pub fn fast_ingest() -> Self {
        Self::from_config(EngineConfig::fast_ingest())
    }

    /// Fixes the graph's retention horizon explicitly.
    pub fn retention(mut self, horizon: Duration) -> Self {
        self.config.retention = Some(horizon);
        self
    }

    /// Lets the engine derive retention from the largest registered query
    /// window (the default).
    pub fn auto_retention(mut self) -> Self {
        self.config.retention = None;
        self
    }

    /// Sets how many processed edges pass between partial-match prunes.
    pub fn prune_every(mut self, edges: u64) -> Self {
        self.config.prune_every = edges;
        self
    }

    /// Caps live partial matches per SJ-Tree node per query.
    pub fn max_matches_per_node(mut self, cap: usize) -> Self {
        self.config.max_matches_per_node = Some(cap);
        self
    }

    /// Removes the per-node partial-match cap (the default).
    pub fn unbounded_matches(mut self) -> Self {
        self.config.max_matches_per_node = None;
        self
    }

    /// Enables or disables streaming summary maintenance.
    pub fn maintain_summary(mut self, enabled: bool) -> Self {
        self.config.maintain_summary = enabled;
        self
    }

    /// Shards each registered query's SJ-Tree match state across `count`
    /// worker threads by join-key hash (`1`, the default, keeps matchers
    /// in-process). Match results and subscriptions are unaffected — one
    /// tenant still observes a single, stream-ordered match feed — and the
    /// emitted match multiset is identical for every shard count. Validated
    /// at build time: must be between 1 and 256.
    pub fn shards(mut self, count: usize) -> Self {
        self.config.shards = count;
        self
    }

    /// Enables or disables multi-query sharing through the interning index
    /// (see [`EngineConfig::shared_matching`]; `true` by default). The
    /// emitted match multiset is identical either way.
    pub fn shared_matching(mut self, enabled: bool) -> Self {
        self.config.shared_matching = enabled;
        self
    }

    /// Sets the summary configuration used when summaries are maintained.
    pub fn summary_config(mut self, config: SummaryConfig) -> Self {
        self.config.summary = config;
        self
    }

    /// Bounds every channel in the sharded execution path to `capacity`
    /// queued items (see [`EngineConfig::channel_capacity`]; 1024 by
    /// default). Validated at build time: must be at least 1.
    pub fn channel_capacity(mut self, capacity: usize) -> Self {
        self.config.channel_capacity = capacity;
        self
    }

    /// Chooses what happens when a shard worker dies (see
    /// [`ShardFailurePolicy`]; fail-fast by default).
    pub fn shard_failure_policy(mut self, policy: ShardFailurePolicy) -> Self {
        self.config.shard_failure_policy = policy;
        self
    }

    /// Sets the retry schedule for failing durable subscriptions (see
    /// [`RetryPolicy`]; four attempts with capped exponential backoff by
    /// default). Validated at build time.
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.config.retry_policy = policy;
        self
    }

    /// Chooses how much observability the engine records (see
    /// [`TelemetryLevel`]; off by default). Matching results are identical
    /// either way — telemetry only measures.
    pub fn telemetry_level(mut self, level: TelemetryLevel) -> Self {
        self.config.telemetry_level = level;
        self
    }

    /// Sets the telemetry sampling cadence (see
    /// [`EngineConfig::telemetry_sample_every`]; 64 by default). Validated
    /// at build time: must be at least 1.
    pub fn telemetry_sample_every(mut self, every: u64) -> Self {
        self.config.telemetry_sample_every = every;
        self
    }

    /// The configuration assembled so far.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Validates the settings and constructs the engine.
    pub fn build(self) -> Result<ContinuousQueryEngine, EngineError> {
        self.config.validate().map_err(EngineError::InvalidConfig)?;
        Ok(ContinuousQueryEngine::new(self.config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_maintains_summary_and_prunes() {
        let c = EngineConfig::default();
        assert!(c.maintain_summary);
        assert!(c.prune_every > 0);
        assert!(c.retention.is_none());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn fast_ingest_disables_summary() {
        let c = EngineConfig::fast_ingest();
        assert!(!c.maintain_summary);
        assert!(c.max_matches_per_node.is_some());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_accumulates_settings() {
        let builder = EngineBuilder::new()
            .retention(Duration::from_secs(60))
            .prune_every(128)
            .max_matches_per_node(1_000)
            .maintain_summary(false);
        let c = builder.config();
        assert_eq!(c.retention, Some(Duration::from_secs(60)));
        assert_eq!(c.prune_every, 128);
        assert_eq!(c.max_matches_per_node, Some(1_000));
        assert!(!c.maintain_summary);
        let engine = builder.build().unwrap();
        assert_eq!(engine.config().prune_every, 128);
    }

    #[test]
    fn builder_round_trips_auto_settings() {
        let c = *EngineBuilder::new()
            .retention(Duration::from_secs(5))
            .auto_retention()
            .max_matches_per_node(7)
            .unbounded_matches()
            .config();
        assert!(c.retention.is_none());
        assert!(c.max_matches_per_node.is_none());
    }

    #[test]
    fn shard_counts_are_validated() {
        assert!(EngineBuilder::new().shards(0).build().is_err());
        assert!(EngineBuilder::new().shards(257).build().is_err());
        let engine = EngineBuilder::new().shards(2).build().unwrap();
        assert_eq!(engine.config().shards, 2);
        assert_eq!(EngineConfig::default().shards, 1);
    }

    #[test]
    fn configs_serialized_before_the_shards_field_still_deserialize() {
        // A checkpoint written by a pre-sharding release has no `shards` key;
        // it must come back as a valid single-threaded configuration.
        let mut json = serde_json::to_string(&EngineConfig::default()).unwrap();
        assert!(json.contains("\"shards\""));
        json = json.replace(",\"shards\":1", "");
        assert!(!json.contains("\"shards\""));
        let config: EngineConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(config.shards, 1);
        assert!(config.validate().is_ok());
    }

    #[test]
    fn configs_serialized_before_the_shared_matching_field_still_deserialize() {
        let mut json = serde_json::to_string(&EngineConfig::default()).unwrap();
        assert!(json.contains("\"shared_matching\""));
        json = json.replace(",\"shared_matching\":true", "");
        assert!(!json.contains("\"shared_matching\""));
        let config: EngineConfig = serde_json::from_str(&json).unwrap();
        assert!(config.shared_matching, "legacy configs share by default");
        assert!(config.validate().is_ok());
    }

    #[test]
    fn shared_matching_builder_toggle() {
        let engine = EngineBuilder::new().shared_matching(false).build().unwrap();
        assert!(!engine.config().shared_matching);
        assert!(EngineConfig::default().shared_matching);
    }

    #[test]
    fn invalid_settings_fail_at_build_time() {
        assert!(EngineBuilder::new().prune_every(0).build().is_err());
        assert!(EngineBuilder::new()
            .max_matches_per_node(0)
            .build()
            .is_err());
        assert!(EngineBuilder::new()
            .retention(Duration::from_secs(0))
            .build()
            .is_err());
        let err = EngineConfig {
            prune_every: 0,
            ..Default::default()
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("prune_every"));
    }

    #[test]
    fn fast_ingest_builder_matches_preset() {
        let engine = EngineBuilder::fast_ingest().build().unwrap();
        assert!(!engine.config().maintain_summary);
    }

    #[test]
    fn channel_capacity_is_validated() {
        assert!(EngineBuilder::new().channel_capacity(0).build().is_err());
        let engine = EngineBuilder::new().channel_capacity(8).build().unwrap();
        assert_eq!(engine.config().channel_capacity, 8);
        assert_eq!(EngineConfig::default().channel_capacity, 1024);
    }

    #[test]
    fn shard_failure_policy_defaults_to_fail_fast() {
        assert_eq!(
            EngineConfig::default().shard_failure_policy,
            ShardFailurePolicy::FailFast
        );
        let engine = EngineBuilder::new()
            .shard_failure_policy(ShardFailurePolicy::Degrade)
            .build()
            .unwrap();
        assert_eq!(
            engine.config().shard_failure_policy,
            ShardFailurePolicy::Degrade
        );
    }

    #[test]
    fn configs_serialized_before_the_failure_fields_still_deserialize() {
        // A checkpoint written before supervision/bounded channels has
        // neither key; it must come back with the conservative defaults.
        let mut json = serde_json::to_string(&EngineConfig::default()).unwrap();
        assert!(json.contains("\"channel_capacity\""));
        assert!(json.contains("\"shard_failure_policy\""));
        json = json.replace(",\"channel_capacity\":1024", "");
        json = json.replace(",\"shard_failure_policy\":\"FailFast\"", "");
        assert!(!json.contains("channel_capacity"));
        let config: EngineConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(config.channel_capacity, 1024);
        assert_eq!(config.shard_failure_policy, ShardFailurePolicy::FailFast);
        assert!(config.validate().is_ok());
    }

    #[test]
    fn retry_policies_are_validated() {
        let mut config = EngineConfig::default();
        config.retry_policy.max_attempts = 0;
        assert!(config.validate().unwrap_err().contains("max_attempts"));
        let mut config = EngineConfig::default();
        config.retry_policy.backoff_base_ms = 100;
        config.retry_policy.backoff_cap_ms = 10;
        assert!(config.validate().unwrap_err().contains("backoff_cap_ms"));
        let mut config = EngineConfig::default();
        config.retry_policy.attempt_timeout_ms = 0;
        assert!(config
            .validate()
            .unwrap_err()
            .contains("attempt_timeout_ms"));
        assert!(EngineBuilder::new()
            .retry_policy(RetryPolicy {
                max_attempts: 0,
                ..Default::default()
            })
            .build()
            .is_err());
        let engine = EngineBuilder::new()
            .retry_policy(RetryPolicy::none())
            .build()
            .unwrap();
        assert_eq!(engine.config().retry_policy, RetryPolicy::none());
    }

    #[test]
    fn configs_serialized_before_the_retry_policy_field_still_deserialize() {
        // A checkpoint written before durable delivery has no `retry_policy`
        // key; it must come back with the default schedule.
        let mut json = serde_json::to_string(&EngineConfig::default()).unwrap();
        assert!(json.contains("\"retry_policy\""));
        let serialized = serde_json::to_string(&RetryPolicy::default()).unwrap();
        json = json.replace(&format!(",\"retry_policy\":{serialized}"), "");
        assert!(!json.contains("retry_policy"));
        let config: EngineConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(config.retry_policy, RetryPolicy::default());
        assert!(config.validate().is_ok());
    }

    #[test]
    fn telemetry_settings_are_validated_and_default_off() {
        let c = EngineConfig::default();
        assert_eq!(c.telemetry_level, TelemetryLevel::Off);
        assert_eq!(c.telemetry_sample_every, 64);
        assert!(EngineBuilder::new()
            .telemetry_sample_every(0)
            .build()
            .is_err());
        let engine = EngineBuilder::new()
            .telemetry_level(TelemetryLevel::Sampled)
            .telemetry_sample_every(8)
            .build()
            .unwrap();
        assert_eq!(engine.config().telemetry_level, TelemetryLevel::Sampled);
        assert_eq!(engine.config().telemetry_sample_every, 8);
    }

    #[test]
    fn configs_serialized_before_the_telemetry_fields_still_deserialize() {
        // A checkpoint written before the observability layer has neither
        // key; it must come back with telemetry off and the default cadence.
        let mut json = serde_json::to_string(&EngineConfig::default()).unwrap();
        assert!(json.contains("\"telemetry_level\""));
        assert!(json.contains("\"telemetry_sample_every\""));
        json = json.replace(",\"telemetry_level\":\"Off\"", "");
        json = json.replace(",\"telemetry_sample_every\":64", "");
        assert!(!json.contains("telemetry"));
        let config: EngineConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(config.telemetry_level, TelemetryLevel::Off);
        assert_eq!(config.telemetry_sample_every, 64);
        assert!(config.validate().is_ok());
    }

    #[test]
    fn shard_failure_policy_round_trips_through_json() {
        let config = EngineConfig {
            shard_failure_policy: ShardFailurePolicy::Degrade,
            ..Default::default()
        };
        let json = serde_json::to_string(&config).unwrap();
        assert!(json.contains("\"Degrade\""));
        let back: EngineConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.shard_failure_policy, ShardFailurePolicy::Degrade);
    }
}
