//! Engine checkpoint / restore.
//!
//! A continuous-query deployment needs to survive restarts without losing its
//! registered queries or the recent graph state its windows depend on. The
//! checkpoint captures exactly the state that cannot be recomputed from the
//! stream alone:
//!
//! * the engine configuration,
//! * every registered query's *plan* (so the SJ-Tree shapes — possibly the
//!   product of statistics that have since drifted — are preserved verbatim)
//!   together with the intervals of the stream it observed,
//! * the live (non-expired) edges of the data graph, re-expressed as
//!   [`EdgeEvent`]s,
//! * every **durable subscription** — its serialisable [`crate::SinkSpec`],
//!   the delivery cursor of its last acknowledged match and its undelivered
//!   outbox — re-attached after the suppressed replay so delivery resumes
//!   exactly where it stopped (in-process sinks remain process-local and
//!   are still excluded).
//!
//! Restore rebuilds the engine by re-registering the plans and replaying the
//! retained edges with event emission suppressed: partial matches, summaries
//! and the sliding window are all reconstructed from that bounded replay, so
//! matches completing entirely *after* the checkpoint are found exactly as if
//! the process had never stopped. Matches that had already completed before
//! the checkpoint are not re-emitted. This mirrors how a production system
//! would recover from a write-ahead edge log bounded by the retention horizon.
//!
//! **Every query comes back with exactly the state it observed.** The
//! checkpoint records, per query, the *arrival-order intervals* of the
//! retained edges the query was dispatched — opened at registration and
//! every resume, closed at every pause — plus each paused query's pause
//! *timestamp* (for operators). The retained edges are captured in arrival
//! order, and restore choreographs the replay through those intervals:
//! every query is dispatched precisely the edges it saw live (a query
//! registered mid-stream does not absorb earlier edges, a paused query is
//! paused at the exact boundary, pause/resume cycles skip exactly the gap
//! they skipped live), so accumulated partial matches are reconstructed
//! just as the original engine held them and a query **never** observes an
//! edge the original engine never showed it. Arrival-order cuts are exact
//! even for events sharing a boundary timestamp and for bounded skew,
//! where timestamp cuts would straddle the boundary. The intervals are also
//! the only record of whether a query is paused: an even number of
//! boundaries (none at all included) means the last interval is closed.
//!
//! **There is one format.** Every field is required: a document missing
//! one fails [`EngineCheckpoint::load`] with
//! [`EngineError::CorruptCheckpoint`] instead of restoring under different
//! semantics. Unknown keys are ignored, so documents carrying settings that
//! have since been removed still load.

use crate::config::EngineConfig;
use crate::delivery::DeliveryCursor;
use crate::engine::ContinuousQueryEngine;
use crate::error::EngineError;
use serde::{Deserialize, Serialize};
use streamworks_graph::{EdgeEvent, Timestamp};
use streamworks_query::{QueryPlan, RpqQuery};

/// A serialisable snapshot of a [`ContinuousQueryEngine`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineCheckpoint {
    /// Engine configuration at checkpoint time.
    pub config: EngineConfig,
    /// Plans of every registered subgraph query, in registration (query-id)
    /// order. Regular path queries are captured in [`Self::rpqs`]; the
    /// `paused_at` / `observed` lists run over the *combined* query sequence
    /// in query-id order.
    pub plans: Vec<QueryPlan>,
    /// Registered regular path queries, as `(position, query)` where
    /// `position` is the query's index in the combined query-id order (the
    /// indexing of `paused_at` / `observed`). Restore re-registers plans and
    /// RPQs interleaved at these positions, so query ids — and the replay
    /// choreography — come back exactly as captured.
    pub rpqs: Vec<(u64, RpqQuery)>,
    /// Stream time at which each paused query was paused (combined query
    /// order; `None` for running queries). Informational and round-tripped
    /// verbatim; the replay cuts themselves use [`Self::observed`], which is
    /// exact where a timestamp is ambiguous (events at a boundary timestamp,
    /// bounded skew).
    pub paused_at: Vec<Option<Timestamp>>,
    /// Arrival-order observation intervals per query (combined query
    /// order): indices into [`Self::live_edges`], alternating open/close
    /// boundaries (registration and every resume open, every pause closes).
    /// An odd length means the query was observing at capture time, an even
    /// one (empty included) that it was paused. Restore dispatches each
    /// query exactly the edges inside its intervals.
    pub observed: Vec<Vec<u64>>,
    /// Live edges of the data graph, in arrival order (the order the
    /// original engine ingested them — also the replay order, so a restored
    /// engine sees the exact arrival sequence the original saw).
    pub live_edges: Vec<EdgeEvent>,
    /// Stream time of the engine when the checkpoint was taken.
    pub taken_at: Timestamp,
    /// Total matches the engine had emitted when the checkpoint was taken
    /// (informational; restore starts a fresh counter).
    pub events_emitted: u64,
    /// Durable subscriptions ([`crate::ContinuousQueryEngine::subscribe_durable`]):
    /// per subscription, the [`crate::SinkSpec`] to reconnect, the delivery
    /// cursor of the last acknowledged match and the undelivered outbox.
    /// Durable subscribers are re-attached *after* the suppressed replay, so
    /// a restored engine resumes each exactly after its cursor — no
    /// duplicates, no losses. In-process sinks are not captured.
    pub durable: Vec<DeliveryCursor>,
    /// Stage latency histograms captured at checkpoint time (`None` while
    /// telemetry is off). Restore folds these counters into the fresh
    /// engine's histograms *after* the suppressed replay — the driver-side
    /// replay is not re-measured, so the restored engine's stage counters
    /// continue from the captured ones.
    pub telemetry: Option<crate::TelemetryCheckpoint>,
}

impl EngineCheckpoint {
    /// Captures the restorable state of `engine`.
    ///
    /// Only *live* queries are captured, in query-id order; deregistered
    /// slots are compacted away, so query ids in the restored engine are
    /// dense again. Because of that compaction, `QueryHandle`s issued by the
    /// checkpointed engine are meaningless on the restored one (and the
    /// mismatch is not detectable) — always re-obtain handles from the
    /// restored engine's `handles()`. Paused queries come back paused (see
    /// the module docs for the replay semantics).
    pub fn capture(engine: &ContinuousQueryEngine) -> Self {
        let graph = engine.graph();
        // Arrival (edge-id) order: the replay then reproduces the exact
        // ingest sequence, and a paused query's replay prefix is a simple
        // count of edges ingested before its pause.
        let mut with_ids: Vec<(u64, EdgeEvent)> = graph
            .edges()
            .map(|edge| {
                let src = graph
                    .vertex(edge.src)
                    .expect("live edge has live endpoints");
                let dst = graph
                    .vertex(edge.dst)
                    .expect("live edge has live endpoints");
                let event = EdgeEvent {
                    src_key: graph.vertex_key(edge.src).unwrap_or_default().to_owned(),
                    src_type: graph
                        .vertex_type_name(src.vtype)
                        .unwrap_or_default()
                        .to_owned(),
                    dst_key: graph.vertex_key(edge.dst).unwrap_or_default().to_owned(),
                    dst_type: graph
                        .vertex_type_name(dst.vtype)
                        .unwrap_or_default()
                        .to_owned(),
                    edge_type: graph
                        .edge_type_name(edge.etype)
                        .unwrap_or_default()
                        .to_owned(),
                    timestamp: edge.timestamp,
                    attrs: edge.attrs.clone(),
                };
                (edge.id.0, event)
            })
            .collect();
        with_ids.sort_by_key(|(id, _)| *id);
        let mut plans = Vec::new();
        let mut rpqs = Vec::new();
        let mut paused_at = Vec::new();
        let mut observed = Vec::new();
        let mut durable = Vec::new();
        for h in engine.handles() {
            // Both query classes are captured, at their position in the
            // combined query-id order (the indexing of the lifecycle lists).
            if let Ok(plan) = engine.plan(h) {
                plans.push(plan.clone());
            } else if let Ok(rpq) = engine.rpq_query(h) {
                rpqs.push((observed.len() as u64, rpq.clone()));
            } else {
                continue;
            }
            durable.extend(engine.capture_durables(h, observed.len()));
            paused_at.push(engine.pause_time(h).unwrap_or(None));
            // Map the query's arrival-order observation boundaries (edge-id
            // bounds) onto the retained edge list: edges with id below a
            // bound sit before its partition point. Intervals left empty by
            // expiry are dropped whole (keeping the parity that says whether
            // the query is paused), so the boundary list stays bounded
            // across repeated checkpoint/restore generations.
            let mapped: Vec<u64> = engine
                .observed_bounds(h)
                .iter()
                .map(|&bound| with_ids.partition_point(|(id, _)| *id < bound) as u64)
                .collect();
            let mut compact = Vec::with_capacity(mapped.len());
            let mut k = 0;
            while k + 1 < mapped.len() {
                if mapped[k] != mapped[k + 1] {
                    compact.push(mapped[k]);
                    compact.push(mapped[k + 1]);
                }
                k += 2;
            }
            if k < mapped.len() {
                compact.push(mapped[k]); // the open tail of an observing query
            }
            observed.push(compact);
        }
        EngineCheckpoint {
            config: *engine.config(),
            plans,
            rpqs,
            paused_at,
            observed,
            live_edges: with_ids.into_iter().map(|(_, e)| e).collect(),
            taken_at: engine.graph().now(),
            events_emitted: engine.events_emitted(),
            durable,
            telemetry: engine.capture_telemetry(),
        }
    }

    /// Rebuilds an engine from this checkpoint (see the module docs for the
    /// exact semantics of the replay). The retained edges are replayed as one
    /// batch through the unified ingest path, with event emission suppressed.
    /// Durable subscriptions are re-attached *after* the suppressed replay
    /// and resume from their cursors.
    ///
    /// A document that fails the checks of [`Self::load`] is an
    /// [`EngineError::CorruptCheckpoint`] before anything is rebuilt. So is
    /// a durable subscription whose destination has lost part of the
    /// acknowledged prefix (a delivery log truncated below the cursor), with
    /// the byte offset where the acknowledged prefix ends. Transient
    /// connection failures are left for the first delivery attempt to retry
    /// through the engine's [`crate::RetryPolicy`].
    ///
    /// To restore past a damaged destination, remove its entry from
    /// [`Self::durable`] and call this again: the query comes back without
    /// that subscription.
    pub fn try_restore(&self) -> Result<ContinuousQueryEngine, EngineError> {
        self.validate()?;
        let mut engine = ContinuousQueryEngine::new(self.config);
        // Re-register both query classes interleaved at their captured
        // positions, so slot ids — and the index-aligned lifecycle lists —
        // come back exactly as captured.
        let total = self.plans.len() + self.rpqs.len();
        let mut next_plan = self.plans.iter();
        let mut next_rpq = self.rpqs.iter().peekable();
        let handles: Vec<_> = (0..total as u64)
            .map(|pos| {
                // `<=` and the exhaustion fallback tolerate hand-edited
                // position lists without panicking; well-formed checkpoints
                // only ever hit the `==` case.
                if next_rpq.peek().is_some_and(|(p, _)| *p <= pos) || next_plan.len() == 0 {
                    let (_, rpq) = next_rpq.next().expect("an entry remains");
                    engine.register_rpq(rpq.clone())
                } else {
                    let plan = next_plan.next().expect("an entry remains");
                    engine.register_plan(plan.clone())
                }
            })
            .collect();
        // Every query starts dormant and is resumed/paused at exactly its
        // boundaries as the (arrival-order) replay walks forward, so each
        // observes precisely the retained edges it saw live, and ends paused
        // iff its boundary count is even.
        //
        // Actions are (boundary, query, per-query sequence): sorting keeps
        // each query's resume/pause alternation in order even when several
        // boundaries share one index (an interval emptied by expiry nets to
        // a no-op instead of flipping the final state).
        const ACT_RESUME: u8 = 0;
        const ACT_PAUSE: u8 = 1;
        let mut actions: Vec<(u64, usize, usize, u8)> = Vec::new();
        for (i, (handle, bounds)) in handles.iter().zip(&self.observed).enumerate() {
            engine.pause(*handle).expect("freshly registered handle");
            for (k, &bound) in bounds.iter().enumerate() {
                let kind = if k % 2 == 0 { ACT_RESUME } else { ACT_PAUSE };
                actions.push((bound, i, k, kind));
            }
        }
        actions.sort_unstable();
        // The replay is not re-measured: the events were timed by the
        // engine that wrote the checkpoint, whose stage counters are merged
        // back in below.
        let telemetry = engine.suspend_telemetry();
        let mut start = 0usize;
        for (bound, qi, _, kind) in actions {
            let cut = (bound as usize).min(self.live_edges.len());
            if cut > start {
                engine
                    .ingest_with(&self.live_edges[start..cut], &mut |_| {})
                    .expect("ingest reports no error");
                start = cut;
            }
            if kind == ACT_RESUME {
                engine.resume(handles[qi])
            } else {
                engine.pause(handles[qi])
            }
            .expect("freshly registered handle");
        }
        if start < self.live_edges.len() {
            engine
                .ingest_with(&self.live_edges[start..], &mut |_| {})
                .expect("ingest reports no error");
        }
        // Keep the original pause times (not the replay's clock), so a
        // second capture round-trips them verbatim.
        for (handle, &at) in handles.iter().zip(&self.paused_at) {
            if matches!(engine.is_paused(*handle), Ok(true)) {
                engine.set_pause_time(*handle, at);
            }
        }
        engine.resume_telemetry(telemetry, self.telemetry.as_ref());
        // The replayed matches were suppressed; continue the emitted-event
        // counter from where the checkpointed engine left off.
        engine.set_events_emitted(self.events_emitted);
        for cursor in &self.durable {
            engine.attach_durable(handles[cursor.query], cursor)?;
        }
        Ok(engine)
    }

    /// [`Self::try_restore`], for callers that treat a bad checkpoint as a
    /// bug.
    ///
    /// # Panics
    ///
    /// Panics wherever [`Self::try_restore`] returns an error.
    #[doc(hidden)]
    pub fn restore(&self) -> ContinuousQueryEngine {
        self.try_restore().expect("checkpoint restores")
    }

    /// Serialises the checkpoint as JSON.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Parses a checkpoint from JSON produced by [`EngineCheckpoint::to_json`].
    /// Parse failures — truncated files from an interrupted write,
    /// corrupted bytes — map to [`crate::EngineError::CorruptCheckpoint`]
    /// carrying the byte offset where parsing stopped: loading never
    /// panics, and the offset pinpoints how much of the file survived.
    ///
    /// A document missing a field is rejected the same way. So is one that
    /// parses but carries a configuration [`EngineConfig::validate`]
    /// refuses, an SJ-Tree shape no planner could have built
    /// (`SjTreeShape::validate` — the join climb indexes its stores by the
    /// shape's node order), a regular path query `RpqQuery::new` would have
    /// refused (`RpqQuery::validate`: a pattern matching the empty path, or
    /// one whose automata, forward or reversed, pass 256 states),
    /// per-query lists that do not cover every query, or a durable cursor
    /// naming a query the document does not hold; these carry no offset.
    pub fn load(json: &str) -> Result<EngineCheckpoint, crate::EngineError> {
        let checkpoint: EngineCheckpoint =
            serde_json::from_str(json).map_err(|e| crate::EngineError::CorruptCheckpoint {
                offset: e.byte_offset(),
                detail: e.to_string(),
            })?;
        checkpoint.validate()?;
        Ok(checkpoint)
    }

    /// The document checks of [`Self::load`] and [`Self::try_restore`].
    fn validate(&self) -> Result<(), EngineError> {
        let corrupt = |detail: String| EngineError::CorruptCheckpoint {
            offset: None,
            detail,
        };
        self.config
            .validate()
            .map_err(|e| corrupt(format!("config: {e}")))?;
        let total = self.plans.len() + self.rpqs.len();
        for (field, len) in [
            ("observed", self.observed.len()),
            ("paused_at", self.paused_at.len()),
        ] {
            if len != total {
                return Err(corrupt(format!(
                    "{field} has {len} entries for {total} queries"
                )));
            }
        }
        if let Some(cursor) = self.durable.iter().find(|c| c.query >= total) {
            return Err(corrupt(format!(
                "durable cursor for subscription {} references query position {} but the \
                 checkpoint holds {total} queries",
                cursor.token, cursor.query
            )));
        }
        for plan in &self.plans {
            plan.shape
                .validate(&plan.query)
                .map_err(|e| corrupt(format!("plan of query {}: {e}", plan.query.name())))?;
        }
        for (_, rpq) in &self.rpqs {
            let pattern = rpq.pattern();
            rpq.validate().map_err(|e| {
                corrupt(format!(
                    "regular path query {} ({pattern}): {e}",
                    rpq.name()
                ))
            })?;
        }
        Ok(())
    }
}

impl ContinuousQueryEngine {
    /// Convenience wrapper for [`EngineCheckpoint::capture`].
    pub fn checkpoint(&self) -> EngineCheckpoint {
        EngineCheckpoint::capture(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MatchEvent;
    use streamworks_graph::Duration;
    use streamworks_query::QueryGraphBuilder;

    fn ev(src: &str, dst: &str, et: &str, t: i64) -> EdgeEvent {
        EdgeEvent::new(src, "Article", dst, "Keyword", et, Timestamp::from_secs(t))
    }

    fn pair_query(window: Duration) -> streamworks_query::QueryGraph {
        QueryGraphBuilder::new("pair")
            .window(window)
            .vertex("a1", "Article")
            .vertex("a2", "Article")
            .vertex("k", "Keyword")
            .edge("a1", "mentions", "k")
            .edge("a2", "mentions", "k")
            .build()
            .unwrap()
    }

    #[test]
    fn restore_preserves_queries_window_state_and_future_matches() {
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        engine
            .register_query(pair_query(Duration::from_secs(100)))
            .unwrap();
        // One article already mentioned the keyword before the checkpoint.
        assert!(engine
            .ingest(&ev("a1", "rust", "mentions", 10))
            .unwrap()
            .is_empty());

        let checkpoint = engine.checkpoint();
        assert_eq!(checkpoint.plans.len(), 1);
        assert_eq!(checkpoint.live_edges.len(), 1);

        let mut restored = checkpoint.try_restore().unwrap();
        assert_eq!(restored.query_count(), 1);
        // The pre-checkpoint partial state was rebuilt: a second article now
        // completes the pair exactly as it would have without the restart.
        let matches = restored.ingest(&ev("a2", "rust", "mentions", 20)).unwrap();
        assert_eq!(matches.len(), 2);

        // The original engine (no restart) behaves identically.
        let direct = engine.ingest(&ev("a2", "rust", "mentions", 20)).unwrap();
        assert_eq!(direct.len(), matches.len());
    }

    #[test]
    fn restore_does_not_re_emit_completed_matches() {
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        engine
            .register_query(pair_query(Duration::from_secs(100)))
            .unwrap();
        engine.ingest(&ev("a1", "rust", "mentions", 1)).unwrap();
        let matched = engine.ingest(&ev("a2", "rust", "mentions", 2)).unwrap();
        assert_eq!(matched.len(), 2);

        let checkpoint = engine.checkpoint();
        let restored = checkpoint.try_restore().unwrap();
        // Replay suppressed the already-completed matches and the counter
        // continues from the checkpointed value rather than double-counting.
        assert_eq!(checkpoint.events_emitted, 2);
        assert_eq!(restored.events_emitted(), 2);
    }

    #[test]
    fn expired_edges_are_not_checkpointed() {
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        engine
            .register_query(pair_query(Duration::from_secs(30)))
            .unwrap();
        engine.ingest(&ev("a1", "rust", "mentions", 0)).unwrap();
        engine.ingest(&ev("a2", "go", "mentions", 1_000)).unwrap();
        let checkpoint = engine.checkpoint();
        // Only the recent edge is still live (retention follows the window).
        assert_eq!(checkpoint.live_edges.len(), 1);
        assert_eq!(checkpoint.live_edges[0].src_key, "a2");
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        engine
            .register_query(pair_query(Duration::from_secs(60)))
            .unwrap();
        engine.ingest(&ev("a1", "rust", "mentions", 5)).unwrap();
        let checkpoint = engine.checkpoint();
        let json = checkpoint.to_json().unwrap();
        let parsed = EngineCheckpoint::load(&json).unwrap();
        assert_eq!(parsed.plans.len(), 1);
        assert_eq!(parsed.live_edges, checkpoint.live_edges);
        assert_eq!(parsed.taken_at, checkpoint.taken_at);

        let restored = parsed.try_restore().unwrap();
        assert_eq!(restored.query_count(), 1);
        assert_eq!(restored.graph().live_edge_count(), 1);
    }

    #[test]
    fn truncated_json_loads_to_a_clear_error_never_a_panic() {
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        engine
            .register_query(pair_query(Duration::from_secs(60)))
            .unwrap();
        engine.ingest(&ev("a1", "rust", "mentions", 5)).unwrap();
        let json = engine.checkpoint().to_json().unwrap();
        // Every truncation point — an interrupted write can stop anywhere —
        // must produce a structured CorruptCheckpoint, never a panic.
        for cut in 0..json.len() {
            let truncated = &json[..cut];
            match EngineCheckpoint::load(truncated) {
                Err(crate::EngineError::CorruptCheckpoint { offset, detail }) => {
                    assert!(!detail.is_empty());
                    if let Some(at) = offset {
                        assert!(
                            at <= truncated.len(),
                            "offset {at} past the {cut}-byte input"
                        );
                    }
                }
                other => panic!("truncation at {cut} bytes produced {other:?}"),
            }
        }
        // The untruncated document still loads.
        assert!(EngineCheckpoint::load(&json).is_ok());
    }

    #[test]
    fn a_shape_no_planner_builds_loads_to_an_error_without_an_offset() {
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        let one_edge_leaves = streamworks_query::CostBasedOrdered {
            max_primitive_size: 1,
        };
        let plan = streamworks_query::Planner::new()
            .plan_with(pair_query(Duration::from_secs(60)), &one_edge_leaves)
            .unwrap();
        engine.register_plan(plan);
        let json = engine.checkpoint().to_json().unwrap();
        // One leaf per edge under a root: make the root (node 2) claim
        // itself as its left child.
        let honest = r#""children":[0,1]"#;
        assert_eq!(json.matches(honest).count(), 1, "{json}");
        let tampered = json.replace(honest, r#""children":[2,1]"#);
        let err = EngineCheckpoint::load(&tampered).unwrap_err();
        let crate::EngineError::CorruptCheckpoint { offset, detail } = err else {
            panic!("expected CorruptCheckpoint, got {err:?}");
        };
        assert_eq!(offset, None);
        assert!(
            detail.contains("does not come after its children"),
            "{detail}"
        );
    }

    #[test]
    fn try_restore_refuses_a_shape_no_planner_builds() {
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        let one_edge_leaves = streamworks_query::CostBasedOrdered {
            max_primitive_size: 1,
        };
        let plan = streamworks_query::Planner::new()
            .plan_with(pair_query(Duration::from_secs(60)), &one_edge_leaves)
            .unwrap();
        engine.register_plan(plan);
        engine.ingest(&ev("a1", "rust", "mentions", 5)).unwrap();
        let json = engine.checkpoint().to_json().unwrap();
        // The root claims a child that does not exist. Parsing alone
        // accepts it; rebuilding the engine from it would panic.
        let tampered = json.replace(r#""children":[0,1]"#, r#""children":[9,1]"#);
        let checkpoint: EngineCheckpoint = serde_json::from_str(&tampered).unwrap();
        let Err(EngineError::CorruptCheckpoint { offset, detail }) = checkpoint.try_restore()
        else {
            panic!("expected CorruptCheckpoint");
        };
        assert_eq!(offset, None);
        assert!(detail.contains("pair"), "{detail}");
    }

    #[test]
    fn an_rpq_matching_the_empty_path_is_refused_by_load_and_try_restore() {
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        engine.register_rpq_dsl("RPQ p WINDOW 1m PATH a").unwrap();
        let json = engine.checkpoint().to_json().unwrap();
        let honest = r#""pattern":{"Label":"a"}"#;
        assert_eq!(json.matches(honest).count(), 1, "{json}");
        // `a*` gets past deserialisation, which skips `RpqQuery::new`.
        let tampered = json.replace(honest, r#""pattern":{"Star":{"Label":"a"}}"#);
        let checkpoint: EngineCheckpoint = serde_json::from_str(&tampered).unwrap();
        for err in [
            EngineCheckpoint::load(&tampered).unwrap_err(),
            checkpoint.try_restore().unwrap_err(),
        ] {
            let EngineError::CorruptCheckpoint { offset, detail } = err else {
                panic!("expected CorruptCheckpoint, got {err:?}");
            };
            assert_eq!(offset, None);
            assert!(detail.contains("(a)*"), "{detail}");
        }
        assert!(EngineCheckpoint::load(&json).unwrap().try_restore().is_ok());
    }

    #[test]
    fn an_rpq_whose_automata_pass_the_state_bound_is_refused_by_load_and_try_restore() {
        use streamworks_query::PathExpr;
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        engine.register_rpq_dsl("RPQ p WINDOW 1m PATH a").unwrap();
        let json = engine.checkpoint().to_json().unwrap();
        let honest = r#""pattern":{"Label":"a"}"#;
        // `(a|b)* a (a|b){14}` needs 32 768 DFA states and its reverse a
        // handful; the reversed pattern has it the other way round, and
        // `a{5000,}` needs 10 002 NFA states. `a{200,1}`, whose bounds no
        // text parses, builds 200 copies of `a`: 401 NFA states, though only
        // 201 DFA states (were it counted as one copy, `a{4000000000,1}`
        // would reach the build). Restoring any of them would build them all.
        let label = |l: &str| PathExpr::Label(l.into());
        let ab = || Box::new(PathExpr::Alt(vec![label("a"), label("b")]));
        let forward = PathExpr::Concat(vec![
            PathExpr::Star(ab()),
            label("a"),
            PathExpr::Repeat(ab(), 14, Some(14)),
        ]);
        let long = PathExpr::Repeat(Box::new(label("a")), 5_000, None);
        let inverted = PathExpr::Repeat(Box::new(label("a")), 200, Some(1));
        for pattern in [forward.reversed(), forward, long, inverted] {
            let pattern = serde_json::to_string(&pattern).unwrap();
            let tampered = json.replace(honest, &format!(r#""pattern":{pattern}"#));
            let checkpoint: EngineCheckpoint = serde_json::from_str(&tampered).unwrap();
            for err in [
                EngineCheckpoint::load(&tampered).unwrap_err(),
                checkpoint.try_restore().unwrap_err(),
            ] {
                let EngineError::CorruptCheckpoint { offset, detail } = err else {
                    panic!("expected CorruptCheckpoint, got {err:?}");
                };
                assert_eq!(offset, None);
                assert!(detail.contains("more than 256"), "{detail}");
            }
        }
    }

    #[test]
    fn lists_short_of_the_queries_a_dangling_cursor_or_a_bad_config_are_refused() {
        use crate::delivery::{reset_memory_sink, SinkSpec};
        let key = "checkpoint_refused_documents";
        reset_memory_sink(key);
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        let handle = engine
            .register_query(pair_query(Duration::from_secs(60)))
            .unwrap();
        engine
            .subscribe_durable(handle, SinkSpec::Memory { key: key.into() })
            .unwrap();
        let json = engine.checkpoint().to_json().unwrap();
        for (honest, tampered, expected) in [
            (
                r#""observed":[[0]]"#,
                r#""observed":[]"#,
                "observed has 0 entries",
            ),
            (
                r#""paused_at":[null]"#,
                r#""paused_at":[]"#,
                "paused_at has 0",
            ),
            (
                r#""query":0,"#,
                r#""query":1,"#,
                "references query position 1",
            ),
            (
                r#""telemetry_sample_every":64"#,
                r#""telemetry_sample_every":0"#,
                "config: telemetry_sample_every",
            ),
        ] {
            assert_eq!(json.matches(honest).count(), 1, "{honest} in {json}");
            let tampered = json.replace(honest, tampered);
            match EngineCheckpoint::load(&tampered) {
                Err(EngineError::CorruptCheckpoint {
                    offset: None,
                    detail,
                }) => assert!(detail.contains(expected), "{detail}"),
                other => panic!("{tampered} loaded to {other:?}"),
            }
        }
        reset_memory_sink(key);
    }

    #[test]
    fn corrupt_bytes_load_to_an_error_with_an_offset() {
        let err = EngineCheckpoint::load("{\"config\": garbage").unwrap_err();
        let crate::EngineError::CorruptCheckpoint { offset, .. } = err else {
            panic!("expected CorruptCheckpoint, got {err:?}");
        };
        assert!(offset.is_some(), "a scanner error carries its byte offset");
    }

    #[test]
    fn ten_thousand_open_brackets_are_a_corrupt_checkpoint_not_a_stack_overflow() {
        let err = EngineCheckpoint::load(&"[".repeat(10_000)).unwrap_err();
        let crate::EngineError::CorruptCheckpoint { offset, detail } = err else {
            panic!("expected CorruptCheckpoint, got {err:?}");
        };
        assert!(offset.is_some_and(|at| at < 10_000), "{offset:?}");
        assert!(detail.contains("nesting"), "{detail}");
    }

    #[test]
    fn a_path_pattern_of_a_thousand_nested_stars_is_a_corrupt_checkpoint() {
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        engine.register_rpq_dsl("RPQ p WINDOW 1m PATH a").unwrap();
        let json = engine.checkpoint().to_json().unwrap();
        let honest = r#""pattern":{"Label":"a"}"#;
        let (open, close) = (r#"{"Star":"#.repeat(1_000), "}".repeat(1_000));
        let stars = format!(r#""pattern":{open}{{"Label":"a"}}{close}"#);
        let tampered = json.replace(honest, &stars);
        assert!(tampered.len() > 9_000);
        let err = EngineCheckpoint::load(&tampered).unwrap_err();
        let EngineError::CorruptCheckpoint { offset, .. } = err else {
            panic!("expected CorruptCheckpoint, got {err:?}");
        };
        assert!(offset.is_some(), "a scanner error carries its byte offset");
    }

    #[test]
    fn the_deepest_path_pattern_a_query_can_have_round_trips() {
        use streamworks_query::{PathExpr, QueryError};

        // `RpqQuery::validate` lets a label sit under 64 operators, and an
        // operator writes two JSON levels at most, so these are the deepest
        // documents an engine writes: 64 one-part concatenations built in
        // code, and from text an alternation around a concatenation per
        // group with a `{1}` chain innermost (2 + 30 × 2 + 2 operators).
        let label = PathExpr::Label("a".into());
        let in_code = (0..64).fold(label, |p, _| PathExpr::Concat(vec![p]));
        let in_code = RpqQuery::new("code", Duration::from_secs(60), in_code).unwrap();
        let groups = 30;
        let text = format!(
            "RPQ text WINDOW 1m PATH b | a {}a{{1}}{{1}}{}",
            "(b | a ".repeat(groups),
            ")".repeat(groups)
        );
        let from_text = streamworks_query::parse_rpq(&text).unwrap();
        let deepest = |json: &str| {
            let depth = json.bytes().fold((0, 0), |(depth, deepest), b| match b {
                b'[' | b'{' => (depth + 1, deepest.max(depth + 1)),
                b']' | b'}' => (depth - 1, deepest),
                _ => (depth, deepest),
            });
            depth.1
        };
        for query in [in_code, from_text] {
            let mut engine = ContinuousQueryEngine::builder().build().unwrap();
            let handle = engine.register_rpq(query.clone());
            let json = engine.checkpoint().to_json().unwrap();
            let pattern = serde_json::to_string(query.pattern()).unwrap();
            assert_eq!(deepest(&pattern), 2 * 64 + 1, "{}", query.name());
            // 133 levels with the checkpoint's own: about half of the 256
            // the JSON reader accepts.
            assert!(deepest(&json) <= 140, "{}", query.name());
            let restored = EngineCheckpoint::load(&json)
                .unwrap()
                .try_restore()
                .unwrap();
            assert_eq!(restored.rpq_query(handle).unwrap(), &query);
        }
        // One operator more is refused by `validate`, built in code, parsed
        // or loaded, before any document that deep is written or read.
        let past = (0..65).fold(PathExpr::Label("a".into()), |p, _| {
            PathExpr::Concat(vec![p])
        });
        let refused = RpqQuery::new("past", Duration::from_secs(60), past.clone());
        assert!(
            matches!(refused, Err(QueryError::Parse { .. })),
            "{refused:?}"
        );
        let text = text.replace("{1}{1}", "{1}{1}{1}");
        let message = streamworks_query::parse_rpq(&text).unwrap_err().to_string();
        assert!(message.contains("nests deeper"), "{message}");
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        engine.register_rpq_dsl("RPQ p WINDOW 1m PATH a").unwrap();
        let json = engine.checkpoint().to_json().unwrap();
        let past = serde_json::to_string(&past).unwrap();
        let tampered = json.replace(
            r#""pattern":{"Label":"a"}"#,
            &format!(r#""pattern":{past}"#),
        );
        assert_ne!(tampered, json);
        match EngineCheckpoint::load(&tampered) {
            Err(EngineError::CorruptCheckpoint { detail, .. }) => {
                assert!(detail.contains("nests deeper"), "{detail}")
            }
            other => panic!("loaded to {other:?}"),
        }
    }

    #[test]
    fn checkpoint_preserves_edge_attributes() {
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        engine
            .register_query(pair_query(Duration::from_secs(3600)))
            .unwrap();
        let event = ev("a1", "rust", "mentions", 1).with_attr("label", "politics");
        engine.ingest(&event).unwrap();

        let checkpoint = engine.checkpoint();
        assert_eq!(
            checkpoint.live_edges[0]
                .attrs
                .get("label")
                .and_then(|v| v.as_str()),
            Some("politics")
        );
        let restored = checkpoint.try_restore().unwrap();
        let stored = restored.graph().edges().next().unwrap();
        assert_eq!(
            stored.attrs.get("label").and_then(|v| v.as_str()),
            Some("politics"),
            "edge attributes must survive the checkpoint round trip"
        );
    }

    #[test]
    fn deregistered_queries_are_compacted_out() {
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        let doomed = engine
            .register_query(pair_query(Duration::from_secs(60)))
            .unwrap();
        engine
            .register_dsl(
                "QUERY keeper WINDOW 1m MATCH (a1:Article)-[:cites]->(k:Keyword), (a2:Article)-[:cites]->(k)",
            )
            .unwrap();
        engine.deregister(doomed).unwrap();

        let checkpoint = engine.checkpoint();
        assert_eq!(checkpoint.plans.len(), 1);
        assert_eq!(checkpoint.plans[0].query.name(), "keeper");
        let restored = checkpoint.try_restore().unwrap();
        assert_eq!(restored.query_count(), 1);
        assert_eq!(
            restored.handles()[0].id().0,
            0,
            "restored ids are dense again"
        );
    }

    #[test]
    fn paused_flags_survive_the_round_trip() {
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        let running = engine
            .register_query(pair_query(Duration::from_secs(100)))
            .unwrap();
        let paused = engine
            .register_dsl(
                "QUERY dormant WINDOW 100s MATCH (a1:Article)-[:cites]->(k:Keyword), (a2:Article)-[:cites]->(k)",
            )
            .unwrap();
        engine.ingest(&ev("a1", "rust", "mentions", 10)).unwrap();
        engine.pause(paused).unwrap();

        // Through JSON, like a real restart.
        let json = engine.checkpoint().to_json().unwrap();
        let checkpoint = EngineCheckpoint::load(&json).unwrap();
        let paused: Vec<bool> = checkpoint
            .observed
            .iter()
            .map(|b| b.len().is_multiple_of(2))
            .collect();
        assert_eq!(paused, vec![false, true]);

        let mut restored = checkpoint.try_restore().unwrap();
        let handles = restored.handles();
        assert_eq!(handles.len(), 2);
        assert!(!restored.is_paused(handles[0]).unwrap());
        assert!(restored.is_paused(handles[1]).unwrap());
        let _ = running;

        // The running query kept its replayed partial state; the paused one
        // stays silent until resumed, then matches patterns completed
        // entirely after the resume.
        let matches = restored.ingest(&ev("a2", "rust", "mentions", 20)).unwrap();
        assert_eq!(matches.len(), 2, "running query rebuilt its window state");
        restored.resume(handles[1]).unwrap();
        let matches = restored
            .ingest(&[
                EdgeEvent::new(
                    "b1",
                    "Article",
                    "go",
                    "Keyword",
                    "cites",
                    Timestamp::from_secs(30),
                ),
                EdgeEvent::new(
                    "b2",
                    "Article",
                    "go",
                    "Keyword",
                    "cites",
                    Timestamp::from_secs(31),
                ),
            ])
            .unwrap();
        assert_eq!(
            matches.len(),
            2,
            "resumed query matches patterns arriving after the restore"
        );
    }

    /// Registers the pair query with single-edge primitives, so the SJ-Tree
    /// genuinely stores partial matches (the default 2-edge decomposition
    /// collapses the pair into one stateless leaf).
    fn register_stateful(engine: &mut ContinuousQueryEngine, name: &str) -> crate::QueryHandle {
        register_stateful_windowed(engine, name, 1_000)
    }

    fn register_stateful_windowed(
        engine: &mut ContinuousQueryEngine,
        name: &str,
        window_secs: i64,
    ) -> crate::QueryHandle {
        let q = QueryGraphBuilder::new(name)
            .window(Duration::from_secs(window_secs))
            .vertex("a1", "Article")
            .vertex("a2", "Article")
            .vertex("k", "Keyword")
            .edge("a1", "mentions", "k")
            .edge("a2", "mentions", "k")
            .build()
            .unwrap();
        engine
            .register_query_with(
                q,
                &streamworks_query::CostBasedOrdered {
                    max_primitive_size: 1,
                },
                streamworks_query::TreeShapeKind::LeftDeep,
            )
            .unwrap()
    }

    #[test]
    fn paused_query_observes_exactly_the_pre_pause_prefix() {
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        let handle = register_stateful(&mut engine, "pair");
        // One edge before the pause; two after — one of them at the *same*
        // timestamp as the pause (ties are normal in a stream and a
        // timestamp cut could not tell it apart; the arrival-order prefix
        // can).
        engine.ingest(&ev("a1", "rust", "mentions", 10)).unwrap();
        engine.pause(handle).unwrap();
        assert_eq!(
            engine.pause_time(handle).unwrap(),
            Some(Timestamp::from_secs(10))
        );
        engine.ingest(&ev("b1", "go", "mentions", 10)).unwrap();
        engine.ingest(&ev("c1", "zig", "mentions", 20)).unwrap();

        // Through JSON, like a real restart.
        let json = engine.checkpoint().to_json().unwrap();
        let checkpoint = EngineCheckpoint::load(&json).unwrap();
        assert_eq!(checkpoint.paused_at, vec![Some(Timestamp::from_secs(10))]);
        assert_eq!(
            checkpoint.observed,
            vec![vec![0, 1]],
            "only the edge ingested before the pause is in the observed window"
        );

        let mut restored = checkpoint.try_restore().unwrap();
        let h = restored.handles()[0];
        assert!(restored.is_paused(h).unwrap());
        // The pause time survives the restore (and a re-capture) verbatim.
        assert_eq!(
            restored.pause_time(h).unwrap(),
            Some(Timestamp::from_secs(10))
        );
        let recapture = restored.checkpoint();
        assert_eq!(recapture.paused_at, vec![Some(Timestamp::from_secs(10))]);
        assert_eq!(recapture.observed, vec![vec![0, 1]]);
        // Exactly the pre-pause prefix was replayed: the paused query holds
        // its pre-pause partial state (one embedding per leaf of the a1
        // edge) but never saw the later edges — not even the one sharing
        // its pause timestamp.
        let m = restored.metrics(h).unwrap();
        assert_eq!(m.edges_processed, 1, "only the pre-pause edge was replayed");
        assert_eq!(m.partial_matches_live, 2);

        // After a resume the rebuilt partial completes, exactly as an
        // in-process pause would have allowed.
        restored.resume(h).unwrap();
        let matches = restored.ingest(&ev("a2", "rust", "mentions", 30)).unwrap();
        assert_eq!(matches.len(), 2, "pre-pause partial state completes");
    }

    #[test]
    fn multiple_pause_timestamps_split_the_replay_per_query() {
        // Windows one second apart: entries are interned per window, so the
        // two otherwise identical join trees share nothing and each query's
        // partials live in the private matcher this test inspects (with equal
        // windows "late" would be served whole by a shared entry).
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        let early = register_stateful(&mut engine, "early");
        let late = register_stateful_windowed(&mut engine, "late", 999);
        engine.ingest(&ev("a1", "rust", "mentions", 10)).unwrap();
        engine.pause(early).unwrap();
        engine.ingest(&ev("b1", "go", "mentions", 20)).unwrap();
        engine.pause(late).unwrap();
        engine.ingest(&ev("c1", "zig", "mentions", 30)).unwrap();

        let restored = engine.checkpoint().try_restore().unwrap();
        let handles = restored.handles();
        let m_early = restored.metrics(handles[0]).unwrap();
        let m_late = restored.metrics(handles[1]).unwrap();
        assert_eq!(m_early.edges_processed, 1, "paused after ts=10");
        assert_eq!(m_late.edges_processed, 2, "paused after ts=20");
        // Both hold exactly their pre-pause partials (one per leaf per edge
        // they observed).
        assert_eq!(m_early.partial_matches_live, 2);
        assert_eq!(m_late.partial_matches_live, 4);
        // The restored engine matches what the never-restarted one reports.
        assert_eq!(
            engine.metrics(early).unwrap().partial_matches_live,
            m_early.partial_matches_live
        );
        assert_eq!(
            engine.metrics(late).unwrap().partial_matches_live,
            m_late.partial_matches_live
        );
    }

    #[test]
    fn late_registered_query_does_not_absorb_earlier_edges_on_restore() {
        // A query registered mid-stream never observed the edges that came
        // before it; the restore replay must not fabricate partial state
        // from them, even though they are retained for the graph.
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        engine.ingest(&ev("a0", "rust", "mentions", 5)).unwrap();
        let handle = register_stateful(&mut engine, "pair");
        engine.ingest(&ev("a1", "rust", "mentions", 10)).unwrap();
        engine.pause(handle).unwrap();
        engine.ingest(&ev("b1", "go", "mentions", 20)).unwrap();

        let checkpoint = engine.checkpoint();
        assert_eq!(
            checkpoint.observed,
            vec![vec![1, 2]],
            "the query observed only the second retained edge"
        );
        let mut restored = checkpoint.try_restore().unwrap();
        let h = restored.handles()[0];
        let m = restored.metrics(h).unwrap();
        assert_eq!(m.edges_processed, 1);
        assert_eq!(
            m.partial_matches_live, 2,
            "partials from a1 only; a0 predates the registration"
        );

        // A completing article pairs only with a1 — matching the live
        // engine, which never filed a partial for a0 either.
        restored.resume(h).unwrap();
        let from_restored = restored.ingest(&ev("a2", "rust", "mentions", 30)).unwrap();
        engine.resume(handle).unwrap();
        let from_live = engine.ingest(&ev("a2", "rust", "mentions", 30)).unwrap();
        assert_eq!(from_live.len(), 2);
        assert_eq!(from_restored.len(), from_live.len());
    }

    #[test]
    fn pause_resume_cycles_skip_exactly_the_gap_on_restore() {
        // A query that paused and resumed mid-stream missed the gap; the
        // restore replay must skip exactly those edges, not flatten the
        // history into one prefix.
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        let handle = register_stateful(&mut engine, "pair");
        engine.ingest(&ev("a1", "rust", "mentions", 10)).unwrap();
        engine.pause(handle).unwrap();
        engine.ingest(&ev("g1", "rust", "mentions", 20)).unwrap(); // missed live
        engine.resume(handle).unwrap();
        engine.ingest(&ev("a2", "zig", "mentions", 30)).unwrap();

        let checkpoint = engine.checkpoint();
        assert_eq!(
            checkpoint.observed,
            vec![vec![0, 1, 2]],
            "observed [0,1) and [2, open): the gap edge is excluded"
        );
        let mut restored = checkpoint.try_restore().unwrap();
        let h = restored.handles()[0];
        assert!(!restored.is_paused(h).unwrap());
        let m = restored.metrics(h).unwrap();
        assert_eq!(m.edges_processed, 2, "the gap edge was not dispatched");
        assert_eq!(
            m.partial_matches_live,
            engine.metrics(handle).unwrap().partial_matches_live
        );

        // The never-restarted and restored engines agree on what completes:
        // a3 on rust pairs with a1 only (g1 was never observed by the query).
        let from_live = engine.ingest(&ev("a3", "rust", "mentions", 40)).unwrap();
        let from_restored = restored.ingest(&ev("a3", "rust", "mentions", 40)).unwrap();
        assert_eq!(from_live.len(), 2);
        assert_eq!(from_restored.len(), from_live.len());
    }

    #[test]
    fn replan_cuts_the_observed_window_so_restore_reproduces_the_gap() {
        // Replan discards the old plan's partial matches; a later restore
        // must not resurrect them from the replay.
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        let handle = register_stateful(&mut engine, "pair");
        engine.ingest(&ev("a1", "rust", "mentions", 10)).unwrap();
        assert_eq!(engine.metrics(handle).unwrap().partial_matches_live, 2);
        engine
            .replan(
                handle,
                &streamworks_query::CostBasedOrdered {
                    max_primitive_size: 1,
                },
                streamworks_query::TreeShapeKind::LeftDeep,
            )
            .unwrap();
        assert_eq!(engine.metrics(handle).unwrap().partial_matches_live, 0);

        let checkpoint = engine.checkpoint();
        assert_eq!(
            checkpoint.observed,
            vec![vec![1]],
            "the observed window restarts at the replan"
        );
        let mut restored = checkpoint.try_restore().unwrap();
        let h = restored.handles()[0];
        assert_eq!(
            restored.metrics(h).unwrap().partial_matches_live,
            0,
            "the discarded partials stay discarded"
        );
        // Live and restored agree: the completing edge matches nothing,
        // because the a1 partial died at the replan in both worlds.
        let live = engine.ingest(&ev("a2", "rust", "mentions", 20)).unwrap();
        let replayed = restored.ingest(&ev("a2", "rust", "mentions", 20)).unwrap();
        assert_eq!(live.len(), 0);
        assert_eq!(replayed.len(), live.len());
    }

    /// `json` without its one `"key":value` member (and the comma that
    /// separated it).
    fn without_member(json: &str, key: &str) -> String {
        let name = format!("\"{key}\":");
        assert_eq!(json.matches(&name).count(), 1, "{key} occurs once");
        let value = json.find(&name).unwrap() + name.len();
        let (mut depth, mut in_str, mut escaped) = (0usize, false, false);
        let mut end = json.len();
        for (off, c) in json[value..].char_indices() {
            match c {
                _ if escaped => escaped = false,
                '\\' if in_str => escaped = true,
                '"' => in_str = !in_str,
                _ if in_str => {}
                '[' | '{' => depth += 1,
                ']' | '}' if depth > 0 => depth -= 1,
                ',' | '}' if depth == 0 => {
                    end = value + off;
                    break;
                }
                _ => {}
            }
        }
        let start = value - name.len();
        match json[end..].strip_prefix(',') {
            Some(rest) => format!("{}{rest}", &json[..start]),
            None => format!("{}{}", json[..start].trim_end_matches(','), &json[end..]),
        }
    }

    #[test]
    fn a_checkpoint_missing_any_field_is_corrupt() {
        use crate::delivery::{reset_memory_sink, SinkSpec};
        let key = "checkpoint_missing_fields";
        reset_memory_sink(key);
        let mut engine = ContinuousQueryEngine::builder()
            .telemetry_level(crate::TelemetryLevel::Sampled)
            .build()
            .unwrap();
        let pair = engine
            .register_query(pair_query(Duration::from_secs(100)))
            .unwrap();
        let rpq = engine
            .register_rpq_dsl("RPQ p WINDOW 1m PATH cites")
            .unwrap();
        engine
            .subscribe_durable(pair, SinkSpec::Memory { key: key.into() })
            .unwrap();
        engine.ingest(&ev("a1", "rust", "mentions", 10)).unwrap();
        engine.pause(rpq).unwrap();
        let checkpoint = engine.checkpoint();
        assert!(checkpoint.telemetry.is_some() && !checkpoint.durable.is_empty());
        let json = checkpoint.to_json().unwrap();
        assert!(EngineCheckpoint::load(&json).is_ok());

        let keys = |value: serde_json::Value| -> Vec<String> {
            let object = value.as_object().expect("an object");
            object.iter().map(|(k, _)| k.clone()).collect()
        };
        let top = keys(serde_json::to_value(&checkpoint).unwrap());
        let config = keys(serde_json::to_value(&checkpoint.config).unwrap());
        assert_eq!(top.len(), 10);
        assert_eq!(config.len(), 4);
        // A durable cursor's pending outbox is required like the rest.
        let nested = ["outbox".to_owned()];
        for field in top.iter().chain(&config).chain(&nested) {
            match EngineCheckpoint::load(&without_member(&json, field)) {
                Err(EngineError::CorruptCheckpoint { detail, .. }) => {
                    assert!(detail.contains(field.as_str()), "{field}: {detail}");
                }
                other => panic!("a checkpoint without {field} loaded: {other:?}"),
            }
        }
        reset_memory_sink(key);
    }

    /// `json` with the `"key":value` member written first, the way
    /// `docs/MIGRATION.md` has a document written before `key` existed
    /// brought up to the current format.
    fn with_member(json: &str, key: &str, value: &str) -> String {
        json.replacen('{', &format!("{{\"{key}\":{value},"), 1)
    }

    fn assert_refused_naming(json: &str, fields: &[&str]) {
        match EngineCheckpoint::load(json) {
            Err(EngineError::CorruptCheckpoint { detail, .. }) => assert!(
                fields.iter().any(|field| detail.contains(field)),
                "{fields:?}: {detail}"
            ),
            other => panic!("a checkpoint without {fields:?} loaded: {other:?}"),
        }
    }

    #[test]
    fn checkpoints_without_paused_field_still_restore() {
        // The format has no `paused` key: a query is paused iff its
        // observation intervals have an even number of boundaries. Documents
        // written while the key existed still carry it; it is ignored, even
        // where it disagrees with the intervals.
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        let running = register_stateful(&mut engine, "running");
        let paused = register_stateful_windowed(&mut engine, "stopped", 999);
        engine.ingest(&ev("a1", "rust", "mentions", 10)).unwrap();
        engine.pause(paused).unwrap();
        assert!(!engine.is_paused(running).unwrap());
        let checkpoint = engine.checkpoint();
        assert_eq!(checkpoint.observed, vec![vec![0], vec![0, 1]]);
        let json = checkpoint.to_json().unwrap();
        assert!(!json.contains("\"paused\""));

        let stale = with_member(&json, "paused", "[true,false]");
        for document in [json, stale] {
            let restored = EngineCheckpoint::load(&document)
                .unwrap()
                .try_restore()
                .unwrap();
            let h = restored.handles();
            assert!(!restored.is_paused(h[0]).unwrap());
            assert!(restored.is_paused(h[1]).unwrap());
        }
    }

    #[test]
    fn legacy_checkpoints_without_pause_timestamps_skip_the_replay() {
        // A checkpoint written before `paused_at` and `observed` existed has
        // no record of what each query saw, so it is refused instead of
        // replayed under a guess. Written as `docs/MIGRATION.md` says, with
        // an empty interval list for the paused query, it restores with the
        // old conservative behaviour: the paused query observes nothing.
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        let handle = register_stateful(&mut engine, "pair");
        engine.ingest(&ev("a1", "rust", "mentions", 10)).unwrap();
        engine.pause(handle).unwrap();

        let json = engine.checkpoint().to_json().unwrap();
        let legacy = without_member(&without_member(&json, "paused_at"), "observed");
        assert!(!legacy.contains("\"paused_at\"") && !legacy.contains("\"observed\""));
        assert_refused_naming(&legacy, &["paused_at", "observed"]);

        let migrated = with_member(
            &with_member(&legacy, "observed", "[[]]"),
            "paused_at",
            "[null]",
        );
        let checkpoint = EngineCheckpoint::load(&migrated).unwrap();
        assert_eq!(checkpoint.live_edges.len(), 1);
        let restored = checkpoint.try_restore().unwrap();
        let h = restored.handles()[0];
        assert!(restored.is_paused(h).unwrap());
        let m = restored.metrics(h).unwrap();
        assert_eq!(m.edges_processed, 0, "the paused query skips the replay");
        assert_eq!(m.partial_matches_live, 0);
    }

    #[test]
    fn legacy_checkpoints_without_the_durable_field_still_restore() {
        // A checkpoint written before durable delivery has no `durable` key:
        // refused as it is, and restored without subscriptions once the
        // empty list is written in.
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        engine
            .register_query(pair_query(Duration::from_secs(60)))
            .unwrap();
        engine.ingest(&ev("a1", "rust", "mentions", 5)).unwrap();
        let json = engine.checkpoint().to_json().unwrap();
        let legacy = without_member(&json, "durable");
        assert!(!legacy.contains("\"durable\""));
        assert_refused_naming(&legacy, &["durable"]);

        let checkpoint = EngineCheckpoint::load(&with_member(&legacy, "durable", "[]")).unwrap();
        assert!(checkpoint.durable.is_empty());
        let mut restored = checkpoint.try_restore().unwrap();
        assert_eq!(restored.query_count(), 1);
        let h = restored.handles()[0];
        assert_eq!(restored.subscription_count(h).unwrap(), 0);
        // The window state came back with the rest of the document.
        let replayed = restored.ingest(&ev("a2", "rust", "mentions", 6)).unwrap();
        let live = engine.ingest(&ev("a2", "rust", "mentions", 6)).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed.len(), live.len());
    }

    #[test]
    fn a_paused_query_whose_observed_edges_all_expired_restores_paused_and_empty() {
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        let handle = register_stateful_windowed(&mut engine, "pair", 10);
        engine.ingest(&ev("a1", "rust", "mentions", 0)).unwrap();
        engine.pause(handle).unwrap();
        // Past the window: a1 expires, and this gap edge is never observed.
        engine.ingest(&ev("g1", "rust", "mentions", 100)).unwrap();

        let json = engine.checkpoint().to_json().unwrap();
        let checkpoint = EngineCheckpoint::load(&json).unwrap();
        assert_eq!(checkpoint.live_edges.len(), 1);
        assert_eq!(
            checkpoint.observed,
            vec![Vec::<u64>::new()],
            "the expired interval is compacted away, leaving an even (empty) list"
        );
        let mut restored = checkpoint.try_restore().unwrap();
        let h = restored.handles()[0];
        assert!(restored.is_paused(h).unwrap());
        assert_eq!(
            restored.pause_time(h).unwrap(),
            Some(Timestamp::from_secs(0))
        );
        let m = restored.metrics(h).unwrap();
        assert_eq!(
            (m.edges_processed, m.partial_matches_live),
            (0, 0),
            "no replayed edge was shown to the paused query"
        );

        engine.resume(handle).unwrap();
        restored.resume(h).unwrap();
        let keys = |ms: Vec<MatchEvent>| -> Vec<(Timestamp, Vec<String>)> {
            let mut v: Vec<_> = (ms.iter())
                .map(|m| (m.at, m.bindings.iter().map(|b| b.key.to_string()).collect()))
                .collect();
            v.sort();
            v
        };
        let mut emitted = 0;
        for event in [
            ev("a2", "rust", "mentions", 101),
            ev("g2", "go", "mentions", 102),
            ev("a3", "go", "mentions", 103),
        ] {
            let live = keys(engine.ingest(&event).unwrap());
            assert_eq!(keys(restored.ingest(&event).unwrap()), live);
            emitted += live.len();
        }
        assert_eq!(emitted, 2, "g2 and a3 pair in both orders");
    }

    #[test]
    fn durable_cursors_round_trip_and_resume_after_the_acknowledged_match() {
        use crate::delivery::{memory_sink_contents, reset_memory_sink, SinkSpec};
        let key = "checkpoint_durable_resume";
        reset_memory_sink(key);
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        let handle = engine
            .register_query(pair_query(Duration::from_secs(1_000)))
            .unwrap();
        engine
            .subscribe_durable(handle, SinkSpec::Memory { key: key.into() })
            .unwrap();
        engine.ingest(&ev("a1", "rust", "mentions", 1)).unwrap();
        engine.ingest(&ev("a2", "rust", "mentions", 2)).unwrap();
        assert_eq!(memory_sink_contents(key).len(), 2);

        // Through JSON, like a real restart.
        let json = engine.checkpoint().to_json().unwrap();
        let checkpoint = EngineCheckpoint::load(&json).unwrap();
        assert_eq!(checkpoint.durable.len(), 1);
        assert_eq!(checkpoint.durable[0].cursor, 2);
        assert!(checkpoint.durable[0].outbox.is_empty());

        let mut restored = checkpoint.try_restore().unwrap();
        // The replayed matches were suppressed: nothing was re-delivered.
        assert_eq!(memory_sink_contents(key).len(), 2);
        // A fresh match after the restore is delivered exactly once.
        restored.ingest(&ev("a3", "rust", "mentions", 3)).unwrap();
        let lines = memory_sink_contents(key);
        assert_eq!(lines.len(), 6, "2 checkpointed + 4 from the a3 pairings");
        let h = restored.handles()[0];
        assert_eq!(restored.metrics(h).unwrap().cursor_lag, 0);
        reset_memory_sink(key);
    }

    #[test]
    fn durable_cursors_survive_pause_resume_churn_across_the_restore() {
        use crate::delivery::{memory_sink_contents, reset_memory_sink, SinkSpec};
        let key = "checkpoint_durable_paused";
        reset_memory_sink(key);
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        let handle = engine
            .register_query(pair_query(Duration::from_secs(1_000)))
            .unwrap();
        engine
            .subscribe_durable(handle, SinkSpec::Memory { key: key.into() })
            .unwrap();
        engine.ingest(&ev("a1", "rust", "mentions", 1)).unwrap();
        // Checkpoint while the query is paused: the durable cursor is
        // captured alongside the paused flag.
        engine.pause(handle).unwrap();
        let checkpoint = engine.checkpoint();
        assert_eq!(checkpoint.durable.len(), 1);
        assert_eq!(checkpoint.durable[0].cursor, 0, "no match delivered yet");

        let mut restored = checkpoint.try_restore().unwrap();
        let h = restored.handles()[0];
        assert!(restored.is_paused(h).unwrap());
        assert_eq!(restored.subscription_count(h).unwrap(), 1);
        // While paused nothing is delivered; after the resume the pre-pause
        // partial completes and reaches the durable sink exactly once.
        restored.ingest(&ev("g1", "go", "mentions", 2)).unwrap();
        assert!(memory_sink_contents(key).is_empty());
        restored.resume(h).unwrap();
        restored.ingest(&ev("a2", "rust", "mentions", 3)).unwrap();
        assert_eq!(memory_sink_contents(key).len(), 2);
        reset_memory_sink(key);
    }

    #[test]
    fn a_truncated_delivery_log_is_a_corrupt_checkpoint_with_a_byte_offset() {
        use crate::delivery::SinkSpec;
        let dir = std::env::temp_dir().join("sw_checkpoint_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir
            .join(format!("truncated_{}.log", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let _ = std::fs::remove_file(&path);

        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        let handle = engine
            .register_query(pair_query(Duration::from_secs(1_000)))
            .unwrap();
        engine
            .subscribe_durable(handle, SinkSpec::LogFile { path: path.clone() })
            .unwrap();
        engine.ingest(&ev("a1", "rust", "mentions", 1)).unwrap();
        engine.ingest(&ev("a2", "rust", "mentions", 2)).unwrap();
        let checkpoint = engine.checkpoint();
        assert_eq!(checkpoint.durable[0].cursor, 2);
        drop(engine);

        // An external actor truncates the delivery log to one line: the
        // acknowledged prefix is gone and cannot be reconstructed.
        let logged = std::fs::read_to_string(&path).unwrap();
        let first_line_end = logged.find('\n').unwrap() + 1;
        std::fs::write(&path, &logged[..first_line_end]).unwrap();

        let err = match checkpoint.try_restore() {
            Err(err) => err,
            Ok(_) => panic!("restore rejects the truncated delivery log"),
        };
        match err {
            EngineError::CorruptCheckpoint { offset, detail } => {
                assert_eq!(offset, Some(first_line_end));
                assert!(detail.contains("1 acknowledged lines"));
                assert!(detail.contains("expects 2"));
            }
            other => panic!("expected CorruptCheckpoint, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_engine_round_trips() {
        let engine = ContinuousQueryEngine::builder().build().unwrap();
        let checkpoint = engine.checkpoint();
        assert!(checkpoint.plans.is_empty());
        assert!(checkpoint.live_edges.is_empty());
        let restored = checkpoint.try_restore().unwrap();
        assert_eq!(restored.query_count(), 0);
        assert_eq!(restored.graph().live_edge_count(), 0);
    }

    /// A labelled tenant pair (both mention edges carry `eq("label", ..)`)
    /// with single-edge primitives: the lifted-coverable template shape.
    fn register_tenant(
        engine: &mut ContinuousQueryEngine,
        name: &str,
        label: &str,
    ) -> crate::QueryHandle {
        use streamworks_query::Predicate;
        let q = QueryGraphBuilder::new(name)
            .window(Duration::from_secs(1_000))
            .vertex("a1", "Article")
            .vertex("a2", "Article")
            .vertex("k", "Keyword")
            .edge_with("a1", "mentions", "k", vec![Predicate::eq("label", label)])
            .edge_with("a2", "mentions", "k", vec![Predicate::eq("label", label)])
            .build()
            .unwrap();
        engine
            .register_query_with(
                q,
                &streamworks_query::CostBasedOrdered {
                    max_primitive_size: 1,
                },
                streamworks_query::TreeShapeKind::LeftDeep,
            )
            .unwrap()
    }

    fn labelled_ev(src: &str, dst: &str, label: &str, t: i64) -> EdgeEvent {
        ev(src, dst, "mentions", t).with_attr("label", label)
    }

    #[test]
    fn restore_re_interns_shared_subtrees_and_lifted_entries() {
        // Two lifted constant-variants plus two exact structural copies. In
        // each family the first query advertises its root and interns its
        // two single-edge leaves (one entry, two subscriptions), and the
        // second promotes the root into a whole-pair entry it subscribes to.
        // The labelled family's two entries dispatch on a lifted constant
        // and count as subtrees; the plain family's are one leaf search each.
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        register_tenant(&mut engine, "t_politics", "politics");
        register_tenant(&mut engine, "t_sports", "sports");
        register_stateful(&mut engine, "pair1");
        register_stateful(&mut engine, "pair2");
        engine
            .ingest(&labelled_ev("a1", "rust", "politics", 10))
            .unwrap();
        engine
            .ingest(&labelled_ev("s1", "football", "sports", 11))
            .unwrap();
        let dedup = |m: crate::EngineMetrics| {
            (
                (m.distinct_subtrees, m.subscribed_subtrees, m.lifted_entries),
                (m.distinct_primitives, m.subscribed_primitives),
            )
        };
        assert_eq!(dedup(engine.engine_metrics()), ((2, 3, 2), (2, 3)));

        // Through JSON, like a real restart. Registration order is the
        // query-id order, so the advertise-then-promote choreography — and
        // with it every sharing role — reproduces exactly.
        let json = engine.checkpoint().to_json().unwrap();
        let mut restored = EngineCheckpoint::load(&json)
            .unwrap()
            .try_restore()
            .unwrap();
        assert_eq!(
            dedup(restored.engine_metrics()),
            ((2, 3, 2), (2, 3)),
            "restore re-interns the shared subtree and lifted entries"
        );

        // The replayed partials live inside the restored entries' matchers:
        // the completing mentions produce identical matches on both engines,
        // and the covered tenant is served through lifted constant dispatch.
        let key = |ms: &[MatchEvent]| {
            let mut v: Vec<(String, Vec<u64>)> = ms
                .iter()
                .map(|m| (m.query_name.clone(), m.edges.iter().map(|e| e.0).collect()))
                .collect();
            v.sort();
            v
        };
        for complete in [
            labelled_ev("a2", "rust", "politics", 20),
            labelled_ev("s2", "football", "sports", 21),
        ] {
            let direct = key(&engine.ingest(&complete).unwrap());
            let replayed = key(&restored.ingest(&complete).unwrap());
            assert!(!direct.is_empty());
            assert_eq!(replayed, direct);
        }
        assert!(
            restored.engine_metrics().lifted_dispatch_hits > 0,
            "constant dispatch served the covered tenant"
        );
    }

    #[test]
    fn restore_re_interns_entries_with_paused_observation_intervals() {
        // The covered subscriber is paused across the checkpoint: restore
        // must rebuild the shared entry, keep the subscriber's observation
        // gap, and let post-resume matches join pre-checkpoint state.
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        register_stateful(&mut engine, "pair1");
        let covered = register_stateful(&mut engine, "pair2");
        engine.ingest(&ev("a1", "rust", "mentions", 10)).unwrap();
        engine.pause(covered).unwrap();
        engine.ingest(&ev("g1", "go", "mentions", 20)).unwrap();

        let json = engine.checkpoint().to_json().unwrap();
        let mut restored = EngineCheckpoint::load(&json)
            .unwrap()
            .try_restore()
            .unwrap();
        // One entry for pair1's two leaves, one — advertised by pair1,
        // promoted by pair2 — serving pair2 whole.
        let m = restored.engine_metrics();
        assert_eq!((m.distinct_primitives, m.subscribed_primitives), (2, 3));
        let h = restored
            .handles()
            .into_iter()
            .find(|&h| restored.plan(h).unwrap().query.name() == "pair2")
            .unwrap();
        assert!(restored.is_paused(h).unwrap());
        restored.resume(h).unwrap();

        // a2 completes the rust pair for both queries; the go mention from
        // pair2's gap completes only for pair1 — the restored entry serves
        // both, gated per subscriber.
        let matches = restored.ingest(&ev("a2", "rust", "mentions", 30)).unwrap();
        assert_eq!(
            matches.iter().filter(|m| m.query_name == "pair1").count(),
            2
        );
        assert_eq!(
            matches.iter().filter(|m| m.query_name == "pair2").count(),
            2,
            "the pre-pause rust partial completes for the resumed subscriber"
        );
        let gap = restored.ingest(&ev("g2", "go", "mentions", 31)).unwrap();
        assert_eq!(gap.iter().filter(|m| m.query_name == "pair1").count(), 2);
        assert_eq!(
            gap.iter().filter(|m| m.query_name == "pair2").count(),
            0,
            "the gap-anchored go partial stays invisible to the paused-then-resumed query"
        );
    }
}
