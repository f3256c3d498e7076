//! Deterministic fault-injection (chaos) suite.
//!
//! Run with:
//!
//! ```text
//! cargo test --features failpoints --test chaos
//! ```
//!
//! Every scenario arms one of the named failpoint sites (see
//! `streamworks::failpoint`), drives the engine, and pins down the exact
//! containment contract of ARCHITECTURE.md's "Failure model":
//!
//! * Sink quarantine: a subscriber hit by an injected delivery error is
//!   detached and recorded, and the other subscribers miss no event. (A
//!   subscriber that panics needs no failpoint; `tests/lifecycle.rs`
//!   checks it.)
//! * Durable delivery: a flaky transport storm converges back to `Active`
//!   within the retry budget, quarantine recovers through probation, and a
//!   crash at *any* failpoint site followed by checkpoint-restore leaves
//!   every durable delivery log bit-identical to an uninterrupted run.

#![cfg(feature = "failpoints")]

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration as StdDuration;

use streamworks::engine::EngineCheckpoint;
use streamworks::failpoint::{self, FailAction};
use streamworks::{
    clear_endpoint, memory_sink_contents, register_endpoint, reset_memory_sink,
    ContinuousQueryEngine, EdgeEvent, MatchEvent, QueryHandle, RetryPolicy, SinkSpec,
    SubscriptionHealth, Timestamp, Transport,
};

/// The failpoint registry is process-global; chaos scenarios must not run
/// interleaved. Lock recovery keeps one panicking test from wedging the rest.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    failpoint::clear();
    guard
}

const PAIR_DSL: &str = "QUERY pair WINDOW 1h \
     MATCH (a1:Article)-[:mentions]->(k:Keyword), (a2:Article)-[:mentions]->(k)";

/// Registers the pair query decomposed into *single-edge* primitives, so
/// completing a match requires a join climb and the store holds partial
/// matches across a checkpoint. (The default planner would fold both edges
/// into one primitive that completes every match in its search.)
fn register_pair(engine: &mut ContinuousQueryEngine) -> streamworks::QueryHandle {
    let query = streamworks::parse_query(PAIR_DSL).unwrap();
    engine
        .register_query_with(
            query,
            &streamworks::CostBasedOrdered {
                max_primitive_size: 1,
            },
            streamworks::TreeShapeKind::LeftDeep,
        )
        .unwrap()
}

/// A stream where article `a{i}` mentions keyword `k{i % collisions}`:
/// every repeated keyword completes pair matches.
fn stream(n: usize, collisions: usize) -> Vec<EdgeEvent> {
    (0..n)
        .map(|i| {
            EdgeEvent::new(
                format!("a{i}"),
                "Article",
                format!("k{}", i % collisions),
                "Keyword",
                "mentions",
                Timestamp::from_secs(i as i64),
            )
        })
        .collect()
}

/// Order-insensitive signature of a match multiset.
fn multiset(events: &[MatchEvent]) -> Vec<String> {
    let mut keys: Vec<String> = events.iter().map(|e| e.render()).collect();
    keys.sort();
    keys
}

/// The match multiset an unfaulted engine reports for `events`, fed in the
/// same batch shape.
fn reference_multiset(events: &[EdgeEvent], batch: usize) -> Vec<String> {
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    register_pair(&mut engine);
    let mut all = Vec::new();
    for chunk in events.chunks(batch) {
        all.extend(engine.ingest(chunk).unwrap());
    }
    multiset(&all)
}

#[test]
fn injected_sink_delivery_error_quarantines_exactly_the_target_token() {
    let _guard = serial();
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    let handle = register_pair(&mut engine);
    let (tx_a, seen_a) = mpsc::channel();
    let sub_a = engine
        .subscribe(handle, move |m: MatchEvent| {
            let _ = tx_a.send(m);
        })
        .unwrap();
    let (tx_b, seen_b) = mpsc::channel();
    let sub_b = engine
        .subscribe(handle, move |m: MatchEvent| {
            let _ = tx_b.send(m);
        })
        .unwrap();

    // Token indexes select the victim: quarantine b, leave a alone.
    failpoint::clear();
    failpoint::configure(
        "sink-delivery",
        sub_b.token() as usize,
        FailAction::Error,
        0,
    );
    let matches = engine.ingest(&stream(8, 2)[..]).unwrap();
    assert!(!matches.is_empty());
    assert_eq!(seen_a.try_iter().count(), matches.len());
    assert!(
        seen_b.try_iter().count() < matches.len(),
        "the quarantined sink stopped receiving at the injected failure"
    );
    assert_eq!(
        engine.subscription_health(sub_a).unwrap(),
        SubscriptionHealth::Active
    );
    assert!(matches!(
        engine.subscription_health(sub_b).unwrap(),
        SubscriptionHealth::Quarantined(_)
    ));
    failpoint::clear();
}

#[test]
fn ingest_front_faults_leave_the_engine_consistent() {
    let _guard = serial();
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    register_pair(&mut engine);
    let events = stream(4, 2);

    // Delay: pure latency, no behavioural change.
    failpoint::clear();
    failpoint::configure("ingest-front", 0, FailAction::Delay(5), 0);
    let first = engine.ingest(&events[..2]).unwrap();

    // Panic: unwinds before any state is touched; the engine keeps working.
    failpoint::configure("ingest-front", 0, FailAction::Panic, 0);
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = engine.ingest(&events[2..]);
    }));
    assert!(panicked.is_err());
    failpoint::clear();
    let second = engine.ingest(&events[2..]).unwrap();
    assert_eq!(
        multiset(&first).len() + multiset(&second).len(),
        reference_multiset(&events, 2).len(),
        "the aborted call absorbed nothing: replaying it reports every match"
    );
}

// ---------------------------------------------------------------------------
// Durable delivery: retry storms, quarantine recovery, crash-exact resume.
// ---------------------------------------------------------------------------

/// A [`Transport`] that refuses the first `failures_left` sends, then
/// records every line it accepts. Failed sends record nothing, so the
/// recorded lines are exactly the acknowledged deliveries.
struct FlakyRecorder {
    lines: Arc<Mutex<Vec<String>>>,
    failures_left: Arc<AtomicU64>,
}

impl Transport for FlakyRecorder {
    fn send(&mut self, line: &str, _timeout: StdDuration) -> Result<(), String> {
        if self.failures_left.load(Ordering::SeqCst) > 0 {
            self.failures_left.fetch_sub(1, Ordering::SeqCst);
            return Err("storm: endpoint refused the line".to_owned());
        }
        self.lines
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(line.to_owned());
        Ok(())
    }
}

/// A [`Transport`] behind a breaker: every send fails while `broken`, and
/// records the line once the breaker is closed.
struct BreakerRecorder {
    lines: Arc<Mutex<Vec<String>>>,
    broken: Arc<AtomicBool>,
}

impl Transport for BreakerRecorder {
    fn send(&mut self, line: &str, _timeout: StdDuration) -> Result<(), String> {
        if self.broken.load(Ordering::SeqCst) {
            return Err("endpoint down".to_owned());
        }
        self.lines
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(line.to_owned());
        Ok(())
    }
}

/// The sorted delivery lines an unfaulted run produces: durable sinks write
/// `MatchEvent::render()` lines, so the match multiset doubles as the
/// expected delivery log content.
fn sorted_lines(mut lines: Vec<String>) -> Vec<String> {
    lines.sort();
    lines
}

#[test]
fn a_retry_storm_converges_back_to_active_within_the_policy_budget() {
    let _guard = serial();
    let events = stream(32, 4);
    let batch = 8;
    let expected = reference_multiset(&events, batch);
    let address = "chaos-retry-storm";
    let lines = Arc::new(Mutex::new(Vec::new()));
    let failures_left = Arc::new(AtomicU64::new(3));
    {
        let lines = Arc::clone(&lines);
        let failures_left = Arc::clone(&failures_left);
        register_endpoint(address, move |_| {
            Ok(Box::new(FlakyRecorder {
                lines: Arc::clone(&lines),
                failures_left: Arc::clone(&failures_left),
            }) as Box<dyn Transport>)
        });
    }
    let mut engine = ContinuousQueryEngine::builder()
        .retry_policy(RetryPolicy {
            max_attempts: 8,
            backoff_base_ms: 0,
            backoff_cap_ms: 0,
            attempt_timeout_ms: 1_000,
        })
        .build()
        .unwrap();
    let handle = register_pair(&mut engine);
    let sub = engine
        .subscribe_durable(
            handle,
            SinkSpec::Endpoint {
                address: address.to_owned(),
            },
        )
        .unwrap();
    for chunk in events.chunks(batch) {
        engine.ingest(chunk).unwrap();
    }
    // Convergence is bounded by the retry budget: each flush is at most
    // one more retry, and the transport injects exactly 3 failures.
    for _ in 0..8 {
        if engine.flush_deliveries() == 0 {
            break;
        }
    }
    assert_eq!(
        engine.subscription_health(sub).unwrap(),
        SubscriptionHealth::Active,
        "the storm must converge back to Active"
    );
    let metrics = engine.metrics(handle).unwrap();
    assert!(
        metrics.delivery_retries >= 3,
        "3 injected failures force >= 3 retries, got {}",
        metrics.delivery_retries
    );
    assert!(
        metrics.delivery_recoveries >= 1,
        "converging back to Active is a recovery"
    );
    assert_eq!(metrics.cursor_lag, 0, "nothing pending");
    let got = sorted_lines(lines.lock().unwrap_or_else(PoisonError::into_inner).clone());
    assert_eq!(got, expected, "the storm lost or duplicated matches");
    clear_endpoint(address);
}

#[test]
fn a_quarantined_endpoint_recovers_through_probation() {
    let _guard = serial();
    let events = stream(32, 4);
    let batch = 8;
    let expected = reference_multiset(&events, batch);
    let address = "chaos-quarantine";
    let lines = Arc::new(Mutex::new(Vec::new()));
    let broken = Arc::new(AtomicBool::new(true));
    {
        let lines = Arc::clone(&lines);
        let broken = Arc::clone(&broken);
        register_endpoint(address, move |_| {
            Ok(Box::new(BreakerRecorder {
                lines: Arc::clone(&lines),
                broken: Arc::clone(&broken),
            }) as Box<dyn Transport>)
        });
    }
    // Tiny budget, huge backoff cap: the subscription quarantines fast and
    // the automatic probe stays out of the picture, so recovery is observed
    // through the explicit `resubscribe` probation path.
    let mut engine = ContinuousQueryEngine::builder()
        .retry_policy(RetryPolicy {
            max_attempts: 2,
            backoff_base_ms: 0,
            backoff_cap_ms: 600_000,
            attempt_timeout_ms: 1_000,
        })
        .build()
        .unwrap();
    let handle = register_pair(&mut engine);
    let sub = engine
        .subscribe_durable(
            handle,
            SinkSpec::Endpoint {
                address: address.to_owned(),
            },
        )
        .unwrap();
    for chunk in events.chunks(batch) {
        engine.ingest(chunk).unwrap();
    }
    assert!(
        matches!(
            engine.subscription_health(sub).unwrap(),
            SubscriptionHealth::Quarantined(_)
        ),
        "exhausted budget must quarantine"
    );
    assert!(
        lines
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_empty(),
        "nothing delivered while the endpoint is down"
    );
    // Fix the endpoint, then put the subscription on probation.
    broken.store(false, Ordering::SeqCst);
    engine.resubscribe(sub).unwrap();
    assert_eq!(engine.flush_deliveries(), 0, "drained");
    assert_eq!(
        engine.subscription_health(sub).unwrap(),
        SubscriptionHealth::Active,
        "probation must promote back to Active"
    );
    let got = sorted_lines(lines.lock().unwrap_or_else(PoisonError::into_inner).clone());
    assert_eq!(got, expected, "quarantine must not lose a single match");
    assert_eq!(engine.metrics(handle).unwrap().cursor_lag, 0);
    clear_endpoint(address);
}

#[test]
fn ack_failures_are_exactly_once_for_owned_sinks_at_least_once_for_endpoints() {
    let _guard = serial();
    let events = stream(16, 2);
    let expected = reference_multiset(&events, 4);

    // Owned sink (Memory): the reconnect-per-retry truncates the
    // delivered-but-unacknowledged line away, so the redelivery is
    // *exactly*-once despite the injected ack failure.
    failpoint::clear();
    failpoint::configure("delivery-ack", 0, FailAction::Error, 1);
    let key = "chaos_ack_memory";
    reset_memory_sink(key);
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    let handle = register_pair(&mut engine);
    engine
        .subscribe_durable(
            handle,
            SinkSpec::Memory {
                key: key.to_owned(),
            },
        )
        .unwrap();
    for chunk in events.chunks(4) {
        engine.ingest(chunk).unwrap();
    }
    for _ in 0..4 {
        if engine.flush_deliveries() == 0 {
            break;
        }
    }
    assert_eq!(
        sorted_lines(memory_sink_contents(key)),
        expected,
        "owned sinks are exactly-once even when the ack fails"
    );
    assert!(engine.metrics(handle).unwrap().delivery_retries >= 1);

    // External endpoint: the engine cannot reach inside it to truncate, so
    // the same injected ack failure yields exactly one duplicated line —
    // at-least-once, never lossy.
    failpoint::clear();
    failpoint::configure("delivery-ack", 0, FailAction::Error, 1);
    let address = "chaos-ack-endpoint";
    let lines = Arc::new(Mutex::new(Vec::new()));
    {
        let lines = Arc::clone(&lines);
        register_endpoint(address, move |_| {
            Ok(Box::new(FlakyRecorder {
                lines: Arc::clone(&lines),
                failures_left: Arc::new(AtomicU64::new(0)),
            }) as Box<dyn Transport>)
        });
    }
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    let handle = register_pair(&mut engine);
    engine
        .subscribe_durable(
            handle,
            SinkSpec::Endpoint {
                address: address.to_owned(),
            },
        )
        .unwrap();
    for chunk in events.chunks(4) {
        engine.ingest(chunk).unwrap();
    }
    for _ in 0..4 {
        if engine.flush_deliveries() == 0 {
            break;
        }
    }
    let got = lines.lock().unwrap_or_else(PoisonError::into_inner).clone();
    assert_eq!(
        got.len(),
        expected.len() + 1,
        "the unacknowledged endpoint line is redelivered once"
    );
    let mut deduped = got.clone();
    deduped.sort();
    deduped.dedup();
    assert_eq!(deduped, expected, "no line is lost, only duplicated");
    clear_endpoint(address);
    failpoint::clear();
}

// --- Crash-point harness -------------------------------------------------

/// Scratch path for a durable delivery log, unique per test and process.
fn scratch_log(name: &str) -> String {
    let dir = std::env::temp_dir().join("sw_chaos_delivery");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}_{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path.to_string_lossy().into_owned()
}

/// Drives batches `range` of `events` (global batch indices) with a fixed
/// pause/resume choreography keyed to those indices, so an interrupted run,
/// its restored continuation, and the uninterrupted reference all perform
/// the *same* lifecycle churn.
fn drive_with_churn(
    engine: &mut ContinuousQueryEngine,
    handle: QueryHandle,
    events: &[EdgeEvent],
    batch: usize,
    range: std::ops::Range<usize>,
) {
    for i in range {
        let lo = i * batch;
        let hi = usize::min(lo + batch, events.len());
        if i == 1 || i == 5 {
            engine.pause(handle).unwrap();
        }
        if i == 2 || i == 6 {
            engine.resume(handle).unwrap();
        }
        engine.ingest(&events[lo..hi]).unwrap();
    }
}

/// Kill → restore → continue, at every failpoint site, under pause/resume
/// churn: the durable delivery log must end up *bit-identical* to an
/// uninterrupted run's. (The emission order is deterministic: matches are
/// delivered as their completing edges arrive.)
///
/// The crash is simulated by abandoning the engine wherever the armed panic
/// leaves it — including delivered-but-unacknowledged lines on disk, which
/// the restore's truncate-to-cursor reconnect must discard.
#[test]
fn crash_at_every_site_restores_bit_identical_delivery_logs() {
    let _guard = serial();
    let events = stream(64, 4);
    let batch = 8; // 8 batches; checkpoint at the batch-4 boundary
    let sites = ["ingest-front", "delivery-retry", "delivery-ack"];
    // Uninterrupted reference run with the same choreography.
    let reference_path = scratch_log("reference");
    let mut reference = ContinuousQueryEngine::builder().build().unwrap();
    let rh = register_pair(&mut reference);
    reference
        .subscribe_durable(
            rh,
            SinkSpec::LogFile {
                path: reference_path.clone(),
            },
        )
        .unwrap();
    drive_with_churn(&mut reference, rh, &events, batch, 0..8);
    assert_eq!(reference.flush_deliveries(), 0);
    drop(reference);
    let want = std::fs::read(&reference_path).unwrap();
    assert!(!want.is_empty(), "the reference run must deliver matches");

    for site in sites {
        failpoint::clear();
        let path = scratch_log(&format!("crash_{site}"));
        // First life: run to the midpoint, checkpoint, then arm the crash
        // and continue until it strikes.
        let mut first = ContinuousQueryEngine::builder().build().unwrap();
        let h = register_pair(&mut first);
        first
            .subscribe_durable(h, SinkSpec::LogFile { path: path.clone() })
            .unwrap();
        drive_with_churn(&mut first, h, &events, batch, 0..4);
        let json = first.checkpoint().to_json().unwrap();
        failpoint::configure(site, 0, FailAction::Panic, 1);
        let crashed = std::panic::catch_unwind(AssertUnwindSafe(|| {
            drive_with_churn(&mut first, h, &events, batch, 4..8);
        }));
        assert!(crashed.is_err(), "{site}: the armed panic must strike");
        failpoint::clear();
        drop(first); // the "kill": whatever it wrote past the cursor stays on disk

        // Second life: restore, which truncates the log back to the
        // acknowledged cursor, then replay the post-checkpoint half.
        let checkpoint = EngineCheckpoint::load(&json).unwrap();
        let mut second = checkpoint
            .try_restore()
            .unwrap_or_else(|e| panic!("{site}: restore failed: {e:?}"));
        let h2 = second.handles()[0];
        drive_with_churn(&mut second, h2, &events, batch, 4..8);
        assert_eq!(
            second.flush_deliveries(),
            0,
            "{site}: restored run left deliveries pending"
        );
        assert_eq!(
            engine_health(&second),
            SubscriptionHealth::Active,
            "{site}: durable subscriber must end Active"
        );
        drop(second);
        let got = std::fs::read(&path).unwrap();
        assert_eq!(
            got, want,
            "{site}: crash+restore delivery log diverges from the uninterrupted run"
        );
    }
    failpoint::clear();
}

/// Health of the single durable subscription of the engine's only query —
/// restored engines hand back no [`streamworks::SubscriptionId`], so it is
/// recovered through `durable_subscriptions`.
fn engine_health(engine: &ContinuousQueryEngine) -> SubscriptionHealth {
    let handle = engine.handles()[0];
    let sub = engine.durable_subscriptions(handle).unwrap()[0];
    engine.subscription_health(sub).unwrap()
}
