//! Experiment E6 (bench component): effect of the query window `tW` on
//! end-to-end cost. Larger windows retain more edges and more partial matches,
//! so per-edge cost and match counts grow with the window.
//!
//! The `skewed_timestamps` case stresses **exact expiry**: its events carry
//! out-of-order timestamps (every 8th event lags by up to half a window), so
//! partial matches enter the stores with non-monotone earliest values — the
//! regime the pre-unification `MatchStore` FIFO queue could not sweep past
//! (stale matches were retained behind an in-window head, inflating
//! `partial_matches_live` and every probe over the bloated buckets). The
//! unified `SharedJoinStore` sweeps it exactly: its expiry pass reads the
//! metadata of every held match, wherever in its ring the match was filed,
//! and moves no survivor.
//!
//! Set `STREAMWORKS_BENCH_SMOKE=1` to run on CI-sized inputs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use streamworks_core::{ContinuousQueryEngine, EngineConfig};
use streamworks_graph::{Duration, EdgeEvent, Timestamp};
use streamworks_workloads::queries::labelled_news_query;
use streamworks_workloads::{NewsConfig, NewsStreamGenerator};

/// Smoke-size inputs for CI (see `STREAMWORKS_BENCH_SMOKE`).
fn smoke() -> bool {
    std::env::var_os("STREAMWORKS_BENCH_SMOKE").is_some()
}

fn workload(articles: usize) -> Vec<EdgeEvent> {
    NewsStreamGenerator::new(NewsConfig {
        articles,
        planted_events: vec![("politics".into(), 3)],
        ..Default::default()
    })
    .generate()
    .events
}

fn bench_window_sweep(c: &mut Criterion) {
    let events = workload(if smoke() { 150 } else { 1_500 });

    let mut group = c.benchmark_group("window_expiry");
    group.sample_size(10);
    group.throughput(Throughput::Elements(events.len() as u64));

    for &window_mins in &[1i64, 10, 60, 360] {
        let query = labelled_news_query("politics", Duration::from_mins(window_mins));
        group.bench_with_input(
            BenchmarkId::new("window_minutes", window_mins),
            &query,
            |b, query| {
                b.iter(|| {
                    let mut engine = ContinuousQueryEngine::new(EngineConfig::default());
                    engine.register_query(query.clone()).unwrap();
                    let mut matches = 0u64;
                    for ev in &events {
                        matches += engine.ingest(ev).unwrap().len() as u64;
                    }
                    matches
                })
            },
        );
    }
    group.finish();
}

fn bench_skewed_expiry(c: &mut Criterion) {
    // Jitter the stream: every 8th event is delivered with a timestamp up to
    // half the window in the past (bounded skew, as from a lagging producer).
    // Matches seeded by — or merged with — those edges carry older earliest
    // values than matches already stored, exactly the ordering the exact
    // (every held match, not a FIFO head) expiry sweep exists for.
    let window = Duration::from_mins(10);
    let mut events = workload(if smoke() { 150 } else { 1_500 });
    for (i, ev) in events.iter_mut().enumerate() {
        if i % 8 == 0 {
            let lag = (i as i64 % 5 + 1) * (window.as_micros() / 10);
            ev.timestamp = Timestamp::from_micros((ev.timestamp.as_micros() - lag).max(0));
        }
    }
    let query = labelled_news_query("politics", window);

    let mut group = c.benchmark_group("window_expiry");
    group.sample_size(10);
    group.throughput(Throughput::Elements(events.len() as u64));
    group.bench_function(BenchmarkId::new("skewed_timestamps", events.len()), |b| {
        b.iter(|| {
            let mut engine = ContinuousQueryEngine::new(EngineConfig::default());
            let handle = engine.register_query(query.clone()).unwrap();
            let mut matches = 0u64;
            for ev in &events {
                matches += engine.ingest(ev).unwrap().len() as u64;
            }
            // Live state after the run is part of what this case measures:
            // inexact expiry retains skewed stragglers, exact expiry holds
            // only genuinely in-window matches.
            (
                matches,
                engine.metrics(handle).unwrap().partial_matches_live,
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_window_sweep, bench_skewed_expiry);
criterion_main!(benches);
