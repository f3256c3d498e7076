//! Which end of the path roots an RPQ's spanning trees.
//!
//! The matcher roots its trees at whichever end of the path has fewer live
//! edges able to start one, and turns around — rebuilding its index by an
//! exact, silent replay — when the label rates cross (see the `rpq` module
//! docs, "Which end roots the trees"). These streams are built so that the
//! rates stay put, cross over and back, or cross while the query is paused,
//! before it registers and across a checkpoint cut; every emission is
//! checked against the brute-force oracle of `common/rpq_oracle.rs` or
//! against an engine that never stopped.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use streamworks::engine::EngineCheckpoint;
use streamworks::{
    parse_rpq, ContinuousQueryEngine, EdgeEvent, QueryHandle, RpqEnd, RpqQuery, Timestamp,
};

#[path = "common/rpq_oracle.rs"]
mod rpq_oracle;
use rpq_oracle::{assert_valid_witness, pair_of, Oracle};

/// The labels the streams draw from: `d` is outside every pattern here.
const LABELS: [&str; 4] = ["a", "b", "c", "d"];

/// A stream over `vertices` vertices in phases of `(events, label weights)`,
/// ~30 ms of stream time per event; `jitter_ms > 0` pushes timestamps back
/// after the arrival order is fixed.
fn phased_events(
    phases: &[(usize, [u32; 4])],
    vertices: usize,
    jitter_ms: i64,
    seed: u64,
) -> Vec<EdgeEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0i64;
    let mut events = Vec::new();
    for &(count, weights) in phases {
        for _ in 0..count {
            t += rng.gen_range(1..=60i64);
            let mut ticket = rng.gen_range(0..weights.iter().sum::<u32>());
            let label = (LABELS.iter().zip(weights))
                .find(|&(_, w)| {
                    let hit = ticket < w;
                    ticket = ticket.saturating_sub(w);
                    hit
                })
                .map(|(l, _)| *l)
                .expect("ticket below the total weight");
            let src = format!("v{}", rng.gen_range(0..vertices));
            let dst = format!("v{}", rng.gen_range(0..vertices));
            let ts = Timestamp::from_millis((t - rng.gen_range(0..=jitter_ms)).max(0));
            events.push(EdgeEvent::new(src, "V", dst, "V", label, ts));
        }
    }
    events
}

/// What one replay against the oracle saw.
#[derive(Debug, Default)]
struct Run {
    matches: usize,
    /// Turns observed between events, by the end turned to.
    to_target: usize,
    to_source: usize,
}

/// Replays `events` one at a time through a fresh engine and the oracle,
/// asserting after every event that the emitted pairs are exactly the
/// oracle's newly live ones, each with a valid witness.
fn replay_against_oracle(rpq: &RpqQuery, events: &[EdgeEvent]) -> Run {
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    let handle = engine.register_rpq(rpq.clone());
    let mut oracle = Oracle::new(rpq);
    let mut run = Run::default();
    let mut end = RpqEnd::Source;
    let mut now: Option<Timestamp> = None;
    for (i, ev) in events.iter().enumerate() {
        let at = now.map_or(ev.timestamp, |n| n.max(ev.timestamp));
        now = Some(at);
        let matches = engine.ingest(ev).unwrap();
        let mut got = Vec::new();
        for m in matches.iter().filter(|m| m.handle() == handle) {
            assert_valid_witness(&engine, &oracle, m, at);
            got.push(pair_of(m));
        }
        got.sort();
        assert_eq!(got, oracle.ingest(ev, at), "event #{i} ({ev:?}) at {at:?}");
        run.matches += got.len();
        let now_end = engine.metrics(handle).unwrap().rpq_end;
        match (end, now_end) {
            (RpqEnd::Source, RpqEnd::Target) => run.to_target += 1,
            (RpqEnd::Target, RpqEnd::Source) => run.to_source += 1,
            _ => {}
        }
        end = now_end;
    }
    let m = engine.metrics(handle).unwrap();
    assert_eq!(m.rpq_end_switches as usize, run.to_target + run.to_source);
    run
}

#[test]
fn a_rare_first_label_keeps_the_trees_at_the_sources() {
    // `a` starts every path and is the rarest label throughout, so the
    // source end always has fewer live root edges than the `c` end.
    let rpq = parse_rpq("RPQ rare_first WINDOW 3s PATH a b* c").unwrap();
    for seed in 0..4 {
        let events = phased_events(&[(400, [1, 6, 8, 2])], 8, 0, 40 + seed);
        let run = replay_against_oracle(&rpq, &events);
        assert_eq!((run.to_target, run.to_source), (0, 0), "seed {seed}");
        assert!(run.matches > 0, "seed {seed}: the stream found no path");
    }
}

#[test]
fn label_rates_crossing_twice_turn_the_trees_and_back_exactly() {
    // Three phases of ~6 s each over a 3 s window: `c` common, then `a`,
    // then `c` again, so the rarer end changes twice and each crossing
    // is more than a window after the previous turn.
    let phases = [
        (200, [1, 5, 8, 2]),
        (200, [8, 5, 1, 2]),
        (200, [1, 5, 8, 2]),
    ];
    let rpq = parse_rpq("RPQ crossing WINDOW 3s PATH a b* c").unwrap();
    let (mut matches, mut to_target, mut to_source) = (0, 0, 0);
    for seed in 0..6 {
        for jitter_ms in [0, 1_000] {
            let events = phased_events(&phases, 7, jitter_ms, 70 + seed);
            let run = replay_against_oracle(&rpq, &events);
            assert!(
                run.to_target + run.to_source >= 2,
                "seed {seed}, jitter {jitter_ms}: {run:?}"
            );
            matches += run.matches;
            to_target += run.to_target;
            to_source += run.to_source;
        }
    }
    assert!(matches > 100, "only {matches} matches");
    assert!(to_target > 0 && to_source > 0, "{to_target} / {to_source}");
}

/// Feeds `engine` one edge at `at_ms`; returns the pairs `handle` emits
/// for it, sorted.
fn feed(
    engine: &mut ContinuousQueryEngine,
    handle: QueryHandle,
    (src, dst, label): (&str, &str, &str),
    at_ms: i64,
) -> Vec<(String, String)> {
    let ev = EdgeEvent::new(src, "V", dst, "V", label, Timestamp::from_millis(at_ms));
    let mut got: Vec<_> = (engine.ingest(&ev).unwrap().iter())
        .filter(|m| m.handle() == handle)
        .map(pair_of)
        .collect();
    got.sort();
    got
}

fn pair(source: &str, target: &str) -> Vec<(String, String)> {
    vec![(source.to_owned(), target.to_owned())]
}

/// The end a query's trees are rooted at, and how often it turned.
fn end(engine: &ContinuousQueryEngine, handle: QueryHandle) -> (RpqEnd, u64) {
    let m = engine.metrics(handle).unwrap();
    (m.rpq_end, m.rpq_end_switches)
}

#[test]
fn pause_resume_and_a_checkpoint_straddle_a_turn() {
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    let handle = engine
        .register_rpq_dsl("RPQ straddle WINDOW 10s PATH a b* c")
        .unwrap();

    // Observed: `c` edges outnumber `a` edges, so the trees stay at the
    // sources, and a chain matches.
    for (i, at) in [0, 100, 200].into_iter().enumerate() {
        let (x, y) = (format!("cx{i}"), format!("cy{i}"));
        assert!(feed(&mut engine, handle, (&x, &y, "c"), at).is_empty());
    }
    assert!(feed(&mut engine, handle, ("r1-s", "r1-m", "a"), 300).is_empty());
    let r1 = feed(&mut engine, handle, ("r1-m", "r1-t", "c"), 400);
    assert_eq!(r1, pair("r1-s", "r1-t"));
    assert_eq!(end(&engine, handle), (RpqEnd::Source, 0));

    // Paused: `a` edges take over, and a chain completes unobserved.
    engine.pause(handle).unwrap();
    for i in 0..6 {
        let (x, y) = (format!("ax{i}"), format!("ay{i}"));
        assert!(feed(&mut engine, handle, (&x, &y, "a"), 500 + 100 * i).is_empty());
    }
    assert!(feed(&mut engine, handle, ("p1-s", "p1-m", "a"), 1_100).is_empty());
    assert!(feed(&mut engine, handle, ("p1-m", "p1-t", "c"), 1_200).is_empty());
    assert_eq!(end(&engine, handle), (RpqEnd::Source, 0), "paused, no turn");

    // Resumed: the targets are rarer now, but the window holds edges the
    // query never observed, so the trees stay at the sources. A path whose
    // first edge went unobserved and whose last is observed is therefore
    // not reported (a tree rooted at its target would find it), and
    // neither is `(r1-s, r1-t)` again.
    engine.resume(handle).unwrap();
    assert!(feed(&mut engine, handle, ("p1-m", "p2-t", "c"), 1_600).is_empty());
    assert_eq!(end(&engine, handle), (RpqEnd::Source, 0));
    assert!(feed(&mut engine, handle, ("r2-s", "r2-m", "a"), 1_700).is_empty());
    let r2 = feed(&mut engine, handle, ("r2-m", "r2-t", "c"), 1_800);
    assert_eq!(r2, pair("r2-s", "r2-t"));
    for i in 0..6 {
        let (x, y) = (format!("bx{i}"), format!("by{i}"));
        assert!(feed(&mut engine, handle, (&x, &y, "a"), 9_000 + 100 * i).is_empty());
    }
    assert_eq!(end(&engine, handle), (RpqEnd::Source, 0), "1.2 s in window");

    // The last unobserved edge (1.2 s) has left the 10 s window: the trees
    // turn to the targets, and the next chain is found from there.
    assert!(feed(&mut engine, handle, ("q", "q2", "d"), 11_300).is_empty());
    assert_eq!(end(&engine, handle), (RpqEnd::Target, 1));
    assert!(feed(&mut engine, handle, ("r5-s", "r5-m", "a"), 11_400).is_empty());
    let r5 = feed(&mut engine, handle, ("r5-m", "r5-t", "c"), 11_500);
    assert_eq!(r5, pair("r5-s", "r5-t"));

    // Cut at the target end, restore through JSON. The restored engine
    // replays the observation intervals; its graph lacks the expired
    // edges, so it turns at another edge, but to the same end.
    let json = EngineCheckpoint::capture(&engine).to_json().unwrap();
    let checkpoint = EngineCheckpoint::load(&json).unwrap();
    let mut restored = checkpoint.try_restore().unwrap();
    let restored_handle = restored.handles()[0];
    assert_eq!(end(&restored, restored_handle).0, RpqEnd::Target);

    // Both are paused at the target end while `a` edges stream past, one of
    // them a chain's first edge. On resume both return to the sources at
    // once — well within a window of the last turn — so neither reports the
    // chain its observed last edge completes, and they agree on every
    // emission after.
    let both = [(&mut engine, handle), (&mut restored, restored_handle)];
    for (engine, handle) in both {
        engine.pause(handle).unwrap();
        for i in 0..4 {
            let (x, y) = (format!("ux{i}"), format!("uy{i}"));
            assert!(feed(engine, handle, (&x, &y, "a"), 11_600 + 100 * i).is_empty());
        }
        assert!(feed(engine, handle, ("p3-s", "p3-m", "a"), 12_000).is_empty());
        engine.resume(handle).unwrap();
    }
    let later = [
        ("p3-m", "p3-t", "c"),
        ("r3-s", "r3-m", "a"),
        ("r3-m", "r3-x", "b"),
        ("r3-x", "r3-t", "c"),
        ("r4-s", "r3-m", "a"),
    ];
    let mut emitted = Vec::new();
    for (i, edge) in later.into_iter().enumerate() {
        let at = 12_100 + 100 * i as i64;
        let original = feed(&mut engine, handle, edge, at);
        let again = feed(&mut restored, restored_handle, edge, at);
        assert_eq!(original, again, "{edge:?}");
        emitted.extend(original);
    }
    assert_eq!(
        emitted,
        [pair("r3-s", "r3-t"), pair("r4-s", "r3-t")].concat()
    );
    assert_eq!(end(&engine, handle), (RpqEnd::Source, 2));
    assert_eq!(end(&restored, restored_handle).0, RpqEnd::Source);
}

#[test]
fn a_path_whose_first_edge_came_before_registration_is_not_reported() {
    // Two `a` edges stream past before the query exists; then the first
    // observed edge is a `c`, so the targets are the rarer end. Rooting a
    // tree there would walk back over `s -> m`, which the query never saw.
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    for (src, dst, at) in [("s", "m", 0), ("s2", "m2", 100)] {
        let ev = EdgeEvent::new(src, "V", dst, "V", "a", Timestamp::from_millis(at));
        engine.ingest(&ev).unwrap();
    }
    let handle = engine
        .register_rpq_dsl("RPQ late WINDOW 10s PATH a c")
        .unwrap();
    assert!(feed(&mut engine, handle, ("m", "t", "c"), 200).is_empty());
    assert_eq!(end(&engine, handle), (RpqEnd::Source, 0));
    // An observed chain is found as usual.
    assert!(feed(&mut engine, handle, ("s3", "m3", "a"), 300).is_empty());
    assert_eq!(
        feed(&mut engine, handle, ("m3", "t3", "c"), 400),
        pair("s3", "t3")
    );
    // The sources stay the dearer end, with more `a` than `c` edges, but
    // the trees only turn once both unobserved edges have left the window.
    assert!(feed(&mut engine, handle, ("s4", "m4", "a"), 5_000).is_empty());
    assert_eq!(end(&engine, handle), (RpqEnd::Source, 0));
    assert!(feed(&mut engine, handle, ("s5", "m5", "a"), 10_150).is_empty());
    assert_eq!(end(&engine, handle), (RpqEnd::Target, 1));
}

#[test]
fn a_return_to_the_sources_rebuilds_what_they_would_have_built() {
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    let handle = engine
        .register_rpq_dsl("RPQ back WINDOW 10s PATH a b* c")
        .unwrap();
    // An `a` edge and no `c` edge: the trees turn to the targets at once.
    assert!(feed(&mut engine, handle, ("s", "m", "a"), 0).is_empty());
    assert_eq!(end(&engine, handle), (RpqEnd::Target, 1));
    for i in 0..4 {
        let (x, y) = (format!("ax{i}"), format!("ay{i}"));
        assert!(feed(&mut engine, handle, (&x, &y, "a"), 100 + 100 * i).is_empty());
    }
    // `m -> t` streams past while the query is paused. On resume the trees
    // return to the sources, whose tree at `s` reached `m` before `m -> t`
    // existed: the rebuild relaxes `s -> m` against the edges that had
    // arrived by then, so the pair is not live and nothing is emitted.
    engine.pause(handle).unwrap();
    assert!(feed(&mut engine, handle, ("m", "t", "c"), 500).is_empty());
    engine.resume(handle).unwrap();
    assert!(feed(&mut engine, handle, ("q", "q2", "d"), 600).is_empty());
    assert_eq!(end(&engine, handle), (RpqEnd::Source, 2));
    // A fresh `s -> m` raises that tree node, and its propagation walks
    // `m -> t`: the pair enters here, as at trees that never turned.
    let fresh = feed(&mut engine, handle, ("s", "m", "a"), 700);
    assert_eq!(fresh, pair("s", "t"));
}

/// Replays `events` to a query registered before event `register`, paused
/// over each of `paused` and restored from a JSON checkpoint before event
/// `restore`, checking every event against the oracle fed only the edges
/// the query observed. Every edge it does not observe is relabelled `a`
/// unless it is a `d`: an `a` edge only ever starts a path of `a b* c`, so
/// the source end never walks one it was not shown, and the pairs the query
/// owes are exactly the oracle's over the observed edges. A tree rooted at
/// a target would walk unobserved `a` edges as its last hop.
fn replay_partially_observed(
    rpq: &RpqQuery,
    events: &[EdgeEvent],
    register: usize,
    paused: &[Range<usize>],
    restore: usize,
) -> Run {
    let observes = |i: usize| i >= register && !paused.iter().any(|r| r.contains(&i));
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    let mut handle = None;
    let mut oracle = Oracle::new(rpq);
    let mut run = Run::default();
    let mut end = RpqEnd::Source;
    let mut now: Option<Timestamp> = None;
    for (i, ev) in events.iter().enumerate() {
        if i == register {
            handle = Some(engine.register_rpq(rpq.clone()));
        }
        if let Some(h) = handle {
            if paused.iter().any(|r| r.start == i) {
                engine.pause(h).unwrap();
            }
            if paused.iter().any(|r| r.end == i) {
                engine.resume(h).unwrap();
            }
        }
        if i == restore {
            let json = EngineCheckpoint::capture(&engine).to_json().unwrap();
            engine = EngineCheckpoint::load(&json)
                .unwrap()
                .try_restore()
                .unwrap();
            handle = Some(engine.handles()[0]);
            end = engine.metrics(handle.unwrap()).unwrap().rpq_end;
        }
        let mut ev = ev.clone();
        if !observes(i) && ev.edge_type != "d" {
            ev.edge_type = "a".to_owned();
        }
        let at = now.map_or(ev.timestamp, |n| n.max(ev.timestamp));
        now = Some(at);
        let matches = engine.ingest(&ev).unwrap();
        let Some(h) = handle else { continue };
        let mut got = Vec::new();
        for m in matches.iter().filter(|m| m.handle() == h) {
            assert_valid_witness(&engine, &oracle, m, at);
            got.push(pair_of(m));
        }
        got.sort();
        if observes(i) {
            assert_eq!(got, oracle.ingest(&ev, at), "event #{i} ({ev:?}) at {at:?}");
        } else {
            assert!(got.is_empty(), "event #{i} is not observed: {got:?}");
        }
        run.matches += got.len();
        let now_end = engine.metrics(h).unwrap().rpq_end;
        match (end, now_end) {
            (RpqEnd::Source, RpqEnd::Target) => run.to_target += 1,
            (RpqEnd::Target, RpqEnd::Source) => run.to_source += 1,
            _ => {}
        }
        end = now_end;
    }
    run
}

#[test]
fn partially_observed_windows_report_what_the_sources_would() {
    // `a` common, then `c`, twice over, ~100 events to the 3 s window. The
    // query registers late, is paused in both kinds of phase (in the `a`
    // phases once the trees have turned to the targets) and is restored,
    // in one replay while paused, in the other while observing.
    let phases = [
        (200, [8, 5, 1, 2]),
        (200, [1, 5, 8, 2]),
        (200, [8, 5, 1, 2]),
        (200, [1, 5, 8, 2]),
    ];
    let rpq = parse_rpq("RPQ partial WINDOW 3s PATH a b* c").unwrap();
    let paused = [180..210, 330..360, 560..600, 700..730];
    let (mut matches, mut to_target, mut to_source) = (0, 0, 0);
    for seed in 0..6 {
        for jitter_ms in [0, 1_000] {
            let events = phased_events(&phases, 7, jitter_ms, 90 + seed);
            let run = replay_partially_observed(&rpq, &events, 60, &paused, 580);
            matches += run.matches;
            to_target += run.to_target;
            to_source += run.to_source;
            let again = replay_partially_observed(&rpq, &events, 60, &paused, 450);
            matches += again.matches;
        }
    }
    assert!(matches > 100, "only {matches} matches");
    assert!(to_target > 0 && to_source > 0, "{to_target} / {to_source}");
}
