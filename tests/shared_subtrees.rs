//! Randomized differential oracle for the sharing index.
//!
//! The contract under test: with sharing enabled (the default), the engine
//! reports **exactly** the same per-query match multiset as (a) the same
//! engine with all sharing disabled, and (b) one completely independent
//! engine per query — for any shard count, and under register → pause →
//! resume → deregister churn applied identically to every contender. The
//! registries come from the seeded [`differential_workload`] generator,
//! whose template families are built to provoke every sharing regime at once
//! (exact structural copies, copies differing only in an equality constant,
//! unpredicated copies, non-sharing singletons); a failure therefore
//! reproduces from its printed seed alone. Which regimes a seed actually
//! reached is read back from the engine's own counters ([`Regimes`]), so the
//! coverage follows from the registry's shape, not from a switch.

use std::collections::BTreeMap;
use streamworks::workloads::{differential_workload, DifferentialConfig};
use streamworks::{ContinuousQueryEngine, EdgeEvent, MatchEvent, QueryGraph, QueryHandle};

/// Canonical multiset of matches: how often each (query name, data-edge
/// assignment) was reported. Count maps also catch duplicated or missing
/// reports of the same embedding.
fn multiset(events: &[MatchEvent]) -> BTreeMap<(String, Vec<u64>), usize> {
    let mut out = BTreeMap::new();
    for ev in events {
        let edges: Vec<u64> = ev.edges.iter().map(|e| e.0).collect();
        *out.entry((ev.query_name.clone(), edges)).or_insert(0) += 1;
    }
    out
}

/// One lifecycle action, applied at a chunk boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// Register query `.1` (it is withheld from initial registration).
    Register(usize),
    Pause(usize),
    Resume(usize),
    Deregister(usize),
}

impl Action {
    fn query(self) -> usize {
        match self {
            Action::Register(q) | Action::Pause(q) | Action::Resume(q) | Action::Deregister(q) => q,
        }
    }
}

const CHUNKS: usize = 8;

/// The kinds of shared entry seen live at some chunk boundary of one run.
#[derive(Debug, Default)]
struct Regimes {
    /// A plain single leaf search (height 0, no lifted constant).
    leaf: bool,
    /// A join subtree interned without any lifted constant.
    unlifted_subtree: bool,
    /// An entry dispatching on a lifted `eq` constant.
    lifted: bool,
}

impl Regimes {
    fn observe(&mut self, engine: &ContinuousQueryEngine) {
        let m = engine.engine_metrics();
        self.leaf |= m.distinct_primitives > 0;
        // Every lifted entry counts as a subtree; any further one joins.
        self.unlifted_subtree |= m.distinct_subtrees > m.lifted_entries;
        self.lifted |= m.lifted_entries > 0;
    }
}

/// Builds a deterministic churn schedule: roughly a third of the queries
/// get a lifecycle (pause/resume, pause-forever, deregister, or late
/// registration) at seed-chosen chunk boundaries.
fn churn_schedule(seed: u64, queries: usize) -> Vec<(usize, Action)> {
    // Cheap deterministic per-query draws via splitmix64 — the schedule only
    // needs to be fixed and varied, not statistically strong.
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = move || {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut schedule = Vec::new();
    for q in 0..queries {
        if next() % 3 != 0 {
            continue;
        }
        let a = 1 + (next() as usize) % (CHUNKS - 2); // in 1..CHUNKS-1
        match next() % 4 {
            0 => {
                let b = a + 1 + (next() as usize) % (CHUNKS - 1 - a);
                schedule.push((a, Action::Pause(q)));
                schedule.push((b, Action::Resume(q)));
            }
            1 => schedule.push((a, Action::Pause(q))),
            2 => schedule.push((a, Action::Deregister(q))),
            _ => schedule.push((a, Action::Register(q))),
        }
    }
    schedule.sort_by_key(|(chunk, a)| (*chunk, a.query()));
    schedule
}

/// Drives one engine through the event stream and churn schedule, returning
/// every match it reported and the sharing regimes it went through.
/// `restrict` limits the registry (and the schedule) to a single query index
/// — the one-engine-per-query oracle.
fn drive(
    queries: &[QueryGraph],
    events: &[EdgeEvent],
    schedule: &[(usize, Action)],
    shared: bool,
    shards: usize,
    restrict: Option<usize>,
) -> (Vec<MatchEvent>, Regimes) {
    let mut engine = ContinuousQueryEngine::builder()
        .shared_matching(shared)
        .shards(shards)
        .build()
        .unwrap();
    let wanted = |q: usize| restrict.is_none_or(|only| only == q);
    let late: Vec<usize> = schedule
        .iter()
        .filter_map(|(_, a)| match a {
            Action::Register(q) => Some(*q),
            _ => None,
        })
        .collect();
    let mut handles: Vec<Option<QueryHandle>> = vec![None; queries.len()];
    for (qi, q) in queries.iter().enumerate() {
        if wanted(qi) && !late.contains(&qi) {
            handles[qi] = Some(engine.register_query(q.clone()).unwrap());
        }
    }
    let mut matches = Vec::new();
    let mut regimes = Regimes::default();
    let chunk_len = events.len().div_ceil(CHUNKS);
    for (chunk, slice) in events.chunks(chunk_len).enumerate() {
        for (at, action) in schedule {
            if *at != chunk || !wanted(action.query()) {
                continue;
            }
            match *action {
                Action::Register(q) => {
                    handles[q] = Some(engine.register_query(queries[q].clone()).unwrap());
                }
                Action::Pause(q) => engine.pause(handles[q].unwrap()).unwrap(),
                Action::Resume(q) => engine.resume(handles[q].unwrap()).unwrap(),
                Action::Deregister(q) => engine.deregister(handles[q].take().unwrap()).unwrap(),
            }
        }
        regimes.observe(&engine);
        matches.extend(engine.ingest(slice).unwrap());
    }
    (matches, regimes)
}

/// Runs the full comparison for one seed: sharing-on (the default) versus
/// sharing-off, at the given shard count, plus — when `oracle` — one
/// independent engine per query.
fn check_seed(seed: u64, shards: usize, oracle: bool) {
    let workload = differential_workload(&DifferentialConfig {
        seed,
        ..Default::default()
    });
    let schedule = churn_schedule(seed, workload.queries.len());
    let (reference, _) = drive(
        &workload.queries,
        &workload.events,
        &schedule,
        false,
        1,
        None,
    );
    let reference = multiset(&reference);
    assert!(
        !reference.is_empty(),
        "seed {seed}: workload must produce matches"
    );
    let (shared, regimes) = drive(
        &workload.queries,
        &workload.events,
        &schedule,
        true,
        shards,
        None,
    );
    let shared = multiset(&shared);
    assert_eq!(
        shared, reference,
        "seed {seed}, shards {shards}: sharing-on diverged from sharing-off"
    );
    // The three families (constant-varied, constant-free, constant-identical)
    // put a plain leaf, an unlifted join subtree and a lifted entry in the
    // index of every seed, whatever the churn schedule did to them.
    assert!(
        regimes.leaf && regimes.unlifted_subtree && regimes.lifted,
        "seed {seed}, shards {shards}: a sharing regime was never live: {regimes:?}"
    );
    if oracle {
        let mut independent = BTreeMap::new();
        for qi in 0..workload.queries.len() {
            let (matches, _) = drive(
                &workload.queries,
                &workload.events,
                &schedule,
                false,
                1,
                Some(qi),
            );
            for (k, v) in multiset(&matches) {
                *independent.entry(k).or_insert(0) += v;
            }
        }
        assert_eq!(
            shared, independent,
            "seed {seed}: sharing-on diverged from one-engine-per-query"
        );
    }
}

// The ≥20-seed sweep, split so a failure names its seed range. Shard counts
// cycle 1/2/4 across seeds; every third seed also runs the
// one-engine-per-query oracle.

#[test]
fn differential_seeds_0_to_6() {
    for seed in 0..7u64 {
        check_seed(seed, [1, 2, 4][seed as usize % 3], seed % 3 == 0);
    }
}

#[test]
fn differential_seeds_7_to_13() {
    for seed in 7..14u64 {
        check_seed(seed, [1, 2, 4][seed as usize % 3], seed % 3 == 0);
    }
}

#[test]
fn differential_seeds_14_to_20() {
    for seed in 14..21u64 {
        check_seed(seed, [1, 2, 4][seed as usize % 3], seed % 3 == 0);
    }
}
