//! Counter-workloads for lazy SJ-Tree join sides: `join_hot`'s pinned plan
//! `((e0 ⋈ e1) ⋈ e2)` over a hot-wedge stream whose share of `located`
//! events — the sibling the lazy pair side waits for — is a parameter.
//!
//! ```text
//! cargo run --release --example lazy_join_sides -- \
//!     [--located PCT] [--articles N] [--keywords N] [--events N] [--runs N] [--seed N]
//! ```
//!
//! Defaults: 2 % `located`, 160 articles, 24 keywords (`join_hot`'s mix),
//! 30 000 events, best of 5 runs. Each run builds a fresh engine and feeds
//! the stream one event per `ingest` call, as the benchmark driver does.
//! Prints one JSON line: the runs' events per second, the best, and the
//! match count with an order-independent digest of the matches, which must
//! agree between two builds compared on the same arguments. Uses only the
//! public builder / `register_plan` / `ingest` API, so the same file builds
//! against earlier versions for interleaved comparisons.

use std::time::Instant;
use streamworks::query::{ManualDecomposition, QueryEdgeId};
use streamworks::{parse_query, ContinuousQueryEngine, EdgeEvent, Planner, Timestamp};

const HOT_WEDGE: &str = "QUERY hot_wedge WINDOW 8m
MATCH (a1:Article)-[:mentions]->(k:Keyword),
      (a2:Article)-[:mentions]->(k),
      (a1)-[:located]->(l:Location)";

/// splitmix64.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

struct Args {
    located: u64,
    articles: u64,
    keywords: u64,
    events: usize,
    runs: usize,
    seed: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        located: 2,
        articles: 160,
        keywords: 24,
        events: 30_000,
        runs: 5,
        seed: 1,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for pair in argv.chunks(2) {
        let value = |v: Option<&String>| -> u64 {
            v.and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{} takes a number", pair[0]))
        };
        let v = value(pair.get(1));
        match pair[0].as_str() {
            "--located" => args.located = v,
            "--articles" => args.articles = v,
            "--keywords" => args.keywords = v,
            "--events" => args.events = v as usize,
            "--runs" => args.runs = v as usize,
            "--seed" => args.seed = v,
            other => panic!("unknown argument {other}"),
        }
    }
    args
}

/// One event per second: `located` % of them an article located in one of
/// seven cities, the rest an article mentioning a keyword.
fn stream(args: &Args) -> Vec<EdgeEvent> {
    let mut rng = Rng(args.seed);
    (0..args.events)
        .map(|i| {
            let t = Timestamp::from_secs(i as i64);
            let article = format!("a{}", rng.below(args.articles));
            if rng.below(100) < args.located {
                let city = format!("city{}", rng.below(7));
                EdgeEvent::new(article, "Article", city, "Location", "located", t)
            } else {
                let keyword = format!("k{}", rng.below(args.keywords));
                EdgeEvent::new(article, "Article", keyword, "Keyword", "mentions", t)
            }
        })
        .collect()
}

/// Order-independent digest term of one match: FNV-1a over its edge ids.
fn match_hash(edges: &[streamworks::EdgeId]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in edges {
        for b in e.0.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn main() {
    let args = parse_args();
    let events = stream(&args);
    let leaves = (0..3).map(|e| vec![QueryEdgeId(e)]).collect();
    let plan = Planner::new()
        .plan_with(
            parse_query(HOT_WEDGE).expect("the query parses"),
            &ManualDecomposition::new(leaves),
        )
        .expect("the plan is valid");
    let mut runs = Vec::new();
    let mut outcome = None;
    for _ in 0..args.runs {
        let mut engine = ContinuousQueryEngine::builder()
            .build()
            .expect("default configuration");
        engine.register_plan(plan.clone());
        let (mut matches, mut digest) = (0u64, 0u64);
        let start = Instant::now();
        for ev in &events {
            for m in engine.ingest(ev).expect("ingest") {
                matches += 1;
                digest = digest.wrapping_add(match_hash(&m.edges));
            }
        }
        runs.push(events.len() as f64 / start.elapsed().as_secs_f64());
        assert!(
            outcome.is_none_or(|o| o == (matches, digest)),
            "runs disagree"
        );
        outcome = Some((matches, digest));
    }
    let (matches, digest) = outcome.expect("at least one run");
    let best = runs.iter().copied().fold(0.0, f64::max);
    let runs: Vec<String> = runs.iter().map(|r| format!("{r:.0}")).collect();
    println!(
        "{{\"located_pct\":{},\"articles\":{},\"keywords\":{},\"events\":{},\"runs_eps\":[{}],\"best_eps\":{best:.0},\"matches\":{matches},\"digest\":\"{digest:016x}\"}}",
        args.located,
        args.articles,
        args.keywords,
        args.events,
        runs.join(","),
    );
}
