//! Counter-workloads for the end an RPQ roots its trees at: `rpq_lateral`'s
//! `login flow* exploit` over a lateral-movement-like stream whose `login`
//! and `exploit` rates are parameters, and may swap mid-stream.
//!
//! ```text
//! cargo run --release --example rpq_end_choice -- \
//!     [--login PERMILLE] [--exploit PERMILLE] [--flip N] [--events N] [--runs N] [--seed N]
//! ```
//!
//! Defaults: 30 ‰ `login` and 0.5 ‰ `exploit` edges (`rpq_lateral`'s mix:
//! logins common, exploits rare, so the targets are the cheap end), no
//! flip, 24 000 events 100 ms apart under the 600 s window, best of 5 runs.
//! `--login 1 --exploit 30` is the mirror, where the sources are the cheap
//! end; `--flip N` swaps the two rates every `N` events, so the cheap end
//! changes. The rest of the stream is `flow` (85 %) and `dns` edges between
//! 600 hosts, endpoints skewed towards low host numbers. Each run builds a
//! fresh engine and feeds the stream one event per `ingest` call. Prints
//! one JSON line: the runs' events per second, the best, the match count,
//! an order-independent digest of the matches over `(event, source,
//! target)` — which must agree between two builds on the same arguments,
//! whichever end each roots its trees at — and the expansions and live
//! tree nodes at the end of a run. Uses only the public builder /
//! `register_rpq_dsl` / `ingest` / `metrics` API, so the same file builds
//! against earlier versions for interleaved comparisons.

use std::time::Instant;
use streamworks::{ContinuousQueryEngine, EdgeEvent, Timestamp};

const LATERAL: &str = "RPQ lateral WINDOW 600s PATH login flow* exploit";
const HOSTS: u64 = 600;

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

    /// A host, skewed towards low numbers (the minimum of two draws).
    fn host(&mut self) -> String {
        format!("h{}", self.below(HOSTS).min(self.below(HOSTS)))
    }
}

struct Args {
    login: f64,
    exploit: f64,
    flip: usize,
    events: usize,
    runs: usize,
    seed: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        login: 30.0,
        exploit: 0.5,
        flip: 0,
        events: 24_000,
        runs: 5,
        seed: 1,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for pair in argv.chunks(2) {
        let v: f64 = pair
            .get(1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{} takes a number", pair[0]));
        match pair[0].as_str() {
            "--login" => args.login = v,
            "--exploit" => args.exploit = v,
            "--flip" => args.flip = v as usize,
            "--events" => args.events = v as usize,
            "--runs" => args.runs = v as usize,
            "--seed" => args.seed = v as u64,
            other => panic!("unknown argument {other}"),
        }
    }
    args
}

fn stream(args: &Args) -> Vec<EdgeEvent> {
    let mut rng = Rng(args.seed);
    (0..args.events)
        .map(|i| {
            let t = Timestamp::from_millis(100 * i as i64);
            let swapped = args.flip > 0 && (i / args.flip) % 2 == 1;
            let (login, exploit) = if swapped {
                (args.exploit, args.login)
            } else {
                (args.login, args.exploit)
            };
            let roll = rng.below(1_000_000) as f64 / 1_000.0;
            let (src, dst) = (rng.host(), rng.host());
            if roll < login {
                let user = format!("user{}", rng.below(HOSTS / 10));
                EdgeEvent::new(user, "User", dst, "IP", "login", t)
            } else if roll < login + exploit {
                EdgeEvent::new(src, "IP", dst, "IP", "exploit", t)
            } else if roll < login + exploit + 150.0 {
                EdgeEvent::new(src, "IP", dst, "IP", "dns", t)
            } else {
                EdgeEvent::new(src, "IP", dst, "IP", "flow", t)
            }
        })
        .collect()
}

/// Order-independent digest term of one match: FNV-1a over the event
/// index and the bound keys.
fn match_hash(event: usize, source: &str, target: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let keys = [source.as_bytes(), &[0], target.as_bytes()].concat();
    for b in (event as u64).to_le_bytes().into_iter().chain(keys) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn main() {
    let args = parse_args();
    let events = stream(&args);
    let mut runs = Vec::new();
    let mut outcome = None;
    let (mut expansions, mut nodes_live) = (0, 0);
    for _ in 0..args.runs {
        let mut engine = ContinuousQueryEngine::builder()
            .build()
            .expect("default configuration");
        let handle = engine.register_rpq_dsl(LATERAL).expect("the RPQ parses");
        let (mut matches, mut digest) = (0u64, 0u64);
        let start = Instant::now();
        for (i, ev) in events.iter().enumerate() {
            for m in engine.ingest(ev).expect("ingest") {
                let (source, target) = (&m.bindings[0].key, &m.bindings[1].key);
                matches += 1;
                digest = digest.wrapping_add(match_hash(i, source, target));
            }
        }
        runs.push(events.len() as f64 / start.elapsed().as_secs_f64());
        assert!(
            outcome.is_none_or(|o| o == (matches, digest)),
            "runs disagree"
        );
        outcome = Some((matches, digest));
        let metrics = engine.metrics(handle).expect("registered");
        (expansions, nodes_live) = (metrics.rpq_expansions, metrics.rpq_tree_nodes_live);
    }
    let (matches, digest) = outcome.expect("at least one run");
    let best = runs.iter().copied().fold(0.0, f64::max);
    let runs: Vec<String> = runs.iter().map(|r| format!("{r:.0}")).collect();
    println!(
        "{{\"login_permille\":{},\"exploit_permille\":{},\"flip\":{},\"events\":{},\"runs_eps\":[{}],\"best_eps\":{best:.0},\"matches\":{matches},\"digest\":\"{digest:016x}\",\"rpq_expansions\":{expansions},\"rpq_tree_nodes_live\":{nodes_live}}}",
        args.login,
        args.exploit,
        args.flip,
        args.events,
        runs.join(","),
    );
}
