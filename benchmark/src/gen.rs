//! Seeded input generators. The benchmark owns its inputs: every stream is
//! made here from splitmix64, so a later change to `crates/workloads` cannot
//! move the baseline. The shapes follow the repo's own generators (news,
//! hot-keyword, lateral movement) closely enough to keep their lineage.

use crate::rng::{SplitMix64, Zipf};
use streamworks_graph::{EdgeEvent, Timestamp};

const MICROS: i64 = 1_000_000;

/// A planted co-occurrence burst: three articles, one minute apart, each
/// mentioning `topic-<label>` on an edge that carries `label`, and each
/// located at the burst's location. A labelled-pair query on `label` sees
/// exactly 6 matches per burst (3 articles, ordered pairs).
#[derive(Debug, Clone)]
pub struct Burst {
    pub label: String,
    /// Position in the background stream, as a share of its time range.
    pub at: f64,
}

const BURST_ARTICLES: usize = 3;

/// Steps of the low-discrepancy sequences `frac(phase + i * step)`: the
/// fractional parts of the golden ratio and of the square root of two.
const GOLDEN: f64 = 0.618_033_988_749_895;
const SILVER: f64 = 0.414_213_562_373_095;

/// News-shaped stream: articles mention 1–4 Zipf-popular keywords, are
/// located at one Zipf-popular place, and sometimes name a person or an
/// organisation. `background` is the exact number of background events.
pub fn news_stream(rng: &mut SplitMix64, background: usize, bursts: &[Burst]) -> Vec<EdgeEvent> {
    const KEYWORDS: usize = 300;
    const LOCATIONS: usize = 80;
    const PEOPLE: u64 = 200;
    const ORGS: u64 = 60;
    let keywords = Zipf::new(KEYWORDS, 1.05);
    let locations = Zipf::new(LOCATIONS, 1.05);
    let mut events = Vec::with_capacity(background + bursts.len() * 2 * BURST_ARTICLES);
    let mut now = 0i64;
    let mut article_no = 0usize;
    // Locations follow a golden-ratio sequence through the Zipf quantiles, not
    // independent draws: every stretch of the stream then holds nearly the
    // same share of each location whatever the seed (which only shifts the
    // phase). The co-location pair of `fanout_durable` joins on them, and with
    // independent draws its matches per event, and with them `throughput_eps`,
    // lay +-6 % apart between seeds on a stream this short.
    let phase = rng.unit();
    while events.len() < background {
        // Mean gap of 20 s of stream time between articles.
        now += rng.range(1, 40 * MICROS as u64) as i64;
        let article = format!("article-{article_no}");
        article_no += 1;
        let mut t = now;
        let mut edge = |dst: String, dst_type: &str, etype: &str| {
            t += 1;
            let at = Timestamp::from_micros(t);
            EdgeEvent::new(article.clone(), "Article", dst, dst_type, etype, at)
        };
        for _ in 0..rng.range(1, 4) {
            let keyword = format!("keyword-{}", keywords.sample(rng));
            let weight = rng.range(1, 9) as i64;
            events.push(edge(keyword, "Keyword", "mentions").with_attr("weight", weight));
        }
        let quantile = (phase + article_no as f64 * GOLDEN).fract();
        let location = format!("location-{}", locations.at(quantile));
        events.push(edge(location, "Location", "located"));
        if rng.chance(0.4) {
            let person = format!("person-{}", rng.below(PEOPLE));
            events.push(edge(person, "Person", "about_person"));
        }
        if rng.chance(0.25) {
            let org = format!("org-{}", rng.below(ORGS));
            events.push(edge(org, "Organization", "about_org"));
        }
    }
    events.truncate(background);
    let end = events.last().map_or(0, |e| e.timestamp.as_micros());
    for (i, burst) in bursts.iter().enumerate() {
        let mut t = (end as f64 * burst.at) as i64;
        let location = format!("location-{}", rng.below(LOCATIONS as u64));
        for a in 0..BURST_ARTICLES {
            let article = format!("burst-{i}-{a}");
            t += 60 * MICROS;
            events.push(
                EdgeEvent::new(
                    article.clone(),
                    "Article",
                    format!("topic-{}", burst.label),
                    "Keyword",
                    "mentions",
                    Timestamp::from_micros(t),
                )
                .with_attr("label", burst.label.as_str()),
            );
            t += MICROS;
            events.push(EdgeEvent::new(
                article,
                "Article",
                location.clone(),
                "Location",
                "located",
                Timestamp::from_micros(t),
            ));
        }
    }
    events.sort_by_key(|e| e.timestamp);
    events
}

/// Hot-keyword stream, one event per second of stream time: a small pool of
/// articles keeps mentioning a small pool of keywords, and one event in 50 is
/// a `located` edge that can complete the hot-wedge pattern. With an 8 min
/// window every mention probes a sibling bucket of ~20 matches.
pub fn hot_stream(rng: &mut SplitMix64, events: usize) -> Vec<EdgeEvent> {
    const KEYWORDS: u64 = 24;
    const ARTICLES: u64 = 160;
    const CITIES: u64 = 7;
    (0..events)
        .map(|i| {
            let t = Timestamp::from_secs(i as i64);
            let article = format!("a{}", rng.below(ARTICLES));
            if rng.below(50) == 0 {
                let city = format!("city{}", rng.below(CITIES));
                EdgeEvent::new(article, "Article", city, "Location", "located", t)
            } else {
                let keyword = format!("k{}", rng.below(KEYWORDS));
                EdgeEvent::new(article, "Article", keyword, "Keyword", "mentions", t)
            }
        })
        .collect()
}

/// One planted `login flow* exploit` chain, by its end points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chain {
    pub source: String,
    pub target: String,
}

/// Lateral-movement stream: Zipfian flow/DNS/login background between hosts,
/// with intrusion chains (`pivots[i]` flows between login and exploit) planted
/// on fresh host keys so the ground truth is unambiguous.
pub fn lateral_stream(
    rng: &mut SplitMix64,
    background: usize,
    pivots: &[usize],
) -> (Vec<EdgeEvent>, Vec<Chain>) {
    let hosts = (background / 40).max(16);
    let zipf = Zipf::new(hosts, 1.1);
    let host = |idx: usize| {
        format!(
            "10.{}.{}.{}",
            (idx >> 16) & 0xff,
            (idx >> 8) & 0xff,
            idx & 0xff
        )
    };
    let mut events =
        Vec::with_capacity(background + pivots.iter().sum::<usize>() + 2 * pivots.len());
    let mut now = 0i64;
    // End points follow two irrational-step sequences through the Zipf
    // quantiles (see `news_stream`): hub degrees, and with them the work per
    // event, then differ little between seeds.
    let (src_phase, dst_phase) = (rng.unit(), rng.unit());
    for i in 0..background {
        // Mean gap of 100 ms of stream time: a 600 s window holds ~6 k events.
        now += rng.range(1, 200_000) as i64;
        let src = host(zipf.at((src_phase + i as f64 * GOLDEN).fract()));
        let mut dst = host(zipf.at((dst_phase + i as f64 * SILVER).fract()));
        if dst == src {
            dst = host(rng.below(hosts as u64) as usize);
        }
        let ts = Timestamp::from_micros(now);
        let roll = rng.unit();
        events.push(if roll < 0.12 {
            EdgeEvent::new(src, "IP", dst, "IP", "dns", ts)
        } else if roll < 0.15 {
            let user = format!("user{}", rng.below(hosts as u64 / 10 + 1));
            EdgeEvent::new(user, "User", dst, "IP", "login", ts)
        } else {
            EdgeEvent::new(src, "IP", dst, "IP", "flow", ts)
        });
    }
    let end = now;
    let mut chains = Vec::new();
    for (i, &hops) in pivots.iter().enumerate() {
        let mut t = end * (i as i64 + 1) / (pivots.len() as i64 + 1) + 1_000;
        let user = format!("intruder-{i}");
        let mut at = format!("entry-{i}");
        events.push(EdgeEvent::new(
            user.clone(),
            "User",
            at.clone(),
            "IP",
            "login",
            Timestamp::from_micros(t),
        ));
        for p in 0..hops {
            let next = format!("pivot-{i}-{p}");
            t += 1_500;
            events.push(EdgeEvent::new(
                at,
                "IP",
                next.clone(),
                "IP",
                "flow",
                Timestamp::from_micros(t),
            ));
            at = next;
        }
        let target = format!("target-{i}");
        t += 1_500;
        events.push(EdgeEvent::new(
            at,
            "IP",
            target.clone(),
            "IP",
            "exploit",
            Timestamp::from_micros(t),
        ));
        chains.push(Chain {
            source: user,
            target,
        });
    }
    events.sort_by_key(|e| e.timestamp);
    (events, chains)
}
