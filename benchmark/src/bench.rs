//! Rounds, and `swbench bench`, the unit the driver runs.
//!
//! A round is set-up, throughput pass, set-up, latency pass, each pass on a
//! fresh engine, the whole round in a child process of its own (`swbench
//! round`). `bench` spawns rounds of one workload until `--seconds` are used
//! up, `run` spawns a fixed number per workload, interleaved; both report
//! `Metric::estimate` over rounds (timings: the best round).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::digest::LineFold;
use crate::json::{self, Value};
use crate::measure::{
    latency_pass, peak_rss_mb, read_logs, remove_logs, throughput_pass, throughput_pass_observed,
    Pass, Scratch,
};
use crate::reference::{latency_events, Expected, Reference, PREFIX_EVENTS};
use crate::spec::END_TO_END;
use crate::stats::percentile_sorted;
use crate::workloads::{Input, Session, Workload};

/// What `bench` was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
}

/// Operations attempted and failed, the two halves of `failed_share`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn failed_share(self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The result of one `bench` process.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    /// Metric name → value; `None` where the layer does no work on this
    /// workload, with the reason in `notes`.
    pub metrics: BTreeMap<&'static str, Option<f64>>,
    pub notes: BTreeMap<&'static str, String>,
    /// Free-form facts for the human report (rounds, sample counts, …).
    pub facts: Vec<(String, String)>,
}

/// One timed set-up: generate the input, build the engine, register every
/// query and subscription — everything up to the first event.
pub fn timed_setup(
    workload: Workload,
    seed: u64,
    traced: bool,
    scratch: &Scratch,
) -> Result<(Input, Session, f64), String> {
    let start = Instant::now();
    let input = workload.generate(seed);
    let session = Session::open(workload, &input, traced, scratch.path())?;
    Ok((input, session, start.elapsed().as_secs_f64()))
}

/// Judges one finished pass against what it had to emit and adds the result
/// to `tally`. For `fanout_durable` the delivery logs are read back too: one
/// acknowledged line per match per log, the same lines as the reference.
pub fn judge(
    workload: Workload,
    input: &Input,
    session: &Session,
    pass: &Pass,
    expected: Expected,
    expected_lines: Option<LineFold>,
    tally: &mut Tally,
) {
    tally.attempted += pass.ingest_calls + pass.registry_calls + expected.matches;
    tally.failed += pass.ingest_errors
        + pass.registry_errors
        + pass.undelivered
        + pass.fold.mismatches(expected.matches, expected.digest);
    if workload == Workload::RpqLateral {
        // Full recall of the planted chains, on every pass that saw them all.
        if pass.events == input.events.len() {
            tally.attempted += input.chains.len() as u64;
            tally.failed += input
                .chains
                .iter()
                .filter(|chain| {
                    !pass.kept.iter().any(|m| {
                        m.bindings.first().is_some_and(|b| b.key == chain.source)
                            && m.bindings.last().is_some_and(|b| b.key == chain.target)
                    })
                })
                .count() as u64;
        }
    }
    if !session.logs.is_empty() {
        let (lines, per_log) = read_logs(&session.logs);
        tally.attempted += pass.fold.count;
        for (slot, &written) in per_log.iter().enumerate() {
            let emitted = pass.fold.per_query.get(slot).copied().unwrap_or(0);
            tally.failed += written.abs_diff(emitted);
        }
        if expected_lines.is_some_and(|e| e != lines) {
            tally.failed += 1;
        }
        remove_logs(&session.logs);
    }
}

/// The golden reference for `(workload, seed)`, or one made on the spot.
pub fn reference_for(
    workload: Workload,
    seed: u64,
    input: &Input,
    scratch: &Scratch,
) -> Result<(Reference, &'static str), String> {
    match Reference::load_golden(workload, seed, input) {
        Some(golden) => Ok((golden, "golden file")),
        None => Reference::make(workload, seed, input, scratch.path()).map(|made| {
            (
                made,
                "made on the spot (baseline cross-check, unsharded reference run)",
            )
        }),
    }
}

/// The seed's sharded loss, measured: the whole `join_hot` stream through a
/// `shards(2)` engine in 256-event `ingest` calls — the batch size every other
/// workload is timed with — judged like any pass. Untimed; `run` and `trace`
/// report it (README, "Known failures").
pub fn batch256_probe(
    input: &Input,
    expected: Expected,
    scratch: &Scratch,
) -> Result<Tally, String> {
    let sharded = Workload::JoinHotSharded;
    let mut session = Session::open(sharded, input, false, scratch.path())?;
    let batch = Workload::JoinHot.batch();
    let pass = throughput_pass_observed(sharded, input, &mut session, batch, 0, usize::MAX, |_| {});
    let mut tally = Tally::default();
    judge(sharded, input, &session, &pass, expected, None, &mut tally);
    Ok(tally)
}

/// `swbench round`: one round in this process — set-up, throughput pass,
/// set-up, latency pass, each pass on a fresh engine and judged against
/// `reference` — printed as one JSON line: `attempted`, `failed` and every
/// end-to-end metric. `setup_s` is the first set-up, the one a fresh process
/// pays.
pub fn round(workload: Workload, seed: u64, reference: &Reference) -> Result<String, String> {
    let scratch = Scratch::create().map_err(|e| format!("scratch directory: {e}"))?;
    let mut tally = Tally::default();

    let (input, mut session, setup_s) = timed_setup(workload, seed, false, &scratch)?;
    if input.digest != reference.input_digest {
        return Err(format!(
            "{}: the generator is not deterministic",
            workload.name()
        ));
    }
    let pass = throughput_pass(workload, &input, &mut session, PREFIX_EVENTS);
    let throughput_eps = pass.throughput_eps();
    let throughput_pass_s = pass.wall_ns as f64 / 1e9;
    let lines = Some(reference.lines);
    judge(
        workload,
        &input,
        &session,
        &pass,
        reference.full,
        lines,
        &mut tally,
    );
    drop((session, input));

    let (input, mut session, _) = timed_setup(workload, seed, false, &scratch)?;
    let upto = latency_events(workload, &input);
    let mut pass = latency_pass(workload, &input, &mut session, upto);
    let lines = (upto == input.events.len()).then_some(reference.lines);
    let expected = reference.latency(workload, &input);
    judge(
        workload, &input, &session, &pass, expected, lines, &mut tally,
    );
    pass.latencies.sort_unstable();
    let p50_us = f64::from(percentile_sorted(&pass.latencies, 0.50)) / 1e3;
    let metric = |name: &str| match name {
        "throughput_eps" => throughput_eps,
        "ingest_p50_us" => p50_us,
        "peak_rss_mb" => peak_rss_mb().unwrap_or(f64::NAN),
        "setup_s" => setup_s,
        _ => unreachable!("{name} is not an end-to-end metric"),
    };
    let counts = [
        ("attempted", json::count(tally.attempted)),
        ("failed", json::count(tally.failed)),
    ];
    let pass_s = [throughput_pass_s, pass.wall_ns as f64 / 1e9];
    let passes = PASS_SECONDS.into_iter().zip(pass_s.map(Value::Float));
    let metrics = END_TO_END
        .iter()
        .map(|m| (m.name, Value::Float(metric(m.name))));
    let line = counts.into_iter().chain(passes).chain(metrics);
    Ok(json::compact(&json::obj(line)))
}

/// Keys of the wall time of a round's two passes in its line: a fact for the
/// report (how much work a round measures), not a metric.
pub const PASS_SECONDS: [&str; 2] = ["throughput_pass_s", "latency_pass_s"];

/// One finished `swbench round` child: its tally, its end-to-end metrics in
/// the order of [`END_TO_END`], and the seconds its two passes took. `NaN`
/// where the child could not measure (an unreadable `VmHWM`).
#[derive(Debug, Clone, Copy)]
pub struct Round {
    pub tally: Tally,
    pub values: [f64; END_TO_END.len()],
    pub pass_s: [f64; PASS_SECONDS.len()],
}

/// Column `metric` of `rounds`, without the `NaN`s.
pub fn column(rounds: &[Round], metric: usize) -> Vec<f64> {
    let values = rounds.iter().map(|r| r.values[metric]);
    values.filter(|v| v.is_finite()).collect()
}

/// Everything rounds of one `(workload, seed)` need from their parent: the
/// reference they are judged against, in a file they can read.
pub struct Rounds {
    pub workload: Workload,
    pub seed: u64,
    pub reference: Reference,
    /// Where the reference came from.
    pub source: &'static str,
    pub latency_samples: usize,
    reference_file: PathBuf,
}

impl Rounds {
    /// Loads or makes the reference (outside every timed pass) and writes it
    /// under `scratch` for the children.
    pub fn prepare(workload: Workload, seed: u64, scratch: &Scratch) -> Result<Rounds, String> {
        let input = workload.generate(seed);
        let latency_samples = latency_events(workload, &input);
        let (reference, source) = reference_for(workload, seed, &input, scratch)?;
        let reference_file = scratch
            .path()
            .join(format!("reference.{}.json", workload.name()));
        std::fs::write(
            &reference_file,
            json::pretty(&reference.to_json(workload, seed)),
        )
        .map_err(|e| format!("{}: {e}", reference_file.display()))?;
        Ok(Rounds {
            workload,
            seed,
            reference,
            source,
            latency_samples,
            reference_file,
        })
    }

    /// Runs one round in a `swbench round` child and waits for it.
    pub fn spawn(&self) -> Result<Round, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let output = std::process::Command::new(exe)
            .args(["round", "--workload", self.workload.name()])
            .args(["--seed", &self.seed.to_string()])
            .arg("--reference")
            .arg(&self.reference_file)
            .output()
            .map_err(|e| e.to_string())?;
        if !output.status.success() {
            return Err(format!(
                "round of {} failed: {}",
                self.workload.name(),
                String::from_utf8_lossy(&output.stderr).trim()
            ));
        }
        let line = String::from_utf8_lossy(&output.stdout);
        let unreadable = || format!("{}: unreadable round line {line:?}", self.workload.name());
        let round = serde_json::parse(line.trim()).map_err(|_| unreadable())?;
        let count = |key: &str| round.get_field(key).and_then(Value::as_u64);
        Ok(Round {
            tally: Tally {
                attempted: count("attempted").ok_or_else(unreadable)?,
                failed: count("failed").ok_or_else(unreadable)?,
            },
            // A `NaN` is written as `null` and read back as `NaN`.
            values: END_TO_END.map(|m| json::num(&round, m.name).unwrap_or(f64::NAN)),
            pass_s: PASS_SECONDS.map(|key| json::num(&round, key).unwrap_or(f64::NAN)),
        })
    }

    /// Facts for the human report.
    pub fn facts(&self, rounds: usize) -> Vec<(String, String)> {
        let fact = |key: &str, value: String| (key.to_owned(), value);
        vec![
            fact("rounds", rounds.to_string()),
            fact(
                "events_per_throughput_pass",
                self.reference.events.to_string(),
            ),
            fact("events_per_ingest_call", self.workload.batch().to_string()),
            fact("latency_samples_per_pass", self.latency_samples.to_string()),
            fact(
                "matches_per_throughput_pass",
                self.reference.full.matches.to_string(),
            ),
            fact("reference", self.source.to_owned()),
            fact("checked", self.reference.checked.clone()),
        ]
    }
}

/// The untraced `bench`: rounds until `--seconds` are used up, **each round in
/// a process of its own**, every figure [`Metric::estimate`] over the rounds
/// (timings: the best round). A process is fast or slow as a whole on this
/// box (README, "Estimator"), so rounds inside one process would all share
/// its luck; separate processes do not.
///
/// [`Metric::estimate`]: crate::spec::Metric::estimate
pub fn run_untraced(request: Request) -> Result<Outcome, String> {
    let scratch = Scratch::create().map_err(|e| format!("scratch directory: {e}"))?;
    let prepared = Rounds::prepare(request.workload, request.seed, &scratch)?;
    let mut rounds: Vec<Round> = Vec::new();
    let started = Instant::now();
    loop {
        let round_started = Instant::now();
        rounds.push(prepared.spawn()?);
        // Another round only if it would end inside the time asked for.
        let took = round_started.elapsed().as_secs_f64();
        if started.elapsed().as_secs_f64() + took > request.seconds {
            break;
        }
    }
    let mut outcome = Outcome::default();
    for (index, metric) in END_TO_END.iter().enumerate() {
        let values = column(&rounds, index);
        eprintln!("per round: {} {values:.4?}", metric.name);
        outcome.metrics.insert(
            metric.name,
            (!values.is_empty()).then(|| metric.estimate(&values, request.workload.pinned())),
        );
    }
    for round in &rounds {
        outcome.tally.add(round.tally);
    }
    outcome.facts = prepared.facts(rounds.len());
    Ok(outcome)
}
