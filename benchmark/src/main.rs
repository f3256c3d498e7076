//! swbench: one command, seven workloads, end-to-end and per-layer numbers
//! for the StreamWorks pipeline. See `benchmark/README.md`.

mod bench;
mod digest;
mod gen;
mod json;
mod measure;
mod reference;
mod report;
mod rng;
mod selftest;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bench::Request;
use measure::{latency_pass, scratch_root, Scratch};
use reference::{golden_path, latency_events, Reference};
use workloads::{Session, Workload};

const USAGE: &str = "usage: swbench <command> [--key value ...]
  run      --seed N [--rounds 21] [--out FILE]                 every workload, end-to-end metrics
  trace    --seed N [--seconds 4] [--out FILE]                every workload, per-layer metrics and spans
  agree    --seed N [--rounds 21] [--out FILE]                 run twice, compare within the bounds
  golden   --seed N                                           write benchmark/golden/<workload>.<seed>.json
  selftest                                                    check the benchmark's own parts
  bench    --workload W --seed N --seconds S --trace 0|1      one workload, one result line (the driver's unit)
  manifest                                                    print BENCHMARK.json";

/// Rounds per workload of `run` and `agree` unless `--rounds` says otherwise:
/// about what one of the driver's runs fits into its seconds, so that the
/// best round is found as surely (README, "Estimator").
const ROUNDS: usize = 21;

/// `--key value` pairs after the command.
struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut it = raw.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --key, found {key}"))?;
            let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
            map.insert(name.to_owned(), value.clone());
        }
        Ok(Args(map))
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: Option<T>) -> Result<T, String> {
        match (self.0.get(key), default) {
            (Some(text), _) => text
                .parse()
                .map_err(|_| format!("--{key} {text}: not a number")),
            (None, Some(default)) => Ok(default),
            (None, None) => Err(format!("--{key} is required")),
        }
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.0.get("workload").ok_or("--workload is required")?;
        Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))
    }

    /// `--out`, or a file under the scratch root.
    fn out(&self, default_name: &str) -> PathBuf {
        self.0
            .get("out")
            .map_or_else(|| scratch_root().join(default_name), PathBuf::from)
    }
}

/// `swbench golden`: makes each workload's reference, checks that the
/// per-event pass emits the same matches as the batched reference run, and
/// writes the golden file. `join_hot_sharded` has none: it must reproduce
/// `join_hot`'s.
fn golden(seed: u64) -> Result<(), String> {
    let scratch = Scratch::create().map_err(|e| e.to_string())?;
    for workload in Workload::ALL {
        if workload == Workload::JoinHotSharded {
            continue;
        }
        let input = workload.generate(seed);
        let reference = Reference::make(workload, seed, &input, scratch.path())?;
        let mut session = Session::open(workload, &input, false, scratch.path())?;
        let pass = latency_pass(
            workload,
            &input,
            &mut session,
            latency_events(workload, &input),
        );
        measure::remove_logs(&session.logs);
        if pass
            .fold
            .mismatches(reference.full.matches, reference.full.digest)
            != 0
        {
            return Err(format!(
                "{}: the per-event pass emitted {} matches, the batched pass {}, or they differ",
                workload.name(),
                pass.fold.count,
                reference.full.matches
            ));
        }
        let path = golden_path(workload, seed);
        report::write_report(&path, &reference.to_json(workload, seed))?;
        println!(
            "{}: {} matches, {}",
            path.display(),
            reference.full.matches,
            reference.checked
        );
    }
    Ok(())
}

fn dispatch(command: &str, args: &Args) -> Result<bool, String> {
    match command {
        "bench" => {
            let traced = args.number::<u8>("trace", None)? != 0;
            let request = Request {
                workload: args.workload()?,
                seed: args.number("seed", None)?,
                seconds: args.number("seconds", None)?,
            };
            let outcome = if traced {
                trace::run_traced(request)?
            } else {
                bench::run_untraced(request)?
            };
            for (key, value) in &outcome.facts {
                eprintln!("{key}: {value}");
            }
            println!("{}", report::details_line(&outcome));
            println!("{}", report::result_line(&outcome, traced));
            Ok(true)
        }
        "round" => {
            let (workload, seed) = (args.workload()?, args.number("seed", None)?);
            let file = args.0.get("reference").ok_or("--reference is required")?;
            let reference = std::fs::read_to_string(file)
                .ok()
                .and_then(|text| serde_json::parse(&text).ok())
                .and_then(|v| Reference::from_json(&v))
                .ok_or_else(|| format!("{file}: not a reference"))?;
            if workload.pinned() {
                measure::pin_to_last_cpu();
            }
            println!("{}", bench::round(workload, seed, &reference)?);
            Ok(true)
        }
        "run" => {
            let report = report::run(
                args.number("seed", None)?,
                args.number("rounds", Some(ROUNDS))?,
            )?;
            report::print_run(&report);
            let out = args.out("run.json");
            report::write_report(&out, &report)?;
            println!("report: {}", out.display());
            Ok(true)
        }
        "trace" => {
            let report =
                report::trace(args.number("seed", None)?, args.number("seconds", Some(4))?)?;
            let out = args.out("trace.json");
            report::write_report(&out, &report)?;
            println!("report: {}", out.display());
            Ok(true)
        }
        "agree" => {
            let (report, agreed) = report::agree(
                args.number("seed", None)?,
                args.number("rounds", Some(ROUNDS))?,
            )?;
            let out = args.out("agree.json");
            report::write_report(&out, &report)?;
            println!("report: {}", out.display());
            Ok(agreed)
        }
        "golden" => golden(args.number("seed", None)?).map(|()| true),
        "selftest" => Ok(selftest::run_and_print(
            &Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )),
        "manifest" => {
            print!("{}", json::pretty(&report::manifest()));
            Ok(true)
        }
        _ => Err(USAGE.to_owned()),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match Args::parse(rest).and_then(|args| dispatch(command, &args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("swbench {command}: {message}");
            ExitCode::from(2)
        }
    }
}
