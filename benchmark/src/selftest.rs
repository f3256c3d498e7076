//! `swbench selftest`: checks of the benchmark's own parts. `cargo test` runs
//! the same checks.

use std::path::Path;

use crate::bench::Outcome;
use crate::json::{self, Value};
use crate::report::{manifest, metrics_of, result_line};
use crate::spec::{valid_name, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile_sorted, quartiles};
use crate::trace::{self_times, Layer, Span, NO_PARENT};
use crate::workloads::Workload;

type Check = Result<(), String>;

fn ensure(condition: bool, what: impl FnOnce() -> String) -> Check {
    if condition {
        Ok(())
    } else {
        Err(what())
    }
}

/// Same seed, same bytes; another seed, other bytes; `join_hot_sharded`
/// replays `join_hot`'s input.
fn generators_are_deterministic_and_seeded() -> Check {
    for workload in Workload::ALL {
        let digest = |seed| workload.generate_sized(seed, 2_000).digest;
        ensure(digest(1) == digest(1), || {
            format!("{}: seed 1 gave two inputs", workload.name())
        })?;
        ensure(digest(1) != digest(2), || {
            format!("{}: seeds 1 and 2 gave one input", workload.name())
        })?;
    }
    let hot = |w: Workload| w.generate_sized(3, 2_000).digest;
    ensure(
        hot(Workload::JoinHot) == hot(Workload::JoinHotSharded),
        || "join_hot and join_hot_sharded differ in input".to_owned(),
    )
}

/// Median, quartiles and percentiles against hand-computed vectors; the
/// quartiles are Python's `statistics.quantiles(values, n=4)`.
fn order_statistics_match_hand_computed_vectors() -> Check {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    let hundred: Vec<u32> = (1..=100).collect();
    let checks = [
        (median(&[3.0, 1.0, 2.0]) == 2.0, "median of 3"),
        (median(&[4.0, 1.0, 3.0, 2.0]) == 2.5, "median of 4"),
        (quartiles(&ten) == (2.75, 8.25), "quartiles of 1..=10"),
        (
            quartiles(&[30.0, 10.0, 20.0]) == (10.0, 30.0),
            "quartiles of 3",
        ),
        (quartiles(&[1.0, 2.0]) == (0.75, 2.25), "quartiles of 2"),
        (quartiles(&[7.0]) == (7.0, 7.0), "quartiles of 1"),
        (percentile_sorted(&hundred, 0.50) == 50, "p50 of 1..=100"),
        (percentile_sorted(&hundred, 0.99) == 99, "p99 of 1..=100"),
        (percentile_sorted(&hundred, 1.0) == 100, "p100 of 1..=100"),
        (percentile_sorted(&[5, 9], 0.5) == 5, "p50 of 2"),
        (percentile_sorted(&[5], 0.99) == 5, "p99 of 1"),
    ];
    checks
        .into_iter()
        .try_for_each(|(ok, what)| ensure(ok, || format!("wrong {what}")))
}

/// Self time is the span minus what its children cover, and never negative.
fn span_self_time_is_parent_minus_children() -> Check {
    let span = |layer, start_ns, end_ns, parent| Span {
        layer,
        event_seq: 0,
        start_ns,
        end_ns,
        parent,
    };
    let spans = [
        span(Layer::Event, 0, 100, NO_PARENT),
        span(Layer::GraphIngest, 10, 30, 0),
        span(Layer::ProcessEdge, 40, 90, 0),
        // A child that claims more than its parent has is clamped to it.
        span(Layer::Event, 200, 210, NO_PARENT),
        span(Layer::Prune, 190, 230, 3),
    ];
    let totals = self_times(&spans);
    ensure(totals[Layer::Event as usize] == (30, 2), || {
        format!("event self time {:?}", totals[0])
    })?;
    ensure(totals[Layer::GraphIngest as usize] == (20, 1), || {
        "graph.ingest self time".to_owned()
    })?;
    ensure(totals[Layer::ProcessEdge as usize] == (50, 1), || {
        "process_edge self time".to_owned()
    })?;
    ensure(totals[Layer::Prune as usize] == (40, 1), || {
        "prune self time".to_owned()
    })
}

/// Every name in `BENCHMARK.json` is well-formed and is a name the program
/// uses, and the other way round; the result line carries every metric of its
/// mode exactly once.
fn names_match_the_manifest(benchmark_json: &Path) -> Check {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let committed = serde_json::parse(&text).map_err(|e| e.to_string())?;
    // Compared as text: `15` parses as an integer whatever the program holds.
    ensure(
        json::pretty(&committed) == json::pretty(&manifest()),
        || {
            format!(
                "{} differs from `swbench manifest`",
                benchmark_json.display()
            )
        },
    )?;
    let names = |key: &str| -> Vec<String> {
        json::items(&committed, key)
            .iter()
            .filter_map(|e| Some(e.get_field("name")?.as_str()?.to_owned()))
            .collect()
    };
    for key in ["workloads", "end_to_end", "per_layer"] {
        for name in names(key) {
            ensure(valid_name(&name), || {
                format!("{key}: {name:?} is not [A-Za-z0-9_.-]+")
            })?;
        }
    }
    let mut all = [names("workloads"), names("end_to_end"), names("per_layer")].concat();
    let total = all.len();
    all.sort();
    all.dedup();
    ensure(all.len() == total, || "a name is used twice".to_owned())?;
    ensure(
        names("workloads") == Workload::DRIVER.map(|w| w.name()),
        || "workload names".to_owned(),
    )?;
    ensure(
        END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"),
        || "setup_s".to_owned(),
    )?;
    for traced in [false, true] {
        let line = serde_json::parse(&result_line(&Outcome::default(), traced))
            .map_err(|e| e.to_string())?;
        let keys = |entries: &[(String, Value)]| -> Vec<String> {
            entries.iter().map(|(k, _)| k.clone()).collect()
        };
        let top = keys(line.as_object().unwrap_or(&[]));
        ensure(top == ["correct", "attempted", "failed", "metrics"], || {
            format!("result keys {top:?}")
        })?;
        let printed = keys(json::entries_of(&line, "metrics"));
        let wanted: Vec<&str> = metrics_of(traced).iter().map(|m| m.name).collect();
        ensure(printed == wanted, || {
            format!("metrics of trace {traced}: {printed:?}")
        })?;
    }
    ensure(PER_LAYER.len() <= 128, || {
        "too many per-layer metrics".to_owned()
    })
}

pub fn checks(benchmark_json: &Path) -> Vec<(&'static str, Check)> {
    vec![
        (
            "generators are deterministic per seed and distinct across seeds",
            generators_are_deterministic_and_seeded(),
        ),
        (
            "median, quartiles and percentiles match hand-computed vectors",
            order_statistics_match_hand_computed_vectors(),
        ),
        (
            "span self time is parent minus children, never negative",
            span_self_time_is_parent_minus_children(),
        ),
        (
            "names in BENCHMARK.json and in the program match, once each",
            names_match_the_manifest(benchmark_json),
        ),
    ]
}

pub fn run_and_print(benchmark_json: &Path) -> bool {
    let mut all_ok = true;
    for (name, result) in checks(benchmark_json) {
        match result {
            Ok(()) => println!("ok    {name}"),
            Err(why) => {
                println!("FAIL  {name}: {why}");
                all_ok = false;
            }
        }
    }
    all_ok
}

#[cfg(test)]
mod tests {
    #[test]
    fn selftest_passes() {
        let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        for (name, result) in super::checks(&manifest) {
            assert_eq!(result, Ok(()), "{name}");
        }
    }
}
