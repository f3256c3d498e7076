//! What a pass must have emitted, and where that knowledge comes from.
//!
//! For a seed with a golden file (`benchmark/golden/<workload>.<seed>.json`,
//! written by `swbench golden`) the expectation is read from it. For any other
//! seed it is made on the spot, outside every timed pass: a short stream of
//! the same generator and seed is cross-checked against the naive baseline
//! matcher, and the full stream is run once through an unsharded engine whose
//! emissions become the expectation for every timed pass — so the per-event
//! pass, the batched pass and the sharded engine must all agree with it.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::digest::LineFold;
use crate::json::{self, Value};
use crate::measure::{read_logs, remove_logs, throughput_pass};
use crate::workloads::{Input, QuerySpec, Session, Workload};
use streamworks_baseline::NaiveEdgeExpansion;
use streamworks_graph::DynamicGraph;

/// Background length of the stream cross-checked against the baseline.
pub const CHECKED_EVENTS: usize = 5_000;

/// Count and digest a pass must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub matches: u64,
    pub digest: u64,
}

/// Length of the marked prefix: the latency pass of `join_hot_sharded` stops
/// here, because one `ingest` call per event costs a worker barrier per call
/// (~13 k calls/s at the seed) and the whole stream would not fit the run.
/// A multiple of every [`Workload::batch`].
pub const PREFIX_EVENTS: usize = 8_192;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    pub input_digest: u64,
    pub events: usize,
    /// The whole stream.
    pub full: Expected,
    /// The first [`PREFIX_EVENTS`] events.
    pub prefix: Expected,
    /// Lines of all durable logs after a whole-stream pass.
    pub lines: LineFold,
    /// How the short stream fared against the baseline.
    pub checked: String,
}

/// The workload whose golden file holds `workload`'s expectation:
/// `join_hot_sharded` must reproduce `join_hot`'s emissions.
fn golden_owner(workload: Workload) -> Workload {
    if workload == Workload::JoinHotSharded {
        Workload::JoinHot
    } else {
        workload
    }
}

pub fn golden_path(workload: Workload, seed: u64) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{}.{seed}.json", golden_owner(workload).name()))
}

/// Events of the latency pass: the whole stream, or the marked prefix.
pub fn latency_events(workload: Workload, input: &Input) -> usize {
    if workload == Workload::JoinHotSharded {
        PREFIX_EVENTS.min(input.events.len())
    } else {
        input.events.len()
    }
}

impl Reference {
    /// What the latency pass of `workload` must emit.
    pub fn latency(&self, workload: Workload, input: &Input) -> Expected {
        if latency_events(workload, input) == self.events {
            self.full
        } else {
            self.prefix
        }
    }

    pub fn to_json(&self, workload: Workload, seed: u64) -> Value {
        let hex = |v: u64| Value::Str(format!("{v:016x}"));
        json::obj([
            ("workload", json::text(workload.name())),
            ("seed", json::count(seed)),
            ("input_digest", hex(self.input_digest)),
            ("events", json::count(self.events as u64)),
            ("matches", json::count(self.full.matches)),
            ("digest", hex(self.full.digest)),
            (
                "prefix_events",
                json::count(PREFIX_EVENTS.min(self.events) as u64),
            ),
            ("prefix_matches", json::count(self.prefix.matches)),
            ("prefix_digest", hex(self.prefix.digest)),
            ("durable_lines", json::count(self.lines.lines)),
            ("durable_digest", hex(self.lines.digest)),
            ("checked", json::text(self.checked.clone())),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Reference> {
        let uint = |key: &str| v.get_field(key)?.as_u64();
        let hex = |key: &str| u64::from_str_radix(v.get_field(key)?.as_str()?, 16).ok();
        Some(Reference {
            input_digest: hex("input_digest")?,
            events: uint("events")? as usize,
            full: Expected {
                matches: uint("matches")?,
                digest: hex("digest")?,
            },
            prefix: Expected {
                matches: uint("prefix_matches")?,
                digest: hex("prefix_digest")?,
            },
            lines: LineFold {
                lines: uint("durable_lines")?,
                digest: hex("durable_digest")?,
            },
            checked: v.get_field("checked")?.as_str()?.to_owned(),
        })
    }

    /// The golden expectation for `(workload, seed)`, if one is committed and
    /// was made from this very input (`join_hot_sharded` reads `join_hot`'s).
    pub fn load_golden(workload: Workload, seed: u64, input: &Input) -> Option<Reference> {
        let text = std::fs::read_to_string(golden_path(workload, seed)).ok()?;
        let reference = Reference::from_json(&serde_json::parse(&text).ok()?)?;
        (reference.input_digest == input.digest && reference.events == input.events.len())
            .then_some(reference)
    }

    /// Makes the expectation without a golden file: baseline cross-check of
    /// the short stream, then one unsharded reference run of the full stream.
    pub fn make(
        workload: Workload,
        seed: u64,
        input: &Input,
        scratch: &Path,
    ) -> Result<Reference, String> {
        let checked = check_against_baseline(workload, seed, scratch)?;
        let owner = golden_owner(workload);
        let mut session = Session::open(owner, input, false, scratch)?;
        let pass = throughput_pass(owner, input, &mut session, PREFIX_EVENTS);
        let (lines, _) = read_logs(&session.logs);
        remove_logs(&session.logs);
        if pass.ingest_errors + pass.registry_errors + pass.undelivered > 0 {
            return Err(format!(
                "{}: the reference run itself failed",
                workload.name()
            ));
        }
        let (matches, digest) = pass.prefix_fold.expect("the pass marks the prefix");
        Ok(Reference {
            input_digest: input.digest,
            events: input.events.len(),
            full: Expected {
                matches: pass.fold.count,
                digest: pass.fold.digest,
            },
            prefix: Expected { matches, digest },
            lines,
            checked,
        })
    }
}

/// One match as the baseline reports it: the data edge realising each query
/// edge, in query-edge order.
type Signature = Vec<u64>;

/// Runs a short stream (same generator, same seed, [`CHECKED_EVENTS`] of
/// background) through the engine one event at a time and through
/// `streamworks_baseline::NaiveEdgeExpansion`, and compares the matches of
/// every SJ-Tree query, each exactly once (`join_hot_sharded` through its
/// own `shards(2)` engine). `tenants_churn` is checked on its
/// standing registry (no lifecycle operations: the baseline has no notion of
/// a paused query). `fanout_durable` also checks that each delivery log holds
/// exactly the rendered matches of its tenant. `rpq_lateral` has no SJ-Tree
/// query; its planted-chain recall is checked on every full pass instead.
pub fn check_against_baseline(
    workload: Workload,
    seed: u64,
    scratch: &Path,
) -> Result<String, String> {
    let input = workload.generate_sized(seed, CHECKED_EVENTS);
    let mut session = Session::open(workload, &input, false, scratch)?;
    let mut engine_matches: BTreeMap<String, Vec<Signature>> = BTreeMap::new();
    let mut rendered = vec![LineFold::default(); session.logs.len()];
    for event in &input.events {
        let matches = session.engine.ingest(event).map_err(|e| e.to_string())?;
        for m in matches {
            if let Some(log) = rendered.get_mut(m.query.0) {
                log.add(&m.render());
            }
            engine_matches
                .entry(m.query_name)
                .or_default()
                .push(m.edges.iter().map(|e| e.0).collect());
        }
    }
    if session.engine.flush_deliveries() != 0 {
        return Err(format!(
            "{}: deliveries left pending on the short stream",
            workload.name()
        ));
    }
    for (t, path) in session.logs.iter().enumerate() {
        let (log, _) = read_logs(std::slice::from_ref(path));
        if log != rendered[t] {
            return Err(format!(
                "{}: delivery log {t} holds {} lines, its tenant emitted {}, or their contents differ",
                workload.name(),
                log.lines,
                rendered[t].lines
            ));
        }
    }
    remove_logs(&session.logs);

    let mut graph = DynamicGraph::unbounded();
    let mut baselines: Vec<(String, NaiveEdgeExpansion, Vec<Signature>)> = input
        .queries
        .iter()
        .filter_map(|spec| match spec {
            QuerySpec::Graph(q) => Some(q.clone()),
            QuerySpec::Dsl(text) | QuerySpec::Manual { text, .. } => {
                streamworks_query::parse_query(text).ok()
            }
            QuerySpec::Rpq(_) => None,
        })
        .map(|q| (q.name().to_owned(), NaiveEdgeExpansion::new(q), Vec::new()))
        .collect();
    for event in &input.events {
        let result = graph.ingest(event);
        let edge = graph
            .edge(result.edge)
            .expect("an unbounded graph keeps every edge")
            .clone();
        for (_, matcher, found) in &mut baselines {
            for embedding in matcher.process_edge(&graph, &edge) {
                found.push(embedding.edges.iter().map(|e| e.0).collect());
            }
        }
    }
    let mut total = 0usize;
    for (name, _, mut expected) in baselines {
        let mut got = engine_matches.remove(&name).unwrap_or_default();
        expected.sort_unstable();
        got.sort_unstable();
        if got != expected {
            return Err(format!(
                "{}: query {name} emitted {} matches on the short stream, the baseline finds {}, or they differ",
                workload.name(),
                got.len(),
                expected.len()
            ));
        }
        total += expected.len();
    }
    let queries = input
        .queries
        .iter()
        .filter(|q| !matches!(q, QuerySpec::Rpq(_)))
        .count();
    Ok(if queries == 0 {
        "no SJ-Tree query to cross-check; planted-chain recall is checked on every full pass"
            .to_owned()
    } else {
        format!(
            "{CHECKED_EVENTS}-event stream of the same generator and seed: {total} matches of {queries} SJ-Tree queries equal streamworks_baseline's, each once"
        )
    })
}
