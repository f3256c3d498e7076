//! The seven workloads: what each feeds the engine, how its engine is built,
//! and the lifecycle operations that run beside the stream.
//!
//! Only the pinned API surface listed in `benchmark/README.md` is used here.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::digest::InputDigest;
use crate::gen::{self, Burst, Chain};
use crate::rng::SplitMix64;
use streamworks_core::{ContinuousQueryEngine, QueryHandle, SinkSpec, TelemetryLevel};
use streamworks_graph::{Duration, EdgeEvent};
use streamworks_query::{
    parse_query, ManualDecomposition, Planner, Predicate, QueryEdgeId, QueryGraph,
    QueryGraphBuilder, QueryPlan, TreeShapeKind,
};

/// `tenants_churn`: one lifecycle operation every this many events. A multiple
/// of every [`Workload::batch`], so both passes apply each operation at the
/// same event.
const CHURN_EVERY: usize = 512;

const HOT_WEDGE: &str = include_str!("../queries/hot_wedge.swq");
const COLOC_PAIR: &str = include_str!("../queries/coloc_pair.swq");
const LATERAL: &str = include_str!("../queries/lateral.rpq");

const LABEL_POOL: [&str; 4] = ["politics", "accident", "earthquake", "sports"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SingleNews,
    JoinHot,
    JoinHotSharded,
    Tenants1024,
    TenantsChurn,
    RpqLateral,
    FanoutDurable,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::SingleNews,
        Workload::JoinHot,
        Workload::JoinHotSharded,
        Workload::Tenants1024,
        Workload::TenantsChurn,
        Workload::RpqLateral,
        Workload::FanoutDurable,
    ];

    /// The workloads `BENCHMARK.json` names: the ones the driver runs and
    /// holds to the bounds. Four, so that each of the driver's runs can
    /// measure for [`crate::report::RUN_SECONDS`] seconds inside its time
    /// limit; all four are one thread on one CPU and never touch the disk.
    /// Left to `swbench run` and `swbench trace` alone: `join_hot_sharded`
    /// (three busy threads on a two-CPU box measure the scheduler),
    /// `fanout_durable` (log writes: the kernel's share of the work runs on
    /// the other CPU and on the host's disk) and `tenants_churn`.
    pub const DRIVER: [Workload; 4] = [
        Workload::SingleNews,
        Workload::JoinHot,
        Workload::Tenants1024,
        Workload::RpqLateral,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SingleNews => "single_news",
            Workload::JoinHot => "join_hot",
            Workload::JoinHotSharded => "join_hot_sharded",
            Workload::Tenants1024 => "tenants_1024",
            Workload::TenantsChurn => "tenants_churn",
            Workload::RpqLateral => "rpq_lateral",
            Workload::FanoutDurable => "fanout_durable",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists; `BENCHMARK.json` carries the same sentences
    /// for [`Self::DRIVER`].
    pub fn why(self) -> &'static str {
        match self {
            Workload::SingleNews => "one labelled-pair query, rare matches: graph ingest, summary update, dispatch and a failing anchored search are all of the cost; join, routing and delivery idle",
            Workload::JoinHot => "hot-wedge pattern pinned to three single-edge leaves, ~3 matches/event with steady expiry: join probe-insert and expiry sweeps dominate, search is trivial",
            Workload::JoinHotSharded => "byte-identical input and plan to join_hot with shards(2): the difference to join_hot is routing, handoff, fan-in and barrier",
            Workload::Tenants1024 => "1024 labelled-pair tenants, half on a 4-label pool and half on unique labels: search-once dispatch over a steady registry, the read side of sharing",
            Workload::TenantsChurn => "128 such tenants with a register/pause/resume/replan/deregister cycle every 512 events: the registry written beside reads",
            Workload::RpqLateral => "one login flow* exploit RPQ over Zipfian flow/DNS/login events: all cost is the RPQ matcher, every SJ-Tree layer is bypassed",
            Workload::FanoutDurable => "16 tenants of the unselective co-location pair, each with a durable log-file subscription: render, fan-out and delivery flush dominate",
        }
    }

    /// Background stream length. Sized from seed rates so that one pass takes
    /// roughly 0.3–0.7 s on the reference box (see README, "Sizing").
    pub fn events(self) -> usize {
        match self {
            Workload::SingleNews => 400_000,
            Workload::JoinHot | Workload::JoinHotSharded => 60_000,
            Workload::Tenants1024 => 200_000,
            Workload::TenantsChurn => 200_000,
            Workload::RpqLateral => 24_000,
            Workload::FanoutDurable => 8_000,
        }
    }

    /// Events per `ingest` call in the throughput pass: 256, the size the
    /// method fixes. `join_hot_sharded` is the one exception: at the seed a
    /// `shards(2)` engine loses matches from 256 events per call on (README,
    /// "Known failures"), and a workload the driver runs may not fail, so its
    /// timed pass feeds 128; `run` and `trace` feed it 256 as well, untimed,
    /// and report the loss.
    pub fn batch(self) -> usize {
        if self == Workload::JoinHotSharded {
            128
        } else {
            256
        }
    }

    /// Shard workers the workload's engine is built with.
    pub fn shards(self) -> usize {
        if self == Workload::JoinHotSharded {
            2
        } else {
            1
        }
    }

    /// Whether a round is one thread pinned to one CPU
    /// ([`crate::measure::pin_to_last_cpu`]). Not with shard workers: they
    /// inherit the mask and need the other CPUs.
    pub fn pinned(self) -> bool {
        self.shards() == 1
    }

    /// The input family: workloads of one family get byte-identical streams
    /// for one seed (`join_hot_sharded` must replay `join_hot`'s input).
    fn stream_id(self) -> u64 {
        match self {
            Workload::SingleNews => 1,
            Workload::JoinHot | Workload::JoinHotSharded => 2,
            Workload::Tenants1024 => 3,
            Workload::TenantsChurn => 4,
            Workload::RpqLateral => 5,
            Workload::FanoutDurable => 6,
        }
    }

    /// Makes the workload's input from `seed`: same seed, same bytes.
    pub fn generate(self, seed: u64) -> Input {
        self.generate_sized(seed, self.events())
    }

    /// [`Self::generate`] with an explicit background length (the selftest and
    /// the reference prefix use short streams).
    pub fn generate_sized(self, seed: u64, events: usize) -> Input {
        let mut rng = SplitMix64::new(seed, self.stream_id());
        let burst = |label: &str, at: f64| Burst {
            label: label.to_owned(),
            at,
        };
        let mut chains = Vec::new();
        let (events, queries) = match self {
            Workload::SingleNews => {
                let bursts = [burst("politics", 0.5)];
                let queries = vec![QuerySpec::Graph(labelled_pair("politics_pair", "politics"))];
                (gen::news_stream(&mut rng, events, &bursts), queries)
            }
            Workload::JoinHot | Workload::JoinHotSharded => {
                let queries = vec![QuerySpec::Manual {
                    text: HOT_WEDGE.to_owned(),
                    leaves: vec![vec![0], vec![1], vec![2]],
                }];
                (gen::hot_stream(&mut rng, events), queries)
            }
            Workload::Tenants1024 | Workload::TenantsChurn => {
                let tenants = if self == Workload::Tenants1024 {
                    1024
                } else {
                    128
                };
                let label_of = |t: usize| {
                    if t < tenants / 2 {
                        LABEL_POOL[t % LABEL_POOL.len()].to_owned()
                    } else {
                        format!("topic{t}")
                    }
                };
                // Two bursts per pool label and four unique-label tenants',
                // spread evenly over the stream: matches stay rare.
                let bursts: Vec<Burst> = (0..12)
                    .map(|i| {
                        let label = if i % 3 == 2 {
                            label_of(tenants / 2 + i * 5)
                        } else {
                            LABEL_POOL[(i - i / 3) % LABEL_POOL.len()].to_owned()
                        };
                        burst(&label, (i as f64 + 1.0) / 13.0)
                    })
                    .collect();
                let queries = (0..tenants)
                    .map(|t| {
                        let label = label_of(t);
                        QuerySpec::Graph(labelled_pair(&format!("t{t}_{label}"), &label))
                    })
                    .collect();
                (gen::news_stream(&mut rng, events, &bursts), queries)
            }
            Workload::RpqLateral => {
                let (events, planted) = gen::lateral_stream(&mut rng, events, &[0, 2, 4, 8]);
                chains = planted;
                (events, vec![QuerySpec::Rpq(LATERAL.trim().to_owned())])
            }
            Workload::FanoutDurable => {
                let queries = (0..16)
                    .map(|t| QuerySpec::Dsl(COLOC_PAIR.replace("{name}", &format!("coloc{t}"))))
                    .collect();
                (gen::news_stream(&mut rng, events, &[]), queries)
            }
        };
        let mut digest = InputDigest::new();
        for ev in &events {
            digest.event(ev);
        }
        for q in &queries {
            digest.text(&q.describe());
        }
        Input {
            events,
            queries,
            chains,
            digest: digest.finish(),
        }
    }
}

/// How one query reaches the engine.
#[derive(Debug, Clone)]
pub enum QuerySpec {
    /// `register_query` (default planning).
    Graph(QueryGraph),
    /// Parse, plan with `ManualDecomposition` over `leaves`, `register_plan`.
    Manual {
        text: String,
        leaves: Vec<Vec<usize>>,
    },
    /// `register_dsl`.
    Dsl(String),
    /// `register_rpq_dsl`.
    Rpq(String),
}

impl QuerySpec {
    /// A stable text form, folded into the input digest.
    fn describe(&self) -> String {
        match self {
            QuerySpec::Graph(q) => {
                streamworks_query::format_query(q)
                    + &q.edges()
                        .flat_map(|e| e.predicates.iter().map(Predicate::canonical_token))
                        .collect::<Vec<_>>()
                        .join(";")
            }
            QuerySpec::Manual { text, leaves } => format!("{text}{leaves:?}"),
            QuerySpec::Dsl(text) | QuerySpec::Rpq(text) => text.clone(),
        }
    }

    /// The SJ-Tree plan this spec registers, for the group-A replay; `None`
    /// for an RPQ. `Graph`/`Dsl` specs are planned the way `register_query`
    /// plans them (default strategy, no statistics on a fresh engine).
    pub fn plan(&self) -> Option<QueryPlan> {
        match self {
            QuerySpec::Graph(q) => Planner::new().plan(q.clone()).ok(),
            QuerySpec::Dsl(text) => Planner::new().plan(parse_query(text).ok()?).ok(),
            QuerySpec::Manual { text, leaves } => manual_plan(text, leaves).ok(),
            QuerySpec::Rpq(_) => None,
        }
    }
}

fn manual_strategy(leaves: &[Vec<usize>]) -> ManualDecomposition {
    ManualDecomposition::new(
        leaves
            .iter()
            .map(|leaf| leaf.iter().map(|&e| QueryEdgeId(e)).collect())
            .collect(),
    )
}

fn manual_plan(text: &str, leaves: &[Vec<usize>]) -> Result<QueryPlan, String> {
    let query = parse_query(text).map_err(|e| e.to_string())?;
    Planner::new()
        .plan_with(query, &manual_strategy(leaves))
        .map_err(|e| e.to_string())
}

/// The Fig. 5 labelled-pair template: two articles mentioning one keyword,
/// both mention edges carrying `label` (see `queries/labelled_pair.txt`).
fn labelled_pair(name: &str, label: &str) -> QueryGraph {
    QueryGraphBuilder::new(name)
        .window(Duration::from_mins(30))
        .vertex("a1", "Article")
        .vertex("a2", "Article")
        .vertex("k", "Keyword")
        .edge_with("a1", "mentions", "k", vec![Predicate::eq("label", label)])
        .edge_with("a2", "mentions", "k", vec![Predicate::eq("label", label)])
        .build()
        .expect("the labelled-pair template is valid")
}

/// A generated input: the stream, the queries and the planted ground truth.
#[derive(Debug, Clone)]
pub struct Input {
    pub events: Vec<EdgeEvent>,
    pub queries: Vec<QuerySpec>,
    pub chains: Vec<Chain>,
    /// Digest of every event field and every query text.
    pub digest: u64,
}

/// Time and count of one kind of registry call.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallTimer {
    pub calls: u64,
    pub ns: u64,
    pub errors: u64,
}

impl CallTimer {
    fn time<T, E>(&mut self, call: impl FnOnce() -> Result<T, E>) -> Option<T> {
        let start = Instant::now();
        let result = call();
        self.ns += start.elapsed().as_nanos() as u64;
        self.calls += 1;
        if result.is_err() {
            self.errors += 1;
        }
        result.ok()
    }
}

/// A fresh engine with the workload's queries and subscriptions registered,
/// plus the lifecycle state of `tenants_churn`.
pub struct Session {
    pub engine: ContinuousQueryEngine,
    pub handles: Vec<QueryHandle>,
    /// Durable delivery logs, one per tenant (`fanout_durable` only).
    pub logs: Vec<PathBuf>,
    pub register: CallTimer,
    pub deregister: CallTimer,
    /// pause + resume + replan calls.
    pub lifecycle: CallTimer,
    churn: Option<(Option<QueryHandle>, usize)>,
}

impl Session {
    /// Builds the engine for `workload` and registers every query and
    /// subscription of `input`. `traced` switches on sampled telemetry at
    /// every event; `scratch` receives the durable logs.
    pub fn open(
        workload: Workload,
        input: &Input,
        traced: bool,
        scratch: &Path,
    ) -> Result<Session, String> {
        let mut builder = ContinuousQueryEngine::builder().shards(workload.shards());
        if traced {
            builder = builder
                .telemetry_level(TelemetryLevel::Sampled)
                .telemetry_sample_every(1);
        }
        let engine = builder.build().map_err(|e| e.to_string())?;
        let mut session = Session {
            engine,
            handles: Vec::with_capacity(input.queries.len()),
            logs: Vec::new(),
            register: CallTimer::default(),
            deregister: CallTimer::default(),
            lifecycle: CallTimer::default(),
            churn: (workload == Workload::TenantsChurn).then_some((None, 0)),
        };
        for spec in &input.queries {
            let engine = &mut session.engine;
            let handle = session
                .register
                .time(|| match spec {
                    QuerySpec::Graph(q) => {
                        engine.register_query(q.clone()).map_err(|e| e.to_string())
                    }
                    QuerySpec::Dsl(text) => engine.register_dsl(text).map_err(|e| e.to_string()),
                    QuerySpec::Rpq(text) => {
                        engine.register_rpq_dsl(text).map_err(|e| e.to_string())
                    }
                    QuerySpec::Manual { text, leaves } => {
                        manual_plan(text, leaves).map(|plan| engine.register_plan(plan))
                    }
                })
                .ok_or_else(|| format!("{}: a query failed to register", workload.name()))?;
            session.handles.push(handle);
        }
        if workload == Workload::FanoutDurable {
            for (t, &handle) in session.handles.iter().enumerate() {
                let path = scratch.join(format!("delivery-{t}.log"));
                // The log is owned by its subscription and truncated to the
                // acknowledged prefix (empty) on connect; remove leftovers of
                // an earlier pass anyway so a connect failure cannot hide.
                let _ = std::fs::remove_file(&path);
                let spec = SinkSpec::LogFile {
                    path: path.to_string_lossy().into_owned(),
                };
                session
                    .engine
                    .subscribe_durable(handle, spec)
                    .map_err(|e| e.to_string())?;
                session.logs.push(path);
            }
        }
        Ok(session)
    }

    /// Runs the lifecycle operation due before event `index`, if any:
    /// register → pause → resume → replan → deregister, one step every
    /// [`CHURN_EVERY`] events, each cycle on a fresh pool-label tenant.
    pub fn lifecycle_before(&mut self, index: usize) {
        let Some((live, step)) = self.churn.as_mut() else {
            return;
        };
        if index == 0 || !index.is_multiple_of(CHURN_EVERY) {
            return;
        }
        let cycle = *step / 5;
        let engine = &mut self.engine;
        match (*step % 5, *live) {
            (0, _) => {
                let label = LABEL_POOL[cycle % LABEL_POOL.len()];
                let query = labelled_pair(&format!("churn{cycle}_{label}"), label);
                *live = self.register.time(|| engine.register_query(query));
            }
            (1, Some(h)) => {
                self.lifecycle.time(|| engine.pause(h));
            }
            (2, Some(h)) => {
                self.lifecycle.time(|| engine.resume(h));
            }
            (3, Some(h)) => {
                let split = manual_strategy(&[vec![0], vec![1]]);
                self.lifecycle
                    .time(|| engine.replan(h, &split, TreeShapeKind::LeftDeep));
            }
            (4, Some(h)) => {
                self.deregister.time(|| engine.deregister(h));
                *live = None;
            }
            // A failed register leaves nothing to operate on; the failure is
            // already counted.
            (_, None) => {}
            _ => unreachable!("step % 5 is below 5"),
        }
        *step += 1;
    }

    /// Registry calls that returned `Err` so far.
    pub fn registry_errors(&self) -> u64 {
        self.register.errors + self.deregister.errors + self.lifecycle.errors
    }

    /// Registry calls made so far.
    pub fn registry_calls(&self) -> u64 {
        self.register.calls + self.deregister.calls + self.lifecycle.calls
    }
}
