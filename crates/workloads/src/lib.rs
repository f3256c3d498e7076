//! # streamworks-workloads
//!
//! Synthetic workload and trace generators for the StreamWorks reproduction.
//! The paper demonstrates on CAIDA internet traces and New York Times linked
//! data (paper §5–§6); neither is redistributable, so this crate provides
//! generators that preserve the structural properties the matcher exercises
//! (type schema, hub skew, burstiness, injected target patterns with ground
//! truth). The experiments that run on them are indexed in the
//! `streamworks-bench` crate docs (`crates/bench/src/lib.rs`).
//!
//! * [`CyberTrafficGenerator`] — flow-level network traffic with injected
//!   Smurf DDoS / worm / port-scan motifs.
//! * [`NewsStreamGenerator`] — article/keyword/location/person streams with
//!   planted co-occurrence bursts.
//! * [`MultiTenantGenerator`] — N tenants instantiating overlapping query
//!   templates with distinct label constants, the registry shape the
//!   engine's multi-query sharing layer deduplicates.
//! * [`differential_workload`] — seeded random registries with planted
//!   common subtrees and constant-varied predicates, driving the
//!   registry-vs-one-engine-per-query differential oracle tests.
//! * [`LateralMovementGenerator`] / [`CitationChainGenerator`] — multi-hop
//!   motifs (intrusion pivot chains, article citation chains) with planted
//!   ground truth, targets for the engine's windowed regular-path-query
//!   class rather than fixed-shape SJ-Tree patterns.
//! * [`uniform_stream`] / [`preferential_attachment_stream`] /
//!   [`plant_pattern`] — random graph streams for micro-benchmarks.
//! * [`queries`] — the canonical query graphs of paper Figs. 2 and 3.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cyber;
pub mod news;
pub mod proptest;
pub mod queries;
pub mod random;
pub mod rpq;
pub mod schema;
pub mod tenants;
pub mod trace;

pub use cyber::{AttackKind, CyberConfig, CyberTrafficGenerator, CyberWorkload, InjectedAttack};
pub use news::{NewsConfig, NewsStreamGenerator, NewsWorkload, PlantedEvent};
pub use proptest::{differential_workload, DifferentialConfig, DifferentialWorkload};
pub use random::{plant_pattern, preferential_attachment_stream, uniform_stream, RandomConfig};
pub use rpq::{
    citation_chain_rpq, lateral_movement_rpq, CitationChainGenerator, CitationConfig,
    LateralMovementConfig, LateralMovementGenerator, PlantedChain, RpqWorkload,
};
pub use tenants::{MultiTenantGenerator, MultiTenantWorkload, TenantConfig};
pub use trace::{
    read_trace, read_trace_file, write_trace, write_trace_file, TraceError, TraceRecord,
    TraceReplay,
};
