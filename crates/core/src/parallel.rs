//! Parallel execution *within* one query.
//!
//! The paper's demo runs on a 48-core shared-memory node (§6.1).
//! [`ShardedMatcher`] shards a *single* query's SJ-Tree match state by
//! **join-key hash**, so one hot query — the real-time cyber regime
//! StreamWorks targets — can use the whole machine instead of one core.
//!
//! # How single-query sharding works
//!
//! Two matches at sibling SJ-Tree nodes can only join when they agree on the
//! parent's cut vertices — the join key. Partitioning every node's match
//! collection by `hash(join key) % N` therefore never separates a joinable
//! pair: all the state one join could touch lives in exactly one shard.
//!
//! The calling thread (the engine's ingest thread) keeps the serial,
//! graph-dependent front end: graph updates and the anchored local search.
//! Each primitive embedding it finds is routed — over a crossbeam channel —
//! to the shard owning its join key. Shard workers own one
//! [`crate::SharedJoinStore`] per internal SJ-Tree node (the per-parent
//! shared index: one hash lookup covers probe *and* insert) and run the same
//! allocation-free probe/merge path as the single-threaded matcher. A merged
//! match climbing to the next internal node re-hashes under that node's cut;
//! if its new key belongs to a different shard it is handed off over the
//! worker's peer channels, which is how cross-shard joins at internal nodes
//! are met. Root-level combinations are complete matches and flow into a
//! single fan-in channel.
//!
//! The driver drains that fan-in and, at every quiescent point (the end of
//! each `ingest` call), releases the completed matches ordered by the stream
//! position of the edge that completed them — so a tenant's
//! [`crate::ContinuousQueryEngine::subscribe`] sink observes one unified,
//! correctly-ordered stream no matter how many cores the query runs on.
//!
//! Exactness: every (left, right) pair of sibling matches under one key meets
//! in exactly one shard, and whichever member is filed later probes the
//! earlier one — the same probe-before-store discipline as the in-process
//! matcher — so the emitted match multiset is identical to the
//! single-threaded engine's for any shard count (`tests/sharding.rs` asserts
//! this for 1/2/4/8 shards on both bundled workloads).
//!
//! # Using it through the engine
//!
//! Sharding is a deployment knob, not an API: build the engine with
//! [`crate::EngineBuilder::shards`] and every registered query runs sharded,
//! with subscriptions, pause/resume, deregistration and metrics behaving
//! exactly as in the single-threaded engine.
//!
//! ```
//! use streamworks_core::{BufferingSink, ContinuousQueryEngine};
//! use streamworks_graph::{EdgeEvent, Timestamp};
//!
//! // One query, four shards: the match state is spread over four workers.
//! let mut engine = ContinuousQueryEngine::builder().shards(4).build().unwrap();
//! let pairs = engine
//!     .register_dsl(
//!         "QUERY pair WINDOW 1h \
//!          MATCH (a1:Article)-[:mentions]->(k:Keyword), (a2:Article)-[:mentions]->(k)",
//!     )
//!     .unwrap();
//!
//! // The tenant's subscription sees one unified stream across all shards.
//! let (sink, seen) = BufferingSink::new();
//! engine.subscribe(pairs, sink).unwrap();
//!
//! let matches = engine.ingest(&[
//!     EdgeEvent::new("a1", "Article", "rust", "Keyword", "mentions", Timestamp::from_secs(10)),
//!     EdgeEvent::new("a2", "Article", "rust", "Keyword", "mentions", Timestamp::from_secs(20)),
//! ]).unwrap();
//! assert_eq!(matches.len(), 2); // same multiset as the 1-thread engine
//! assert_eq!(seen.drain().len(), 2);
//!
//! // Per-shard counters show how the state spread.
//! let per_shard = engine.shard_metrics(pairs).unwrap().unwrap();
//! assert_eq!(per_shard.len(), 4);
//! ```

use crate::binding::PartialMatch;
use crate::config::ShardFailurePolicy;
use crate::join::{self, NodeRoute, NO_PARENT};
use crate::match_store::{JoinKey, SharedJoinStore};
use crate::metrics::{QueryMetrics, ShardMetrics};
use crate::sj_matcher::SjTreeMatcher;
use crate::telemetry::{SpanRing, Stage, TelemetryCore, TraceSpan};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use streamworks_graph::hash::FxHasher;
use streamworks_graph::{Duration, DynamicGraph, Edge, Timestamp, VertexId};
use streamworks_query::{QueryPlan, QueryVertexId, SjNodeId};

/// Renders a panic payload for error reporting: panics raised with a string
/// (the overwhelmingly common case — `panic!`, `expect`, assertion macros)
/// keep their message; anything else gets a placeholder.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Routes a join key to its owning shard. Both the driver (for leaf matches)
/// and the workers (for merged matches climbing the tree) use this, so a
/// key's owner is a pure function of its projection.
#[inline]
fn shard_of(key: &[VertexId], shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    use std::hash::{Hash, Hasher};
    let mut hasher = FxHasher::default();
    for v in key {
        v.0.hash(&mut hasher);
    }
    // Fold the well-mixed high bits of the Fx product into the low bits
    // before reducing: the raw multiply keeps the key's low-bit patterns
    // (dense vertex ids would otherwise land on a subset of the shards).
    let mut h = hasher.finish();
    h ^= h >> 32;
    h ^= h >> 16;
    (h % shards as u64) as usize
}

/// Projects `m` onto `key_vertices` and returns the owning shard.
#[inline]
fn owner_of(m: &PartialMatch, key_vertices: &[QueryVertexId], shards: usize) -> usize {
    let mut key = JoinKey::new();
    let bound = m.binding.project_into(key_vertices, &mut key);
    debug_assert!(bound, "a node-complete match binds its join key");
    shard_of(&key, shards)
}

/// One routed unit of join work: a partial match to file at `node` (and join
/// upward from there). `seq` is the stream position of the producing edge.
struct RoutedMatch {
    node: SjNodeId,
    seq: u64,
    m: PartialMatch,
}

/// Matches buffered per destination before one channel send covers them all:
/// channel and wake-up costs are per *batch*, not per match, which is what
/// keeps the routed hot path cheap.
const ROUTE_BATCH: usize = 128;

/// Work items flowing into a shard worker.
enum ShardItem {
    /// A batch of routed matches (driver → shard, or shard → shard).
    Matches(Vec<RoutedMatch>),
    /// The join stores of a quarantined shard, to be merged into this
    /// worker's stores (the `Degrade` transplant; driver → survivor). Sent
    /// on the same channel as subsequent re-routed matches, so channel FIFO
    /// guarantees the state arrives before anything that probes it.
    Absorb(Vec<Option<SharedJoinStore>>),
    /// Expire stored matches whose earliest edge predates `cutoff`.
    Prune { cutoff: Timestamp },
    /// Drop the worker's channels and exit.
    Shutdown,
}

/// Control-plane messages from workers to the driver, carried on a channel
/// of their own (unbounded: fault traffic must never be able to jam behind
/// the data plane it is reporting about).
enum ShardSignal {
    /// The worker died (caught panic or injected error). Carries everything
    /// the driver needs to quarantine the shard: its join stores and the
    /// routed items it had accepted but not processed.
    Failed {
        shard: usize,
        message: String,
        stores: Vec<Option<SharedJoinStore>>,
        unprocessed: Vec<RoutedMatch>,
    },
    /// A batch that reached a quarantined shard, bounced back for
    /// re-routing. The batch's pending count travels with it — the relay
    /// does not decrement; the driver does, after re-routing — so
    /// quiescence can never be observed while an orphan is in flight.
    Orphan(Vec<RoutedMatch>),
    /// A `Degrade` transplant that reached a shard which *also* died before
    /// absorbing it, bounced back (count travelling, like [`Self::Orphan`])
    /// so the driver can re-home the state on a shard that is still live.
    OrphanStores(Vec<Option<SharedJoinStore>>),
}

/// One reported shard-worker failure (see [`ShardFailurePolicy`] and the
/// module docs). Obtained from [`ShardedMatcher::take_failures`] /
/// [`ShardedMatcher::terminal_failure`]; the engine folds these into
/// [`crate::EngineError::ShardFailed`].
#[derive(Debug, Clone)]
pub struct ShardFailure {
    /// Index of the shard whose worker died.
    pub shard: usize,
    /// The caught panic payload or injected failure description.
    pub message: String,
    /// True when the matcher quarantined the shard, transplanted its state
    /// and kept serving (`Degrade`); false when the matcher is now failed
    /// terminally (`FailFast`, or no survivor was left to degrade onto).
    pub degraded: bool,
}

/// Per-shard counters, shared between a worker and the driver. Workers batch
/// their updates per work item; the driver snapshots with relaxed loads
/// (exact at quiescent points — between `ingest` calls).
#[derive(Default)]
struct ShardCounters {
    items_routed: AtomicU64,
    handoffs_out: AtomicU64,
    inserted: AtomicU64,
    live: AtomicU64,
    expired: AtomicU64,
    joins_attempted: AtomicU64,
    joins_succeeded: AtomicU64,
    complete: AtomicU64,
    dropped_by_cap: AtomicU64,
    spills: AtomicU64,
}

impl ShardCounters {
    fn snapshot(&self) -> ShardMetrics {
        ShardMetrics {
            items_routed: self.items_routed.load(Ordering::Relaxed),
            handoffs_out: self.handoffs_out.load(Ordering::Relaxed),
            partial_matches_inserted: self.inserted.load(Ordering::Relaxed),
            partial_matches_live: self.live.load(Ordering::Relaxed),
            partial_matches_expired: self.expired.load(Ordering::Relaxed),
            joins_attempted: self.joins_attempted.load(Ordering::Relaxed),
            joins_succeeded: self.joins_succeeded.load(Ordering::Relaxed),
            complete_matches: self.complete.load(Ordering::Relaxed),
            matches_dropped_by_cap: self.dropped_by_cap.load(Ordering::Relaxed),
            binding_spills: self.spills.load(Ordering::Relaxed),
        }
    }
}

/// Join/store counters accumulated across one work batch, flushed to the
/// shared atomics once per batch.
#[derive(Default)]
struct BatchCounters {
    inserted: u64,
    joins_attempted: u64,
    joins_succeeded: u64,
    complete: u64,
    handoffs: u64,
    dropped: u64,
    spills: u64,
}

/// One shard worker: owns a [`SharedJoinStore`] per internal SJ-Tree node
/// covering the slice of the join-key space that hashes to it.
struct ShardWorker {
    id: usize,
    shards: usize,
    /// Per-node climb steps (see [`NodeRoute`]).
    routes: Vec<NodeRoute>,
    /// Per-node join key of the *next* level (`shape.join_key(node)`),
    /// indexed by node id — what a match merged at that node re-hashes on.
    next_keys: Vec<Vec<QueryVertexId>>,
    /// Store per node id; `Some` for internal nodes only (leaves store their
    /// matches in their parent's shared index, the root stores nothing).
    stores: Vec<Option<SharedJoinStore>>,
    rx: crossbeam::channel::Receiver<ShardItem>,
    /// Senders to every shard (self unused) for cross-shard handoffs.
    peers: Vec<crossbeam::channel::Sender<ShardItem>>,
    /// Per-peer buffers of outgoing handoffs, flushed as one batch each.
    /// Doubles as the local overflow escape valve when a peer's bounded
    /// channel is full: the batch stays here (its pending count already
    /// taken — see `handoff_counted`) and is retried from the run loop, so
    /// two workers whose channels fill simultaneously can never deadlock on
    /// each other's sends.
    handoff_buffers: Vec<Vec<RoutedMatch>>,
    /// Whether the owner's buffered batch already carries a pending count
    /// (set when a flush hit a full channel and the batch stayed local).
    handoff_counted: Vec<bool>,
    results: crossbeam::channel::Sender<Vec<(u64, PartialMatch)>>,
    /// Control-plane channel to the driver (failure reports and bounced
    /// orphan batches).
    faults: crossbeam::channel::Sender<ShardSignal>,
    /// Completed matches buffered during one work batch, sent as one message.
    completed_buffer: Vec<(u64, PartialMatch)>,
    pending: Arc<AtomicUsize>,
    counters: Arc<ShardCounters>,
    max_matches_per_node: Option<usize>,
    window: Duration,
    /// Scratch reused across items: pending (node, match) pairs local to
    /// this shard and merge results of one probe.
    stack: Vec<(SjNodeId, PartialMatch)>,
    merged: Vec<PartialMatch>,
    acc: BatchCounters,
    /// Observability hooks: the engine-shared histogram core plus this
    /// worker's own single-writer span ring. `None` when telemetry is off —
    /// the worker pays one branch per batch.
    telemetry: Option<(Arc<TelemetryCore>, Arc<SpanRing>)>,
}

impl ShardWorker {
    fn run(mut self) {
        loop {
            // While a handoff batch is parked on a full peer channel, poll
            // with a short timeout so the retry loop keeps making progress
            // even if nothing new arrives for this shard.
            let item = if self.has_blocked_handoffs() {
                match self.rx.recv_timeout(std::time::Duration::from_millis(1)) {
                    Ok(item) => Some(item),
                    Err(crossbeam::channel::RecvTimeoutError::Timeout) => None,
                    Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
                }
            } else {
                match self.rx.recv() {
                    Ok(item) => Some(item),
                    Err(_) => return,
                }
            };
            if self.has_blocked_handoffs() {
                self.flush_handoffs();
            }
            let Some(item) = item else { continue };
            match item {
                ShardItem::Matches(batch) => {
                    self.counters
                        .items_routed
                        .fetch_add(batch.len() as u64, Ordering::Relaxed);
                    // A batch carrying a sampled edge times its whole climb
                    // (one histogram entry + one span, keyed by the sampled
                    // seq so the driver-side spans of the same event line
                    // up). Off-telemetry this is a single `None` branch.
                    let climb_sample = self.telemetry.as_ref().and_then(|(core, _)| {
                        batch
                            .iter()
                            .find(|r| core.should_sample(r.seq))
                            .map(|r| (r.seq, core.now_ns()))
                    });
                    // Supervision entry: an injected batch-entry fault (or
                    // a panic from it) fails the shard with the *whole*
                    // batch intact, which is what makes `Degrade` exact
                    // under the chaos suite's injected faults.
                    match catch_unwind(AssertUnwindSafe(|| {
                        crate::failpoint::fire_at("shard-worker", self.id)
                    })) {
                        Ok(false) => {}
                        Ok(true) => {
                            self.fail("injected shard-worker error".to_owned(), batch);
                            return;
                        }
                        Err(payload) => {
                            self.fail(panic_message(payload.as_ref()), batch);
                            return;
                        }
                    }
                    let mut items = batch.into_iter();
                    while let Some(routed) = items.next() {
                        // The per-item site fires *before* the climb, while
                        // the item is still whole: an injected fault loses
                        // nothing, so `Degrade` stays exact under it.
                        match catch_unwind(AssertUnwindSafe(|| {
                            crate::failpoint::fire_at("join-climb", self.id)
                        })) {
                            Ok(false) => {}
                            Ok(true) => {
                                let mut unprocessed = vec![routed];
                                unprocessed.extend(items);
                                self.fail("injected join-climb error".to_owned(), unprocessed);
                                return;
                            }
                            Err(payload) => {
                                let mut unprocessed = vec![routed];
                                unprocessed.extend(items);
                                self.fail(panic_message(payload.as_ref()), unprocessed);
                                return;
                            }
                        }
                        // A genuine mid-climb panic may have applied part of
                        // this one item's effects (documented best-effort),
                        // but `self` stays structurally valid: the stores
                        // are safe to transplant and the remaining items to
                        // re-route.
                        if let Err(payload) =
                            catch_unwind(AssertUnwindSafe(|| self.process(routed)))
                        {
                            let unprocessed: Vec<RoutedMatch> = items.collect();
                            self.fail(panic_message(payload.as_ref()), unprocessed);
                            return;
                        }
                    }
                    if let (Some((seq, start)), Some((core, ring))) =
                        (climb_sample, self.telemetry.as_ref())
                    {
                        let dur = core.now_ns().saturating_sub(start);
                        core.record(Stage::JoinClimb, dur);
                        ring.push(seq, Stage::JoinClimb, start, dur);
                    }
                    if !self.completed_buffer.is_empty() {
                        // The driver may already have dropped the receiver
                        // during shutdown; losing the matches is fine then.
                        let batch = std::mem::take(&mut self.completed_buffer);
                        let _ = self.results.send(batch);
                    }
                    self.flush_handoffs();
                    self.flush_counters();
                    // Decrement only after the batch (and every local
                    // descendant) is fully processed and its handoffs have
                    // been counted: `pending == 0` ⇒ globally quiescent. The
                    // worker that brings the counter to zero wakes the driver
                    // (possibly blocked in `wait_quiescent`) with an empty
                    // result batch, so the barrier never has to spin.
                    // (A handoff batch parked on a full peer channel keeps
                    // its own pending count until actually delivered, so
                    // this decrement can never fake quiescence.)
                    if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                        let _ = self.results.send(Vec::new());
                    }
                }
                ShardItem::Absorb(stores) => {
                    for (mine, theirs) in self.stores.iter_mut().zip(stores) {
                        if let (Some(mine), Some(theirs)) = (mine, theirs) {
                            mine.absorb(theirs);
                        }
                    }
                    self.publish_live();
                    if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                        let _ = self.results.send(Vec::new());
                    }
                }
                ShardItem::Prune { cutoff } => {
                    // Sweeps are rare (one marker per prune cadence), so
                    // every one is measured while telemetry is on. No span:
                    // sweeps have no owning edge seq on the worker side.
                    let sweep_start = self.telemetry.as_ref().map(|(core, _)| core.now_ns());
                    match catch_unwind(AssertUnwindSafe(|| {
                        if crate::failpoint::fire_at("expiry-sweep", self.id) {
                            panic!("injected expiry-sweep error");
                        }
                        self.prune(cutoff)
                    })) {
                        Ok(()) => {
                            if let (Some(start), Some((core, _))) =
                                (sweep_start, self.telemetry.as_ref())
                            {
                                core.record(
                                    Stage::ExpirySweep,
                                    core.now_ns().saturating_sub(start),
                                );
                            }
                            // Prune markers are counted in `pending` like
                            // match batches, so a barrier right after a prune
                            // also waits for the sweeps (metrics read exactly
                            // afterwards).
                            if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                                let _ = self.results.send(Vec::new());
                            }
                        }
                        Err(payload) => {
                            self.fail(panic_message(payload.as_ref()), Vec::new());
                            return;
                        }
                    }
                }
                ShardItem::Shutdown => return,
            }
        }
        // Dropping `self` here releases the peer senders, letting sibling
        // workers (already shut down themselves) disconnect cleanly.
    }

    fn has_blocked_handoffs(&self) -> bool {
        self.handoff_counted.iter().any(|&c| c)
    }

    /// Terminal failure path: report everything the driver needs to contain
    /// the failure, then turn into a relay (`Self::relay`) so traffic routed
    /// here by the pure hash keeps flowing back for re-routing.
    fn fail(mut self, message: String, mut unprocessed: Vec<RoutedMatch>) {
        // Buffered outgoing handoffs that never took a pending count ride
        // along for re-routing; batches that already took one (parked on a
        // full peer) do too — their counts are released below.
        let mut parked_counts = 0usize;
        for (owner, buf) in self.handoff_buffers.iter_mut().enumerate() {
            if self.handoff_counted[owner] {
                parked_counts += 1;
            }
            unprocessed.append(buf);
        }
        // Flush matches completed before the failure: they are valid
        // outputs (the join discipline emitted them exactly once).
        if !self.completed_buffer.is_empty() {
            let batch = std::mem::take(&mut self.completed_buffer);
            let _ = self.results.send(batch);
        }
        self.flush_counters();
        let stores = std::mem::take(&mut self.stores);
        self.counters.live.store(0, Ordering::Relaxed);
        let _ = self.faults.send(ShardSignal::Failed {
            shard: self.id,
            message,
            stores,
            unprocessed,
        });
        // Release this batch's pending count — plus any parked handoff
        // counts — only *after* the fault (which carries their items) is in
        // the channel: the driver can then never observe quiescence with
        // the failure unseen, because `pending == 0` happens-after the
        // fault became receivable.
        let release = 1 + parked_counts;
        if self.pending.fetch_sub(release, Ordering::AcqRel) == release {
            let _ = self.results.send(Vec::new());
        }
        self.relay();
    }

    /// Post-failure mode: bounce every incoming batch back to the driver
    /// for re-routing (no pending decrement — the count travels with the
    /// orphan), acknowledge control markers, exit on shutdown. Routing
    /// stays a pure function of the join-key hash this way: peers keep
    /// sending here, and channel FIFO through the driver guarantees
    /// re-routed work reaches the adopting shard after its `Absorb`.
    fn relay(self) {
        while let Ok(item) = self.rx.recv() {
            match item {
                ShardItem::Matches(batch) => {
                    let _ = self.faults.send(ShardSignal::Orphan(batch));
                }
                ShardItem::Absorb(stores) => {
                    // A transplant aimed here just before this shard also
                    // died: bounce the state back (count travelling) so the
                    // driver can re-home it on a live shard.
                    let _ = self.faults.send(ShardSignal::OrphanStores(stores));
                }
                ShardItem::Prune { .. } => {
                    // Nothing to sweep here; just release the marker's
                    // count so barriers still complete.
                    if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                        let _ = self.results.send(Vec::new());
                    }
                }
                ShardItem::Shutdown => break,
            }
        }
    }

    /// The sharded counterpart of the in-process climb
    /// (`sj_matcher::Climb::file`): the same store and probe order, but each
    /// step's merges are collected (`crate::join::probe_insert`) and routed,
    /// because a merged match's next join key may hash to another shard.
    fn process(&mut self, routed: RoutedMatch) {
        let RoutedMatch { node, seq, m } = routed;
        let window = self.window;

        let mut stack = std::mem::take(&mut self.stack);
        let mut merged = std::mem::take(&mut self.merged);
        stack.push((node, m));
        while let Some((node, m)) = stack.pop() {
            if m.spilled() {
                self.acc.spills += 1;
            }
            let NodeRoute {
                parent,
                side,
                parent_is_root,
            } = self.routes[node.0];
            debug_assert_ne!(parent, NO_PARENT, "root matches are emitted, never filed");
            let parent = parent as usize;
            let store = self.stores[parent]
                .as_mut()
                .expect("internal node has a shared store");
            if let Some(cap) = self.max_matches_per_node {
                if store.side_len(side) >= cap {
                    self.acc.dropped += 1;
                    continue;
                }
            }

            merged.clear();
            self.acc.joins_attempted += join::probe_insert(store, side, m, window, &mut merged);
            self.acc.inserted += 1;
            self.acc.joins_succeeded += merged.len() as u64;

            // The store probes newest sibling first; walk the merges oldest
            // first so the stack below pops them in probe order.
            for combined in merged.drain(..).rev() {
                if parent_is_root {
                    self.acc.complete += 1;
                    if combined.spilled() {
                        self.acc.spills += 1;
                    }
                    self.completed_buffer.push((seq, combined));
                } else {
                    let owner = owner_of(&combined, &self.next_keys[parent], self.shards);
                    if owner == self.id {
                        stack.push((SjNodeId(parent), combined));
                    } else {
                        self.acc.handoffs += 1;
                        self.handoff_buffers[owner].push(RoutedMatch {
                            node: SjNodeId(parent),
                            seq,
                            m: combined,
                        });
                        if self.handoff_buffers[owner].len() >= ROUTE_BATCH {
                            self.flush_handoff_to(owner);
                        }
                    }
                }
            }
        }
        self.stack = stack;
        self.merged = merged;
    }

    /// Sends one buffered handoff batch with `try_send`. The pending
    /// increment happens *before* the send attempt, so the counter can
    /// never under-report in-flight work; on a full peer channel the batch
    /// stays parked locally (keeping its count — `handoff_counted`) and is
    /// retried from the run loop. A worker never blocks on a peer send,
    /// which is what makes two workers with mutually full channels unable
    /// to deadlock on each other.
    fn flush_handoff_to(&mut self, owner: usize) {
        if self.handoff_buffers[owner].is_empty() {
            return;
        }
        if !self.handoff_counted[owner] {
            self.pending.fetch_add(1, Ordering::Relaxed);
            self.handoff_counted[owner] = true;
        }
        let batch = std::mem::take(&mut self.handoff_buffers[owner]);
        match self.peers[owner].try_send(ShardItem::Matches(batch)) {
            Ok(()) => self.handoff_counted[owner] = false,
            Err(crossbeam::channel::TrySendError::Full(item)) => {
                let ShardItem::Matches(batch) = item else {
                    unreachable!("try_send returns the item it was given")
                };
                self.handoff_buffers[owner] = batch;
            }
            Err(crossbeam::channel::TrySendError::Disconnected(_)) => {
                // Peer gone (shutdown teardown): the work is moot, but its
                // count must be released so barriers still complete.
                self.handoff_counted[owner] = false;
                if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                    let _ = self.results.send(Vec::new());
                }
            }
        }
    }

    fn flush_handoffs(&mut self) {
        for owner in 0..self.handoff_buffers.len() {
            self.flush_handoff_to(owner);
        }
    }

    fn flush_counters(&mut self) {
        let acc = std::mem::take(&mut self.acc);
        let c = &self.counters;
        c.inserted.fetch_add(acc.inserted, Ordering::Relaxed);
        c.joins_attempted
            .fetch_add(acc.joins_attempted, Ordering::Relaxed);
        c.joins_succeeded
            .fetch_add(acc.joins_succeeded, Ordering::Relaxed);
        c.complete.fetch_add(acc.complete, Ordering::Relaxed);
        c.handoffs_out.fetch_add(acc.handoffs, Ordering::Relaxed);
        c.dropped_by_cap.fetch_add(acc.dropped, Ordering::Relaxed);
        c.spills.fetch_add(acc.spills, Ordering::Relaxed);
        self.publish_live();
    }

    fn prune(&mut self, cutoff: Timestamp) {
        let mut removed = 0usize;
        for store in self.stores.iter_mut().flatten() {
            removed += store.expire_older_than(cutoff);
        }
        self.counters
            .expired
            .fetch_add(removed as u64, Ordering::Relaxed);
        self.publish_live();
    }

    fn publish_live(&self) {
        let live: usize = self.stores.iter().flatten().map(SharedJoinStore::len).sum();
        self.counters.live.store(live as u64, Ordering::Relaxed);
    }
}

/// Sharded execution of **one** query's SJ-Tree: match state partitioned by
/// join-key hash across `N` worker threads, results fanned back in over a
/// crossbeam channel (see the module docs for the full design).
///
/// Most deployments use this through
/// [`crate::EngineBuilder::shards`] rather than directly: the engine routes
/// edges, flushes the fan-in at the end of every `ingest` call, and delivers
/// the unified stream to per-query subscriptions. Driving it by hand means
/// calling [`ShardedMatcher::process_edge`] per edge and
/// [`ShardedMatcher::take_completed`] at every point where results are
/// needed in order.
pub struct ShardedMatcher {
    /// Serial front end (shared with the single-threaded matcher): compiled
    /// constraints, anchor dispatch and local search. Its per-node stores
    /// stay empty — all join state lives in the shard workers.
    front: SjTreeMatcher,
    shards: usize,
    senders: Vec<crossbeam::channel::Sender<ShardItem>>,
    /// Per-shard buffers of routed matches; one channel send covers a batch.
    route_buffers: Vec<Vec<RoutedMatch>>,
    results_rx: crossbeam::channel::Receiver<Vec<(u64, PartialMatch)>>,
    /// Work items routed but not yet fully processed (including cross-shard
    /// handoffs); zero ⇔ the shards are quiescent.
    pending: Arc<AtomicUsize>,
    /// Control-plane fan-in: failure reports and orphan bounces (unbounded —
    /// fault traffic must never jam behind the data plane).
    faults_rx: crossbeam::channel::Receiver<ShardSignal>,
    /// Current owner of each *original* shard index's key slice. Identity
    /// until a `Degrade` quarantine re-homes a dead shard's slice onto a
    /// survivor. Only the driver consults it — workers always hash to
    /// original indices and a quarantined shard's relay bounces, which is
    /// what keeps re-routed work ordered after the survivor's `Absorb`.
    assignment: Vec<usize>,
    dead: Vec<bool>,
    policy: ShardFailurePolicy,
    /// Failures recorded but not yet drained by [`Self::take_failures`].
    failures: Vec<ShardFailure>,
    /// Terminal failure message: set under `FailFast`, or under `Degrade`
    /// once no live shard remains. New work is dropped from then on.
    failed: Option<String>,
    /// Reentrancy guard: fault handling re-routes through the draining
    /// send, which itself drains faults when blocked on a full channel.
    fault_guard: bool,
    counters: Vec<Arc<ShardCounters>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Stream position of the next edge (stamps completed matches so the
    /// fan-in can be released in stream order).
    seq: u64,
    /// Completed matches drained from the fan-in, awaiting release.
    completed: Vec<(u64, PartialMatch)>,
    complete_emitted: u64,
    /// Spill count for matches completed on the driver (single-leaf plans).
    driver_spills: u64,
    /// Leaf embeddings routed so far, from this matcher's own front end or
    /// from a shared entry (the front end only accounts the search side).
    primitive_matches: u64,
    primitive_scratch: Vec<(SjNodeId, PartialMatch)>,
    /// Observability hooks on the driver side: the engine-shared histogram
    /// core plus the engine thread's span ring (local search and routing of
    /// sampled edges are timed here, where the two halves are visible).
    telemetry: Option<(Arc<TelemetryCore>, Arc<SpanRing>)>,
    /// Each worker's span ring, retained so snapshots can collect them.
    span_rings: Vec<Arc<SpanRing>>,
}

impl ShardedMatcher {
    /// Creates a sharded matcher for `plan` with `shards` worker threads
    /// (clamped to at least 1) and an optional per-shard, per-node cap on
    /// live partial matches. Channels default to a capacity of 1024 items
    /// and shard failures to [`ShardFailurePolicy::FailFast`]; use
    /// [`Self::with_options`] to choose either.
    pub fn new(
        plan: QueryPlan,
        graph: &DynamicGraph,
        shards: usize,
        max_matches_per_node: Option<usize>,
    ) -> Self {
        Self::with_options(
            plan,
            graph,
            shards,
            max_matches_per_node,
            1024,
            ShardFailurePolicy::FailFast,
        )
    }

    /// Like [`Self::new`], choosing the per-channel capacity (routing,
    /// handoff and fan-in channels are all bounded — a slow consumer
    /// backpressures the producer instead of growing an unbounded queue)
    /// and the [`ShardFailurePolicy`] applied when a shard worker dies.
    pub fn with_options(
        plan: QueryPlan,
        graph: &DynamicGraph,
        shards: usize,
        max_matches_per_node: Option<usize>,
        channel_capacity: usize,
        policy: ShardFailurePolicy,
    ) -> Self {
        Self::with_telemetry(
            plan,
            graph,
            shards,
            max_matches_per_node,
            channel_capacity,
            policy,
            None,
        )
    }

    /// [`Self::with_options`] plus the engine's telemetry hooks: the shared
    /// histogram core and the engine thread's span ring. Workers are spawned
    /// here, so the hooks must be present at construction; `None` disables
    /// all measurement (one branch per site).
    pub(crate) fn with_telemetry(
        plan: QueryPlan,
        graph: &DynamicGraph,
        shards: usize,
        max_matches_per_node: Option<usize>,
        channel_capacity: usize,
        policy: ShardFailurePolicy,
        telemetry: Option<(Arc<TelemetryCore>, Arc<SpanRing>)>,
    ) -> Self {
        let shards = shards.max(1);
        // Zero capacity would make every channel a rendezvous; clamp rather
        // than deadlock (the builder validates user-facing configs anyway).
        let channel_capacity = channel_capacity.max(1);
        // Everything the workers need from the plan is extracted up front
        // (stores, climb routes, next-level keys); the plan itself moves
        // into the driver-side front end.
        let routes = join::node_routes(&plan);
        let next_keys: Vec<Vec<QueryVertexId>> = plan
            .shape
            .nodes()
            .map(|n| plan.shape.join_key(n.id).to_vec())
            .collect();
        let cuts: Vec<Option<Vec<QueryVertexId>>> = plan
            .shape
            .nodes()
            .map(|n| n.children.map(|_| n.cut_vertices.clone()))
            .collect();
        let front = SjTreeMatcher::new(plan, graph);
        let window = front.window();
        let pending = Arc::new(AtomicUsize::new(0));
        let (results_tx, results_rx) = crossbeam::channel::bounded(channel_capacity);
        let (faults_tx, faults_rx) = crossbeam::channel::unbounded();

        let mut senders = Vec::with_capacity(shards);
        let mut receivers = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = crossbeam::channel::bounded(channel_capacity);
            senders.push(tx);
            receivers.push(rx);
        }
        let counters: Vec<Arc<ShardCounters>> = (0..shards)
            .map(|_| Arc::new(ShardCounters::default()))
            .collect();
        let span_rings: Vec<Arc<SpanRing>> = (0..shards)
            .map(|id| Arc::new(SpanRing::new(id as i64)))
            .collect();

        let workers = receivers
            .into_iter()
            .enumerate()
            .map(|(id, rx)| {
                let stores = cuts
                    .iter()
                    .map(|cut| cut.clone().map(SharedJoinStore::new))
                    .collect();
                let worker = ShardWorker {
                    id,
                    shards,
                    routes: routes.clone(),
                    next_keys: next_keys.clone(),
                    stores,
                    rx,
                    peers: senders.clone(),
                    handoff_buffers: (0..shards).map(|_| Vec::new()).collect(),
                    handoff_counted: vec![false; shards],
                    results: results_tx.clone(),
                    faults: faults_tx.clone(),
                    completed_buffer: Vec::new(),
                    pending: Arc::clone(&pending),
                    counters: Arc::clone(&counters[id]),
                    max_matches_per_node,
                    window,
                    stack: Vec::new(),
                    merged: Vec::new(),
                    acc: BatchCounters::default(),
                    telemetry: telemetry
                        .as_ref()
                        .map(|(core, _)| (Arc::clone(core), Arc::clone(&span_rings[id]))),
                };
                std::thread::Builder::new()
                    .name(format!("sw-shard-{id}"))
                    .spawn(move || worker.run())
                    .expect("spawn shard worker thread")
            })
            .collect();

        ShardedMatcher {
            front,
            shards,
            senders,
            route_buffers: (0..shards).map(|_| Vec::new()).collect(),
            results_rx,
            pending,
            faults_rx,
            assignment: (0..shards).collect(),
            dead: vec![false; shards],
            policy,
            failures: Vec::new(),
            failed: None,
            fault_guard: false,
            counters,
            workers,
            seq: 0,
            completed: Vec::new(),
            complete_emitted: 0,
            driver_spills: 0,
            primitive_matches: 0,
            primitive_scratch: Vec::new(),
            telemetry,
            span_rings,
        }
    }

    /// Number of shard worker threads.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Number of shards still live (not quarantined).
    pub fn live_shards(&self) -> usize {
        self.dead.iter().filter(|&&d| !d).count()
    }

    /// Shard failures recorded since the last call (drained). Call after a
    /// barrier ([`Self::sync`] / [`Self::take_completed`]) for an exact
    /// picture; the engine folds these into
    /// [`crate::EngineError::ShardFailed`].
    pub fn take_failures(&mut self) -> Vec<ShardFailure> {
        std::mem::take(&mut self.failures)
    }

    /// Terminal failure message, if the matcher has stopped accepting work:
    /// a shard died under [`ShardFailurePolicy::FailFast`], or under
    /// [`ShardFailurePolicy::Degrade`] with no survivor left to adopt its
    /// state.
    pub fn terminal_failure(&self) -> Option<&str> {
        self.failed.as_deref()
    }

    /// The plan this matcher executes.
    pub fn plan(&self) -> &QueryPlan {
        self.front.plan()
    }

    /// Blocks until every routed match enqueued so far has been fully
    /// processed (completed matches stay buffered for the next
    /// [`Self::take_completed`]). Afterwards [`Self::metrics`] and
    /// [`Self::shard_metrics`] reflect all prior work exactly.
    pub fn sync(&mut self) {
        self.flush_routes();
        self.wait_quiescent();
    }

    /// The driver-side front end (local search state; its match stores are
    /// empty — join state lives in the shards).
    pub(crate) fn front(&self) -> &SjTreeMatcher {
        &self.front
    }

    /// Runs local search for one edge and routes every primitive embedding to
    /// the shard owning its join key. Complete matches surface later, through
    /// [`Self::take_completed`] — the shards process asynchronously, so the
    /// driver can pipeline the next edge's graph work while they join.
    ///
    /// The edge's stream position is taken from an internal per-matcher
    /// counter; a caller interleaving several matchers over one stream (the
    /// engine) should use [`Self::process_edge_at`] with a shared counter so
    /// positions are comparable across matchers.
    pub fn process_edge(&mut self, graph: &DynamicGraph, edge: &Edge) {
        let seq = self.seq;
        self.process_edge_at(graph, edge, seq);
    }

    /// Like [`Self::process_edge`] with an explicit stream position, which
    /// stamps any match this edge completes (see [`Self::take_completed`]).
    /// Positions must be non-decreasing across calls.
    pub fn process_edge_at(&mut self, graph: &DynamicGraph, edge: &Edge, seq: u64) {
        debug_assert!(
            seq >= self.seq.saturating_sub(1),
            "stream positions regress"
        );
        self.seq = seq + 1;
        let mut primitives = std::mem::take(&mut self.primitive_scratch);
        primitives.clear();
        // A sampled edge times the two driver-side halves separately — the
        // anchored local search and the join-key routing (including any
        // backpressure blocking in the send).
        let sampled = self
            .telemetry
            .as_ref()
            .filter(|(core, _)| core.should_sample(seq))
            .map(|(core, ring)| (Arc::clone(core), Arc::clone(ring)));
        let search_start = sampled.as_ref().map(|(core, _)| core.now_ns());
        self.front
            .primitive_matches_into(graph, edge, &mut primitives);
        let route_start = if let (Some((core, ring)), Some(start)) = (&sampled, search_start) {
            let now = core.now_ns();
            let dur = now.saturating_sub(start);
            core.record(Stage::LocalSearch, dur);
            ring.push(seq, Stage::LocalSearch, start, dur);
            Some(now)
        } else {
            None
        };
        self.primitive_matches += primitives.len() as u64;
        for (leaf, m) in primitives.drain(..) {
            self.route_embedding(leaf, m, seq);
        }
        if let (Some((core, ring)), Some(start)) = (&sampled, route_start) {
            let dur = core.now_ns().saturating_sub(start);
            core.record(Stage::ShardRouting, dur);
            ring.push(seq, Stage::ShardRouting, start, dur);
        }
        self.primitive_scratch = primitives;
        // Opportunistic drain keeps the fan-in channel shallow mid-batch.
        while let Ok(results) = self.results_rx.try_recv() {
            self.completed.extend(results);
        }
    }

    /// Feeds one match produced by a shared entry of the engine's sharing
    /// index (already remapped into this query's vertex/edge space) into the
    /// sharded execution at `node`, stamped with stream position `seq` — the
    /// same routing tail as [`Self::process_edge_at`], minus the local search
    /// (the entry ran it). The sharded twin of `SjTreeMatcher::absorb`: a
    /// match at a leaf counts one primitive match, a *joined* match at an
    /// internal node or the root does not (the searches and the joins below
    /// `node` ran inside the entry). `seq` only advances the matcher's
    /// position when it moves forward, since many matches of one event share
    /// a position.
    pub(crate) fn absorb(&mut self, node: SjNodeId, m: PartialMatch, seq: u64) {
        if seq >= self.seq {
            self.seq = seq + 1;
        }
        if self.front.plan().shape.node(node).is_leaf() {
            self.primitive_matches += 1;
        }
        self.route_timed(node, m, seq);
        // Opportunistic drain keeps the fan-in channel shallow mid-batch.
        while let Ok(results) = self.results_rx.try_recv() {
            self.completed.extend(results);
        }
    }

    /// [`Self::route_embedding`] with routing-latency accounting for sampled
    /// edges — the shared-index fan-out comes through here, one match at a
    /// time, so only the histogram is fed (a span per match would flood the
    /// ring; end-to-end spans come from `process_edge_at` and the worker
    /// climbs).
    fn route_timed(&mut self, node: SjNodeId, m: PartialMatch, seq: u64) {
        let sampled = self
            .telemetry
            .as_ref()
            .filter(|(core, _)| core.should_sample(seq))
            .map(|(core, _)| Arc::clone(core));
        let start = sampled.as_ref().map(|core| core.now_ns());
        self.route_embedding(node, m, seq);
        if let (Some(core), Some(start)) = (sampled, start) {
            core.record(Stage::ShardRouting, core.now_ns().saturating_sub(start));
        }
    }

    /// Copies every worker span ring's live spans into `out` (the engine's
    /// snapshot path; call at quiescence for exact contents).
    pub(crate) fn collect_spans(&self, out: &mut Vec<TraceSpan>) {
        for ring in &self.span_rings {
            ring.collect_into(out);
        }
    }

    /// Routes one embedding into the sharded execution: a root-leaf
    /// embedding (single-primitive plan) is already a complete match and
    /// stays on the driver; anything else goes to the shard owning its join
    /// key, batched per [`ROUTE_BATCH`]. The single routing step both entry
    /// points — per-query local search and shared-index fan-out — go
    /// through.
    fn route_embedding(&mut self, leaf: SjNodeId, m: PartialMatch, seq: u64) {
        let root = self.front.plan().shape.root();
        if leaf == root {
            if m.spilled() {
                self.driver_spills += 1;
            }
            self.completed.push((seq, m));
        } else {
            let owner = owner_of(&m, self.front.plan().shape.join_key(leaf), self.shards);
            self.route_buffers[owner].push(RoutedMatch { node: leaf, seq, m });
            if self.route_buffers[owner].len() >= ROUTE_BATCH {
                self.flush_route_to(owner);
            }
        }
    }

    /// Sends one buffered route batch (pending incremented before the send,
    /// so quiescence can never be observed early).
    fn flush_route_to(&mut self, owner: usize) {
        if self.route_buffers[owner].is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.route_buffers[owner]);
        self.send_counted(owner, ShardItem::Matches(batch));
    }

    /// Takes a pending count and delivers `item` to the shard currently
    /// owning original shard `owner`'s key slice. While the bounded channel
    /// is full the driver drains the fan-in and fault channels instead of
    /// blocking blind — every consumer keeps consuming, so no
    /// driver↔worker send cycle can deadlock. After a terminal failure the
    /// item is dropped and its count released.
    fn send_counted(&mut self, owner: usize, item: ShardItem) {
        self.pending.fetch_add(1, Ordering::Relaxed);
        let mut item = item;
        loop {
            if self.failed.is_some() {
                self.pending.fetch_sub(1, Ordering::AcqRel);
                return;
            }
            let target = self.assignment[owner];
            item = match self.senders[target].try_send(item) {
                Ok(()) => return,
                Err(crossbeam::channel::TrySendError::Full(back)) => {
                    while let Ok(results) = self.results_rx.try_recv() {
                        self.completed.extend(results);
                    }
                    self.handle_faults();
                    // Park briefly on the fan-in: a worker finishing a batch
                    // wakes us, and the timeout bounds the wait if the
                    // target is merely slow.
                    if let Ok(results) = self
                        .results_rx
                        .recv_timeout(std::time::Duration::from_millis(1))
                    {
                        self.completed.extend(results);
                    }
                    back
                }
                Err(crossbeam::channel::TrySendError::Disconnected(_)) => {
                    // Worker gone (teardown): drop the work, release the
                    // count so barriers still complete.
                    self.pending.fetch_sub(1, Ordering::AcqRel);
                    return;
                }
            };
        }
    }

    /// Drains the control-plane channel: quarantines failed shards and
    /// re-routes bounced work. Guarded against reentry — re-routing goes
    /// through [`Self::send_counted`], which calls back here when blocked.
    fn handle_faults(&mut self) {
        if self.fault_guard {
            return;
        }
        self.fault_guard = true;
        while let Ok(signal) = self.faults_rx.try_recv() {
            match signal {
                ShardSignal::Failed {
                    shard,
                    message,
                    stores,
                    unprocessed,
                } => self.on_shard_failed(shard, message, stores, unprocessed),
                ShardSignal::Orphan(batch) => self.on_orphan(batch),
                ShardSignal::OrphanStores(stores) => self.on_orphan_stores(stores),
            }
        }
        self.fault_guard = false;
    }

    /// Applies one shard failure under the configured policy. `FailFast`
    /// (or `Degrade` with no survivor left) fails the matcher terminally;
    /// `Degrade` re-homes the dead shard's key slice onto the first live
    /// shard, transplants its join stores wholesale (exact: the slices are
    /// disjoint, so nothing is re-probed) and re-routes the items the dead
    /// worker had accepted but not processed. The `Absorb` is sent before
    /// any re-routed item on the same channel, so FIFO guarantees the
    /// survivor's state is in place before anything probes it.
    fn on_shard_failed(
        &mut self,
        shard: usize,
        message: String,
        stores: Vec<Option<SharedJoinStore>>,
        unprocessed: Vec<RoutedMatch>,
    ) {
        debug_assert!(!self.dead[shard], "a worker reports failure once");
        self.dead[shard] = true;
        let survivor = (0..self.shards).find(|&s| !self.dead[s]);
        let survivor = match (self.policy, survivor) {
            (ShardFailurePolicy::Degrade, Some(s)) => s,
            _ => {
                self.failures.push(ShardFailure {
                    shard,
                    message: message.clone(),
                    degraded: false,
                });
                if self.failed.is_none() {
                    self.failed = Some(message);
                }
                return; // the stores and unprocessed items die with the matcher
            }
        };
        for owner in &mut self.assignment {
            if *owner == shard {
                *owner = survivor;
            }
        }
        self.failures.push(ShardFailure {
            shard,
            message,
            degraded: true,
        });
        self.send_counted(survivor, ShardItem::Absorb(stores));
        self.reroute(unprocessed);
    }

    /// Re-routes recovered items. Their owner hash is unchanged — routing
    /// is a pure function of the join key — only the owner→shard mapping
    /// has moved, and [`Self::send_counted`] applies it.
    fn reroute(&mut self, items: Vec<RoutedMatch>) {
        if items.is_empty() {
            return;
        }
        let mut per_owner: Vec<Vec<RoutedMatch>> = (0..self.shards).map(|_| Vec::new()).collect();
        for routed in items {
            let owner = owner_of(
                &routed.m,
                self.front.plan().shape.join_key(routed.node),
                self.shards,
            );
            per_owner[owner].push(routed);
        }
        for (owner, batch) in per_owner.into_iter().enumerate() {
            if !batch.is_empty() {
                self.send_counted(owner, ShardItem::Matches(batch));
            }
        }
    }

    /// A batch bounced off a quarantined shard: re-route it, then release
    /// the count that travelled with it (new counts were taken first, so
    /// pending can never dip to zero with the work still in flight).
    fn on_orphan(&mut self, batch: Vec<RoutedMatch>) {
        if self.failed.is_none() {
            self.reroute(batch);
        }
        self.pending.fetch_sub(1, Ordering::AcqRel);
    }

    /// A transplant bounced off a shard that died before absorbing it:
    /// re-home the state on a shard that is still live.
    fn on_orphan_stores(&mut self, stores: Vec<Option<SharedJoinStore>>) {
        if self.failed.is_none() {
            if let Some(survivor) = (0..self.shards).find(|&s| !self.dead[s]) {
                self.send_counted(survivor, ShardItem::Absorb(stores));
            }
        }
        self.pending.fetch_sub(1, Ordering::AcqRel);
    }

    fn flush_routes(&mut self) {
        for owner in 0..self.route_buffers.len() {
            self.flush_route_to(owner);
        }
    }

    /// Waits for the shards to quiesce, then returns every completed match
    /// accumulated since the last call, sorted by the stream position of the
    /// completing edge (ties keep fan-in arrival order).
    pub fn take_completed(&mut self) -> Vec<(u64, PartialMatch)> {
        self.flush_routes();
        self.wait_quiescent();
        while let Ok(results) = self.results_rx.try_recv() {
            self.completed.extend(results);
        }
        let mut out = std::mem::take(&mut self.completed);
        out.sort_by_key(|(seq, _)| *seq);
        self.complete_emitted += out.len() as u64;
        out
    }

    /// Expires stored matches whose earliest edge predates `now - window` in
    /// every shard, and waits for the sweeps: on return [`Self::metrics`]
    /// reflects them.
    ///
    /// The shards are quiesced *before* the markers go out. The cutoff is
    /// computed from `now`, but work routed for earlier edges may still be in
    /// flight between shards; a shard that is ahead would otherwise sweep
    /// partials that a lagging handoff — produced when they were well inside
    /// the window — still has to join, and the match would be lost.
    pub fn prune(&mut self, now: Timestamp) {
        self.sync();
        let cutoff = now.minus(self.front.window());
        for shard in 0..self.shards {
            // Quarantined shards have nothing to sweep (their state moved
            // to a survivor, which gets its own marker).
            if self.dead[shard] {
                continue;
            }
            self.send_counted(shard, ShardItem::Prune { cutoff });
        }
        self.wait_quiescent();
    }

    /// Aggregated metrics: driver-side local-search counters plus the sum of
    /// the per-shard join/store counters (exact between `ingest` calls).
    pub fn metrics(&self) -> QueryMetrics {
        let mut m = self.front.metrics();
        m.complete_matches = self.complete_emitted;
        m.primitive_matches = self.primitive_matches;
        m.binding_spills += self.driver_spills;
        for c in &self.counters {
            let s = c.snapshot();
            m.partial_matches_inserted += s.partial_matches_inserted;
            m.partial_matches_live += s.partial_matches_live;
            m.partial_matches_expired += s.partial_matches_expired;
            m.joins_attempted += s.joins_attempted;
            m.joins_succeeded += s.joins_succeeded;
            m.matches_dropped_by_cap += s.matches_dropped_by_cap;
            m.binding_spills += s.binding_spills;
        }
        m
    }

    /// Per-shard counter snapshot, in shard order.
    pub fn shard_metrics(&self) -> Vec<ShardMetrics> {
        self.counters.iter().map(|c| c.snapshot()).collect()
    }

    /// Blocks until every routed work item (including cross-shard handoffs)
    /// has been fully processed. The wait parks on the result channel — the
    /// last worker to go idle sends a wake — so the driver never burns a
    /// core spinning while the shards drain their queues.
    fn wait_quiescent(&mut self) {
        loop {
            while let Ok(results) = self.results_rx.try_recv() {
                self.completed.extend(results);
            }
            self.handle_faults();
            if self.pending.load(Ordering::Acquire) == 0 {
                // A failing worker publishes its fault *before* releasing
                // its pending count, so at pending == 0 any failure — and
                // any orphan still carrying a count was already nonzero —
                // is receivable: drain once more and re-check, since
                // handling may have re-routed work (new counts).
                self.handle_faults();
                if self.pending.load(Ordering::Acquire) == 0 {
                    break;
                }
                continue;
            }
            if self
                .workers
                .iter()
                .all(std::thread::JoinHandle::is_finished)
            {
                self.handle_faults();
                break; // every worker exited; don't hang the driver
            }
            // The timeout only matters if a worker dies without decrementing
            // the pending counter (a bug); it turns a hang into a stall.
            match self
                .results_rx
                .recv_timeout(std::time::Duration::from_millis(50))
            {
                Ok(results) => self.completed.extend(results),
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
            }
        }
    }
}

impl Drop for ShardedMatcher {
    fn drop(&mut self) {
        // Quiesce first so no worker is mid-handoff, then shut them down in
        // order; workers drop their peer senders as they exit.
        self.flush_routes();
        self.wait_quiescent();
        for tx in &self.senders {
            let _ = tx.send(ShardItem::Shutdown);
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl std::fmt::Debug for ShardedMatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedMatcher")
            .field("query", &self.front.plan().query.name())
            .field("shards", &self.shards)
            .field("live_shards", &self.live_shards())
            .field("pending", &self.pending.load(Ordering::Relaxed))
            .field("failed", &self.failed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamworks_graph::{Duration, EdgeEvent, Timestamp};
    use streamworks_query::{QueryGraph, QueryGraphBuilder};

    fn pair_query(name: &str, etype: &str) -> QueryGraph {
        QueryGraphBuilder::new(name)
            .window(Duration::from_hours(1))
            .vertex("a1", "Article")
            .vertex("a2", "Article")
            .vertex("k", "Keyword")
            .edge("a1", etype, "k")
            .edge("a2", etype, "k")
            .build()
            .unwrap()
    }

    use crate::sj_matcher::SjTreeMatcher;
    use std::collections::BTreeSet;
    use streamworks_query::{Planner, SelectivityOrdered};

    /// Multi-leaf plan (single-edge primitives) so the tree genuinely joins.
    fn planned(query: QueryGraph) -> QueryPlan {
        Planner::new()
            .plan_with(
                query,
                &SelectivityOrdered {
                    max_primitive_size: 1,
                },
            )
            .unwrap()
    }

    fn drive_sharded(
        plan: &QueryPlan,
        events: &[EdgeEvent],
        shards: usize,
    ) -> (BTreeSet<u64>, usize, ShardedMatcher) {
        let mut graph = streamworks_graph::DynamicGraph::unbounded();
        let mut matcher = ShardedMatcher::new(plan.clone(), &graph, shards, None);
        let mut signatures = BTreeSet::new();
        let mut count = 0usize;
        for ev in events {
            let r = graph.ingest(ev);
            let edge = graph.edge(r.edge).unwrap().clone();
            matcher.process_edge(&graph, &edge);
        }
        let mut last_seq = 0u64;
        for (seq, m) in matcher.take_completed() {
            assert!(seq >= last_seq, "fan-in must release in stream order");
            last_seq = seq;
            signatures.insert(m.signature());
            count += 1;
        }
        (signatures, count, matcher)
    }

    /// A stream where several articles genuinely share keywords, so the pair
    /// query produces matches (unlike `stream()`, whose type interleaving
    /// gives every article its own keyword).
    fn mention_stream(n: i64) -> Vec<EdgeEvent> {
        (0..n)
            .map(|i| {
                EdgeEvent::new(
                    format!("a{}", i % 7),
                    "Article",
                    format!("k{}", i % 3),
                    "Keyword",
                    "mentions",
                    Timestamp::from_secs(i * 3),
                )
            })
            .collect()
    }

    #[test]
    fn sharded_matcher_agrees_with_single_threaded_for_any_shard_count() {
        let plan = planned(pair_query("pair", "mentions"));
        let events = mention_stream(40);

        // Single-threaded reference.
        let mut graph = streamworks_graph::DynamicGraph::unbounded();
        let mut single = SjTreeMatcher::new(plan.clone(), &graph);
        let mut expected = BTreeSet::new();
        let mut expected_count = 0usize;
        let mut out = Vec::new();
        for ev in &events {
            let r = graph.ingest(ev);
            let edge = graph.edge(r.edge).unwrap().clone();
            out.clear();
            single.process_edge(&graph, &edge, &mut out);
            for m in &out {
                expected.insert(m.signature());
                expected_count += 1;
            }
        }
        assert!(expected_count > 0, "the stream must produce matches");

        for shards in [1usize, 2, 4, 8] {
            let (signatures, count, matcher) = drive_sharded(&plan, &events, shards);
            assert_eq!(signatures, expected, "shards={shards}");
            assert_eq!(count, expected_count, "shards={shards}");
            let metrics = matcher.metrics();
            assert_eq!(metrics.complete_matches, expected_count as u64);
            assert_eq!(metrics.edges_processed, events.len() as u64);
            // Store work happened in the shards, not the driver front end.
            assert_eq!(
                metrics.partial_matches_inserted,
                single.metrics().partial_matches_inserted
            );
            let per_shard = matcher.shard_metrics();
            assert_eq!(per_shard.len(), shards);
            let routed: u64 = per_shard.iter().map(|s| s.items_routed).sum();
            assert!(routed > 0);
        }
    }

    #[test]
    fn sharded_matcher_spreads_state_across_shards() {
        // Many distinct keywords → many distinct join keys → every shard of a
        // 4-way split should own some of them.
        let plan = planned(pair_query("pair", "mentions"));
        let mut events = Vec::new();
        for i in 0..400i64 {
            events.push(EdgeEvent::new(
                format!("a{i}"),
                "Article",
                format!("k{}", i % 97),
                "Keyword",
                "mentions",
                Timestamp::from_secs(i),
            ));
        }
        let (_, _, matcher) = drive_sharded(&plan, &events, 4);
        let per_shard = matcher.shard_metrics();
        assert!(
            per_shard.iter().all(|s| s.items_routed > 0),
            "all shards took work: {per_shard:?}"
        );
        let live: u64 = per_shard.iter().map(|s| s.partial_matches_live).sum();
        assert_eq!(live, matcher.metrics().partial_matches_live);
    }

    #[test]
    fn sharded_matcher_prunes_windowed_state() {
        let plan = planned(pair_query("pair", "mentions"));
        let mut graph = streamworks_graph::DynamicGraph::unbounded();
        let mut matcher = ShardedMatcher::new(plan, &graph, 2, None);
        for i in 0..50i64 {
            let r = graph.ingest(&EdgeEvent::new(
                format!("a{i}"),
                "Article",
                format!("k{i}"),
                "Keyword",
                "mentions",
                Timestamp::from_secs(i),
            ));
            let edge = graph.edge(r.edge).unwrap().clone();
            matcher.process_edge(&graph, &edge);
        }
        matcher.take_completed();
        assert!(matcher.metrics().partial_matches_live > 0);
        // The pair query's window is 1h; advance far beyond it and prune.
        matcher.prune(Timestamp::from_secs(1_000_000));
        matcher.take_completed(); // barrier so the prune markers are processed
        let metrics = matcher.metrics();
        assert_eq!(metrics.partial_matches_live, 0);
        assert!(metrics.partial_matches_expired >= 50);
    }

    #[test]
    fn sharded_matcher_handles_multi_level_plans() {
        // Three-leaf query: internal-node joins must hand matches across
        // shards when the next join key hashes elsewhere.
        let q = QueryGraphBuilder::new("triple")
            .window(Duration::from_hours(6))
            .vertex("a1", "Article")
            .vertex("a2", "Article")
            .vertex("k", "Keyword")
            .vertex("l", "Location")
            .edge("a1", "mentions", "k")
            .edge("a2", "mentions", "k")
            .edge("a1", "located", "l")
            .build()
            .unwrap();
        let plan = planned(q);
        assert!(plan.shape.node_count() >= 5, "three leaves, two joins");
        let mut events = Vec::new();
        for i in 0..60i64 {
            events.push(EdgeEvent::new(
                format!("a{}", i % 10),
                "Article",
                format!("k{}", i % 4),
                "Keyword",
                "mentions",
                Timestamp::from_secs(2 * i),
            ));
            events.push(EdgeEvent::new(
                format!("a{}", i % 10),
                "Article",
                format!("city{}", i % 3),
                "Location",
                "located",
                Timestamp::from_secs(2 * i + 1),
            ));
        }
        let (expected, expected_count, _) = drive_sharded(&plan, &events, 1);
        assert!(expected_count > 0);
        for shards in [2usize, 4] {
            let (signatures, count, matcher) = drive_sharded(&plan, &events, shards);
            assert_eq!(signatures, expected, "shards={shards}");
            assert_eq!(count, expected_count, "shards={shards}");
            let handoffs: u64 = matcher.shard_metrics().iter().map(|s| s.handoffs_out).sum();
            // With several shards and mixed join keys, at least some merged
            // matches must migrate between shards.
            assert!(handoffs > 0, "expected cross-shard handoffs at {shards}");
        }
    }

    #[test]
    fn tiny_channel_capacity_backpressures_without_deadlock_or_loss() {
        // Capacity 1 forces every send through the full/park/retry paths —
        // driver routing, worker handoffs and the fan-in all backpressure —
        // and the match multiset must still be exact.
        let q = QueryGraphBuilder::new("triple")
            .window(Duration::from_hours(6))
            .vertex("a1", "Article")
            .vertex("a2", "Article")
            .vertex("k", "Keyword")
            .vertex("l", "Location")
            .edge("a1", "mentions", "k")
            .edge("a2", "mentions", "k")
            .edge("a1", "located", "l")
            .build()
            .unwrap();
        let plan = planned(q);
        let mut events = Vec::new();
        for i in 0..40i64 {
            events.push(EdgeEvent::new(
                format!("a{}", i % 8),
                "Article",
                format!("k{}", i % 3),
                "Keyword",
                "mentions",
                Timestamp::from_secs(2 * i),
            ));
            events.push(EdgeEvent::new(
                format!("a{}", i % 8),
                "Article",
                format!("city{}", i % 2),
                "Location",
                "located",
                Timestamp::from_secs(2 * i + 1),
            ));
        }
        let (expected, expected_count, _) = drive_sharded(&plan, &events, 1);
        assert!(expected_count > 0);

        for shards in [2usize, 4] {
            let mut graph = streamworks_graph::DynamicGraph::unbounded();
            let mut matcher = ShardedMatcher::with_options(
                plan.clone(),
                &graph,
                shards,
                None,
                1,
                ShardFailurePolicy::Degrade,
            );
            for ev in &events {
                let r = graph.ingest(ev);
                let edge = graph.edge(r.edge).unwrap().clone();
                matcher.process_edge(&graph, &edge);
            }
            let completed = matcher.take_completed();
            assert_eq!(completed.len(), expected_count, "shards={shards}");
            let signatures: BTreeSet<u64> = completed.iter().map(|(_, m)| m.signature()).collect();
            assert_eq!(signatures, expected, "shards={shards}");
            assert_eq!(matcher.live_shards(), shards, "no failures happened");
            assert!(matcher.take_failures().is_empty());
            assert!(matcher.terminal_failure().is_none());
        }
    }

    #[test]
    fn sharded_matcher_per_shard_cap_drops_matches() {
        let plan = planned(pair_query("pair", "mentions"));
        let mut graph = streamworks_graph::DynamicGraph::unbounded();
        let mut matcher = ShardedMatcher::new(plan, &graph, 1, Some(3));
        for i in 0..30i64 {
            let r = graph.ingest(&EdgeEvent::new(
                format!("a{i}"),
                "Article",
                "k0",
                "Keyword",
                "mentions",
                Timestamp::from_secs(i),
            ));
            let edge = graph.edge(r.edge).unwrap().clone();
            matcher.process_edge(&graph, &edge);
        }
        matcher.take_completed();
        let metrics = matcher.metrics();
        assert!(metrics.matches_dropped_by_cap > 0);
        assert!(metrics.partial_matches_live <= 12);
    }
}
