//! The *shared per-parent join store* — the single match collection every
//! execution mode runs on.
//!
//! Each **internal** SJ-Tree node "maintains a set of matching subgraphs"
//! (paper property 3) for both of its children. Sibling nodes project onto
//! the same cut — the parent's join key — so one [`SharedJoinStore`] per
//! internal node holds both children's matches, and
//! [`SharedJoinStore::probe_then_insert`] is the whole §4.2 join step: one
//! hash look-up finds the key's newest match on either side, the sibling
//! side's matches under the key are offered as join candidates, and the new
//! match is filed on its own side.
//!
//! [`crate::SjTreeMatcher`] — a query's own matcher and every shared entry's
//! alike — drives this store through `probe_then_insert`, so there is
//! exactly one join engine in the codebase. The probe closure files each
//! successful merge into the parent's store on the spot (the depth-first
//! climb of `sj_matcher`). It runs while the sibling side is borrowed and
//! may not touch *this* store; it never needs to, because a merge belongs
//! one node up.
//!
//! Representation — **file in stream order, expire without moving**. The
//! unselective side of a join files matches that almost never complete
//! (arxiv 1306.2459; on `join_hot` 38 pairs per event, ~94 % of which expire
//! unprobed), so what a *stored* match costs decides the rate:
//!
//! * Each side is one **ring of matches in filing order** (`Ring`): a
//!   payload array (176 heap-free bytes per match of a paper-sized query,
//!   `crate::binding`) and a parallel 16-byte metadata array (`earliest`,
//!   covered edge count or the tombstone mark, distance back to the next
//!   older match under the same key). Filing appends at the ring's tail — a
//!   sequential write, whatever the key — and a live match never moves.
//! * A **key is a chain through the ring**: the hash index maps a
//!   [`JoinKey`] to the position of its newest match on each side, and each
//!   match links back to its predecessor. A probe walks the sibling chain
//!   newest → oldest through the metadata and touches a payload only to
//!   offer it. Positions are 64-bit (2⁶⁴ filings are out of reach) and only
//!   ever compared with the ring's front, so a stale link — one the front
//!   has passed — ends the chain and needs no clean-up.
//! * **Visibility is a horizon; expiry only reclaims.** The store carries
//!   a horizon (`SharedJoinStore::set_horizon`; a matcher sets it to
//!   `now − tW` on every entry into its climb), and a chain walk skips a
//!   match whose `earliest` lies before it just as it skips a tombstone,
//!   reading the same metadata. A probe therefore never offers a match that
//!   can no longer fit the window, whether or not it has been reclaimed.
//! * **The store reclaims what it hides when it fills.** Before a matcher
//!   files on a side it calls `SharedJoinStore::make_room`: one compare if
//!   the side has a free slot; if not, the exact pass below with the horizon
//!   as the cutoff, and growth only if the side is still over three quarters
//!   full, so a pass over L slots buys at least L/4 filings. Nothing sweeps
//!   on a schedule; `expire_older_than` reclaims everything on demand.
//! * Expiry is **exact** and reads **metadata only**: one compare against
//!   the side's minimum `earliest` decides whether anything can go; if so,
//!   one sequential pass over the metadata tombstones, counts and
//!   un-histograms every expired match — wherever it sits, so a skewed
//!   stream cannot hide state behind an in-window head — and the front
//!   advances past leading tombstones by index. No payload is read (a stale
//!   one is dropped when its slot is overwritten), **no survivor moves**,
//!   and every accessor reflects a tombstone at once.
//! * The one move left is **compaction**: when a side's tombstones exceed
//!   `COMPACT_FACTOR` × its live matches + `COMPACT_FLOOR` — a long-lived
//!   match pinning the front while short-lived ones die behind it — the
//!   survivors are re-filed at the front, in order and in place. The
//!   expirations that caused it pay for it, and slots held stay within
//!   `(1 + COMPACT_FACTOR) × live + COMPACT_FLOOR` after every pass.
//! * A **lazy join side** (`crate::sj_matcher`) needs four more operations:
//!   the parent's store tells whether a side *holds* a visible match under
//!   a key (one look-up and a chain walk to the first visible match) and
//!   *withdraws* a side's chain under a key (tombstones, metadata only);
//!   the lazy node's own store files without probing and threads a **second
//!   chain** through one side, keyed on the parent's cut vertices that side
//!   binds, so rebuilding one parent key walks only the matches under it.
//! * The parent's **awaited side** (the one whose visible matches make a
//!   key hot) keeps a **recency table**, so that most *cold* answers skip
//!   the hash index: a power-of-two array of timestamps indexed by a hash of
//!   the join key, each entry the largest `earliest` filed on the side under
//!   any key of its bucket since the last `clear`. `holds` answers "no"
//!   when the key's entry lies behind the horizon, and walks the chain
//!   otherwise. **Invariant:** a visible match has `earliest ≥ horizon`,
//!   and it raised its bucket's entry when it was filed. Withdrawal, expiry
//!   and compaction only remove matches, and an entry falls only when the
//!   table is refilled from every live match, so an entry behind the
//!   horizon proves every key of its bucket cold, whatever order the
//!   horizon, `withdraw`, expiry and compaction ran in. The table has at
//!   least `RECENT_PER_SLOT` buckets per slot of the side's ring (a side
//!   holds at most one key per slot); when the ring grows, the table is
//!   re-sized and refilled. The ring raises a match's entry as it files it,
//!   where it threads the second chain: the two share one box that only a
//!   lazy join's sides allocate, so a plain side's filing tests one empty
//!   pointer, as it did before the table. Counted in an instrumented build:
//!   on `join_hot` (seed 5) 97 % of `holds` calls find the key cold and the
//!   table answers 97 % of those (91 % of all calls); with half the
//!   stream `located` (`examples/lazy_join_sides.rs --located 50`) 22 % of
//!   calls are cold and the table answers nearly all of them. On
//!   `join_hot` it took `ingest_p50_us` from 1.375 to 1.268 µs, 10 of 10
//!   interleaved pairs; per layer, the climb's time per event fell in 8 of
//!   10 trace pairs, by less than the spread between runs
//!   (BENCH_PR46.json).
//! * The store maintains a histogram of covered query edges over live
//!   matches, so "best partial match" queries are O(1) reads and an expiry
//!   burst never rescans the store to restore the maximum.
//!
//! Measured in interleaved pairs of the benchmark's `join_hot` unit
//! (BENCH_PR20.json): against per-key `Vec` pairs swept under a min-heap of
//! side minima, this ring reads 1.26–1.29× the events/s on three seeds, 30 of
//! 30 pairs won. A slab with a free list, an append log compacted when half
//! dead and a `VecDeque` ring were tried first, in single runs only.

use crate::binding::PartialMatch;
use smallvec::SmallVec;
use std::hash::Hasher;
use streamworks_graph::hash::{FxHashMap, FxHasher};
use streamworks_graph::{EdgeId, Timestamp, VertexId};
use streamworks_query::{QueryEdgeId, QueryVertexId};

/// The join-key projection of a binding: the data vertices bound to the cut
/// vertices, in cut order. Inline up to 4 cut vertices — covering every plan
/// the decomposition strategies produce — so key construction is
/// allocation-free.
pub(crate) type JoinKey = SmallVec<VertexId, 4>;

/// Which child of an internal SJ-Tree node a match belongs to in a
/// [`SharedJoinStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum JoinSide {
    /// The internal node's left child.
    Left,
    /// The internal node's right child.
    Right,
}

impl JoinSide {
    /// The opposite side (the sibling a probe scans).
    #[inline]
    pub fn other(self) -> JoinSide {
        match self {
            JoinSide::Left => JoinSide::Right,
            JoinSide::Right => JoinSide::Left,
        }
    }

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

fn project(key_vertices: &[QueryVertexId], m: &PartialMatch) -> Option<JoinKey> {
    let mut key = JoinKey::new();
    m.binding
        .project_into(key_vertices, &mut key)
        .then_some(key)
}

/// "No position": the index value of a key with nothing filed on a side.
const NONE: u64 = u64::MAX;
/// `Meta::edges` of a tombstone.
const DEAD: u32 = u32::MAX;
/// A side is compacted when its tombstones exceed `COMPACT_FACTOR` × its
/// live matches + `COMPACT_FLOOR`.
const COMPACT_FACTOR: usize = 2;
const COMPACT_FLOOR: usize = 64;
/// Slots a ring's first growth makes.
const FIRST_SLOTS: usize = 16;
/// Recency buckets per ring slot: a side holds at most one key per slot, so
/// at most about one bucket in this many is raised past the horizon.
const RECENT_PER_SLOT: usize = 8;

/// Length of a recency table for a ring of `slots` slots.
fn recent_len(slots: usize) -> usize {
    (RECENT_PER_SLOT * slots.max(FIRST_SLOTS)).next_power_of_two()
}

/// The bucket of `key` in a recency table of `len` (a power of two)
/// entries: the top bits of its hash.
#[inline]
fn recent_bucket(len: usize, key: &[VertexId]) -> usize {
    let mut hasher = FxHasher::default();
    key.iter().for_each(|v| hasher.write_u32(v.0));
    (hasher.finish() >> (64 - len.trailing_zeros())) as usize
}

/// What a sweep and a chain walk read of a match, without its payload.
#[derive(Debug, Clone, Copy, Default)]
struct Meta {
    earliest: Timestamp,
    /// Distance back to the next older match under the same key (0 = none).
    /// A link the front has passed ends the chain just the same.
    back: u32,
    /// Query edges covered, or [`DEAD`].
    edges: u32,
}

/// Any value will do for a slot nothing reads; this one owns no heap.
fn stale_match() -> PartialMatch {
    PartialMatch::seed(0, QueryEdgeId(0), EdgeId(0), Timestamp(0))
}

/// What a side keeps for lazy joins beyond its ring, upkept as it files.
/// Boxed, and absent on every other side, so a plain side pays one branch
/// per filing.
#[derive(Debug, Default)]
struct LazySide {
    /// The lazy node's second chain (see
    /// [`SharedJoinStore::thread_scan_chain`]).
    scan: Option<ScanChain>,
    /// The awaited side's recency table (see
    /// [`SharedJoinStore::keep_recency`]).
    recent: Option<Recency>,
}

/// A recency table (module docs): per bucket of join-key hashes, the
/// largest `earliest` filed under a key of the bucket.
#[derive(Debug)]
struct Recency {
    /// The store's cut, which a filed match is projected onto.
    vertices: Vec<QueryVertexId>,
    latest: Box<[Timestamp]>,
}

impl Recency {
    /// An empty table for a ring of `slots` slots.
    fn new(vertices: Vec<QueryVertexId>, slots: usize) -> Self {
        let latest = vec![Timestamp(i64::MIN); recent_len(slots)].into();
        Recency { vertices, latest }
    }

    /// Raises the entry of `m`'s key to `m.earliest`.
    #[inline]
    fn raise(&mut self, m: &PartialMatch) {
        let key = project(&self.vertices, m).expect("a match binds its join key");
        let entry = &mut self.latest[recent_bucket(self.latest.len(), &key)];
        *entry = (*entry).max(m.earliest);
    }

    /// True if nothing under `key` was filed at or after `horizon`.
    #[inline]
    fn cold(&self, key: &[VertexId], horizon: Timestamp) -> bool {
        self.latest[recent_bucket(self.latest.len(), key)] < horizon
    }
}

/// A second chain through one ring, keyed on `vertices` instead of the
/// store's cut.
#[derive(Debug)]
struct ScanChain {
    vertices: Vec<QueryVertexId>,
    /// Position of each scan key's newest match.
    newest: FxHashMap<JoinKey, u64>,
    /// Per slot, like `Meta::back`.
    back: Vec<u32>,
}

/// One side's matches in filing order. Position `head + i` lives in slot
/// `(head_slot + i) mod slots.len()` for `i < held`; slots outside that
/// range hold stale values nothing reads.
#[derive(Debug)]
struct Ring {
    slots: Vec<PartialMatch>,
    meta: Vec<Meta>,
    lazy: Option<Box<LazySide>>,
    /// Position of the oldest slot still held.
    head: u64,
    head_slot: usize,
    /// Slots between front and tail: live matches plus tombstones the front
    /// has not passed yet.
    held: usize,
    live: usize,
    /// Lower bound on `earliest` over live matches, exact after a sweep.
    min_earliest: Timestamp,
}

impl Ring {
    fn new() -> Self {
        Ring {
            slots: Vec::new(),
            meta: Vec::new(),
            lazy: None,
            head: 0,
            head_slot: 0,
            held: 0,
            live: 0,
            min_earliest: Timestamp(i64::MAX),
        }
    }

    fn scan_mut(&mut self) -> Option<&mut ScanChain> {
        self.lazy.as_deref_mut()?.scan.as_mut()
    }

    fn recency(&self) -> Option<&Recency> {
        self.lazy.as_deref()?.recent.as_ref()
    }

    /// Buckets of the side's recency table (0 if it keeps none).
    fn recent_buckets(&self) -> usize {
        self.recency().map_or(0, |recent| recent.latest.len())
    }

    /// The slot `offset` positions behind the front.
    #[inline]
    fn slot_at(&self, offset: usize) -> usize {
        let slot = self.head_slot + offset;
        if slot >= self.slots.len() {
            slot - self.slots.len()
        } else {
            slot
        }
    }

    /// The slot of `position` if the ring still holds it: not [`NONE`] and
    /// not passed by the front (a position is never ahead of the tail).
    #[inline]
    fn slot_of(&self, position: u64) -> Option<usize> {
        let offset = position.wrapping_sub(self.head);
        (offset < self.held as u64).then(|| self.slot_at(offset as usize))
    }

    /// The visible matches of the chain starting at `newest`, newest first.
    #[inline]
    fn chain(&self, newest: u64, horizon: Timestamp) -> impl Iterator<Item = &PartialMatch> {
        self.walk(newest, horizon, |slot| self.meta[slot].back)
    }

    /// The visible matches — live, and not behind `horizon` — met following
    /// the links `back` gives per slot from `position`.
    #[inline]
    fn walk<'a>(
        &'a self,
        mut position: u64,
        horizon: Timestamp,
        back: impl Fn(usize) -> u32 + 'a,
    ) -> impl Iterator<Item = &'a PartialMatch> {
        std::iter::from_fn(move || loop {
            let slot = self.slot_of(position)?;
            position = match back(slot) {
                0 => NONE,
                back => position - u64::from(back),
            };
            let meta = &self.meta[slot];
            if meta.edges != DEAD && meta.earliest >= horizon {
                return Some(&self.slots[slot]);
            }
        })
    }

    /// Live matches, oldest filed first.
    fn live(&self) -> impl Iterator<Item = &PartialMatch> {
        (0..self.held)
            .map(|offset| self.slot_at(offset))
            .filter(|&slot| self.meta[slot].edges != DEAD)
            .map(|slot| &self.slots[slot])
    }

    /// Appends `m` at the tail, linked behind `newest` (the key's chain so
    /// far), threads the side's scan chain and raises its recency entry, if
    /// it keeps them, and returns its position. Overwriting the slot drops
    /// the stale payload left there.
    #[inline]
    fn push(&mut self, m: PartialMatch, newest: u64) -> u64 {
        if self.held == self.slots.len() {
            self.grow();
        }
        let position = self.head + self.held as u64;
        let slot = self.slot_at(self.held);
        // Below `held`, which `grow` keeps within 32 bits.
        let (head, held) = (self.head, self.held as u64);
        let link = |to: u64| (to.wrapping_sub(head) < held).then(|| (position - to) as u32);
        if let Some(lazy) = self.lazy.as_deref_mut() {
            if let Some(scan) = &mut lazy.scan {
                let key = project(&scan.vertices, &m).expect("a match binds its side's scan key");
                let newest = scan.newest.entry(key).or_insert(NONE);
                scan.back[slot] = link(*newest).unwrap_or(0);
                *newest = position;
            }
            if let Some(recent) = &mut lazy.recent {
                recent.raise(&m);
            }
        }
        self.meta[slot] = Meta {
            earliest: m.earliest,
            back: link(newest).unwrap_or(0),
            edges: m.edge_count() as u32,
        };
        self.min_earliest = self.min_earliest.min(m.earliest);
        self.slots[slot] = m;
        self.held += 1;
        self.live += 1;
        position
    }

    /// Makes room behind a ring reclaiming left over three quarters full: an
    /// eighth more slots, so the moves of straightening the ring are
    /// amortised and — unlike doubling — the slots a steady population
    /// cycles through stay close to its peak. A recency table grows with
    /// the ring, refilled from every live match, hidden or not (the horizon
    /// a later `holds` reads may lie behind today's).
    #[cold]
    fn grow(&mut self) {
        let len = self.slots.len() + (self.slots.len() / 8).max(FIRST_SLOTS);
        assert!(len <= u32::MAX as usize, "chain links are 32-bit distances");
        self.slots.rotate_left(self.head_slot);
        self.slots.resize(len, stale_match());
        self.meta.rotate_left(self.head_slot);
        self.meta.resize(len, Meta::default());
        let head_slot = self.head_slot;
        if let Some(scan) = self.scan_mut() {
            scan.back.rotate_left(head_slot);
            scan.back.resize(len, 0);
        }
        self.head_slot = 0;
        if (1..recent_len(len)).contains(&self.recent_buckets()) {
            let mut lazy = self.lazy.take().expect("the side keeps a table");
            let recent = lazy.recent.as_mut().expect("the side keeps a table");
            *recent = Recency::new(std::mem::take(&mut recent.vertices), len);
            self.live().for_each(|m| recent.raise(m));
            self.lazy = Some(lazy);
        }
    }

    /// Tombstones every live match with `earliest < cutoff`, taking it out
    /// of `histogram`, and advances the front past leading tombstones.
    /// Reads and writes metadata only. Returns the number expired.
    fn expire(&mut self, cutoff: Timestamp, histogram: &mut [u32]) -> usize {
        if self.min_earliest >= cutoff {
            return 0;
        }
        let (wrapped, straight) = self.meta.split_at_mut(self.head_slot);
        let straight_len = self.held.min(straight.len());
        let held = straight[..straight_len]
            .iter_mut()
            .chain(&mut wrapped[..self.held - straight_len]);
        let (mut removed, mut leading, mut min) = (0, 0, Timestamp(i64::MAX));
        for (offset, meta) in held.enumerate() {
            if meta.edges != DEAD {
                if meta.earliest < cutoff {
                    histogram[meta.edges as usize] -= 1;
                    meta.edges = DEAD;
                    removed += 1;
                } else {
                    min = min.min(meta.earliest);
                    continue;
                }
            }
            // A tombstone: it leads if every slot before it did too.
            leading += usize::from(leading == offset);
        }
        self.head += leading as u64;
        self.head_slot = self.slot_at(leading);
        self.held -= leading;
        self.live -= removed;
        self.min_earliest = min;
        // Dead scan keys leave the way dead keys leave the store's index.
        let (head, held) = (self.head, self.held as u64);
        if let Some(scan) = self.scan_mut() {
            if scan.newest.len() > 2 * held as usize + COMPACT_FLOOR {
                scan.newest
                    .retain(|_, newest| newest.wrapping_sub(head) < held);
            }
        }
        removed
    }

    /// Live matches not behind `cutoff`: every live one if the side's lower
    /// bound is not, else one pass over the held metadata.
    fn visible(&self, cutoff: Timestamp) -> usize {
        if self.min_earliest >= cutoff {
            return self.live;
        }
        (0..self.held)
            .map(|offset| &self.meta[self.slot_at(offset)])
            .filter(|meta| meta.edges != DEAD && meta.earliest >= cutoff)
            .count()
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.meta.clear();
        if let Some(lazy) = self.lazy.as_deref_mut() {
            if let Some(scan) = &mut lazy.scan {
                scan.newest.clear();
                scan.back.clear();
            }
            if let Some(recent) = &mut lazy.recent {
                recent.latest.fill(Timestamp(i64::MIN));
            }
        }
        (self.head_slot, self.held, self.live) = (0, 0, 0);
        self.min_earliest = Timestamp(i64::MAX);
    }
}

/// The per-parent shared join index: one match collection per **internal**
/// SJ-Tree node holding both children's matches, keyed by the parent's cut
/// projection. See the module docs for the representation; see
/// [`Self::probe_then_insert`] for the single-hash-op join step every
/// execution mode shares.
#[derive(Debug)]
pub struct SharedJoinStore {
    /// The cut vertices of the owning internal node (the join key both
    /// children project onto).
    key_vertices: Vec<QueryVertexId>,
    /// Position of each key's newest match per side ([`NONE`], or a
    /// position the front has passed, for an empty chain).
    chains: FxHashMap<JoinKey, [u64; 2]>,
    rings: [Ring; 2],
    /// Matches with `earliest` before it are hidden from every probe, as if
    /// expired (see [`Self::set_horizon`]).
    horizon: Timestamp,
    inserted_total: u64,
    expired_total: u64,
    /// Live-match counts by covered edge count (index = `edge_count()`),
    /// so the running maximum is maintained in O(1) on insert and removal.
    edge_histogram: Vec<u32>,
    max_edges: usize,
}

impl SharedJoinStore {
    /// Creates a store for an internal node whose cut is `key_vertices`.
    pub fn new(key_vertices: Vec<QueryVertexId>) -> Self {
        SharedJoinStore {
            key_vertices,
            chains: FxHashMap::default(),
            rings: [Ring::new(), Ring::new()],
            horizon: Timestamp(i64::MIN),
            inserted_total: 0,
            expired_total: 0,
            edge_histogram: Vec::new(),
            max_edges: 0,
        }
    }

    /// The join-key vertices (the owning node's cut).
    pub fn key_vertices(&self) -> &[QueryVertexId] {
        &self.key_vertices
    }

    /// Live matches stored across both sides, hidden ones included.
    pub fn len(&self) -> usize {
        self.rings[0].live + self.rings[1].live
    }

    /// Live matches a probe could still offer: behind neither the horizon
    /// nor `cutoff`.
    pub(crate) fn visible_len(&self, cutoff: Timestamp) -> usize {
        let cutoff = cutoff.max(self.horizon);
        self.rings.iter().map(|ring| ring.visible(cutoff)).sum()
    }

    /// True if no matches are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live matches stored for one child.
    pub fn side_len(&self, side: JoinSide) -> usize {
        self.rings[side.index()].live
    }

    /// Total matches ever inserted.
    pub fn inserted_total(&self) -> u64 {
        self.inserted_total
    }

    /// Total matches removed by expiry.
    pub fn expired_total(&self) -> u64 {
        self.expired_total
    }

    /// Dead slots not yet reclaimed (tombstones no front has passed), so
    /// `len() + expiry_backlog()` is the slots held; for capacity tests.
    pub fn expiry_backlog(&self) -> usize {
        self.rings.iter().map(|ring| ring.held - ring.live).sum()
    }

    /// Largest number of query edges covered by any live match (0 if empty).
    pub fn best_edge_count(&self) -> usize {
        self.max_edges
    }

    /// Computes the join key this store files `m` under (the projection onto
    /// the cut). `None` if the match does not bind every cut vertex.
    pub fn join_key_for(&self, m: &PartialMatch) -> Option<JoinKey> {
        project(&self.key_vertices, m)
    }

    /// Scans the sibling side of `key` for join candidates — calling
    /// `probe(&m, candidate)` for each — and then files `m` under `key` on
    /// `side`. One hash lookup covers both the probe and the insert, the
    /// insert is a sequential write at the side's tail, and the whole step
    /// performs no allocation once the store's capacities are warm.
    ///
    /// The probe-before-store order is the join discipline every execution
    /// mode shares: a match never joins with matches on its own side, so
    /// every (left, right) pair under a key is offered to `probe` exactly
    /// once, by whichever member is filed later. Candidates are offered
    /// newest first. The order is observable: the in-place climb files each
    /// merge's result (and everything it completes higher up) before the
    /// next candidate is offered, so it decides the order complete matches
    /// come out in. The emission digests recorded in `sj_matcher`'s
    /// four-leaf tests pin it.
    pub fn probe_then_insert<F>(
        &mut self,
        side: JoinSide,
        key: JoinKey,
        m: PartialMatch,
        mut probe: F,
    ) where
        F: FnMut(&PartialMatch, &PartialMatch),
    {
        let edge_count = m.edge_count();
        let newest = self.chains.entry(key).or_insert([NONE; 2]);
        let sibling = &self.rings[side.other().index()];
        for candidate in sibling.chain(newest[side.other().index()], self.horizon) {
            probe(&m, candidate);
        }
        newest[side.index()] = self.rings[side.index()].push(m, newest[side.index()]);
        self.inserted_total += 1;
        self.count_in(edge_count);
    }

    /// True while `side` holds a visible match under `key`: the chain walk
    /// a probe from the other side would make reaches one. A tombstone or a
    /// match behind the horizon does not count, so the answer does not
    /// depend on when the store was last swept. On a side that keeps a
    /// recency table, a key whose entry lies behind the horizon is cold
    /// without further look-up; otherwise one hash look-up, then the
    /// chain's hidden head, if any.
    pub(crate) fn holds(&self, side: JoinSide, key: &[VertexId]) -> bool {
        let recent = self.rings[side.index()].recency();
        if recent.is_some_and(|recent| recent.cold(key, self.horizon)) {
            return false;
        }
        self.candidates(side.other(), key).next().is_some()
    }

    /// The live matches on the sibling of `side` under `key`, newest first:
    /// the candidates [`Self::probe_then_insert`] would offer, without filing.
    pub(crate) fn candidates<'a>(
        &'a self,
        side: JoinSide,
        key: &[VertexId],
    ) -> impl Iterator<Item = &'a PartialMatch> {
        let sibling = side.other().index();
        let newest = self.chains.get(key).map_or(NONE, |newest| newest[sibling]);
        self.rings[sibling].chain(newest, self.horizon)
    }

    /// Files `m` under `key` on `side` without probing the sibling side.
    pub(crate) fn insert(&mut self, side: JoinSide, key: JoinKey, m: PartialMatch) {
        let edge_count = m.edge_count();
        let newest = self.chains.entry(key).or_insert([NONE; 2]);
        newest[side.index()] = self.rings[side.index()].push(m, newest[side.index()]);
        self.inserted_total += 1;
        self.count_in(edge_count);
    }

    /// Tombstones every live match of `side` under `key` — metadata only,
    /// like a sweep, but not counted as expired — and returns how many.
    pub(crate) fn withdraw(&mut self, side: JoinSide, key: &[VertexId]) -> usize {
        let ring = &mut self.rings[side.index()];
        let newest = self.chains.get_mut(key).map(|n| &mut n[side.index()]);
        let mut position = newest.map_or(NONE, |newest| std::mem::replace(newest, NONE));
        let mut removed = 0;
        while let Some(slot) = ring.slot_of(position) {
            let meta = &mut ring.meta[slot];
            if meta.edges != DEAD {
                self.edge_histogram[meta.edges as usize] -= 1;
                meta.edges = DEAD;
                removed += 1;
            }
            position = match meta.back {
                0 => NONE,
                back => position - u64::from(back),
            };
        }
        ring.live -= removed;
        self.settle_max_edges();
        removed
    }

    /// Threads a second chain through `side`, keyed on the projection onto
    /// `vertices`, for [`Self::scan`]. A lazy node's store is keyed on its
    /// own cut but materialised per key of its parent's: `vertices` are the
    /// parent's cut vertices that `side` binds. Set while the store is empty.
    pub(crate) fn thread_scan_chain(&mut self, side: JoinSide, vertices: Vec<QueryVertexId>) {
        debug_assert!(self.is_empty(), "a scan chain is threaded from the start");
        let ring = &mut self.rings[side.index()];
        ring.lazy.get_or_insert_default().scan = Some(ScanChain {
            vertices,
            newest: FxHashMap::default(),
            back: vec![0; ring.slots.len()],
        });
    }

    /// Keeps a recency table on `side` (module docs), for [`Self::holds`]
    /// to answer most cold keys from. Set while the store is empty.
    pub(crate) fn keep_recency(&mut self, side: JoinSide) {
        debug_assert!(self.is_empty(), "a recency table is kept from the start");
        let ring = &mut self.rings[side.index()];
        let recent = Recency::new(self.key_vertices.clone(), ring.slots.len());
        ring.lazy.get_or_insert_default().recent = Some(recent);
    }

    /// Buckets of `side`'s recency table (0 if it keeps none).
    #[cfg(test)]
    pub(crate) fn recency_buckets(&self, side: JoinSide) -> usize {
        self.rings[side.index()].recent_buckets()
    }

    /// The side threading the scan chain, and its live matches that bind
    /// the scan vertices as `key` binds `cut` (a superset of them), newest
    /// first. Walks only the matches under that projection.
    pub(crate) fn scan<'a>(
        &'a self,
        cut: &[QueryVertexId],
        key: &[VertexId],
    ) -> (JoinSide, impl Iterator<Item = &'a PartialMatch>) {
        let (side, ring, scan) = [JoinSide::Left, JoinSide::Right]
            .into_iter()
            .find_map(|side| {
                let ring = &self.rings[side.index()];
                Some((side, ring, ring.lazy.as_deref()?.scan.as_ref()?))
            })
            .expect("the store threads a scan chain");
        let at = |v| cut.iter().position(|c| *c == v).expect("a cut vertex");
        let scan_key: JoinKey = scan.vertices.iter().map(|&v| key[at(v)]).collect();
        let newest = scan.newest.get(&scan_key).copied().unwrap_or(NONE);
        (
            side,
            ring.walk(newest, self.horizon, |slot| scan.back[slot]),
        )
    }

    /// Accounts one more live match covering `edge_count` query edges.
    #[inline]
    fn count_in(&mut self, edge_count: usize) {
        if edge_count >= self.edge_histogram.len() {
            self.edge_histogram.resize(edge_count + 1, 0);
        }
        self.edge_histogram[edge_count] += 1;
        self.max_edges = self.max_edges.max(edge_count);
    }

    /// Lowers the running maximum past edge counts no live match has left.
    fn settle_max_edges(&mut self) {
        while self.max_edges > 0 && self.edge_histogram[self.max_edges] == 0 {
            self.max_edges -= 1;
        }
    }

    /// Iterates every stored match: the left side, then the right, each in
    /// filing order.
    pub fn iter(&self) -> impl Iterator<Item = &PartialMatch> {
        self.rings.iter().flat_map(Ring::live)
    }

    /// Hides every match whose earliest edge is older than `horizon` from
    /// [`Self::probe_then_insert`], [`Self::candidates`] and [`Self::scan`],
    /// exactly as if it had expired: the chain walk reads the 16-byte
    /// metadata it already reads, never the payload. Reclaiming decides
    /// nothing a probe or [`Self::holds`] sees; [`Self::len`] and
    /// [`Self::iter`] still see a hidden match until it is reclaimed.
    pub(crate) fn set_horizon(&mut self, horizon: Timestamp) {
        self.horizon = horizon;
    }

    /// Removes every match whose earliest edge is older than `cutoff` (such
    /// matches can never satisfy `τ(g) < tW` once stream time has passed
    /// `cutoff + tW`), returning the number removed.
    ///
    /// **Exact**: the pass visits every held slot's metadata, so a skewed
    /// stream whose merged matches carry older `earliest` values than
    /// previously filed ones cannot hide state behind an in-window head. A
    /// side whose minimum `earliest` is not below `cutoff` is not visited:
    /// a pass that cannot remove anything costs one compare per side.
    pub fn expire_older_than(&mut self, cutoff: Timestamp) -> usize {
        self.expire(&[0, 1], cutoff)
    }

    /// The step a matcher takes before filing on `side` (the module docs'
    /// reclaim when full): one compare while the side has a free slot; when
    /// it is full, the exact pass of [`Self::expire_older_than`] on it with
    /// the horizon as the cutoff, then growth only if it is still more than
    /// three quarters full.
    pub(crate) fn make_room(&mut self, side: JoinSide) {
        let ring = &self.rings[side.index()];
        if ring.held == ring.slots.len() {
            self.expire(&[side.index()], self.horizon);
            let ring = &mut self.rings[side.index()];
            if 4 * ring.held > 3 * ring.slots.len() {
                ring.grow();
            }
        }
    }

    /// The exact pass and compaction on `sides`, then the dead-key purge.
    fn expire(&mut self, sides: &[usize], cutoff: Timestamp) -> usize {
        let mut removed = 0;
        for &side in sides {
            let ring = &mut self.rings[side];
            let swept = ring.expire(cutoff, &mut self.edge_histogram);
            if swept > 0 && ring.held - ring.live > COMPACT_FACTOR * ring.live + COMPACT_FLOOR {
                self.compact(side);
            }
            removed += swept;
        }
        if removed == 0 {
            return 0;
        }
        self.expired_total += removed as u64;
        self.settle_max_edges();
        // A key dies silently (no payload is read to learn it): forget the
        // dead ones once they outnumber, two to one, the slots that could
        // each hold a distinct key.
        let rings = &self.rings;
        if self.chains.len() > 2 * (rings[0].held + rings[1].held) + COMPACT_FLOOR {
            let held = |side: usize, position| rings[side].slot_of(position).is_some();
            self.chains
                .retain(|_, newest| held(0, newest[0]) || held(1, newest[1]));
        }
        removed
    }

    /// Re-files the live matches of one side at its front, in order, which
    /// re-threads their chains through the index. In place: no allocation
    /// for keys that fit a [`JoinKey`] inline.
    #[cold]
    fn compact(&mut self, side: usize) {
        for newest in self.chains.values_mut() {
            newest[side] = NONE;
        }
        let ring = &mut self.rings[side];
        if let Some(scan) = ring.scan_mut() {
            scan.newest.clear();
        }
        let held = std::mem::take(&mut ring.held);
        ring.live = 0;
        for offset in 0..held {
            let from = ring.slot_at(offset);
            if ring.meta[from].edges == DEAD {
                continue;
            }
            // Filed at or before `from`: the tail never overtakes the scan.
            let m = std::mem::replace(&mut ring.slots[from], stale_match());
            let key = project(&self.key_vertices, &m).expect("stored match binds its join key");
            let newest = self.chains.get_mut(key.as_slice());
            let newest = newest.expect("a live match's key is indexed");
            newest[side] = ring.push(m, newest[side]);
        }
    }

    /// Drops every stored match and the horizon.
    pub fn clear(&mut self) {
        self.horizon = Timestamp(i64::MIN);
        self.chains.clear();
        self.rings.iter_mut().for_each(Ring::clear);
        self.edge_histogram.clear();
        self.max_edges = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(qv_bindings: &[(usize, u32)], edge: u64, ts: i64) -> PartialMatch {
        let mut pm = PartialMatch::seed(
            4,
            QueryEdgeId(edge as usize % 4),
            EdgeId(edge),
            Timestamp::from_secs(ts),
        );
        for &(qv, dv) in qv_bindings {
            assert!(pm.binding.bind(QueryVertexId(qv), VertexId(dv)));
        }
        pm
    }

    fn key_of(store: &SharedJoinStore, pm: &PartialMatch) -> JoinKey {
        store.join_key_for(pm).unwrap()
    }

    fn file(store: &mut SharedJoinStore, side: JoinSide, pm: PartialMatch) -> usize {
        let k = key_of(store, &pm);
        let mut seen = 0;
        store.probe_then_insert(side, k, pm, |_, _| seen += 1);
        seen
    }

    /// Files `pm` and returns the data edge of every candidate offered, in
    /// the order offered.
    fn candidates(store: &mut SharedJoinStore, side: JoinSide, pm: PartialMatch) -> Vec<u64> {
        let k = key_of(store, &pm);
        let mut seen = Vec::new();
        store.probe_then_insert(side, k, pm, |_, cand| seen.push(cand.edges[0].1 .0));
        seen
    }

    #[test]
    fn probes_only_the_sibling_side() {
        let mut store = SharedJoinStore::new(vec![QueryVertexId(0)]);
        let left1 = m(&[(0, 10), (1, 20)], 1, 100);
        let left2 = m(&[(0, 10), (1, 21)], 2, 101);
        let right = m(&[(0, 10), (2, 30)], 3, 102);

        assert_eq!(file(&mut store, JoinSide::Left, left1), 0);
        // A second left-side match under the same key must NOT see the first
        // (same-side matches never join).
        assert_eq!(file(&mut store, JoinSide::Left, left2), 0);
        assert_eq!(store.side_len(JoinSide::Left), 2);

        // A right-side match under the key probes both left matches.
        let k = key_of(&store, &right);
        let mut seen = 0;
        store.probe_then_insert(JoinSide::Right, k, right, |m, cand| {
            assert_eq!(m.binding.get(QueryVertexId(2)), Some(VertexId(30)));
            assert!(cand.binding.get(QueryVertexId(1)).is_some());
            seen += 1;
        });
        assert_eq!(seen, 2);
        assert_eq!(store.len(), 3);
        assert_eq!(store.inserted_total(), 3);
    }

    #[test]
    fn separates_keys() {
        let mut store = SharedJoinStore::new(vec![QueryVertexId(0)]);
        assert_eq!(file(&mut store, JoinSide::Left, m(&[(0, 10)], 1, 100)), 0);
        // A right-side match under a *different* key probes nothing.
        assert_eq!(file(&mut store, JoinSide::Right, m(&[(0, 99)], 2, 101)), 0);
    }

    #[test]
    fn composite_join_keys_project_in_order() {
        let store = SharedJoinStore::new(vec![QueryVertexId(1), QueryVertexId(0)]);
        let key = store.join_key_for(&m(&[(0, 10), (1, 20)], 9, 100)).unwrap();
        assert_eq!(key.as_slice(), &[VertexId(20), VertexId(10)]);
    }

    #[test]
    fn empty_key_store_groups_everything_together() {
        // An internal node with an empty cut groups all matches under one key.
        let mut store = SharedJoinStore::new(vec![]);
        assert_eq!(file(&mut store, JoinSide::Left, m(&[(0, 1)], 1, 10)), 0);
        assert_eq!(file(&mut store, JoinSide::Right, m(&[(0, 2)], 2, 20)), 1);
    }

    #[test]
    fn expiry_sweeps_exactly_and_skips_when_nothing_can_expire() {
        let mut store = SharedJoinStore::new(vec![QueryVertexId(0)]);
        for i in 0..10i64 {
            let pm = m(&[(0, (i % 3) as u32)], i as u64, 100 + i);
            let side = if i % 2 == 0 {
                JoinSide::Left
            } else {
                JoinSide::Right
            };
            file(&mut store, side, pm);
        }
        assert_eq!(store.len(), 10);
        // Cutoff below the minimum: the guard says nothing can go.
        assert_eq!(store.expire_older_than(Timestamp::from_secs(100)), 0);
        // Remove the first five (earliest 100..=104).
        assert_eq!(store.expire_older_than(Timestamp::from_secs(105)), 5);
        assert_eq!(store.len(), 5);
        assert_eq!(store.expired_total(), 5);
        // Survivors are still probeable.
        let probe = m(&[(0, 0)], 99, 200);
        let seen = file(&mut store, JoinSide::Left, probe);
        assert!(seen > 0, "surviving right-side matches remain indexed");
        store.clear();
        assert!(store.is_empty());
    }

    #[test]
    fn skewed_insertion_order_expires_exactly() {
        // The regime a FIFO expiry queue gets wrong: a match with an *older*
        // earliest timestamp filed after newer ones (merged matches inherit
        // the minimum of their components, so this happens on every
        // join-heavy stream). The sweep visits every held slot and removes
        // exactly the expirable set.
        let mut store = SharedJoinStore::new(vec![QueryVertexId(0)]);
        file(&mut store, JoinSide::Left, m(&[(0, 1)], 1, 200));
        file(&mut store, JoinSide::Left, m(&[(0, 2)], 2, 100)); // older, behind
        file(&mut store, JoinSide::Left, m(&[(0, 3)], 3, 300));
        // Cutoff between the skewed entry and the head of insertion order:
        // exactly the ts=100 match must go, regardless of arrival position.
        assert_eq!(store.expire_older_than(Timestamp::from_secs(150)), 1);
        assert_eq!(store.len(), 2);
        assert!(store
            .iter()
            .all(|pm| pm.earliest >= Timestamp::from_secs(150)));
        // Full-window drain leaves nothing behind the head.
        assert_eq!(store.expire_older_than(Timestamp::from_secs(1_000)), 2);
        assert_eq!(store.len(), 0);
        assert_eq!(store.expired_total(), 3);
    }

    #[test]
    fn long_stream_keeps_schedule_and_memory_bounded() {
        // Periodic expiry must keep the live population, the slots held and
        // the key index proportional to the live state, not the stream
        // length.
        let mut store = SharedJoinStore::new(vec![QueryVertexId(0)]);
        for i in 0..10_000i64 {
            file(
                &mut store,
                JoinSide::Left,
                m(&[(0, (i % 7) as u32)], i as u64, i),
            );
            store.expire_older_than(Timestamp::from_secs(i - 50));
        }
        assert!(store.len() <= 52);
        assert!(
            store.expiry_backlog() <= 64,
            "schedule backlog grew to {} entries for ~51 live matches",
            store.expiry_backlog()
        );
        assert!(store.rings[0].slots.len() <= 128);
    }

    #[test]
    fn dead_keys_leave_the_index() {
        // Every match has a key of its own; the index must follow the live
        // set, not the stream.
        let mut store = SharedJoinStore::new(vec![QueryVertexId(0)]);
        for i in 0..10_000i64 {
            file(
                &mut store,
                JoinSide::Right,
                m(&[(0, i as u32)], i as u64, i),
            );
            store.expire_older_than(Timestamp::from_secs(i - 50));
        }
        assert_eq!(store.len(), 51);
        assert!(store.chains.len() <= 2 * 51 + COMPACT_FLOOR + 1);
    }

    #[test]
    fn sweep_keeps_buckets_consistent() {
        // Several matches under the same key; expire a prefix and verify the
        // survivors are all still probeable through the bucket.
        let mut store = SharedJoinStore::new(vec![QueryVertexId(0)]);
        for i in 0..10 {
            file(&mut store, JoinSide::Left, m(&[(0, 42)], i, 100 + i as i64));
        }
        store.expire_older_than(Timestamp::from_secs(105));
        let mut survivors = Vec::new();
        let probe = m(&[(0, 42)], 99, 200);
        let k = key_of(&store, &probe);
        store.probe_then_insert(JoinSide::Right, k, probe, |_, cand| {
            survivors.push(cand.edges[0].1 .0);
        });
        assert_eq!(survivors.len(), 5);
        for id in 5..10u64 {
            assert!(survivors.contains(&id), "edge {id} lost from bucket");
        }
    }

    #[test]
    fn best_edge_count_tracks_running_max() {
        let mut store = SharedJoinStore::new(vec![QueryVertexId(0)]);
        assert_eq!(store.best_edge_count(), 0);
        file(&mut store, JoinSide::Left, m(&[(0, 1)], 1, 10));
        assert_eq!(store.best_edge_count(), 1);
        let mut big = m(&[(0, 2)], 2, 20);
        assert!(big.add_edge(QueryEdgeId(3), EdgeId(30), Timestamp::from_secs(21)));
        file(&mut store, JoinSide::Right, big);
        assert_eq!(store.best_edge_count(), 2);
        // Expiring the maximal match restores the max from the histogram.
        store.expire_older_than(Timestamp::from_secs(15));
        assert_eq!(store.best_edge_count(), 2);
        store.expire_older_than(Timestamp::from_secs(100));
        assert_eq!(store.best_edge_count(), 0);
    }

    #[test]
    fn join_side_other_flips() {
        assert_eq!(JoinSide::Left.other(), JoinSide::Right);
        assert_eq!(JoinSide::Right.other(), JoinSide::Left);
    }

    #[test]
    fn a_sweep_moves_no_survivor() {
        // A ring whose held range wraps, long-lived matches scattered among
        // short-lived ones: the sweep tombstones in place and advances the
        // front by index, so every survivor keeps its address.
        let mut store = SharedJoinStore::new(vec![QueryVertexId(0)]);
        for i in 0..600i64 {
            let ts = if i >= 400 && i % 3 == 0 { i + 1_000 } else { i };
            file(
                &mut store,
                JoinSide::Left,
                m(&[(0, (i % 5) as u32)], i as u64, ts),
            );
            if i == 399 {
                assert_eq!(store.expire_older_than(Timestamp::from_secs(300)), 300);
            }
        }
        let ring = &store.rings[0];
        assert!(
            ring.head_slot + ring.held > ring.slots.len(),
            "held range wraps"
        );
        let cutoff = Timestamp::from_secs(550);
        let addresses = |store: &SharedJoinStore| -> Vec<*const PartialMatch> {
            let survivors = store.iter().filter(|pm| pm.earliest >= cutoff);
            survivors.map(|pm| pm as *const PartialMatch).collect()
        };
        let before = addresses(&store);
        assert_eq!(store.expire_older_than(cutoff), 200);
        assert!(
            store.expiry_backlog() > 50,
            "tombstones stay where they are"
        );
        assert_eq!(before.len(), store.len());
        assert_eq!(before, addresses(&store));
    }

    #[test]
    fn compaction_reclaims_a_pinned_front_and_keeps_chain_order() {
        let mut store = SharedJoinStore::new(vec![QueryVertexId(0)]);
        // One match that outlives everything pins the front…
        file(&mut store, JoinSide::Left, m(&[(0, 3)], 0, 1_000_000));
        // …while matches under four keys die behind it, every fifth a
        // long-lived one too.
        for i in 1..=1_000i64 {
            let ts = if i % 5 == 0 { 1_000_000 + i } else { i };
            file(
                &mut store,
                JoinSide::Left,
                m(&[(0, (i % 4) as u32)], i as u64, ts),
            );
        }
        assert_eq!(store.expire_older_than(Timestamp::from_secs(2_000)), 800);
        assert_eq!(store.len(), 201);
        assert_eq!(
            store.expiry_backlog(),
            0,
            "800 tombstones against 201 live: compacted"
        );
        // Survivors under key 3 (i ≡ 3 mod 4 and i ≡ 0 mod 5, plus the first),
        // newest first.
        let mut expected: Vec<u64> = (1..=1_000).filter(|i| i % 20 == 15).rev().collect();
        expected.push(0);
        let probe = m(&[(0, 3)], 5_000, 1_000_000);
        assert_eq!(candidates(&mut store, JoinSide::Right, probe), expected);

        // Short-lived matches only, sweep after sweep: compaction keeps the
        // slots held within the documented factor of the live matches.
        let mut peak_live = store.len();
        for i in 1_001..=100_000i64 {
            file(
                &mut store,
                JoinSide::Left,
                m(&[(0, (i % 4) as u32)], i as u64, i),
            );
            peak_live = peak_live.max(store.len());
            if i % 256 == 0 {
                store.expire_older_than(Timestamp::from_secs(i - 100));
                assert!(store.expiry_backlog() <= COMPACT_FACTOR * store.len() + COMPACT_FLOOR);
            }
        }
        let slots = store.rings[0].slots.len();
        assert!(
            // …between sweeps 256 filings more, and an eighth of growth slack.
            slots * 8 <= 9 * ((1 + COMPACT_FACTOR) * peak_live + COMPACT_FLOOR + 256),
            "{slots} slots for a peak of {peak_live} live matches"
        );
        let probe = m(&[(0, 3)], 500_000, 1_000_000);
        let seen = candidates(&mut store, JoinSide::Right, probe);
        assert_eq!(
            seen[seen.len() - expected.len()..],
            expected,
            "nothing lost"
        );
    }

    #[test]
    fn a_full_side_reclaims_what_it_hides_before_it_grows() {
        // Sixteen left matches fill the first ring; `hidden` of them, the
        // oldest, fall behind the horizon.
        let full = |hidden: i64| {
            let mut store = SharedJoinStore::new(vec![QueryVertexId(0)]);
            for i in 0..16i64 {
                store.make_room(JoinSide::Left);
                file(&mut store, JoinSide::Left, m(&[(0, 7)], i as u64, i));
            }
            assert_eq!(store.rings[0].held, store.rings[0].slots.len());
            store.set_horizon(Timestamp::from_secs(hidden));
            store
        };
        for (hidden, grows) in [(16, false), (4, false), (3, true)] {
            let mut store = full(hidden);
            let slots = store.rings[0].slots.len();
            store.make_room(JoinSide::Right);
            assert_eq!(store.expired_total(), 0, "nothing on the right to reclaim");
            store.make_room(JoinSide::Left);
            assert_eq!(store.expired_total(), hidden as u64);
            file(&mut store, JoinSide::Left, m(&[(0, 7)], 99, 99));
            assert_eq!(store.len(), 17 - hidden as usize);
            assert_eq!(store.rings[0].slots.len() > slots, grows, "{hidden} hidden");
            // The survivors are still offered, newest first.
            let offered = candidates(&mut store, JoinSide::Right, m(&[(0, 7)], 100, 99));
            let expected: Vec<u64> = [99].into_iter().chain((hidden as u64..16).rev()).collect();
            assert_eq!(offered, expected);
        }
    }

    #[test]
    fn a_recency_table_grows_with_its_ring_and_answers_like_the_chain_walk() {
        let mut store = SharedJoinStore::new(vec![QueryVertexId(0)]);
        store.keep_recency(JoinSide::Right);
        let first = store.recency_buckets(JoinSide::Right);
        assert_eq!(
            store.recency_buckets(JoinSide::Left),
            0,
            "one side keeps one"
        );
        for i in 0..1_000i64 {
            store.make_room(JoinSide::Right);
            file(
                &mut store,
                JoinSide::Right,
                m(&[(0, i as u32)], i as u64, i),
            );
        }
        let buckets = store.recency_buckets(JoinSide::Right);
        assert!(buckets > first && buckets >= RECENT_PER_SLOT * store.rings[1].slots.len());
        let hot = |store: &SharedJoinStore, i: u32| store.holds(JoinSide::Right, &[VertexId(i)]);
        // A key filed at or after the horizon is hot, before or after the
        // rebuilds; one filed only behind it, or never, is not.
        store.set_horizon(Timestamp::from_secs(500));
        assert!((0..1_000).all(|i| hot(&store, i) == (i >= 500)));
        assert!(!hot(&store, 5_000));
        store.clear();
        assert_eq!(store.recency_buckets(JoinSide::Right), buckets);
        let recent = store.rings[1].recency().unwrap();
        assert!(recent.latest.iter().all(|&t| t == Timestamp(i64::MIN)));
        assert!((0..1_000).all(|i| !hot(&store, i)));
    }

    /// splitmix64.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// One filed match in the model: `live` until expired or withdrawn.
    struct Filed {
        key: JoinKey,
        pm: PartialMatch,
        live: bool,
    }

    /// The reference: per side, every match the ring still holds — live, or
    /// a tombstone the front has not passed — in filing order, everything
    /// answered by a scan; a probe and `holds` see the live ones not behind
    /// the horizon. The front and compaction follow the documented rules (a
    /// sweep runs when the side's `earliest` lower bound is below the
    /// cutoff, passes leading tombstones, and compacts past the factor).
    struct Model {
        sides: [Vec<Filed>; 2],
        min_earliest: [Timestamp; 2],
        inserted: u64,
        expired: u64,
        horizon: Timestamp,
        /// The side threading the scan chain and its vertices.
        scan: (usize, Vec<QueryVertexId>),
    }

    impl Model {
        fn new(scan: (usize, Vec<QueryVertexId>)) -> Self {
            Model {
                sides: [Vec::new(), Vec::new()],
                min_earliest: [Timestamp(i64::MAX); 2],
                inserted: 0,
                expired: 0,
                horizon: Timestamp(i64::MIN),
                scan,
            }
        }

        fn live(&self) -> impl Iterator<Item = (usize, &Filed)> {
            let side = |s: usize| self.sides[s].iter().map(move |f| (s, f));
            side(0).chain(side(1)).filter(|(_, f)| f.live)
        }

        fn file(&mut self, side: usize, key: JoinKey, pm: PartialMatch) {
            self.min_earliest[side] = self.min_earliest[side].min(pm.earliest);
            let live = true;
            self.sides[side].push(Filed { key, pm, live });
        }

        /// Visible matches of `side` under `key`, newest first.
        fn under<'a>(&'a self, side: usize, key: &'a JoinKey) -> Vec<&'a PartialMatch> {
            let filed = self.sides[side].iter().rev();
            filed
                .filter(|f| self.visible(f) && f.key == *key)
                .map(|f| &f.pm)
                .collect()
        }

        fn visible(&self, f: &Filed) -> bool {
            f.live && f.pm.earliest >= self.horizon
        }

        fn holds(&self, side: usize, key: &JoinKey) -> bool {
            !self.under(side, key).is_empty()
        }

        fn withdraw(&mut self, side: usize, key: &JoinKey) -> usize {
            let mut removed = 0;
            for f in self.sides[side].iter_mut().filter(|f| f.key == *key) {
                removed += usize::from(f.live);
                f.live = false;
            }
            removed
        }

        fn expire(&mut self, sides: &[usize], cutoff: Timestamp) -> usize {
            let mut removed = 0;
            for &side in sides {
                let filed = &mut self.sides[side];
                if self.min_earliest[side] >= cutoff {
                    continue;
                }
                let mut min = Timestamp(i64::MAX);
                let mut swept = 0;
                for f in filed.iter_mut().filter(|f| f.live) {
                    if f.pm.earliest < cutoff {
                        f.live = false;
                        swept += 1;
                    } else {
                        min = min.min(f.pm.earliest);
                    }
                }
                let leading = filed.iter().take_while(|f| !f.live).count();
                filed.drain(..leading);
                self.min_earliest[side] = min;
                let live = filed.iter().filter(|f| f.live).count();
                if swept > 0 && filed.len() - live > COMPACT_FACTOR * live + COMPACT_FLOOR {
                    filed.retain(|f| f.live);
                }
                removed += swept;
            }
            self.expired += removed as u64;
            removed
        }

        fn clear(&mut self) {
            self.sides = [Vec::new(), Vec::new()];
            self.min_earliest = [Timestamp(i64::MAX); 2];
            self.horizon = Timestamp(i64::MIN);
        }

        fn check(&self, store: &SharedJoinStore) {
            let side_len = |s| self.live().filter(|(side, _)| *side == s).count();
            assert_eq!(store.len(), self.live().count());
            assert_eq!(store.is_empty(), self.live().next().is_none());
            assert_eq!(store.side_len(JoinSide::Left), side_len(0));
            assert_eq!(store.side_len(JoinSide::Right), side_len(1));
            assert_eq!(store.inserted_total(), self.inserted);
            assert_eq!(store.expired_total(), self.expired);
            let best = self.live().map(|(_, f)| f.pm.edge_count()).max();
            assert_eq!(store.best_edge_count(), best.unwrap_or(0));
            let id = |pm: &PartialMatch| pm.edges[0].1 .0;
            let mut stored: Vec<u64> = store.iter().map(id).collect();
            let mut expected: Vec<u64> = self.live().map(|(_, f)| id(&f.pm)).collect();
            stored.sort_unstable();
            expected.sort_unstable();
            assert_eq!(stored, expected);
        }
    }

    /// `holds` on both sides under each of `keys` against the chain walk
    /// alone: the recency table may only ever save the walk. A table that
    /// skips its update in `insert`, or reads an entry equal to the horizon
    /// as cold, fails here within the seeds below.
    fn check_holds(store: &SharedJoinStore, keys: &[JoinKey]) {
        for key in keys {
            for side in [JoinSide::Left, JoinSide::Right] {
                let walked = store.candidates(side.other(), key).next().is_some();
                assert_eq!(store.holds(side, key), walked, "holds {key:?} on {side:?}");
            }
        }
    }

    /// Drives a store and the model through `operations` random operations
    /// and compares them after each.
    fn differential_run(seed: u64, operations: usize, first_position: u64) {
        let mut rng = Rng(seed);
        // Per seed: a one- or two-vertex cut, few or many distinct keys, a
        // short or long window, and a scan chain keyed on a parent cut of
        // one or two vertices, threaded through either side.
        let key_vertices: Vec<_> = (0..1 + seed % 2)
            .map(|qv| QueryVertexId(qv as usize))
            .collect();
        let cardinality = [3, 40, 5_000][(seed / 2 % 3) as usize];
        let window = [20, 150][(seed / 6 % 2) as usize];
        // Every other dozen: one match in 32 outlives the run and pins the
        // front, so tombstones pile up and sides are compacted.
        let pins = seed / 12 % 2 == 1;
        let scan_vertices = [vec![1], vec![0], vec![0, 1]][(seed % 3) as usize]
            .iter()
            .map(|&qv| QueryVertexId(qv))
            .collect::<Vec<_>>();
        let scan_side = [JoinSide::Left, JoinSide::Right][(seed / 3 % 2) as usize];
        let recent_side = [JoinSide::Left, JoinSide::Right][(seed / 5 % 2) as usize];
        let mut store = SharedJoinStore::new(key_vertices.clone());
        store.thread_scan_chain(scan_side, scan_vertices.clone());
        store.keep_recency(recent_side);
        // Nothing is held yet, so the rings may number their slots from anywhere.
        store
            .rings
            .iter_mut()
            .for_each(|ring| ring.head = first_position);
        let mut model = Model::new((scan_side.index(), scan_vertices.clone()));
        let (mut now, mut next_edge) = (1_000i64, 0u64);
        let mut random_match = |rng: &mut Rng, now: i64| {
            next_edge += 1;
            // Mostly recent, a quarter anywhere in the window or beyond it
            // (merged matches inherit an old `earliest`), so expiry order is
            // not filing order.
            let age = match rng.below(32) {
                0 if pins => -1_000_000,
                1..=8 => rng.below(window + 10) as i64,
                _ => rng.below(4) as i64,
            };
            let (a, b) = (rng.below(cardinality) as u32, rng.below(2) as u32);
            let bindings = [(0, a), (1, 500_000_000 + b)];
            let mut pm = m(&bindings, next_edge, now - age);
            if rng.below(8) == 0 {
                assert!(pm.add_edge(QueryEdgeId(5), EdgeId(next_edge + (1 << 40)), pm.latest));
            }
            pm
        };
        // The keys `holds` is checked under after every step: the last few
        // the run touched, and two drawn at random.
        let mut touched: Vec<JoinKey> = Vec::new();
        for _ in 0..operations {
            let side = [JoinSide::Left, JoinSide::Right][rng.below(2) as usize];
            let operation = rng.below(100);
            if operation < 68 && rng.below(2) == 0 {
                // A matcher makes room before it files: when the side is
                // full, a sweep at the horizon, then growth (and the
                // recency table's rebuild) if it is still crowded.
                let ring = &store.rings[side.index()];
                if ring.held == ring.slots.len() {
                    model.expire(&[side.index()], store.horizon);
                }
                store.make_room(side);
            }
            match operation {
                0..=59 => {
                    let pm = random_match(&mut rng, now);
                    let key = key_of(&store, &pm);
                    touched.push(key.clone());
                    let expected = model.under(side.other().index(), &key);
                    let mut offered = 0;
                    store.probe_then_insert(side, key.clone(), pm.clone(), |filed, candidate| {
                        assert_eq!(filed, &pm);
                        assert_eq!(
                            Some(&candidate),
                            expected.get(offered),
                            "candidate {offered}"
                        );
                        offered += 1;
                    });
                    assert_eq!(offered, expected.len());
                    model.file(side.index(), key, pm);
                    model.inserted += 1;
                    now += rng.below(3) as i64;
                }
                60..=67 => {
                    // Filing without a probe.
                    let pm = random_match(&mut rng, now);
                    let key = key_of(&store, &pm);
                    touched.push(key.clone());
                    store.insert(side, key.clone(), pm.clone());
                    model.file(side.index(), key, pm);
                    model.inserted += 1;
                    now += rng.below(3) as i64;
                }
                68..=71 => {
                    // Probing without filing.
                    let key = key_of(&store, &random_match(&mut rng, now));
                    let offered: Vec<_> = store.candidates(side, &key).collect();
                    assert_eq!(offered, model.under(side.other().index(), &key));
                }
                72..=75 => {
                    let key = key_of(&store, &random_match(&mut rng, now));
                    let held = model.holds(side.index(), &key);
                    assert_eq!(store.holds(side, &key), held, "holds {key:?}");
                }
                76..=79 => {
                    let key = key_of(&store, &random_match(&mut rng, now));
                    let removed = model.withdraw(side.index(), &key);
                    assert_eq!(store.withdraw(side, &key), removed);
                }
                80..=83 => {
                    // The scan chain, asked with a parent cut holding the
                    // scan vertices in another order and one more vertex.
                    let pm = random_match(&mut rng, now);
                    let cut = [QueryVertexId(1), QueryVertexId(0)];
                    let key: JoinKey = cut.iter().map(|&v| pm.binding.get(v).unwrap()).collect();
                    let project = |pm: &PartialMatch| project(&model.scan.1, pm);
                    let wanted = project(&pm);
                    let filed = model.sides[model.scan.0].iter().rev();
                    let expected: Vec<&PartialMatch> = filed
                        .filter(|f| model.visible(f) && project(&f.pm) == wanted)
                        .map(|f| &f.pm)
                        .collect();
                    let (side, scanned) = store.scan(&cut, &key);
                    assert_eq!(side, scan_side);
                    assert_eq!(scanned.collect::<Vec<_>>(), expected);
                }
                84..=87 => {
                    // Around `now - window`, sometimes behind the last one.
                    let horizon = Timestamp::from_secs(now - rng.below(2 * window) as i64);
                    store.set_horizon(horizon);
                    model.horizon = horizon;
                }
                88..=90 => {
                    // Exactly at a live match's `earliest`: the match stays
                    // visible, its key hot.
                    let live: Vec<_> = model.live().map(|(_, f)| (&f.key, f.pm.earliest)).collect();
                    if let Some(&(key, earliest)) =
                        live.get(rng.below(live.len().max(1) as u64) as usize)
                    {
                        touched.push(key.clone());
                        store.set_horizon(earliest);
                        model.horizon = earliest;
                    }
                }
                91..=98 => {
                    // Around `now - window`, sometimes behind the last cutoff.
                    let cutoff = Timestamp::from_secs(now - rng.below(2 * window) as i64);
                    let removed = model.expire(&[0, 1], cutoff);
                    assert_eq!(store.expire_older_than(cutoff), removed);
                }
                _ => {
                    store.clear();
                    model.clear();
                }
            }
            model.check(&store);
            let drawn = [(); 2].map(|_| key_of(&store, &random_match(&mut rng, now)));
            let last = touched.len().saturating_sub(4);
            touched.drain(..last);
            check_holds(&store, &touched);
            check_holds(&store, &drawn);
        }
    }

    #[test]
    fn agrees_with_a_naive_model_on_random_operations() {
        for seed in 0..72 {
            differential_run(seed, 2_000, 0);
        }
    }

    #[test]
    fn positions_past_32_bits_behave_like_positions_from_zero() {
        // Chain links are 32-bit *distances*; a position itself must never
        // pass through a 32-bit quantity. Start where 2 000 operations carry
        // both rings across 2³².
        for seed in 0..12 {
            differential_run(seed, 2_000, u64::from(u32::MAX) - 300);
        }
    }
}
