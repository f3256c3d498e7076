//! Verifies the zero-allocation guarantee of the unified matcher hot path:
//! once a [`SharedJoinStore`]'s bucket map, side vectors and expiry heap are
//! warm, the `probe_then_insert` join step (key projection, bucket lookup,
//! contiguous sibling scan, merge in the probe closure, insert into spare
//! capacity) and binding merges perform no heap allocation for paper-sized
//! queries. Uses a counting global allocator, so this test lives in its own
//! integration-test binary. The count is per thread: the harness runs the
//! tests of this file on parallel threads, and a process-wide counter would
//! charge one test with its neighbours' warm-up allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    // `const` initialiser and no destructor: safe to touch from inside the
    // allocator, at any point of a thread's life.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

use streamworks::engine::{JoinSide, PartialMatch, SharedJoinStore};
use streamworks::query::{QueryEdgeId, QueryVertexId};
use streamworks::{EdgeId, Timestamp, VertexId};

fn pair_match(a: u32, b: u32, edge: u64, ts: i64) -> PartialMatch {
    let mut m = PartialMatch::seed(
        4,
        QueryEdgeId(edge as usize % 4),
        EdgeId(edge),
        Timestamp::from_secs(ts),
    );
    assert!(m.binding.bind(QueryVertexId(0), VertexId(a)));
    assert!(m.binding.bind(QueryVertexId(1), VertexId(b)));
    m
}

/// Files `m` on `side`, returning how many sibling candidates were probed.
fn file(store: &mut SharedJoinStore, side: JoinSide, m: PartialMatch) -> usize {
    let key = store.join_key_for(&m).expect("pair matches bind the key");
    let mut probed = 0usize;
    store.probe_then_insert(side, key, m, |m, candidate| {
        probed += 1;
        // The merge every real probe performs; both matches bind the same
        // key vertices, so the merge must succeed.
        assert!(m.binding.merge(&candidate.binding).is_some());
    });
    probed
}

#[test]
fn probe_then_insert_is_allocation_free_once_warm() {
    let mut store = SharedJoinStore::new(vec![QueryVertexId(0), QueryVertexId(1)]);

    // Warm-up: 16 keys, 8 matches per side per key (timestamps 0..8), so the
    // bucket map, both side vectors of every bucket and the expiry heap all
    // have backing capacity.
    for ts in 0..8i64 {
        for k in 0..16u32 {
            file(
                &mut store,
                JoinSide::Left,
                pair_match(k, 100 + k, (ts as u64) * 32 + k as u64, ts),
            );
            file(
                &mut store,
                JoinSide::Right,
                pair_match(k, 100 + k, (ts as u64) * 32 + 16 + k as u64, ts),
            );
        }
    }
    // Expire the older half: the sweep's `Vec::retain` compacts each side in
    // place, so every side keeps 4 matches plus 4 elements of spare capacity,
    // and the heap keeps its backing storage.
    let removed = store.expire_older_than(Timestamp::from_secs(4));
    assert_eq!(removed, 128);
    assert_eq!(store.len(), 128);

    // Steady state: key projection + single-hash-op probe + contiguous
    // sibling scan + candidate merge + push into the sides' spare capacity
    // must not touch the allocator.
    let before = allocations();
    let mut hits = 0usize;
    for i in 0..16u32 {
        hits += file(
            &mut store,
            JoinSide::Right,
            pair_match(i, 100 + i, 500 + i as u64, 10 + i as i64),
        );
    }
    assert_eq!(
        allocations(),
        before,
        "SharedJoinStore::probe_then_insert allocated on the warm probe path"
    );
    assert_eq!(hits, 64, "every probe scans its key's 4 left candidates");
}

#[test]
fn exact_expiry_is_allocation_free() {
    // The heap-scheduled expiry must not allocate either: pops shrink the
    // heap in place and the per-side sweeps retain-compact the bucket
    // vectors without reallocating. One full insert-and-drain cycle warms
    // every capacity, then the measured sweep runs against it.
    let mut store = SharedJoinStore::new(vec![QueryVertexId(0), QueryVertexId(1)]);
    for i in 0..128u32 {
        file(
            &mut store,
            JoinSide::Left,
            pair_match(i, 200 + i, i as u64, i as i64),
        );
    }
    store.expire_older_than(Timestamp::from_secs(1_000_000));
    for i in 0..128u32 {
        file(
            &mut store,
            JoinSide::Left,
            pair_match(i, 200 + i, i as u64, 2_000_000 + i as i64),
        );
    }
    let before = allocations();
    let removed = store.expire_older_than(Timestamp::from_secs(2_000_064));
    assert_eq!(
        allocations(),
        before,
        "SharedJoinStore::expire_older_than allocated during the sweep"
    );
    assert_eq!(removed, 64, "the min-heap sweep is exact");
    assert_eq!(store.len(), 64);
}

#[test]
fn binding_merge_is_allocation_free_for_inline_queries() {
    let left = pair_match(1, 101, 0, 10);
    let mut right = PartialMatch::seed(4, QueryEdgeId(1), EdgeId(9), Timestamp::from_secs(11));
    assert!(right.binding.bind(QueryVertexId(1), VertexId(101)));
    assert!(right.binding.bind(QueryVertexId(2), VertexId(202)));

    // Warm up (lazily initialised runtime bits must not pollute the count).
    assert!(left.binding.merge(&right.binding).is_some());

    let before = allocations();
    for _ in 0..1_000 {
        let merged = left
            .binding
            .merge(&right.binding)
            .expect("compatible bindings");
        assert_eq!(merged.bound_count(), 3);
        let full = left.merge(&right).expect("compatible matches");
        assert_eq!(full.edge_count(), 2);
    }
    assert_eq!(
        allocations(),
        before,
        "Binding/PartialMatch merge allocated for an inline-sized query"
    );
}

#[test]
fn partial_match_clone_is_allocation_free_for_inline_queries() {
    let m = pair_match(1, 101, 0, 10);
    let before = allocations();
    for _ in 0..1_000 {
        let c = m.clone();
        assert_eq!(c.edge_count(), 1);
    }
    assert_eq!(
        allocations(),
        before,
        "PartialMatch::clone allocated for an inline-sized query"
    );
}
