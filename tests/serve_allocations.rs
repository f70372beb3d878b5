//! Allocation count of the serving hot path. Once a pooled session has
//! served one call, a single-pair `serve_batch` on a frozen service
//! allocates exactly once (the returned vector) when the index answers the
//! pair or the landmark bounds settle it: no per-call session, dedup map,
//! staging buffer or statistics record.
//!
//! The counting allocator counts per thread, so tests running in parallel
//! in this binary do not disturb each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::SeedableRng;

use vicinity::baselines::bfs::BfsEngine;
use vicinity::baselines::PointToPoint;
use vicinity::core::config::Alpha;
use vicinity::core::OracleBuilder;
use vicinity::graph::algo::sampling::random_pairs;
use vicinity::prelude::*;

thread_local! {
    /// Allocations (including reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation on the calling thread.
struct CountingAllocator;

fn count_one() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract. The counter is a const-initialised
// thread-local `Cell` without a destructor, so updating it neither
// allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for `alloc` hold for `System.alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` was allocated by this allocator, i.e. by `System`,
        // with `layout`; the caller guarantees `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations this thread makes while running `f`.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

type Pairs = Vec<(NodeId, NodeId)>;

/// Pairs of a small social graph split into those the index answers and
/// those the landmark bounds settle, classified by serving each one on a
/// session of its own.
fn answered_and_settled(service: &QueryService) -> (Pairs, Pairs) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut session = service.session();
    let (mut answered, mut settled) = (Vec::new(), Vec::new());
    for (s, t) in random_pairs(service.graph(), 2_000, &mut rng) {
        let settled_before = session.stats().fallbacks_settled;
        let answer = session.serve_one(s, t);
        if matches!(answer.method(), Some(ServedMethod::Index(_))) {
            answered.push((s, t));
        } else if session.stats().fallbacks_settled > settled_before {
            settled.push((s, t));
        }
    }
    (answered, settled)
}

#[test]
fn single_pair_serve_batch_allocates_only_its_answer_vector() {
    let graph = SocialGraphConfig::small_test().generate(401);
    let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
        .seed(401)
        .build(&graph);
    let service = QueryService::builder(oracle, graph)
        .threads(1)
        .cache_capacity(4096)
        .build()
        .expect("oracle and graph agree");
    let (answered, settled) = answered_and_settled(&service);
    assert!(answered.len() > 100, "α=4 answers some pairs");
    assert!(
        settled.len() > 10,
        "α=4 settles some misses from the bounds"
    );

    let mut bfs = BfsEngine::new(service.graph());
    let cached = service.cached_answers();
    service.serve_batch(&answered[..1]);
    for &(s, t) in answered.iter().chain(&settled) {
        let (answers, allocations) = allocations_in(|| service.serve_batch(&[(s, t)]));
        assert_eq!(answers[0].distance(), bfs.distance(s, t), "pair ({s},{t})");
        assert_eq!(
            allocations, 1,
            "serve_batch(&[({s},{t})]) allocated {allocations} times; \
             only the returned vector may allocate"
        );
    }
    assert_eq!(service.cached_answers(), cached, "none of these is cached");
    let stats = service.stats();
    // The classifying session's queries, then the warm-up and the calls.
    assert_eq!(
        stats.queries,
        2_000 + 1 + (answered.len() + settled.len()) as u64
    );
}
