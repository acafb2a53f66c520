//! Counter-backed guarantee that `RouteWorkspace` scratch state is reused:
//! once warm, repeated `compute_with` calls perform a fixed number of
//! allocations per round — the sweep's dirty and stale marks and the
//! clean-pass cache must not be regrown call after call.
//!
//! The allocator counts per thread: the test harness's own threads
//! allocate concurrently with the test (the thread that spawned it records
//! it as running), and under CPU contention those calls can land inside a
//! measured round.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aspp_core::prelude::*;

struct CountingAlloc;

thread_local! {
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocator call on the calling thread (none once the thread's
/// locals are torn down).
fn count() {
    let _ = ALLOC_CALLS.try_with(|n| n.set(n.get() + 1));
}

/// The calling thread's allocator calls so far.
fn allocs() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn run_round(graph: &AsGraph, ws: &mut RouteWorkspace) {
    let engine = RoutingEngine::new(graph);
    let asns: Vec<Asn> = graph.asns().collect();
    for pad in 1..=5 {
        for attacker in [asns[10], asns[20]] {
            let spec = DestinationSpec::new(asns[0])
                .origin_padding(pad)
                .attacker(AttackerModel::new(attacker));
            let outcome = engine.compute_with(&spec, ws);
            assert!(outcome.population() > 0);
        }
    }
}

#[test]
fn warm_workspace_rounds_allocate_identically() {
    let graph = InternetConfig::small().seed(41).build();
    let mut ws = RouteWorkspace::new();

    // Two warm-up rounds: the first grows the sweep's marks and the
    // clean-pass cache to their steady-state sizes; the second flushes any
    // one-off lazy growth.
    run_round(&graph, &mut ws);
    run_round(&graph, &mut ws);

    let before_a = allocs();
    run_round(&graph, &mut ws);
    let round_a = allocs() - before_a;

    let before_b = allocs();
    run_round(&graph, &mut ws);
    let round_b = allocs() - before_b;

    assert_eq!(
        round_a, round_b,
        "identical warm rounds must allocate identically (no scratch regrowth)"
    );

    // `clear()` keeps allocations: the next round may re-fill the clean
    // cache (those passes are freshly computed either way) but must not
    // regrow the marks — so a post-clear round can never allocate more
    // than the very first cold round did.
    let cold = {
        let mut fresh = RouteWorkspace::new();
        let before = allocs();
        run_round(&graph, &mut fresh);
        allocs() - before
    };
    ws.clear();
    let before_c = allocs();
    run_round(&graph, &mut ws);
    let round_c = allocs() - before_c;
    assert!(
        round_c < cold,
        "cleared workspace must reuse scratch allocations ({round_c} vs cold {cold})"
    );

    // Arc-shared spec state: cloning a fully-configured spec — what the
    // batch engine and the clean-pass cache do per cell — must bump
    // refcounts, never copy the prepend table.
    let asns: Vec<Asn> = graph.asns().collect();
    let spec = DestinationSpec::new(asns[0])
        .origin_padding(4)
        .attacker(AttackerModel::new(asns[10]));
    let mut clones: Vec<DestinationSpec> = Vec::with_capacity(16);
    let before_clone = allocs();
    for _ in 0..16 {
        clones.push(spec.clone());
    }
    let clone_allocs = allocs() - before_clone;
    assert_eq!(
        clone_allocs, 0,
        "DestinationSpec clones must share the prepend config via Arc"
    );
    drop(clones);
}
