//! Counter-backed guarantee that `RouteWorkspace` scratch state is reused:
//! once warm, repeated `compute_with` calls perform a fixed number of
//! allocations per round — the bucket-queue scheduler, the chain mask, and
//! the clean-pass cache must not be regrown call after call.
//!
//! Single `#[test]` on purpose: the counting allocator is process-global,
//! and a second concurrently-running test would perturb the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use aspp_core::prelude::*;

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
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

    // Two warm-up rounds: the first grows the scheduler buckets, the chain
    // mask, and the clean-pass cache to their steady-state sizes; the
    // second flushes any one-off lazy growth.
    run_round(&graph, &mut ws);
    run_round(&graph, &mut ws);

    let before_a = ALLOC_CALLS.load(Ordering::Relaxed);
    run_round(&graph, &mut ws);
    let round_a = ALLOC_CALLS.load(Ordering::Relaxed) - before_a;

    let before_b = ALLOC_CALLS.load(Ordering::Relaxed);
    run_round(&graph, &mut ws);
    let round_b = ALLOC_CALLS.load(Ordering::Relaxed) - before_b;

    assert_eq!(
        round_a, round_b,
        "identical warm rounds must allocate identically (no scratch regrowth)"
    );

    // `clear()` keeps allocations: the next round may re-fill the clean
    // cache (those passes are freshly computed either way) but must not
    // regrow the scheduler — so a post-clear round can never allocate more
    // than the very first cold round did.
    let cold = {
        let mut fresh = RouteWorkspace::new();
        let before = ALLOC_CALLS.load(Ordering::Relaxed);
        run_round(&graph, &mut fresh);
        ALLOC_CALLS.load(Ordering::Relaxed) - before
    };
    ws.clear();
    let before_c = ALLOC_CALLS.load(Ordering::Relaxed);
    run_round(&graph, &mut ws);
    let round_c = ALLOC_CALLS.load(Ordering::Relaxed) - before_c;
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
    let before_clone = ALLOC_CALLS.load(Ordering::Relaxed);
    for _ in 0..16 {
        clones.push(spec.clone());
    }
    let clone_allocs = ALLOC_CALLS.load(Ordering::Relaxed) - before_clone;
    assert_eq!(
        clone_allocs, 0,
        "DestinationSpec clones must share the prepend config via Arc"
    );
    drop(clones);
}
