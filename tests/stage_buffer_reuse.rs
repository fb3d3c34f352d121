//! Stage buffer reuse: a query run maps its large buffers once. Within a
//! run, the exchange's inputs, destinations and permutations, the join's
//! inputs and the workers' leftover parts go back to the run's free list,
//! and the next phase's producers — scan and join parts, the exchange's
//! column gathers, destinations and permutations, the result's canonical
//! permutation — take from it instead of asking the allocator.
//!
//! A 16-rank, four-pattern star join returning 20 480 rows counts the
//! allocations of 64 KiB or more that one run makes: a stage column of
//! 20 480 four-byte ids is 80 KiB, so every fresh column, permutation or
//! destination vector counts, and little else does. What the run makes on
//! one worker is the same on every run and every host; each pool helper
//! may add a few, so `ci.sh` also runs this file pinned to one core. This
//! file holds one test, so no other test's allocations are counted.

use ids::core::engine::StepOutcome;
use ids::core::{IdsConfig, IdsInstance};
use ids::graph::Term;
use ids::simrt::Topology;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The system allocator, counting every allocation (and reallocation) of
/// at least [`LARGE`] bytes on every thread.
struct Counting;

static LARGE_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// What counts as a large allocation.
const LARGE: usize = 64 << 10;

fn count(size: usize) {
    if size >= LARGE {
        LARGE_ALLOCATIONS.fetch_add(1, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments,
// so `System`'s guarantees hold; the counter has no effect on them.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Hub entities, each with one value under each of four predicates.
const ENTITIES: usize = 20_480;

const QUERY: &str =
    "SELECT ?e ?a ?b ?c ?d WHERE { ?e <a> ?a . ?e <b> ?b . ?e <c> ?c . ?e <d> ?d . }";

/// Large allocations one run makes on one worker, measured (debug and
/// release alike): the first take of each buffer the run needs at once,
/// and the result. Each producer that allocates afresh instead of taking
/// from the list adds at least one; with no free list the run makes 74.
/// Every scan is placed on `?e`, so no join moves a side (13 when every
/// join repartitioned both).
const RUN_CEILING: u64 = 12;

/// Large allocations each pool helper may add to a run: scratch it takes
/// while the list has none to give. Measured on two workers: none, since
/// a helper's part grows in chunks of `stage::CHUNK_ROWS` (32 KiB a
/// column) instead of to the stage's size, however many ranks it runs.
const HELPER_ALLOWANCE: u64 = 4;

fn launch() -> IdsInstance {
    let mut cfg = IdsConfig::laptop(16, 7);
    cfg.topology = Topology::new(2, 8);
    let inst = IdsInstance::launch(cfg);
    let ds = inst.datastore();
    for i in 0..ENTITIES {
        let e = Term::iri(format!("e:{i}"));
        for (k, p) in ["a", "b", "c", "d"].into_iter().enumerate() {
            ds.add_fact(&e, &Term::iri(p), &Term::Int((i * 4 + k) as i64));
        }
    }
    ds.build_indexes();
    inst
}

#[test]
fn a_star_join_run_takes_its_large_buffers_from_its_free_list() {
    let mut inst = launch();
    // Warm-up: first-use allocations (metric series, the prepared plan,
    // statistics) are not the steady state.
    let warm = inst.query(QUERY).unwrap();
    assert_eq!(warm.solutions.len(), ENTITIES);

    let mut run = inst.prepare_run(QUERY, false).unwrap();
    let before = LARGE_ALLOCATIONS.load(Relaxed);
    let rows = loop {
        if let StepOutcome::Done(out) = inst.step_run(&mut run).unwrap() {
            break out.solutions.len();
        }
    };
    let large = LARGE_ALLOCATIONS.load(Relaxed) - before;
    assert_eq!(rows, ENTITIES);
    // The pool's worker count: the host's available parallelism.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
    let ceiling = RUN_CEILING + HELPER_ALLOWANCE * (workers - 1);
    eprintln!("large allocations in one run on {workers} workers: {large} (ceiling {ceiling})");
    assert!(large <= ceiling, "{large} allocations of 64 KiB or more, ceiling {ceiling}");
}
