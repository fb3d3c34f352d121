//! Allocation budgets of the cache's hot paths: a local-DRAM hit, an
//! overwrite `put` of a 64 KiB object, and the CRC-32 every put and
//! verified read runs. A counting global allocator sees every allocation
//! of the process, so this file holds one test and no other test's
//! allocations are counted.
//!
//! The budgets are the counts measured on a warm 2-node, rf-2 manager
//! (3 and 15), with no margin: these paths run single-threaded and
//! allocate the same on every run.

use bytes::Bytes;
use ids_cache::{crc32, BackingStore, CacheConfig, CacheManager, Tier};
use ids_simrt::{NetworkModel, RankId, Topology};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The system allocator, counting every allocation (and reallocation).
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments,
// so `System`'s guarantees hold; the counter has no effect on them.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The benchmark's object size.
const OBJECT: usize = 64 * 1024;

/// Allocations a local-DRAM `get` hit may make.
const GET_HIT_BUDGET: u64 = 3;

/// Allocations an overwrite `put` of one [`OBJECT`] may make, with both
/// replicas written.
const PUT_BUDGET: u64 = 15;

/// `f`'s result and the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Relaxed) - before)
}

fn payload(tag: u8) -> Bytes {
    Bytes::from((0..OBJECT).map(|i| (i as u8).wrapping_mul(31) ^ tag).collect::<Vec<u8>>())
}

#[test]
fn hot_cache_paths_stay_within_their_allocation_budgets() {
    let cache = CacheManager::new(
        Topology::new(2, 4),
        NetworkModel::slingshot(),
        CacheConfig::new(2, 16 * OBJECT as u64, 64 * OBJECT as u64).with_replication(2),
        BackingStore::default_store(),
    );
    let rank = RankId(0);
    let names: Vec<String> = (0..8).map(|i| format!("obj/{i}")).collect();
    let payloads: Vec<Bytes> = (0..8).map(payload).collect();

    // Warm up: every object put, overwritten and read twice, so maps,
    // recency indexes and metric series have their entries.
    for round in 0..2 {
        for (name, data) in names.iter().zip(&payloads) {
            cache.put(rank, name, data.clone());
            let (got, out) = cache.get(rank, name).expect("get").expect("cached");
            assert_eq!(got, *data, "round {round}: {name}");
            assert_eq!(out.tier, Tier::LocalDram, "round {round}: {name}");
        }
    }

    let (hit, get_allocs) = counted(|| cache.get(rank, &names[3]));
    let (got, out) = hit.expect("get").expect("cached");
    assert_eq!((got, out.tier), (payloads[3].clone(), Tier::LocalDram));

    let overwrite = payloads[5].clone();
    let ((), put_allocs) = counted(|| {
        cache.put(rank, &names[3], overwrite);
    });
    let (got, _) = cache.get(rank, &names[3]).expect("get").expect("cached");
    assert_eq!(got, payloads[5]);

    let (crc, crc_allocs) = counted(|| crc32(&payloads[0]));
    assert_eq!(crc, cache.meta(&names[0]).expect("meta").checksum);

    println!("allocations: get hit {get_allocs}, overwrite put {put_allocs}, crc32 {crc_allocs}");
    assert!(get_allocs <= GET_HIT_BUDGET, "local-DRAM get hit: {get_allocs} allocations");
    assert!(put_allocs <= PUT_BUDGET, "overwrite put of 64 KiB: {put_allocs} allocations");
    assert_eq!(crc_allocs, 0, "crc32 of 64 KiB allocated");
}
