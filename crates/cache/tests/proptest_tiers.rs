//! Model-based property tests for the tiered store (PR 9): occupancy
//! accounting, spill/promote byte fidelity, and quarantine safety, each
//! checked for **all three eviction policies** under random operation
//! sequences.
//!
//! Invariants under test:
//!
//! 1. No tier store ever holds more bytes than its capacity, and its
//!    `used` counter always equals the sum of resident entry sizes.
//! 2. Data that moves between tiers (DRAM→NVMe spill, NVMe→DRAM
//!    promote-on-reuse) keeps its bytes and checksum — a `get` always
//!    returns exactly the last value `put`, whatever tier served it.
//! 3. Quarantined (bit-rotted) copies are never served and never
//!    promoted: reads under an injected-rot fault plane still return
//!    the authoritative bytes.
//! 4. LRU victim order through the ordered recency index agrees with a
//!    naive `min_by_key((last_access, name))` scan of the entries.

use bytes::Bytes;
use ids_cache::{
    BackingStore, CacheConfig, CacheManager, EvictionKind, Sealed, TierKind, TierStore,
};
use ids_simrt::faults::{FaultConfig, FaultPlane};
use ids_simrt::{NetworkModel, NodeId, RankId, Topology};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

fn eviction_kinds() -> impl Strategy<Value = EvictionKind> {
    prop_oneof![Just(EvictionKind::Lru), Just(EvictionKind::S3Fifo), Just(EvictionKind::TinyLfu),]
}

#[derive(Debug, Clone)]
enum StoreOp {
    Insert { key: u8, len: u16, tag: u8 },
    Remove { key: u8 },
    Touch { key: u8 },
    PopVictim,
}

fn store_op() -> impl Strategy<Value = StoreOp> {
    prop_oneof![
        (0u8..16, 1u16..400, any::<u8>()).prop_map(|(key, len, tag)| StoreOp::Insert {
            key,
            len,
            tag
        }),
        (0u8..16).prop_map(|key| StoreOp::Remove { key }),
        (0u8..16).prop_map(|key| StoreOp::Touch { key }),
        Just(StoreOp::PopVictim),
    ]
}

#[derive(Debug, Clone)]
enum CacheOp {
    Put { key: u8, len: u16, tag: u8, rank: u8 },
    Get { key: u8, rank: u8 },
    FailNode { node: u8 },
    RecoverNode { node: u8 },
}

fn cache_op() -> impl Strategy<Value = CacheOp> {
    // Two crash-shaped arms against eight traffic-shaped arms keeps the
    // sequences dominated by puts/gets with occasional membership churn.
    prop_oneof![
        (0u8..10, 64u16..2048, any::<u8>(), 0u8..16)
            .prop_map(|(key, len, tag, rank)| CacheOp::Put { key, len, tag, rank }),
        (0u8..10, 64u16..2048, any::<u8>(), 0u8..16)
            .prop_map(|(key, len, tag, rank)| CacheOp::Put { key, len, tag, rank }),
        (0u8..10, 0u8..16).prop_map(|(key, rank)| CacheOp::Get { key, rank }),
        (0u8..10, 0u8..16).prop_map(|(key, rank)| CacheOp::Get { key, rank }),
        (0u8..2).prop_map(|node| CacheOp::FailNode { node }),
        (0u8..2).prop_map(|node| CacheOp::RecoverNode { node }),
    ]
}

fn tiered_cache(eviction: EvictionKind) -> CacheManager {
    // Small tiers force constant spill/promote/eviction traffic.
    CacheManager::new(
        Topology::new(4, 4),
        NetworkModel::slingshot(),
        CacheConfig::new(2, 4096, 8192).with_eviction(eviction),
        BackingStore::default_store(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Invariants 1 + 2 at the store level, for every policy: occupancy
    /// never exceeds capacity, `used` tracks the entry map exactly, and
    /// entries come back out (remove or eviction) byte- and
    /// CRC-identical to what went in.
    #[test]
    fn store_accounting_holds_for_every_policy(
        eviction in eviction_kinds(),
        ops in proptest::collection::vec(store_op(), 1..150),
    ) {
        let mut t = TierStore::new(TierKind::Dram, 1024, eviction);
        let mut model: HashMap<String, (Vec<u8>, u32)> = HashMap::new();
        let mut clock = 0u64;

        for op in &ops {
            clock += 1;
            match *op {
                StoreOp::Insert { key, len, tag } => {
                    let name = format!("k{key}");
                    let data = vec![tag; len as usize];
                    let sealed = Sealed::seal(Bytes::from(data.clone()));
                    let crc = sealed.checksum();
                    // Mimic the manager: evict until the entry fits
                    // (replacement frees the old copy first).
                    let old = model.get(&name).map_or(0, |(d, _)| d.len() as u64);
                    while t.used() - old.min(t.used()) + len as u64 > t.capacity() {
                        let Some((victim, e)) = t.pop_victim() else { break };
                        let (vd, vcrc) = model.remove(&victim).expect("victim was modeled");
                        prop_assert_eq!(&e.sealed.bytes()[..], &vd[..], "evicted bytes changed");
                        prop_assert_eq!(e.sealed.checksum(), vcrc, "evicted crc changed");
                    }
                    // A replacement drops the old copy even when the new
                    // one is refused, so the model forgets it first.
                    model.remove(&name);
                    if t.insert(&name, sealed, clock) {
                        model.insert(name, (data, crc));
                    }
                }
                StoreOp::Remove { key } => {
                    let name = format!("k{key}");
                    let got = t.remove(&name);
                    match model.remove(&name) {
                        Some((d, crc)) => {
                            let e = got.expect("model says resident");
                            prop_assert_eq!(&e.sealed.bytes()[..], &d[..]);
                            prop_assert_eq!(e.sealed.checksum(), crc);
                        }
                        None => prop_assert!(got.is_none(), "phantom entry {name}"),
                    }
                }
                StoreOp::Touch { key } => t.touch(&format!("k{key}"), clock),
                StoreOp::PopVictim => {
                    if let Some((victim, e)) = t.pop_victim() {
                        let (d, crc) = model.remove(&victim).expect("victim was modeled");
                        prop_assert_eq!(&e.sealed.bytes()[..], &d[..]);
                        prop_assert_eq!(e.sealed.checksum(), crc);
                    } else {
                        prop_assert!(model.is_empty(), "refused to evict a resident entry");
                    }
                }
            }
            // Invariant 1, after every single operation.
            prop_assert!(t.used() <= t.capacity(), "occupancy {} > cap {}", t.used(), t.capacity());
            let sum: u64 = model.values().map(|(d, _)| d.len() as u64).sum();
            prop_assert_eq!(t.used(), sum, "used drifted from entry sizes");
            prop_assert_eq!(t.len(), model.len());
            t.check_accounting();
        }
    }

    /// Invariant 4: draining the LRU store yields victims in exactly the
    /// order a naive full-map `min_by_key((last_access, name))` scan
    /// would pick them (the ordered index replaced that O(n) scan).
    #[test]
    fn lru_victim_order_matches_naive_scan(
        ops in proptest::collection::vec((0u8..12, any::<bool>()), 1..80),
    ) {
        let mut t = TierStore::new(TierKind::Dram, u64::MAX, EvictionKind::Lru);
        let mut naive: HashMap<String, u64> = HashMap::new();
        let mut clock = 0u64;
        for (key, touch) in &ops {
            clock += 1;
            let name = format!("k{key}");
            if *touch && naive.contains_key(&name) {
                t.touch(&name, clock);
                naive.insert(name, clock);
            } else {
                t.insert(&name, Sealed::seal(Bytes::from(vec![1u8; 8])), clock);
                naive.insert(name, clock);
            }
        }
        while !naive.is_empty() {
            let expect = naive
                .iter()
                .min_by_key(|(n, stamp)| (**stamp, (*n).clone()))
                .map(|(n, _)| n.clone())
                .expect("non-empty");
            let (victim, _) = t.pop_victim().expect("store and model agree on len");
            prop_assert_eq!(&victim, &expect, "ordered index disagrees with naive scan");
            naive.remove(&victim);
        }
        prop_assert!(t.pop_victim().is_none());
    }

    /// Invariant 2 end-to-end, for every policy: random put/get traffic
    /// with crash/recover events over tiny tiers (constant spill and
    /// promote churn) always serves the last value put, and no tier row
    /// of the inspector ever reports occupancy above capacity.
    #[test]
    fn all_policies_preserve_bytes_across_spill_and_promote(
        eviction in eviction_kinds(),
        ops in proptest::collection::vec(cache_op(), 1..100),
    ) {
        let cache = tiered_cache(eviction);
        let mut model: HashMap<u8, Vec<u8>> = HashMap::new();

        for op in &ops {
            match *op {
                CacheOp::Put { key, len, tag, rank } => {
                    let data = vec![tag; len as usize];
                    cache.put(RankId(rank as u32), &format!("k{key}"), Bytes::from(data.clone()));
                    model.insert(key, data);
                }
                CacheOp::Get { key, rank } => {
                    let got = cache.get(RankId(rank as u32), &format!("k{key}")).unwrap();
                    match model.get(&key) {
                        Some(expect) => {
                            let (bytes, _) = got.expect("model says present");
                            prop_assert_eq!(&bytes[..], &expect[..], "bytes changed in transit");
                        }
                        None => prop_assert!(got.is_none()),
                    }
                }
                CacheOp::FailNode { node } => cache.fail_node(NodeId(node as u32)),
                CacheOp::RecoverNode { node } => cache.recover_node(NodeId(node as u32)),
            }
            let inspection = cache.inspect();
            for tier in &inspection.tiers {
                prop_assert!(
                    tier.occupied_bytes <= tier.capacity_bytes,
                    "node {} {} over capacity: {}/{}",
                    tier.node, tier.tier, tier.occupied_bytes, tier.capacity_bytes
                );
            }
        }

        // Post-run: everything still durable, byte-identical.
        for (key, expect) in &model {
            let (bytes, _) = cache.get(RankId(3), &format!("k{key}")).unwrap().expect("durable");
            prop_assert_eq!(&bytes[..], &expect[..]);
        }
    }

    /// Invariant 3, for every policy: with injected bit rot on cached
    /// copies, a read never serves (and the reuse path never promotes)
    /// rotted bytes — quarantine-and-repair always falls back to a
    /// healthy replica or the backing store.
    #[test]
    fn rotted_copies_are_quarantined_never_served(
        eviction in eviction_kinds(),
        seed in 0u64..256,
        keys in proptest::collection::vec((0u8..6, 64u16..1500, any::<u8>()), 1..24),
    ) {
        let cache = tiered_cache(eviction);
        // Heavy bit rot on cached copies only; backing stays authoritative.
        cache.attach_faults(Arc::new(FaultPlane::new(
            seed,
            FaultConfig::storage_only(0.4, 0.0),
            4,
            16,
            1e6,
        )));
        let mut model: HashMap<u8, Vec<u8>> = HashMap::new();
        for (key, len, tag) in &keys {
            let data = vec![*tag; *len as usize];
            cache.put(RankId((*key % 16) as u32), &format!("k{key}"), Bytes::from(data.clone()));
            model.insert(*key, data);
        }
        // Two read rounds: the first may quarantine rotted copies and
        // repopulate, the second reuses (and possibly promotes) what the
        // first round left resident.
        for round in 0..2u32 {
            for (key, expect) in &model {
                let (bytes, _) = cache
                    .get(RankId(((*key as u32) + round) % 16), &format!("k{key}"))
                    .unwrap()
                    .expect("backing is authoritative");
                prop_assert_eq!(&bytes[..], &expect[..], "served rotted bytes for k{}", key);
            }
        }
    }
}
