//! The cache integrity plane, checked from outside the cache crate:
//!
//! 1. `crc32`, through whichever kernel this CPU runs, equals an
//!    independent bit-at-a-time CRC-32/ISO-HDLC on random buffers of every
//!    length class, and
//! 2. an object keeps its bytes *and* the checksum recorded at `put`
//!    through spill, promote, eviction and a backing-store re-fetch —
//!    the sealed payload is moved, never re-derived.

use bytes::Bytes;
use ids::cache::{crc32, BackingStore, CacheConfig, CacheManager, Tier};
use ids::simrt::rng::SplitMix64;
use ids::simrt::{NetworkModel, NodeId, RankId, Topology};
use proptest::prelude::*;

/// CRC-32/ISO-HDLC straight from the polynomial, no tables.
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in data {
        c ^= b as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
        }
    }
    !c
}

fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed, 0);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

#[test]
fn crc32_matches_known_vectors() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
    assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926, "the reference is itself CRC-32");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random buffers of 0..=70 000 bytes at an unaligned start, plus
    /// every tail length 0..=15 after a whole number of 16-byte steps.
    #[test]
    fn crc32_matches_bitwise_reference(
        len in 0usize..=70_000,
        lead in 0usize..16,
        seed in any::<u64>(),
    ) {
        let buf = random_bytes(seed, lead + len + 16);
        let sub = &buf[lead..lead + len];
        prop_assert_eq!(crc32(sub), crc32_bitwise(sub), "len {} lead {}", len, lead);
        let steps = len % 1024 / 16 * 16;
        for tail in 0..16 {
            let sub = &buf[lead..lead + steps + tail];
            prop_assert_eq!(crc32(sub), crc32_bitwise(sub), "steps {} tail {}", steps, tail);
        }
    }
}

#[test]
fn bytes_and_checksum_survive_spill_promote_evict_and_backing_refetch() {
    // One cache node, DRAM for two objects, NVMe for four.
    let cache = CacheManager::new(
        Topology::new(2, 2),
        NetworkModel::slingshot(),
        CacheConfig::new(1, 2048, 4096),
        BackingStore::default_store(),
    );
    let rank = RankId(0);
    let original = Bytes::from(random_bytes(7, 1000));
    let checksum = crc32(&original);
    let filler = |i: u8| Bytes::from(vec![i; 1000]);
    let holds = |tier| cache.locality("obj") == vec![(NodeId(0), tier)];
    let recorded = || cache.meta("obj").map(|m| m.checksum);

    cache.put(rank, "obj", original.clone());
    assert!(holds(Tier::LocalDram));
    assert_eq!(recorded(), Some(checksum));

    // Spill: two newer objects push it out of DRAM.
    cache.put(rank, "f1", filler(1));
    cache.put(rank, "f2", filler(2));
    assert!(holds(Tier::LocalNvme), "{:?}", cache.locality("obj"));
    assert_eq!(recorded(), Some(checksum));

    // Promote: an NVMe hit moves it back to DRAM.
    let (data, out) = cache.get(rank, "obj").unwrap().unwrap();
    assert_eq!(out.tier, Tier::LocalNvme);
    assert_eq!(data, original);
    assert!(holds(Tier::LocalDram));
    assert_eq!(recorded(), Some(checksum));

    // Evict: enough newer objects to push it through both tiers. Each is
    // read once after its put, so its spill passes the NVMe admission
    // filter (which drops one-hit wonders when NVMe is full).
    for i in 3..12 {
        let name = format!("f{i}");
        cache.put(rank, &name, filler(i));
        cache.get(rank, &name).unwrap().unwrap();
    }
    assert_eq!(cache.locality("obj"), vec![], "evicted from DRAM and NVMe");

    // Re-fetch: the backing store verifies and hands back the same seal.
    let (data, out) = cache.get(rank, "obj").unwrap().unwrap();
    assert_eq!(out.tier, Tier::Backing);
    assert_eq!(data, original);
    assert_eq!(recorded(), Some(checksum));
    let stats = cache.stats();
    assert!(stats.evictions_to_nvme >= 1 && stats.promotes == 1 && stats.evictions_dropped >= 1);
}
