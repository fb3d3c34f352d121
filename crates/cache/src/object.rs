//! Named cache objects.
//!
//! "Each cached object is addressed by its object name/path and a computed
//! object hash (object ID)" (§3.2). The id is a stable content-independent
//! hash of the *name*; the value bytes live in the tiers and the backing
//! store. Every stored copy additionally carries a CRC32 of its *content*,
//! so bit rot and torn writes are detectable wherever the copy lives.

use bytes::Bytes;
use ids_simrt::rng::fnv1a;
use ids_simrt::topology::NodeId;
use serde::{Deserialize, Serialize};

/// Compute the object ID for a name/path (the TR-Cache hash helper).
pub fn object_id(name: &str) -> u64 {
    fnv1a(name.as_bytes())
}

/// Bytes consumed per kernel step (slice-by-16: one table per byte lane).
/// The micro bench preferred 16 over 8 lanes on this host (31 µs vs 42 µs
/// per 64 KiB; the byte-at-a-time loop takes 180 µs).
const LANES: usize = 16;

/// CRC-32/ISO-HDLC (reflected, polynomial `0xEDB88320`) lookup tables,
/// built at compile time. `CRC32_TABLES[0]` is the classic byte table;
/// `CRC32_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, which lets one step fold [`LANES`] input bytes at once.
/// A `static`, not a `const`: unoptimised builds copy a `const` array to
/// the stack at every use, which made debug-build hashing 30× slower.
static CRC32_TABLES: [[u32; 256]; LANES] = {
    let mut tables = [[0u32; 256]; LANES];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut lane = 1;
    while lane < LANES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[lane - 1][i];
            tables[lane][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        lane += 1;
    }
    tables
};

/// The four table lookups for one little-endian word of a step.
/// `last_lane` is how many bytes of the step follow the word's last
/// (most significant) byte; each earlier byte is one lane further out.
#[inline(always)]
fn fold_word(word: u32, last_lane: usize) -> u32 {
    CRC32_TABLES[last_lane + 3][(word & 0xFF) as usize]
        ^ CRC32_TABLES[last_lane + 2][((word >> 8) & 0xFF) as usize]
        ^ CRC32_TABLES[last_lane + 1][((word >> 16) & 0xFF) as usize]
        ^ CRC32_TABLES[last_lane][(word >> 24) as usize]
}

/// CRC-32 checksum of a payload (IEEE 802.3 — the same polynomial used
/// by Ethernet, gzip, and DAOS object integrity). Used to detect bit
/// rot in cached copies and torn writes in the backing store.
///
/// Sliced kernel: sixteen bytes per step through sixteen lookup tables, then
/// the tail of fewer than sixteen bytes through the byte table. Outside
/// this module payloads are hashed through [`Sealed::seal`] and
/// [`Sealed::verify`] only.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
    let mut steps = data.chunks_exact(LANES);
    for s in &mut steps {
        let w0 = u32::from_le_bytes([s[0], s[1], s[2], s[3]]) ^ c;
        let w1 = u32::from_le_bytes([s[4], s[5], s[6], s[7]]);
        let w2 = u32::from_le_bytes([s[8], s[9], s[10], s[11]]);
        let w3 = u32::from_le_bytes([s[12], s[13], s[14], s[15]]);
        c = fold_word(w0, 12) ^ fold_word(w1, 8) ^ fold_word(w2, 4) ^ fold_word(w3, 0);
    }
    for &b in steps.remainder() {
        c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// A payload together with the CRC-32 recorded when it entered the
/// integrity plane. The fields are private so the pair can only come
/// from [`Sealed::seal`] — the one place that hashes on ingest — and the
/// only way to re-hash is [`Sealed::verify`]. Moving a `Sealed` between
/// tiers, replicas and the backing store therefore never hashes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sealed {
    bytes: Bytes,
    crc: u32,
}

impl Sealed {
    /// Hash `bytes` once and record the checksum.
    pub fn seal(bytes: Bytes) -> Self {
        let crc = crc32(&bytes);
        Self { bytes, crc }
    }

    /// Re-hash the payload: does it still match the recorded checksum?
    pub fn verify(&self) -> bool {
        crc32(&self.bytes) == self.crc
    }

    /// The payload.
    pub fn bytes(&self) -> &Bytes {
        &self.bytes
    }

    /// Unwrap the payload.
    pub fn into_bytes(self) -> Bytes {
        self.bytes
    }

    /// The checksum recorded at seal time.
    pub fn checksum(&self) -> u32 {
        self.crc
    }

    /// Payload size in bytes.
    pub fn size(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Chaos/test hook: a copy with one payload bit flipped and the
    /// recorded checksum left *stale* — what bit rot or a torn write
    /// leaves behind, which [`Sealed::verify`] must reject. `None` for an
    /// empty payload (nothing to flip).
    pub(crate) fn with_flipped_bit(&self) -> Option<Sealed> {
        let mut bytes = self.bytes.to_vec();
        *bytes.first_mut()? ^= 0x80;
        Some(Sealed { bytes: Bytes::from(bytes), crc: self.crc })
    }
}

/// Metadata the Cache Manager tracks per cached object.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObjectMeta {
    /// Object name/path, e.g. `"vina/P29274/CHEMBL112"`.
    pub name: String,
    /// Object ID (name hash).
    pub id: u64,
    /// Payload size in bytes.
    pub size: u64,
    /// Node whose tier currently holds the cached copy.
    pub node: NodeId,
    /// CRC32 of the payload, recorded at insert time.
    pub checksum: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop the sliced kernel replaced, kept as its
    /// reference.
    fn crc32_reference(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = ids_simrt::rng::SplitMix64::new(seed, 0);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn ids_are_stable_and_distinct() {
        assert_eq!(object_id("vina/P29274/c1"), object_id("vina/P29274/c1"));
        assert_ne!(object_id("vina/P29274/c1"), object_id("vina/P29274/c2"));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical CRC-32/ISO-HDLC check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data = vec![0xA5u8; 4096];
        let clean = crc32(&data);
        for byte in [0usize, 1, 2048, 4095] {
            let mut rotted = data.clone();
            rotted[byte] ^= 0x01;
            assert_ne!(crc32(&rotted), clean, "flip at byte {byte} must change the CRC");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The sliced kernel equals the bytewise reference on random
        /// buffers of every length class: 0..=70 000 bytes starting at an
        /// unaligned offset, and every tail length 0..=15 after a whole
        /// number of steps.
        #[test]
        fn sliced_kernel_matches_bytewise_reference(
            len in 0usize..=70_000,
            lead in 0usize..LANES,
            seed in any::<u64>(),
        ) {
            let buf = random_bytes(seed, lead + len + LANES);
            let sub = &buf[lead..lead + len];
            prop_assert_eq!(crc32(sub), crc32_reference(sub), "len {} lead {}", len, lead);
            let steps = len % 1024 / LANES * LANES;
            for tail in 0..LANES {
                let sub = &buf[lead..lead + steps + tail];
                prop_assert_eq!(crc32(sub), crc32_reference(sub), "steps {} tail {}", steps, tail);
            }
        }
    }

    #[test]
    fn seal_records_the_checksum_and_verify_rejects_a_flipped_bit() {
        let sealed = Sealed::seal(Bytes::from(random_bytes(3, 1000)));
        assert_eq!(sealed.checksum(), crc32(sealed.bytes()));
        assert_eq!(sealed.size(), 1000);
        assert!(sealed.verify());
        let rotted = sealed.with_flipped_bit().expect("non-empty payload");
        assert_eq!(rotted.checksum(), sealed.checksum(), "the recorded checksum stays stale");
        assert_ne!(rotted.bytes(), sealed.bytes());
        assert!(!rotted.verify());
        assert!(Sealed::seal(Bytes::new()).with_flipped_bit().is_none());
    }
}
