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

/// Compute the object ID for a name/path (the TR-Cache hash helper).
pub fn object_id(name: &str) -> u64 {
    fnv1a(name.as_bytes())
}

/// The CRC-32/ISO-HDLC polynomial, bit-reflected (`x^32` implied): the
/// one constant both kernels derive their tables and fold keys from.
const POLY: u32 = 0xEDB8_8320;

/// Bytes consumed per table-kernel step (slice-by-16: one table per byte
/// lane; an earlier measurement preferred 16 lanes to 8). On a 2-vCPU
/// Xeon x86_64 host it takes 42 µs per 64 KiB, the byte-at-a-time loop
/// 214 µs and the [`clmul`] kernel 3.3–3.7 µs.
const LANES: usize = 16;

/// CRC-32/ISO-HDLC lookup tables, built at compile time.
/// `CRC32_TABLES[0]` is the classic byte table; `CRC32_TABLES[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes, which lets one step
/// fold [`LANES`] input bytes at once.
/// A `static`, not a `const`: unoptimised builds copy a `const` array to
/// the stack at every use, which made debug-build hashing 30× slower.
static CRC32_TABLES: [[u32; 256]; LANES] = {
    let mut tables = [[0u32; 256]; LANES];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
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
/// On x86_64 CPUs with carry-less multiply, the `clmul` folding kernel;
/// elsewhere the `crc32_table` kernel. Both compute the same value for
/// every input. Outside this module payloads are hashed through
/// [`Sealed::seal`] and [`Sealed::verify`] only.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some(c) = clmul::fold_if_supported(!0, data) {
        return !c;
    }
    !crc32_table(!0, data)
}

/// Slice-by-16 table kernel over the CRC register `c` (not inverted on
/// entry or exit): sixteen bytes per step through sixteen lookup tables,
/// then the tail of fewer than sixteen bytes through the byte table. The
/// whole CRC where carry-less multiply is missing, and the short inputs
/// and the tail of the [`clmul`] kernel where it is not.
fn crc32_table(mut c: u32, data: &[u8]) -> u32 {
    let (steps, tail) = data.as_chunks::<LANES>();
    for s in steps {
        let w0 = u32::from_le_bytes([s[0], s[1], s[2], s[3]]) ^ c;
        let w1 = u32::from_le_bytes([s[4], s[5], s[6], s[7]]);
        let w2 = u32::from_le_bytes([s[8], s[9], s[10], s[11]]);
        let w3 = u32::from_le_bytes([s[12], s[13], s[14], s[15]]);
        c = fold_word(w0, 12) ^ fold_word(w1, 8) ^ fold_word(w2, 4) ^ fold_word(w3, 0);
    }
    for &b in tail {
        c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The PCLMULQDQ folding kernel: the "fold by 4 × 128 bits, then
/// Barrett-reduce" scheme of Intel's "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction" (2009), for reflected CRCs.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::{crc32_table, POLY};
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// `x^n mod P(x)` in the usual (most significant bit first) order.
    const fn xpow_mod(n: u32) -> u32 {
        let poly = (POLY.reverse_bits() as u64) | 1 << 32;
        let mut r = 1u64;
        let mut i = 0;
        while i < n {
            r <<= 1;
            if r >> 32 != 0 {
                r ^= poly;
            }
            i += 1;
        }
        r as u32
    }

    /// A fold key: `x^n mod P(x)`, bit-reflected and shifted left by 1, the
    /// form a reflected carry-less multiply takes it in.
    const fn fold_key(n: u32) -> u64 {
        (xpow_mod(n).reverse_bits() as u64) << 1
    }

    /// The Barrett constant μ = ⌊x^64 / P(x)⌋, bit-reflected over its 33 bits.
    const fn barrett_mu() -> u64 {
        let poly = (POLY.reverse_bits() as u128) | 1 << 32;
        let mut r = 1u128 << 64;
        let mut q = 0u64;
        while r >> 32 != 0 {
            let shift = 127 - r.leading_zeros() - 32;
            q |= 1 << shift;
            r ^= poly << shift;
        }
        q.reverse_bits() >> 31
    }

    /// Carry-less-multiply fold keys: K1/K2 fold a 128-bit lane 512 bits
    /// ahead (four lanes at once), K3/K4 128 bits ahead (one lane), K5 folds
    /// 64 bits to 32.
    pub(super) const K1: u64 = fold_key(4 * 128 + 32);
    pub(super) const K2: u64 = fold_key(4 * 128 - 32);
    pub(super) const K3: u64 = fold_key(128 + 32);
    pub(super) const K4: u64 = fold_key(128 - 32);
    pub(super) const K5: u64 = fold_key(64);
    /// Barrett reduction constants: μ and the reflected polynomial with its
    /// `x^32` term, `P'`.
    pub(super) const MU: u64 = barrett_mu();
    pub(super) const POLY_33: u64 = (POLY as u64) << 1 | 1;

    /// Inputs shorter than this go to the table kernel: the fold needs
    /// four 16-byte lanes to start.
    const MIN_LEN: usize = 64;

    /// [`fold`] over `data` from register `c`, or `None` when this CPU
    /// lacks carry-less multiply or SSE4.1.
    pub(super) fn fold_if_supported(c: u32, data: &[u8]) -> Option<u32> {
        if !(is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")) {
            return None;
        }
        // SAFETY: `fold` is only unsafe to call because it enables the
        // `pclmulqdq` and `sse4.1` target features, and both were detected
        // on this CPU just above. It takes no pointers: every load is a
        // bounds-checked slice read.
        #[allow(unsafe_code)]
        Some(unsafe { fold(c, data) })
    }

    /// The CRC register after `data`, from register `c` (not inverted on
    /// entry or exit), the same value [`crc32_table`] returns.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(c: u32, data: &[u8]) -> u32 {
        if data.len() < MIN_LEN {
            return crc32_table(c, data);
        }
        let (lanes, tail) = data.as_chunks::<16>();
        let (first, rest) = lanes.split_at(4);
        let mut x = [load(&first[0]), load(&first[1]), load(&first[2]), load(&first[3])];
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(c as i32));

        // Fold four lanes at once, 64 bytes per step.
        let (quads, singles) = rest.as_chunks::<4>();
        let k1k2 = _mm_set_epi64x(K2 as i64, K1 as i64);
        for q in quads {
            for (x, lane) in x.iter_mut().zip(q) {
                *x = fold_lane(*x, load(lane), k1k2);
            }
        }

        // Fold the four into one, then the remaining 16-byte lanes.
        let k3k4 = _mm_set_epi64x(K4 as i64, K3 as i64);
        let mut acc = fold_lane(x[0], x[1], k3k4);
        acc = fold_lane(acc, x[2], k3k4);
        acc = fold_lane(acc, x[3], k3k4);
        for lane in singles {
            acc = fold_lane(acc, load(lane), k3k4);
        }

        // 128 bits to 64, then to 32 with K5.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let acc = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(acc, k3k4), _mm_srli_si128::<8>(acc));
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5 as i64)),
            _mm_srli_si128::<4>(acc),
        );

        // Barrett reduction to the 32-bit register: T1 = (R mod x^32)·μ,
        // T2 = (T1 mod x^32)·P, and the register is the upper half of R ^ T2
        // (the reflected variant).
        let mu_poly = _mm_set_epi64x(MU as i64, POLY_33 as i64);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), mu_poly);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), mu_poly);
        let c = _mm_extract_epi32::<1>(_mm_xor_si128(acc, t2)) as u32;

        crc32_table(c, tail)
    }

    /// `next ^ acc.lo · keys.lo ^ acc.hi · keys.hi`: carries lane `acc`
    /// forward onto `next` by the distance `keys` encodes.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold_lane(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, keys);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// One 16-byte lane, little-endian, without a pointer load.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn load(lane: &[u8; 16]) -> __m128i {
        let v = u128::from_le_bytes(*lane);
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }
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
#[derive(Debug, Clone, PartialEq, Eq)]
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

    /// The byte-at-a-time loop, the reference for both kernels: the CRC
    /// register after `data`, from `c`.
    fn crc32_reference(mut c: u32, data: &[u8]) -> u32 {
        for &b in data {
            c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c
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

    /// A kernel over the CRC register, with its name; `None` when this
    /// CPU cannot run it.
    type Kernel = (&'static str, fn(u32, &[u8]) -> Option<u32>);

    /// The table kernel everywhere, and the folding kernel on x86_64.
    fn kernels() -> Vec<Kernel> {
        #[allow(unused_mut)]
        let mut kernels: Vec<Kernel> = vec![("crc32_table", |c, data| Some(crc32_table(c, data)))];
        #[cfg(target_arch = "x86_64")]
        kernels.push(("clmul::fold", clmul::fold_if_supported));
        kernels
    }

    /// `kernel` over `data` from register `c` equals the bytewise
    /// reference (a kernel this CPU cannot run passes).
    fn check((name, kernel): Kernel, c: u32, data: &[u8]) {
        if let Some(got) = kernel(c, data) {
            let want = crc32_reference(c, data);
            assert_eq!(got, want, "{name} from {c:#010x}, len {}", data.len());
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_keys_are_the_published_constants() {
        use clmul::{K1, K2, K3, K4, K5, MU, POLY_33};
        assert_eq!(K1, 0x1_5444_2bd4);
        assert_eq!(K2, 0x1_c6e4_1596);
        assert_eq!(K3, 0x1_7519_97d0);
        assert_eq!(K4, 0x0_ccaa_009e);
        assert_eq!(K5, 0x1_63cd_6124);
        assert_eq!(MU, 0x1_F701_1641);
        assert_eq!(POLY_33, 0x1_DB71_0641);
    }

    /// Every length 0..=300 — across the folding kernel's 64-byte entry,
    /// every count of 16-byte lanes after a whole 64-byte step and every
    /// tail — from an unaligned start, from the initial register and from
    /// a register mid-stream (chaining).
    #[test]
    fn kernels_match_the_reference_at_every_short_length() {
        let buf = random_bytes(11, 301 + 16);
        for kernel in kernels() {
            for lead in [0, 1, 7] {
                for len in 0..=300 {
                    for c in [!0, 0, 0x1234_5678] {
                        check(kernel, c, &buf[lead..lead + len]);
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Each kernel equals the bytewise reference on random buffers of
        /// 0..=70 000 bytes from an unaligned offset and an arbitrary
        /// starting register, and `crc32` equals it from the initial one.
        #[test]
        fn kernels_match_the_bytewise_reference(
            len in 0usize..=70_000,
            lead in 0usize..LANES,
            c in any::<u32>(),
            seed in any::<u64>(),
        ) {
            let buf = random_bytes(seed, lead + len);
            let sub = &buf[lead..];
            for kernel in kernels() {
                check(kernel, c, sub);
                check(kernel, !0, sub);
            }
            prop_assert_eq!(crc32(sub), !crc32_reference(!0, sub), "len {} lead {}", len, lead);
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
