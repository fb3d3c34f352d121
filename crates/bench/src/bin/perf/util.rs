//! Generators and small statistics the benchmark owns outright, so that a
//! change to the program's helpers cannot change the benchmark's inputs
//! or the way its numbers are summarised.

/// SplitMix64: the benchmark's only randomness source, seeded from
/// `--seed` and a per-purpose stream id.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..bound` (`bound` > 0; the modulo bias at these sizes
    /// is far below anything the workloads can see).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Zipf sampler over ranks `0..n`: weight(r) = 1 / (r + 1)^s.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// 64-bit FNV-1a over a stream of words.
pub fn fnv_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// 64-bit FNV-1a over bytes.
pub fn fnv_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Order-independent digest of a set of row hashes: wrapping sum, with
/// the row count folded in so an empty set differs from "no answer".
pub fn unordered_digest(row_hashes: impl IntoIterator<Item = u64>) -> u64 {
    let mut sum = 0u64;
    let mut n = 0u64;
    for h in row_hashes {
        sum = sum.wrapping_add(h);
        n += 1;
    }
    sum ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Nearest-rank percentile of an ascending slice (`p` in `(0, 1]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Ascending copy (total order, so NaN cannot panic the sort).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median as the mean of the two middle samples for even counts.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Time the host-speed kernel should take on a quiet seed host (2-core
/// Xeon @ 2.1 GHz microVM): the divisor that turns a probe into a factor.
const PROBE_NOMINAL_NS: f64 = 450_000.0;

/// Samples how fast the host runs allocation- and hash-heavy code *right
/// now*, by timing a fixed piece of exactly that work between operations.
///
/// Why: on the shared hosts this runs on, neighbours slow such code by up
/// to 1.7x for minutes at a time while leaving compute-bound code within
/// a few percent (README, "Host noise"). Every workload here is partly
/// made of that kind of code, so its wall numbers are divided by
/// [`HostProbe::factor`], which brings the run-to-run spread from 15–40 %
/// down to 4–10 %. Raw numbers are printed beside the normalised ones.
#[derive(Default)]
pub struct HostProbe {
    samples_ns: Vec<f64>,
}

impl HostProbe {
    /// Build, query and drop a map of 3000 one-word keys: small
    /// allocations, SipHash, pointer chasing.
    pub fn sample(&mut self) {
        let t = std::time::Instant::now();
        let base = self.samples_ns.len() as u64;
        let key = |i: u64| vec![base.wrapping_add(i.wrapping_mul(0x9E37_79B9))];
        let mut map: std::collections::HashMap<Vec<u64>, Vec<usize>> = Default::default();
        for i in 0..3000u64 {
            map.entry(key(i)).or_default().push(i as usize);
        }
        let found = (0..3000u64).filter(|&i| map.contains_key(&key(i))).count();
        std::hint::black_box((found, &map));
        drop(map);
        self.samples_ns.push(t.elapsed().as_nanos() as f64);
    }

    /// Seconds spent probing so far (kept out of throughput).
    pub fn total_secs(&self) -> f64 {
        self.samples_ns.iter().sum::<f64>() / 1e9
    }

    /// Median probe time over nominal: 1.0 on a quiet seed host.
    pub fn slowdown(&self) -> f64 {
        if self.samples_ns.is_empty() {
            1.0
        } else {
            median(&self.samples_ns) / PROBE_NOMINAL_NS
        }
    }

    /// What to divide a wall time by, for a workload that spends
    /// `alloc_share` of its time in code that slows with the probe and
    /// the rest in code that does not.
    pub fn factor(&self, alloc_share: f64) -> f64 {
        1.0 + alloc_share * (self.slowdown() - 1.0)
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB. Zero where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_repeat_and_summaries_are_exact() {
        let draw = |seed| {
            let mut r = Rng::new(seed, 3);
            let z = Zipf::new(100, 1.1);
            (0..50).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert!(draw(7).iter().all(|&r| r < 100));
        assert!(draw(7).iter().filter(|&&r| r < 10).count() > 20, "head is popular");

        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.5), 2.0);
        assert_eq!(percentile(&s, 0.99), 4.0);
        assert_eq!(median(&s), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);

        assert_eq!(unordered_digest([1, 2, 3]), unordered_digest([3, 1, 2]));
        assert_ne!(unordered_digest([1, 2, 3]), unordered_digest([1, 2]));
        assert!(peak_rss_mb() > 0.0);
    }
}
