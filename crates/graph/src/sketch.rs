//! KMV (k-minimum-values) distinct-value sketches over [`TermId`]s.
//!
//! The planner's join-cardinality model needs the number of distinct
//! values (NDV) each triple-pattern position can take — exact counting
//! per predicate per position would cost a hash set per series, so the
//! statistics layer keeps a bottom-k sketch instead: hash every observed
//! id with a fixed seed and remember only the `k` smallest hashes. With
//! the hashes treated as points in `[0, 1)`, the k-th smallest value `v`
//! estimates the distinct count as `(k − 1) / v` — the classic KMV
//! estimator. Duplicates hash identically, so re-observing a value never
//! moves the estimate; the sketch is insertion-order independent and two
//! sketches built from the same value set are bit-identical, which keeps
//! planning deterministic across shard scan orders.

use crate::term::TermId;

/// Default number of minima kept per sketch. 64 gives ~12% standard
/// error (1/√(k−2)) — plenty for join ordering, where estimates only
/// need to rank orders, not price them exactly.
pub const DEFAULT_SKETCH_K: usize = 64;

/// A bottom-k distinct-value sketch.
#[derive(Debug, Clone)]
pub struct KmvSketch {
    k: usize,
    /// The `k` smallest hashes seen, sorted ascending. Kept exact (no
    /// tombstones): insertion is O(log k) search + O(k) shift, fine for
    /// the one-shot statistics scan.
    minima: Vec<u64>,
    /// Values observed while `minima` was still below capacity are
    /// counted exactly (every distinct hash is present), so small
    /// domains report exact NDVs.
    exact: bool,
}

impl Default for KmvSketch {
    fn default() -> Self {
        Self::new(DEFAULT_SKETCH_K)
    }
}

/// 64-bit finalizer (splitmix64's mixing function) — decorrelates the
/// dense dictionary ids, which would otherwise all land in the bottom of
/// the hash space and wreck the order statistics.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl KmvSketch {
    /// An empty sketch keeping `k` minima (`k` ≥ 2 enforced — the
    /// estimator divides by `k − 1`).
    pub fn new(k: usize) -> Self {
        Self { k: k.max(2), minima: Vec::new(), exact: true }
    }

    /// Observe one value.
    pub fn observe(&mut self, id: TermId) {
        let h = mix(id.raw());
        match self.minima.binary_search(&h) {
            Ok(_) => {} // duplicate value: sketch unchanged
            Err(pos) => {
                if self.minima.len() < self.k {
                    self.minima.insert(pos, h);
                } else if pos < self.k {
                    self.minima.insert(pos, h);
                    self.minima.pop();
                    self.exact = false;
                } else {
                    self.exact = false;
                }
            }
        }
    }

    /// Merge another sketch built with the same `k` (union semantics:
    /// the merged sketch estimates the NDV of the combined value set).
    pub fn merge(&mut self, other: &KmvSketch) {
        for &h in &other.minima {
            match self.minima.binary_search(&h) {
                Ok(_) => {}
                Err(pos) => {
                    if self.minima.len() < self.k {
                        self.minima.insert(pos, h);
                    } else if pos < self.k {
                        self.minima.insert(pos, h);
                        self.minima.pop();
                        self.exact = false;
                    } else {
                        self.exact = false;
                    }
                }
            }
        }
        if !other.exact {
            self.exact = false;
        }
    }

    /// Estimated number of distinct values observed. Exact while fewer
    /// than `k` distinct values have been seen.
    pub fn estimate(&self) -> f64 {
        if self.exact || self.minima.len() < self.k {
            return self.minima.len() as f64;
        }
        // k-th minimum as a fraction of the hash space; guard the
        // (cryptographically unlucky) all-zero corner.
        let kth = self.minima[self.k - 1] as f64 / (u64::MAX as f64);
        if kth <= 0.0 {
            return self.minima.len() as f64;
        }
        ((self.k - 1) as f64 / kth).max(self.minima.len() as f64)
    }

    /// Has anything been observed?
    pub fn is_empty(&self) -> bool {
        self.minima.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_domains_are_exact() {
        let mut s = KmvSketch::new(64);
        for i in 0..40u64 {
            for _ in 0..5 {
                s.observe(TermId(i));
            }
        }
        assert_eq!(s.estimate(), 40.0, "below k the sketch counts exactly");
    }

    #[test]
    fn large_domains_estimate_within_tolerance() {
        // k = 64 gives ~12.7% standard error (1/√(k−2)); any single
        // domain can legitimately land near 3σ, so bound each draw at
        // 40% and the mean across several id layouts at ~1σ.
        let n = 20_000u64;
        let mut errs = Vec::new();
        for stride in [1u64, 13, 101, 1009, 7919, 104_729] {
            let mut s = KmvSketch::new(64);
            for i in 0..n {
                s.observe(TermId(i * stride)); // ids need not be dense
            }
            let est = s.estimate();
            let err = (est - n as f64).abs() / n as f64;
            assert!(err < 0.40, "KMV estimate {est} off by {:.0}% from {n}", err * 100.0);
            errs.push(err);
        }
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(mean < 0.15, "mean KMV error {:.1}% exceeds ~1σ", mean * 100.0);
    }

    #[test]
    fn duplicates_never_move_the_estimate() {
        let mut once = KmvSketch::new(16);
        let mut thrice = KmvSketch::new(16);
        for i in 0..1000u64 {
            once.observe(TermId(i));
            for _ in 0..3 {
                thrice.observe(TermId(i));
            }
        }
        assert_eq!(once.estimate(), thrice.estimate());
    }

    #[test]
    fn insertion_order_independent() {
        let mut fwd = KmvSketch::new(32);
        let mut rev = KmvSketch::new(32);
        for i in 0..5000u64 {
            fwd.observe(TermId(i));
            rev.observe(TermId(4999 - i));
        }
        assert_eq!(fwd.estimate(), rev.estimate());
    }

    #[test]
    fn merge_is_union() {
        let mut a = KmvSketch::new(64);
        let mut b = KmvSketch::new(64);
        let mut both = KmvSketch::new(64);
        for i in 0..30u64 {
            a.observe(TermId(i));
            both.observe(TermId(i));
        }
        for i in 20..50u64 {
            b.observe(TermId(i));
            both.observe(TermId(i));
        }
        a.merge(&b);
        assert_eq!(a.estimate(), both.estimate());
        assert_eq!(a.estimate(), 50.0);
    }
}
