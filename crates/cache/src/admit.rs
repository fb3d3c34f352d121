//! Frequency-sketch admission control (the TinyLFU gate).
//!
//! A count-min sketch with 4 rows of saturating 8-bit counters estimates
//! how often each object name has been touched recently. The cache
//! manager records every lookup and store into one global sketch and
//! uses it two ways:
//!
//! * **NVMe admission** — a DRAM victim whose estimated frequency is
//!   below [`FrequencySketch::ADMIT_THRESHOLD`] is a one-hit wonder;
//!   when the NVMe tier is under pressure the spill is skipped and the
//!   victim dropped (the backing store stays authoritative), keeping
//!   scan traffic from churning the disk tier.
//! * **TinyLFU eviction** — a DRAM insert under pressure only displaces
//!   the LRU victim when the candidate's estimate is strictly higher
//!   than the victim's.
//!
//! Counters age by periodic halving: after `16 × width` recorded events
//! every counter is divided by two, so the sketch tracks *recent*
//! popularity rather than all-time counts. Hashing is deterministic
//! (FNV-1a seeded per row through a SplitMix64 finalizer), so identical
//! op sequences produce identical admission decisions — a requirement
//! for the chaos-parity tests.

/// Count-min frequency sketch with aging.
#[derive(Debug, Clone)]
pub struct FrequencySketch {
    rows: [Vec<u8>; 4],
    mask: u64,
    events: u64,
    sample_period: u64,
}

impl Default for FrequencySketch {
    fn default() -> Self {
        Self::new(1024)
    }
}

impl FrequencySketch {
    /// Estimates at or above this are "reused"; below is a one-hit wonder.
    pub const ADMIT_THRESHOLD: u8 = 2;

    /// Build a sketch with `width` counters per row (rounded up to a
    /// power of two, minimum 16).
    pub fn new(width: usize) -> Self {
        let width = width.max(16).next_power_of_two();
        Self {
            rows: std::array::from_fn(|_| vec![0u8; width]),
            mask: (width - 1) as u64,
            events: 0,
            sample_period: 16 * width as u64,
        }
    }

    fn index(&self, name: &str, row: usize) -> usize {
        // FNV-1a over the bytes, then a SplitMix64 finalizer salted per
        // row so the four rows hash independently.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        let mut z = h.wrapping_add(0x9e3779b97f4a7c15u64.wrapping_mul(row as u64 + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        (z & self.mask) as usize
    }

    /// Record one access of `name`, aging the sketch when the sample
    /// period elapses.
    pub fn record(&mut self, name: &str) {
        for row in 0..self.rows.len() {
            let i = self.index(name, row);
            let c = &mut self.rows[row][i];
            *c = c.saturating_add(1);
        }
        self.events += 1;
        if self.events >= self.sample_period {
            self.age();
        }
    }

    /// Estimated recent access count of `name` (count-min: the minimum
    /// across rows bounds the true count from above).
    pub fn estimate(&self, name: &str) -> u8 {
        (0..self.rows.len()).map(|row| self.rows[row][self.index(name, row)]).min().unwrap_or(0)
    }

    /// Is `name` warm enough to be worth NVMe space under pressure?
    pub fn admit(&self, name: &str) -> bool {
        self.estimate(name) >= Self::ADMIT_THRESHOLD
    }

    /// Halve every counter (the aging step).
    fn age(&mut self) {
        for row in &mut self.rows {
            for c in row.iter_mut() {
                *c >>= 1;
            }
        }
        self.events = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_track_recorded_frequency() {
        let mut s = FrequencySketch::new(256);
        for _ in 0..5 {
            s.record("hot");
        }
        s.record("cold");
        assert!(s.estimate("hot") >= 5, "count-min never undercounts");
        assert!(s.estimate("hot") > s.estimate("cold"));
        assert!(s.admit("hot"));
        assert!(!s.admit("never-seen"));
    }

    #[test]
    fn one_hit_wonders_are_rejected() {
        let mut s = FrequencySketch::default();
        s.record("once");
        assert!(!s.admit("once"), "a single touch is below the threshold");
        s.record("once");
        assert!(s.admit("once"));
    }

    #[test]
    fn aging_halves_counters() {
        let mut s = FrequencySketch::new(16);
        for _ in 0..200 {
            s.record("a");
        }
        let before = s.estimate("a");
        // Drive the sample period over with other traffic to force aging.
        for i in 0..(16 * 16) {
            s.record(&format!("filler{i}"));
        }
        assert!(s.estimate("a") < before, "aging decays stale popularity");
    }

    #[test]
    fn determinism_identical_sequences_identical_estimates() {
        let run = || {
            let mut s = FrequencySketch::new(64);
            for i in 0..300u32 {
                s.record(&format!("k{}", i % 7));
            }
            (0..7).map(|i| s.estimate(&format!("k{i}"))).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
