//! Cache inspector: a point-in-time view of the tiered store (à la an
//! edge cache's inspector endpoint).
//!
//! [`crate::CacheManager::inspect`] assembles a [`CacheInspection`]:
//! per-node per-tier occupancy plus the spill/promote/admission/warm
//! -restart tallies. `render()` produces the text the EXPLAIN
//! `cache tiers:` block and the service debug surface print.

use crate::evict::EvictionKind;

/// Occupancy of one tier on one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierInspection {
    /// Cache-node index.
    pub node: usize,
    /// Tier label: "dram" or "nvme".
    pub tier: String,
    /// Configured capacity in bytes.
    pub capacity_bytes: u64,
    /// Bytes resident.
    pub occupied_bytes: u64,
    /// Resident entry count.
    pub entries: u64,
    /// Entries retained across a restart and not yet re-verified.
    pub unverified: u64,
    /// Eviction victims popped over the store's lifetime.
    pub victim_pops: u64,
}

/// A full cache-tier snapshot: occupancy plus movement counters.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheInspection {
    /// Eviction policy in force.
    pub eviction: EvictionKind,
    /// Per-node per-tier occupancy, DRAM rows first, node order within.
    pub tiers: Vec<TierInspection>,
    /// Tier hits: local DRAM, remote DRAM, local NVMe, remote NVMe.
    pub hits: [u64; 4],
    /// Backing-store fetches.
    pub backing_fetches: u64,
    /// Total misses (nowhere, not even backing).
    pub misses: u64,
    /// DRAM→NVMe spills.
    pub spills: u64,
    /// NVMe→DRAM promotes on reuse.
    pub promotes: u64,
    /// Spills skipped because the admission filter called the victim a
    /// one-hit wonder under NVMe pressure.
    pub admission_rejects: u64,
    /// NVMe entries retained across node restarts (warm restart).
    pub warm_retained: u64,
    /// Retained entries re-verified so far (lazy CRC check or scrub).
    pub warm_verified: u64,
}

impl CacheInspection {
    /// Cache hit rate over accesses that found the object somewhere.
    pub fn hit_rate(&self) -> f64 {
        let hits: u64 = self.hits.iter().sum();
        let total = hits + self.backing_fetches;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Total bytes resident in tiers labelled `tier`.
    pub fn occupied(&self, tier: &str) -> u64 {
        self.tiers.iter().filter(|t| t.tier == tier).map(|t| t.occupied_bytes).sum()
    }

    /// Human-readable multi-line summary (EXPLAIN / debug surface).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("eviction policy: {}\n", self.eviction.label()));
        for t in &self.tiers {
            let pct = if t.capacity_bytes == 0 {
                0.0
            } else {
                t.occupied_bytes as f64 / t.capacity_bytes as f64 * 100.0
            };
            out.push_str(&format!(
                "node {} {}: {}/{} bytes ({pct:.0}%), {} entries",
                t.node, t.tier, t.occupied_bytes, t.capacity_bytes, t.entries
            ));
            if t.unverified > 0 {
                out.push_str(&format!(", {} awaiting re-verification", t.unverified));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "hits: {} local-dram, {} remote-dram, {} local-nvme, {} remote-nvme, \
             {} backing, {} misses ({:.1}% hit rate)\n",
            self.hits[0],
            self.hits[1],
            self.hits[2],
            self.hits[3],
            self.backing_fetches,
            self.misses,
            self.hit_rate() * 100.0
        ));
        out.push_str(&format!(
            "movement: {} spills, {} promotes, {} admission rejects\n",
            self.spills, self.promotes, self.admission_rejects
        ));
        if self.warm_retained > 0 {
            out.push_str(&format!(
                "warm restart: {} entries retained, {} re-verified\n",
                self.warm_retained, self.warm_verified
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CacheInspection {
        CacheInspection {
            eviction: EvictionKind::S3Fifo,
            tiers: vec![
                TierInspection {
                    node: 0,
                    tier: "dram".into(),
                    capacity_bytes: 1000,
                    occupied_bytes: 600,
                    entries: 3,
                    unverified: 0,
                    victim_pops: 2,
                },
                TierInspection {
                    node: 0,
                    tier: "nvme".into(),
                    capacity_bytes: 4000,
                    occupied_bytes: 2000,
                    entries: 5,
                    unverified: 4,
                    victim_pops: 0,
                },
            ],
            hits: [6, 1, 2, 0],
            backing_fetches: 1,
            misses: 2,
            spills: 4,
            promotes: 2,
            admission_rejects: 1,
            warm_retained: 4,
            warm_verified: 1,
        }
    }

    #[test]
    fn render_summarizes_tiers_and_movement() {
        let text = sample().render();
        assert!(text.contains("eviction policy: s3fifo"), "{text}");
        assert!(text.contains("node 0 dram: 600/1000 bytes (60%), 3 entries"), "{text}");
        assert!(text.contains("4 awaiting re-verification"), "{text}");
        assert!(text.contains("4 spills, 2 promotes, 1 admission rejects"), "{text}");
        assert!(text.contains("warm restart: 4 entries retained, 1 re-verified"), "{text}");
    }

    #[test]
    fn hit_rate_and_occupancy_aggregate() {
        let i = sample();
        assert!((i.hit_rate() - 9.0 / 10.0).abs() < 1e-12);
        assert_eq!(i.occupied("dram"), 600);
        assert_eq!(i.occupied("nvme"), 2000);
    }
}
