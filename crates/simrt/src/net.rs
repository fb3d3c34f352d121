//! α–β network cost model with intra-/inter-node asymmetry.
//!
//! Point-to-point transfer of `n` bytes costs `α + n/β` where α is the
//! one-way latency and β the link bandwidth. Collectives are costed with
//! standard log-P tree formulas. Defaults approximate the paper's testbed:
//! Slingshot at 25 GB/s per the 52-node cache cluster description, with a
//! ~2 µs inter-node MPI latency, and much faster shared-memory transfers
//! inside a node.

use crate::topology::{RankId, Topology};

/// Network cost parameters for the simulated fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// One-way latency between ranks on different nodes (seconds).
    pub inter_latency: f64,
    /// Bandwidth between nodes (bytes/second).
    pub inter_bandwidth: f64,
    /// One-way latency between ranks sharing a node (seconds).
    pub intra_latency: f64,
    /// Bandwidth within a node, via shared memory (bytes/second).
    pub intra_bandwidth: f64,
}

impl Default for NetworkModel {
    fn default() -> Self {
        Self::slingshot()
    }
}

impl NetworkModel {
    /// Slingshot-like defaults: 2 µs / 25 GB/s inter-node, 200 ns / 80 GB/s
    /// intra-node (POSIX shared memory path the paper's CGE port uses).
    pub fn slingshot() -> Self {
        Self {
            inter_latency: 2.0e-6,
            inter_bandwidth: 25.0e9,
            intra_latency: 2.0e-7,
            intra_bandwidth: 80.0e9,
        }
    }

    /// An idealized zero-cost network, useful to isolate compute effects in
    /// ablations.
    pub fn ideal() -> Self {
        Self {
            inter_latency: 0.0,
            inter_bandwidth: f64::INFINITY,
            intra_latency: 0.0,
            intra_bandwidth: f64::INFINITY,
        }
    }

    /// A deliberately slow commodity-Ethernet-like network (50 µs, 1 GB/s)
    /// for sensitivity studies.
    pub fn commodity() -> Self {
        Self {
            inter_latency: 50.0e-6,
            inter_bandwidth: 1.0e9,
            intra_latency: 5.0e-7,
            intra_bandwidth: 40.0e9,
        }
    }

    /// Transfer cost over the inter-node fabric only (no device term):
    /// the network leg of a remote tier access.
    pub fn inter_cost(&self, bytes: u64) -> f64 {
        self.inter_latency + bytes as f64 / self.inter_bandwidth
    }

    /// Cost of moving `bytes` from `src` to `dst` point-to-point.
    pub fn p2p(&self, topo: &Topology, src: RankId, dst: RankId, bytes: u64) -> f64 {
        if src == dst {
            return 0.0;
        }
        if topo.same_node(src, dst) {
            self.intra_latency + bytes as f64 / self.intra_bandwidth
        } else {
            self.inter_latency + bytes as f64 / self.inter_bandwidth
        }
    }

    /// Cost of a barrier over `p` ranks: a dissemination barrier takes
    /// ⌈log2 p⌉ rounds of small inter-node messages.
    pub fn barrier(&self, p: u32) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let rounds = 32 - (p - 1).leading_zeros();
        rounds as f64 * self.inter_latency
    }

    /// Cost of an allreduce of `bytes` over `p` ranks
    /// (recursive-doubling: log2 p rounds, each moving `bytes`).
    pub fn allreduce(&self, p: u32, bytes: u64) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let rounds = (32 - (p - 1).leading_zeros()) as f64;
        rounds * (self.inter_latency + bytes as f64 / self.inter_bandwidth)
    }

    /// Cost of an allgather where each of `p` ranks contributes
    /// `bytes_per_rank` (ring algorithm: p−1 steps, each moving one block).
    pub fn allgather(&self, p: u32, bytes_per_rank: u64) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        (p - 1) as f64 * (self.inter_latency + bytes_per_rank as f64 / self.inter_bandwidth)
    }

    /// Cost of a personalized all-to-all exchange where the heaviest rank
    /// sends `max_send_bytes` in total. The fabric is modelled as
    /// non-blocking, so the exchange is bound by the most-loaded endpoint
    /// plus a latency term for message count.
    pub fn alltoallv(&self, p: u32, max_send_bytes: u64) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let rounds = (32 - (p - 1).leading_zeros()) as f64;
        rounds * self.inter_latency + max_send_bytes as f64 / self.inter_bandwidth
    }
}

/// Per-tier storage-device cost parameters for the nodes of the
/// simulated cluster: DRAM and locally attached NVMe, each an α–β
/// (latency + bytes/bandwidth) model like the fabric. The cache manager
/// charges these on every tier hit, spill, and promote; a remote access
/// additionally pays the [`NetworkModel`] inter-node leg.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceModel {
    /// DRAM access latency (seconds).
    pub dram_latency: f64,
    /// DRAM bandwidth (bytes/second).
    pub dram_bandwidth: f64,
    /// NVMe access latency (seconds).
    pub nvme_latency: f64,
    /// NVMe bandwidth (bytes/second).
    pub nvme_bandwidth: f64,
}

impl DeviceModel {
    /// Testbed-like defaults matching the paper's cache cluster: DRAM at
    /// 200 ns / 80 GB/s (the shared-memory path), NVMe at 100 µs / 3 GB/s
    /// (datacenter TLC flash).
    pub const fn testbed() -> Self {
        Self {
            dram_latency: 2.0e-7,
            dram_bandwidth: 80.0e9,
            nvme_latency: 1.0e-4,
            nvme_bandwidth: 3.0e9,
        }
    }

    /// Cost of reading or writing `bytes` in DRAM.
    pub fn dram_cost(&self, bytes: u64) -> f64 {
        self.dram_latency + bytes as f64 / self.dram_bandwidth
    }

    /// Cost of reading or writing `bytes` on the local NVMe device.
    pub fn nvme_cost(&self, bytes: u64) -> f64 {
        self.nvme_latency + bytes as f64 / self.nvme_bandwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_tiers_are_ordered() {
        let d = DeviceModel::testbed();
        let b = 1 << 20;
        assert!(d.dram_cost(b) < d.nvme_cost(b), "DRAM must beat NVMe");
        let n = NetworkModel::slingshot();
        assert!(
            d.dram_cost(b) + n.inter_cost(b) < d.nvme_cost(b),
            "remote DRAM must beat local NVMe on the testbed numbers"
        );
    }

    #[test]
    fn p2p_self_is_free() {
        let t = Topology::new(2, 2);
        let n = NetworkModel::slingshot();
        assert_eq!(n.p2p(&t, RankId(1), RankId(1), 1 << 20), 0.0);
    }

    #[test]
    fn intra_node_is_cheaper() {
        let t = Topology::new(2, 2);
        let n = NetworkModel::slingshot();
        let intra = n.p2p(&t, RankId(0), RankId(1), 1 << 20);
        let inter = n.p2p(&t, RankId(1), RankId(2), 1 << 20);
        assert!(intra < inter, "intra {intra} should beat inter {inter}");
    }

    #[test]
    fn barrier_scales_logarithmically() {
        let n = NetworkModel::slingshot();
        assert_eq!(n.barrier(1), 0.0);
        let b2048 = n.barrier(2048);
        let b8192 = n.barrier(8192);
        assert!(b8192 > b2048);
        // log2(8192)=13 rounds vs log2(2048)=11 rounds.
        assert!((b8192 / b2048 - 13.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn ideal_network_is_free() {
        let n = NetworkModel::ideal();
        assert_eq!(n.allreduce(4096, 1 << 30), 0.0);
        assert_eq!(n.alltoallv(4096, 1 << 30), 0.0);
    }

    #[test]
    fn bigger_payload_costs_more() {
        let n = NetworkModel::slingshot();
        assert!(n.allgather(64, 1 << 20) > n.allgather(64, 1 << 10));
        assert!(n.alltoallv(64, 1 << 20) > n.alltoallv(64, 1 << 10));
    }

    #[test]
    fn single_rank_collectives_are_free() {
        let n = NetworkModel::slingshot();
        assert_eq!(n.allreduce(1, 1 << 20), 0.0);
        assert_eq!(n.allgather(1, 1 << 20), 0.0);
        assert_eq!(n.alltoallv(1, 1 << 20), 0.0);
    }
}
