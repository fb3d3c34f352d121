//! Cluster topology: nodes × ranks-per-node, and the rank↔node mapping.
//!
//! The paper's scaling runs use 64, 128, and 256 nodes with 32 ranks per
//! node (2048 / 4096 / 8192 total ranks); the cache testbed is a 52-node
//! cluster. [`Topology`] captures exactly that shape.

/// Identifier of a virtual MPI rank, dense in `0..topology.total_ranks()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RankId(pub u32);

/// Identifier of a physical (simulated) compute node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl RankId {
    /// The rank's index as a usize, for indexing per-rank arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl NodeId {
    /// The node's index as a usize.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for RankId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank{}", self.0)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Shape of the simulated cluster.
///
/// Ranks are assigned to nodes in blocks: ranks `[n*rpn, (n+1)*rpn)` live on
/// node `n`, matching the usual `mpirun --map-by node`-style block layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    nodes: u32,
    ranks_per_node: u32,
}

impl Topology {
    /// Create a topology of `nodes` nodes with `ranks_per_node` ranks each.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(nodes: u32, ranks_per_node: u32) -> Self {
        assert!(nodes > 0, "topology needs at least one node");
        assert!(ranks_per_node > 0, "topology needs at least one rank per node");
        Self { nodes, ranks_per_node }
    }

    /// The paper's scaling configuration: `nodes` × 32 ranks.
    pub fn cray_ex(nodes: u32) -> Self {
        Self::new(nodes, 32)
    }

    /// A single-node "laptop" topology, as in the paper's container story.
    pub fn laptop(ranks: u32) -> Self {
        Self::new(1, ranks)
    }

    /// Number of nodes.
    #[inline]
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Ranks hosted on each node.
    #[inline]
    pub fn ranks_per_node(&self) -> u32 {
        self.ranks_per_node
    }

    /// Total number of ranks in the job.
    #[inline]
    pub fn total_ranks(&self) -> u32 {
        self.nodes * self.ranks_per_node
    }

    /// The node hosting `rank`.
    #[inline]
    pub fn node_of(&self, rank: RankId) -> NodeId {
        debug_assert!(rank.0 < self.total_ranks());
        NodeId(rank.0 / self.ranks_per_node)
    }

    /// The rank's index within its node (`0..ranks_per_node`).
    #[inline]
    pub fn local_index(&self, rank: RankId) -> u32 {
        rank.0 % self.ranks_per_node
    }

    /// Whether two ranks share a node (intra-node communication).
    #[inline]
    pub fn same_node(&self, a: RankId, b: RankId) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// Iterate over all rank ids.
    pub fn ranks(&self) -> impl Iterator<Item = RankId> {
        (0..self.total_ranks()).map(RankId)
    }

    /// Iterate over the ranks hosted on `node`.
    pub fn ranks_on(&self, node: NodeId) -> impl Iterator<Item = RankId> {
        let rpn = self.ranks_per_node;
        let base = node.0 * rpn;
        (base..base + rpn).map(RankId)
    }

    /// The rank that owns a hashed key under the standard modulo placement
    /// used by the triple store and cache to shard data.
    #[inline]
    pub fn owner_of_hash(&self, hash: u64) -> RankId {
        RankId((hash % self.total_ranks() as u64) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_mapping_matches_paper_shape() {
        let t = Topology::cray_ex(64);
        assert_eq!(t.total_ranks(), 2048);
        assert_eq!(t.node_of(RankId(0)), NodeId(0));
        assert_eq!(t.node_of(RankId(31)), NodeId(0));
        assert_eq!(t.node_of(RankId(32)), NodeId(1));
        assert_eq!(t.node_of(RankId(2047)), NodeId(63));
    }

    #[test]
    fn scaling_configs() {
        assert_eq!(Topology::cray_ex(128).total_ranks(), 4096);
        assert_eq!(Topology::cray_ex(256).total_ranks(), 8192);
    }

    #[test]
    fn local_index_wraps_per_node() {
        let t = Topology::new(4, 8);
        assert_eq!(t.local_index(RankId(0)), 0);
        assert_eq!(t.local_index(RankId(7)), 7);
        assert_eq!(t.local_index(RankId(8)), 0);
        assert_eq!(t.local_index(RankId(31)), 7);
    }

    #[test]
    fn ranks_on_node_are_contiguous() {
        let t = Topology::new(3, 4);
        let ranks: Vec<_> = t.ranks_on(NodeId(1)).collect();
        assert_eq!(ranks, vec![RankId(4), RankId(5), RankId(6), RankId(7)]);
    }

    #[test]
    fn same_node_detection() {
        let t = Topology::new(2, 2);
        assert!(t.same_node(RankId(0), RankId(1)));
        assert!(!t.same_node(RankId(1), RankId(2)));
    }

    #[test]
    fn owner_of_hash_is_in_range() {
        let t = Topology::new(5, 3);
        for h in [0u64, 1, 14, 15, 16, u64::MAX] {
            assert!(t.owner_of_hash(h).0 < t.total_ranks());
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        Topology::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "at least one rank per node")]
    fn zero_rpn_rejected() {
        Topology::new(4, 0);
    }
}
