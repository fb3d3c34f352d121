//! Placement policies: which node's tier should cache a new object.
//!
//! "The cache manager dynamically relocates data within the caching layer
//! to optimize proximity to computation, leveraging user-defined hints or
//! operator-defined policies" (§3.2). Three policies are provided; the
//! ablation bench compares them.
//!
//! Every policy is **liveness-aware**: placement only ever picks nodes
//! whose `live` flag is set, so an object is never placed onto a node
//! inside a crash window (its copy would be fenced immediately and lost
//! on recovery). All tie-breaks are deterministic — see each arm — so a
//! seeded chaos run reproduces placements exactly.

use ids_simrt::topology::NodeId;

/// Placement policy for newly cached objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Cache on the node that produced/requested the object — maximizes
    /// the chance the next access is local (the paper's default:
    /// "data is cached locally to the nodes where there is a higher
    /// probability of it being accessed").
    ///
    /// When the requester is not a live cache node (compute-only nodes,
    /// or the requester's cache is inside a crash window), falls back to
    /// [`PlacementPolicy::CapacityWeighted`] — deterministically the
    /// live node with the most free bytes, ties broken to the lowest
    /// node index.
    LocalFirst,
    /// Rotate placements across *live* cache nodes — spreads capacity
    /// use. The rotation index counts placements, so the cycle is
    /// deterministic for a given call sequence even as nodes fail and
    /// recover (the counter keeps advancing; the modulus shrinks to the
    /// live set).
    RoundRobin,
    /// Weight placements by remaining capacity — avoids hot-node
    /// evictions. Ties break to the lowest node index.
    CapacityWeighted,
}

impl PlacementPolicy {
    /// Choose a node for a new object, or `None` when no cache node is
    /// live.
    ///
    /// * `requester` — node asking to cache the object.
    /// * `free_bytes[i]` — remaining DRAM capacity of cache node `i`.
    /// * `live[i]` — whether cache node `i` is currently up; down nodes
    ///   are never chosen.
    /// * `counter` — monotonically increasing placement counter (for
    ///   round-robin).
    pub fn place(
        self,
        requester: NodeId,
        free_bytes: &[u64],
        live: &[bool],
        counter: u64,
    ) -> Option<NodeId> {
        assert!(!free_bytes.is_empty(), "no cache nodes configured");
        assert_eq!(free_bytes.len(), live.len(), "free/live slices must align");
        let live_nodes: Vec<usize> = (0..live.len()).filter(|&i| live[i]).collect();
        if live_nodes.is_empty() {
            return None;
        }
        match self {
            PlacementPolicy::LocalFirst => {
                if requester.index() < live.len() && live[requester.index()] {
                    Some(requester)
                } else {
                    // Requester is not a live cache node (compute-only,
                    // or fenced): fall back to the emptiest live node.
                    PlacementPolicy::CapacityWeighted.place(requester, free_bytes, live, counter)
                }
            }
            PlacementPolicy::RoundRobin => {
                Some(NodeId(live_nodes[(counter % live_nodes.len() as u64) as usize] as u32))
            }
            PlacementPolicy::CapacityWeighted => {
                // Deterministic tie-break: most free bytes, then lowest
                // node index (Reverse(i) inside max_by_key).
                live_nodes
                    .into_iter()
                    .max_by_key(|&i| (free_bytes[i], std::cmp::Reverse(i)))
                    .map(|best| NodeId(best as u32))
            }
        }
    }

    /// Choose a replica set of up to `replication` *distinct live* nodes
    /// for a new object. The primary comes from [`PlacementPolicy::place`];
    /// the remaining slots are filled capacity-weighted over the other
    /// live nodes (most free bytes first, ties to the lowest index), so
    /// replicas spread deterministically.
    ///
    /// Returns fewer than `replication` nodes when fewer live nodes
    /// exist — the caller decides whether an under-replicated write is
    /// acceptable (and should log/meter it).
    pub fn place_replicas(
        self,
        requester: NodeId,
        free_bytes: &[u64],
        live: &[bool],
        counter: u64,
        replication: usize,
    ) -> Vec<NodeId> {
        let Some(primary) = self.place(requester, free_bytes, live, counter) else {
            return Vec::new();
        };
        let mut replicas = vec![primary];
        if replication > 1 {
            let mut rest: Vec<usize> =
                (0..live.len()).filter(|&i| live[i] && i != primary.index()).collect();
            rest.sort_by_key(|&i| (std::cmp::Reverse(free_bytes[i]), i));
            replicas.extend(rest.into_iter().take(replication - 1).map(|i| NodeId(i as u32)));
        }
        replicas.truncate(replication.max(1));
        replicas
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const UP: [bool; 4] = [true; 4];

    #[test]
    fn local_first_prefers_requester() {
        let p = PlacementPolicy::LocalFirst;
        assert_eq!(p.place(NodeId(2), &[100, 100, 100, 100], &UP, 0), Some(NodeId(2)));
    }

    #[test]
    fn local_first_falls_back_for_non_cache_nodes() {
        let p = PlacementPolicy::LocalFirst;
        // Requester node 9 doesn't host a cache tier (index >= len):
        // choose the emptiest live node instead.
        assert_eq!(p.place(NodeId(9), &[10, 500, 100], &[true; 3], 0), Some(NodeId(1)));
    }

    #[test]
    fn local_first_compute_only_fallback_tie_breaks_to_lowest_index() {
        let p = PlacementPolicy::LocalFirst;
        // Documented tie-break: equal free bytes resolve to the lowest
        // node index, deterministically, call after call.
        for counter in 0..5 {
            assert_eq!(p.place(NodeId(7), &[250, 250, 250], &[true; 3], counter), Some(NodeId(0)));
        }
        // A partial tie among the top contenders resolves the same way.
        assert_eq!(p.place(NodeId(7), &[100, 400, 400], &[true; 3], 0), Some(NodeId(1)));
    }

    #[test]
    fn local_first_skips_fenced_requester() {
        let p = PlacementPolicy::LocalFirst;
        // Requester hosts a cache tier but is inside a crash window:
        // placement must not target it.
        let live = [true, false, true];
        assert_eq!(p.place(NodeId(1), &[10, 900, 100], &live, 0), Some(NodeId(2)));
    }

    #[test]
    fn round_robin_cycles() {
        let p = PlacementPolicy::RoundRobin;
        let picks: Vec<u32> =
            (0..6).map(|c| p.place(NodeId(0), &[1, 1, 1], &[true; 3], c).unwrap().0).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_skips_down_nodes() {
        let p = PlacementPolicy::RoundRobin;
        let live = [true, false, true];
        let picks: Vec<u32> =
            (0..4).map(|c| p.place(NodeId(0), &[1, 1, 1], &live, c).unwrap().0).collect();
        assert_eq!(picks, vec![0, 2, 0, 2], "rotation covers live nodes only");
    }

    #[test]
    fn capacity_weighted_picks_emptiest_deterministically() {
        let p = PlacementPolicy::CapacityWeighted;
        assert_eq!(
            p.place(NodeId(0), &[5, 50, 50], &[true; 3], 0),
            Some(NodeId(1)),
            "ties break to lower index"
        );
        assert_eq!(p.place(NodeId(0), &[100, 50, 50], &[true; 3], 0), Some(NodeId(0)));
    }

    #[test]
    fn capacity_weighted_never_picks_a_down_node() {
        let p = PlacementPolicy::CapacityWeighted;
        // Node 1 has the most free bytes but is down.
        assert_eq!(p.place(NodeId(0), &[5, 900, 50], &[true, false, true], 0), Some(NodeId(2)));
    }

    #[test]
    fn all_nodes_down_places_nowhere() {
        for p in [
            PlacementPolicy::LocalFirst,
            PlacementPolicy::RoundRobin,
            PlacementPolicy::CapacityWeighted,
        ] {
            assert_eq!(p.place(NodeId(0), &[100, 100], &[false, false], 0), None);
            assert!(p.place_replicas(NodeId(0), &[100, 100], &[false, false], 0, 2).is_empty());
        }
    }

    #[test]
    fn replica_sets_are_distinct_live_and_deterministic() {
        let p = PlacementPolicy::LocalFirst;
        let free = [100, 300, 200, 400];
        let set = p.place_replicas(NodeId(0), &free, &UP, 0, 3);
        // Primary = requester; remainder capacity-ordered (3 then 2).
        assert_eq!(set, vec![NodeId(0), NodeId(3), NodeId(1)]);
        let again = p.place_replicas(NodeId(0), &free, &UP, 0, 3);
        assert_eq!(set, again, "replica choice is a pure function of its inputs");
        // Distinctness holds even when k exceeds the node count.
        let all = p.place_replicas(NodeId(0), &free, &UP, 0, 9);
        assert_eq!(all.len(), 4);
        let mut sorted: Vec<u32> = all.iter().map(|n| n.0).collect();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "no node appears twice");
    }

    #[test]
    fn replica_sets_shrink_to_the_live_population() {
        let p = PlacementPolicy::CapacityWeighted;
        let live = [true, false, false, true];
        let set = p.place_replicas(NodeId(0), &[100, 900, 900, 50], &live, 0, 3);
        assert_eq!(set, vec![NodeId(0), NodeId(3)], "down nodes never join a replica set");
    }

    #[test]
    fn replica_tie_break_order_is_documented_and_stable() {
        // Secondary replicas with equal free bytes fill lowest-index
        // first — the documented deterministic order.
        let p = PlacementPolicy::CapacityWeighted;
        let set = p.place_replicas(NodeId(9), &[100, 300, 300, 300], &UP, 0, 4);
        assert_eq!(set, vec![NodeId(1), NodeId(2), NodeId(3), NodeId(0)]);
    }
}
