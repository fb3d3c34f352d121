//! Graph algorithms over the partitioned store.
//!
//! §2.2 lists "Algorithmic Acceleration: accelerate domain-specific
//! user-defined functions (UDFs) and graph algorithms such as PageRank" as
//! a core objective. This module provides PageRank and weakly-connected
//! components over the edge set selected by a predicate (or the whole
//! graph), computed shard by shard.

use crate::store::{PartitionedStore, TriplePattern};
use crate::term::TermId;
use std::collections::HashMap;

/// Extract the (directed) edge list selected by `predicate` (`None` = all
/// triples), as subject → object pairs.
pub fn edges(store: &PartitionedStore, predicate: Option<TermId>) -> Vec<(TermId, TermId)> {
    let pat = TriplePattern::new(None, predicate, None);
    (0..store.num_shards())
        .flat_map(|s| store.scan_shard(s, &pat).into_iter().map(|t| (t.s, t.o)))
        .collect()
}

/// PageRank result.
#[derive(Debug, Clone)]
pub struct PageRank {
    /// Node → score (sums to ≈ 1).
    pub scores: HashMap<TermId, f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// L1 change in the final iteration.
    pub final_delta: f64,
}

/// Compute PageRank over the selected edges.
///
/// * `damping` — usually 0.85.
/// * `max_iters` / `tolerance` — stop at whichever comes first.
///
/// Dangling nodes (no out-edges) redistribute uniformly, so the score
/// vector stays a probability distribution.
pub fn pagerank(
    store: &PartitionedStore,
    predicate: Option<TermId>,
    damping: f64,
    max_iters: usize,
    tolerance: f64,
) -> PageRank {
    assert!((0.0..1.0).contains(&damping), "damping in [0,1)");
    let edge_list = edges(store, predicate);

    // Dense node indexing.
    let mut index: HashMap<TermId, usize> = HashMap::new();
    for &(s, o) in &edge_list {
        let next = index.len();
        index.entry(s).or_insert(next);
        let next = index.len();
        index.entry(o).or_insert(next);
    }
    let n = index.len();
    if n == 0 {
        return PageRank { scores: HashMap::new(), iterations: 0, final_delta: 0.0 };
    }

    let mut out_degree = vec![0usize; n];
    let mut adj: Vec<(usize, usize)> = Vec::with_capacity(edge_list.len());
    for &(s, o) in &edge_list {
        let si = index[&s];
        let oi = index[&o];
        out_degree[si] += 1;
        adj.push((si, oi));
    }

    let mut rank = vec![1.0 / n as f64; n];
    let mut iterations = 0;
    let mut final_delta = f64::INFINITY;
    for _ in 0..max_iters {
        iterations += 1;
        let dangling_mass: f64 =
            rank.iter().zip(&out_degree).filter(|&(_, &d)| d == 0).map(|(r, _)| r).sum();
        let base = (1.0 - damping) / n as f64 + damping * dangling_mass / n as f64;
        let mut next = vec![base; n];
        for &(si, oi) in &adj {
            next[oi] += damping * rank[si] / out_degree[si] as f64;
        }
        final_delta = rank.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        rank = next;
        if final_delta < tolerance {
            break;
        }
    }

    let scores = index.into_iter().map(|(id, i)| (id, rank[i])).collect();
    PageRank { scores, iterations, final_delta }
}

/// Weakly-connected components over the selected edges: node → component
/// id (the smallest node index in the component).
pub fn connected_components(
    store: &PartitionedStore,
    predicate: Option<TermId>,
) -> HashMap<TermId, u64> {
    let edge_list = edges(store, predicate);
    let mut parent: HashMap<TermId, TermId> = HashMap::new();

    fn find(parent: &mut HashMap<TermId, TermId>, x: TermId) -> TermId {
        let p = *parent.entry(x).or_insert(x);
        if p == x {
            return x;
        }
        let root = find(parent, p);
        parent.insert(x, root);
        root
    }

    for &(s, o) in &edge_list {
        let rs = find(&mut parent, s);
        let ro = find(&mut parent, o);
        if rs != ro {
            // Union by id order for determinism.
            if rs.0 < ro.0 {
                parent.insert(ro, rs);
            } else {
                parent.insert(rs, ro);
            }
        }
    }

    let nodes: Vec<TermId> = parent.keys().copied().collect();
    nodes.into_iter().map(|x| (x, find(&mut parent, x).0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triple::Triple;

    fn store_with_edges(es: &[(u64, u64)]) -> PartitionedStore {
        let mut st = PartitionedStore::new(4);
        for &(s, o) in es {
            st.insert(Triple::new(TermId(s), TermId(1), TermId(o)));
        }
        st.build_indexes();
        st
    }

    #[test]
    fn cycle_has_uniform_rank() {
        // 0 -> 1 -> 2 -> 3 -> 0.
        let st = store_with_edges(&[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let pr = pagerank(&st, Some(TermId(1)), 0.85, 100, 1e-12);
        for (_, &score) in pr.scores.iter() {
            assert!((score - 0.25).abs() < 1e-9, "uniform on a cycle, got {score}");
        }
        let total: f64 = pr.scores.values().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn star_center_dominates() {
        // Everyone points at node 0.
        let st = store_with_edges(&[(1, 0), (2, 0), (3, 0), (4, 0)]);
        let pr = pagerank(&st, Some(TermId(1)), 0.85, 100, 1e-12);
        let center = pr.scores[&TermId(0)];
        for leaf in 1..=4u64 {
            assert!(center > 3.0 * pr.scores[&TermId(leaf)], "hub beats spokes");
        }
        let total: f64 = pr.scores.values().sum();
        assert!((total - 1.0).abs() < 1e-9, "dangling node handled, total {total}");
    }

    #[test]
    fn converges_and_reports_delta() {
        let st = store_with_edges(&[(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)]);
        let pr = pagerank(&st, Some(TermId(1)), 0.85, 200, 1e-10);
        assert!(pr.iterations < 200, "converged early at {}", pr.iterations);
        assert!(pr.final_delta < 1e-10);
    }

    #[test]
    fn empty_graph_is_empty() {
        let st = PartitionedStore::new(2);
        let pr = pagerank(&st, None, 0.85, 10, 1e-6);
        assert!(pr.scores.is_empty());
    }

    #[test]
    fn components_found() {
        // Two components: {0,1,2} and {10,11}.
        let st = store_with_edges(&[(0, 1), (1, 2), (10, 11)]);
        let cc = connected_components(&st, Some(TermId(1)));
        assert_eq!(cc[&TermId(0)], cc[&TermId(2)]);
        assert_eq!(cc[&TermId(10)], cc[&TermId(11)]);
        assert_ne!(cc[&TermId(0)], cc[&TermId(10)]);
        assert_eq!(cc[&TermId(0)], 0, "component labeled by smallest member");
    }

    #[test]
    fn predicate_filter_selects_subgraph() {
        let mut st = PartitionedStore::new(4);
        st.insert(Triple::new(TermId(0), TermId(1), TermId(5)));
        st.insert(Triple::new(TermId(0), TermId(2), TermId(6)));
        st.build_indexes();
        assert_eq!(edges(&st, Some(TermId(1))).len(), 1);
        assert_eq!(edges(&st, None).len(), 2);
    }
}
