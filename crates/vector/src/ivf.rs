//! IVF (inverted-file) approximate nearest-neighbour index.
//!
//! The paper's "what-could-be" query executes *millions* of similarity
//! searches (§1); exact scans don't survive that at interactive latency.
//! IVF is the classic fix: k-means the corpus into `nlist` cells, then at
//! query time probe only the `nprobe` cells whose centroids are closest.
//! Recall/latency trades off via `nprobe` — the ablation bench sweeps it.

use crate::kernel::l2_squared;
use crate::store::{hit_order, SearchHit, VectorStore};
use ids_obs::{Counter, MetricsRegistry};
use ids_simrt::rng::SplitMix64;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Pre-resolved search counters, attached on demand.
struct IvfMetrics {
    searches: Counter,
    probes: Counter,
    candidates: Counter,
}

/// An IVF index over an externally owned corpus.
pub struct IvfIndex {
    dim: usize,
    centroids: Vec<Vec<f32>>,
    /// Per-cell member lists: (external id, vector).
    cells: Vec<Vec<(u64, Vec<f32>)>>,
    metrics: Option<IvfMetrics>,
}

impl IvfIndex {
    /// Build an index with `nlist` cells via Lloyd's k-means (`iters`
    /// rounds, seeded initialization).
    ///
    /// # Panics
    /// Panics if the corpus is empty or `nlist == 0`.
    pub fn build(corpus: &VectorStore, nlist: usize, iters: usize, seed: u64) -> Self {
        assert!(nlist > 0, "need at least one cell");
        assert!(!corpus.is_empty(), "cannot index an empty corpus");
        let dim = corpus.dim();
        let n = corpus.len();
        let nlist = nlist.min(n);
        let mut rng = SplitMix64::new(seed, 0x1BF);

        // Init: sample distinct corpus points as seeds.
        let mut centroids: Vec<Vec<f32>> = Vec::with_capacity(nlist);
        let mut taken = std::collections::HashSet::new();
        while centroids.len() < nlist {
            let i = rng.next_below(n as u64) as usize;
            if taken.insert(i) {
                centroids.push(corpus.vector_at(i).to_vec());
            }
        }

        let mut assignment = vec![0usize; n];
        for _ in 0..iters {
            // Assign.
            for (i, slot) in assignment.iter_mut().enumerate() {
                *slot = nearest_centroid(corpus.vector_at(i), &centroids);
            }
            // Update.
            let mut sums = vec![vec![0f32; dim]; nlist];
            let mut counts = vec![0usize; nlist];
            for (i, &c) in assignment.iter().enumerate() {
                counts[c] += 1;
                for (s, v) in sums[c].iter_mut().zip(corpus.vector_at(i)) {
                    *s += v;
                }
            }
            for c in 0..nlist {
                if counts[c] > 0 {
                    for s in sums[c].iter_mut() {
                        *s /= counts[c] as f32;
                    }
                    centroids[c] = std::mem::take(&mut sums[c]);
                }
                // Empty cells keep their previous centroid.
            }
        }

        // Final assignment into cells.
        let mut cells: Vec<Vec<(u64, Vec<f32>)>> = vec![Vec::new(); nlist];
        for i in 0..n {
            let c = nearest_centroid(corpus.vector_at(i), &centroids);
            cells[c].push((corpus.id_at(i), corpus.vector_at(i).to_vec()));
        }

        Self { dim, centroids, cells, metrics: None }
    }

    /// Attach an `ids-obs` registry: every subsequent search bumps
    /// `ids_vector_searches_total`, `ids_vector_probes_total` (cells
    /// visited), and `ids_vector_candidates_total` (vectors scored).
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.metrics = Some(IvfMetrics {
            searches: registry.counter("ids_vector_searches_total"),
            probes: registry.counter("ids_vector_probes_total"),
            candidates: registry.counter("ids_vector_candidates_total"),
        });
    }

    /// Number of cells.
    pub fn nlist(&self) -> usize {
        self.centroids.len()
    }

    /// Search the `nprobe` nearest cells for the top-k closest vectors
    /// (L2). Results best-first.
    pub fn search(&self, query: &[f32], k: usize, nprobe: usize) -> Vec<SearchHit> {
        assert_eq!(query.len(), self.dim, "dimension mismatch");
        if k == 0 {
            return Vec::new();
        }
        let nprobe = nprobe.clamp(1, self.centroids.len());
        // Rank cells by centroid distance: ascending, NaN distances probed
        // last, cell index as the deterministic tie-break.
        let mut order: Vec<(usize, f32)> = self
            .centroids
            .iter()
            .enumerate()
            .map(|(c, cent)| (c, l2_squared(query, cent)))
            .collect();
        order.sort_unstable_by(|a, b| match (a.1.is_nan(), b.1.is_nan()) {
            (false, false) => a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)),
            (true, true) => a.0.cmp(&b.0),
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
        });

        // Bounded top-k: a k-sized heap whose root is the *worst* retained
        // hit, instead of materializing and fully sorting every candidate
        // from all probed cells.
        let mut heap: BinaryHeap<HeapHit> = BinaryHeap::with_capacity(k + 1);
        let mut scored = 0u64;
        for &(c, _) in order.iter().take(nprobe) {
            for (id, v) in &self.cells[c] {
                scored += 1;
                let hit = SearchHit { id: *id, score: -l2_squared(query, v) };
                if heap.len() < k {
                    heap.push(HeapHit(hit));
                } else if heap
                    .peek()
                    .is_some_and(|worst| hit_order(&hit, &worst.0) == Ordering::Less)
                {
                    heap.pop();
                    heap.push(HeapHit(hit));
                }
            }
        }
        if let Some(m) = &self.metrics {
            m.searches.inc();
            m.probes.add(nprobe as u64);
            m.candidates.add(scored);
        }
        let mut hits: Vec<SearchHit> = heap.into_iter().map(|h| h.0).collect();
        hits.sort_unstable_by(hit_order);
        hits
    }
}

/// Heap adapter: max-heap element whose "greatest" value is the *worst*
/// hit under [`hit_order`] (NaN-last descending score, id tie-break).
struct HeapHit(SearchHit);

impl PartialEq for HeapHit {
    fn eq(&self, other: &Self) -> bool {
        hit_order(&self.0, &other.0) == Ordering::Equal
    }
}

impl Eq for HeapHit {}

impl PartialOrd for HeapHit {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapHit {
    fn cmp(&self, other: &Self) -> Ordering {
        hit_order(&self.0, &other.0)
    }
}

#[inline]
fn nearest_centroid(v: &[f32], centroids: &[Vec<f32>]) -> usize {
    let mut best = 0;
    let mut best_d = f32::INFINITY;
    for (c, cent) in centroids.iter().enumerate() {
        let d = l2_squared(v, cent);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Metric;

    fn corpus_with_clusters() -> VectorStore {
        // Three well-separated gaussian-ish blobs in 4-D.
        let mut s = VectorStore::new(4);
        let mut rng = SplitMix64::new(99, 1);
        let centers = [[0.0f32, 0.0, 0.0, 0.0], [10.0, 10.0, 0.0, 0.0], [0.0, 0.0, 10.0, 10.0]];
        let mut id = 0u64;
        for c in &centers {
            for _ in 0..300 {
                let v: Vec<f32> = c.iter().map(|&x| x + rng.next_gaussian() as f32 * 0.5).collect();
                s.insert(id, &v);
                id += 1;
            }
        }
        s
    }

    #[test]
    fn ivf_recovers_cluster_members() {
        let corpus = corpus_with_clusters();
        let idx = IvfIndex::build(&corpus, 3, 10, 7);
        // Probe near cluster 1's center.
        let hits = idx.search(&[10.0, 10.0, 0.0, 0.0], 10, 1);
        assert_eq!(hits.len(), 10);
        for h in &hits {
            assert!((300..600).contains(&h.id), "hit {} outside cluster 1", h.id);
        }
    }

    #[test]
    fn more_probes_monotonically_improve_or_match_results() {
        let corpus = corpus_with_clusters();
        let idx = IvfIndex::build(&corpus, 8, 8, 3);
        let q = [5.0f32, 5.0, 5.0, 5.0]; // ambiguous point between clusters
        let best_1 = idx.search(&q, 1, 1)[0].score;
        let best_all = idx.search(&q, 1, 8)[0].score;
        assert!(best_all >= best_1, "full probe {best_all} vs 1-probe {best_1}");
    }

    #[test]
    fn full_probe_matches_exact_search() {
        let corpus = corpus_with_clusters();
        let idx = IvfIndex::build(&corpus, 6, 8, 5);
        let q = [9.5f32, 10.5, 0.2, -0.3];
        let exact = corpus.search(&q, 5, Metric::L2);
        let ivf = idx.search(&q, 5, 6);
        let exact_ids: Vec<u64> = exact.iter().map(|h| h.id).collect();
        let ivf_ids: Vec<u64> = ivf.iter().map(|h| h.id).collect();
        assert_eq!(exact_ids, ivf_ids);
    }

    #[test]
    fn probe_metrics_count_searches_and_cells() {
        let corpus = corpus_with_clusters();
        let mut idx = IvfIndex::build(&corpus, 8, 8, 3);
        let reg = MetricsRegistry::new();
        idx.attach_metrics(&reg);
        idx.search(&[0.0, 0.0, 0.0, 0.0], 5, 2);
        idx.search(&[10.0, 10.0, 0.0, 0.0], 5, 3);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("ids_vector_searches_total", ""), 2);
        assert_eq!(snap.counter("ids_vector_probes_total", ""), 5);
        assert!(snap.counter("ids_vector_candidates_total", "") > 0);
    }

    #[test]
    fn nlist_capped_by_corpus_size() {
        let mut s = VectorStore::new(2);
        s.insert(0, &[0.0, 0.0]);
        s.insert(1, &[1.0, 1.0]);
        let idx = IvfIndex::build(&s, 50, 3, 1);
        assert!(idx.nlist() <= 2);
        let hits = idx.search(&[0.1, 0.1], 2, 50);
        assert_eq!(hits[0].id, 0);
    }
}
