//! The flat vector store with exact parallel top-k search.
//!
//! Vectors live in one contiguous `Vec<f32>` (row-major, fixed dimension) —
//! cache-friendly linear scans, no per-vector allocation. Search scores
//! every vector and keeps the top k under a total order.

use crate::kernel::{cosine, l2_squared};
use ids_obs::{Counter, MetricsRegistry};
use std::cmp::Ordering;
use std::collections::HashMap;

/// Distance/similarity metric for search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Cosine similarity (higher = closer).
    Cosine,
    /// Euclidean distance (lower = closer).
    L2,
}

/// A search result: external id plus score (always "higher is better";
/// L2 scores are negated distances).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchHit {
    pub id: u64,
    pub score: f32,
}

/// Pre-resolved exact-scan counters, attached on demand.
struct StoreMetrics {
    searches: Counter,
    scanned: Counter,
}

/// Fixed-dimension vector store.
pub struct VectorStore {
    dim: usize,
    ids: Vec<u64>,
    data: Vec<f32>,
    /// id → internal index of its *first* insertion, for O(1) [`Self::get`].
    index: HashMap<u64, usize>,
    metrics: Option<StoreMetrics>,
}

impl VectorStore {
    /// An empty store of dimension `dim`.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Self { dim, ids: Vec::new(), data: Vec::new(), index: HashMap::new(), metrics: None }
    }

    /// Attach an `ids-obs` registry: every subsequent exact search bumps
    /// `ids_vector_exact_searches_total` and
    /// `ids_vector_exact_scanned_total` (vectors scored).
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.metrics = Some(StoreMetrics {
            searches: registry.counter("ids_vector_exact_searches_total"),
            scanned: registry.counter("ids_vector_exact_scanned_total"),
        });
    }

    /// Vector dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored vectors.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Insert a vector under an external id.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn insert(&mut self, id: u64, vector: &[f32]) {
        assert_eq!(vector.len(), self.dim, "dimension mismatch");
        self.index.entry(id).or_insert(self.ids.len());
        self.ids.push(id);
        self.data.extend_from_slice(vector);
    }

    /// The vector stored at internal index `i`.
    #[inline]
    pub fn vector_at(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// External id of the vector at internal index `i` (insertion order).
    #[inline]
    pub fn id_at(&self, i: usize) -> u64 {
        self.ids[i]
    }

    /// Look up a vector by external id — O(1) via the id→index map (the
    /// engine's similarity joins resolve per-binding embeddings here). If
    /// an id was inserted twice, the first insertion wins.
    pub fn get(&self, id: u64) -> Option<&[f32]> {
        self.index.get(&id).map(|&i| self.vector_at(i))
    }

    /// Exact top-k nearest vectors to `query` under `metric`, best first.
    pub fn search(&self, query: &[f32], k: usize, metric: Metric) -> Vec<SearchHit> {
        assert_eq!(query.len(), self.dim, "dimension mismatch");
        if k == 0 || self.is_empty() {
            return Vec::new();
        }
        if let Some(m) = &self.metrics {
            m.searches.inc();
            m.scanned.add(self.len() as u64);
        }
        let mut hits: Vec<SearchHit> = (0..self.len())
            .map(|i| {
                let v = self.vector_at(i);
                let score = match metric {
                    Metric::Cosine => cosine(query, v),
                    Metric::L2 => -l2_squared(query, v),
                };
                SearchHit { id: self.ids[i], score }
            })
            .collect();
        keep_top_k(&mut hits, k);
        hits
    }
}

/// Total order on hits: descending score with **NaN scores sorting last**,
/// ties broken by ascending id. Non-NaN scores compare via
/// [`f32::total_cmp`], so the order is total and antisymmetric even for
/// ±inf / ±0.0 / NaN embeddings — top-k selection stays deterministic
/// across runs and ranks (a `partial_cmp(..).unwrap_or(Equal)` comparator
/// is not a strict weak order once a NaN appears, and `sort_unstable_by`
/// may then return different prefixes per run).
pub(crate) fn hit_order(a: &SearchHit, b: &SearchHit) -> Ordering {
    match (a.score.is_nan(), b.score.is_nan()) {
        (false, false) => b.score.total_cmp(&a.score).then_with(|| a.id.cmp(&b.id)),
        (true, true) => a.id.cmp(&b.id),
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
    }
}

/// Truncate `hits` to the `k` best under [`hit_order`].
fn keep_top_k(hits: &mut Vec<SearchHit>, k: usize) {
    hits.sort_unstable_by(hit_order);
    hits.truncate(k);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_axes() -> VectorStore {
        let mut s = VectorStore::new(4);
        for i in 0..4 {
            let mut v = vec![0.0f32; 4];
            v[i] = 1.0;
            s.insert(i as u64, &v);
        }
        s
    }

    #[test]
    fn nearest_axis_wins_cosine() {
        let s = unit_axes();
        let hits = s.search(&[0.9, 0.1, 0.0, 0.0], 2, Metric::Cosine);
        assert_eq!(hits[0].id, 0);
        assert!(hits[0].score > hits[1].score);
    }

    #[test]
    fn l2_finds_exact_match_first() {
        let s = unit_axes();
        let hits = s.search(&[0.0, 0.0, 1.0, 0.0], 1, Metric::L2);
        assert_eq!(hits[0].id, 2);
        assert_eq!(hits[0].score, 0.0, "negated distance of exact match");
    }

    #[test]
    fn k_larger_than_store_returns_all() {
        let s = unit_axes();
        assert_eq!(s.search(&[1.0, 0.0, 0.0, 0.0], 100, Metric::Cosine).len(), 4);
    }

    #[test]
    fn k_zero_and_empty_store() {
        let s = unit_axes();
        assert!(s.search(&[1.0, 0.0, 0.0, 0.0], 0, Metric::Cosine).is_empty());
        let empty = VectorStore::new(4);
        assert!(empty.search(&[1.0, 0.0, 0.0, 0.0], 3, Metric::Cosine).is_empty());
    }

    #[test]
    fn deterministic_tie_break_by_id() {
        let mut s = VectorStore::new(2);
        // Three identical vectors.
        for id in [30u64, 10, 20] {
            s.insert(id, &[1.0, 0.0]);
        }
        let hits = s.search(&[1.0, 0.0], 3, Metric::Cosine);
        let ids: Vec<u64> = hits.iter().map(|h| h.id).collect();
        assert_eq!(ids, vec![10, 20, 30]);
    }

    #[test]
    fn parallel_scan_matches_serial_on_large_store() {
        // 20k random-ish vectors; top-1 must be the planted near-duplicate.
        let mut s = VectorStore::new(8);
        for i in 0..20_000u64 {
            let v: Vec<f32> = (0..8).map(|d| ((i * 31 + d * 7) % 97) as f32 / 97.0).collect();
            s.insert(i, &v);
        }
        // Plant one vector that is unique in the corpus.
        s.insert(20_000, &[9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0]);
        let probe: Vec<f32> = s.get(20_000).unwrap().to_vec();
        let hits = s.search(&probe, 5, Metric::L2);
        assert_eq!(hits[0].id, 20_000);
        assert_eq!(hits.len(), 5);
        // Scores are non-increasing.
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_rejected() {
        let mut s = VectorStore::new(3);
        s.insert(0, &[1.0, 2.0]);
    }
}
