//! The partitioned triple store.
//!
//! Triples are distributed across the cluster's ranks by a hash of the
//! subject id, as CGE shards its graph. Each shard keeps three sorted
//! indexes (SPO, POS, OSP) so any triple pattern scans in
//! O(log n + answers): subject-bound lookups use SPO, predicate scans use
//! POS, object lookups use OSP. Ingest is buffered and indexes are built
//! in one pass per shard, mirroring CGE's bulk-load-then-query lifecycle.

use crate::term::TermId;
use crate::triple::Triple;
use ids_simrt::rng::{fnv1a, hash_combine};

/// A triple pattern: `None` positions are wildcards ("variables").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TriplePattern {
    pub s: Option<TermId>,
    pub p: Option<TermId>,
    pub o: Option<TermId>,
}

impl TriplePattern {
    /// Pattern with every position bound/unbound as given.
    pub fn new(s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> Self {
        Self { s, p, o }
    }

    /// Whether `t` matches this pattern.
    #[inline]
    pub fn matches(&self, t: &Triple) -> bool {
        self.s.is_none_or(|s| s == t.s)
            && self.p.is_none_or(|p| p == t.p)
            && self.o.is_none_or(|o| o == t.o)
    }
}

/// One rank's shard: the same triples in three sort orders.
#[derive(Debug, Default)]
struct ShardIndex {
    spo: Vec<Triple>,
    pos: Vec<Triple>,
    osp: Vec<Triple>,
    pending: Vec<Triple>,
}

fn spo_key(t: &Triple) -> [TermId; 3] {
    [t.s, t.p, t.o]
}

fn pos_key(t: &Triple) -> [TermId; 3] {
    [t.p, t.o, t.s]
}

fn osp_key(t: &Triple) -> [TermId; 3] {
    [t.o, t.s, t.p]
}

/// The run of `index` (sorted by `key`) whose key starts with `prefix`.
fn prefix_range<'a>(
    index: &'a [Triple],
    key: fn(&Triple) -> [TermId; 3],
    prefix: &[TermId],
) -> &'a [Triple] {
    let n = prefix.len();
    let lo = index.partition_point(|t| key(t)[..n] < *prefix);
    let len = index[lo..].partition_point(|t| key(t)[..n] == *prefix);
    &index[lo..lo + len]
}

impl ShardIndex {
    fn build(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        self.spo.append(&mut self.pending.clone());
        self.pos.append(&mut self.pending.clone());
        self.osp.append(&mut self.pending);
        self.spo.sort_unstable();
        self.spo.dedup();
        self.pos.sort_unstable_by_key(pos_key);
        self.pos.dedup();
        self.osp.sort_unstable_by_key(osp_key);
        self.osp.dedup();
    }

    /// Every triple matching `pat`, as one index range: the index whose
    /// sort order leads with the bound positions, cut to the run where
    /// they hold, in that index's order. This is the one range lookup;
    /// scans and counts both read it.
    fn candidates(&self, pat: &TriplePattern) -> &[Triple] {
        debug_assert!(self.pending.is_empty(), "scan before build_indexes()");
        match (pat.s, pat.p, pat.o) {
            (Some(s), Some(p), Some(o)) => prefix_range(&self.spo, spo_key, &[s, p, o]),
            (Some(s), Some(p), None) => prefix_range(&self.spo, spo_key, &[s, p]),
            (Some(s), None, Some(o)) => prefix_range(&self.osp, osp_key, &[o, s]),
            (Some(s), None, None) => prefix_range(&self.spo, spo_key, &[s]),
            (None, Some(p), Some(o)) => prefix_range(&self.pos, pos_key, &[p, o]),
            (None, Some(p), None) => prefix_range(&self.pos, pos_key, &[p]),
            (None, None, Some(o)) => prefix_range(&self.osp, osp_key, &[o]),
            (None, None, None) => &self.spo,
        }
    }
}

/// Per-shard sizing statistics for load-balance analysis.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Triples per shard, indexed by shard (= rank) id.
    pub triples: Vec<usize>,
}

impl ShardStats {
    /// Max/mean shard imbalance (1.0 = perfect).
    pub fn imbalance(&self) -> f64 {
        let max = self.triples.iter().copied().max().unwrap_or(0) as f64;
        let mean = self.triples.iter().sum::<usize>() as f64 / self.triples.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Total triples across shards.
    pub fn total(&self) -> usize {
        self.triples.iter().sum()
    }
}

/// The store: one shard per rank, subject-hash partitioned.
pub struct PartitionedStore {
    shards: Vec<ShardIndex>,
}

/// The rank that owns `id` among `shards`: where the store places a
/// subject's triples and where the engine's exchange sends a row whose
/// key column holds `id`. One function for both, so a scan's rows are
/// already placed on its subject variable and a join on that variable
/// need not move them (DESIGN.md §5g). Part of the determinism contract:
/// placement fixes per-rank row order and every charge downstream of it.
#[inline]
pub fn placement(id: TermId, shards: usize) -> usize {
    (hash_combine(0xA17C_E55E, fnv1a(&id.0.to_le_bytes())) % shards as u64) as usize
}

impl PartitionedStore {
    /// A store sharded `num_shards` ways (one shard per rank).
    pub fn new(num_shards: usize) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        Self { shards: (0..num_shards).map(|_| ShardIndex::default()).collect() }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning a subject.
    #[inline]
    pub fn shard_of(&self, subject: TermId) -> usize {
        placement(subject, self.shards.len())
    }

    /// Buffer a triple for insertion (call [`Self::build_indexes`] before
    /// scanning).
    pub fn insert(&mut self, t: Triple) {
        let shard = self.shard_of(t.s);
        self.shards[shard].pending.push(t);
    }

    /// Sort and deduplicate all shard indexes.
    pub fn build_indexes(&mut self) {
        self.shards.iter_mut().for_each(ShardIndex::build);
    }

    /// One shard's matches for a pattern, borrowed from its index in index
    /// order. Ranks read their own shard.
    pub fn candidates(&self, shard: usize, pat: &TriplePattern) -> &[Triple] {
        self.shards[shard].candidates(pat)
    }

    /// Scan one shard for a pattern into an owned vector.
    pub fn scan_shard(&self, shard: usize, pat: &TriplePattern) -> Vec<Triple> {
        self.candidates(shard, pat).to_vec()
    }

    /// Count matches in one shard without materializing.
    pub fn count_shard(&self, shard: usize, pat: &TriplePattern) -> usize {
        self.candidates(shard, pat).len()
    }

    /// Scan every shard (single-node convenience / tests).
    pub fn scan_all(&self, pat: &TriplePattern) -> Vec<Triple> {
        (0..self.shards.len()).flat_map(|i| self.scan_shard(i, pat)).collect()
    }

    /// Global match count for a pattern.
    pub fn count_all(&self, pat: &TriplePattern) -> usize {
        self.shards.iter().map(|s| s.candidates(pat).len()).sum()
    }

    /// Total triples stored.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.spo.len() + s.pending.len()).sum()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-shard statistics.
    pub fn stats(&self) -> ShardStats {
        ShardStats { triples: self.shards.iter().map(|s| s.spo.len() + s.pending.len()).collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64, p: u64, o: u64) -> Triple {
        Triple::new(TermId(s), TermId(p), TermId(o))
    }

    fn demo_store(shards: usize) -> PartitionedStore {
        let mut st = PartitionedStore::new(shards);
        // 100 subjects × 3 predicates.
        for s in 0..100 {
            st.insert(t(s, 1000, 2000 + s % 10)); // type
            st.insert(t(s, 1001, 3000 + s)); // name
            st.insert(t(s, 1002, s + 1)); // linked-to next subject
        }
        st.build_indexes();
        st
    }

    #[test]
    fn subject_scan_finds_all_facts() {
        let st = demo_store(4);
        let got = st.scan_all(&TriplePattern::new(Some(TermId(5)), None, None));
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|tr| tr.s == TermId(5)));
    }

    #[test]
    fn predicate_scan_spans_shards() {
        let st = demo_store(4);
        let got = st.scan_all(&TriplePattern::new(None, Some(TermId(1001)), None));
        assert_eq!(got.len(), 100);
    }

    #[test]
    fn object_scan_uses_osp() {
        let st = demo_store(4);
        let got = st.scan_all(&TriplePattern::new(None, None, Some(TermId(2003))));
        assert_eq!(got.len(), 10, "subjects with s%10==3");
        assert!(got.iter().all(|tr| tr.o == TermId(2003)));
    }

    #[test]
    fn bound_spo_point_lookup() {
        let st = demo_store(4);
        let got =
            st.scan_all(&TriplePattern::new(Some(TermId(7)), Some(TermId(1002)), Some(TermId(8))));
        assert_eq!(got.len(), 1);
        let missing =
            st.scan_all(&TriplePattern::new(Some(TermId(7)), Some(TermId(1002)), Some(TermId(9))));
        assert!(missing.is_empty());
    }

    #[test]
    fn full_scan_returns_everything() {
        let st = demo_store(4);
        assert_eq!(st.scan_all(&TriplePattern::default()).len(), 300);
        assert_eq!(st.len(), 300);
    }

    #[test]
    fn counts_agree_with_scans() {
        let st = demo_store(4);
        for pat in [
            TriplePattern::default(),
            TriplePattern::new(Some(TermId(3)), None, None),
            TriplePattern::new(None, Some(TermId(1000)), None),
            TriplePattern::new(None, None, Some(TermId(2001))),
            TriplePattern::new(None, Some(TermId(1000)), Some(TermId(2001))),
        ] {
            assert_eq!(st.count_all(&pat), st.scan_all(&pat).len(), "{pat:?}");
        }
    }

    #[test]
    fn duplicates_are_removed_at_build() {
        let mut st = PartitionedStore::new(2);
        st.insert(t(1, 2, 3));
        st.insert(t(1, 2, 3));
        st.build_indexes();
        assert_eq!(st.len(), 1);
    }

    #[test]
    fn same_subject_lands_on_one_shard() {
        let st = demo_store(8);
        for s in 0..100u64 {
            let shard = st.shard_of(TermId(s));
            // All of subject s's facts must be in that shard.
            let local = st.scan_shard(shard, &TriplePattern::new(Some(TermId(s)), None, None));
            assert_eq!(local.len(), 3, "subject {s}");
        }
    }

    #[test]
    fn placement_is_reasonably_balanced() {
        let mut st = PartitionedStore::new(16);
        for s in 0..16_000 {
            st.insert(t(s, 1, 2));
        }
        st.build_indexes();
        let stats = st.stats();
        assert!(stats.imbalance() < 1.2, "imbalance {}", stats.imbalance());
        assert_eq!(stats.total(), 16_000);
    }

    #[test]
    fn candidates_borrow_a_range_of_the_shard_index() {
        let st = demo_store(4);
        let within = |part: &[Triple], index: &[Triple]| {
            let span = index.as_ptr_range();
            part.is_empty() || (span.start <= part.as_ptr() && part.as_ptr_range().end <= span.end)
        };
        for (shard, index) in st.shards.iter().enumerate() {
            for bound in 0u8..8 {
                // Bit k of `bound` binds position k; subject 7 links to 8.
                let [s, p, o] = [(1u8, 7), (2, 1002), (4, 8)]
                    .map(|(bit, v)| (bound & bit != 0).then_some(TermId(v)));
                let pat = TriplePattern::new(s, p, o);
                let got = st.candidates(shard, &pat);
                assert!(
                    [&index.spo, &index.pos, &index.osp].iter().any(|ix| within(got, ix)),
                    "{pat:?} copied its matches"
                );
                assert!(got.iter().all(|tr| pat.matches(tr)), "{pat:?}");
            }
        }
    }

    #[test]
    fn subject_and_object_bound_reads_in_predicate_order() {
        let mut st = PartitionedStore::new(1);
        for tr in [t(1, 5, 9), t(1, 3, 9), t(1, 4, 8), t(2, 1, 9)] {
            st.insert(tr);
        }
        st.build_indexes();
        let pat = TriplePattern::new(Some(TermId(1)), None, Some(TermId(9)));
        assert_eq!(st.candidates(0, &pat), &[t(1, 3, 9), t(1, 5, 9)]);
        assert_eq!(st.count_shard(0, &pat), 2);
    }

    #[test]
    fn ids_outside_the_stored_range_match_nothing() {
        // Subjects are 0..100, predicates 1000..=1002, objects at most 3099
        // and at least 1: every bound id below sits before the first or
        // after the last key of the index range it probes.
        let st = demo_store(2);
        for [s, p, o] in [
            [None, Some(999), None],
            [None, Some(5000), None],
            [None, None, Some(0)],
            [None, None, Some(99_999)],
            [Some(100_000), None, None],
            [None, Some(1000), Some(0)],
            [None, Some(1000), Some(99_999)],
            [Some(3), Some(999), None],
            [Some(3), Some(5000), None],
            [Some(3), None, Some(0)],
            [Some(3), Some(1002), Some(99_999)],
        ] {
            let pat = TriplePattern::new(s.map(TermId), p.map(TermId), o.map(TermId));
            for shard in 0..2 {
                assert!(st.candidates(shard, &pat).is_empty(), "{pat:?}");
            }
            assert_eq!(st.count_all(&pat), 0, "{pat:?}");
        }
    }

    /// The exact index ranges against the old lookups: the range of the
    /// leading bound position's index, filtered by `matches`, in that
    /// index's order. Ids come from a small domain so bound positions both
    /// hit and miss.
    mod ranges {
        use super::*;
        use ids_simrt::rng::SplitMix64;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn scans_and_counts_are_the_matching_triples_in_index_order(
                seed in 0u64..1_000_000,
                triples in 0usize..=400,
                shards in 1usize..=4,
                domain in 1u64..=12,
                bound in 0u8..8,
            ) {
                let mut rng = SplitMix64::new(seed, 0x5708);
                let mut st = PartitionedStore::new(shards);
                for _ in 0..triples {
                    let [s, p, o] = [(); 3].map(|_| TermId(rng.next_below(domain)));
                    st.insert(Triple::new(s, p, o));
                }
                st.build_indexes();
                // Bit k of `bound` binds position k to a random id.
                let [s, p, o] = [1u8, 2, 4]
                    .map(|bit| (bound & bit != 0).then(|| TermId(rng.next_below(domain))));
                let pat = TriplePattern::new(s, p, o);
                for (shard, index) in st.shards.iter().enumerate() {
                    let got = st.scan_shard(shard, &pat);
                    prop_assert_eq!(st.count_shard(shard, &pat), got.len());
                    let led = match (s, p, o) {
                        (None, Some(_), _) => &index.pos,
                        (None, None, Some(_)) => &index.osp,
                        _ => &index.spo,
                    };
                    let want: Vec<Triple> = led.iter().filter(|t| pat.matches(t)).copied().collect();
                    prop_assert_eq!(got, want);
                }
                let mut got = st.scan_all(&pat);
                got.sort_unstable();
                let mut want = st.scan_all(&TriplePattern::default());
                want.retain(|t| pat.matches(t));
                want.sort_unstable();
                prop_assert_eq!(st.count_all(&pat), want.len());
                prop_assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn incremental_ingest_after_build() {
        let mut st = demo_store(4);
        st.insert(t(500, 1000, 2000));
        st.build_indexes();
        assert_eq!(st.scan_all(&TriplePattern::new(Some(TermId(500)), None, None)).len(), 1);
        // Earlier data still present.
        assert_eq!(st.len(), 301);
    }
}
