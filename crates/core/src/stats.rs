//! The planner's statistics layer.
//!
//! Adaptive cost-based planning needs three kinds of statistics (ISSUE 10 /
//! DESIGN.md §5l):
//!
//! 1. **Per-shard triple-pattern cardinalities** — per-predicate triple
//!    counts, kept per shard so the catalog can answer both global and
//!    shard-local questions, summed with saturating arithmetic so huge
//!    synthetic datasets cannot overflow into a tiny (wrongly "cheap")
//!    estimate.
//! 2. **Join-key NDV sketches** — per-predicate KMV sketches
//!    ([`ids_graph::KmvSketch`]) over the subject and object columns,
//!    giving the cost model the distinct-value counts that turn raw
//!    cardinalities into join-size estimates.
//! 3. **Historical UDF cost/selectivity profiles** — the merged row of the
//!    instance's [`ProfileTable`], so the cost model can price WHERE-clause
//!    conjuncts from what earlier queries' UDF calls cost and rejected.
//!
//! The catalog is built from one pass over every shard
//! ([`StatsCatalog::collect`]) and is a pure value afterwards: lookups
//! never touch the datastore, so planning (and mid-query re-planning in
//! the engine) cannot race ingest.

use crate::datastore::Datastore;
use ids_graph::sketch::DEFAULT_SKETCH_K;
use ids_graph::{KmvSketch, TermId};
use ids_udf::{ProfileRow, ProfileTable};
use std::collections::HashMap;

/// Per-predicate statistics.
#[derive(Debug, Clone)]
pub struct PredicateStats {
    /// Triple count per shard (index = shard/rank ordinal).
    pub per_shard: Vec<usize>,
    /// Distinct subjects under this predicate.
    pub subjects: KmvSketch,
    /// Distinct objects under this predicate.
    pub objects: KmvSketch,
}

impl PredicateStats {
    fn new(num_shards: usize) -> Self {
        Self {
            per_shard: vec![0; num_shards],
            subjects: KmvSketch::new(DEFAULT_SKETCH_K),
            objects: KmvSketch::new(DEFAULT_SKETCH_K),
        }
    }

    /// Global triple count for this predicate (saturating across shards).
    pub fn count(&self) -> usize {
        self.per_shard.iter().fold(0usize, |acc, &c| acc.saturating_add(c))
    }
}

/// The statistics catalog: everything the cost model reads.
#[derive(Debug, Clone, Default)]
pub struct StatsCatalog {
    /// Triples grouped by predicate id.
    preds: HashMap<u64, PredicateStats>,
    /// Distinct subjects / predicates / objects across the whole store
    /// (used for patterns whose predicate is itself a variable).
    all_subjects: KmvSketch,
    all_predicates: KmvSketch,
    all_objects: KmvSketch,
    /// Total triples (saturating).
    total_triples: usize,
    /// Historical UDF cost/selectivity profiles: a merged, one-row table
    /// (possibly empty).
    udf: ProfileTable,
}

impl StatsCatalog {
    /// Build the catalog from one scan pass over every shard.
    pub fn collect(ds: &Datastore) -> Self {
        let num_shards = ds.num_shards();
        let wildcard = ids_graph::TriplePattern::new(None, None, None);
        let mut cat = StatsCatalog::default();
        for shard in 0..num_shards {
            for t in ds.scan_shard(shard, &wildcard) {
                let entry =
                    cat.preds.entry(t.p.raw()).or_insert_with(|| PredicateStats::new(num_shards));
                entry.per_shard[shard] = entry.per_shard[shard].saturating_add(1);
                entry.subjects.observe(t.s);
                entry.objects.observe(t.o);
                cat.all_subjects.observe(t.s);
                cat.all_predicates.observe(t.p);
                cat.all_objects.observe(t.o);
                cat.total_triples = cat.total_triples.saturating_add(1);
            }
        }
        cat
    }

    /// Attach historical UDF profiles: the merged row of `profiles`.
    pub fn with_udf_profiles(mut self, profiles: &ProfileTable) -> Self {
        self.udf = profiles.merged();
        self
    }

    /// The historical UDF profiles, merged over ranks.
    pub fn udf_profiles(&self) -> ProfileRow<'_> {
        self.udf.row(0)
    }

    /// Total triples in the store at collection time.
    pub fn total_triples(&self) -> usize {
        self.total_triples
    }

    /// Per-predicate stats, if the predicate was seen during collection.
    pub fn predicate(&self, p: TermId) -> Option<&PredicateStats> {
        self.preds.get(&p.raw())
    }

    /// Estimated distinct subjects for a pattern with predicate `p`
    /// (`None` = predicate unbound → store-wide subject NDV).
    pub fn subject_ndv(&self, p: Option<TermId>) -> f64 {
        match p {
            Some(p) => self.preds.get(&p.raw()).map_or(0.0, |s| s.subjects.estimate()),
            None => self.all_subjects.estimate(),
        }
    }

    /// Estimated distinct objects (see [`Self::subject_ndv`]).
    pub fn object_ndv(&self, p: Option<TermId>) -> f64 {
        match p {
            Some(p) => self.preds.get(&p.raw()).map_or(0.0, |s| s.objects.estimate()),
            None => self.all_objects.estimate(),
        }
    }

    /// Estimated distinct predicates across the store (for `?p` variables).
    pub fn predicate_ndv(&self) -> f64 {
        self.all_predicates.estimate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_graph::Term;

    fn demo_ds() -> Datastore {
        let ds = Datastore::new(4);
        for i in 0..50 {
            ds.add_fact(
                &Term::iri(format!("p:{i}")),
                &Term::iri("rdf:type"),
                &Term::iri("up:Protein"),
            );
        }
        for c in 0..200 {
            ds.add_fact(
                &Term::iri(format!("c:{c}")),
                &Term::iri("chembl:inhibits"),
                &Term::iri(format!("p:{}", c % 50)),
            );
        }
        ds.build_indexes();
        ds
    }

    #[test]
    fn per_predicate_counts_match_store() {
        let ds = demo_ds();
        let cat = StatsCatalog::collect(&ds);
        let ty = ds.dictionary().lookup(&Term::iri("rdf:type")).unwrap();
        let inh = ds.dictionary().lookup(&Term::iri("chembl:inhibits")).unwrap();
        assert_eq!(cat.predicate(ty).unwrap().count(), 50);
        assert_eq!(cat.predicate(inh).unwrap().count(), 200);
        assert_eq!(cat.total_triples(), 250);
        // Per-shard counts sum to the global count.
        assert_eq!(cat.predicate(inh).unwrap().per_shard.len(), 4);
        assert_eq!(cat.predicate(inh).unwrap().per_shard.iter().sum::<usize>(), 200);
    }

    #[test]
    fn ndv_sketches_are_exact_on_small_domains() {
        let ds = demo_ds();
        let cat = StatsCatalog::collect(&ds);
        let ty = ds.dictionary().lookup(&Term::iri("rdf:type")).unwrap();
        let inh = ds.dictionary().lookup(&Term::iri("chembl:inhibits")).unwrap();
        // 50 distinct subjects typed, all into one object value.
        assert_eq!(cat.subject_ndv(Some(ty)), 50.0);
        assert_eq!(cat.object_ndv(Some(ty)), 1.0);
        // 200 distinct compounds inhibit 50 distinct proteins: with the
        // default k=64, subjects (200 > k) are estimated, objects exact.
        assert_eq!(cat.object_ndv(Some(inh)), 50.0);
        let subj = cat.subject_ndv(Some(inh));
        assert!((subj - 200.0).abs() / 200.0 < 0.5, "estimate {subj} too far from 200");
        assert_eq!(cat.predicate_ndv(), 2.0);
    }

    #[test]
    fn unknown_predicate_has_zero_ndv() {
        let cat = StatsCatalog::collect(&demo_ds());
        assert_eq!(cat.subject_ndv(Some(TermId(u64::MAX))), 0.0);
        assert!(cat.predicate(TermId(u64::MAX)).is_none());
    }
}
