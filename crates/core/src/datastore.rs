//! The 3-in-1 datastore.
//!
//! "This datastore functions as a 3-in-1 feature store, vector store, and
//! knowledge graph host … allowing unified query semantics across
//! modalities" (§1). One ingest surface feeds all three faces; queries can
//! mix triple patterns (graph), similarity search (vector), and feature
//! lookups (feature) because every modality shares the dictionary's
//! entity ids.

use ids_feature::FeatureStore;
use ids_graph::text::Posting;
use ids_graph::{Dictionary, KeywordIndex, PartitionedStore, Term, TermId, Triple, TriplePattern};
use ids_vector::store::{Metric, SearchHit};
use ids_vector::{IvfIndex, VectorStore};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The unified datastore.
pub struct Datastore {
    dict: Arc<Dictionary>,
    graph: RwLock<PartitionedStore>,
    features: FeatureStore,
    /// Named vector collections (e.g. "compound_embeddings").
    vectors: RwLock<HashMap<String, VectorStore>>,
    /// Inverted index over string literals (rebuilt by
    /// [`Self::build_indexes`]).
    keywords: RwLock<KeywordIndex>,
    /// IVF indexes per vector collection (built on demand).
    ann: RwLock<HashMap<String, IvfIndex>>,
    /// Bumped (`Release`) after every graph mutation, under the graph's
    /// write lock, and read with `Acquire` by [`Self::version`]: whoever
    /// observes a version also observes the triples written before it was
    /// bumped, and under the read lock the version names the triples.
    version: AtomicU64,
    /// [`Self::pattern_count`]'s sums over every shard, for the graph at
    /// the version it holds.
    counts: RwLock<PatternCounts>,
}

/// Match counts of subject-unbound patterns at one graph version.
#[derive(Default)]
struct PatternCounts {
    version: u64,
    by_pattern: HashMap<TriplePattern, usize>,
}

/// The most patterns [`Datastore::pattern_count`] keeps counts of; a full
/// memo is emptied before the next insert, so a service that plans ever
/// new patterns without ingest holds a bounded set.
const COUNTED_PATTERNS: usize = 4096;

impl Datastore {
    /// An empty datastore sharded across `num_shards` ranks.
    pub fn new(num_shards: usize) -> Self {
        Self {
            dict: Arc::new(Dictionary::new()),
            graph: RwLock::new(PartitionedStore::new(num_shards)),
            features: FeatureStore::new(),
            vectors: RwLock::new(HashMap::new()),
            keywords: RwLock::new(KeywordIndex::new()),
            ann: RwLock::new(HashMap::new()),
            version: AtomicU64::new(0),
            counts: RwLock::default(),
        }
    }

    /// The shared dictionary.
    pub fn dictionary(&self) -> &Arc<Dictionary> {
        &self.dict
    }

    /// The feature-store face.
    pub fn features(&self) -> &FeatureStore {
        &self.features
    }

    // ---- knowledge-graph face -------------------------------------------

    /// Intern three terms and buffer the fact.
    pub fn add_fact(&self, s: &Term, p: &Term, o: &Term) {
        let t = Triple::new(self.dict.encode(s), self.dict.encode(p), self.dict.encode(o));
        self.add_triple(t);
    }

    /// Buffer an already-encoded triple.
    pub fn add_triple(&self, t: Triple) {
        let mut graph = self.graph.write();
        graph.insert(t);
        self.version.fetch_add(1, Ordering::Release);
    }

    /// Sort and deduplicate shard indexes and rebuild the keyword index;
    /// call after bulk ingest.
    pub fn build_indexes(&self) {
        let mut graph = self.graph.write();
        graph.build_indexes();
        // Rebuild the keyword face: every string-literal object is indexed
        // under its (subject, predicate).
        let mut kw = KeywordIndex::new();
        for shard in 0..graph.num_shards() {
            for t in graph.scan_shard(shard, &TriplePattern::default()) {
                if let Some(Term::Str(text)) = self.dict.decode(t.o) {
                    kw.add(t.s, t.p, &text);
                }
            }
        }
        *self.keywords.write() = kw;
        self.version.fetch_add(1, Ordering::Release);
    }

    /// Graph-content version: bumped by [`Self::add_fact`],
    /// [`Self::add_triple`] and [`Self::build_indexes`], so anything derived
    /// from the triples (plans, statistics, reuse salts) can be keyed on it
    /// and rebuilt when it moves.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Keyword search (single token, case-insensitive) over all string
    /// literals — the "keyword search" face of the unified query engine.
    pub fn keyword_search(&self, token: &str) -> Vec<Posting> {
        self.keywords.read().search(token)
    }

    /// Conjunctive keyword search: subjects matching every token.
    pub fn keyword_search_all(&self, tokens: &[&str]) -> Vec<TermId> {
        self.keywords.read().search_all(tokens)
    }

    /// The graph under its read lock, for a phase that reads many shards:
    /// one acquisition instead of one per shard.
    pub fn graph(&self) -> impl Deref<Target = PartitionedStore> + '_ {
        self.graph.read()
    }

    /// Scan one shard (rank-local view).
    pub fn scan_shard(&self, shard: usize, pat: &TriplePattern) -> Vec<Triple> {
        self.graph.read().scan_shard(shard, pat)
    }

    /// Global match count.
    pub fn count_all(&self, pat: &TriplePattern) -> usize {
        self.graph.read().count_all(pat)
    }

    /// The planner's cardinality estimate: matches of `pat` summed over
    /// every shard with saturating arithmetic, so a synthetic store
    /// holding more than `usize::MAX` clamps instead of wrapping to a
    /// "cheap" estimate. A bound subject lives on one shard, which is
    /// read; any other pattern is summed once per graph version and then
    /// answered from a memo.
    pub fn pattern_count(&self, pat: &TriplePattern) -> usize {
        let graph = self.graph.read();
        if let Some(s) = pat.s {
            return graph.count_shard(graph.shard_of(s), pat);
        }
        // No writer can move the version while the read lock is held.
        let version = self.version();
        {
            let counts = self.counts.read();
            if counts.version == version {
                if let Some(&n) = counts.by_pattern.get(pat) {
                    return n;
                }
            }
        }
        let n = (0..graph.num_shards())
            .map(|shard| graph.count_shard(shard, pat))
            .fold(0usize, usize::saturating_add);
        let mut counts = self.counts.write();
        if counts.version != version || counts.by_pattern.len() >= COUNTED_PATTERNS {
            counts.version = version;
            counts.by_pattern.clear();
        }
        counts.by_pattern.insert(*pat, n);
        n
    }

    /// Total triples.
    pub fn triple_count(&self) -> usize {
        self.graph.read().len()
    }

    /// Number of graph shards.
    pub fn num_shards(&self) -> usize {
        self.graph.read().num_shards()
    }

    /// Decode an id (convenience passthrough).
    pub fn decode(&self, id: TermId) -> Option<Term> {
        self.dict.decode(id)
    }

    /// Intern a term (convenience passthrough).
    pub fn encode(&self, term: &Term) -> TermId {
        self.dict.encode(term)
    }

    // ---- vector-store face ----------------------------------------------

    /// Create (or get) a named vector collection of dimension `dim` and
    /// insert `id → vector`.
    pub fn add_vector(&self, collection: &str, id: TermId, vector: &[f32]) {
        let mut map = self.vectors.write();
        let store =
            map.entry(collection.to_string()).or_insert_with(|| VectorStore::new(vector.len()));
        store.insert(id.raw(), vector);
    }

    /// Top-k similarity search over a named collection. Returns hits whose
    /// ids are [`TermId`]s.
    pub fn similarity_search(
        &self,
        collection: &str,
        query: &[f32],
        k: usize,
        metric: Metric,
    ) -> Vec<SearchHit> {
        match self.vectors.read().get(collection) {
            Some(store) => store.search(query, k, metric),
            None => Vec::new(),
        }
    }

    /// Number of vectors in a collection.
    pub fn vector_count(&self, collection: &str) -> usize {
        self.vectors.read().get(collection).map_or(0, |s| s.len())
    }

    /// Build (or rebuild) an IVF approximate index over a collection —
    /// the scale path for the paper's "millions of similarity searches".
    ///
    /// # Panics
    /// Panics if the collection is missing or empty.
    pub fn build_ann_index(&self, collection: &str, nlist: usize, seed: u64) {
        let vectors = self.vectors.read();
        let store = vectors
            .get(collection)
            .unwrap_or_else(|| panic!("unknown vector collection {collection:?}"));
        let index = IvfIndex::build(store, nlist, 8, seed);
        drop(vectors);
        self.ann.write().insert(collection.to_string(), index);
    }

    /// Approximate top-k search over a collection's IVF index (L2).
    /// Falls back to exact search when no index has been built.
    pub fn ann_search(
        &self,
        collection: &str,
        query: &[f32],
        k: usize,
        nprobe: usize,
    ) -> Vec<SearchHit> {
        if let Some(index) = self.ann.read().get(collection) {
            return index.search(query, k, nprobe);
        }
        self.similarity_search(collection, query, k, Metric::L2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_face_round_trip() {
        let ds = Datastore::new(4);
        ds.add_fact(&Term::iri("p:1"), &Term::iri("rdf:type"), &Term::iri("up:Protein"));
        ds.add_fact(&Term::iri("p:1"), &Term::iri("up:sequence"), &Term::str("MSGS"));
        ds.build_indexes();
        assert_eq!(ds.triple_count(), 2);
        let type_id = ds.dictionary().lookup(&Term::iri("rdf:type")).unwrap();
        let pat = TriplePattern::new(None, Some(type_id), None);
        assert_eq!(ds.count_all(&pat), 1);
    }

    /// Every shard's count of `pat`, summed as the planner once did.
    fn per_shard_sum(ds: &Datastore, pat: &TriplePattern) -> usize {
        let graph = ds.graph();
        (0..graph.num_shards())
            .map(|shard| graph.count_shard(shard, pat))
            .fold(0usize, usize::saturating_add)
    }

    /// Patterns over ids `0..ids` (some never interned) in every
    /// combination of bound positions.
    fn patterns(ids: u64) -> Vec<TriplePattern> {
        let choices: Vec<Option<TermId>> =
            std::iter::once(None).chain((0..ids).map(|i| Some(TermId(i)))).collect();
        let mut out = Vec::new();
        for &s in &choices {
            for &p in &choices {
                for &o in &choices {
                    out.push(TriplePattern::new(s, p, o));
                }
            }
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The planner's memoised estimate equals the per-shard sum at
        /// every version, asked once or twice, through ingest batches
        /// that each end in `build_indexes`.
        #[test]
        fn pattern_count_equals_the_per_shard_sum(
            shards in 1usize..6,
            batches in proptest::collection::vec(
                proptest::collection::vec((0u8..6, 0u8..3, 0u8..6), 0..12),
                1..5,
            ),
        ) {
            let ds = Datastore::new(shards);
            let term = |kind: &str, i: u8| Term::iri(format!("{kind}:{i}"));
            let all = patterns(14);
            for batch in &batches {
                for &(s, p, o) in batch {
                    ds.add_fact(&term("s", s), &term("p", p), &term("s", o));
                }
                ds.build_indexes();
                for _asked in 0..2 {
                    for pat in &all {
                        proptest::prop_assert_eq!(ds.pattern_count(pat), per_shard_sum(&ds, pat));
                    }
                }
            }
        }
    }

    #[test]
    fn pattern_count_keeps_a_bounded_memo() {
        let ds = Datastore::new(3);
        for i in 0..40 {
            ds.add_fact(&Term::iri(format!("s:{i}")), &Term::iri("p"), &Term::Int(i % 7));
        }
        ds.build_indexes();
        let p = ds.dictionary().lookup(&Term::iri("p"));
        let asked: Vec<TriplePattern> = (0..COUNTED_PATTERNS as u64 + 100)
            .map(|o| TriplePattern::new(None, p, Some(TermId(o))))
            .collect();
        for pat in asked.iter().chain(&asked) {
            assert_eq!(ds.pattern_count(pat), per_shard_sum(&ds, pat));
            assert!(ds.counts.read().by_pattern.len() <= COUNTED_PATTERNS);
        }
        let all = TriplePattern::new(None, p, None);
        assert_eq!(ds.pattern_count(&all), 40);
    }

    #[test]
    fn vector_face_shares_term_ids() {
        let ds = Datastore::new(2);
        let c1 = ds.encode(&Term::iri("compound:1"));
        let c2 = ds.encode(&Term::iri("compound:2"));
        ds.add_vector("emb", c1, &[1.0, 0.0]);
        ds.add_vector("emb", c2, &[0.0, 1.0]);
        let hits = ds.similarity_search("emb", &[0.9, 0.1], 1, Metric::Cosine);
        assert_eq!(hits[0].id, c1.raw());
        assert_eq!(ds.vector_count("emb"), 2);
        assert_eq!(ds.vector_count("nope"), 0);
    }

    #[test]
    fn feature_face_keyed_by_entity() {
        let ds = Datastore::new(2);
        let c1 = ds.encode(&Term::iri("compound:1"));
        ds.features().set(c1.raw(), "mw", ids_feature::FeatureValue::F64(180.2)).unwrap();
        assert_eq!(ds.features().get_f64(c1.raw(), "mw"), Some(180.2));
    }

    #[test]
    fn missing_collection_search_is_empty() {
        let ds = Datastore::new(2);
        assert!(ds.similarity_search("ghost", &[1.0], 3, Metric::L2).is_empty());
    }

    #[test]
    fn ann_index_falls_back_then_accelerates() {
        let ds = Datastore::new(2);
        let mut rng = ids_simrt::rng::SplitMix64::new(3, 3);
        for i in 0..500u64 {
            let id = ds.encode(&Term::iri(format!("c:{i}")));
            let v: Vec<f32> = (0..8).map(|_| rng.next_f64() as f32).collect();
            ds.add_vector("emb", id, &v);
        }
        let probe: Vec<f32> = (0..8).map(|_| rng.next_f64() as f32).collect();
        // Without an index: exact fallback.
        let exact = ds.ann_search("emb", &probe, 5, 4);
        assert_eq!(exact.len(), 5);
        // With the index and a full probe, results match exact search.
        ds.build_ann_index("emb", 8, 42);
        let approx = ds.ann_search("emb", &probe, 5, 8);
        let exact_ids: Vec<u64> =
            ds.similarity_search("emb", &probe, 5, Metric::L2).iter().map(|h| h.id).collect();
        let approx_ids: Vec<u64> = approx.iter().map(|h| h.id).collect();
        assert_eq!(exact_ids, approx_ids);
    }

    #[test]
    fn keyword_face_indexes_string_literals() {
        let ds = Datastore::new(4);
        ds.add_fact(&Term::iri("p:1"), &Term::iri("up:name"), &Term::str("Adenosine receptor A2a"));
        ds.add_fact(&Term::iri("p:2"), &Term::iri("up:name"), &Term::str("Cannabinoid receptor 1"));
        ds.add_fact(&Term::iri("p:2"), &Term::iri("up:keyword"), &Term::str("GPCR membrane"));
        ds.build_indexes();

        let p1 = ds.dictionary().lookup(&Term::iri("p:1")).unwrap();
        let p2 = ds.dictionary().lookup(&Term::iri("p:2")).unwrap();

        let hits = ds.keyword_search("receptor");
        let subjects: std::collections::HashSet<TermId> = hits.iter().map(|h| h.subject).collect();
        assert_eq!(subjects, std::collections::HashSet::from([p1, p2]));
        assert_eq!(ds.keyword_search_all(&["receptor", "gpcr"]), vec![p2]);
        assert!(ds.keyword_search("dopamine").is_empty());

        // Re-ingesting and rebuilding refreshes the index.
        ds.add_fact(&Term::iri("p:3"), &Term::iri("up:name"), &Term::str("Dopamine receptor D2"));
        ds.build_indexes();
        assert_eq!(ds.keyword_search("dopamine").len(), 1);
    }
}
