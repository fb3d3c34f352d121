//! The dictionary: bidirectional term ↔ id interning.
//!
//! Sharded for concurrent ingest: the term's content hash selects one of
//! `SHARDS` independently locked maps, so parallel loaders rarely contend.
//! Ids are dense per shard with the shard index in the low bits, which
//! keeps decode O(1) without a global lock.

use crate::term::{Term, TermId};
use ids_simrt::rng::fnv1a;
use ids_simrt::sync::{read, write};
use std::collections::HashMap;
use std::sync::RwLock;

const SHARD_BITS: u32 = 4;
const SHARDS: usize = 1 << SHARD_BITS;

struct Shard {
    map: HashMap<Term, u64>,
    terms: Vec<Term>,
}

/// Thread-safe interner mapping [`Term`]s to dense [`TermId`]s and back.
pub struct Dictionary {
    shards: [RwLock<Shard>; SHARDS],
}

impl Default for Dictionary {
    fn default() -> Self {
        Self::new()
    }
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self {
            shards: std::array::from_fn(|_| {
                RwLock::new(Shard { map: HashMap::new(), terms: Vec::new() })
            }),
        }
    }

    #[inline]
    fn shard_of(term: &Term) -> usize {
        (fnv1a(&term.to_bytes()) as usize) & (SHARDS - 1)
    }

    /// Intern a term, returning its id (existing or newly assigned).
    pub fn encode(&self, term: &Term) -> TermId {
        let si = Self::shard_of(term);
        // Fast path: read lock.
        if let Some(&local) = read(&self.shards[si]).map.get(term) {
            return TermId(local << SHARD_BITS | si as u64);
        }
        let mut shard = write(&self.shards[si]);
        if let Some(&local) = shard.map.get(term) {
            return TermId(local << SHARD_BITS | si as u64);
        }
        let local = shard.terms.len() as u64;
        shard.terms.push(term.clone());
        shard.map.insert(term.clone(), local);
        TermId(local << SHARD_BITS | si as u64)
    }

    /// Look up a term's id without interning.
    pub fn lookup(&self, term: &Term) -> Option<TermId> {
        let si = Self::shard_of(term);
        read(&self.shards[si]).map.get(term).map(|&local| TermId(local << SHARD_BITS | si as u64))
    }

    /// Decode an id back to its term.
    pub fn decode(&self, id: TermId) -> Option<Term> {
        let si = (id.0 & (SHARDS as u64 - 1)) as usize;
        let local = (id.0 >> SHARD_BITS) as usize;
        read(&self.shards[si]).terms.get(local).cloned()
    }

    /// Total interned terms.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| read(s).terms.len()).sum()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Convenience: intern an IRI string.
    pub fn iri(&self, s: &str) -> TermId {
        self.encode(&Term::iri(s))
    }

    /// Convenience: intern a string literal.
    pub fn str(&self, s: &str) -> TermId {
        self.encode(&Term::str(s))
    }

    /// Convenience: intern an integer literal.
    pub fn int(&self, v: i64) -> TermId {
        self.encode(&Term::Int(v))
    }

    /// Convenience: intern a float literal.
    pub fn float(&self, v: f64) -> TermId {
        self.encode(&Term::float(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let d = Dictionary::new();
        let terms = [
            Term::iri("uniprot:P29274"),
            Term::str("adenosine receptor A2a"),
            Term::Int(412),
            Term::float(7.25),
        ];
        for t in &terms {
            let id = d.encode(t);
            assert_eq!(d.decode(id).as_ref(), Some(t));
        }
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn interning_is_idempotent() {
        let d = Dictionary::new();
        let a = d.iri("x:1");
        let b = d.iri("x:1");
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn distinct_terms_get_distinct_ids() {
        let d = Dictionary::new();
        let mut ids = std::collections::HashSet::new();
        for i in 0..10_000 {
            assert!(ids.insert(d.iri(&format!("e:{i}"))), "collision at {i}");
        }
    }

    #[test]
    fn lookup_does_not_intern() {
        let d = Dictionary::new();
        assert_eq!(d.lookup(&Term::iri("missing")), None);
        assert!(d.is_empty());
        let id = d.iri("present");
        assert_eq!(d.lookup(&Term::iri("present")), Some(id));
    }

    #[test]
    fn decode_unknown_is_none() {
        let d = Dictionary::new();
        assert_eq!(d.decode(TermId(999)), None);
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        use std::sync::Arc;
        let d = Arc::new(Dictionary::new());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let d = Arc::clone(&d);
                std::thread::spawn(move || {
                    // Every thread interns the same 1000 terms plus its own.
                    let mut ids = Vec::new();
                    for i in 0..1000 {
                        ids.push(d.iri(&format!("shared:{i}")));
                        d.iri(&format!("own:{t}:{i}"));
                    }
                    ids
                })
            })
            .collect();
        let all: Vec<Vec<TermId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // All threads agree on the shared terms' ids.
        for ids in &all[1..] {
            assert_eq!(ids, &all[0]);
        }
        assert_eq!(d.len(), 1000 + 8 * 1000);
        // Every shared id decodes to the right term.
        for (i, id) in all[0].iter().enumerate() {
            assert_eq!(d.decode(*id), Some(Term::iri(format!("shared:{i}"))));
        }
    }
}
