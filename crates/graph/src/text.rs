//! Keyword search over string literals.
//!
//! The paper's unified query semantics "integrates keyword search,
//! set-theoretic operations, and linear-algebraic methods" (§1). This
//! module supplies the keyword third: an inverted index mapping lowercased
//! word tokens of string-literal objects to the `(subject, predicate)`
//! pairs that carry them.

use crate::term::TermId;
use std::collections::{HashMap, HashSet};

/// A keyword posting: which subject carries the token, under which
/// predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Posting {
    pub subject: TermId,
    pub predicate: TermId,
}

/// Inverted index over string literals.
#[derive(Debug, Default)]
pub struct KeywordIndex {
    postings: HashMap<String, Vec<Posting>>,
    documents: usize,
}

/// Lowercase alphanumeric tokenization.
pub fn tokenize(text: &str) -> impl Iterator<Item = String> + '_ {
    text.split(|c: char| !c.is_alphanumeric()).filter(|t| !t.is_empty()).map(|t| t.to_lowercase())
}

impl KeywordIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index one string literal attached to `(subject, predicate)`.
    pub fn add(&mut self, subject: TermId, predicate: TermId, text: &str) {
        self.documents += 1;
        let posting = Posting { subject, predicate };
        let mut seen = HashSet::new();
        for token in tokenize(text) {
            if seen.insert(token.clone()) {
                self.postings.entry(token).or_default().push(posting);
            }
        }
    }

    /// Subjects whose literals contain the token (case-insensitive).
    pub fn search(&self, token: &str) -> Vec<Posting> {
        self.postings.get(&token.to_lowercase()).cloned().unwrap_or_default()
    }

    /// Subjects matching **all** the given tokens (conjunctive search).
    pub fn search_all(&self, tokens: &[&str]) -> Vec<TermId> {
        let mut sets: Vec<HashSet<TermId>> = tokens
            .iter()
            .map(|t| self.search(t).into_iter().map(|p| p.subject).collect())
            .collect();
        sets.sort_by_key(HashSet::len);
        let mut it = sets.into_iter();
        let first = match it.next() {
            Some(s) => s,
            None => return Vec::new(),
        };
        let mut out: Vec<TermId> =
            it.fold(first, |acc, s| acc.intersection(&s).copied().collect()).into_iter().collect();
        out.sort_unstable();
        out
    }

    /// Number of indexed literals.
    pub fn documents(&self) -> usize {
        self.documents
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> KeywordIndex {
        let mut ix = KeywordIndex::new();
        ix.add(TermId(1), TermId(100), "Adenosine receptor A2a");
        ix.add(TermId(2), TermId(100), "Adenosine receptor A1");
        ix.add(TermId(3), TermId(100), "Cannabinoid receptor 1");
        ix.add(TermId(3), TermId(101), "GPCR, adenosine-binding");
        ix
    }

    #[test]
    fn single_token_search_is_case_insensitive() {
        let ix = index();
        let hits = ix.search("ADENOSINE");
        let subjects: HashSet<TermId> = hits.iter().map(|p| p.subject).collect();
        assert_eq!(subjects, HashSet::from([TermId(1), TermId(2), TermId(3)]));
    }

    #[test]
    fn conjunctive_search_intersects() {
        let ix = index();
        // Subject 3 matches via two different literals ("Cannabinoid
        // receptor 1" + "GPCR, adenosine-binding") — conjunction is at
        // subject granularity.
        assert_eq!(
            ix.search_all(&["adenosine", "receptor"]),
            vec![TermId(1), TermId(2), TermId(3)]
        );
        assert_eq!(ix.search_all(&["adenosine", "a2a"]), vec![TermId(1)]);
        // Subject 3 carries both "Cannabinoid receptor 1" and
        // "GPCR, adenosine-binding".
        assert_eq!(ix.search_all(&["adenosine", "cannabinoid"]), vec![TermId(3)]);
        assert!(ix.search_all(&["adenosine", "dopamine"]).is_empty());
        assert!(ix.search_all(&[]).is_empty());
    }

    #[test]
    fn punctuation_splits_tokens() {
        let ix = index();
        assert_eq!(ix.search("binding").len(), 1, "'adenosine-binding' splits");
        assert_eq!(ix.search("gpcr").len(), 1);
    }

    #[test]
    fn duplicate_tokens_in_one_literal_post_once() {
        let mut ix = KeywordIndex::new();
        ix.add(TermId(9), TermId(1), "beta beta beta");
        assert_eq!(ix.search("beta").len(), 1);
    }

    #[test]
    fn stats() {
        let ix = index();
        assert_eq!(ix.documents(), 4);
    }
}
