//! Encoded triples.

use crate::term::TermId;

/// A dictionary-encoded (subject, predicate, object) fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    pub s: TermId,
    pub p: TermId,
    pub o: TermId,
}

impl Triple {
    /// Construct a triple.
    pub fn new(s: TermId, p: TermId, o: TermId) -> Self {
        Self { s, p, o }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_spo_lexicographic() {
        let t1 = Triple::new(TermId(1), TermId(5), TermId(9));
        let t2 = Triple::new(TermId(1), TermId(6), TermId(0));
        let t3 = Triple::new(TermId(2), TermId(0), TermId(0));
        assert!(t1 < t2);
        assert!(t2 < t3);
    }
}
