//! RDF-style terms and their dense encodings.
//!
//! CGE dictionary-encodes every IRI and literal into a fixed-width id
//! ("HURI"); all joins, scans, and exchanges operate on ids. We mirror
//! that: [`TermId`] is a dense `u64`, and [`Term`] is the decoded form that
//! only exists at ingest and result-rendering boundaries. Typed literals
//! (integers, floats, strings) are first-class so FILTER expressions can
//! compare values without string round-trips.

/// Dense identifier assigned by the [`crate::Dictionary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u64);

impl TermId {
    /// The id's raw value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for TermId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A decoded term: an IRI or a typed literal.
///
/// Floats are stored by bit pattern so `Term` is `Eq + Hash` (required for
/// dictionary interning); NaN payloads are normalized at construction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// An IRI / resource identifier, e.g. `uniprot:P29274`.
    Iri(String),
    /// A string literal.
    Str(String),
    /// An integer literal.
    Int(i64),
    /// A float literal (bit-encoded; see [`Term::float`]).
    FloatBits(u64),
}

impl Term {
    /// Construct an IRI term.
    pub fn iri(s: impl Into<String>) -> Term {
        Term::Iri(s.into())
    }

    /// Construct a string literal.
    pub fn str(s: impl Into<String>) -> Term {
        Term::Str(s.into())
    }

    /// Construct a float literal. NaN is normalized to a canonical bit
    /// pattern so equal-looking terms intern to the same id.
    pub fn float(v: f64) -> Term {
        let v = if v.is_nan() { f64::NAN } else { v };
        Term::FloatBits(v.to_bits())
    }

    /// The float value, if this is a float literal.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Term::FloatBits(b) => Some(f64::from_bits(*b)),
            Term::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The integer value, if this is an integer literal.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Term::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The string payload of an IRI or string literal.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Term::Iri(s) | Term::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this term is an IRI.
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }

    /// Stable byte representation for hashing / shard placement.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            Term::Iri(s) => {
                let mut v = vec![0u8];
                v.extend_from_slice(s.as_bytes());
                v
            }
            Term::Str(s) => {
                let mut v = vec![1u8];
                v.extend_from_slice(s.as_bytes());
                v
            }
            Term::Int(i) => {
                let mut v = vec![2u8];
                v.extend_from_slice(&i.to_le_bytes());
                v
            }
            Term::FloatBits(b) => {
                let mut v = vec![3u8];
                v.extend_from_slice(&b.to_le_bytes());
                v
            }
        }
    }
}

impl std::fmt::Display for Term {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Term::Iri(s) => write!(f, "<{s}>"),
            Term::Str(s) => write!(f, "{s:?}"),
            Term::Int(i) => write!(f, "{i}"),
            Term::FloatBits(b) => write!(f, "{}", f64::from_bits(*b)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_terms_intern_consistently() {
        assert_eq!(Term::float(1.5), Term::float(1.5));
        assert_ne!(Term::float(1.5), Term::float(1.5000001));
        // NaN normalizes to one canonical pattern.
        assert_eq!(Term::float(f64::NAN), Term::float(-f64::NAN.abs()));
    }

    #[test]
    fn accessors() {
        assert_eq!(Term::float(2.5).as_f64(), Some(2.5));
        assert_eq!(Term::Int(7).as_f64(), Some(7.0));
        assert_eq!(Term::Int(7).as_i64(), Some(7));
        assert_eq!(Term::iri("x").as_str(), Some("x"));
        assert_eq!(Term::str("y").as_str(), Some("y"));
        assert_eq!(Term::str("y").as_i64(), None);
        assert!(Term::iri("a").is_iri());
        assert!(!Term::str("a").is_iri());
    }

    #[test]
    fn byte_encoding_distinguishes_kinds() {
        // An IRI and a string with the same payload must not collide.
        assert_ne!(Term::iri("abc").to_bytes(), Term::str("abc").to_bytes());
        assert_ne!(Term::Int(1).to_bytes(), Term::float(1.0).to_bytes());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Term::iri("up:P29274").to_string(), "<up:P29274>");
        assert_eq!(Term::Int(42).to_string(), "42");
        assert_eq!(Term::str("hi").to_string(), "\"hi\"");
    }
}
