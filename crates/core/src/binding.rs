//! Bridging solution rows to UDF bindings.
//!
//! Query processing is all dictionary ids; UDFs want typed values
//! (sequences as strings, thresholds as floats). [`RowBindings`] decodes
//! lazily at the UDF boundary: literals decode to their typed value, IRIs
//! stay opaque (`UdfValue::Id`) so UDFs that only route entities don't pay
//! for string materialization.

use ids_graph::batch::BatchView;
use ids_graph::{Dictionary, Term, TermId};
use ids_udf::{Bindings, UdfValue};

/// Bindings view over one solution row.
pub struct RowBindings<'a> {
    vars: &'a [String],
    row: Row<'a>,
    dict: &'a Dictionary,
}

/// Where a [`RowBindings`] reads its ids: a row of its own, or a row of a
/// batch or stage segment, read in place.
enum Row<'a> {
    Ids(&'a [TermId]),
    At(BatchView<'a>, usize),
}

impl<'a> RowBindings<'a> {
    /// Wrap a row with its schema and dictionary.
    pub fn new(vars: &'a [String], row: &'a [TermId], dict: &'a Dictionary) -> Self {
        debug_assert_eq!(vars.len(), row.len());
        Self { vars, row: Row::Ids(row), dict }
    }

    /// Row `i` of `view`, read in place.
    ///
    /// # Panics
    /// Panics (on lookup) if `i` is out of bounds.
    pub fn at(view: BatchView<'a>, i: usize, dict: &'a Dictionary) -> Self {
        Self { vars: view.vars(), row: Row::At(view, i), dict }
    }

    fn id(&self, var: &str) -> Option<TermId> {
        let idx = self.vars.iter().position(|v| v == var)?;
        Some(match self.row {
            Row::Ids(row) => row[idx],
            Row::At(view, i) => TermId(view.column(idx).get(i)),
        })
    }
}

/// Convert a decoded term into a UDF value, moving a string literal's
/// text. IRIs keep their id (entities are opaque to UDFs); literals decode
/// to typed values.
pub fn term_to_value(term: Term, id: TermId) -> UdfValue {
    match term {
        Term::Iri(_) => UdfValue::Id(id.raw()),
        Term::Str(s) => UdfValue::Str(s),
        Term::Int(i) => UdfValue::I64(i),
        Term::FloatBits(b) => UdfValue::F64(f64::from_bits(b)),
    }
}

impl Bindings for RowBindings<'_> {
    fn get(&self, var: &str) -> Option<UdfValue> {
        let id = self.id(var)?;
        Some(term_to_value(self.dict.decode(id)?, id))
    }

    /// The row's dictionary id: one id is one term for the dictionary's
    /// life.
    fn key(&self, var: &str) -> Option<u64> {
        self.id(var).map(TermId::raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_literals_keeps_iris_opaque() {
        let dict = Dictionary::new();
        let p = dict.iri("protein:1");
        let seq = dict.str("MSGS");
        let score = dict.float(0.92);
        let count = dict.int(42);
        let vars = vec!["p".to_string(), "seq".to_string(), "score".to_string(), "n".to_string()];
        let row = vec![p, seq, score, count];
        let b = RowBindings::new(&vars, &row, &dict);
        assert_eq!(b.get("p"), Some(UdfValue::Id(p.raw())));
        assert_eq!(b.get("seq"), Some(UdfValue::Str("MSGS".into())));
        assert_eq!(b.get("score"), Some(UdfValue::F64(0.92)));
        assert_eq!(b.get("n"), Some(UdfValue::I64(42)));
        assert_eq!(b.get("missing"), None);
        assert_eq!(b.key("seq"), Some(seq.raw()));
        assert_eq!(b.key("missing"), None);
    }
}
