//! Dynamic values exchanged between the query engine and UDFs.

use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// Process-wide count of numeric comparisons that saw a NaN operand (see
/// [`UdfValue::compare`]). The engine exports this as
/// `ids_udf_nan_comparisons_total` so NaN-producing models/UDFs surface in
/// metrics instead of failing queries.
static NAN_COMPARISONS: AtomicU64 = AtomicU64::new(0);

/// Number of NaN-operand numeric comparisons observed so far.
pub fn nan_comparison_count() -> u64 {
    NAN_COMPARISONS.load(AtomicOrdering::Relaxed)
}

/// A value a UDF can consume or produce.
#[derive(Debug, Clone, PartialEq)]
pub enum UdfValue {
    F64(f64),
    I64(i64),
    Bool(bool),
    Str(String),
    /// A dictionary-encoded term id (opaque to UDFs, resolved by the engine).
    Id(u64),
    /// Absence (unbound variable, missing feature).
    Null,
}

impl UdfValue {
    /// Numeric view (F64/I64).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            UdfValue::F64(v) => Some(*v),
            UdfValue::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Boolean view. Only `Bool` is truthy-capable — no implicit coercion.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            UdfValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            UdfValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Three-way comparison for FILTER operators. Numbers compare
    /// numerically (I64 and F64 interoperate), strings lexically; mixed
    /// kinds return `None`.
    ///
    /// Numeric comparison is a **total order with NaN sorting last**: a
    /// NaN operand compares greater than every non-NaN number (including
    /// `+inf`) and equal to another NaN. A UDF or model that emits NaN
    /// therefore no longer fails the whole query with an
    /// "incomparable values" error — the comparison resolves
    /// deterministically (so `x < threshold` is simply false for NaN `x`)
    /// and the event is counted in the process-wide
    /// [`nan_comparison_count`] rejection metric.
    pub fn compare(&self, other: &UdfValue) -> Option<std::cmp::Ordering> {
        use UdfValue::*;
        match (self, other) {
            (F64(_) | I64(_), F64(_) | I64(_)) => {
                let (a, b) = (self.as_f64()?, other.as_f64()?);
                Some(match (a.is_nan(), b.is_nan()) {
                    // Neither is NaN, so exactly one test holds (and
                    // `-0.0 == 0.0`, as `partial_cmp` has it).
                    (false, false) if a < b => std::cmp::Ordering::Less,
                    (false, false) if a > b => std::cmp::Ordering::Greater,
                    (false, false) => std::cmp::Ordering::Equal,
                    (true, true) => {
                        NAN_COMPARISONS.fetch_add(1, AtomicOrdering::Relaxed);
                        std::cmp::Ordering::Equal
                    }
                    (true, false) => {
                        NAN_COMPARISONS.fetch_add(1, AtomicOrdering::Relaxed);
                        std::cmp::Ordering::Greater
                    }
                    (false, true) => {
                        NAN_COMPARISONS.fetch_add(1, AtomicOrdering::Relaxed);
                        std::cmp::Ordering::Less
                    }
                })
            }
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Id(a), Id(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }
}

impl std::fmt::Display for UdfValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UdfValue::F64(v) => write!(f, "{v}"),
            UdfValue::I64(v) => write!(f, "{v}"),
            UdfValue::Bool(b) => write!(f, "{b}"),
            UdfValue::Str(s) => write!(f, "{s:?}"),
            UdfValue::Id(i) => write!(f, "#{i}"),
            UdfValue::Null => write!(f, "null"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn numeric_interop() {
        assert_eq!(UdfValue::I64(3).compare(&UdfValue::F64(3.5)), Some(Ordering::Less));
        assert_eq!(UdfValue::F64(2.0).compare(&UdfValue::I64(2)), Some(Ordering::Equal));
        assert_eq!(UdfValue::F64(2.5).compare(&UdfValue::I64(2)), Some(Ordering::Greater));
        assert_eq!(UdfValue::F64(-0.0).compare(&UdfValue::F64(0.0)), Some(Ordering::Equal));
    }

    #[test]
    fn mixed_kinds_do_not_compare() {
        assert_eq!(UdfValue::Str("a".into()).compare(&UdfValue::I64(1)), None);
        assert_eq!(UdfValue::Bool(true).compare(&UdfValue::F64(1.0)), None);
        assert_eq!(UdfValue::Id(1).compare(&UdfValue::I64(1)), None);
    }

    #[test]
    fn nan_sorts_last_and_is_counted() {
        let before = nan_comparison_count();
        let nan = UdfValue::F64(f64::NAN);
        assert_eq!(nan.compare(&UdfValue::F64(f64::INFINITY)), Some(Ordering::Greater));
        assert_eq!(UdfValue::F64(f64::INFINITY).compare(&nan), Some(Ordering::Less));
        assert_eq!(nan.compare(&nan), Some(Ordering::Equal));
        assert_eq!(nan.compare(&UdfValue::I64(0)), Some(Ordering::Greater));
        assert_eq!(nan_comparison_count() - before, 4, "each NaN comparison is metered");
    }

    #[test]
    fn views() {
        assert_eq!(UdfValue::I64(7).as_f64(), Some(7.0));
        assert_eq!(UdfValue::Bool(true).as_bool(), Some(true));
        assert_eq!(UdfValue::F64(1.0).as_bool(), None, "no implicit truthiness");
        assert_eq!(UdfValue::Str("x".into()).as_str(), Some("x"));
    }
}
