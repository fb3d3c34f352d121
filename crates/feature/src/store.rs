//! Typed feature columns keyed by entity id.

use parking_lot::RwLock;
use std::collections::HashMap;

/// A single feature value.
#[derive(Debug, Clone, PartialEq)]
pub enum FeatureValue {
    F64(f64),
    I64(i64),
    Str(String),
    Bool(bool),
}

impl FeatureValue {
    /// Numeric view (F64/I64 only).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            FeatureValue::F64(v) => Some(*v),
            FeatureValue::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            FeatureValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            FeatureValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Discriminant name for schema checks.
    fn kind(&self) -> &'static str {
        match self {
            FeatureValue::F64(_) => "f64",
            FeatureValue::I64(_) => "i64",
            FeatureValue::Str(_) => "str",
            FeatureValue::Bool(_) => "bool",
        }
    }
}

/// Error raised when a write violates a column's established type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError {
    pub column: String,
    pub expected: &'static str,
    pub got: &'static str,
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "column {:?} holds {} values, got {}", self.column, self.expected, self.got)
    }
}

impl std::error::Error for SchemaError {}

/// One typed column: `(type tag, entity id → value)`.
type Column = (u32, HashMap<u64, FeatureValue>);

/// A thread-safe feature store: `column name → (entity id → value)`.
///
/// Columns are typed by first write; later writes of a different kind are
/// rejected, so downstream UDFs can rely on uniform columns.
#[derive(Debug, Default)]
pub struct FeatureStore {
    columns: RwLock<HashMap<String, Column>>,
}

// Column type tags stored alongside the data.
fn kind_tag(kind: &'static str) -> u32 {
    match kind {
        "f64" => 0,
        "i64" => 1,
        "str" => 2,
        _ => 3,
    }
}

impl FeatureStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set a feature value. The first write to a column fixes its type.
    pub fn set(&self, entity: u64, column: &str, value: FeatureValue) -> Result<(), SchemaError> {
        let mut cols = self.columns.write();
        match cols.get_mut(column) {
            Some((tag, data)) => {
                if *tag != kind_tag(value.kind()) {
                    let expected = match *tag {
                        0 => "f64",
                        1 => "i64",
                        2 => "str",
                        _ => "bool",
                    };
                    return Err(SchemaError {
                        column: column.to_string(),
                        expected,
                        got: value.kind(),
                    });
                }
                data.insert(entity, value);
            }
            None => {
                let mut data = HashMap::new();
                let tag = kind_tag(value.kind());
                data.insert(entity, value);
                cols.insert(column.to_string(), (tag, data));
            }
        }
        Ok(())
    }

    /// Fetch one feature.
    pub fn get(&self, entity: u64, column: &str) -> Option<FeatureValue> {
        self.columns.read().get(column)?.1.get(&entity).cloned()
    }

    /// Fetch a numeric feature directly.
    pub fn get_f64(&self, entity: u64, column: &str) -> Option<f64> {
        self.get(entity, column)?.as_f64()
    }

    /// Batch fetch one column for many entities (None where absent).
    pub fn get_batch(&self, entities: &[u64], column: &str) -> Vec<Option<FeatureValue>> {
        let cols = self.columns.read();
        match cols.get(column) {
            Some((_, data)) => entities.iter().map(|e| data.get(e).cloned()).collect(),
            None => vec![None; entities.len()],
        }
    }

    /// Number of populated entries in a column.
    pub fn column_len(&self, column: &str) -> usize {
        self.columns.read().get(column).map_or(0, |(_, d)| d.len())
    }

    /// All column names.
    pub fn columns(&self) -> Vec<String> {
        self.columns.read().keys().cloned().collect()
    }

    /// Assemble a numeric feature row for a model input: the named columns
    /// in order, `None` if any is missing or non-numeric for the entity.
    /// This is the classic feature-store "serve a training/inference row"
    /// operation.
    pub fn feature_row(&self, entity: u64, columns: &[&str]) -> Option<Vec<f64>> {
        let cols = self.columns.read();
        let mut row = Vec::with_capacity(columns.len());
        for c in columns {
            let v = cols.get(*c)?.1.get(&entity)?.as_f64()?;
            row.push(v);
        }
        Some(row)
    }

    /// Assemble a numeric feature matrix for many entities. Entities with
    /// incomplete rows are skipped; returns `(kept entity ids, rows)`.
    pub fn feature_matrix(&self, entities: &[u64], columns: &[&str]) -> (Vec<u64>, Vec<Vec<f64>>) {
        let mut ids = Vec::new();
        let mut rows = Vec::new();
        for &e in entities {
            if let Some(row) = self.feature_row(e, columns) {
                ids.push(e);
                rows.push(row);
            }
        }
        (ids, rows)
    }

    /// Column-level statistics (count, mean, min, max) for a numeric
    /// column; `None` for missing or non-numeric columns.
    pub fn column_stats(&self, column: &str) -> Option<ColumnStats> {
        let cols = self.columns.read();
        let (_, data) = cols.get(column)?;
        let mut count = 0usize;
        let mut sum = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for v in data.values() {
            let x = v.as_f64()?; // mixed non-numeric column → None
            count += 1;
            sum += x;
            min = min.min(x);
            max = max.max(x);
        }
        if count == 0 {
            return None;
        }
        Some(ColumnStats { count, mean: sum / count as f64, min, max })
    }
}

/// Summary statistics of a numeric feature column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnStats {
    pub count: usize,
    pub mean: f64,
    pub min: f64,
    pub max: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_round_trip() {
        let fs = FeatureStore::new();
        fs.set(1, "mw", FeatureValue::F64(180.16)).unwrap();
        fs.set(1, "name", FeatureValue::Str("aspirin".into())).unwrap();
        fs.set(1, "reviewed", FeatureValue::Bool(true)).unwrap();
        assert_eq!(fs.get_f64(1, "mw"), Some(180.16));
        assert_eq!(fs.get(1, "name").unwrap().as_str(), Some("aspirin"));
        assert_eq!(fs.get(1, "reviewed").unwrap().as_bool(), Some(true));
        assert_eq!(fs.get(2, "mw"), None);
        assert_eq!(fs.get(1, "missing"), None);
    }

    #[test]
    fn columns_are_typed_by_first_write() {
        let fs = FeatureStore::new();
        fs.set(1, "mw", FeatureValue::F64(1.0)).unwrap();
        let err = fs.set(2, "mw", FeatureValue::Str("oops".into())).unwrap_err();
        assert_eq!(err.expected, "f64");
        assert_eq!(err.got, "str");
        // The bad write did not land.
        assert_eq!(fs.get(2, "mw"), None);
    }

    #[test]
    fn i64_reads_as_f64() {
        let fs = FeatureStore::new();
        fs.set(1, "len", FeatureValue::I64(412)).unwrap();
        assert_eq!(fs.get_f64(1, "len"), Some(412.0));
    }

    #[test]
    fn batch_fetch_preserves_order_and_gaps() {
        let fs = FeatureStore::new();
        fs.set(10, "x", FeatureValue::I64(1)).unwrap();
        fs.set(30, "x", FeatureValue::I64(3)).unwrap();
        let got = fs.get_batch(&[10, 20, 30], "x");
        assert_eq!(got[0], Some(FeatureValue::I64(1)));
        assert_eq!(got[1], None);
        assert_eq!(got[2], Some(FeatureValue::I64(3)));
        assert_eq!(fs.get_batch(&[1, 2], "nope"), vec![None, None]);
    }

    #[test]
    fn overwrite_same_type_is_allowed() {
        let fs = FeatureStore::new();
        fs.set(1, "x", FeatureValue::F64(1.0)).unwrap();
        fs.set(1, "x", FeatureValue::F64(2.0)).unwrap();
        assert_eq!(fs.get_f64(1, "x"), Some(2.0));
        assert_eq!(fs.column_len("x"), 1);
    }

    #[test]
    fn feature_rows_and_matrix() {
        let fs = FeatureStore::new();
        for e in 0..5u64 {
            fs.set(e, "mw", FeatureValue::F64(100.0 + e as f64)).unwrap();
            fs.set(e, "logp", FeatureValue::F64(e as f64 * 0.5)).unwrap();
        }
        // Entity 2 misses a column.
        let fs2 = FeatureStore::new();
        fs2.set(0, "a", FeatureValue::F64(1.0)).unwrap();
        fs2.set(0, "b", FeatureValue::F64(2.0)).unwrap();
        fs2.set(1, "a", FeatureValue::F64(3.0)).unwrap();

        assert_eq!(fs.feature_row(3, &["mw", "logp"]), Some(vec![103.0, 1.5]));
        assert_eq!(fs.feature_row(3, &["mw", "ghost"]), None);
        assert_eq!(fs2.feature_row(1, &["a", "b"]), None, "incomplete row");

        let (ids, rows) = fs2.feature_matrix(&[0, 1, 9], &["a", "b"]);
        assert_eq!(ids, vec![0]);
        assert_eq!(rows, vec![vec![1.0, 2.0]]);
    }

    #[test]
    fn string_features_are_not_numeric_rows() {
        let fs = FeatureStore::new();
        fs.set(1, "name", FeatureValue::Str("aspirin".into())).unwrap();
        assert_eq!(fs.feature_row(1, &["name"]), None);
        assert_eq!(fs.column_stats("name"), None);
    }

    #[test]
    fn column_stats_summarize() {
        let fs = FeatureStore::new();
        for (e, v) in [(1u64, 2.0f64), (2, 4.0), (3, 6.0)] {
            fs.set(e, "x", FeatureValue::F64(v)).unwrap();
        }
        let s = fs.column_stats("x").unwrap();
        assert_eq!(s.count, 3);
        assert!((s.mean - 4.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 6.0);
        assert_eq!(fs.column_stats("ghost"), None);
    }

    #[test]
    fn concurrent_writers_to_distinct_columns() {
        use std::sync::Arc;
        let fs = Arc::new(FeatureStore::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let fs = Arc::clone(&fs);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        fs.set(i, &format!("col{t}"), FeatureValue::I64(i as i64)).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..4 {
            assert_eq!(fs.column_len(&format!("col{t}")), 500);
        }
        assert_eq!(fs.columns().len(), 4);
    }
}
