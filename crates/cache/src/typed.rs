//! Typed cache objects for semantic result reuse.
//!
//! The service layer (ids-serve) caches *intermediate solution sets* —
//! the per-rank binding tables an executing plan holds at a checkpoint —
//! keyed by a canonical plan-fragment fingerprint. This module defines the
//! wire format those objects use inside the byte-addressed cache tiers:
//! a versioned, length-checked, little-endian encoding that round-trips
//! the per-rank partitioning exactly, so a query resumed from a cached
//! checkpoint produces byte-identical output to one that executed the
//! fragment itself.
//!
//! Decoding is total: corrupt or truncated bytes (possible under the
//! storage fault plane before checksums catch them) surface as a
//! [`TypedError`], never a panic, and callers treat them as cache misses.

use bytes::Bytes;
use std::fmt;

/// Magic prefix for intermediate-solution objects (`IDSI` little-endian).
const MAGIC: u32 = 0x4953_4449;
/// Current encoding version. Version 2 switched the row payload from
/// row-major `u64` cells to per-variable columns at the narrowest
/// sufficient width (a `u32` column costs half the bytes), matching the
/// per-rank column widths of the engine's stage layout
/// (`ids_graph::StageBatch`) and making
/// [`IntermediateSolutions::encoded_len`] exact.
const VERSION: u16 = 2;
/// Hard cap on declared counts, so corrupt headers cannot trigger huge
/// allocations before the length checks run.
const MAX_DECLARED: u64 = 1 << 32;
/// Rows in a zero-variable set occupy no payload bytes, so the usual
/// "declared count fits the remaining buffer" check cannot bound them;
/// cap them outright (the engine only ever produces one such row — the
/// empty-schema unit solution).
const MAX_EMPTY_SCHEMA_ROWS: u64 = 1 << 16;

/// One column-named binding table, mirroring `ids_graph::SolutionSet` but
/// decoupled from it so the cache crate stays reusable: rows are dense
/// `u64` term ids in schema order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypedSolutionSet {
    /// Variable (column) names, in canonical fragment naming.
    pub vars: Vec<String>,
    /// Rows of dictionary-encoded term ids; every row has `vars.len()` entries.
    pub rows: Vec<Vec<u64>>,
}

/// A per-rank-partitioned set of intermediate solutions at a plan
/// checkpoint, plus the bookkeeping the engine needs to resume past it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntermediateSolutions {
    /// Fingerprint of the plan fragment that produced this state. Verified
    /// on load so a (vanishingly unlikely) key collision is detected
    /// instead of silently resuming from a foreign query's state.
    pub fingerprint: u64,
    /// Per-rank solution counts *before* the WHERE filter ran — needed by
    /// EXPLAIN's selectivity accounting when the filter stage is skipped.
    pub pre_filter_counts: Vec<u64>,
    /// One entry per rank, in rank order.
    pub sets: Vec<TypedSolutionSet>,
}

/// Why a typed object failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypedError {
    /// The buffer does not start with the expected magic/version.
    BadHeader,
    /// The buffer ended before the declared contents.
    Truncated,
    /// A declared length is implausible (corrupt header).
    LengthOverflow,
    /// A variable name was not valid UTF-8.
    BadVarName,
    /// A column carried an unknown width tag (corrupt payload).
    BadColumnTag,
    /// The object decoded, but carries a different fragment fingerprint
    /// than the caller expected (cache-key collision).
    FingerprintMismatch {
        /// Fingerprint the caller looked up.
        expected: u64,
        /// Fingerprint stored in the object.
        found: u64,
    },
}

impl fmt::Display for TypedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypedError::BadHeader => write!(f, "typed object: bad magic or version"),
            TypedError::Truncated => write!(f, "typed object: truncated payload"),
            TypedError::LengthOverflow => write!(f, "typed object: implausible declared length"),
            TypedError::BadVarName => write!(f, "typed object: non-UTF-8 variable name"),
            TypedError::BadColumnTag => write!(f, "typed object: unknown column width tag"),
            TypedError::FingerprintMismatch { expected, found } => write!(
                f,
                "typed object: fingerprint mismatch (expected {expected:#018x}, found {found:#018x})"
            ),
        }
    }
}

impl std::error::Error for TypedError {}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], TypedError> {
        let end = self.pos.checked_add(n).ok_or(TypedError::LengthOverflow)?;
        if end > self.buf.len() {
            return Err(TypedError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u16(&mut self) -> Result<u16, TypedError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, TypedError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, TypedError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// A declared element count, sanity-capped and checked against the
    /// bytes actually remaining (each element occupies ≥ `min_elem_bytes`).
    fn count(&mut self, min_elem_bytes: usize) -> Result<usize, TypedError> {
        let n = self.u64()?;
        if n > MAX_DECLARED {
            return Err(TypedError::LengthOverflow);
        }
        let need = (n as usize).checked_mul(min_elem_bytes).ok_or(TypedError::LengthOverflow)?;
        if self.buf.len() - self.pos < need {
            return Err(TypedError::Truncated);
        }
        Ok(n as usize)
    }
}

impl TypedSolutionSet {
    /// Wire width (4 or 8 bytes) of column `c`: 4 unless some id in the
    /// column overflows `u32`.
    fn column_width(&self, c: usize) -> u64 {
        if self.rows.iter().any(|r| r[c] > u64::from(u32::MAX)) {
            8
        } else {
            4
        }
    }

    /// Exact encoded size of this set's section of the wire format.
    fn encoded_len(&self) -> usize {
        let mut total = 2 + 8; // var count + row count
        for (c, v) in self.vars.iter().enumerate() {
            total += 2 + v.len(); // name length + bytes
            total += 1 + self.rows.len() * self.column_width(c) as usize; // tag + values
        }
        total
    }
}

impl IntermediateSolutions {
    /// Serialize to the versioned columnar wire format.
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.fingerprint.to_le_bytes());
        out.extend_from_slice(&(self.pre_filter_counts.len() as u64).to_le_bytes());
        for &c in &self.pre_filter_counts {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out.extend_from_slice(&(self.sets.len() as u64).to_le_bytes());
        for set in &self.sets {
            out.extend_from_slice(&(set.vars.len() as u16).to_le_bytes());
            for v in &set.vars {
                out.extend_from_slice(&(v.len() as u16).to_le_bytes());
                out.extend_from_slice(v.as_bytes());
            }
            out.extend_from_slice(&(set.rows.len() as u64).to_le_bytes());
            for c in 0..set.vars.len() {
                let width = set.column_width(c);
                out.push(width as u8);
                for row in &set.rows {
                    debug_assert_eq!(row.len(), set.vars.len(), "row width must match schema");
                    if width == 4 {
                        out.extend_from_slice(&(row[c] as u32).to_le_bytes());
                    } else {
                        out.extend_from_slice(&row[c].to_le_bytes());
                    }
                }
            }
        }
        debug_assert_eq!(out.len(), self.encoded_len(), "encoded_len must be exact");
        Bytes::from(out)
    }

    /// Parse from bytes, verifying structure and the expected fragment
    /// fingerprint. Never panics on malformed input.
    pub fn decode(bytes: &[u8], expected_fingerprint: u64) -> Result<Self, TypedError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        if r.u32()? != MAGIC || r.u16()? != VERSION {
            return Err(TypedError::BadHeader);
        }
        let fingerprint = r.u64()?;
        if fingerprint != expected_fingerprint {
            return Err(TypedError::FingerprintMismatch {
                expected: expected_fingerprint,
                found: fingerprint,
            });
        }
        let n_pre = r.count(8)?;
        let mut pre_filter_counts = Vec::with_capacity(n_pre);
        for _ in 0..n_pre {
            pre_filter_counts.push(r.u64()?);
        }
        let n_sets = r.count(2)?;
        let mut sets = Vec::with_capacity(n_sets);
        for _ in 0..n_sets {
            let n_vars = r.u16()? as usize;
            let mut vars = Vec::with_capacity(n_vars);
            for _ in 0..n_vars {
                let len = r.u16()? as usize;
                let raw = r.take(len)?;
                vars.push(
                    std::str::from_utf8(raw).map_err(|_| TypedError::BadVarName)?.to_string(),
                );
            }
            let n_rows = if n_vars == 0 {
                // Zero-width rows carry no payload bytes to length-check
                // against; bound the declared count directly.
                let n = r.u64()?;
                if n > MAX_EMPTY_SCHEMA_ROWS {
                    return Err(TypedError::LengthOverflow);
                }
                n as usize
            } else {
                // Lower bound: one tag byte per column plus 4 bytes per cell.
                r.count(n_vars * 4)?
            };
            let mut rows = vec![vec![0u64; n_vars]; n_rows];
            for c in 0..n_vars {
                let width = r.take(1)?[0];
                match width {
                    4 => {
                        for row in rows.iter_mut() {
                            row[c] = u64::from(r.u32()?);
                        }
                    }
                    8 => {
                        for row in rows.iter_mut() {
                            row[c] = r.u64()?;
                        }
                    }
                    _ => return Err(TypedError::BadColumnTag),
                }
            }
            sets.push(TypedSolutionSet { vars, rows });
        }
        Ok(Self { fingerprint, pre_filter_counts, sets })
    }

    /// Total bindings across all ranks.
    pub fn total_rows(&self) -> usize {
        self.sets.iter().map(|s| s.rows.len()).sum()
    }

    /// Exact encoded size in bytes — `encode().len()` without paying the
    /// encode. Cache-admission caps and size accounting use this, so the
    /// charged size always matches the measured serialized size.
    pub fn encoded_len(&self) -> usize {
        // Header: magic(4) + version(2) + fingerprint(8), then the
        // pre-filter counts and the set count.
        4 + 2
            + 8
            + 8
            + 8 * self.pre_filter_counts.len()
            + 8
            + self.sets.iter().map(TypedSolutionSet::encoded_len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> IntermediateSolutions {
        IntermediateSolutions {
            fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            pre_filter_counts: vec![3, 1, 0, 7],
            sets: vec![
                TypedSolutionSet {
                    vars: vec!["c0".into(), "c1".into()],
                    rows: vec![vec![1, 2], vec![3, 4], vec![5, 6]],
                },
                TypedSolutionSet { vars: vec!["c0".into(), "c1".into()], rows: vec![] },
            ],
        }
    }

    #[test]
    fn round_trips_exactly() {
        let obj = sample();
        let bytes = obj.encode();
        let back = IntermediateSolutions::decode(&bytes, obj.fingerprint).unwrap();
        assert_eq!(back, obj);
        assert_eq!(back.total_rows(), 3);
    }

    #[test]
    fn empty_object_round_trips() {
        let obj = IntermediateSolutions { fingerprint: 1, pre_filter_counts: vec![], sets: vec![] };
        let bytes = obj.encode();
        assert_eq!(IntermediateSolutions::decode(&bytes, 1).unwrap(), obj);
    }

    #[test]
    fn fingerprint_collision_is_detected() {
        let bytes = sample().encode();
        match IntermediateSolutions::decode(&bytes, 42) {
            Err(TypedError::FingerprintMismatch { expected: 42, found }) => {
                assert_eq!(found, 0xDEAD_BEEF_CAFE_F00D);
            }
            other => panic!("expected fingerprint mismatch, got {other:?}"),
        }
    }

    #[test]
    fn encoded_len_is_exact() {
        for obj in [
            sample(),
            IntermediateSolutions { fingerprint: 1, pre_filter_counts: vec![], sets: vec![] },
            IntermediateSolutions {
                fingerprint: 2,
                pre_filter_counts: vec![9],
                sets: vec![TypedSolutionSet {
                    vars: vec!["wide".into(), "narrow".into()],
                    rows: vec![vec![u64::MAX, 3], vec![7, 4]],
                }],
            },
        ] {
            assert_eq!(obj.encode().len(), obj.encoded_len());
        }
    }

    #[test]
    fn wide_ids_round_trip_and_narrow_columns_halve_bytes() {
        let narrow = IntermediateSolutions {
            fingerprint: 5,
            pre_filter_counts: vec![],
            sets: vec![TypedSolutionSet {
                vars: vec!["x".into()],
                rows: (0..100).map(|i| vec![i]).collect(),
            }],
        };
        let wide = IntermediateSolutions {
            fingerprint: 5,
            pre_filter_counts: vec![],
            sets: vec![TypedSolutionSet {
                vars: vec!["x".into()],
                rows: (0..100).map(|i| vec![i + (1 << 40)]).collect(),
            }],
        };
        assert_eq!(wide.encoded_len() - narrow.encoded_len(), 100 * 4);
        for obj in [narrow, wide] {
            let back = IntermediateSolutions::decode(&obj.encode(), 5).unwrap();
            assert_eq!(back, obj);
        }
    }

    #[test]
    fn empty_schema_rows_round_trip_but_absurd_counts_are_rejected() {
        // The engine's unit solution: one row with no columns.
        let obj = IntermediateSolutions {
            fingerprint: 3,
            pre_filter_counts: vec![1],
            sets: vec![TypedSolutionSet { vars: vec![], rows: vec![vec![]] }],
        };
        let bytes = obj.encode();
        assert_eq!(bytes.len(), obj.encoded_len());
        assert_eq!(IntermediateSolutions::decode(&bytes, 3).unwrap(), obj);

        // A corrupted row count for a zero-var set must not allocate.
        let mut corrupt = bytes.to_vec();
        let row_count_at = bytes.len() - 8; // last field is the u64 row count
        corrupt[row_count_at..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            IntermediateSolutions::decode(&corrupt, 3),
            Err(TypedError::LengthOverflow)
        ));
    }

    #[test]
    fn bad_column_tag_is_rejected() {
        let obj = sample();
        let bytes = obj.encode().to_vec();
        // First column tag of the first set: header(14) + pre(8 + 4*8) +
        // nsets(8) + nvars(2) + 2*(2+2 names) + nrows(8).
        let tag_at = 14 + 8 + 32 + 8 + 2 + 8 + 8;
        assert_eq!(bytes[tag_at], 4, "expected the narrow-width tag");
        let mut corrupt = bytes.clone();
        corrupt[tag_at] = 9;
        assert!(matches!(
            IntermediateSolutions::decode(&corrupt, obj.fingerprint),
            Err(TypedError::BadColumnTag)
        ));
    }

    #[test]
    fn truncation_never_panics() {
        let obj = sample();
        let bytes = obj.encode();
        for cut in 0..bytes.len() {
            let r = IntermediateSolutions::decode(&bytes[..cut], obj.fingerprint);
            assert!(r.is_err(), "prefix of {cut} bytes must not decode");
        }
    }

    #[test]
    fn bit_flips_never_panic() {
        let obj = sample();
        let bytes = obj.encode().to_vec();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x80;
            // Any outcome is fine except a panic; most flips must error or
            // decode to *something* structurally valid.
            let _ = IntermediateSolutions::decode(&corrupt, obj.fingerprint);
        }
    }

    #[test]
    fn implausible_counts_rejected_without_allocation() {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&7u64.to_le_bytes());
        out.extend_from_slice(&u64::MAX.to_le_bytes()); // absurd pre-count
        assert!(matches!(
            IntermediateSolutions::decode(&out, 7),
            Err(TypedError::Truncated) | Err(TypedError::LengthOverflow)
        ));
    }
}
