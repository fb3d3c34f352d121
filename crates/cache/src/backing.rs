//! The authoritative persistent backing store (DAOS/Lustre stand-in).
//!
//! "Authoritative copies remain in persistent backing storage (e.g.,
//! DAOS); if a cache node fails its in-memory/SSD contents are lost but
//! can be re-populated from the backing store" (§3.2). The store is a
//! durable key-value map with a parallel-filesystem-like cost model:
//! high per-op latency (metadata RPC) plus modest streaming bandwidth.
//!
//! Every object is stored as the [`Sealed`] payload its writer made, so a
//! corrupted authoritative copy (simulated via [`BackingStore::corrupt`]
//! or a torn write that was not re-written) is *detected* at read time
//! rather than silently served — the cache manager then repairs it from
//! a healthy cached replica instead of propagating the damage. The store
//! never hashes on write; [`BackingStore::get_checked`] re-hashes once
//! per read and releases the bytes only when they match.

use crate::object::Sealed;
use bytes::Bytes;
use ids_simrt::sync::{read, write};
use std::collections::HashMap;
use std::sync::RwLock;

/// Cost parameters for the backing store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackingCosts {
    /// Per-operation latency (metadata + RPC), seconds.
    pub op_latency: f64,
    /// Streaming bandwidth, bytes/second.
    pub bandwidth: f64,
}

impl Default for BackingCosts {
    fn default() -> Self {
        // Lustre-class: ~1 ms per op, 2 GB/s per client stream.
        Self { op_latency: 1.0e-3, bandwidth: 2.0e9 }
    }
}

/// An access result: payload (for reads) plus virtual cost.
#[derive(Debug, Clone, PartialEq)]
pub struct BackingAccess<T> {
    pub value: T,
    pub virtual_secs: f64,
}

/// A read that was verified against the stored checksum. Only an
/// intact read carries bytes, so a corrupt payload cannot be served.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifiedRead {
    /// The payload matches the checksum recorded at write time; the seal
    /// carries that checksum, so re-caching it needs no second hash.
    Intact(Sealed),
    /// The payload no longer matches its recorded checksum; the bytes
    /// are withheld.
    Corrupt {
        /// Size of the payload that was hashed.
        size: u64,
    },
}

impl VerifiedRead {
    /// Bytes the verification hashed.
    pub fn size(&self) -> u64 {
        match self {
            VerifiedRead::Intact(sealed) => sealed.size(),
            VerifiedRead::Corrupt { size } => *size,
        }
    }

    /// The sealed payload of an intact read.
    pub fn intact(self) -> Option<Sealed> {
        match self {
            VerifiedRead::Intact(sealed) => Some(sealed),
            VerifiedRead::Corrupt { .. } => None,
        }
    }
}

/// The persistent object store.
pub struct BackingStore {
    costs: BackingCosts,
    /// Each payload with the checksum recorded when it was sealed;
    /// [`BackingStore::corrupt`] deliberately leaves that checksum stale
    /// so reads detect the damage.
    objects: RwLock<HashMap<String, Sealed>>,
}

impl BackingStore {
    /// A store with the given cost model.
    pub fn new(costs: BackingCosts) -> Self {
        Self { costs, objects: RwLock::new(HashMap::new()) }
    }

    /// Lustre-like defaults.
    pub fn default_store() -> Self {
        Self::new(BackingCosts::default())
    }

    /// Persist an object (overwrites) under the checksum its seal
    /// already carries.
    pub fn put(&self, name: &str, sealed: Sealed) -> BackingAccess<()> {
        let cost = self.io_cost(&sealed);
        write(&self.objects).insert(name.to_string(), sealed);
        BackingAccess { value: (), virtual_secs: cost }
    }

    /// Fetch an object; `None` (with the metadata-lookup cost) if absent.
    pub fn get(&self, name: &str) -> BackingAccess<Option<Bytes>> {
        let objects = read(&self.objects);
        match objects.get(name) {
            Some(s) => {
                BackingAccess { virtual_secs: self.io_cost(s), value: Some(s.bytes().clone()) }
            }
            None => BackingAccess { value: None, virtual_secs: self.costs.op_latency },
        }
    }

    /// Fetch an object *and* verify it against the stored checksum (one
    /// hash of the payload). A mismatch yields [`VerifiedRead::Corrupt`],
    /// which carries no bytes — repair it from a healthy replica (or
    /// error) instead.
    pub fn get_checked(&self, name: &str) -> BackingAccess<Option<VerifiedRead>> {
        let objects = read(&self.objects);
        match objects.get(name) {
            Some(s) => BackingAccess {
                virtual_secs: self.io_cost(s),
                value: Some(if s.verify() {
                    VerifiedRead::Intact(s.clone())
                } else {
                    VerifiedRead::Corrupt { size: s.size() }
                }),
            },
            None => BackingAccess { value: None, virtual_secs: self.costs.op_latency },
        }
    }

    fn io_cost(&self, s: &Sealed) -> f64 {
        self.costs.op_latency + s.size() as f64 / self.costs.bandwidth
    }

    /// The CRC32 recorded for an object at write time.
    pub fn checksum(&self, name: &str) -> Option<u32> {
        read(&self.objects).get(name).map(Sealed::checksum)
    }

    /// Chaos/test hook: flip one bit of the stored payload *without*
    /// updating the recorded checksum — a latent corruption that reads
    /// and scrubs must detect. Returns false when the object is absent
    /// or empty (nothing to flip).
    pub fn corrupt(&self, name: &str) -> bool {
        let mut objects = write(&self.objects);
        let Some(s) = objects.get_mut(name) else { return false };
        let Some(rotted) = s.with_flipped_bit() else { return false };
        *s = rotted;
        true
    }

    /// Whether an object exists (metadata-only cost).
    pub fn contains(&self, name: &str) -> BackingAccess<bool> {
        BackingAccess {
            value: read(&self.objects).contains_key(name),
            virtual_secs: self.costs.op_latency,
        }
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        read(&self.objects).len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        read(&self.objects).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sealed(bytes: &'static [u8]) -> Sealed {
        Sealed::seal(Bytes::from_static(bytes))
    }

    fn zeros(n: usize) -> Sealed {
        Sealed::seal(Bytes::from(vec![0u8; n]))
    }

    #[test]
    fn put_get_round_trip() {
        let bs = BackingStore::default_store();
        bs.put("vina/a", sealed(b"pose-data"));
        let got = bs.get("vina/a");
        assert_eq!(got.value.as_deref(), Some(&b"pose-data"[..]));
        assert_eq!(bs.get("vina/missing").value, None);
    }

    #[test]
    fn costs_scale_with_size() {
        let bs = BackingStore::default_store();
        bs.put("small", zeros(1 << 10));
        bs.put("large", zeros(1 << 26));
        let small = bs.get("small").virtual_secs;
        let large = bs.get("large").virtual_secs;
        assert!(large > small * 10.0, "large {large} vs small {small}");
        // Both dominated by at least the op latency.
        assert!(small >= 1.0e-3);
    }

    #[test]
    fn contains_is_metadata_only() {
        let bs = BackingStore::default_store();
        bs.put("x", zeros(1 << 26));
        let c = bs.contains("x");
        assert!(c.value);
        assert!(c.virtual_secs < bs.get("x").virtual_secs);
    }

    #[test]
    fn overwrite_replaces() {
        let bs = BackingStore::default_store();
        bs.put("k", sealed(b"v1"));
        bs.put("k", sealed(b"v2"));
        assert_eq!(bs.get("k").value.as_deref(), Some(&b"v2"[..]));
        assert_eq!(bs.len(), 1);
    }

    #[test]
    fn checked_reads_verify_integrity() {
        let bs = BackingStore::default_store();
        bs.put("k", sealed(b"payload"));
        let clean = bs.get_checked("k").value.unwrap();
        assert_eq!(clean.size(), 7);
        let clean = clean.intact().expect("a fresh write reads back intact");
        assert_eq!(&clean.bytes()[..], b"payload");
        assert_eq!(clean.checksum(), sealed(b"payload").checksum());
        assert_eq!(bs.checksum("k"), Some(clean.checksum()));
        assert_eq!(bs.get_checked("ghost").value, None);
    }

    #[test]
    fn corruption_is_detected_and_rewrite_heals() {
        let bs = BackingStore::default_store();
        bs.put("k", sealed(b"payload"));
        assert!(bs.corrupt("k"));
        let rotted = bs.get_checked("k").value.unwrap();
        assert_eq!(
            rotted,
            VerifiedRead::Corrupt { size: 7 },
            "stale checksum must flag the flipped bit"
        );
        assert_ne!(bs.get("k").value.as_deref(), Some(&b"payload"[..]));
        // A fresh write (repair from a healthy replica) restores integrity.
        bs.put("k", sealed(b"payload"));
        assert!(bs.get_checked("k").value.unwrap().intact().is_some());
        // Absent/empty objects can't be corrupted.
        assert!(!bs.corrupt("ghost"));
        bs.put("empty", Sealed::seal(Bytes::new()));
        assert!(!bs.corrupt("empty"));
    }
}
