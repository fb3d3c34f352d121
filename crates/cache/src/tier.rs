//! The tier store: the single place where per-tier capacity and
//! occupancy accounting lives.
//!
//! Every DRAM and NVMe tier in the cache manager is a [`TierStore`]:
//! capacity-accounted object residency with policy-driven victim
//! selection, for one tier on one node. All byte accounting (`used`,
//! `capacity`) is mutated *only* inside this module — a CI grep gate
//! rejects occupancy arithmetic anywhere else in `crates/cache` — so
//! the invariant `used == Σ entry sizes ≤ capacity` is enforceable in
//! one place ([`TierStore::check_accounting`]) and the eviction policies
//! (`evict.rs`) stay pure victim-choosers. That check recomputes the sum
//! over every entry, so it runs per operation in debug builds only;
//! release builds run it (and heal any drift) where a full scan already
//! happens — each anti-entropy pass and each `CacheManager::inspect`.
//!
//! Entries hold the [`Sealed`] payload made at ingest — moving one
//! between stores never hashes — plus a `verified` flag used by warm
//! restart: a node recovery wipes DRAM (volatile) but *retains* NVMe
//! entries, marking them unverified until [`TierStore::reverify`]
//! re-hashes them, on their first read or the next anti-entropy scrub.

use crate::evict::{EvictionKind, PolicyState};
use crate::object::Sealed;

/// Which hardware tier a store models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TierKind {
    /// Volatile node DRAM: lost on crash.
    Dram,
    /// Locally attached NVMe: survives a node restart.
    Nvme,
}

impl TierKind {
    /// Stable lowercase label for metrics and dumps.
    pub fn label(self) -> &'static str {
        match self {
            TierKind::Dram => "dram",
            TierKind::Nvme => "nvme",
        }
    }
}

/// One resident cache entry.
#[derive(Debug, Clone)]
pub struct StoredEntry {
    /// The object bytes with the CRC32 recorded when they were sealed.
    pub sealed: Sealed,
    /// False for entries that survived a node restart on a persistent
    /// tier and have not yet been re-verified against their checksum.
    pub verified: bool,
    /// Logical clock of the last access (recency metadata).
    pub last_access: u64,
}

/// The store behind every DRAM/NVMe tier of every cache node.
#[derive(Debug)]
pub struct TierStore {
    kind: TierKind,
    capacity: u64,
    used: u64,
    entries: std::collections::HashMap<String, StoredEntry>,
    policy: PolicyState,
    /// Victims popped over this store's lifetime (satellite metering for
    /// the ordered-index eviction path).
    victim_pops: u64,
}

impl TierStore {
    /// An empty store of `capacity` bytes running `eviction`.
    pub fn new(kind: TierKind, capacity: u64, eviction: EvictionKind) -> Self {
        Self {
            kind,
            capacity,
            used: 0,
            entries: std::collections::HashMap::new(),
            policy: PolicyState::new(eviction),
            victim_pops: 0,
        }
    }

    /// Immutable view of `name`'s entry.
    pub fn get(&self, name: &str) -> Option<&StoredEntry> {
        self.entries.get(name)
    }

    /// Size in bytes of `name`'s entry, if resident.
    pub fn size_of(&self, name: &str) -> Option<u64> {
        self.entries.get(name).map(|e| e.sealed.size())
    }

    /// Resident names in sorted order (deterministic iteration for
    /// anti-entropy and inspection).
    pub fn names_sorted(&self) -> Vec<String> {
        let mut names: Vec<String> = self.entries.keys().cloned().collect();
        names.sort();
        names
    }

    /// Re-hash an entry retained across a warm restart. `None` when
    /// `name` is absent or already verified (nothing is hashed);
    /// otherwise whether the payload still matches its checksum — a match
    /// marks the entry verified, a mismatch leaves it for the caller to
    /// quarantine.
    pub fn reverify(&mut self, name: &str) -> Option<bool> {
        let e = self.entries.get_mut(name).filter(|e| !e.verified)?;
        e.verified = e.sealed.verify();
        Some(e.verified)
    }

    /// Chaos/test hook mirroring `BackingStore::corrupt`: flip one bit of
    /// `name`'s payload *without* updating its recorded checksum. Returns
    /// false when the entry is absent or empty (nothing to flip).
    pub fn corrupt(&mut self, name: &str) -> bool {
        let Some(e) = self.entries.get_mut(name) else { return false };
        let Some(rotted) = e.sealed.with_flipped_bit() else { return false };
        e.sealed = rotted;
        true
    }

    /// Warm restart: keep every entry but drop its verified status, so
    /// the integrity plane re-checks each one lazily before trusting it.
    pub fn mark_all_unverified(&mut self) -> u64 {
        let mut n = 0;
        for e in self.entries.values_mut() {
            if e.verified {
                e.verified = false;
                n += 1;
            }
        }
        n
    }

    /// Entries awaiting re-verification.
    pub fn unverified(&self) -> u64 {
        self.entries.values().filter(|e| !e.verified).count() as u64
    }

    /// Victims popped over this store's lifetime.
    pub fn victim_pops(&self) -> u64 {
        self.victim_pops
    }

    /// The name the policy would evict next, without evicting it (the
    /// TinyLFU admission duel compares candidate vs victim frequency
    /// before deciding whether to displace anything).
    pub fn peek_victim(&self) -> Option<String> {
        self.policy.peek_victim().map(|n| n.to_string())
    }

    /// Sum of entry sizes — `used` recomputed from first principles.
    fn recompute_used(&self) -> u64 {
        self.entries.values().map(|e| e.sealed.size()).sum()
    }

    /// Accounting invariant: `used` equals the sum of entry sizes and
    /// never exceeds capacity. Debug builds assert; release builds
    /// self-heal drift instead of panicking. O(entries): see the module
    /// doc for where each build runs it.
    pub fn check_accounting(&mut self) {
        let sum = self.recompute_used();
        debug_assert_eq!(
            self.used,
            sum,
            "{} tier: used={} but entries sum to {sum}",
            self.kind.label(),
            self.used
        );
        debug_assert!(
            self.used <= self.capacity,
            "{} tier: used {} exceeds capacity {}",
            self.kind.label(),
            self.used,
            self.capacity
        );
        if self.used != sum {
            self.used = sum;
        }
    }

    /// Which hardware tier this store models.
    pub fn kind(&self) -> TierKind {
        self.kind
    }

    /// Configured capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently resident.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Would an entry of `size` bytes fit without eviction?
    pub fn fits(&self, size: u64) -> bool {
        self.used + size <= self.capacity
    }

    /// Is `name` resident?
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Insert an entry, replacing any previous copy of `name`. The entry
    /// must fit ([`Self::fits`] after removing the old copy); the
    /// caller makes room first via [`Self::pop_victim`]. Returns
    /// false (and stores nothing) when it cannot fit even alone.
    pub fn insert(&mut self, name: &str, sealed: Sealed, now: u64) -> bool {
        let size = sealed.size();
        if size > self.capacity {
            return false;
        }
        if let Some(old) = self.entries.remove(name) {
            self.used = self.used.saturating_sub(old.sealed.size());
            self.policy.on_remove(name);
        }
        if !self.fits(size) {
            // The caller failed to make room; refuse rather than bust the
            // cap. (The manager's eviction loop prevents this.)
            return false;
        }
        self.used += size;
        self.entries
            .insert(name.to_string(), StoredEntry { sealed, verified: true, last_access: now });
        self.policy.on_insert(name, now);
        true
    }

    /// Remove and return `name`'s entry.
    pub fn remove(&mut self, name: &str) -> Option<StoredEntry> {
        let e = self.entries.remove(name)?;
        self.used = self.used.saturating_sub(e.sealed.size());
        self.policy.on_remove(name);
        Some(e)
    }

    /// Evict the policy's chosen victim and return it.
    pub fn pop_victim(&mut self) -> Option<(String, StoredEntry)> {
        loop {
            let name = self.policy.pop_victim()?;
            // Policy state may lag the entry map (lazy removal); skip
            // names no longer resident.
            let Some(e) = self.entries.remove(&name) else { continue };
            self.used = self.used.saturating_sub(e.sealed.size());
            self.victim_pops += 1;
            return Some((name, e));
        }
    }

    /// Record an access (policy recency/frequency + entry stamp).
    pub fn touch(&mut self, name: &str, now: u64) {
        if let Some(e) = self.entries.get_mut(name) {
            e.last_access = now;
            self.policy.on_access(name, now);
        }
    }

    /// Drop every entry (crash wipe).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.used = 0;
        self.policy.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn payload(n: usize, tag: u8) -> Sealed {
        Sealed::seal(Bytes::from(vec![tag; n]))
    }

    #[test]
    fn insert_remove_keeps_exact_accounting() {
        let mut t = TierStore::new(TierKind::Dram, 1000, EvictionKind::Lru);
        assert!(t.insert("a", payload(400, 1), 1));
        assert!(t.insert("b", payload(400, 2), 2));
        assert_eq!(t.used(), 800);
        assert!(!t.fits(400));
        // Overwrite replaces, not adds.
        assert!(t.insert("a", payload(100, 3), 3));
        assert_eq!(t.used(), 500);
        assert_eq!(t.remove("b").map(|e| e.sealed.size()), Some(400));
        assert_eq!(t.used(), 100);
        t.check_accounting();
    }

    #[test]
    fn insert_refuses_rather_than_busting_the_cap() {
        let mut t = TierStore::new(TierKind::Nvme, 100, EvictionKind::Lru);
        assert!(!t.insert("big", payload(200, 1), 1), "oversized alone");
        assert!(t.insert("a", payload(80, 1), 1));
        assert!(!t.insert("b", payload(50, 2), 2), "no room and no eviction ran");
        assert_eq!(t.used(), 80);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn lru_victims_come_out_in_recency_order() {
        let mut t = TierStore::new(TierKind::Dram, 10_000, EvictionKind::Lru);
        t.insert("a", payload(10, 1), 1);
        t.insert("b", payload(10, 2), 2);
        t.insert("c", payload(10, 3), 3);
        t.touch("a", 4); // refresh a → b is now the LRU
        let (v1, _) = t.pop_victim().unwrap();
        assert_eq!(v1, "b");
        let (v2, _) = t.pop_victim().unwrap();
        assert_eq!(v2, "c");
        assert_eq!(t.victim_pops(), 2);
    }

    #[test]
    fn warm_restart_marks_unverified_then_reverifies() {
        let mut t = TierStore::new(TierKind::Nvme, 1000, EvictionKind::Lru);
        t.insert("x", payload(10, 1), 1);
        t.insert("y", payload(10, 2), 2);
        assert_eq!(t.unverified(), 0);
        assert_eq!(t.mark_all_unverified(), 2);
        assert_eq!(t.unverified(), 2);
        assert_eq!(t.reverify("x"), Some(true));
        assert_eq!(t.reverify("x"), None, "already verified: nothing to hash");
        assert_eq!(t.unverified(), 1);
        // A retained entry that rotted while the node was down fails its
        // re-check and stays unverified.
        assert!(t.corrupt("y"));
        assert_eq!(t.reverify("y"), Some(false));
        assert_eq!(t.unverified(), 1);
        assert!(!t.corrupt("ghost"));
    }
}
