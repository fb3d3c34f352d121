//! Eviction policies for the tier stores (see `tier.rs`).
//!
//! Three policies are selectable via [`crate::CacheConfig::eviction`]:
//!
//! * [`EvictionKind::Lru`] — classic least-recently-used over an ordered
//!   recency index ([`OrderedRecency`]), replacing the old O(n) full-map
//!   scan per eviction with an O(log n) `BTreeSet` lookup. Victim order
//!   is *identical* to the old scan (`min_by_key((last_access, name))`),
//!   which the proptests assert.
//! * [`EvictionKind::S3Fifo`] — the S3-FIFO scan-resistant policy: a
//!   small probationary FIFO, a main FIFO, and a ghost queue of recently
//!   evicted names. One-hit wonders flow through the small queue and out;
//!   an object re-referenced while in small (or remembered by the ghost)
//!   is promoted to main, so a sequential scan cannot flush the resident
//!   hot set.
//! * [`EvictionKind::TinyLfu`] — LRU victim selection plus a frequency
//!   -sketch admission gate (see `admit.rs`): a candidate only displaces
//!   the LRU victim when its estimated frequency is strictly higher, so
//!   cold scan traffic never erodes a frequently reused resident set.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// Which eviction policy a tier store runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvictionKind {
    /// Least-recently-used (the historical default).
    #[default]
    Lru,
    /// S3-FIFO: small/main/ghost queues, scan-resistant.
    S3Fifo,
    /// TinyLFU: LRU victims gated by a count-min frequency sketch.
    TinyLfu,
}

impl EvictionKind {
    /// Stable lowercase label for metrics, JSON dumps, and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            EvictionKind::Lru => "lru",
            EvictionKind::S3Fifo => "s3fifo",
            EvictionKind::TinyLfu => "tinylfu",
        }
    }

    /// Parse a label produced by [`EvictionKind::label`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lru" => Some(EvictionKind::Lru),
            "s3fifo" => Some(EvictionKind::S3Fifo),
            "tinylfu" => Some(EvictionKind::TinyLfu),
            _ => None,
        }
    }
}

/// Ordered recency index shared by the LRU and TinyLFU policies: an
/// intrusive `(stamp, name)` set whose first element is always the next
/// victim, plus a name → stamp map for O(log n) re-stamping on access.
///
/// Victim order matches the historical full-map scan exactly: the old
/// code picked `min_by_key((last_access, name))`, and `BTreeSet`'s
/// lexicographic ordering over `(u64, String)` is that same order.
#[derive(Debug, Default)]
pub struct OrderedRecency {
    by_stamp: BTreeSet<(u64, String)>,
    stamps: HashMap<String, u64>,
}

impl OrderedRecency {
    /// Record an insert or access of `name` at logical time `stamp`.
    pub fn touch(&mut self, name: &str, stamp: u64) {
        if let Some(old) = self.stamps.insert(name.to_string(), stamp) {
            self.by_stamp.remove(&(old, name.to_string()));
        }
        self.by_stamp.insert((stamp, name.to_string()));
    }

    /// Forget `name` entirely (evicted or explicitly removed).
    pub fn remove(&mut self, name: &str) {
        if let Some(old) = self.stamps.remove(name) {
            self.by_stamp.remove(&(old, name.to_string()));
        }
    }

    /// The least-recently-used name, if any.
    pub fn victim(&self) -> Option<&str> {
        self.by_stamp.iter().next().map(|(_, n)| n.as_str())
    }

    /// Number of tracked names.
    pub fn len(&self) -> usize {
        self.stamps.len()
    }

    /// True when no names are tracked.
    pub fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }

    /// Drop all tracked names.
    pub fn clear(&mut self) {
        self.by_stamp.clear();
        self.stamps.clear();
    }
}

/// S3-FIFO queue state. Frequencies are capped at 3 (two bits in the
/// original design); the ghost queue is bounded to the resident
/// population (the original design sizes it to the main queue), so a
/// scan larger than the cache outruns the ghost window and its entries
/// re-enter through probation instead of resurrecting into main.
#[derive(Debug, Default)]
pub struct S3FifoState {
    small: VecDeque<String>,
    main: VecDeque<String>,
    ghost: VecDeque<String>,
    ghost_set: HashSet<String>,
    freq: HashMap<String, u8>,
}

impl S3FifoState {
    const FREQ_CAP: u8 = 3;

    /// Target size of the small probationary queue: ~10% of residents.
    fn small_target(&self) -> usize {
        ((self.small.len() + self.main.len()) / 10).max(1)
    }

    fn ghost_cap(&self) -> usize {
        (self.small.len() + self.main.len()).max(16)
    }

    fn remember_ghost(&mut self, name: String) {
        if self.ghost_set.insert(name.clone()) {
            self.ghost.push_back(name);
        }
        let cap = self.ghost_cap();
        while self.ghost.len() > cap {
            if let Some(old) = self.ghost.pop_front() {
                self.ghost_set.remove(&old);
            }
        }
    }

    fn on_insert(&mut self, name: &str) {
        self.freq.insert(name.to_string(), 0);
        if self.ghost_set.remove(name) {
            // Recently evicted and back again: skip probation.
            self.ghost.retain(|n| n != name);
            self.main.push_back(name.to_string());
        } else {
            self.small.push_back(name.to_string());
        }
    }

    fn on_access(&mut self, name: &str) {
        if let Some(f) = self.freq.get_mut(name) {
            *f = (*f + 1).min(Self::FREQ_CAP);
        }
    }

    fn on_remove(&mut self, name: &str) {
        if self.freq.remove(name).is_some() {
            self.small.retain(|n| n != name);
            self.main.retain(|n| n != name);
        }
    }

    /// Pick the next eviction victim. Small-queue victims that were
    /// re-referenced during probation graduate to main instead of being
    /// evicted; main-queue victims get [`Self::FREQ_CAP`] "second
    /// chances" (decrement and requeue) before going out.
    fn pop(&mut self) -> Option<String> {
        loop {
            if !self.small.is_empty() && self.small.len() >= self.small_target() {
                let name = self.small.pop_front()?;
                if !self.freq.contains_key(&name) {
                    continue; // stale: removed out of band
                }
                if self.freq.get(&name).copied().unwrap_or(0) > 1 {
                    self.main.push_back(name);
                    continue;
                }
                self.freq.remove(&name);
                self.remember_ghost(name.clone());
                return Some(name);
            }
            let name = self.main.pop_front().or_else(|| self.small.pop_front())?;
            if !self.freq.contains_key(&name) {
                continue;
            }
            let f = self.freq.get(&name).copied().unwrap_or(0);
            if f > 0 {
                self.freq.insert(name.clone(), f - 1);
                self.main.push_back(name);
                continue;
            }
            self.freq.remove(&name);
            self.remember_ghost(name.clone());
            return Some(name);
        }
    }

    fn clear(&mut self) {
        self.small.clear();
        self.main.clear();
        self.ghost.clear();
        self.ghost_set.clear();
        self.freq.clear();
    }
}

/// Per-tier policy state: the bookkeeping a [`EvictionKind`] needs to
/// pick victims without scanning the entry map.
#[derive(Debug)]
pub enum PolicyState {
    /// LRU and TinyLFU both select LRU victims via the ordered index;
    /// TinyLFU's admission gate lives in the cache manager (it needs the
    /// global frequency sketch).
    Recency(OrderedRecency),
    /// S3-FIFO queue state.
    S3Fifo(S3FifoState),
}

impl PolicyState {
    /// Fresh state for `kind`.
    pub fn new(kind: EvictionKind) -> Self {
        match kind {
            EvictionKind::Lru | EvictionKind::TinyLfu => {
                PolicyState::Recency(OrderedRecency::default())
            }
            EvictionKind::S3Fifo => PolicyState::S3Fifo(S3FifoState::default()),
        }
    }

    /// Record a fresh insert of `name` at logical time `stamp`.
    pub fn on_insert(&mut self, name: &str, stamp: u64) {
        match self {
            PolicyState::Recency(r) => r.touch(name, stamp),
            PolicyState::S3Fifo(s) => s.on_insert(name),
        }
    }

    /// Record an access of a resident `name` at logical time `stamp`.
    pub fn on_access(&mut self, name: &str, stamp: u64) {
        match self {
            PolicyState::Recency(r) => r.touch(name, stamp),
            PolicyState::S3Fifo(s) => s.on_access(name),
        }
    }

    /// Forget `name` (eviction, overwrite, invalidation).
    pub fn on_remove(&mut self, name: &str) {
        match self {
            PolicyState::Recency(r) => r.remove(name),
            PolicyState::S3Fifo(s) => s.on_remove(name),
        }
    }

    /// Pick and forget the next victim.
    pub fn pop_victim(&mut self) -> Option<String> {
        match self {
            PolicyState::Recency(r) => {
                let name = r.victim()?.to_string();
                r.remove(&name);
                Some(name)
            }
            PolicyState::S3Fifo(s) => s.pop(),
        }
    }

    /// Peek at the next victim without forgetting it (advisory only for
    /// S3-FIFO, exact for the recency index).
    pub fn peek_victim(&self) -> Option<&str> {
        match self {
            PolicyState::Recency(r) => r.victim(),
            PolicyState::S3Fifo(s) => {
                if !s.small.is_empty() && s.small.len() >= s.small_target() {
                    s.small.front().map(|n| n.as_str())
                } else {
                    s.main.front().or_else(|| s.small.front()).map(|n| n.as_str())
                }
            }
        }
    }

    /// Drop all state.
    pub fn clear(&mut self) {
        match self {
            PolicyState::Recency(r) => r.clear(),
            PolicyState::S3Fifo(s) => s.clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_recency_matches_min_by_key_scan() {
        let mut idx = OrderedRecency::default();
        let mut naive: HashMap<String, u64> = HashMap::new();
        // Deterministic pseudo-random op sequence.
        let mut x = 0x9e3779b97f4a7c15u64;
        for step in 0..500u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let name = format!("k{}", x % 17);
            if x.is_multiple_of(5) {
                idx.remove(&name);
                naive.remove(&name);
            } else {
                idx.touch(&name, step);
                naive.insert(name, step);
            }
            let expect =
                naive.iter().min_by_key(|(n, s)| (**s, (*n).clone())).map(|(n, _)| n.clone());
            assert_eq!(idx.victim().map(|s| s.to_string()), expect, "step {step}");
        }
    }

    #[test]
    fn s3fifo_protects_rereferenced_entries_from_scans() {
        let mut s = S3FifoState::default();
        // A hot object accessed repeatedly...
        s.on_insert("hot");
        s.on_access("hot");
        s.on_access("hot");
        // ...followed by a scan of one-hit wonders.
        for i in 0..20 {
            s.on_insert(&format!("scan{i}"));
        }
        // Evict 20 entries: every victim must be scan traffic.
        for _ in 0..20 {
            let v = s.pop().expect("victims available");
            assert_ne!(v, "hot", "scan must not flush the hot entry");
        }
        assert!(s.freq.contains_key("hot"), "hot survives the scan");
    }

    #[test]
    fn s3fifo_ghost_resurrections_skip_probation() {
        let mut s = S3FifoState::default();
        s.on_insert("a");
        let v = s.pop().expect("a evicts");
        assert_eq!(v, "a");
        assert!(s.ghost_set.contains("a"));
        s.on_insert("a");
        assert!(s.main.contains(&"a".to_string()), "ghost hit re-enters main");
        assert!(!s.ghost_set.contains("a"));
    }

    #[test]
    fn s3fifo_pop_terminates_when_everything_is_hot() {
        let mut s = S3FifoState::default();
        for i in 0..8 {
            let n = format!("k{i}");
            s.on_insert(&n);
            for _ in 0..5 {
                s.on_access(&n);
            }
        }
        // Even with every frequency saturated, pops terminate and drain.
        for _ in 0..8 {
            assert!(s.pop().is_some());
        }
        assert!(s.pop().is_none());
    }

    #[test]
    fn eviction_kind_labels_round_trip() {
        for kind in [EvictionKind::Lru, EvictionKind::S3Fifo, EvictionKind::TinyLfu] {
            assert_eq!(EvictionKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(EvictionKind::parse("mru"), None);
        assert_eq!(EvictionKind::default(), EvictionKind::Lru);
    }
}
