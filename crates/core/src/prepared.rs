//! Prepared queries: what [`IdsInstance::prepare_run`] derives from a query
//! text — physical plan and reuse checkpoints — kept so the next submission
//! of the same text skips lex, parse, lowering and canonicalisation.
//!
//! Interactive traffic is a few query shapes re-issued over and over, and
//! with `adaptive` off what `prepare_run` builds is a pure function of
//! (text, `reuse` flag, datastore contents, exec options, topology). The
//! cache keys on the first two and is valid for one *plan epoch*, which
//! stands for the rest: when the epoch moves every entry is dropped and
//! rebuilt on demand, so a stale entry is never served. Entries are
//! immutable and handed out as `Arc`s; a run that has to change its plan
//! copies it first (see [`PlanRun`](crate::engine::PlanRun)).
//!
//! Capacity is a constant, not an option: 1024 entries hold ≈ 95 % of a
//! Zipf(1.1) mass over a few thousand texts in ≈ 2 MiB, and
//! eviction is second-chance (CLOCK) because its hit path is one flag
//! write — no allocation, no reordering.
//!
//! [`IdsInstance::prepare_run`]: crate::instance::IdsInstance::prepare_run

use crate::engine::ReusePlan;
use crate::planner::PhysicalPlan;
use ids_obs::{Counter, Gauge, MetricsRegistry};
use std::collections::HashMap;
use std::sync::Arc;

/// What one query text prepares to, under one plan epoch. The AST is not
/// kept: only `exec.adaptive` lowers a cached text again, re-parsing costs
/// it ≈ 1 µs, and ≈ 0.5 KiB × 1024 entries is RSS every instance would pay.
#[derive(Debug)]
pub struct Prepared {
    /// The lowered plan, shared by every run started from this entry.
    pub plan: Arc<PhysicalPlan>,
    /// Reuse checkpoints for the fragments the plan schedules (`None`
    /// unless reuse was requested and a cache is attached).
    pub reuse: Option<Arc<ReusePlan>>,
}

/// Entries held before second-chance eviction starts.
pub(crate) const CAPACITY: usize = 1024;

/// Everything outside the query text that a [`Prepared`] depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PlanEpoch {
    /// [`Datastore::version`](crate::datastore::Datastore::version).
    pub store: u64,
    /// Instance-side counter: bumped whenever exec options or the attached
    /// cache may have changed.
    pub config: u64,
}

struct Slot {
    text: Arc<str>,
    reuse: bool,
    prepared: Arc<Prepared>,
    /// Second-chance bit: set on a hit, cleared as the hand sweeps past.
    referenced: bool,
}

/// Bounded text → [`Prepared`] map for one instance.
pub(crate) struct PreparedCache {
    epoch: Option<PlanEpoch>,
    /// The instance's reuse salt for `epoch`.
    salt: u64,
    /// Slot of each cached text, one map per `reuse` flag so a look-up
    /// borrows the caller's `&str`.
    index: [HashMap<Arc<str>, usize>; 2],
    slots: Vec<Slot>,
    hand: usize,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    stale: Counter,
    entries: Gauge,
}

impl PreparedCache {
    /// An empty cache reporting to `metrics` (the `ids_prepared_*` series
    /// appear with it, so build it on the first prepare, not at launch).
    pub(crate) fn new(metrics: &MetricsRegistry) -> Self {
        Self {
            epoch: None,
            salt: 0,
            index: Default::default(),
            slots: Vec::new(),
            hand: 0,
            hits: metrics.counter("ids_prepared_hits_total"),
            misses: metrics.counter("ids_prepared_misses_total"),
            evictions: metrics.counter("ids_prepared_evictions_total"),
            stale: metrics.counter("ids_prepared_stale_total"),
            entries: metrics.gauge("ids_prepared_entries"),
        }
    }

    /// Make `epoch` current. If it moved, every entry is stale: drop them
    /// all and take the new epoch's reuse salt from `salt`.
    pub(crate) fn enter(&mut self, epoch: PlanEpoch, salt: impl FnOnce() -> u64) {
        if self.epoch == Some(epoch) {
            return;
        }
        self.stale.add(self.slots.len() as u64);
        self.entries.set(0);
        self.index.iter_mut().for_each(HashMap::clear);
        self.slots.clear();
        self.hand = 0;
        self.epoch = Some(epoch);
        self.salt = salt();
    }

    /// The current epoch's reuse salt.
    pub(crate) fn salt(&self) -> u64 {
        self.salt
    }

    /// Look `text` up in the current epoch, counting the hit or miss.
    pub(crate) fn get(&mut self, text: &str, reuse: bool) -> Option<Arc<Prepared>> {
        let slot = self.index[reuse as usize].get(text).and_then(|&i| self.slots.get_mut(i));
        if slot.is_some() { &self.hits } else { &self.misses }.inc();
        slot.map(|s| {
            s.referenced = true;
            s.prepared.clone()
        })
    }

    /// Cache `prepared` under a `text` that [`Self::get`] just missed,
    /// evicting by second chance when full.
    pub(crate) fn insert(&mut self, text: &str, reuse: bool, prepared: Arc<Prepared>) {
        let text: Arc<str> = Arc::from(text);
        let slot = Slot { text: text.clone(), reuse, prepared, referenced: false };
        let at = if self.slots.len() < CAPACITY {
            self.slots.push(slot);
            self.slots.len() - 1
        } else {
            // Sweep: a referenced slot loses its bit and survives this
            // pass; the first unreferenced one is the victim. Terminates
            // within two laps because every visit clears a bit.
            let n = self.slots.len();
            while self.slots[self.hand].referenced {
                self.slots[self.hand].referenced = false;
                self.hand = (self.hand + 1) % n;
            }
            let at = self.hand;
            self.hand = (self.hand + 1) % n;
            let victim = std::mem::replace(&mut self.slots[at], slot);
            self.index[victim.reuse as usize].remove(&victim.text);
            self.evictions.inc();
            at
        };
        self.index[reuse as usize].insert(text, at);
        self.entries.set(self.slots.len() as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> Arc<Prepared> {
        let ast = crate::iql::parse_query("SELECT ?s WHERE { ?s <p:0> ?o . }").unwrap();
        let ds = crate::datastore::Datastore::new(1);
        let plan = Arc::new(crate::planner::lower(&ast, &ds).unwrap());
        Arc::new(Prepared { plan, reuse: None })
    }

    fn cache(metrics: &MetricsRegistry) -> PreparedCache {
        let mut c = PreparedCache::new(metrics);
        c.enter(PlanEpoch { store: 0, config: 0 }, || 7);
        c
    }

    #[test]
    fn reuse_flag_is_part_of_the_key() {
        let m = MetricsRegistry::new();
        let mut c = cache(&m);
        c.insert("q", false, entry());
        assert!(c.get("q", false).is_some());
        assert!(c.get("q", true).is_none());
    }

    #[test]
    fn epoch_change_drops_every_entry_and_refreshes_the_salt() {
        let m = MetricsRegistry::new();
        let mut c = cache(&m);
        c.insert("a", true, entry());
        c.insert("b", true, entry());
        c.enter(PlanEpoch { store: 0, config: 0 }, || unreachable!("epoch did not move"));
        assert!(c.get("a", true).is_some());
        c.enter(PlanEpoch { store: 1, config: 0 }, || 9);
        assert_eq!(c.salt(), 9);
        assert!(c.get("a", true).is_none() && c.get("b", true).is_none());
        let snap = m.snapshot();
        assert_eq!(snap.counter("ids_prepared_stale_total", ""), 2);
        assert_eq!(snap.gauge("ids_prepared_entries", ""), 0);
    }

    #[test]
    fn second_chance_keeps_referenced_entries_and_stays_bounded() {
        let m = MetricsRegistry::new();
        let mut c = cache(&m);
        for i in 0..CAPACITY {
            c.insert(&format!("q{i}"), true, entry());
        }
        // Touch the oldest entry, then overflow by one: the hand clears
        // q0's bit, skips it, and evicts q1.
        assert!(c.get("q0", true).is_some());
        c.insert("fresh", true, entry());
        assert!(c.get("q0", true).is_some(), "referenced entry survived");
        assert!(c.get("q1", true).is_none(), "first unreferenced entry was the victim");
        assert!(c.get("fresh", true).is_some());
        for i in 0..3 * CAPACITY {
            c.insert(&format!("r{i}"), true, entry());
        }
        assert_eq!(c.slots.len(), CAPACITY);
        assert_eq!(c.index[1].len(), CAPACITY);
        let snap = m.snapshot();
        assert_eq!(snap.gauge("ids_prepared_entries", ""), CAPACITY as i64);
        assert_eq!(snap.counter("ids_prepared_evictions_total", ""), 1 + 3 * CAPACITY as u64);
    }
}
