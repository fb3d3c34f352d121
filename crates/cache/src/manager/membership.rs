//! Node availability: one record per cache node and one transition.
//!
//! Three switches can hold a node down: [`CacheManager::fail_node`]
//! (manual), the attached fault plane's crash windows, and
//! [`CacheManager::fail_node_permanently`]. Each sets its own flag
//! through `transition`, which runs the down or up bookkeeping only when
//! the node's combined availability changes. So one death counts one
//! failure however many switches report it, and a node another switch
//! still holds down never recovers.

use super::{lock, CacheManager, State};
use crate::tier::TierKind;
use ids_simrt::faults::FaultPlane;
use ids_simrt::topology::NodeId;
use std::sync::Arc;

/// What holds one cache node down, and since when.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct Availability {
    manual: bool,    // CacheManager::fail_node
    plane: bool,     // inside a crash window of the attached fault plane
    permanent: bool, // fail_node_permanently: purged, and never back
    down_since: f64, // virtual time the node last went down
}

impl Availability {
    pub(super) fn is_down(&self) -> bool {
        self.manual || self.plane || self.permanent
    }
}

impl CacheManager {
    /// Is `node` currently unavailable (manually failed, permanently
    /// dead, or inside a fault-plane crash window)?
    pub fn node_is_down(&self, node: NodeId) -> bool {
        let mut st = lock(&self.state);
        self.sync_with_plane(&mut st);
        node.index() < self.cfg.cache_nodes && st.is_down(node.index())
    }

    /// Take a cache node down (idempotent). Its entries are *fenced* —
    /// skipped by every lookup — until [`Self::recover_node`], at which
    /// point the crash semantics apply: DRAM contents are lost (volatile)
    /// and re-populate on demand, while NVMe contents survive, pending
    /// checksum re-verification.
    pub fn fail_node(&self, node: NodeId) {
        self.set_switch(node, |a| a.manual = true);
    }

    /// Bring a manually failed node back (idempotent). Its DRAM rejoins
    /// empty (lost in the crash); its NVMe tier rejoins warm, every
    /// retained entry held back until re-verified. A node that the fault
    /// plane or a permanent-death declaration still holds down stays down.
    pub fn recover_node(&self, node: NodeId) {
        self.set_switch(node, |a| a.manual = false);
    }

    /// Declare a cache node permanently dead (idempotent): its DRAM/NVMe
    /// entries are purged immediately — a checkpoint it owned must never
    /// serve a later read, even if some bug resurrected the node — and
    /// survivors are flagged under-replicated so the next anti-entropy
    /// pass restores the replication factor from the remaining copies.
    /// Called by the engine's recovery plane when a compute rank's node
    /// dies with no recovery window.
    pub fn fail_node_permanently(&self, node: NodeId) {
        let mut st = lock(&self.state);
        let ni = node.index();
        if ni >= self.cfg.cache_nodes || st.nodes[ni].permanent {
            return;
        }
        // Permanent death purges both tiers — warm restart never applies
        // to a node that is gone for good.
        for kind in TierKind::ALL {
            st.tier_mut(kind, ni).clear();
        }
        self.metrics.update_sizes(&st);
        st.recovery_pending = true;
        self.metrics.registry.counter("ids_cache_permanent_failures_total").inc();
        let now = st.now();
        self.transition(&mut st, ni, now, |a| a.permanent = true);
    }

    /// Set one of a cache node's switches (ignoring non-cache nodes).
    fn set_switch(&self, node: NodeId, set: impl FnOnce(&mut Availability)) {
        let mut st = lock(&self.state);
        if node.index() < self.cfg.cache_nodes {
            let now = st.now();
            self.transition(&mut st, node.index(), now, set);
        }
    }

    /// Fold the fault plane's current availability into the nodes'
    /// records. Returns the plane, for the caller's fault draws.
    pub(super) fn sync_with_plane(&self, st: &mut State) -> Option<Arc<FaultPlane>> {
        let p = st.plane.clone()?;
        let now = p.now();
        for ni in 0..self.cfg.cache_nodes {
            let down = p.node_down(NodeId(ni as u32));
            self.transition(st, ni, now, |a| a.plane = down);
        }
        Some(p)
    }

    /// The one availability transition: apply `set` to node `ni`'s
    /// record, then run the down or up bookkeeping if, and only if, that
    /// changed whether the node is down.
    fn transition(&self, st: &mut State, ni: usize, now: f64, set: impl FnOnce(&mut Availability)) {
        let was_down = st.is_down(ni);
        set(&mut st.nodes[ni]);
        match (was_down, st.is_down(ni)) {
            (false, true) => self.on_node_down(st, ni, now),
            (true, false) => self.on_node_up(st, ni, now),
            _ => {}
        }
    }

    /// A node became unavailable: fence its entries (they stay resident
    /// but are skipped by every lookup until recovery) and meter it.
    fn on_node_down(&self, st: &mut State, ni: usize, now: f64) {
        st.nodes[ni].down_since = now;
        self.metrics.node_failures.inc();
        self.metrics.event("cache.node_down", format!("node {ni}"), now);
    }

    /// A node rejoined. DRAM is volatile and was lost in the crash, so
    /// that tier always comes back empty. The NVMe tier is persistent
    /// media: its entries survive (warm restart) but are distrusted —
    /// marked unverified until the integrity plane re-checks each
    /// checksum, lazily on first read or in bulk at the next anti-entropy
    /// scrub.
    fn on_node_up(&self, st: &mut State, ni: usize, now: f64) {
        st.tier_mut(TierKind::Dram, ni).clear();
        let nvme = st.tier_mut(TierKind::Nvme, ni);
        let retained = nvme.len() as u64;
        if retained > 0 {
            nvme.mark_all_unverified();
            self.metrics.warm_retained.add(retained);
        }
        // DRAM rejoined empty: surviving objects may be under-replicated
        // until the next anti-entropy pass restores the factor.
        st.recovery_pending = true;
        self.metrics.update_sizes(st);
        self.metrics.node_recoveries.inc();
        let since = st.nodes[ni].down_since;
        let downtime = (now - since).max(0.0);
        self.metrics.recovery_time.observe(downtime);
        self.metrics.registry.spans().record(
            "cache.node_recovered",
            format!("node {ni} after {downtime:.6}s"),
            since,
            now,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::BackingStore;
    use crate::manager::CacheConfig;
    use ids_simrt::faults::FaultConfig;
    use ids_simrt::net::NetworkModel;
    use ids_simrt::topology::Topology;

    fn cache(nodes: usize) -> CacheManager {
        CacheManager::new(
            Topology::new(4, 2),
            NetworkModel::slingshot(),
            CacheConfig::new(nodes, 1 << 20, 1 << 22),
            BackingStore::default_store(),
        )
    }

    fn counter(c: &CacheManager, name: &str) -> u64 {
        c.metrics().snapshot().counter(name, "")
    }

    #[test]
    fn failing_a_permanently_dead_node_counts_no_second_failure() {
        let plane = Arc::new(FaultPlane::new(7, FaultConfig::none(), 4, 8, 60.0));
        let c = cache(2);
        c.attach_faults(plane.clone());
        plane.advance_to(1.0);
        c.fail_node_permanently(NodeId(0));
        assert_eq!(counter(&c, "ids_cache_node_failures_total"), 1);

        plane.advance_to(2.0);
        c.fail_node(NodeId(0));
        assert_eq!(counter(&c, "ids_cache_node_failures_total"), 1, "one death, one failure");
        assert_eq!(lock(&c.state).nodes[0].down_since, 1.0, "down since the death");
        c.recover_node(NodeId(0));
        assert!(c.node_is_down(NodeId(0)), "a dead node never rejoins");
        assert_eq!(counter(&c, "ids_cache_node_recoveries_total"), 0);
    }

    #[test]
    fn a_crash_window_over_a_permanently_dead_node_is_no_failure_and_no_recovery() {
        let plane = Arc::new(FaultPlane::new(7, FaultConfig::crashes_only(1.0, 0.5), 4, 8, 60.0));
        let (start, end) = plane.crash_windows(NodeId(0))[0];
        // One cache node, so every availability event is node 0's.
        let c = cache(1);
        c.attach_faults(plane.clone());
        c.fail_node_permanently(NodeId(0));
        c.anti_entropy(); // runs the re-replication the death asked for

        plane.advance_to((start + end) / 2.0);
        assert!(c.node_is_down(NodeId(0)));
        plane.advance_to(end + 1e-9);
        assert!(c.node_is_down(NodeId(0)), "the window's end does not revive a dead node");

        assert_eq!(counter(&c, "ids_cache_node_failures_total"), 1, "one death, one failure");
        assert_eq!(counter(&c, "ids_cache_node_recoveries_total"), 0);
        let snap = c.metrics().snapshot();
        assert!(!snap.spans.iter().any(|s| s.name == "cache.node_recovered"));
        assert!(!lock(&c.state).recovery_pending, "no recovery asks for re-replication");
    }
}
