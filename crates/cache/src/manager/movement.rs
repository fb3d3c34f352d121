//! Where copies go: replica placement over the live nodes, tier inserts
//! with DRAM→NVMe spill, NVMe→DRAM promotion, replica landing, and
//! relocation.

use super::{lock, CacheManager, State, Tier, DEVICES};
use crate::evict::EvictionKind;
use crate::object::{object_id, ObjectMeta, Sealed};
use crate::tier::StoredEntry;
use crate::tier::TierKind::{self, Dram, Nvme};
use ids_simrt::topology::NodeId;

impl CacheManager {
    /// Replica-set placement restricted to live nodes: up to
    /// [`super::CacheConfig::replication`] distinct live nodes, possibly
    /// fewer when fewer are up (the caller meters the under-replicated
    /// write).
    pub(super) fn place_live_replicas(&self, st: &mut State, requester: NodeId) -> Vec<NodeId> {
        let live: Vec<bool> = (0..self.cfg.cache_nodes).map(|ni| !st.is_down(ni)).collect();
        let (free, seq) = (free_dram(st), st.placement_counter);
        st.placement_counter += 1;
        self.cfg.policy.place_replicas(requester, &free, &live, seq, self.cfg.replication)
    }

    /// Land a copy of `sealed` in the DRAM of each of `nodes`, in order.
    /// Each copy adds its fabric charge, `transfer(node)`, and then the
    /// device cost of the spills its insert forced, to `total`: the
    /// caller's running sum, added to in that order so the float total
    /// repeats bit for bit.
    pub(super) fn land_copies(
        &self,
        st: &mut State,
        nodes: &[NodeId],
        name: &str,
        sealed: &Sealed,
        transfer: impl Fn(NodeId) -> f64,
        total: &mut f64,
    ) {
        for &node in nodes {
            *total += transfer(node);
            let (_, spill_cost) = self.insert(st, Dram, node, name, sealed.clone());
            *total += spill_cost;
        }
    }

    /// Promote an NVMe hit back to DRAM on the serving node `ni` — a
    /// true move: once the DRAM copy lands, the NVMe copy is released.
    /// The DRAM write and any cascaded spills are charged to `spent`.
    pub(super) fn promote(
        &self,
        st: &mut State,
        ni: usize,
        name: &str,
        sealed: &Sealed,
        spent: &mut f64,
    ) {
        let size = sealed.size();
        if size > self.cfg.dram_capacity {
            return;
        }
        let (landed, spill_cost) = self.insert(st, Dram, NodeId(ni as u32), name, sealed.clone());
        *spent += spill_cost;
        if landed {
            st.tier_mut(Nvme, ni).remove(name);
            *spent += DEVICES.dram_cost(size);
            self.metrics.promotes.inc();
            self.metrics.promoted_bytes.add(size);
            self.metrics.promote_bytes.observe(size as f64);
            self.metrics.update_sizes(st);
        }
    }

    /// Insert into node `node`'s `kind` tier, making room first: DRAM
    /// victims spill toward NVMe, NVMe victims are dropped. Returns
    /// `(stored, device_cost)`: the cost covers every spill the insert
    /// forced plus an NVMe write's device time, and is charged to
    /// whichever operation triggered it. An object too big for DRAM goes
    /// straight to NVMe, and one a TinyLFU duel keeps out of DRAM keeps
    /// NVMe residency; both report `stored = false`. One too big for NVMe
    /// is refused at zero cost — only the backing store holds it.
    fn insert(
        &self,
        st: &mut State,
        kind: TierKind,
        node: NodeId,
        name: &str,
        sealed: Sealed,
    ) -> (bool, f64) {
        let size = sealed.size();
        let ni = node.index();
        let to_nvme = |st: &mut State, sealed| (false, self.insert(st, Nvme, node, name, sealed).1);
        match kind {
            Dram if size > self.cfg.dram_capacity => return to_nvme(st, sealed),
            Nvme if size > self.cfg.nvme_capacity => return (false, 0.0),
            _ => {}
        }
        let clock = st.clock;
        // Remove any stale copy first (overwrite semantics).
        st.tier_mut(kind, ni).remove(name);
        // TinyLFU admission duel: under pressure a candidate only
        // displaces the policy's victim when its sketch estimate is
        // strictly higher — cold scan traffic never erodes a reused
        // resident set.
        if kind == Dram
            && self.cfg.eviction == EvictionKind::TinyLfu
            && !st.tier(kind, ni).fits(size)
        {
            if let Some(victim) = st.tier(kind, ni).peek_victim() {
                if st.sketch.estimate(name) <= st.sketch.estimate(&victim) {
                    self.metrics.admission_rejects[kind as usize].inc();
                    return to_nvme(st, sealed);
                }
            }
        }
        let mut cost = 0.0;
        while !st.tier(kind, ni).fits(size) {
            let Some((victim, e)) = st.tier_mut(kind, ni).pop_victim() else { break };
            self.metrics.victim_pops.inc();
            match kind {
                Dram => cost += self.spill_victim(st, node, &victim, e),
                Nvme => self.metrics.evicted(Nvme, e.sealed.size()),
            }
        }
        let stored = st.tier_mut(kind, ni).insert(name, sealed, clock);
        if stored {
            self.metrics.inserts[kind as usize].inc();
        }
        self.metrics.update_sizes(st);
        let device = if stored && kind == Nvme { DEVICES.nvme_cost(size) } else { 0.0 };
        (stored, cost + device)
    }

    /// Handle one DRAM eviction victim: spill it to the same node's NVMe
    /// tier unless the admission filter calls it a one-hit wonder while
    /// NVMe is under pressure, in which case it is dropped outright (the
    /// backing store stays authoritative). Returns the device cost of
    /// the spill write (zero when dropped).
    fn spill_victim(&self, st: &mut State, node: NodeId, victim: &str, e: StoredEntry) -> f64 {
        let size = e.sealed.size();
        self.metrics.evicted(Dram, size);
        if !st.tier(Nvme, node.index()).fits(size) && !st.sketch.admit(victim) {
            // Writing a one-hit wonder would force a disk eviction for
            // nothing; skip the spill.
            self.metrics.admission_rejects[Nvme as usize].inc();
            self.metrics.update_sizes(st);
            return 0.0;
        }
        let (stored, cost) = self.insert(st, Nvme, node, victim, e.sealed);
        if stored {
            self.metrics.spills.inc();
            self.metrics.spill_bytes.observe(size as f64);
        }
        cost
    }

    /// Locality query: which cache nodes hold the object, and in which
    /// tier. Schedulers use this to co-locate computation with data (§3.2).
    pub fn locality(&self, name: &str) -> Vec<(NodeId, Tier)> {
        let mut st = lock(&self.state);
        self.sync_with_plane(&mut st);
        // Down nodes never appear: their fenced entries cannot serve and
        // are lost on recovery, so reporting them would mislead schedulers.
        (0..self.cfg.cache_nodes)
            .filter(|&ni| !st.is_down(ni))
            .flat_map(|ni| TierKind::ALL.map(|kind| (ni, kind)))
            .filter(|&(ni, kind)| st.tier(kind, ni).contains(name))
            .map(|(ni, kind)| (NodeId(ni as u32), Tier::cached(kind, true)))
            .collect()
    }

    /// Metadata for a cached object, if cached on any live node.
    pub fn meta(&self, name: &str) -> Option<ObjectMeta> {
        let mut st = lock(&self.state);
        self.sync_with_plane(&mut st);
        let (ni, e) = (0..self.cfg.cache_nodes)
            .filter(|&ni| !st.is_down(ni))
            .find_map(|ni| Some((ni, st.copy_on(ni, name)?)))?;
        Some(ObjectMeta {
            name: name.to_string(),
            id: object_id(name),
            size: e.sealed.size(),
            node: NodeId(ni as u32),
            checksum: e.sealed.checksum(),
        })
    }

    /// Dynamically relocate a cached object to another node's DRAM
    /// ("the cache manager dynamically relocates data within the caching
    /// layer to optimize proximity to computation"). Returns the transfer
    /// cost, or `None` if the object is not cached anywhere or the target
    /// is not a cache node.
    pub fn relocate(&self, name: &str, to: NodeId) -> Option<f64> {
        if to.index() >= self.cfg.cache_nodes {
            return None;
        }
        let mut st = lock(&self.state);
        self.sync_with_plane(&mut st);
        if st.is_down(to.index()) {
            return None;
        }
        st.clock += 1;
        // Find and remove the current copy, DRAM first (fenced copies on
        // down nodes are not eligible sources — they are lost on recovery
        // anyway). With replication > 1 this moves the first copy found;
        // the other replicas stay where they are.
        let (from_node, sealed) = (0..self.cfg.cache_nodes).find_map(|ni| {
            if st.is_down(ni) {
                return None;
            }
            let e = TierKind::ALL.into_iter().find_map(|k| st.tier_mut(k, ni).remove(name))?;
            Some((ni, e.sealed))
        })?;
        let size = sealed.size();
        // Node-to-node transfer cost (inter-node unless already there).
        let mut cost = if from_node == to.index() { 0.0 } else { self.net.inter_cost(size) };
        let (_, spill_cost) = self.insert(&mut st, Dram, to, name, sealed);
        cost += spill_cost;
        self.debug_check_accounting(&mut st);
        Some(cost)
    }
}

/// Per-node free DRAM bytes (down nodes report zero — they cannot accept
/// placements anyway).
pub(super) fn free_dram(st: &State) -> Vec<u64> {
    st.tiers[Dram as usize]
        .iter()
        .enumerate()
        .map(|(ni, t)| if st.is_down(ni) { 0 } else { t.capacity().saturating_sub(t.used()) })
        .collect()
}
