//! The Cache Manager (§3.2): tiered placement, eviction, locality, and
//! failure handling for the globally shared client-side cache.
//!
//! Tier order on access, cheapest first: local DRAM → remote DRAM (an
//! α·β inter-node transfer) → local NVMe → remote NVMe → backing store. When DRAM
//! capacity is exceeded the LRU entry *spills* to the same node's NVMe
//! ("when DRAM capacity is exceeded, the cache seamlessly spills data to
//! locally connected SSDs"); NVMe evictions drop the cached copy entirely —
//! safe because authoritative copies live in the backing store. A fetched
//! backing-store object is re-cached near the requester (re-population).
//!
//! ## Replication, failover, and integrity
//!
//! With [`CacheConfig::replication`] > 1 every put lands on a set of
//! distinct live nodes (see [`PlacementPolicy::place_replicas`]); each
//! replica write is charged its honest fabric cost. Reads need any **one**
//! healthy replica (read-quorum-of-1 is sound here because puts overwrite
//! every copy and the backing store stays authoritative — replicas are
//! never stale): `get` fails over across replicas before touching the
//! backing store, so a node crash no longer forces a re-population. Every
//! cached copy is the [`Sealed`] payload made when the object entered the
//! cache — hashed once, then moved between tiers, replicas and the
//! backing store without re-hashing; a copy whose bytes no longer match
//! (injected bit rot) is *quarantined* — dropped, metered, and repaired
//! from a healthy replica — never served. A
//! background anti-entropy pass ([`CacheManager::maybe_anti_entropy`],
//! driven from engine stage boundaries on the virtual clock) scrubs live
//! copies, re-establishes the replication factor after a crash wiped a
//! node, and rewrites torn backing-store objects from healthy replicas.
//!
//! This module holds the manager, its state, and the write and read
//! paths; `membership`, `movement`, `integrity` and `metrics` each own
//! one other decision.

mod integrity;
mod membership;
mod metrics;
mod movement;

pub use integrity::AntiEntropyReport;
pub use metrics::CacheStats;

use crate::admit::FrequencySketch;
use crate::backing::BackingStore;
use crate::error::CacheError;
use crate::evict::EvictionKind;
use crate::object::Sealed;
use crate::policy::PlacementPolicy;
use crate::tier::{StoredEntry, TierKind, TierStore};
use bytes::Bytes;
use ids_obs::MetricsRegistry;
use ids_simrt::faults::{retry_backoff_secs, FaultPlane, LinkFactors, RETRY_MAX_ATTEMPTS};
use ids_simrt::net::{DeviceModel, NetworkModel};
use ids_simrt::sync::lock;
use ids_simrt::topology::{NodeId, RankId, Topology};
use membership::Availability;
use metrics::CacheMetrics;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

/// Which tier served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    LocalDram,
    RemoteDram,
    LocalNvme,
    RemoteNvme,
    Backing,
}

impl Tier {
    /// The cache tier a hit in `kind` reports, on the requester's own
    /// node (`local`) or another one.
    fn cached(kind: TierKind, local: bool) -> Tier {
        match (kind, local) {
            (TierKind::Dram, true) => Tier::LocalDram,
            (TierKind::Dram, false) => Tier::RemoteDram,
            (TierKind::Nvme, true) => Tier::LocalNvme,
            (TierKind::Nvme, false) => Tier::RemoteNvme,
        }
    }
}

/// Result of a cache read: where it was served from and what it cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheOutcome {
    pub tier: Tier,
    pub virtual_secs: f64,
}

/// Cache configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Number of nodes contributing DRAM/NVMe to the cache (the first
    /// `cache_nodes` node ids of the topology).
    pub cache_nodes: usize,
    /// DRAM bytes contributed per node.
    pub dram_capacity: u64,
    /// NVMe bytes contributed per node.
    pub nvme_capacity: u64,
    /// Placement policy for new objects.
    pub policy: PlacementPolicy,
    /// Eviction policy run by every tier store.
    pub eviction: EvictionKind,
    /// Copies kept per object across distinct live nodes (k-way
    /// replication). 1 = the pre-replication behaviour.
    pub replication: usize,
}

/// Per-tier device costs, charged on every hit, spill, and promote: the
/// testbed's DRAM and NVMe (100 µs / 3 GB/s).
const DEVICES: DeviceModel = DeviceModel::testbed();

impl CacheConfig {
    /// Testbed-like defaults: local-first placement, LRU eviction, no
    /// replication.
    pub fn new(cache_nodes: usize, dram_capacity: u64, nvme_capacity: u64) -> Self {
        Self {
            cache_nodes,
            dram_capacity,
            nvme_capacity,
            policy: PlacementPolicy::LocalFirst,
            eviction: EvictionKind::default(),
            replication: 1,
        }
    }

    /// Set the replication factor (clamped to at least 1).
    pub fn with_replication(mut self, k: usize) -> Self {
        self.replication = k.max(1);
        self
    }

    /// Select the eviction policy for every tier store.
    pub fn with_eviction(mut self, kind: EvictionKind) -> Self {
        self.eviction = kind;
        self
    }
}

struct State {
    /// One store per cache node for each tier, indexed by
    /// `TierKind as usize`.
    tiers: [Vec<TierStore>; 2],
    /// Global frequency sketch feeding the admission filter and the
    /// TinyLFU eviction duel; every lookup and store records into it.
    sketch: FrequencySketch,
    clock: u64,
    placement_counter: u64,
    /// Each cache node's availability (owned by `membership`).
    nodes: Vec<Availability>,
    /// Names that were cached at least once — a later backing fetch for
    /// one of these is a *re-population*, not cold traffic.
    ever_cached: HashSet<String>,
    /// Names written via [`CacheManager::put_ephemeral`]: replicated in
    /// the cache tiers only, never written through to the backing store.
    /// A get that misses every tier returns `None` immediately instead
    /// of paying the backing-store RPC — the caller recomputes.
    ephemeral: HashSet<String>,
    /// Virtual time of the last anti-entropy pass.
    last_anti_entropy: f64,
    /// A node recovered since the last pass: run anti-entropy at the next
    /// opportunity regardless of the interval.
    recovery_pending: bool,
    /// The attached fault plane: node availability, transient and storage
    /// fault draws, link degradation, and the virtual clock.
    plane: Option<Arc<FaultPlane>>,
    /// The counters' [`CacheStats`] view at the last
    /// [`CacheManager::reset_stats`]; [`CacheManager::stats`] reports the
    /// difference.
    baseline: CacheStats,
}

/// Add `name` to a name set, allocating the owned key only when it is new
/// (every put and re-population passes through here).
fn remember(names: &mut HashSet<String>, name: &str) {
    if !names.contains(name) {
        names.insert(name.to_string());
    }
}

impl State {
    fn is_down(&self, ni: usize) -> bool {
        self.nodes[ni].is_down()
    }

    /// Node `ni`'s store of tier `kind`.
    fn tier(&self, kind: TierKind, ni: usize) -> &TierStore {
        &self.tiers[kind as usize][ni]
    }

    fn tier_mut(&mut self, kind: TierKind, ni: usize) -> &mut TierStore {
        &mut self.tiers[kind as usize][ni]
    }

    /// Node `ni`'s copy of `name`, DRAM first.
    fn copy_on(&self, ni: usize, name: &str) -> Option<&StoredEntry> {
        self.tiers.iter().find_map(|stores| stores[ni].get(name))
    }

    /// The fault plane's virtual time (0 without a plane).
    fn now(&self) -> f64 {
        self.plane.as_ref().map_or(0.0, |p| p.now())
    }
}

/// The distributed cache manager.
pub struct CacheManager {
    cfg: CacheConfig,
    topo: Topology,
    net: NetworkModel,
    backing: BackingStore,
    state: Mutex<State>,
    metrics: CacheMetrics,
}

impl CacheManager {
    /// Build a cache over `topo` with the given config; the backing store
    /// starts empty.
    ///
    /// # Panics
    ///
    /// Panics when the config is unsatisfiable for `topo` (zero cache
    /// nodes, or more cache nodes than the cluster has). Use
    /// [`CacheManager::try_new`] to get the rejection as a typed
    /// [`CacheError::InvalidConfig`] instead.
    pub fn new(topo: Topology, net: NetworkModel, cfg: CacheConfig, backing: BackingStore) -> Self {
        match Self::try_new(topo, net, cfg, backing) {
            Ok(m) => m,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor: rejects unsatisfiable configs with
    /// [`CacheError::InvalidConfig`] instead of panicking, so embedding
    /// services can surface the problem as a typed error.
    pub fn try_new(
        topo: Topology,
        net: NetworkModel,
        cfg: CacheConfig,
        backing: BackingStore,
    ) -> Result<Self, CacheError> {
        if cfg.cache_nodes == 0 {
            return Err(CacheError::InvalidConfig("need at least one cache node".into()));
        }
        if cfg.cache_nodes as u32 > topo.nodes() {
            return Err(CacheError::InvalidConfig(format!(
                "{} cache nodes exceed the cluster's {} nodes",
                cfg.cache_nodes,
                topo.nodes()
            )));
        }
        let capacity = [cfg.dram_capacity, cfg.nvme_capacity];
        let state = State {
            tiers: TierKind::ALL.map(|kind| {
                (0..cfg.cache_nodes)
                    .map(|_| TierStore::new(kind, capacity[kind as usize], cfg.eviction))
                    .collect()
            }),
            sketch: FrequencySketch::default(),
            clock: 0,
            placement_counter: 0,
            nodes: vec![Availability::default(); cfg.cache_nodes],
            ever_cached: HashSet::new(),
            ephemeral: HashSet::new(),
            last_anti_entropy: 0.0,
            recovery_pending: false,
            plane: None,
            baseline: CacheStats::default(),
        };
        Ok(Self {
            cfg,
            topo,
            net,
            backing,
            state: Mutex::new(state),
            metrics: CacheMetrics::new(MetricsRegistry::new()),
        })
    }

    /// Attach a fault plane: node availability follows its crash
    /// windows, remote accesses can fail transiently, and transfer
    /// costs absorb link degradation.
    pub fn attach_faults(&self, plane: Arc<FaultPlane>) {
        lock(&self.state).plane = Some(plane);
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// The cache's `ids-obs` registry (tier hit/insert/eviction counters
    /// and per-tier resident-size gauges).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics.registry
    }

    /// Reading `bytes` from node `node`'s `kind` tier, from rank `from`:
    /// DRAM costs one transfer (intra-node on the requester's own node,
    /// α·β inter-node otherwise); NVMe costs the device plus, off-node,
    /// the inter-node transfer.
    fn transfer(&self, kind: TierKind, from: RankId, node: NodeId, bytes: u64) -> f64 {
        let local = self.topo.node_of(from) == node;
        match kind {
            TierKind::Dram if local => {
                self.net.intra_latency + bytes as f64 / self.net.intra_bandwidth
            }
            TierKind::Dram => self.net.inter_cost(bytes),
            TierKind::Nvme if local => DEVICES.nvme_cost(bytes),
            TierKind::Nvme => DEVICES.nvme_cost(bytes) + self.net.inter_cost(bytes),
        }
    }

    /// One fabric access under fault injection: rolls transients (remote
    /// ops only) and retries with the default backoff, charged to
    /// `spent`. True = the access landed and `cost` was charged; false =
    /// retries exhausted (the caller fails over or errors).
    fn attempt_access(
        &self,
        plane: Option<&FaultPlane>,
        from: RankId,
        can_fail: bool,
        cost: f64,
        spent: &mut f64,
    ) -> bool {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let fired = can_fail && plane.is_some_and(|p| p.fam_transient(from));
            if !fired {
                *spent += cost;
                return true;
            }
            if attempt >= RETRY_MAX_ATTEMPTS {
                return false;
            }
            let wait = retry_backoff_secs(attempt, plane.map_or(0.5, |p| p.jitter01(from)));
            self.metrics.retries.inc();
            self.metrics.retry_wait.observe(wait);
            *spent += wait;
        }
    }

    /// Store an object: persists to the backing store (authoritative) and
    /// caches it on [`CacheConfig::replication`] distinct live nodes per
    /// the placement policy, charging each replica write its honest
    /// fabric cost. Returns the total virtual cost.
    ///
    /// Under an attached fault plane a *torn write* may corrupt the
    /// backing copy in place; the cached replicas stay healthy, so a
    /// later checked read or anti-entropy pass detects and rewrites it.
    pub fn put(&self, from: RankId, name: &str, data: Bytes) -> f64 {
        self.write(from, name, data, true)
    }

    /// Store a **recomputable** object in the cache tiers only — no
    /// durable write-through. Placement, replication, checksums, and
    /// eviction behave exactly like [`CacheManager::put`]; the
    /// difference is the durability contract. If every cached copy is
    /// later lost (eviction, crashes, quarantined rot), a
    /// [`CacheManager::get`] for the name returns `Ok(None)` without
    /// paying the backing-store round-trip, and the caller recomputes.
    ///
    /// This is the right tier for derived intermediates (e.g. semantic
    /// plan-fragment checkpoints): writing them through to the backing
    /// store would charge a metadata RPC that can exceed the cost of
    /// recomputing the fragment outright.
    pub fn put_ephemeral(&self, from: RankId, name: &str, data: Bytes) -> f64 {
        self.write(from, name, data, false)
    }

    /// The one write behind [`Self::put`] (`durable`) and
    /// [`Self::put_ephemeral`]: only a durable write pays the backing
    /// store and draws a torn write.
    fn write(&self, from: RankId, name: &str, data: Bytes, durable: bool) -> f64 {
        let size = data.len() as u64;
        // Ingest: the one hash a put pays, metered.
        self.metrics.hashed_put.add(size);
        let sealed = Sealed::seal(data);
        let mut st = lock(&self.state);
        let mut cost = 0.0;
        if durable {
            cost = self.backing.put(name, sealed.clone()).virtual_secs;
            if st.plane.as_ref().is_some_and(|p| p.torn_write(from)) {
                // The persistent write tore: bytes landed, checksum did not.
                self.backing.corrupt(name);
            }
        }
        let plane = self.sync_with_plane(&mut st);
        st.clock += 1;
        // Coherence on overwrite: the new placement may land on a
        // different node than a previous put's, and a stale copy must
        // never win the tier search.
        drop_copies(&mut st, name);
        st.sketch.record(name);
        if durable {
            remember(&mut st.ever_cached, name);
            // A durable overwrite upgrades a previously ephemeral name: the
            // backing copy written above is now authoritative.
            st.ephemeral.remove(name);
        } else {
            remember(&mut st.ephemeral, name);
        }
        // Place on up to k live nodes; if every cache node is down a
        // durable object lives in the backing store only.
        let replicas = self.place_live_replicas(&mut st, self.topo.node_of(from));
        let link = plane.as_ref().map_or(LinkFactors::NONE, |p| p.link_factors());
        let fabric = |node| self.transfer(TierKind::Dram, from, node, size) * link.cost_mult();
        self.land_copies(&mut st, &replicas, name, &sealed, fabric, &mut cost);
        if replicas.len() < self.cfg.replication {
            self.metrics.under_replicated_writes.inc();
            let now = st.now();
            let detail = format!("{name}: {}/{} copies", replicas.len(), self.cfg.replication);
            self.metrics.event("cache.under_replicated_write", detail, now);
        }
        self.debug_check_accounting(&mut st);
        cost
    }

    /// Fetch an object. The search order is part of the determinism
    /// contract: DRAM before NVMe, and on each tier the requester's own
    /// node first, then the other cache nodes in index order, skipping
    /// down nodes (their entries are fenced until recovery). Fault-plane
    /// draws — transients, backoff jitter, bit rot — are consumed in that
    /// order, so a seed replays the same costs and outcomes.
    ///
    /// A remote access that fails transiently retries with backoff charged
    /// to the virtual clock. A copy that exhausts its retries or fails its
    /// checksum (quarantined, then repaired from the healthy serve) moves
    /// the search to the next copy: that is the failover. An NVMe entry
    /// retained across a warm restart is re-verified before its first
    /// serve. Only when no live healthy copy remains does the read fall
    /// back to the backing store (verified against its checksum, then
    /// re-populated onto a full replica set). Returns `Ok(None)` only on
    /// a total miss.
    ///
    /// Errors: [`CacheError::RetriesExhausted`] when the backing fetch
    /// keeps failing; [`CacheError::Corrupted`] when the backing copy
    /// fails its checksum and no healthy replica remains to serve instead.
    pub fn get(
        &self,
        from: RankId,
        name: &str,
    ) -> Result<Option<(Bytes, CacheOutcome)>, CacheError> {
        let my_node = self.topo.node_of(from);
        let my = my_node.index();
        let nodes = self.cfg.cache_nodes;
        let mut st = lock(&self.state);
        let plane = self.sync_with_plane(&mut st);
        let plane = plane.as_deref();
        st.clock += 1;
        let clock = st.clock;
        st.sketch.record(name);
        let link = plane.map_or(LinkFactors::NONE, |p| p.link_factors());
        let mut spent = 0.0f64;

        // A copy fenced on a down node, one that exhausted its retries and
        // one quarantined by this get each make the eventual serve a
        // failover; quarantined replicas are repaired from that serve.
        let fenced = (0..nodes).any(|ni| st.is_down(ni) && st.copy_on(ni, name).is_some());
        let mut exhausted = false;
        let mut quarantined: Vec<NodeId> = Vec::new();

        let nodes_in_order =
            std::iter::once(my).filter(|&n| n < nodes).chain((0..nodes).filter(move |&n| n != my));
        let search = TierKind::ALL
            .into_iter()
            .flat_map(|kind| nodes_in_order.clone().map(move |ni| (kind, ni)));
        // (copy, serving node, tier) once a healthy copy answers.
        let mut serve: Option<(Sealed, usize, Tier)> = None;
        for (kind, ni) in search {
            if st.is_down(ni) {
                continue;
            }
            let Some(size) = st.tier(kind, ni).size_of(name) else { continue };
            let local = ni == my;
            let node = NodeId(ni as u32);
            let cost = self.transfer(kind, from, node, size);
            if !self.attempt_access(plane, from, !local, cost * link.cost_mult(), &mut spent) {
                exhausted = true;
                continue;
            }
            // The read landed; now verify the copy. Bit rot may have hit it
            // since the write (the read cost is already paid), and an NVMe
            // entry retained across a warm restart is re-hashed before its
            // first serve. Either mismatch fails over to the next copy.
            let rot = plane.is_some_and(|p| p.bit_rot(from));
            if self.quarantine_if_bad(&mut st, ni, kind, name, rot) {
                quarantined.push(node);
                continue;
            }
            let store = st.tier_mut(kind, ni);
            store.touch(name, clock);
            let Some(e) = store.get(name) else { continue };
            serve = Some((e.sealed.clone(), ni, Tier::cached(kind, local)));
            break;
        }

        if let Some((sealed, ni, tier)) = serve {
            self.metrics.tier_hit(tier);
            if fenced || exhausted || !quarantined.is_empty() {
                self.metrics.failover_reads.inc();
            }
            if matches!(tier, Tier::LocalNvme | Tier::RemoteNvme) {
                self.promote(&mut st, ni, name, &sealed, &mut spent);
            }
            // Read-path repair: replicas quarantined above are restored
            // from this healthy copy, charged as node-to-node transfers.
            let size = sealed.size();
            let fabric =
                |node: NodeId| if node.index() != ni { self.net.inter_cost(size) } else { 0.0 };
            self.land_copies(&mut st, &quarantined, name, &sealed, fabric, &mut spent);
            self.metrics.repairs_replicate.add(quarantined.len() as u64);
            self.debug_check_accounting(&mut st);
            return Ok(Some((sealed.into_bytes(), CacheOutcome { tier, virtual_secs: spent })));
        }

        // Backing store: authoritative, checksum-verified fallback +
        // re-population of a full replica set. Ephemeral objects have no
        // backing copy: once no cache tier can serve one it is simply
        // gone, and the lookup above established that. Report a miss
        // without the backing-store RPC — the caller recomputes.
        let fetched = (!st.ephemeral.contains(name)).then(|| self.backing.get_checked(name));
        let Some((read, read_secs)) = fetched.and_then(|f| Some((f.value?, f.virtual_secs))) else {
            self.metrics.misses.inc();
            return Ok(None);
        };
        self.metrics.hashed_backing_read.add(read.size());
        if !self.attempt_access(plane, from, true, read_secs * link.cost_mult(), &mut spent) {
            return Err(CacheError::RetriesExhausted {
                attempts: RETRY_MAX_ATTEMPTS,
                spent_secs: spent,
                detail: "backing store fetch".into(),
            });
        }
        let Some(sealed) = read.intact() else {
            // Torn write or rot in the authoritative copy, and no healthy
            // replica remained to serve or repair it this read. Never
            // serve corrupt bytes.
            self.metrics.corruptions_backing.inc();
            return Err(CacheError::Corrupted { name: name.to_string(), spent_secs: spent });
        };
        self.metrics.tier_hit(Tier::Backing);
        // Re-population (§3.2: the object was cached before and lost to
        // eviction/failure) is metered separately from first-touch
        // backing traffic.
        if st.ever_cached.contains(name) {
            self.metrics.repopulations.inc();
        }
        let replicas = self.place_live_replicas(&mut st, my_node);
        self.land_copies(&mut st, &replicas, name, &sealed, |_| 0.0, &mut spent);
        if !replicas.is_empty() {
            remember(&mut st.ever_cached, name);
        }
        self.debug_check_accounting(&mut st);
        let outcome = CacheOutcome { tier: Tier::Backing, virtual_secs: spent };
        Ok(Some((sealed.into_bytes(), outcome)))
    }

    /// Drop an object from every cache tier (backing copy untouched).
    pub fn invalidate(&self, name: &str) {
        let mut st = lock(&self.state);
        drop_copies(&mut st, name);
        self.metrics.update_sizes(&st);
        self.debug_check_accounting(&mut st);
    }
}

/// Drop every cached copy of `name`, on every node and tier.
fn drop_copies(st: &mut State, name: &str) {
    for store in st.tiers.iter_mut().flatten() {
        store.remove(name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::object_id;

    fn cache(dram: u64, nvme: u64) -> CacheManager {
        cache_cfg(CacheConfig::new(2, dram, nvme))
    }

    fn cache_cfg(cfg: CacheConfig) -> CacheManager {
        CacheManager::new(
            Topology::new(4, 2),
            NetworkModel::slingshot(),
            cfg,
            BackingStore::default_store(),
        )
    }

    fn payload(n: usize, tag: u8) -> Bytes {
        Bytes::from(vec![tag; n])
    }

    /// Put from rank 0, then read once: the second touch lets the
    /// object's later spill pass the NVMe admission filter when NVMe is
    /// full.
    fn put_touched(c: &CacheManager, name: &str, data: Bytes) {
        c.put(RankId(0), name, data);
        c.get(RankId(0), name).unwrap().unwrap();
    }

    #[test]
    fn try_new_rejects_unsatisfiable_configs_as_typed_errors() {
        let net = NetworkModel::slingshot();
        let Err(err) = CacheManager::try_new(
            Topology::new(4, 2),
            net,
            CacheConfig::new(0, 1 << 20, 1 << 22),
            BackingStore::default_store(),
        ) else {
            panic!("zero cache nodes must be rejected");
        };
        assert!(matches!(err, CacheError::InvalidConfig(_)), "{err}");
        assert_eq!(err.spent_secs(), 0.0, "construction failures spend no virtual time");

        let Err(err) = CacheManager::try_new(
            Topology::new(2, 2),
            net,
            CacheConfig::new(5, 1 << 20, 1 << 22),
            BackingStore::default_store(),
        ) else {
            panic!("oversized cache-node count must be rejected");
        };
        assert!(err.to_string().contains("5 cache nodes exceed"), "{err}");

        assert!(CacheManager::try_new(
            Topology::new(4, 2),
            net,
            CacheConfig::new(2, 1 << 20, 1 << 22),
            BackingStore::default_store(),
        )
        .is_ok());
    }

    #[test]
    #[should_panic(expected = "need at least one cache node")]
    fn new_panics_on_zero_cache_nodes() {
        let _ = CacheManager::new(
            Topology::new(4, 2),
            NetworkModel::slingshot(),
            CacheConfig::new(0, 1 << 20, 1 << 22),
            BackingStore::default_store(),
        );
    }

    #[test]
    fn put_then_local_get_hits_dram() {
        let c = cache(1 << 20, 1 << 22);
        // Rank 0 lives on node 0, which is a cache node.
        c.put(RankId(0), "vina/c1", payload(1000, 1));
        let (data, out) = c.get(RankId(0), "vina/c1").unwrap().unwrap();
        assert_eq!(data.len(), 1000);
        assert_eq!(out.tier, Tier::LocalDram);
        assert_eq!(c.stats().local_dram_hits, 1);
    }

    #[test]
    fn ephemeral_objects_skip_the_backing_store() {
        let c = cache(1 << 20, 1 << 22);
        let cold_miss = c.get(RankId(0), "reuse/unknown").unwrap();
        assert!(cold_miss.is_none());

        // An ephemeral put serves from cache tiers like a durable one...
        c.put_ephemeral(RankId(0), "reuse/frag", payload(1000, 7));
        let (data, out) = c.get(RankId(0), "reuse/frag").unwrap().unwrap();
        assert_eq!(data.len(), 1000);
        assert_eq!(out.tier, Tier::LocalDram);

        // ...but once every cached copy is gone the object is gone too:
        // no backing fallback, no backing fetch metered, zero read cost.
        let fetches_before = c.stats().backing_fetches;
        c.invalidate("reuse/frag");
        let miss = c.get(RankId(0), "reuse/frag").unwrap();
        assert!(miss.is_none(), "ephemeral objects must not survive in backing");
        assert_eq!(c.stats().backing_fetches, fetches_before);

        // A later durable put of the same name upgrades it.
        c.put(RankId(0), "reuse/frag", payload(500, 8));
        c.invalidate("reuse/frag");
        let (data, out) = c.get(RankId(0), "reuse/frag").unwrap().unwrap();
        assert_eq!(data.len(), 500);
        assert_eq!(out.tier, Tier::Backing);
    }

    #[test]
    fn put_and_put_ephemeral_differ_only_by_the_backing_write() {
        let cfg = || CacheConfig::new(2, 1 << 20, 1 << 22).with_replication(2);
        let (durable, ephemeral) = (cache_cfg(cfg()), cache_cfg(cfg()));
        let data = payload(5000, 7);
        // Rank 3 sits on node 1: one replica write is local, one remote.
        let d = durable.put(RankId(3), "x", data.clone());
        let e = ephemeral.put_ephemeral(RankId(3), "x", data.clone());
        assert_eq!(durable.locality("x").len(), 2);
        assert_eq!(durable.locality("x"), ephemeral.locality("x"));
        let backing = BackingStore::default_store().put("x", Sealed::seal(data)).virtual_secs;
        assert!(e > 0.0 && backing > 0.0);
        assert!((d - backing - e).abs() < 1e-12, "durable {d} = backing {backing} + fabric {e}");
        assert!(durable.backing.contains("x").value);
        assert!(!ephemeral.backing.contains("x").value);
    }

    #[test]
    fn remote_rank_hits_remote_dram() {
        let c = cache(1 << 20, 1 << 22);
        c.put(RankId(0), "obj", payload(1000, 2));
        // Rank 6 is on node 3 (not a cache node) → remote DRAM.
        let (_, out) = c.get(RankId(6), "obj").unwrap().unwrap();
        assert_eq!(out.tier, Tier::RemoteDram);
        // Remote access costs more than local.
        let (_, local) = c.get(RankId(0), "obj").unwrap().unwrap();
        assert!(out.virtual_secs > local.virtual_secs);
    }

    #[test]
    fn dram_pressure_spills_to_nvme() {
        // DRAM holds 2 objects of 1000; the third put evicts the LRU.
        let c = cache(2048, 1 << 20);
        c.put(RankId(0), "a", payload(1000, 1));
        c.put(RankId(0), "b", payload(1000, 2));
        c.put(RankId(0), "c", payload(1000, 3));
        assert!(c.stats().evictions_to_nvme >= 1);
        // "a" (LRU) now serves from NVMe.
        let (_, out) = c.get(RankId(0), "a").unwrap().unwrap();
        assert_eq!(out.tier, Tier::LocalNvme);
    }

    #[test]
    fn nvme_hit_promotes_back_to_dram() {
        let c = cache(2048, 1 << 20);
        c.put(RankId(0), "a", payload(1000, 1));
        c.put(RankId(0), "b", payload(1000, 2));
        c.put(RankId(0), "c", payload(1000, 3)); // spills a
        let (_, first) = c.get(RankId(0), "a").unwrap().unwrap();
        assert_eq!(first.tier, Tier::LocalNvme);
        let (_, second) = c.get(RankId(0), "a").unwrap().unwrap();
        assert_eq!(second.tier, Tier::LocalDram, "promoted on first NVMe hit");
    }

    #[test]
    fn total_eviction_falls_back_to_backing_and_repopulates() {
        // Tiny tiers: everything cascades out. "b" is read once before
        // it becomes a victim, so its spill passes the NVMe admission
        // filter and displaces "a".
        let c = cache(1000, 1000);
        c.put(RankId(0), "a", payload(900, 1));
        put_touched(&c, "b", payload(900, 2)); // a → nvme
        c.put(RankId(0), "c", payload(900, 3)); // b → nvme, a dropped
        let (data, out) = c.get(RankId(0), "a").unwrap().unwrap();
        assert_eq!(out.tier, Tier::Backing);
        assert_eq!(data.len(), 900);
        // Re-populated: next access is a cache hit.
        let (_, again) = c.get(RankId(0), "a").unwrap().unwrap();
        assert_ne!(again.tier, Tier::Backing);
    }

    #[test]
    fn tier_costs_are_ordered() {
        let big = 1 << 22; // 4 MiB so bandwidth terms dominate latency noise
        let c = cache(1 << 23, 1 << 24);
        c.put(RankId(0), "x", payload(big, 7));
        let (_, local_dram) = c.get(RankId(0), "x").unwrap().unwrap();
        let (_, remote_dram) = c.get(RankId(7), "x").unwrap().unwrap();
        assert!(local_dram.virtual_secs < remote_dram.virtual_secs);
        // Force NVMe service.
        let c2 = cache(1, 1 << 24);
        c2.put(RankId(0), "x", payload(big, 7));
        let (_, nvme) = c2.get(RankId(0), "x").unwrap().unwrap();
        assert_eq!(nvme.tier, Tier::LocalNvme);
        assert!(
            remote_dram.virtual_secs < nvme.virtual_secs,
            "{} < {}",
            remote_dram.virtual_secs,
            nvme.virtual_secs
        );
        // Backing slowest.
        let c3 = cache(1, 1);
        c3.put(RankId(0), "x", payload(big, 7));
        let (_, back) = c3.get(RankId(0), "x").unwrap().unwrap();
        assert_eq!(back.tier, Tier::Backing);
        assert!(nvme.virtual_secs < back.virtual_secs);
    }

    #[test]
    fn locality_reports_holders() {
        let c = cache(1 << 20, 1 << 22);
        c.put(RankId(0), "obj", payload(100, 1));
        let loc = c.locality("obj");
        assert_eq!(loc, vec![(NodeId(0), Tier::LocalDram)]);
        assert!(c.locality("ghost").is_empty());
        let meta = c.meta("obj").unwrap();
        assert_eq!(meta.size, 100);
        assert_eq!(meta.node, NodeId(0));
        assert_eq!(meta.id, object_id("obj"));
    }

    #[test]
    fn node_failure_loses_cache_not_data() {
        let c = cache(1 << 20, 1 << 22);
        c.put(RankId(0), "obj", payload(100, 1));
        c.fail_node(NodeId(0));
        assert!(c.locality("obj").is_empty());
        // Still retrievable via the backing store, then re-cached.
        let (_, out) = c.get(RankId(0), "obj").unwrap().unwrap();
        assert_eq!(out.tier, Tier::Backing);
        assert!(!c.locality("obj").is_empty(), "re-populated");
    }

    #[test]
    fn total_miss_returns_none() {
        let c = cache(1 << 20, 1 << 22);
        assert!(c.get(RankId(0), "never-stored").unwrap().is_none());
        assert_eq!(c.stats().total_misses, 1);
    }

    #[test]
    fn invalidate_drops_cached_copy_only() {
        let c = cache(1 << 20, 1 << 22);
        c.put(RankId(0), "obj", payload(100, 1));
        c.invalidate("obj");
        assert!(c.locality("obj").is_empty());
        let (_, out) = c.get(RankId(0), "obj").unwrap().unwrap();
        assert_eq!(out.tier, Tier::Backing);
    }

    #[test]
    fn oversized_object_skips_dram() {
        let c = cache(100, 1 << 20);
        c.put(RankId(0), "big", payload(5000, 1));
        let (_, out) = c.get(RankId(0), "big").unwrap().unwrap();
        assert_eq!(out.tier, Tier::LocalNvme);
    }

    #[test]
    fn hit_rate_reflects_reuse() {
        let c = cache(1 << 20, 1 << 22);
        c.put(RankId(0), "a", payload(10, 1));
        c.get(RankId(0), "a").unwrap().unwrap();
        c.get(RankId(0), "a").unwrap().unwrap();
        c.invalidate("a");
        c.get(RankId(0), "a").unwrap().unwrap(); // backing fetch
        let s = c.stats();
        assert_eq!(s.cache_hits(), 2);
        assert_eq!(s.backing_fetches, 1);
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn relocate_moves_the_cached_copy() {
        let c = cache(1 << 20, 1 << 22);
        c.put(RankId(0), "obj", payload(1000, 3));
        assert_eq!(c.locality("obj"), vec![(NodeId(0), Tier::LocalDram)]);
        let cost = c.relocate("obj", NodeId(1)).expect("cached object relocates");
        assert!(cost > 0.0);
        assert_eq!(c.locality("obj"), vec![(NodeId(1), Tier::LocalDram)]);
        // Data unchanged after the move.
        let (data, out) = c.get(RankId(2), "obj").unwrap().unwrap(); // rank 2 = node 1
        assert_eq!(out.tier, Tier::LocalDram);
        assert_eq!(data.len(), 1000);
        // Relocating to the same node is free; unknown objects are None.
        assert_eq!(c.relocate("obj", NodeId(1)), Some(0.0));
        assert_eq!(c.relocate("ghost", NodeId(0)), None);
        assert_eq!(c.relocate("obj", NodeId(9)), None);
    }

    #[test]
    fn obs_metrics_track_tier_activity() {
        let c = cache(2048, 1 << 20);
        c.put(RankId(0), "a", payload(1000, 1));
        c.put(RankId(0), "b", payload(1000, 2));
        c.put(RankId(0), "c", payload(1000, 3)); // spills LRU ("a") to NVMe
        c.get(RankId(0), "a").unwrap().unwrap(); // NVMe hit (promotes "a", spilling "b")
        c.get(RankId(0), "a").unwrap().unwrap(); // DRAM hit
        c.get(RankId(6), "a").unwrap().unwrap(); // remote DRAM hit
        c.get(RankId(0), "b").unwrap().unwrap(); // NVMe hit
        assert!(c.get(RankId(0), "ghost").unwrap().is_none());

        let snap = c.metrics().snapshot();
        assert_eq!(snap.counter("ids_cache_lookup_hits_total", "local_dram"), 1);
        assert_eq!(snap.counter("ids_cache_lookup_hits_total", "remote_dram"), 1);
        assert_eq!(snap.counter("ids_cache_lookup_hits_total", "local_nvme"), 2);
        assert_eq!(snap.counter("ids_cache_lookup_misses_total", ""), 1);
        assert!(snap.counter("ids_cache_spills_total", "") >= 1);
        assert_eq!(
            snap.counter("ids_cache_spills_total", ""),
            snap.counter("ids_cache_evictions_total", "dram")
        );
        assert!(snap.counter("ids_cache_evicted_bytes_total", "dram") >= 1000);
        assert!(snap.counter("ids_cache_inserts_total", "dram") >= 3);

        // Gauges reflect resident bytes, consistent with stats.
        let dram = snap
            .gauges
            .iter()
            .find(|(k, _)| k.name == "ids_cache_size_bytes" && k.label_value == "dram")
            .unwrap()
            .1;
        assert!(*dram > 0 && *dram <= 2048 * 2);

        // Prometheus exposition carries the tier counters.
        let text = c.metrics().render_prometheus();
        assert!(text.contains("ids_cache_lookup_hits_total{tier=\"local_dram\"} 1"));
        assert!(text.contains("ids_cache_lookup_hits_total{tier=\"local_nvme\"} 2"));
        assert!(text.contains("# TYPE ids_cache_size_bytes gauge"));
    }

    #[test]
    fn overwrite_updates_value_and_accounting() {
        let c = cache(1 << 20, 1 << 22);
        c.put(RankId(0), "k", payload(100, 1));
        c.put(RankId(0), "k", payload(200, 2));
        let (data, _) = c.get(RankId(0), "k").unwrap().unwrap();
        assert_eq!(data.len(), 200);
        assert_eq!(data[0], 2);
        let meta = c.meta("k").unwrap();
        assert_eq!(meta.size, 200);
    }

    #[test]
    fn fail_and_recover_are_idempotent_and_metered() {
        let c = cache(1 << 20, 1 << 22);
        c.put(RankId(0), "obj", payload(100, 1));
        c.fail_node(NodeId(0));
        c.fail_node(NodeId(0)); // second call is a no-op
        assert!(c.node_is_down(NodeId(0)));
        let snap = c.metrics().snapshot();
        assert_eq!(snap.counter("ids_cache_node_failures_total", ""), 1);
        assert!(snap.spans.iter().any(|s| s.name == "cache.node_down"));

        c.recover_node(NodeId(0));
        c.recover_node(NodeId(0)); // second call is a no-op
        assert!(!c.node_is_down(NodeId(0)));
        let snap = c.metrics().snapshot();
        assert_eq!(snap.counter("ids_cache_node_recoveries_total", ""), 1);
        assert!(snap.spans.iter().any(|s| s.name == "cache.node_recovered"));
        let h = snap
            .histograms
            .get(&ids_obs::MetricKey::unlabelled("ids_cache_node_recovery_secs"))
            .expect("recovery-time histogram recorded");
        assert_eq!(h.count, 1);

        // A crashed node rejoins empty: its DRAM/NVMe contents are lost
        // (§3.2 — the backing store is authoritative, the cache is not).
        assert!(c.locality("obj").is_empty());
        let (_, out) = c.get(RankId(0), "obj").unwrap().unwrap();
        assert_eq!(out.tier, Tier::Backing);
    }

    #[test]
    fn repopulation_after_failure_lands_on_live_nodes_only() {
        let c = cache(1 << 20, 1 << 22);
        c.put(RankId(0), "obj", payload(100, 1));
        assert_eq!(c.locality("obj"), vec![(NodeId(0), Tier::LocalDram)]);

        c.fail_node(NodeId(0));
        // Entry is fenced: lookup skips the down node and falls through
        // to the backing store, re-populating onto the live node.
        let (_, out) = c.get(RankId(0), "obj").unwrap().unwrap();
        assert_eq!(out.tier, Tier::Backing);
        let loc = c.locality("obj");
        assert_eq!(loc, vec![(NodeId(1), Tier::LocalDram)]);
        assert!(loc.iter().all(|(n, _)| !c.node_is_down(*n)));

        // The backing fetch of a previously cached object is metered as a
        // re-population, distinct from cold-miss traffic.
        assert_eq!(c.stats().repopulations, 1);
        let snap = c.metrics().snapshot();
        assert_eq!(snap.counter("ids_cache_repopulations_total", ""), 1);
    }

    #[test]
    fn cold_backing_fetch_is_not_a_repopulation() {
        let backing = BackingStore::default_store();
        backing.put("cold", Sealed::seal(payload(64, 9)));
        let c = CacheManager::new(
            Topology::new(4, 2),
            NetworkModel::slingshot(),
            CacheConfig::new(2, 1 << 20, 1 << 22),
            backing,
        );
        let (_, out) = c.get(RankId(0), "cold").unwrap().unwrap();
        assert_eq!(out.tier, Tier::Backing);
        assert_eq!(c.stats().repopulations, 0);
        assert_eq!(c.stats().backing_fetches, 1);
    }

    #[test]
    fn locality_never_reports_a_down_node() {
        let c = cache(1 << 20, 1 << 22);
        c.put(RankId(0), "a", payload(100, 1));
        c.put(RankId(2), "b", payload(100, 2));
        c.fail_node(NodeId(1));
        assert_eq!(c.locality("a"), vec![(NodeId(0), Tier::LocalDram)]);
        assert!(c.locality("b").is_empty(), "fenced entries are invisible");
        assert!(c.meta("b").is_none());
        c.recover_node(NodeId(1));
        assert!(c.locality("b").is_empty(), "recovered node rejoined empty");
    }

    #[test]
    fn all_nodes_down_still_serves_from_backing() {
        let c = cache(1 << 20, 1 << 22);
        c.put(RankId(0), "obj", payload(100, 1));
        c.fail_node(NodeId(0));
        c.fail_node(NodeId(1));
        let (data, out) = c.get(RankId(0), "obj").unwrap().unwrap();
        assert_eq!(out.tier, Tier::Backing);
        assert_eq!(data.len(), 100);
        // Nothing live to re-populate onto; puts keep only the backing copy.
        assert!(c.locality("obj").is_empty());
        let cost = c.put(RankId(0), "other", payload(50, 2));
        assert!(cost > 0.0);
        let (_, out2) = c.get(RankId(0), "other").unwrap().unwrap();
        assert_eq!(out2.tier, Tier::Backing);
    }

    #[test]
    fn transient_storm_exhausts_retries_but_local_access_is_unaffected() {
        let c = cache(1 << 20, 1 << 22);
        c.put(RankId(0), "obj", payload(100, 1));
        // Every fabric access fails: remote retries exhaust, then the
        // backing fetch (also over the fabric) exhausts too.
        c.attach_faults(Arc::new(FaultPlane::new(
            5,
            ids_simrt::faults::FaultConfig::transient_only(1.0),
            4,
            8,
            100.0,
        )));
        let err = c.get(RankId(6), "obj").unwrap_err();
        match &err {
            CacheError::RetriesExhausted { attempts, spent_secs, .. } => {
                assert_eq!(*attempts, RETRY_MAX_ATTEMPTS);
                assert!(*spent_secs > 0.0, "backoff waits are charged to virtual time");
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        assert!(c.stats().retries > 0);
        // Local DRAM access never touches the fabric, so it still serves.
        let (_, out) = c.get(RankId(0), "obj").unwrap().unwrap();
        assert_eq!(out.tier, Tier::LocalDram);
    }

    #[test]
    fn moderate_transients_are_absorbed_by_retries() {
        let c = cache(1 << 20, 1 << 22);
        c.put(RankId(0), "obj", payload(100, 1));
        c.attach_faults(Arc::new(FaultPlane::new(
            11,
            ids_simrt::faults::FaultConfig::transient_only(0.3),
            4,
            8,
            100.0,
        )));
        let mut served = 0;
        for _ in 0..100 {
            if c.get(RankId(6), "obj").is_ok_and(|r| r.is_some()) {
                served += 1;
            }
        }
        // P(4 consecutive transient failures) = 0.3^4 ≈ 0.8%, and even then
        // the backing fallback gets its own retry budget.
        assert!(served >= 98, "retries should absorb most transients, served {served}");
        assert!(c.stats().retries > 0);
        let snap = c.metrics().snapshot();
        assert!(snap.counter("ids_cache_retries_total", "") > 0);
        let h = snap
            .histograms
            .get(&ids_obs::MetricKey::unlabelled("ids_cache_retry_wait_secs"))
            .expect("retry-wait histogram recorded");
        assert!(h.count > 0 && h.sum > 0.0);
    }

    #[test]
    fn plane_crash_windows_fence_then_wipe_on_recovery() {
        let plane = Arc::new(FaultPlane::new(
            7,
            ids_simrt::faults::FaultConfig::crashes_only(1.0, 0.5),
            4,
            8,
            60.0,
        ));
        let (start, end) = plane.crash_windows(NodeId(0))[0];
        let c = cache(1 << 20, 1 << 22);
        c.attach_faults(plane.clone());
        c.put(RankId(0), "obj", payload(100, 1));
        assert_eq!(c.locality("obj"), vec![(NodeId(0), Tier::LocalDram)]);

        plane.advance_to((start + end) / 2.0);
        assert!(c.node_is_down(NodeId(0)));
        assert!(c.locality("obj").is_empty(), "fenced while the plane holds the node down");
        let (_, out) = c.get(RankId(0), "obj").unwrap().unwrap();
        assert_eq!(out.tier, Tier::Backing);

        plane.advance_to(end + 1e-9);
        assert!(!c.node_is_down(NodeId(0)));
        // Node 0 rejoined empty — any surviving copy lives elsewhere.
        // (Node 1 has its own crash schedule, so we only assert node 0's
        // fenced entry did not outlive the crash.)
        assert!(c.locality("obj").iter().all(|(n, _)| *n != NodeId(0)));
        let snap = c.metrics().snapshot();
        assert!(snap.counter("ids_cache_node_failures_total", "") >= 1);
        assert!(snap.counter("ids_cache_node_recoveries_total", "") >= 1);
        let h = snap
            .histograms
            .get(&ids_obs::MetricKey::unlabelled("ids_cache_node_recovery_secs"))
            .unwrap();
        assert!(h.count >= 1);
        assert!(h.mean() > 0.0);
    }

    fn cache_rf(k: usize) -> CacheManager {
        CacheManager::new(
            Topology::new(4, 2),
            NetworkModel::slingshot(),
            CacheConfig::new(2, 1 << 20, 1 << 22).with_replication(k),
            BackingStore::default_store(),
        )
    }

    #[test]
    fn replicated_put_lands_k_copies_and_charges_each() {
        let c1 = cache_rf(1);
        let c2 = cache_rf(2);
        let cost1 = c1.put(RankId(0), "obj", payload(1 << 16, 5));
        let cost2 = c2.put(RankId(0), "obj", payload(1 << 16, 5));
        assert_eq!(c1.locality("obj").len(), 1);
        let holders: Vec<NodeId> = c2.locality("obj").iter().map(|(n, _)| *n).collect();
        assert_eq!(holders, vec![NodeId(0), NodeId(1)], "distinct nodes hold the replicas");
        assert!(cost2 > cost1, "each replica write is charged: {cost2} vs {cost1}");
        // Metadata carries the content checksum.
        assert_eq!(c2.meta("obj").unwrap().checksum, Sealed::seal(payload(1 << 16, 5)).checksum());
    }

    #[test]
    fn failover_read_survives_node_crash_with_zero_backing_traffic() {
        let c = cache_rf(2);
        c.put(RankId(0), "obj", payload(1000, 7));
        c.fail_node(NodeId(0));
        // The primary copy is fenced; the surviving replica answers
        // without touching the backing store.
        let (data, out) = c.get(RankId(0), "obj").unwrap().unwrap();
        assert_eq!(out.tier, Tier::RemoteDram);
        assert_eq!(data.len(), 1000);
        let s = c.stats();
        assert_eq!(s.backing_fetches, 0, "no backing fallback needed");
        assert_eq!(s.repopulations, 0, "the crash cost no re-population");
        assert_eq!(s.failover_reads, 1);
        let snap = c.metrics().snapshot();
        assert_eq!(snap.counter("ids_cache_failover_reads_total", ""), 1);
        assert_eq!(snap.counter("ids_cache_repopulations_total", ""), 0);
    }

    #[test]
    fn under_replicated_write_is_metered() {
        let c = cache_rf(2);
        c.fail_node(NodeId(1));
        c.put(RankId(0), "obj", payload(100, 1));
        assert_eq!(c.locality("obj").len(), 1, "only one live node to hold a copy");
        let s = c.stats();
        assert_eq!(s.under_replicated_writes, 1);
        let snap = c.metrics().snapshot();
        assert_eq!(snap.counter("ids_cache_under_replicated_writes_total", ""), 1);
        assert!(snap.spans.iter().any(|sp| sp.name == "cache.under_replicated_write"));
        // Fully replicated writes are not metered.
        c.recover_node(NodeId(1));
        c.put(RankId(0), "obj2", payload(100, 2));
        assert_eq!(c.stats().under_replicated_writes, 1);
    }

    #[test]
    fn anti_entropy_restores_replication_after_recovery_wipe() {
        let c = cache_rf(2);
        c.put(RankId(0), "a", payload(500, 1));
        c.put(RankId(2), "b", payload(500, 2));
        c.fail_node(NodeId(0));
        c.recover_node(NodeId(0)); // rejoined empty: survivors under-replicated
        assert_eq!(c.locality("a").len(), 1);
        assert_eq!(c.locality("b").len(), 1);

        let report = c.anti_entropy();
        assert_eq!(report.re_replicated, 2, "both survivors regain their second copy");
        assert_eq!(report.corruptions, 0);
        assert_eq!(c.locality("a").len(), 2);
        assert_eq!(c.locality("b").len(), 2);
        assert_eq!(c.stats().repairs, 2);
        let snap = c.metrics().snapshot();
        assert_eq!(snap.counter("ids_cache_repairs_total", "re_replicate"), 2);
        assert_eq!(snap.counter("ids_cache_anti_entropy_runs_total", ""), 1);
        assert!(snap.counter("ids_cache_scrubbed_objects_total", "") >= 2);

        // A second pass finds nothing to do.
        assert!(c.anti_entropy().is_noop());
    }

    #[test]
    fn maybe_anti_entropy_follows_the_virtual_clock() {
        let plane =
            Arc::new(FaultPlane::new(1, ids_simrt::faults::FaultConfig::none(), 4, 8, 1000.0));
        let c = cache_rf(2);
        c.attach_faults(plane.clone());
        c.put(RankId(0), "obj", payload(100, 1));
        // t=0: the interval (1s) has not elapsed and nothing recovered.
        assert!(c.maybe_anti_entropy().is_none());
        plane.advance_to(0.5);
        assert!(c.maybe_anti_entropy().is_none());
        plane.advance_to(1.5);
        let report = c.maybe_anti_entropy().expect("interval elapsed");
        assert!(report.scrubbed >= 1);
        // The pass just ran; the next one waits for the interval again.
        assert!(c.maybe_anti_entropy().is_none());

        // A recovery forces the next pass regardless of the interval.
        c.fail_node(NodeId(0));
        c.recover_node(NodeId(0));
        let report = c.maybe_anti_entropy().expect("recovery pending");
        assert_eq!(report.re_replicated, 1);
    }

    #[test]
    fn torn_write_corrupts_backing_and_anti_entropy_rewrites_it() {
        let c = cache_rf(2);
        // Every backing write tears; cached replicas stay healthy.
        c.attach_faults(Arc::new(FaultPlane::new(
            3,
            ids_simrt::faults::FaultConfig::storage_only(0.0, 1.0),
            4,
            8,
            100.0,
        )));
        c.put(RankId(0), "obj", payload(2000, 9));
        // The cached copies still serve reads correctly.
        let (data, out) = c.get(RankId(0), "obj").unwrap().unwrap();
        assert_eq!(out.tier, Tier::LocalDram);
        assert_eq!(&data[..], &payload(2000, 9)[..]);

        let report = c.anti_entropy();
        assert_eq!(report.backing_repairs, 1, "torn authoritative copy rewritten");
        assert!(report.corruptions >= 1);
        let snap = c.metrics().snapshot();
        assert_eq!(snap.counter("ids_cache_repairs_total", "backing_rewrite"), 1);
        assert_eq!(snap.counter("ids_cache_corruptions_detected_total", "backing"), 1);
    }

    #[test]
    fn corrupt_backing_with_no_replica_is_detected_never_served() {
        let backing = BackingStore::default_store();
        backing.put("poison", Sealed::seal(payload(256, 4)));
        backing.corrupt("poison");
        let c = CacheManager::new(
            Topology::new(4, 2),
            NetworkModel::slingshot(),
            CacheConfig::new(2, 1 << 20, 1 << 22),
            backing,
        );
        let err = c.get(RankId(0), "poison").unwrap_err();
        match &err {
            CacheError::Corrupted { name, spent_secs } => {
                assert_eq!(name, "poison");
                assert!(*spent_secs > 0.0, "the failed read still cost virtual time");
            }
            other => panic!("expected Corrupted, got {other:?}"),
        }
        assert!(err.to_string().contains("poison"));
        assert_eq!(c.stats().corruptions_detected, 1);
        assert_eq!(
            c.metrics().snapshot().counter("ids_cache_corruptions_detected_total", "backing"),
            1
        );
        assert!(c.locality("poison").is_empty(), "corrupt bytes were never cached");
    }

    #[test]
    fn bit_rot_on_read_quarantines_and_fails_over_to_healthy_replica() {
        // Find a seed where the requester-local copy rots on the first
        // read but the remote replica survives it: the get must serve the
        // healthy bytes and repair the quarantined copy in place.
        let mut exercised = false;
        for seed in 0..64u64 {
            let c = cache_rf(2);
            c.attach_faults(Arc::new(FaultPlane::new(
                seed,
                ids_simrt::faults::FaultConfig::storage_only(0.5, 0.0),
                4,
                8,
                100.0,
            )));
            c.put(RankId(0), "obj", payload(1500, 6));
            let Ok(Some((data, out))) = c.get(RankId(0), "obj") else { continue };
            assert_eq!(&data[..], &payload(1500, 6)[..], "never serve rotted bytes");
            let s = c.stats();
            if out.tier == Tier::RemoteDram && s.corruptions_detected == 1 {
                assert_eq!(s.failover_reads, 1);
                assert_eq!(s.repairs, 1, "quarantined copy repaired from the serve");
                assert_eq!(c.locality("obj").len(), 2, "replication restored in-line");
                let snap = c.metrics().snapshot();
                assert_eq!(snap.counter("ids_cache_quarantines_total", ""), 1);
                assert_eq!(snap.counter("ids_cache_corruptions_detected_total", "cache"), 1);
                assert_eq!(snap.counter("ids_cache_repairs_total", "re_replicate"), 1);
                assert!(snap.spans.iter().any(|sp| sp.name == "cache.quarantine"));
                exercised = true;
                break;
            }
        }
        assert!(exercised, "no seed in 0..64 exercised the quarantine+failover path");
    }

    #[test]
    fn scrub_quarantines_rotted_copies_deterministically() {
        let run = |seed: u64| {
            let c = cache_rf(2);
            c.attach_faults(Arc::new(FaultPlane::new(
                seed,
                ids_simrt::faults::FaultConfig::storage_only(1.0, 0.0),
                4,
                8,
                100.0,
            )));
            // Bypass read-path rot by scrubbing immediately after put.
            c.put(RankId(0), "obj", payload(800, 3));
            c.anti_entropy()
        };
        let a = run(17);
        let b = run(17);
        assert_eq!(a, b, "scrub outcome is a pure function of the seed");
        // With p=1.0 every live copy rots and is quarantined.
        assert_eq!(a.scrubbed, 2);
        assert_eq!(a.corruptions, 2);
        // The object is gone from the cache but intact in backing.
        let c = cache_rf(2);
        c.attach_faults(Arc::new(FaultPlane::new(
            17,
            ids_simrt::faults::FaultConfig::storage_only(1.0, 0.0),
            4,
            8,
            100.0,
        )));
        c.put(RankId(0), "obj", payload(800, 3));
        c.anti_entropy();
        assert!(c.locality("obj").is_empty());
        let (data, out) = c.get(RankId(0), "obj").unwrap().unwrap();
        assert_eq!(out.tier, Tier::Backing, "authoritative copy still serves");
        assert_eq!(&data[..], &payload(800, 3)[..]);
    }

    #[test]
    fn replication_clamps_to_live_nodes_not_capacity() {
        // k larger than the cluster: every live node gets a copy, and the
        // write is metered under-replicated.
        let c = cache_rf(5);
        c.put(RankId(0), "obj", payload(100, 1));
        assert_eq!(c.locality("obj").len(), 2);
        assert_eq!(c.stats().under_replicated_writes, 1);
    }

    #[test]
    fn accounting_invariant_survives_churn() {
        // Exercise put/get/invalidate/fail/recover cycles under tight
        // capacities; `debug_check_accounting` fires after every mutation
        // (debug_assert), so this test's value is in not panicking.
        let c = cache(2048, 4096);
        for i in 0u32..60 {
            let name = format!("k{}", i % 10);
            c.put(RankId(i % 8), &name, payload(700 + (i as usize * 37) % 900, i as u8));
            if i % 7 == 0 {
                c.invalidate(&format!("k{}", (i + 3) % 10));
            }
            if i % 11 == 0 {
                c.fail_node(NodeId(0));
            }
            if i % 13 == 0 {
                c.recover_node(NodeId(0));
            }
            let _ = c.get(RankId((i + 3) % 8), &format!("k{}", (i + 1) % 10));
        }
        let stats = c.stats();
        assert!(stats.cache_hits() + stats.backing_fetches + stats.total_misses > 0);
    }

    #[test]
    fn admission_filter_drops_cold_spills_under_nvme_pressure() {
        let c = cache_cfg(CacheConfig::new(2, 1000, 1000));
        c.put(RankId(0), "a", payload(900, 1));
        c.get(RankId(0), "a").unwrap().unwrap(); // "a" is reused: sketch estimate ≥ 2
        c.put(RankId(0), "b", payload(900, 2)); // "a" spills to NVMe (it fits)
                                                // "b" would spill next, but NVMe is full and "b" was touched only
                                                // once → the admission filter drops it instead of churning "a".
        c.put(RankId(0), "c", payload(900, 3));
        assert!(c.stats().admission_rejects >= 1);
        assert!(c.metrics().snapshot().counter("ids_cache_admission_rejects_total", "nvme") >= 1);
        // The reused object survived on disk; the one-hit wonder did not.
        let (_, a) = c.get(RankId(0), "a").unwrap().unwrap();
        assert_eq!(a.tier, Tier::LocalNvme, "reused object kept its NVMe copy");
        let (_, b) = c.get(RankId(0), "b").unwrap().unwrap();
        assert_eq!(b.tier, Tier::Backing, "the cold spill was dropped");
    }

    #[test]
    fn warm_restart_retains_nvme_entries_after_recovery() {
        let c = cache_cfg(CacheConfig::new(2, 1000, 1 << 20));
        c.put(RankId(0), "a", payload(900, 1));
        c.put(RankId(0), "b", payload(900, 2)); // "a" spills to node 0's NVMe
        assert_eq!(c.locality("a"), vec![(NodeId(0), Tier::LocalNvme)]);

        c.fail_node(NodeId(0));
        c.recover_node(NodeId(0));
        // DRAM was wiped (volatile); the NVMe tier survived the restart.
        assert_eq!(c.stats().warm_restart_retained, 1);
        let (_, a) = c.get(RankId(0), "a").unwrap().unwrap();
        assert_eq!(a.tier, Tier::LocalNvme, "warm NVMe serves without backing traffic");
        assert_eq!(c.stats().backing_fetches, 0);
        let snap = c.metrics().snapshot();
        assert_eq!(snap.counter("ids_cache_warm_restart_retained_total", ""), 1);
        assert_eq!(
            snap.counter("ids_cache_warm_restart_verified_total", ""),
            1,
            "first clean read re-verified the retained entry"
        );
        // The DRAM casualty re-populates from backing as before.
        let (_, b) = c.get(RankId(0), "b").unwrap().unwrap();
        assert_eq!(b.tier, Tier::Backing);
    }

    #[test]
    fn warm_restart_rehashes_retained_entries_and_quarantines_rot() {
        let hashed = |c: &CacheManager| {
            c.metrics().snapshot().counter("ids_cache_checksummed_bytes_total", "warm_verify")
        };
        // Read path: "a" rots on node 0's NVMe while the node is down.
        let c = cache_cfg(CacheConfig::new(2, 1000, 1 << 20));
        c.put(RankId(0), "a", payload(900, 1));
        c.put(RankId(0), "b", payload(900, 2)); // "a" spills to node 0's NVMe
        c.fail_node(NodeId(0));
        assert!(lock(&c.state).tier_mut(TierKind::Nvme, 0).corrupt("a"));
        c.recover_node(NodeId(0));
        assert_eq!(c.stats().warm_restart_retained, 1);
        let (data, out) = c.get(RankId(0), "a").unwrap().unwrap();
        assert_eq!(data, payload(900, 1), "the rotted bytes were never served");
        assert_eq!(out.tier, Tier::Backing, "no healthy replica: the backing store answers");
        assert_eq!(hashed(&c), 900, "one hash of the retained entry");
        assert_eq!(c.stats().corruptions_detected, 1);
        let snap = c.metrics().snapshot();
        assert_eq!(snap.counter("ids_cache_quarantines_total", ""), 1);
        assert_eq!(snap.counter("ids_cache_warm_restart_verified_total", ""), 0);
        assert_eq!(c.inspect().tiers.iter().map(|t| t.unverified).sum::<u64>(), 0);

        // With a second replica the healthy copy serves and the
        // quarantined one is repaired from it.
        let c = cache_cfg(CacheConfig::new(2, 1000, 1 << 20).with_replication(2));
        c.put(RankId(0), "a", payload(900, 1));
        c.put(RankId(0), "b", payload(900, 2)); // "a" spills to NVMe on both nodes
        c.fail_node(NodeId(0));
        assert!(lock(&c.state).tier_mut(TierKind::Nvme, 0).corrupt("a"));
        c.recover_node(NodeId(0));
        let (data, out) = c.get(RankId(0), "a").unwrap().unwrap();
        assert_eq!(data, payload(900, 1));
        assert_eq!(out.tier, Tier::RemoteNvme, "failed over to node 1's copy");
        assert_eq!(c.stats().failover_reads, 1);
        assert_eq!(c.stats().repairs, 1, "node 0's copy was rewritten from the healthy serve");
        assert_eq!(c.stats().backing_fetches, 0);
        assert_eq!(hashed(&c), 900, "node 1 never restarted: its copy is not re-hashed");

        // Scrub path: anti-entropy re-hashes every retained entry once.
        let c = cache_cfg(CacheConfig::new(2, 1000, 1 << 20));
        c.put(RankId(0), "a", payload(900, 1));
        c.put(RankId(0), "b", payload(900, 2));
        c.put(RankId(0), "c", payload(900, 3)); // "a" and "b" now on NVMe
        c.fail_node(NodeId(0));
        assert!(lock(&c.state).tier_mut(TierKind::Nvme, 0).corrupt("a"));
        c.recover_node(NodeId(0));
        let report = c.anti_entropy();
        assert_eq!(report.corruptions, 1);
        assert_eq!(hashed(&c), 1800);
        assert_eq!(c.locality("a"), vec![], "the rotted copy is gone");
        assert_eq!(c.locality("b"), vec![(NodeId(0), Tier::LocalNvme)]);
        c.anti_entropy();
        assert_eq!(hashed(&c), 1800, "verified entries are not hashed again");
    }

    #[test]
    fn checksummed_bytes_count_one_hash_per_ingest_and_per_verification() {
        let c = cache_cfg(CacheConfig::new(2, 4000, 1 << 20).with_replication(2));
        let hashed =
            |site: &str| c.metrics().snapshot().counter("ids_cache_checksummed_bytes_total", site);
        let total = || c.metrics().snapshot().counter_sum("ids_cache_checksummed_bytes_total");

        // An n-byte put hashes n bytes — not once more for the backing
        // write, and not once per replica.
        c.put(RankId(0), "a", payload(1000, 1));
        assert_eq!((hashed("put"), total()), (1000, 1000));
        c.put_ephemeral(RankId(0), "e", payload(300, 2));
        c.put(RankId(1), "h", payload(200, 3));
        assert_eq!((hashed("put"), total()), (1500, 1500));

        // DRAM hits, spills, promotes and NVMe hits move sealed payloads.
        c.put(RankId(0), "b", payload(3000, 4)); // spills "a" to NVMe
        let (_, out) = c.get(RankId(0), "b").unwrap().unwrap();
        assert_eq!(out.tier, Tier::LocalDram);
        let (_, out) = c.get(RankId(0), "a").unwrap().unwrap();
        assert_eq!(out.tier, Tier::LocalNvme, "served from NVMe, then promoted");
        assert_eq!((hashed("put"), total()), (4500, 4500));

        // A backing fetch hashes the payload once and re-caches the seal.
        c.invalidate("a");
        let (_, out) = c.get(RankId(0), "a").unwrap().unwrap();
        assert_eq!(out.tier, Tier::Backing);
        assert_eq!((hashed("backing_read"), total()), (1000, 5500));
        assert_eq!(c.meta("a").unwrap().checksum, Sealed::seal(payload(1000, 1)).checksum());

        // Anti-entropy verifies the backing copy of every cached durable
        // name (the ephemeral one has none) and nothing else.
        let cached_durable: u64 =
            ["a", "b", "h"].iter().filter_map(|n| c.meta(n)).map(|m| m.size).sum();
        assert_eq!(cached_durable, 4200);
        c.anti_entropy();
        assert_eq!((hashed("scrub"), total()), (4200, 9700));
    }

    #[test]
    fn s3fifo_keeps_hot_set_resident_under_scan() {
        // DRAM holds 4 objects. One hot object is re-referenced, then a
        // 12-object sequential scan pours through.
        let run = |eviction| {
            let c = cache_cfg(CacheConfig::new(2, 4096, 1 << 20).with_eviction(eviction));
            c.put(RankId(0), "hot", payload(1000, 1));
            for _ in 0..4 {
                c.get(RankId(0), "hot").unwrap().unwrap();
            }
            for i in 0..12 {
                c.put(RankId(0), &format!("scan{i}"), payload(1000, 2));
            }
            let (_, out) = c.get(RankId(0), "hot").unwrap().unwrap();
            out.tier
        };
        assert_eq!(
            run(EvictionKind::S3Fifo),
            Tier::LocalDram,
            "scan traffic must not flush the S3-FIFO hot set"
        );
        assert_ne!(
            run(EvictionKind::Lru),
            Tier::LocalDram,
            "LRU thrashes under the same scan (negative control)"
        );
    }

    #[test]
    fn tinylfu_admission_protects_dram_from_cold_inserts() {
        let c = cache_cfg(CacheConfig::new(2, 2048, 1 << 20).with_eviction(EvictionKind::TinyLfu));
        c.put(RankId(0), "hot1", payload(1000, 1));
        c.put(RankId(0), "hot2", payload(1000, 2));
        for _ in 0..3 {
            c.get(RankId(0), "hot1").unwrap().unwrap();
            c.get(RankId(0), "hot2").unwrap().unwrap();
        }
        // A cold insert (estimate 1) cannot displace a victim with
        // estimate ≥ 4 — it lands on NVMe instead.
        c.put(RankId(0), "cold", payload(1000, 3));
        let (_, h) = c.get(RankId(0), "hot1").unwrap().unwrap();
        assert_eq!(h.tier, Tier::LocalDram, "resident hot set untouched");
        let (_, cold) = c.get(RankId(0), "cold").unwrap().unwrap();
        assert_eq!(cold.tier, Tier::LocalNvme, "rejected candidate still cached on disk");
        assert!(c.stats().admission_rejects >= 1);
        assert!(c.metrics().snapshot().counter("ids_cache_admission_rejects_total", "dram") >= 1);
    }

    #[test]
    fn reset_stats_zeroes_stats_but_not_the_inspector_counters() {
        let c = cache(2048, 4096);
        for (i, name) in ["a", "b", "c", "d", "e", "f", "g", "h"].into_iter().enumerate() {
            put_touched(&c, name, payload(1000, i as u8)); // spills, then NVMe drops
        }
        c.get(RankId(0), "d").unwrap().unwrap(); // local NVMe hit → promote
        c.get(RankId(6), "h").unwrap().unwrap(); // remote DRAM hit
        c.get(RankId(0), "a").unwrap().unwrap(); // re-population from backing
        assert!(c.get(RankId(0), "ghost").unwrap().is_none());
        c.fail_node(NodeId(0));
        c.recover_node(NodeId(0)); // warm restart retains node 0's NVMe
        let s = c.stats();
        assert!(s.local_nvme_hits > 0 && s.remote_dram_hits > 0 && s.backing_fetches > 0);
        assert!(s.total_misses > 0 && s.evictions_to_nvme > 0 && s.evictions_dropped > 0);
        assert!(s.promotes > 0 && s.repopulations > 0 && s.warm_restart_retained > 0);

        let lifetime = c.inspect();
        c.reset_stats();
        assert_eq!(c.stats(), CacheStats::default(), "reset zeroes every field");
        assert_eq!(c.inspect(), lifetime, "the inspector keeps lifetime counters");

        // After a reset, stats count only what happened since.
        c.put(RankId(0), "z", payload(100, 9)); // node 0's DRAM rejoined empty
        c.get(RankId(6), "z").unwrap().unwrap();
        assert_eq!(c.stats(), CacheStats { remote_dram_hits: 1, ..CacheStats::default() });
        assert_eq!(c.inspect().hits[1], lifetime.hits[1] + 1);
    }

    #[test]
    fn get_searches_the_own_node_before_lower_numbered_ones() {
        let c = cache_cfg(CacheConfig::new(2, 1 << 20, 1 << 22).with_replication(2));
        c.put(RankId(0), "x", payload(1000, 1));
        assert_eq!(c.locality("x").len(), 2, "one DRAM copy on each cache node");
        // Rank 2 sits on node 1: its own copy answers, not node 0's.
        let (_, out) = c.get(RankId(2), "x").unwrap().unwrap();
        assert_eq!(out.tier, Tier::LocalDram);
        assert_eq!(c.stats().local_dram_hits, 1);
    }

    #[test]
    fn get_searches_every_node_in_dram_before_any_in_nvme() {
        // Three cache nodes, two copies per put.
        let c = cache_cfg(CacheConfig::new(3, 2048, 1 << 20).with_replication(2));
        c.put(RankId(0), "x", payload(1000, 1));
        let holders: Vec<NodeId> = c.locality("x").into_iter().map(|(n, _)| n).collect();
        assert!(holders.contains(&NodeId(0)), "{holders:?}");
        let other = holders.into_iter().find(|&n| n != NodeId(0)).unwrap();
        // Fill node 0's DRAM until its copy of "x" spills to NVMe, using
        // puts from the third node's ranks, so `other` is never pressed.
        let third = (0..3).map(NodeId).find(|&n| n != NodeId(0) && n != other).unwrap();
        let from = RankId(third.0 * 2);
        for i in 0..8u8 {
            if c.locality("x").contains(&(NodeId(0), Tier::LocalNvme)) {
                break;
            }
            c.put(from, &format!("fill{i}"), payload(1000, i));
        }
        let loc = c.locality("x");
        assert!(loc.contains(&(NodeId(0), Tier::LocalNvme)), "{loc:?}");
        assert!(loc.contains(&(other, Tier::LocalDram)), "{loc:?}");
        // Rank 0 sits on node 0, whose NVMe copy is local; the remote DRAM
        // copy still answers first.
        let (_, out) = c.get(RankId(0), "x").unwrap().unwrap();
        assert_eq!(out.tier, Tier::RemoteDram);
        assert_eq!((c.stats().remote_dram_hits, c.stats().local_nvme_hits), (1, 0));
    }

    #[test]
    fn dram_hits_cost_one_transfer_priced_by_the_network_model() {
        let c = cache(1 << 20, 1 << 22);
        let net = NetworkModel::slingshot();
        let size = 100_000;
        c.put(RankId(0), "x", payload(size, 1));
        let (_, local) = c.get(RankId(0), "x").unwrap().unwrap();
        let intra = net.intra_latency + size as f64 / net.intra_bandwidth;
        assert_eq!((local.tier, local.virtual_secs), (Tier::LocalDram, intra));
        // Rank 6 sits on node 3, not a cache node: one α·β inter-node hop.
        let (_, remote) = c.get(RankId(6), "x").unwrap().unwrap();
        assert_eq!(
            (remote.tier, remote.virtual_secs),
            (Tier::RemoteDram, net.inter_cost(size as u64))
        );
    }

    #[test]
    fn every_get_counts_exactly_one_outcome() {
        let c = cache(2048, 1 << 20);
        c.put(RankId(0), "a", payload(1000, 1));
        c.put(RankId(0), "b", payload(1000, 2));
        c.put(RankId(0), "c", payload(1000, 3)); // spills "a" to NVMe
        c.invalidate("b"); // leaves only the backing copy
        let gets: [(RankId, &str, Option<Tier>); 5] = [
            (RankId(0), "c", Some(Tier::LocalDram)),
            (RankId(6), "c", Some(Tier::RemoteDram)),
            (RankId(0), "a", Some(Tier::LocalNvme)),
            (RankId(0), "b", Some(Tier::Backing)),
            (RankId(0), "ghost", None),
        ];
        for (i, (rank, name, want)) in gets.into_iter().enumerate() {
            let before = c.stats();
            let got = c.get(rank, name).unwrap().map(|(_, out)| out.tier);
            assert_eq!(got, want, "get {i}");
            let after = c.stats();
            let step = |f: fn(&CacheStats) -> u64| f(&after) - f(&before);
            let counted = [
                step(|s| s.local_dram_hits),
                step(|s| s.remote_dram_hits),
                step(|s| s.local_nvme_hits),
                step(|s| s.remote_nvme_hits),
                step(|s| s.backing_fetches),
                step(|s| s.total_misses),
            ];
            let slot = match want {
                Some(Tier::LocalDram) => 0,
                Some(Tier::RemoteDram) => 1,
                Some(Tier::LocalNvme) => 2,
                Some(Tier::RemoteNvme) => 3,
                Some(Tier::Backing) => 4,
                None => 5,
            };
            let mut expected = [0; 6];
            expected[slot] = 1;
            assert_eq!(counted, expected, "get {i}");
        }
    }

    #[test]
    fn stats_and_the_inspector_read_the_same_counters() {
        let c = cache(2048, 4096);
        for (i, name) in ["a", "b", "c", "d", "e", "f"].into_iter().enumerate() {
            put_touched(&c, name, payload(1000, i as u8));
        }
        c.get(RankId(0), "d").unwrap().unwrap();
        c.get(RankId(6), "f").unwrap().unwrap();
        c.get(RankId(0), "a").unwrap().unwrap();
        assert!(c.get(RankId(0), "ghost").unwrap().is_none());
        // Never reset, so both views count the cache's whole life.
        let (s, insp) = (c.stats(), c.inspect());
        assert_eq!(
            insp.hits,
            [s.local_dram_hits, s.remote_dram_hits, s.local_nvme_hits, s.remote_nvme_hits]
        );
        assert_eq!(
            (insp.backing_fetches, insp.misses, insp.spills, insp.promotes),
            (s.backing_fetches, s.total_misses, s.evictions_to_nvme, s.promotes)
        );
        assert_eq!(insp.admission_rejects, s.admission_rejects);
        assert!(s.cache_hits() > 0 && s.backing_fetches > 0 && s.evictions_to_nvme > 0);
    }

    #[test]
    fn each_reset_moves_the_baseline_to_now() {
        let c = cache(1 << 20, 1 << 22);
        c.put(RankId(0), "x", payload(100, 1));
        c.get(RankId(0), "x").unwrap().unwrap();
        c.reset_stats();
        c.get(RankId(0), "x").unwrap().unwrap();
        c.get(RankId(0), "x").unwrap().unwrap();
        assert_eq!(c.stats().local_dram_hits, 2);
        c.reset_stats();
        assert_eq!(c.stats(), CacheStats::default());
        c.get(RankId(6), "x").unwrap().unwrap();
        assert_eq!(c.stats(), CacheStats { remote_dram_hits: 1, ..CacheStats::default() });
        assert_eq!(c.inspect().hits[..2], [3, 1], "the inspector never resets");
    }

    #[test]
    fn an_exhausted_copy_fails_over_and_the_backing_fetch_names_itself() {
        let c = cache(1 << 20, 1 << 22);
        c.put(RankId(0), "obj", payload(100, 1));
        c.attach_faults(Arc::new(FaultPlane::new(
            5,
            ids_simrt::faults::FaultConfig::transient_only(1.0),
            4,
            8,
            100.0,
        )));
        // Rank 6's one copy is remote: it exhausts its retries, then the
        // backing fetch exhausts its own.
        let err = c.get(RankId(6), "obj").unwrap_err();
        let max = RETRY_MAX_ATTEMPTS;
        match &err {
            CacheError::RetriesExhausted { attempts, detail, .. } => {
                assert_eq!((*attempts, detail.as_str()), (max, "backing store fetch"));
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        assert_eq!(c.stats().retries, 2 * u64::from(max - 1));
    }

    #[test]
    fn an_ephemeral_object_with_no_live_copy_is_one_miss() {
        let c = cache(1 << 20, 1 << 22);
        c.put_ephemeral(RankId(0), "frag", payload(100, 1));
        c.fail_node(NodeId(0));
        assert!(c.get(RankId(0), "frag").unwrap().is_none());
        let s = c.stats();
        assert_eq!((s.total_misses, s.backing_fetches, s.cache_hits()), (1, 0, 0));
        assert_eq!(c.inspect().misses, 1);
    }

    #[test]
    fn concurrent_puts_and_gets_count_every_get_once() {
        const THREADS: usize = 4;
        const GETS: usize = 60;
        let c = Arc::new(cache(8 << 10, 16 << 10));
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    let rank = RankId((t * 2) as u32);
                    for i in 0..GETS {
                        let name = format!("obj{}", i % 12);
                        if i % 3 == 0 {
                            c.put(rank, &name, payload(1000, (t + i) as u8));
                        }
                        // Every name was put (by some thread) or is a miss.
                        let _ = c.get(rank, &name).unwrap();
                    }
                });
            }
        });
        let s = c.stats();
        let outcomes = s.cache_hits() + s.backing_fetches + s.total_misses;
        assert_eq!(outcomes, (THREADS * GETS) as u64, "{s:?}");
        let insp = c.inspect();
        assert_eq!(insp.hits.iter().sum::<u64>(), s.cache_hits());
        assert_eq!(insp.misses, s.total_misses);
    }

    #[test]
    fn inspector_reports_occupancy_and_movement() {
        let c = cache(2048, 1 << 20);
        c.put(RankId(0), "a", payload(1000, 1));
        c.put(RankId(0), "b", payload(1000, 2));
        c.put(RankId(0), "c", payload(1000, 3)); // spills "a"
        c.get(RankId(0), "a").unwrap().unwrap(); // NVMe hit → promote
        let insp = c.inspect();
        assert_eq!(insp.tiers.len(), 4, "two nodes × two tiers");
        assert!(insp.spills >= 1);
        assert_eq!(insp.promotes, 1);
        assert_eq!(insp.hits[2], 1, "one local-NVMe hit");
        assert!(insp.tiers.iter().any(|t| t.victim_pops > 0));
        assert!(insp.occupied("dram") > 0 && insp.occupied("dram") <= 2 * 2048);
        assert!(insp.hit_rate() > 0.0);
        let text = insp.render();
        assert!(text.contains("eviction policy: lru"), "{text}");
        assert!(text.contains("node 0 dram:"), "{text}");
    }
}
