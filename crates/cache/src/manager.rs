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

use crate::admit::FrequencySketch;
use crate::backing::BackingStore;
use crate::error::CacheError;
use crate::evict::EvictionKind;
use crate::inspect::{CacheInspection, TierInspection};
use crate::object::{object_id, ObjectMeta, Sealed};
use crate::policy::PlacementPolicy;
use crate::tier::{StoredEntry, TierKind, TierStore};
use bytes::Bytes;
use ids_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use ids_simrt::faults::{retry_backoff_secs, FaultPlane, LinkFactors, RETRY_MAX_ATTEMPTS};
use ids_simrt::net::{DeviceModel, NetworkModel};
use ids_simrt::topology::{NodeId, RankId, Topology};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

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
    /// The cache tier a hit in DRAM (`dram`) or NVMe reports, on the
    /// requester's own node (`local`) or another one.
    fn cached(dram: bool, local: bool) -> Tier {
        match (dram, local) {
            (true, true) => Tier::LocalDram,
            (true, false) => Tier::RemoteDram,
            (false, true) => Tier::LocalNvme,
            (false, false) => Tier::RemoteNvme,
        }
    }
}

/// Result of a cache read: where it was served from and what it cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheOutcome {
    pub tier: Tier,
    pub virtual_secs: f64,
}

/// Aggregate hit/miss statistics, counted since the last
/// [`CacheManager::reset_stats`]. [`CacheManager::stats`] builds them from
/// the cache's `ids_cache_*` counters, the only accounting it keeps;
/// [`CacheManager::inspect`] reads the same counters as lifetime values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheStats {
    pub local_dram_hits: u64,
    pub remote_dram_hits: u64,
    pub local_nvme_hits: u64,
    pub remote_nvme_hits: u64,
    pub backing_fetches: u64,
    pub total_misses: u64,
    pub evictions_to_nvme: u64,
    pub evictions_dropped: u64,
    /// Backing fetches of objects that had been cached before (lost to
    /// eviction or node failure) — re-population, not cold traffic.
    pub repopulations: u64,
    /// Transient-failure retries performed inside `get`.
    pub retries: u64,
    /// Cache-tier serves where a preferred copy was fenced, failed its
    /// retries, or was quarantined — and a surviving replica answered.
    pub failover_reads: u64,
    /// Puts that could not reach the configured replication factor
    /// because too few cache nodes were live.
    pub under_replicated_writes: u64,
    /// Checksum mismatches detected (cached copies and backing objects).
    pub corruptions_detected: u64,
    /// Copies restored from a healthy source: quarantined replicas
    /// re-written, replication factor re-established, torn backing
    /// objects rewritten.
    pub repairs: u64,
    /// NVMe→DRAM promotions on reuse.
    pub promotes: u64,
    /// Spills or inserts skipped by the frequency-sketch admission
    /// filter (one-hit wonders under tier pressure).
    pub admission_rejects: u64,
    /// NVMe entries retained across node recoveries (warm restart).
    pub warm_restart_retained: u64,
}

impl CacheStats {
    /// All cache-tier hits (everything short of the backing store).
    pub fn cache_hits(&self) -> u64 {
        self.local_dram_hits + self.remote_dram_hits + self.local_nvme_hits + self.remote_nvme_hits
    }

    /// Hit rate over all accesses that found the object somewhere.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits() + self.backing_fetches;
        if total == 0 {
            0.0
        } else {
            self.cache_hits() as f64 / total as f64
        }
    }
}

/// What one anti-entropy pass did (see [`CacheManager::anti_entropy`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AntiEntropyReport {
    /// Live cached copies whose checksum was verified.
    pub scrubbed: u64,
    /// Copies/backing objects found corrupt during the pass.
    pub corruptions: u64,
    /// Replica copies created to restore the replication factor.
    pub re_replicated: u64,
    /// Torn/rotted backing-store objects rewritten from a healthy replica.
    pub backing_repairs: u64,
}

impl AntiEntropyReport {
    /// Did the pass change or flag anything?
    pub fn is_noop(&self) -> bool {
        self.corruptions == 0 && self.re_replicated == 0 && self.backing_repairs == 0
    }
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

/// Virtual seconds between background anti-entropy passes (scrub +
/// re-replication), checked at engine stage boundaries.
const ANTI_ENTROPY_INTERVAL_SECS: f64 = 1.0;

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
    dram: Vec<TierStore>,
    nvme: Vec<TierStore>,
    /// Global frequency sketch feeding the admission filter and the
    /// TinyLFU eviction duel; every lookup and store records into it.
    sketch: FrequencySketch,
    clock: u64,
    placement_counter: u64,
    /// Nodes taken down explicitly via `fail_node`.
    manual_down: Vec<bool>,
    /// Last availability observed from the attached fault plane.
    plane_down: Vec<bool>,
    /// Nodes declared permanently dead via `fail_node_permanently`: their
    /// contents are purged (not just fenced) and `recover_node` refuses
    /// to bring them back.
    permanent_down: Vec<bool>,
    /// Virtual time at which each node last went down.
    down_since: Vec<f64>,
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
    /// A node is unavailable if the manual switch, the fault plane, or a
    /// permanent-death declaration says so.
    fn is_down(&self, ni: usize) -> bool {
        self.manual_down[ni] || self.plane_down[ni] || self.permanent_down[ni]
    }

    /// Node `ni`'s DRAM (`dram`) or NVMe store.
    fn tier_mut(&mut self, dram: bool, ni: usize) -> &mut TierStore {
        if dram {
            &mut self.dram[ni]
        } else {
            &mut self.nvme[ni]
        }
    }

    /// The fault plane's virtual time (0 without a plane).
    fn now(&self) -> f64 {
        self.plane.as_ref().map_or(0.0, |p| p.now())
    }
}

/// Pre-resolved `ids-obs` handles for the cache's fixed label set, so
/// the hot path bumps atomics without touching the registry maps. These
/// counters are the cache's only accounting: [`CacheStats`] and
/// [`CacheInspection`] are views of them, read under the state lock that
/// every bump they count happens under (only the put-side checksum
/// counter is bumped outside it).
struct CacheMetrics {
    registry: MetricsRegistry,
    hits: [Counter; 4], // local DRAM, remote DRAM, local NVMe, remote NVMe
    backing_fetches: Counter,
    misses: Counter,
    inserts_dram: Counter,
    inserts_nvme: Counter,
    spills: Counter,
    evictions_dram: Counter,
    evictions_nvme: Counter,
    evicted_bytes_dram: Counter,
    evicted_bytes_nvme: Counter,
    size_dram: Gauge,
    size_nvme: Gauge,
    node_failures: Counter,
    node_recoveries: Counter,
    retries: Counter,
    repopulations: Counter,
    retry_wait: Histogram,
    recovery_time: Histogram,
    failover_reads: Counter,
    under_replicated_writes: Counter,
    corruptions_cache: Counter,
    corruptions_backing: Counter,
    quarantines: Counter,
    repairs_replicate: Counter,
    repairs_backing: Counter,
    anti_entropy_runs: Counter,
    scrubbed_objects: Counter,
    victim_pops: Counter,
    promotes: Counter,
    promoted_bytes: Counter,
    admission_rejects_dram: Counter,
    admission_rejects_nvme: Counter,
    warm_retained: Counter,
    warm_verified: Counter,
    spill_bytes: Histogram,
    promote_bytes: Histogram,
    /// Payload bytes run through the CRC kernel, by call site.
    hashed_put: Counter,
    hashed_backing_read: Counter,
    hashed_scrub: Counter,
    hashed_quarantine: Counter,
    hashed_warm_verify: Counter,
}

impl CacheMetrics {
    fn new(registry: MetricsRegistry) -> Self {
        let hit = |tier| registry.counter_with("ids_cache_lookup_hits_total", "tier", tier);
        let hashed =
            |site| registry.counter_with("ids_cache_checksummed_bytes_total", "site", site);
        Self {
            hits: [hit("local_dram"), hit("remote_dram"), hit("local_nvme"), hit("remote_nvme")],
            backing_fetches: hit("backing"),
            misses: registry.counter("ids_cache_lookup_misses_total"),
            inserts_dram: registry.counter_with("ids_cache_inserts_total", "tier", "dram"),
            inserts_nvme: registry.counter_with("ids_cache_inserts_total", "tier", "nvme"),
            spills: registry.counter("ids_cache_spills_total"),
            evictions_dram: registry.counter_with("ids_cache_evictions_total", "tier", "dram"),
            evictions_nvme: registry.counter_with("ids_cache_evictions_total", "tier", "nvme"),
            evicted_bytes_dram: registry.counter_with(
                "ids_cache_evicted_bytes_total",
                "tier",
                "dram",
            ),
            evicted_bytes_nvme: registry.counter_with(
                "ids_cache_evicted_bytes_total",
                "tier",
                "nvme",
            ),
            size_dram: registry.gauge_with("ids_cache_size_bytes", "tier", "dram"),
            size_nvme: registry.gauge_with("ids_cache_size_bytes", "tier", "nvme"),
            node_failures: registry.counter("ids_cache_node_failures_total"),
            node_recoveries: registry.counter("ids_cache_node_recoveries_total"),
            retries: registry.counter("ids_cache_retries_total"),
            repopulations: registry.counter("ids_cache_repopulations_total"),
            retry_wait: registry.histogram("ids_cache_retry_wait_secs"),
            recovery_time: registry.histogram("ids_cache_node_recovery_secs"),
            failover_reads: registry.counter("ids_cache_failover_reads_total"),
            under_replicated_writes: registry.counter("ids_cache_under_replicated_writes_total"),
            corruptions_cache: registry.counter_with(
                "ids_cache_corruptions_detected_total",
                "source",
                "cache",
            ),
            corruptions_backing: registry.counter_with(
                "ids_cache_corruptions_detected_total",
                "source",
                "backing",
            ),
            quarantines: registry.counter("ids_cache_quarantines_total"),
            repairs_replicate: registry.counter_with(
                "ids_cache_repairs_total",
                "kind",
                "re_replicate",
            ),
            repairs_backing: registry.counter_with(
                "ids_cache_repairs_total",
                "kind",
                "backing_rewrite",
            ),
            anti_entropy_runs: registry.counter("ids_cache_anti_entropy_runs_total"),
            scrubbed_objects: registry.counter("ids_cache_scrubbed_objects_total"),
            victim_pops: registry.counter("ids_cache_victim_pops_total"),
            promotes: registry.counter("ids_cache_promotes_total"),
            promoted_bytes: registry.counter("ids_cache_promoted_bytes_total"),
            admission_rejects_dram: registry.counter_with(
                "ids_cache_admission_rejects_total",
                "tier",
                "dram",
            ),
            admission_rejects_nvme: registry.counter_with(
                "ids_cache_admission_rejects_total",
                "tier",
                "nvme",
            ),
            warm_retained: registry.counter("ids_cache_warm_restart_retained_total"),
            warm_verified: registry.counter("ids_cache_warm_restart_verified_total"),
            spill_bytes: registry.histogram("ids_cache_spill_bytes"),
            promote_bytes: registry.histogram("ids_cache_promote_bytes"),
            hashed_put: hashed("put"),
            hashed_backing_read: hashed("backing_read"),
            hashed_scrub: hashed("scrub"),
            hashed_quarantine: hashed("quarantine"),
            hashed_warm_verify: hashed("warm_verify"),
            registry,
        }
    }

    fn tier_hit(&self, tier: Tier) {
        match tier {
            Tier::LocalDram => self.hits[0].inc(),
            Tier::RemoteDram => self.hits[1].inc(),
            Tier::LocalNvme => self.hits[2].inc(),
            Tier::RemoteNvme => self.hits[3].inc(),
            Tier::Backing => self.backing_fetches.inc(),
        }
    }

    fn update_sizes(&self, st: &State) {
        self.size_dram.set(st.dram.iter().map(|t| t.used()).sum::<u64>() as i64);
        self.size_nvme.set(st.nvme.iter().map(|t| t.used()).sum::<u64>() as i64);
    }

    /// The [`CacheStats`] view of the counters, less `base`.
    fn stats_since(&self, base: &CacheStats) -> CacheStats {
        CacheStats {
            local_dram_hits: self.hits[0].get() - base.local_dram_hits,
            remote_dram_hits: self.hits[1].get() - base.remote_dram_hits,
            local_nvme_hits: self.hits[2].get() - base.local_nvme_hits,
            remote_nvme_hits: self.hits[3].get() - base.remote_nvme_hits,
            backing_fetches: self.backing_fetches.get() - base.backing_fetches,
            total_misses: self.misses.get() - base.total_misses,
            evictions_to_nvme: self.spills.get() - base.evictions_to_nvme,
            evictions_dropped: self.evictions_nvme.get() - base.evictions_dropped,
            repopulations: self.repopulations.get() - base.repopulations,
            retries: self.retries.get() - base.retries,
            failover_reads: self.failover_reads.get() - base.failover_reads,
            under_replicated_writes: self.under_replicated_writes.get()
                - base.under_replicated_writes,
            corruptions_detected: self.corruptions_cache.get() + self.corruptions_backing.get()
                - base.corruptions_detected,
            repairs: self.repairs_replicate.get() + self.repairs_backing.get() - base.repairs,
            promotes: self.promotes.get() - base.promotes,
            admission_rejects: self.admission_rejects_dram.get()
                + self.admission_rejects_nvme.get()
                - base.admission_rejects,
            warm_restart_retained: self.warm_retained.get() - base.warm_restart_retained,
        }
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
        let state = State {
            dram: (0..cfg.cache_nodes)
                .map(|_| TierStore::new(TierKind::Dram, cfg.dram_capacity, cfg.eviction))
                .collect(),
            nvme: (0..cfg.cache_nodes)
                .map(|_| TierStore::new(TierKind::Nvme, cfg.nvme_capacity, cfg.eviction))
                .collect(),
            sketch: FrequencySketch::default(),
            clock: 0,
            placement_counter: 0,
            manual_down: vec![false; cfg.cache_nodes],
            plane_down: vec![false; cfg.cache_nodes],
            permanent_down: vec![false; cfg.cache_nodes],
            down_since: vec![0.0; cfg.cache_nodes],
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
        self.state.lock().plane = Some(plane);
    }

    /// Is `node` currently unavailable (manually failed or inside a
    /// fault-plane crash window)?
    pub fn node_is_down(&self, node: NodeId) -> bool {
        let mut st = self.state.lock();
        self.sync_with_plane(&mut st);
        node.index() < self.cfg.cache_nodes && st.is_down(node.index())
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

    /// Statistics since the last [`Self::reset_stats`].
    pub fn stats(&self) -> CacheStats {
        let st = self.state.lock();
        self.metrics.stats_since(&st.baseline)
    }

    /// Reset statistics (not contents, and not the lifetime counters
    /// behind [`Self::inspect`] and [`Self::metrics`]).
    pub fn reset_stats(&self) {
        let mut st = self.state.lock();
        st.baseline = self.metrics.stats_since(&CacheStats::default());
    }

    fn dram_transfer(&self, from: RankId, node: NodeId, bytes: u64) -> f64 {
        if self.topo.node_of(from) == node {
            self.net.intra_latency + bytes as f64 / self.net.intra_bandwidth
        } else {
            self.net.inter_cost(bytes)
        }
    }

    fn nvme_transfer(&self, from: RankId, node: NodeId, bytes: u64) -> f64 {
        let device = DEVICES.nvme_cost(bytes);
        if self.topo.node_of(from) == node {
            device
        } else {
            device + self.net.inter_cost(bytes)
        }
    }

    /// Fold the fault plane's current availability into our up/down
    /// state, firing failure/recovery bookkeeping on transitions. Returns
    /// the plane, for the caller's fault draws.
    fn sync_with_plane(&self, st: &mut State) -> Option<Arc<FaultPlane>> {
        let p = st.plane.clone()?;
        let now = p.now();
        for ni in 0..self.cfg.cache_nodes {
            let pd = p.node_down(NodeId(ni as u32));
            if pd == st.plane_down[ni] {
                continue;
            }
            st.plane_down[ni] = pd;
            if st.manual_down[ni] {
                continue; // combined availability unchanged
            }
            if pd {
                self.on_node_down(st, ni, now);
            } else {
                self.on_node_up(st, ni, now);
            }
        }
        Some(p)
    }

    /// A node became unavailable: fence its entries (they stay resident
    /// but are skipped by every lookup until recovery) and meter it.
    fn on_node_down(&self, st: &mut State, ni: usize, now: f64) {
        st.down_since[ni] = now;
        self.metrics.node_failures.inc();
        self.metrics.registry.spans().record("cache.node_down", format!("node {ni}"), now, now);
    }

    /// A node rejoined. DRAM is volatile and was lost in the crash, so
    /// that tier always comes back empty. The NVMe tier is persistent
    /// media: its entries survive (warm restart) but are distrusted —
    /// marked unverified until the integrity plane re-checks each
    /// checksum, lazily on first read or in bulk at the next anti-entropy
    /// scrub.
    fn on_node_up(&self, st: &mut State, ni: usize, now: f64) {
        st.dram[ni].clear();
        let retained = st.nvme[ni].len() as u64;
        if retained > 0 {
            st.nvme[ni].mark_all_unverified();
            self.metrics.warm_retained.add(retained);
        }
        // DRAM rejoined empty: surviving objects may be under-replicated
        // until the next anti-entropy pass restores the factor.
        st.recovery_pending = true;
        self.metrics.update_sizes(st);
        self.metrics.node_recoveries.inc();
        let downtime = (now - st.down_since[ni]).max(0.0);
        self.metrics.recovery_time.observe(downtime);
        self.metrics.registry.spans().record(
            "cache.node_recovered",
            format!("node {ni} after {downtime:.6}s"),
            st.down_since[ni],
            now,
        );
    }

    /// Per-node liveness vector for the placement policy.
    fn live_vec(&self, st: &State) -> Vec<bool> {
        (0..self.cfg.cache_nodes).map(|ni| !st.is_down(ni)).collect()
    }

    /// Per-node free DRAM bytes (down nodes report zero — they cannot
    /// accept placements anyway).
    fn free_vec(&self, st: &State) -> Vec<u64> {
        st.dram
            .iter()
            .enumerate()
            .map(|(ni, t)| if st.is_down(ni) { 0 } else { t.capacity().saturating_sub(t.used()) })
            .collect()
    }

    /// Replica-set placement restricted to live nodes: up to
    /// [`CacheConfig::replication`] distinct live nodes, possibly fewer
    /// when fewer are up (the caller meters the under-replicated write).
    fn place_live_replicas(&self, st: &mut State, requester: NodeId) -> Vec<NodeId> {
        let live = self.live_vec(st);
        let free = self.free_vec(st);
        st.placement_counter += 1;
        self.cfg.policy.place_replicas(
            requester,
            &free,
            &live,
            st.placement_counter - 1,
            self.cfg.replication,
        )
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

    /// Tier invariant: per-tier `used` must equal the sum of its entries'
    /// sizes and never exceed capacity. Recomputing the sum walks every
    /// entry of every tier, so only debug builds do it after each
    /// mutation batch.
    fn debug_check_accounting(&self, st: &mut State) {
        if cfg!(debug_assertions) {
            self.check_accounting(st);
        }
    }

    /// Recompute-and-heal every tier's accounting (see
    /// [`TierStore::check_accounting`]); release builds run it where a
    /// full scan already happens — anti-entropy and [`Self::inspect`].
    fn check_accounting(&self, st: &mut State) {
        for t in st.dram.iter_mut().chain(st.nvme.iter_mut()) {
            t.check_accounting();
        }
    }

    /// Ingest: the one hash a put pays, metered.
    fn seal_put(&self, data: Bytes) -> Sealed {
        self.metrics.hashed_put.add(data.len() as u64);
        Sealed::seal(data)
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
        let sealed = self.seal_put(data);
        let mut st = self.state.lock();
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
        // Coherence on overwrite: drop every cached copy of this name first
        // (the new placement may land on a different node than a previous
        // put's, and a stale copy must never win the tier search).
        for ni in 0..self.cfg.cache_nodes {
            st.dram[ni].remove(name);
            st.nvme[ni].remove(name);
        }
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
        for &node in &replicas {
            cost += self.dram_transfer(from, node, size) * link.cost_mult();
            let (_, spill_cost) = self.insert_dram(&mut st, node, name, sealed.clone());
            cost += spill_cost;
        }
        if replicas.len() < self.cfg.replication {
            self.note_under_replicated(name, replicas.len(), st.now());
        }
        self.debug_check_accounting(&mut st);
        cost
    }

    /// Meter a write that landed on fewer nodes than the configured
    /// replication factor (too few live nodes).
    fn note_under_replicated(&self, name: &str, copies: usize, now: f64) {
        self.metrics.under_replicated_writes.inc();
        self.metrics.registry.spans().record(
            "cache.under_replicated_write",
            format!("{name}: {copies}/{} copies", self.cfg.replication),
            now,
            now,
        );
    }

    /// Insert into a node's DRAM tier, spilling victims toward NVMe until
    /// the object fits. Returns `(landed_in_dram, device_cost)` where the
    /// cost covers every spill the insert forced (charged to whichever
    /// operation triggered it). Objects too big for DRAM route straight
    /// to NVMe and report `landed_in_dram = false`.
    fn insert_dram(&self, st: &mut State, node: NodeId, name: &str, sealed: Sealed) -> (bool, f64) {
        let size = sealed.size();
        let ni = node.index();
        if size > self.cfg.dram_capacity {
            // Too big for DRAM entirely; go straight to NVMe if it fits.
            let (_, cost) = self.insert_nvme(st, node, name, sealed);
            return (false, cost);
        }
        let clock = st.clock;
        // Remove any stale copy first (overwrite semantics).
        st.dram[ni].remove(name);
        // TinyLFU admission duel: under pressure a candidate only
        // displaces the policy's victim when its sketch estimate is
        // strictly higher — cold scan traffic never erodes a reused
        // resident set. Rejected candidates still get NVMe residency.
        if self.cfg.eviction == EvictionKind::TinyLfu && !st.dram[ni].fits(size) {
            if let Some(victim) = st.dram[ni].peek_victim() {
                if st.sketch.estimate(name) <= st.sketch.estimate(&victim) {
                    self.metrics.admission_rejects_dram.inc();
                    let (_, cost) = self.insert_nvme(st, node, name, sealed);
                    return (false, cost);
                }
            }
        }
        let mut cost = 0.0;
        while !st.dram[ni].fits(size) {
            let Some((victim, e)) = st.dram[ni].pop_victim() else { break };
            self.metrics.victim_pops.inc();
            cost += self.spill_victim(st, node, &victim, e);
        }
        if !st.dram[ni].insert(name, sealed, clock) {
            self.metrics.update_sizes(st);
            return (false, cost);
        }
        self.metrics.inserts_dram.inc();
        self.metrics.update_sizes(st);
        (true, cost)
    }

    /// Handle one DRAM eviction victim: spill it to the same node's NVMe
    /// tier unless the admission filter calls it a one-hit wonder while
    /// NVMe is under pressure, in which case it is dropped outright (the
    /// backing store stays authoritative). Returns the device cost of
    /// the spill write (zero when dropped).
    fn spill_victim(&self, st: &mut State, node: NodeId, victim: &str, e: StoredEntry) -> f64 {
        let size = e.sealed.size();
        let ni = node.index();
        self.metrics.evictions_dram.inc();
        self.metrics.evicted_bytes_dram.add(size);
        if !st.nvme[ni].fits(size) && !st.sketch.admit(victim) {
            // Writing a one-hit wonder would force a disk eviction for
            // nothing; skip the spill.
            self.metrics.admission_rejects_nvme.inc();
            self.metrics.update_sizes(st);
            return 0.0;
        }
        let (stored, cost) = self.insert_nvme(st, node, victim, e.sealed);
        if stored {
            self.metrics.spills.inc();
            self.metrics.spill_bytes.observe(size as f64);
        }
        cost
    }

    /// Insert into a node's NVMe tier, evicting (dropping) victims until
    /// the object fits. Returns `(stored, device_cost)`; objects too big
    /// for the tier are refused with zero cost — only the backing store
    /// holds them.
    fn insert_nvme(&self, st: &mut State, node: NodeId, name: &str, sealed: Sealed) -> (bool, f64) {
        let size = sealed.size();
        if size > self.cfg.nvme_capacity {
            return (false, 0.0);
        }
        let clock = st.clock;
        let ni = node.index();
        st.nvme[ni].remove(name);
        while !st.nvme[ni].fits(size) {
            let Some((_victim, e)) = st.nvme[ni].pop_victim() else { break };
            self.metrics.victim_pops.inc();
            self.metrics.evictions_nvme.inc();
            self.metrics.evicted_bytes_nvme.add(e.sealed.size());
        }
        if !st.nvme[ni].insert(name, sealed, clock) {
            self.metrics.update_sizes(st);
            return (false, 0.0);
        }
        self.metrics.inserts_nvme.inc();
        self.metrics.update_sizes(st);
        (true, DEVICES.nvme_cost(size))
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
        let mut st = self.state.lock();
        self.sync_with_plane(&mut st);
        if st.is_down(to.index()) {
            return None;
        }
        st.clock += 1;
        // Find and remove the current copy (fenced copies on down nodes
        // are not eligible sources — they are lost on recovery anyway).
        // With replication > 1 this moves the first copy found; the other
        // replicas stay where they are.
        let mut found: Option<(usize, Sealed)> = None;
        for ni in 0..self.cfg.cache_nodes {
            if st.is_down(ni) {
                continue;
            }
            if let Some(e) = st.dram[ni].remove(name).or_else(|| st.nvme[ni].remove(name)) {
                found = Some((ni, e.sealed));
                break;
            }
        }
        let (from_node, sealed) = found?;
        let size = sealed.size();
        // Node-to-node transfer cost (inter-node unless already there).
        let mut cost = if from_node == to.index() { 0.0 } else { self.net.inter_cost(size) };
        let (_, spill_cost) = self.insert_dram(&mut st, to, name, sealed);
        cost += spill_cost;
        self.debug_check_accounting(&mut st);
        Some(cost)
    }

    /// Detect injected bit rot on a cached copy: flip one bit (the rot),
    /// verify against the CRC recorded at write time, and quarantine the
    /// copy — it is dropped and metered, never served. Returns `false`
    /// for empty payloads (nothing to rot).
    fn quarantine_if_rotted(&self, st: &mut State, ni: usize, dram: bool, name: &str) -> bool {
        let Some(rotted) =
            st.tier_mut(dram, ni).get(name).and_then(|e| e.sealed.with_flipped_bit())
        else {
            return false;
        };
        self.metrics.hashed_quarantine.add(rotted.size());
        if rotted.verify() {
            return false; // unreachable for a real CRC, kept for honesty
        }
        self.quarantine(st, ni, dram, name)
    }

    /// Re-hash an NVMe entry retained across a warm restart before it is
    /// trusted (nothing is hashed for entries already verified). Returns
    /// true when the copy failed its checksum and was quarantined.
    fn quarantine_if_stale(&self, st: &mut State, ni: usize, name: &str) -> bool {
        let Some(intact) = st.nvme[ni].reverify(name) else { return false };
        self.metrics.hashed_warm_verify.add(st.nvme[ni].size_of(name).unwrap_or(0));
        if intact {
            self.metrics.warm_verified.inc();
            return false;
        }
        self.quarantine(st, ni, false, name)
    }

    /// Drop a copy that failed its checksum and meter the quarantine.
    /// Returns false when the copy was already gone.
    fn quarantine(&self, st: &mut State, ni: usize, dram: bool, name: &str) -> bool {
        if st.tier_mut(dram, ni).remove(name).is_none() {
            return false;
        }
        self.metrics.corruptions_cache.inc();
        self.metrics.quarantines.inc();
        self.metrics.update_sizes(st);
        let now = st.now();
        self.metrics.registry.spans().record(
            "cache.quarantine",
            format!("{name} on node {ni}: checksum mismatch"),
            now,
            now,
        );
        true
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
        let mut st = self.state.lock();
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
        let fenced = (0..nodes)
            .any(|ni| st.is_down(ni) && (st.dram[ni].contains(name) || st.nvme[ni].contains(name)));
        let mut exhausted = false;
        let mut quarantined: Vec<NodeId> = Vec::new();

        let nodes_in_order =
            std::iter::once(my).filter(|&n| n < nodes).chain((0..nodes).filter(move |&n| n != my));
        let search = [true, false]
            .into_iter()
            .flat_map(|dram| nodes_in_order.clone().map(move |ni| (dram, ni)));
        // (copy, serving node, tier) once a healthy copy answers.
        let mut serve: Option<(Sealed, usize, Tier)> = None;
        for (dram, ni) in search {
            if st.is_down(ni) {
                continue;
            }
            let Some(size) = st.tier_mut(dram, ni).size_of(name) else { continue };
            let local = ni == my;
            let node = NodeId(ni as u32);
            let cost = if dram {
                self.dram_transfer(from, node, size)
            } else {
                self.nvme_transfer(from, node, size)
            };
            if !self.attempt_access(plane, from, !local, cost * link.cost_mult(), &mut spent) {
                exhausted = true;
                continue;
            }
            // The read landed; now verify the copy. Bit rot may have hit it
            // since the write (the read cost is already paid), and an NVMe
            // entry retained across a warm restart is re-hashed before its
            // first serve. Either mismatch fails over to the next copy.
            if (plane.is_some_and(|p| p.bit_rot(from))
                && self.quarantine_if_rotted(&mut st, ni, dram, name))
                || (!dram && self.quarantine_if_stale(&mut st, ni, name))
            {
                quarantined.push(node);
                continue;
            }
            let store = st.tier_mut(dram, ni);
            store.touch(name, clock);
            let Some(e) = store.get(name) else { continue };
            serve = Some((e.sealed.clone(), ni, Tier::cached(dram, local)));
            break;
        }

        if let Some((sealed, ni, tier)) = serve {
            self.metrics.tier_hit(tier);
            if fenced || exhausted || !quarantined.is_empty() {
                self.metrics.failover_reads.inc();
            }
            // Promote hot NVMe objects back to DRAM on the serving node —
            // a true move: once the DRAM copy lands, the NVMe copy is
            // released. The DRAM write and any cascaded spills are
            // charged to this get.
            let size = sealed.size();
            if matches!(tier, Tier::LocalNvme | Tier::RemoteNvme) && size <= self.cfg.dram_capacity
            {
                let (landed, spill_cost) =
                    self.insert_dram(&mut st, NodeId(ni as u32), name, sealed.clone());
                spent += spill_cost;
                if landed {
                    st.nvme[ni].remove(name);
                    spent += DEVICES.dram_cost(size);
                    self.metrics.promotes.inc();
                    self.metrics.promoted_bytes.add(size);
                    self.metrics.promote_bytes.observe(size as f64);
                    self.metrics.update_sizes(&st);
                }
            }
            // Read-path repair: replicas quarantined above are restored
            // from this healthy copy, charged as node-to-node transfers.
            for &node in &quarantined {
                if node.index() != ni {
                    spent += self.net.inter_cost(size);
                }
                let (_, spill_cost) = self.insert_dram(&mut st, node, name, sealed.clone());
                spent += spill_cost;
                self.metrics.repairs_replicate.inc();
            }
            self.debug_check_accounting(&mut st);
            return Ok(Some((sealed.into_bytes(), CacheOutcome { tier, virtual_secs: spent })));
        }

        // Ephemeral objects have no authoritative backing copy: once no
        // cache tier can serve one it is simply gone, and the directory
        // lookup above already established that. Report a miss without
        // the backing-store RPC — the caller recomputes.
        if st.ephemeral.contains(name) {
            self.metrics.misses.inc();
            return Ok(None);
        }

        // Backing store: authoritative, checksum-verified fallback +
        // re-population of a full replica set.
        let fetched = self.backing.get_checked(name);
        let Some(read) = fetched.value else {
            self.metrics.misses.inc();
            return Ok(None);
        };
        self.metrics.hashed_backing_read.add(read.size());
        let cost = fetched.virtual_secs * link.cost_mult();
        if !self.attempt_access(plane, from, true, cost, &mut spent) {
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
        for &node in &replicas {
            let (_, spill_cost) = self.insert_dram(&mut st, node, name, sealed.clone());
            spent += spill_cost;
        }
        if !replicas.is_empty() {
            remember(&mut st.ever_cached, name);
        }
        self.debug_check_accounting(&mut st);
        let outcome = CacheOutcome { tier: Tier::Backing, virtual_secs: spent };
        Ok(Some((sealed.into_bytes(), outcome)))
    }

    /// Locality query: which cache nodes hold the object, and in which
    /// tier. Schedulers use this to co-locate computation with data (§3.2).
    pub fn locality(&self, name: &str) -> Vec<(NodeId, Tier)> {
        let mut st = self.state.lock();
        self.sync_with_plane(&mut st);
        let mut out = Vec::new();
        // Down nodes never appear: their fenced entries cannot serve and
        // are lost on recovery, so reporting them would mislead schedulers.
        for ni in (0..self.cfg.cache_nodes).filter(|&ni| !st.is_down(ni)) {
            if st.dram[ni].contains(name) {
                out.push((NodeId(ni as u32), Tier::LocalDram));
            }
            if st.nvme[ni].contains(name) {
                out.push((NodeId(ni as u32), Tier::LocalNvme));
            }
        }
        out
    }

    /// Metadata for a cached object, if cached on any live node.
    pub fn meta(&self, name: &str) -> Option<ObjectMeta> {
        let mut st = self.state.lock();
        self.sync_with_plane(&mut st);
        for ni in (0..self.cfg.cache_nodes).filter(|&ni| !st.is_down(ni)) {
            if let Some(e) = st.dram[ni].get(name).or_else(|| st.nvme[ni].get(name)) {
                return Some(ObjectMeta {
                    name: name.to_string(),
                    id: object_id(name),
                    size: e.sealed.size(),
                    node: NodeId(ni as u32),
                    checksum: e.sealed.checksum(),
                });
            }
        }
        None
    }

    /// Take a cache node down (idempotent). Its entries are *fenced* —
    /// skipped by every lookup — until [`Self::recover_node`], at which
    /// point the crash semantics apply: DRAM contents are lost (volatile)
    /// and re-populate on demand, while NVMe contents survive, pending
    /// checksum re-verification.
    pub fn fail_node(&self, node: NodeId) {
        let mut st = self.state.lock();
        let now = st.now();
        let ni = node.index();
        if ni >= self.cfg.cache_nodes || st.manual_down[ni] {
            return; // unknown node or already down: nothing to do
        }
        st.manual_down[ni] = true;
        if !st.plane_down[ni] {
            self.on_node_down(&mut st, ni, now);
        }
    }

    /// Bring a manually failed node back (idempotent). Its DRAM rejoins
    /// empty (lost in the crash); its NVMe tier rejoins warm, every
    /// retained entry held back until re-verified. A node declared
    /// permanently dead never rejoins.
    pub fn recover_node(&self, node: NodeId) {
        let mut st = self.state.lock();
        let now = st.now();
        let ni = node.index();
        if ni >= self.cfg.cache_nodes || !st.manual_down[ni] || st.permanent_down[ni] {
            return;
        }
        st.manual_down[ni] = false;
        if !st.plane_down[ni] {
            self.on_node_up(&mut st, ni, now);
        }
    }

    /// Declare a cache node permanently dead (idempotent): its DRAM/NVMe
    /// entries are purged immediately — a checkpoint it owned must never
    /// serve a later read, even if some bug resurrected the node — and
    /// survivors are flagged under-replicated so the next anti-entropy
    /// pass restores the replication factor from the remaining copies.
    /// Called by the engine's recovery plane when a compute rank's node
    /// dies with no recovery window.
    pub fn fail_node_permanently(&self, node: NodeId) {
        let mut st = self.state.lock();
        let now = st.now();
        let ni = node.index();
        if ni >= self.cfg.cache_nodes || st.permanent_down[ni] {
            return;
        }
        let was_down = st.is_down(ni);
        st.permanent_down[ni] = true;
        // Permanent death purges both tiers — warm restart never applies
        // to a node that is gone for good.
        st.dram[ni].clear();
        st.nvme[ni].clear();
        self.metrics.update_sizes(&st);
        st.recovery_pending = true;
        self.metrics.registry.counter("ids_cache_permanent_failures_total").inc();
        if !was_down {
            self.on_node_down(&mut st, ni, now);
        }
    }

    /// Run the anti-entropy pass if it is due: either a node recovered
    /// since the last pass (its wiped contents left survivors
    /// under-replicated) or a virtual second elapsed since the last pass. The engine calls this at stage
    /// boundaries — single-threaded points on the virtual clock, so the
    /// scrub's deterministic draw streams are consumed in a fixed order.
    /// Returns `None` when the pass is not due or no fault plane is
    /// attached (without a plane there is no virtual clock to schedule
    /// against; use [`Self::anti_entropy`] to force a pass).
    pub fn maybe_anti_entropy(&self) -> Option<AntiEntropyReport> {
        let mut st = self.state.lock();
        let p = self.sync_with_plane(&mut st)?;
        let now = p.now();
        if !st.recovery_pending && now - st.last_anti_entropy < ANTI_ENTROPY_INTERVAL_SECS {
            return None;
        }
        Some(self.run_anti_entropy(&mut st, Some(&p), now))
    }

    /// Force an anti-entropy pass now, regardless of schedule: scrub
    /// live copies against their checksums, rewrite corrupt backing
    /// objects from healthy replicas, and restore the replication factor
    /// for under-replicated survivors.
    pub fn anti_entropy(&self) -> AntiEntropyReport {
        let mut st = self.state.lock();
        let plane = self.sync_with_plane(&mut st);
        let now = st.now();
        self.run_anti_entropy(&mut st, plane.as_deref(), now)
    }

    fn run_anti_entropy(
        &self,
        st: &mut State,
        plane: Option<&FaultPlane>,
        now: f64,
    ) -> AntiEntropyReport {
        st.last_anti_entropy = now;
        st.recovery_pending = false;
        self.metrics.anti_entropy_runs.inc();
        let mut report = AntiEntropyReport::default();

        let live: Vec<usize> = (0..self.cfg.cache_nodes).filter(|&ni| !st.is_down(ni)).collect();

        // 1. Scrub: verify every live cached copy against its recorded
        //    checksum, in deterministic (node, sorted-name) order. The
        //    per-node scrub draw streams are independent of the rank
        //    streams, so scrubbing never perturbs read-path outcomes.
        for &ni in &live {
            let mut names: Vec<(String, bool)> = st.dram[ni]
                .names_sorted()
                .into_iter()
                .map(|n| (n, true))
                .chain(st.nvme[ni].names_sorted().into_iter().map(|n| (n, false)))
                .collect();
            names.sort();
            for (name, dram) in names {
                report.scrubbed += 1;
                self.metrics.scrubbed_objects.inc();
                if plane.is_some_and(|p| p.bit_rot_scrub(NodeId(ni as u32)))
                    && self.quarantine_if_rotted(st, ni, dram, &name)
                {
                    report.corruptions += 1;
                } else if !dram && self.quarantine_if_stale(st, ni, &name) {
                    // The scrub re-hashes every entry retained across a
                    // warm restart; this one rotted while the node was down.
                    report.corruptions += 1;
                }
            }
        }

        // Names still cached on at least one live node, with their
        // healthy source copies.
        let cached: BTreeSet<String> = live
            .iter()
            .flat_map(|&ni| {
                st.dram[ni].names_sorted().into_iter().chain(st.nvme[ni].names_sorted())
            })
            .collect();

        for name in &cached {
            let holders: Vec<usize> = live
                .iter()
                .copied()
                .filter(|&ni| st.dram[ni].contains(name) || st.nvme[ni].contains(name))
                .collect();
            let Some(&src) = holders.first() else { continue };
            let Some(sealed) =
                st.dram[src].get(name).or_else(|| st.nvme[src].get(name)).map(|e| e.sealed.clone())
            else {
                continue; // holder lost its copy between scans
            };

            // 2. Backing integrity: a torn/rotted authoritative copy is
            //    rewritten from the healthy replica before any read can
            //    trip over it.
            if let Some(read) = self.backing.get_checked(name).value {
                self.metrics.hashed_scrub.add(read.size());
                if read.intact().is_none() {
                    report.corruptions += 1;
                    self.metrics.corruptions_backing.inc();
                    self.backing.put(name, sealed.clone());
                    report.backing_repairs += 1;
                    self.metrics.repairs_backing.inc();
                }
            }

            // 3. Re-replication: restore the replication factor for
            //    survivors (a recovered node rejoined empty). Targets are
            //    the live non-holders with the most free DRAM, ties to
            //    the lowest index — the same deterministic order the
            //    placement policy documents.
            let target = self.cfg.replication.min(live.len());
            if holders.len() >= target {
                continue;
            }
            let free = self.free_vec(st);
            let mut dests: Vec<usize> =
                live.iter().copied().filter(|ni| !holders.contains(ni)).collect();
            dests.sort_by_key(|&ni| (std::cmp::Reverse(free[ni]), ni));
            for &dest in dests.iter().take(target - holders.len()) {
                let _ = self.insert_dram(st, NodeId(dest as u32), name, sealed.clone());
                report.re_replicated += 1;
                self.metrics.repairs_replicate.inc();
            }
        }

        self.check_accounting(st);
        self.metrics.registry.spans().record(
            "cache.anti_entropy",
            format!(
                "scrubbed {} corruptions {} re_replicated {} backing_repairs {}",
                report.scrubbed, report.corruptions, report.re_replicated, report.backing_repairs
            ),
            now,
            now,
        );
        report
    }

    /// Drop an object from every cache tier (backing copy untouched).
    pub fn invalidate(&self, name: &str) {
        let mut st = self.state.lock();
        for ni in 0..self.cfg.cache_nodes {
            st.dram[ni].remove(name);
            st.nvme[ni].remove(name);
        }
        self.metrics.update_sizes(&st);
        self.debug_check_accounting(&mut st);
    }

    /// Point-in-time cache inspector: per-node per-tier occupancy plus
    /// the lifetime movement counters (spills, promotes, admission
    /// rejects, warm-restart retention), which [`Self::reset_stats`] does
    /// not zero. Rendered into the EXPLAIN `cache tiers:` block and the
    /// `cache_tiers` experiment's final inspection.
    pub fn inspect(&self) -> CacheInspection {
        let mut st = self.state.lock();
        self.sync_with_plane(&mut st);
        self.check_accounting(&mut st);
        let mut tiers = Vec::new();
        for stores in [&st.dram, &st.nvme] {
            for (ni, t) in stores.iter().enumerate() {
                tiers.push(TierInspection {
                    node: ni,
                    tier: t.kind().label().to_string(),
                    capacity_bytes: t.capacity(),
                    occupied_bytes: t.used(),
                    entries: t.len() as u64,
                    unverified: t.unverified(),
                    victim_pops: t.victim_pops(),
                });
            }
        }
        let m = &self.metrics;
        CacheInspection {
            eviction: self.cfg.eviction,
            tiers,
            hits: m.hits.each_ref().map(Counter::get),
            backing_fetches: m.backing_fetches.get(),
            misses: m.misses.get(),
            spills: m.spills.get(),
            promotes: m.promotes.get(),
            admission_rejects: m.admission_rejects_dram.get() + m.admission_rejects_nvme.get(),
            warm_retained: m.warm_retained.get(),
            warm_verified: m.warm_verified.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(c.state.lock().nvme[0].corrupt("a"));
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
        assert!(c.state.lock().nvme[0].corrupt("a"));
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
        assert!(c.state.lock().nvme[0].corrupt("a"));
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
