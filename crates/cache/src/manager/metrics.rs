//! The cache's account: pre-resolved `ids_cache_*` handles, and the
//! [`CacheStats`] and [`CacheInspection`] views of them.

use super::{lock, CacheManager, State, Tier};
use crate::inspect::{CacheInspection, TierInspection};
use crate::tier::TierKind;
use ids_obs::{Counter, Gauge, Histogram, MetricsRegistry};

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

/// Pre-resolved `ids-obs` handles for the cache's fixed label set, so
/// the hot path bumps atomics without touching the registry maps. These
/// counters are the cache's only accounting: [`CacheStats`] and
/// [`CacheInspection`] are views of them, read under the state lock that
/// every bump they count happens under (only the put-side checksum
/// counter is bumped outside it). Per-tier arrays are indexed by
/// `TierKind as usize`.
pub(super) struct CacheMetrics {
    pub(super) registry: MetricsRegistry,
    /// Lookup hits by serving tier, indexed by `Tier as usize`.
    hits: [Counter; 5],
    pub(super) misses: Counter,
    pub(super) inserts: [Counter; 2],
    pub(super) spills: Counter,
    evictions: [Counter; 2],
    evicted_bytes: [Counter; 2],
    sizes: [Gauge; 2],
    pub(super) node_failures: Counter,
    pub(super) node_recoveries: Counter,
    pub(super) retries: Counter,
    pub(super) repopulations: Counter,
    pub(super) retry_wait: Histogram,
    pub(super) recovery_time: Histogram,
    pub(super) failover_reads: Counter,
    pub(super) under_replicated_writes: Counter,
    pub(super) corruptions_cache: Counter,
    pub(super) corruptions_backing: Counter,
    pub(super) quarantines: Counter,
    pub(super) repairs_replicate: Counter,
    pub(super) repairs_backing: Counter,
    pub(super) anti_entropy_runs: Counter,
    pub(super) scrubbed_objects: Counter,
    pub(super) victim_pops: Counter,
    pub(super) promotes: Counter,
    pub(super) promoted_bytes: Counter,
    pub(super) admission_rejects: [Counter; 2],
    pub(super) warm_retained: Counter,
    pub(super) warm_verified: Counter,
    pub(super) spill_bytes: Histogram,
    pub(super) promote_bytes: Histogram,
    /// Payload bytes run through the CRC kernel, by call site.
    pub(super) hashed_put: Counter,
    pub(super) hashed_backing_read: Counter,
    pub(super) hashed_scrub: Counter,
    pub(super) hashed_quarantine: Counter,
    pub(super) hashed_warm_verify: Counter,
}

impl CacheMetrics {
    pub(super) fn new(registry: MetricsRegistry) -> Self {
        let hit = |tier| registry.counter_with("ids_cache_lookup_hits_total", "tier", tier);
        let hashed =
            |site| registry.counter_with("ids_cache_checksummed_bytes_total", "site", site);
        let per_tier = |name| TierKind::ALL.map(|k| registry.counter_with(name, "tier", k.label()));
        let corruptions = |source| {
            registry.counter_with("ids_cache_corruptions_detected_total", "source", source)
        };
        let repairs = |kind| registry.counter_with("ids_cache_repairs_total", "kind", kind);
        Self {
            hits: ["local_dram", "remote_dram", "local_nvme", "remote_nvme", "backing"].map(hit),
            misses: registry.counter("ids_cache_lookup_misses_total"),
            inserts: per_tier("ids_cache_inserts_total"),
            spills: registry.counter("ids_cache_spills_total"),
            evictions: per_tier("ids_cache_evictions_total"),
            evicted_bytes: per_tier("ids_cache_evicted_bytes_total"),
            sizes: TierKind::ALL
                .map(|k| registry.gauge_with("ids_cache_size_bytes", "tier", k.label())),
            node_failures: registry.counter("ids_cache_node_failures_total"),
            node_recoveries: registry.counter("ids_cache_node_recoveries_total"),
            retries: registry.counter("ids_cache_retries_total"),
            repopulations: registry.counter("ids_cache_repopulations_total"),
            retry_wait: registry.histogram("ids_cache_retry_wait_secs"),
            recovery_time: registry.histogram("ids_cache_node_recovery_secs"),
            failover_reads: registry.counter("ids_cache_failover_reads_total"),
            under_replicated_writes: registry.counter("ids_cache_under_replicated_writes_total"),
            corruptions_cache: corruptions("cache"),
            corruptions_backing: corruptions("backing"),
            quarantines: registry.counter("ids_cache_quarantines_total"),
            repairs_replicate: repairs("re_replicate"),
            repairs_backing: repairs("backing_rewrite"),
            anti_entropy_runs: registry.counter("ids_cache_anti_entropy_runs_total"),
            scrubbed_objects: registry.counter("ids_cache_scrubbed_objects_total"),
            victim_pops: registry.counter("ids_cache_victim_pops_total"),
            promotes: registry.counter("ids_cache_promotes_total"),
            promoted_bytes: registry.counter("ids_cache_promoted_bytes_total"),
            admission_rejects: per_tier("ids_cache_admission_rejects_total"),
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

    pub(super) fn tier_hit(&self, tier: Tier) {
        self.hits[tier as usize].inc();
    }

    /// An instant span: something happened at virtual time `now`.
    pub(super) fn event(&self, name: &'static str, detail: String, now: f64) {
        self.registry.spans().record(name, detail, now, now);
    }

    /// One eviction of `bytes` from tier `kind`.
    pub(super) fn evicted(&self, kind: TierKind, bytes: u64) {
        self.evictions[kind as usize].inc();
        self.evicted_bytes[kind as usize].add(bytes);
    }

    pub(super) fn update_sizes(&self, st: &State) {
        for (gauge, stores) in self.sizes.iter().zip(&st.tiers) {
            gauge.set(stores.iter().map(|t| t.used()).sum::<u64>() as i64);
        }
    }

    /// The [`CacheStats`] view of the counters, less `base`.
    fn stats_since(&self, base: &CacheStats) -> CacheStats {
        CacheStats {
            local_dram_hits: self.hits[0].get() - base.local_dram_hits,
            remote_dram_hits: self.hits[1].get() - base.remote_dram_hits,
            local_nvme_hits: self.hits[2].get() - base.local_nvme_hits,
            remote_nvme_hits: self.hits[3].get() - base.remote_nvme_hits,
            backing_fetches: self.hits[Tier::Backing as usize].get() - base.backing_fetches,
            total_misses: self.misses.get() - base.total_misses,
            evictions_to_nvme: self.spills.get() - base.evictions_to_nvme,
            evictions_dropped: self.evictions[TierKind::Nvme as usize].get()
                - base.evictions_dropped,
            repopulations: self.repopulations.get() - base.repopulations,
            retries: self.retries.get() - base.retries,
            failover_reads: self.failover_reads.get() - base.failover_reads,
            under_replicated_writes: self.under_replicated_writes.get()
                - base.under_replicated_writes,
            corruptions_detected: self.corruptions_cache.get() + self.corruptions_backing.get()
                - base.corruptions_detected,
            repairs: self.repairs_replicate.get() + self.repairs_backing.get() - base.repairs,
            promotes: self.promotes.get() - base.promotes,
            admission_rejects: self.admission_rejects.iter().map(Counter::get).sum::<u64>()
                - base.admission_rejects,
            warm_restart_retained: self.warm_retained.get() - base.warm_restart_retained,
        }
    }
}

impl CacheManager {
    /// Statistics since the last [`Self::reset_stats`].
    pub fn stats(&self) -> CacheStats {
        let st = lock(&self.state);
        self.metrics.stats_since(&st.baseline)
    }

    /// Reset statistics (not contents, and not the lifetime counters
    /// behind [`Self::inspect`] and [`Self::metrics`]).
    pub fn reset_stats(&self) {
        let mut st = lock(&self.state);
        st.baseline = self.metrics.stats_since(&CacheStats::default());
    }

    /// Point-in-time cache inspector: per-node per-tier occupancy plus
    /// the lifetime movement counters (spills, promotes, admission
    /// rejects, warm-restart retention), which [`Self::reset_stats`] does
    /// not zero. Rendered into the EXPLAIN `cache tiers:` block and the
    /// `cache_tiers` experiment's final inspection.
    pub fn inspect(&self) -> CacheInspection {
        let mut st = lock(&self.state);
        self.sync_with_plane(&mut st);
        self.check_accounting(&mut st);
        let tiers = st
            .tiers
            .iter()
            .flat_map(|stores| stores.iter().enumerate())
            .map(|(ni, t)| TierInspection {
                node: ni,
                tier: t.kind().label().to_string(),
                capacity_bytes: t.capacity(),
                occupied_bytes: t.used(),
                entries: t.len() as u64,
                unverified: t.unverified(),
                victim_pops: t.victim_pops(),
            })
            .collect();
        let m = &self.metrics;
        CacheInspection {
            eviction: self.cfg.eviction,
            tiers,
            hits: std::array::from_fn(|i| m.hits[i].get()),
            backing_fetches: m.hits[Tier::Backing as usize].get(),
            misses: m.misses.get(),
            spills: m.spills.get(),
            promotes: m.promotes.get(),
            admission_rejects: m.admission_rejects.iter().map(Counter::get).sum(),
            warm_retained: m.warm_retained.get(),
            warm_verified: m.warm_verified.get(),
        }
    }
}
