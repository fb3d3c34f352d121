//! Integrity: quarantine of copies that fail their checksum,
//! re-verification of NVMe entries retained across a warm restart, the
//! background anti-entropy pass, and the tier-accounting checks.

use super::movement::free_dram;
use super::{lock, CacheManager, State};
use crate::tier::TierKind;
use ids_simrt::faults::FaultPlane;
use ids_simrt::topology::NodeId;
use std::collections::BTreeSet;

/// Virtual seconds between background anti-entropy passes (scrub +
/// re-replication), checked at engine stage boundaries.
const ANTI_ENTROPY_INTERVAL_SECS: f64 = 1.0;

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

/// Node `ni`'s resident names, each with its tier: DRAM's, then NVMe's.
fn names_on(st: &State, ni: usize) -> impl Iterator<Item = (String, TierKind)> + '_ {
    TierKind::ALL
        .into_iter()
        .flat_map(move |k| st.tier(k, ni).names_sorted().into_iter().map(move |name| (name, k)))
}

impl CacheManager {
    /// Check one copy before it is trusted; true when it failed and was
    /// quarantined. `rot` is the caller's bit-rot draw: it flips one bit
    /// of the copy, which the CRC recorded at write time then catches
    /// (an empty payload has nothing to rot). An NVMe entry retained
    /// across a warm restart is re-hashed; entries already verified hash
    /// nothing.
    pub(super) fn quarantine_if_bad(
        &self,
        st: &mut State,
        ni: usize,
        kind: TierKind,
        name: &str,
        rot: bool,
    ) -> bool {
        let rotted = rot.then(|| st.tier(kind, ni).get(name)?.sealed.with_flipped_bit()).flatten();
        if let Some(rotted) = rotted {
            self.metrics.hashed_quarantine.add(rotted.size());
            // A real CRC never verifies the flipped copy; kept for honesty.
            if !rotted.verify() && self.quarantine(st, ni, kind, name) {
                return true;
            }
        }
        if kind != TierKind::Nvme {
            return false;
        }
        let nvme = st.tier_mut(kind, ni);
        let Some(intact) = nvme.reverify(name) else { return false };
        self.metrics.hashed_warm_verify.add(nvme.size_of(name).unwrap_or(0));
        if intact {
            self.metrics.warm_verified.inc();
            return false;
        }
        self.quarantine(st, ni, kind, name)
    }

    /// Drop a copy that failed its checksum and meter the quarantine.
    /// Returns false when the copy was already gone.
    fn quarantine(&self, st: &mut State, ni: usize, kind: TierKind, name: &str) -> bool {
        if st.tier_mut(kind, ni).remove(name).is_none() {
            return false;
        }
        self.metrics.corruptions_cache.inc();
        self.metrics.quarantines.inc();
        self.metrics.update_sizes(st);
        let detail = format!("{name} on node {ni}: checksum mismatch");
        self.metrics.event("cache.quarantine", detail, st.now());
        true
    }

    /// Run the anti-entropy pass if it is due: either a node recovered
    /// since the last pass (its wiped contents left survivors
    /// under-replicated) or a virtual second elapsed since the last pass.
    /// The engine calls this at stage boundaries — single-threaded points
    /// on the virtual clock, so the scrub's deterministic draw streams are
    /// consumed in a fixed order.
    /// Returns `None` when the pass is not due or no fault plane is
    /// attached (without a plane there is no virtual clock to schedule
    /// against; use [`Self::anti_entropy`] to force a pass).
    pub fn maybe_anti_entropy(&self) -> Option<AntiEntropyReport> {
        let mut st = lock(&self.state);
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
        let mut st = lock(&self.state);
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
        //    checksum, in deterministic (node, sorted-name) order, NVMe
        //    before DRAM for a name on both. The per-node scrub draw
        //    streams are independent of the rank streams, so scrubbing
        //    never perturbs read-path outcomes.
        for &ni in &live {
            let mut names: Vec<(String, TierKind)> = names_on(st, ni).collect();
            names.sort_by(|(a, ka), (b, kb)| a.cmp(b).then((*kb as usize).cmp(&(*ka as usize))));
            for (name, kind) in names {
                report.scrubbed += 1;
                self.metrics.scrubbed_objects.inc();
                // Fresh rot, or a warm-restart entry that rotted while its
                // node was down.
                let rot = plane.is_some_and(|p| p.bit_rot_scrub(NodeId(ni as u32)));
                if self.quarantine_if_bad(st, ni, kind, &name, rot) {
                    report.corruptions += 1;
                }
            }
        }

        // Names still cached on at least one live node, with their
        // healthy source copies.
        let cached: BTreeSet<String> =
            live.iter().flat_map(|&ni| names_on(st, ni).map(|(name, _)| name)).collect();

        for name in &cached {
            let holders: Vec<usize> =
                live.iter().copied().filter(|&ni| st.copy_on(ni, name).is_some()).collect();
            let Some(&src) = holders.first() else { continue };
            let Some(sealed) = st.copy_on(src, name).map(|e| e.sealed.clone()) else {
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
            let free = free_dram(st);
            let mut dests: Vec<usize> =
                live.iter().copied().filter(|ni| !holders.contains(ni)).collect();
            dests.sort_by_key(|&ni| (std::cmp::Reverse(free[ni]), ni));
            let dests: Vec<NodeId> =
                dests.iter().take(target - holders.len()).map(|&ni| NodeId(ni as u32)).collect();
            // Background work: the spills it forces bill no query.
            self.land_copies(st, &dests, name, &sealed, |_| 0.0, &mut 0.0);
            report.re_replicated += dests.len() as u64;
            self.metrics.repairs_replicate.add(dests.len() as u64);
        }

        self.check_accounting(st);
        let AntiEntropyReport { scrubbed, corruptions, re_replicated, backing_repairs } = report;
        let detail = format!(
            "scrubbed {scrubbed} corruptions {corruptions} re_replicated {re_replicated} backing_repairs {backing_repairs}"
        );
        self.metrics.event("cache.anti_entropy", detail, now);
        report
    }

    /// Tier invariant: per-tier `used` must equal the sum of its entries'
    /// sizes and never exceed capacity. Recomputing the sum walks every
    /// entry of every tier, so only debug builds do it after each
    /// mutation batch.
    pub(super) fn debug_check_accounting(&self, st: &mut State) {
        if cfg!(debug_assertions) {
            self.check_accounting(st);
        }
    }

    /// Recompute-and-heal every tier's accounting (see
    /// [`crate::TierStore::check_accounting`]); release builds run it
    /// where a full scan already happens — anti-entropy and
    /// [`Self::inspect`].
    pub(super) fn check_accounting(&self, st: &mut State) {
        for t in st.tiers.iter_mut().flatten() {
            t.check_accounting();
        }
    }
}
