//! Deterministic fault-injection plane for chaos testing.
//!
//! The paper's cache is explicitly failure-aware (§3.2: a failed cache
//! node loses its DRAM/SSD contents, which are later re-populated from
//! the backing store). This module makes that failure model — and more —
//! injectable *deterministically*, following the FoundationDB-style
//! simulation-testing methodology: every fault is drawn from a seeded
//! schedule over the **virtual** clock, so a chaos run is exactly
//! reproducible from its seed and can be compared byte-for-byte against
//! the fault-free run.
//!
//! Five fault classes are modelled:
//!
//! * **Node crash/recovery windows** — per cache node, alternating
//!   exponential up/down durations. While a node is inside a down
//!   window, layers that consult the plane treat it as unreachable.
//! * **Transient op failures** — each remote FAM/cache access fails
//!   independently with a configured probability; the draw is indexed
//!   by `(rank, per-rank op counter)`, so it is deterministic no matter
//!   how rank closures interleave on host threads.
//! * **Link degradation windows** — global windows during which network
//!   latency is multiplied up and bandwidth multiplied down.
//! * **Straggler ranks** — a seeded subset of ranks runs slower by a
//!   constant factor, applied to their compute-phase busy time.
//! * **Storage integrity faults** — cache-tier reads can find their copy
//!   bit-rotted and backing-store writes can land torn; both are caught
//!   by CRC32 checksums and repaired, never served.
//!
//! The plane's cursor only moves at `advance_to` calls (between BSP
//! phases), so every rank observes the same availability state within a
//! phase — a prerequisite for deterministic replay.

use crate::rng::SplitMix64;
use crate::sync::lock;
use crate::topology::{NodeId, RankId};
use ids_obs::{Counter, MetricsRegistry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Node crash/recovery schedule parameters (exponential up/down times).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashConfig {
    /// Mean virtual seconds a node stays up between crashes.
    pub mean_uptime_secs: f64,
    /// Mean virtual seconds a crashed node stays down.
    pub mean_downtime_secs: f64,
}

/// Transient (retryable) failure probability for remote operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientConfig {
    /// Probability that any single remote op attempt fails transiently.
    pub fail_prob: f64,
}

/// Link-degradation schedule: alternating healthy/degraded windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Mean virtual seconds between degradation windows.
    pub mean_healthy_secs: f64,
    /// Mean virtual seconds a degradation window lasts.
    pub mean_degraded_secs: f64,
    /// Latency multiplier while degraded (>= 1).
    pub latency_mult: f64,
    /// Bandwidth multiplier while degraded (in `(0, 1]`).
    pub bandwidth_mult: f64,
}

/// Straggler-rank selection: a seeded subset of ranks runs slower.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerConfig {
    /// Fraction of ranks that straggle (in `[0, 1]`).
    pub fraction: f64,
    /// Compute slowdown factor for straggler ranks (>= 1).
    pub slowdown: f64,
}

/// Permanent node kills: crashes with **no recovery window**. Unlike
/// [`CrashConfig`] windows — which end and let the node rejoin — a
/// permanent kill takes the node (and every rank it hosts) out for the
/// rest of the run. This is the fault class the query-level recovery
/// plane exists for: masking cannot help, only rollback + re-planning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PermanentCrashConfig {
    /// Mean virtual seconds until a node is permanently killed
    /// (exponential draw per node; draws past the horizon never fire).
    pub mean_time_to_kill_secs: f64,
    /// Cap on how many nodes die permanently over the whole run — the
    /// earliest draws win, so at least `nodes - max_kills` survive.
    pub max_kills: u32,
}

/// Storage-integrity faults: silent corruption of resident cache copies
/// (bit rot) and torn backing-store writes. Both are *detectable* —
/// every object carries a CRC32 — so the contract is detect + repair,
/// never serving corrupt bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageConfig {
    /// Probability that a single cache-tier read finds its copy
    /// bit-rotted (checksum mismatch → quarantine + failover).
    pub bit_rot_prob: f64,
    /// Probability that a backing-store write lands torn and must be
    /// re-written after the read-back checksum fails.
    pub torn_write_prob: f64,
}

/// Which faults to inject. `FaultConfig::default()` injects nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultConfig {
    /// Node crash/recovery windows (cache/FAM node availability).
    pub crash: Option<CrashConfig>,
    /// Transient remote-op failures.
    pub transient: Option<TransientConfig>,
    /// Link degradation windows.
    pub link: Option<LinkConfig>,
    /// Straggler ranks.
    pub straggler: Option<StragglerConfig>,
    /// Storage integrity faults (bit rot, torn writes).
    pub storage: Option<StorageConfig>,
    /// Permanent node kills (crash with no recovery window).
    pub permanent: Option<PermanentCrashConfig>,
}

impl FaultConfig {
    /// No faults at all (the plane becomes a deterministic no-op).
    pub fn none() -> Self {
        Self::default()
    }

    /// The chaos-matrix default: every fault class on, at intensities
    /// tuned so a short NCNPR run crosses several crash and degradation
    /// windows while still completing.
    pub fn chaos() -> Self {
        Self {
            crash: Some(CrashConfig { mean_uptime_secs: 2.0, mean_downtime_secs: 0.5 }),
            transient: Some(TransientConfig { fail_prob: 0.05 }),
            link: Some(LinkConfig {
                mean_healthy_secs: 1.0,
                mean_degraded_secs: 0.4,
                latency_mult: 8.0,
                bandwidth_mult: 0.25,
            }),
            straggler: Some(StragglerConfig { fraction: 0.25, slowdown: 3.0 }),
            storage: Some(StorageConfig { bit_rot_prob: 0.02, torn_write_prob: 0.01 }),
            permanent: None,
        }
    }

    /// Only node crash/recovery windows.
    pub fn crashes_only(mean_uptime_secs: f64, mean_downtime_secs: f64) -> Self {
        Self {
            crash: Some(CrashConfig { mean_uptime_secs, mean_downtime_secs }),
            ..Self::default()
        }
    }

    /// Only transient remote-op failures.
    pub fn transient_only(fail_prob: f64) -> Self {
        Self { transient: Some(TransientConfig { fail_prob }), ..Self::default() }
    }

    /// Only link degradation.
    pub fn link_only(cfg: LinkConfig) -> Self {
        Self { link: Some(cfg), ..Self::default() }
    }

    /// Only straggler ranks.
    pub fn stragglers_only(fraction: f64, slowdown: f64) -> Self {
        Self { straggler: Some(StragglerConfig { fraction, slowdown }), ..Self::default() }
    }

    /// Only storage-integrity faults (bit rot + torn writes).
    pub fn storage_only(bit_rot_prob: f64, torn_write_prob: f64) -> Self {
        Self { storage: Some(StorageConfig { bit_rot_prob, torn_write_prob }), ..Self::default() }
    }

    /// Only permanent node kills: up to `max_kills` nodes die forever,
    /// each at a seeded exponential time with the given mean.
    pub fn permanent_only(mean_time_to_kill_secs: f64, max_kills: u32) -> Self {
        Self {
            permanent: Some(PermanentCrashConfig { mean_time_to_kill_secs, max_kills }),
            ..Self::default()
        }
    }
}

/// Network multipliers in force at a point in virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFactors {
    /// Multiply latency terms by this (>= 1).
    pub latency_mult: f64,
    /// Multiply bandwidth by this (<= 1).
    pub bandwidth_mult: f64,
}

impl LinkFactors {
    /// Healthy link: no scaling.
    pub const NONE: LinkFactors = LinkFactors { latency_mult: 1.0, bandwidth_mult: 1.0 };

    /// Conservative single-factor cost multiplier for pre-computed
    /// latency+bandwidth costs: the worse of the two effects.
    pub fn cost_mult(&self) -> f64 {
        let bw = if self.bandwidth_mult > 0.0 { 1.0 / self.bandwidth_mult } else { 1.0 };
        self.latency_mult.max(bw).max(1.0)
    }

    /// True when either factor deviates from healthy.
    pub fn degraded(&self) -> bool {
        self.latency_mult != 1.0 || self.bandwidth_mult != 1.0
    }
}

/// Attempts of one faulty access, including the first, before the caller
/// gives up (fails over or errors).
pub const RETRY_MAX_ATTEMPTS: u32 = 4;

/// Backoff before the second attempt, in virtual seconds.
const RETRY_BASE_DELAY_SECS: f64 = 1e-3;

/// Backoff growth factor per retry.
const RETRY_MULTIPLIER: f64 = 2.0;

/// Backoff ceiling, in virtual seconds.
const RETRY_MAX_DELAY_SECS: f64 = 0.1;

/// Jitter amplitude: the delay is scaled by `1 ± RETRY_JITTER_FRAC`.
const RETRY_JITTER_FRAC: f64 = 0.2;

/// Bounded exponential backoff with multiplicative jitter, to charge
/// before retry number `attempt` (1-based: the wait after the first
/// failure is `attempt == 1`). `jitter01` is a uniform draw in `[0, 1)`
/// supplied by the caller's deterministic stream. Delays are *virtual*
/// seconds: callers charge them to the virtual clock rather than sleeping.
pub fn retry_backoff_secs(attempt: u32, jitter01: f64) -> f64 {
    let exp = attempt.saturating_sub(1).min(62);
    let raw = RETRY_BASE_DELAY_SECS * RETRY_MULTIPLIER.powi(exp as i32);
    let capped = raw.min(RETRY_MAX_DELAY_SECS);
    let scale = 1.0 + RETRY_JITTER_FRAC * (2.0 * jitter01 - 1.0);
    (capped * scale).max(0.0)
}

/// The seeded fault schedule plus its virtual-time cursor.
///
/// Construction pre-computes every crash and degradation window inside
/// the horizon, so queries against the plane are pure lookups. The
/// cursor (`now`) only advances via [`FaultPlane::advance_to`], which
/// the cluster calls between BSP phases.
pub struct FaultPlane {
    seed: u64,
    cfg: FaultConfig,
    horizon_secs: f64,
    /// Per-node down windows, each `[start, end)`, sorted by start.
    crash_windows: Vec<Vec<(f64, f64)>>,
    /// Global link-degradation windows, each `[start, end)`.
    link_windows: Vec<(f64, f64)>,
    /// Per-rank compute slowdown factors (1.0 = healthy).
    straggler: Vec<f64>,
    /// Virtual-time cursor; moves monotonically.
    now: Mutex<f64>,
    /// Per-rank deterministic draw counters (transients + jitter).
    draws: Vec<AtomicU64>,
    /// Per-node deterministic draw counters for background scrub reads.
    /// Kept separate from the per-rank streams so anti-entropy passes —
    /// which may be triggered by *any* rank's call — never perturb the
    /// rank-indexed draw sequences that make chaos runs reproducible.
    scrub_draws: Vec<AtomicU64>,
    metrics: MetricsRegistry,
    crash_ctr: Counter,
    transient_ctr: Counter,
    link_ctr: Counter,
    bit_rot_ctr: Counter,
    torn_write_ctr: Counter,
}

/// Exponential draw with the given mean (inverse-CDF method).
fn exp_draw(rng: &mut SplitMix64, mean: f64) -> f64 {
    // next_f64() is in [0, 1), so 1 - u is in (0, 1] and ln() is finite.
    -mean * (1.0 - rng.next_f64()).ln()
}

/// Splice a permanent `[at, ∞)` down window into a sorted, disjoint
/// window list: recoverable windows starting at or after the kill can
/// never be observed (the node is already dead), and a window spanning
/// the kill time is clipped so the list stays sorted and disjoint.
fn insert_permanent_kill(windows: &mut Vec<(f64, f64)>, at: f64) {
    if windows.iter().any(|&(s, e)| e == f64::INFINITY && s <= at) {
        return; // already permanently dead by `at`
    }
    windows.retain(|&(s, _)| s < at);
    if let Some(last) = windows.last_mut() {
        if last.1 > at {
            last.1 = at;
        }
    }
    windows.push((at, f64::INFINITY));
}

impl FaultPlane {
    /// Build the schedule for `nodes` cache/FAM nodes and `ranks` ranks
    /// over `[0, horizon_secs)` of virtual time. Everything is a pure
    /// function of `(seed, cfg, nodes, ranks, horizon_secs)`.
    pub fn new(seed: u64, cfg: FaultConfig, nodes: u32, ranks: u32, horizon_secs: f64) -> Self {
        let mut crash_windows = Vec::with_capacity(nodes as usize);
        for node in 0..nodes {
            let mut windows = Vec::new();
            if let Some(c) = cfg.crash {
                let mut rng = SplitMix64::new(seed, 0x6E0D_0000 ^ node as u64);
                let mut t = exp_draw(&mut rng, c.mean_uptime_secs);
                while t < horizon_secs {
                    let down = exp_draw(&mut rng, c.mean_downtime_secs);
                    windows.push((t, t + down));
                    t += down + exp_draw(&mut rng, c.mean_uptime_secs);
                }
            }
            crash_windows.push(windows);
        }

        if let Some(p) = cfg.permanent {
            // Per-node exponential kill times; the earliest `max_kills`
            // draws inside the horizon actually fire (ties by node id).
            let mut kills: Vec<(f64, u32)> = (0..nodes)
                .filter_map(|node| {
                    let mut rng = SplitMix64::new(seed, 0x0DEA_D000 ^ node as u64);
                    let t = exp_draw(&mut rng, p.mean_time_to_kill_secs);
                    (t < horizon_secs).then_some((t, node))
                })
                .collect();
            kills.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            kills.truncate(p.max_kills as usize);
            for (t, node) in kills {
                insert_permanent_kill(&mut crash_windows[node as usize], t);
            }
        }

        let mut link_windows = Vec::new();
        if let Some(l) = cfg.link {
            let mut rng = SplitMix64::new(seed, 0x11_4B00);
            let mut t = exp_draw(&mut rng, l.mean_healthy_secs);
            while t < horizon_secs {
                let degraded = exp_draw(&mut rng, l.mean_degraded_secs);
                link_windows.push((t, t + degraded));
                t += degraded + exp_draw(&mut rng, l.mean_healthy_secs);
            }
        }

        let mut straggler = vec![1.0; ranks as usize];
        let mut straggler_count = 0i64;
        if let Some(s) = cfg.straggler {
            for (r, factor) in straggler.iter_mut().enumerate() {
                let mut rng = SplitMix64::new(seed, 0x57A6_0000 ^ r as u64);
                if rng.next_f64() < s.fraction {
                    *factor = s.slowdown.max(1.0);
                    straggler_count += 1;
                }
            }
        }

        let metrics = MetricsRegistry::new();
        let crash_ctr = metrics.counter_with("ids_faults_injected_total", "kind", "node_crash");
        let transient_ctr =
            metrics.counter_with("ids_faults_injected_total", "kind", "fam_transient");
        let link_ctr = metrics.counter_with("ids_faults_injected_total", "kind", "link_degrade");
        let bit_rot_ctr = metrics.counter_with("ids_faults_injected_total", "kind", "bit_rot");
        let torn_write_ctr =
            metrics.counter_with("ids_faults_injected_total", "kind", "torn_write");
        metrics.gauge("ids_faults_straggler_ranks").set(straggler_count);

        Self {
            seed,
            cfg,
            horizon_secs,
            crash_windows,
            link_windows,
            straggler,
            now: Mutex::new(0.0),
            draws: (0..ranks).map(|_| AtomicU64::new(0)).collect(),
            scrub_draws: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            metrics,
            crash_ctr,
            transient_ctr,
            link_ctr,
            bit_rot_ctr,
            torn_write_ctr,
        }
    }

    /// A plane that injects nothing — useful as an attachable default.
    pub fn disabled(nodes: u32, ranks: u32) -> Self {
        Self::new(0, FaultConfig::none(), nodes, ranks, 0.0)
    }

    /// The root seed of the schedule.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configuration the schedule was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// End of the scheduled horizon (no faults occur past it).
    pub fn horizon_secs(&self) -> f64 {
        self.horizon_secs
    }

    /// Current virtual-time cursor.
    pub fn now(&self) -> f64 {
        *lock(&self.now)
    }

    /// Advance the cursor to `t` (monotone; earlier times are ignored)
    /// and count fault windows whose start was crossed.
    pub fn advance_to(&self, t: f64) {
        let mut now = lock(&self.now);
        if t <= *now {
            return;
        }
        let (prev, cur) = (*now, t);
        for windows in &self.crash_windows {
            for &(start, _) in windows {
                if start > prev && start <= cur {
                    self.crash_ctr.inc();
                }
            }
        }
        for &(start, _) in &self.link_windows {
            if start > prev && start <= cur {
                self.link_ctr.inc();
            }
        }
        *now = cur;
    }

    /// Is `node` inside a crash window at the current cursor?
    pub fn node_down(&self, node: NodeId) -> bool {
        self.node_down_at(node, self.now())
    }

    /// Is `node` inside a crash window at virtual time `t`?
    pub fn node_down_at(&self, node: NodeId, t: f64) -> bool {
        self.crash_windows
            .get(node.0 as usize)
            .is_some_and(|ws| ws.iter().any(|&(s, e)| t >= s && t < e))
    }

    /// The crash windows scheduled for `node` (for tests/reports).
    pub fn crash_windows(&self, node: NodeId) -> &[(f64, f64)] {
        self.crash_windows.get(node.0 as usize).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Schedule an explicit permanent kill of `node` at virtual time
    /// `at_secs`. Requires `&mut self`, so tests and benches call it
    /// while building the plane, before sharing it behind an `Arc` —
    /// the schedule stays immutable once execution starts. Recoverable
    /// windows at or past the kill are dropped and a spanning window is
    /// clipped, keeping the list sorted and disjoint. A node already
    /// dead by `at_secs` is left unchanged.
    pub fn schedule_permanent_kill(&mut self, node: NodeId, at_secs: f64) {
        if let Some(ws) = self.crash_windows.get_mut(node.0 as usize) {
            insert_permanent_kill(ws, at_secs);
        }
    }

    /// Is `node` permanently dead (inside a window that never ends) at
    /// virtual time `t`? Unlike [`FaultPlane::node_down_at`] this never
    /// flips back to false at later times.
    pub fn node_dead_at(&self, node: NodeId, t: f64) -> bool {
        self.crash_windows
            .get(node.0 as usize)
            .is_some_and(|ws| ws.iter().any(|&(s, e)| e == f64::INFINITY && t >= s))
    }

    /// Push a virtual time past any crash window covering it on `node`:
    /// if `t` falls inside a `[start, end)` down window the node cannot
    /// send or receive, so the event is delayed to the window's end.
    /// Windows are sorted and disjoint, so one forward scan suffices.
    /// Returns `t` unchanged when the node is up at `t`.
    pub fn delay_past_down(&self, node: NodeId, t: f64) -> f64 {
        let mut t = t;
        if let Some(ws) = self.crash_windows.get(node.0 as usize) {
            for &(s, e) in ws {
                if t >= s && t < e {
                    t = e;
                } else if t < s {
                    break;
                }
            }
        }
        t
    }

    /// Link multipliers in force at the current cursor.
    pub fn link_factors(&self) -> LinkFactors {
        self.link_factors_at(self.now())
    }

    /// Link multipliers in force at virtual time `t`.
    pub fn link_factors_at(&self, t: f64) -> LinkFactors {
        match self.cfg.link {
            Some(l) if self.link_windows.iter().any(|&(s, e)| t >= s && t < e) => {
                LinkFactors { latency_mult: l.latency_mult, bandwidth_mult: l.bandwidth_mult }
            }
            _ => LinkFactors::NONE,
        }
    }

    /// Compute slowdown factor for `rank` (1.0 unless it straggles).
    pub fn straggler_factor(&self, rank: RankId) -> f64 {
        self.straggler.get(rank.0 as usize).copied().unwrap_or(1.0)
    }

    /// Next deterministic 64-bit draw for `rank`. Each rank's op stream
    /// is consumed sequentially inside its own closure, so draw indices
    /// — and therefore outcomes — are independent of thread scheduling.
    fn draw_u64(&self, rank: RankId) -> u64 {
        let idx = match self.draws.get(rank.0 as usize) {
            Some(ctr) => ctr.fetch_add(1, Ordering::Relaxed),
            None => return 0,
        };
        let mut rng = SplitMix64::new(self.seed ^ 0xFA17_0000, ((rank.0 as u64) << 32) ^ idx);
        rng.next_u64()
    }

    /// Roll a transient failure for one remote op attempt by `rank`.
    /// Deterministic per `(seed, rank, op index)`.
    pub fn fam_transient(&self, rank: RankId) -> bool {
        let Some(t) = self.cfg.transient else { return false };
        let u = (self.draw_u64(rank) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let fired = u < t.fail_prob;
        if fired {
            self.transient_ctr.inc();
        }
        fired
    }

    /// Deterministic uniform draw in `[0, 1)` for `rank` — used for
    /// backoff jitter so retries stay reproducible.
    pub fn jitter01(&self, rank: RankId) -> f64 {
        (self.draw_u64(rank) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Roll bit rot for one cache-tier read by `rank`: the copy it is
    /// about to serve is found corrupted (checksum mismatch). Drawn from
    /// the rank's own stream, so read paths stay reproducible.
    pub fn bit_rot(&self, rank: RankId) -> bool {
        let Some(s) = self.cfg.storage else { return false };
        let u = (self.draw_u64(rank) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let fired = u < s.bit_rot_prob;
        if fired {
            self.bit_rot_ctr.inc();
        }
        fired
    }

    /// Roll bit rot for one background *scrub* read of a copy resident
    /// on `node`. Uses the per-node scrub stream — anti-entropy passes
    /// run from whichever caller crosses the schedule, and must not
    /// consume rank-indexed draws.
    pub fn bit_rot_scrub(&self, node: NodeId) -> bool {
        let Some(s) = self.cfg.storage else { return false };
        let idx = match self.scrub_draws.get(node.0 as usize) {
            Some(ctr) => ctr.fetch_add(1, Ordering::Relaxed),
            None => return false,
        };
        let mut rng = SplitMix64::new(self.seed ^ 0x5C6B_0000, ((node.0 as u64) << 32) ^ idx);
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let fired = u < s.bit_rot_prob;
        if fired {
            self.bit_rot_ctr.inc();
        }
        fired
    }

    /// Roll a torn write for one backing-store put by `rank`: the write
    /// lands corrupted, is caught by the read-back checksum, and must be
    /// re-written (the caller charges the extra write).
    pub fn torn_write(&self, rank: RankId) -> bool {
        let Some(s) = self.cfg.storage else { return false };
        let u = (self.draw_u64(rank) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let fired = u < s.torn_write_prob;
        if fired {
            self.torn_write_ctr.inc();
        }
        fired
    }

    /// The plane's own metric registry (fault-injection counters).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }
}

impl std::fmt::Debug for FaultPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlane")
            .field("seed", &self.seed)
            .field("horizon_secs", &self.horizon_secs)
            .field("nodes", &self.crash_windows.len())
            .field("link_windows", &self.link_windows.len())
            .field("now", &self.now())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(seed: u64) -> FaultPlane {
        FaultPlane::new(seed, FaultConfig::chaos(), 4, 16, 60.0)
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let (a, b) = (plane(7), plane(7));
        for n in 0..4 {
            assert_eq!(a.crash_windows(NodeId(n)), b.crash_windows(NodeId(n)));
        }
        let rolls_a: Vec<bool> = (0..64).map(|_| a.fam_transient(RankId(3))).collect();
        let rolls_b: Vec<bool> = (0..64).map(|_| b.fam_transient(RankId(3))).collect();
        assert_eq!(rolls_a, rolls_b);
        for r in 0..16 {
            assert_eq!(a.straggler_factor(RankId(r)), b.straggler_factor(RankId(r)));
        }
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let (a, b) = (plane(1), plane(2));
        let wa: Vec<_> = (0..4).flat_map(|n| a.crash_windows(NodeId(n)).to_vec()).collect();
        let wb: Vec<_> = (0..4).flat_map(|n| b.crash_windows(NodeId(n)).to_vec()).collect();
        assert_ne!(wa, wb);
    }

    #[test]
    fn delay_past_down_pushes_events_out_of_windows() {
        let p = plane(11);
        let ws = p.crash_windows(NodeId(0));
        assert!(!ws.is_empty(), "chaos schedule must contain a crash window");
        let (start, end) = ws[0];
        let mid = (start + end) / 2.0;
        assert_eq!(p.delay_past_down(NodeId(0), mid), end, "in-window event waits for recovery");
        assert_eq!(p.delay_past_down(NodeId(0), start - 1e-9), start - 1e-9, "up: unchanged");
        assert_eq!(p.delay_past_down(NodeId(0), end), p.delay_past_down(NodeId(0), end));
        // Unknown nodes never delay.
        assert_eq!(p.delay_past_down(NodeId(999), mid), mid);
        // A disabled plane has no windows at all.
        let off = FaultPlane::disabled(4, 16);
        assert_eq!(off.delay_past_down(NodeId(0), mid), mid);
    }

    #[test]
    fn node_down_tracks_windows_and_cursor() {
        let p = plane(11);
        let (start, end) = p.crash_windows(NodeId(0))[0];
        assert!(!p.node_down(NodeId(0)), "node up at t=0");
        p.advance_to((start + end) / 2.0);
        assert!(p.node_down(NodeId(0)), "node down mid-window");
        p.advance_to(end + 1e-9);
        assert!(!p.node_down(NodeId(0)), "node recovered after window");
        // The cursor never moves backwards.
        p.advance_to(0.0);
        assert!((p.now() - (end + 1e-9)).abs() < 1e-12);
    }

    #[test]
    fn crash_counter_counts_crossed_windows() {
        let p = plane(5);
        assert_eq!(p.metrics().snapshot().counter("ids_faults_injected_total", "node_crash"), 0);
        p.advance_to(60.0);
        let total: usize = (0..4).map(|n| p.crash_windows(NodeId(n)).len()).sum();
        assert!(total > 0, "chaos config over 60s should schedule crashes");
        assert_eq!(
            p.metrics().snapshot().counter("ids_faults_injected_total", "node_crash"),
            total as u64
        );
    }

    #[test]
    fn transient_rate_matches_probability() {
        let p = FaultPlane::new(42, FaultConfig::transient_only(0.2), 2, 4, 10.0);
        let n = 20_000;
        let fired = (0..n).filter(|_| p.fam_transient(RankId(1))).count();
        let rate = fired as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.02, "transient rate {rate}");
        assert_eq!(
            p.metrics().snapshot().counter("ids_faults_injected_total", "fam_transient"),
            fired as u64
        );
    }

    #[test]
    fn no_faults_without_config() {
        let p = FaultPlane::new(9, FaultConfig::none(), 4, 8, 100.0);
        p.advance_to(100.0);
        assert!(!p.node_down(NodeId(0)));
        assert!(!p.fam_transient(RankId(0)));
        assert!(!p.bit_rot(RankId(0)));
        assert!(!p.bit_rot_scrub(NodeId(0)));
        assert!(!p.torn_write(RankId(0)));
        assert_eq!(p.link_factors(), LinkFactors::NONE);
        assert_eq!(p.straggler_factor(RankId(0)), 1.0);
    }

    #[test]
    fn storage_fault_rates_match_probabilities() {
        let p = FaultPlane::new(13, FaultConfig::storage_only(0.25, 0.1), 4, 4, 10.0);
        let n = 20_000;
        let rotted = (0..n).filter(|_| p.bit_rot(RankId(2))).count();
        let torn = (0..n).filter(|_| p.torn_write(RankId(2))).count();
        assert!((rotted as f64 / n as f64 - 0.25).abs() < 0.02, "bit-rot rate {rotted}");
        assert!((torn as f64 / n as f64 - 0.1).abs() < 0.02, "torn-write rate {torn}");
        let snap = p.metrics().snapshot();
        assert_eq!(snap.counter("ids_faults_injected_total", "bit_rot"), rotted as u64);
        assert_eq!(snap.counter("ids_faults_injected_total", "torn_write"), torn as u64);
    }

    #[test]
    fn scrub_stream_is_deterministic_and_independent_of_rank_draws() {
        let mk = || FaultPlane::new(21, FaultConfig::storage_only(0.3, 0.0), 4, 8, 10.0);
        let (a, b) = (mk(), mk());
        // Consume rank draws on `a` only: the scrub stream must not move.
        for _ in 0..100 {
            a.bit_rot(RankId(1));
        }
        let rolls_a: Vec<bool> = (0..64).map(|_| a.bit_rot_scrub(NodeId(2))).collect();
        let rolls_b: Vec<bool> = (0..64).map(|_| b.bit_rot_scrub(NodeId(2))).collect();
        assert_eq!(rolls_a, rolls_b, "scrub draws keyed by (node, scrub index) only");
        assert!(rolls_a.iter().any(|&r| r), "p=0.3 over 64 draws fires");
    }

    #[test]
    fn link_factors_apply_inside_windows_only() {
        let cfg = LinkConfig {
            mean_healthy_secs: 1.0,
            mean_degraded_secs: 0.5,
            latency_mult: 4.0,
            bandwidth_mult: 0.5,
        };
        let p = FaultPlane::new(3, FaultConfig::link_only(cfg), 2, 4, 50.0);
        let (s, e) = {
            let f = p.link_factors_at(0.0);
            assert_eq!(f, LinkFactors::NONE);
            // Find the first degraded window by scanning.
            let mut found = None;
            let mut t = 0.0;
            while t < 50.0 {
                if p.link_factors_at(t).degraded() {
                    found = Some(t);
                    break;
                }
                t += 0.01;
            }
            let start = found.expect("a degraded window inside 50s");
            (start, start + 1e-3)
        };
        let f = p.link_factors_at((s + e) / 2.0);
        assert_eq!(f.latency_mult, 4.0);
        assert_eq!(f.bandwidth_mult, 0.5);
        assert_eq!(f.cost_mult(), 4.0);
    }

    #[test]
    fn straggler_fraction_and_factor() {
        let p = FaultPlane::new(8, FaultConfig::stragglers_only(0.5, 2.5), 2, 1000, 10.0);
        let slow = (0..1000).filter(|&r| p.straggler_factor(RankId(r)) > 1.0).count();
        assert!((300..700).contains(&slow), "straggler count {slow}");
        for r in 0..1000 {
            let f = p.straggler_factor(RankId(r));
            assert!(f == 1.0 || f == 2.5);
        }
        assert_eq!(p.metrics().gauge("ids_faults_straggler_ranks").get(), slow as i64);
    }

    #[test]
    fn permanent_kills_are_seeded_capped_and_never_recover() {
        let p = FaultPlane::new(17, FaultConfig::permanent_only(5.0, 2), 4, 16, 60.0);
        let dead: Vec<u32> = (0..4).filter(|&n| p.node_dead_at(NodeId(n), 1e12)).collect();
        assert!(!dead.is_empty() && dead.len() <= 2, "max_kills caps deaths, got {dead:?}");
        for &n in &dead {
            let at = p.crash_windows(NodeId(n)).last().expect("dead node has a window").0;
            assert!(!p.node_dead_at(NodeId(n), at - 1e-9), "alive before the kill");
            assert!(p.node_dead_at(NodeId(n), at), "dead from the kill onward");
            assert!(p.node_down_at(NodeId(n), at + 1e9), "permanent window covers all later t");
            assert_eq!(p.delay_past_down(NodeId(n), at), f64::INFINITY, "events never clear");
        }
        let alive: Vec<u32> = (0..4).filter(|n| !dead.contains(n)).collect();
        for &n in &alive {
            assert!(!p.node_dead_at(NodeId(n), 1e12));
            assert!(!p.node_dead_at(NodeId(n), f64::MAX), "never dies");
        }
        // Same seed, same schedule.
        let q = FaultPlane::new(17, FaultConfig::permanent_only(5.0, 2), 4, 16, 60.0);
        for n in 0..4 {
            assert_eq!(p.crash_windows(NodeId(n)), q.crash_windows(NodeId(n)));
        }
    }

    #[test]
    fn explicit_kill_splices_into_recoverable_windows() {
        let mut p = plane(11);
        let ws = p.crash_windows(NodeId(0)).to_vec();
        let (s0, e0) = ws[0];
        // Kill mid-way through the first recoverable window: it is
        // clipped, every later window is dropped, and the permanent
        // window takes over.
        let at = (s0 + e0) / 2.0;
        p.schedule_permanent_kill(NodeId(0), at);
        let after = p.crash_windows(NodeId(0));
        assert_eq!(after.last(), Some(&(at, f64::INFINITY)));
        assert!(after.windows(2).all(|w| w[0].1 <= w[1].0), "sorted and disjoint");
        assert!(after.iter().all(|&(s, _)| s <= at));
        assert!(p.node_dead_at(NodeId(0), at) && !p.node_dead_at(NodeId(0), s0));
        // Killing an already-dead node later is a no-op.
        p.schedule_permanent_kill(NodeId(0), at + 5.0);
        assert!(p.node_dead_at(NodeId(0), at) && !p.node_dead_at(NodeId(0), at - 1e-9));
        // Other nodes untouched.
        assert_eq!(p.crash_windows(NodeId(1)), plane(11).crash_windows(NodeId(1)));
    }

    #[test]
    fn backoff_grows_and_caps() {
        // A mid-band draw scales by exactly 1: 1, 2, 4, ... ms up to 0.1 s.
        assert!((retry_backoff_secs(1, 0.5) - 1e-3).abs() < 1e-12);
        assert!((retry_backoff_secs(2, 0.5) - 2e-3).abs() < 1e-12);
        assert!((retry_backoff_secs(3, 0.5) - 4e-3).abs() < 1e-12);
        assert!((retry_backoff_secs(7, 0.5) - 64e-3).abs() < 1e-12);
        assert!((retry_backoff_secs(8, 0.5) - 0.1).abs() < 1e-12, "capped");
        assert!((retry_backoff_secs(20, 0.5) - 0.1).abs() < 1e-12, "still capped");
    }

    #[test]
    fn backoff_jitter_stays_in_band() {
        for j in [0.0, 0.25, 0.5, 0.75, 0.999] {
            let d = retry_backoff_secs(1, j);
            assert!(d >= RETRY_BASE_DELAY_SECS * (1.0 - RETRY_JITTER_FRAC) - 1e-12);
            assert!(d <= RETRY_BASE_DELAY_SECS * (1.0 + RETRY_JITTER_FRAC) + 1e-12);
        }
    }
}
