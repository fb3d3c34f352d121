//! Elastic scale-out/in of virtual nodes under queue pressure.
//!
//! The service starts with a subset of the cluster's nodes *active* and
//! grows or shrinks that set at scheduler-round boundaries, driven by one
//! signal: **queued queries per active rank**, sustained over several
//! consecutive rounds (a single bursty round never triggers a resize, and
//! a cooldown separates consecutive resizes so the controller cannot
//! oscillate).
//!
//! Membership changes ride the existing fault machinery instead of a
//! parallel code path:
//!
//! * **scale-out (join)** — the joining node's cache is brought back via
//!   `CacheManager::recover_node` (DRAM rejoins empty exactly like a
//!   crash recovery; the node's NVMe tier rejoins warm, entries
//!   quarantined until re-verified) and a
//!   forced anti-entropy pass re-replicates
//!   under-replicated objects onto it (the PR 3 integrity pass); logical
//!   shards are then rebalanced across the enlarged active rank set with
//!   `Cluster::rebalance_owners`.
//! * **scale-in (drain)** — the leaving node's shards are re-owned onto
//!   the survivors first (the same `assign_shard` path the engine's
//!   dead-rank re-planning uses — shard identity drives rng/hash/row
//!   order, so results are unchanged by construction), then its cache
//!   copies are fenced with `CacheManager::fail_node`.
//!
//! Decisions are a pure function of deterministic scheduler state, so a
//! given (seed, workload) pair replays the same scale events at the same
//! virtual times.

/// Policy for the elasticity controller.
#[derive(Debug, Clone, Copy)]
pub struct ElasticityConfig {
    /// Floor on active nodes (the service never drains below this).
    pub min_nodes: u32,
    /// Ceiling on active nodes (bounded by the cluster topology).
    pub max_nodes: u32,
    /// Queued queries per active rank above which pressure counts toward
    /// a scale-out.
    pub scale_out_queue_per_rank: f64,
    /// Queued queries per active rank below which slack counts toward a
    /// scale-in.
    pub scale_in_queue_per_rank: f64,
    /// Consecutive rounds the signal must persist before acting.
    pub sustain_rounds: u32,
    /// Rounds to hold after any resize before the next one.
    pub cooldown_rounds: u32,
}

impl Default for ElasticityConfig {
    fn default() -> Self {
        Self {
            min_nodes: 1,
            max_nodes: u32::MAX,
            scale_out_queue_per_rank: 2.0,
            scale_in_queue_per_rank: 0.25,
            sustain_rounds: 3,
            cooldown_rounds: 4,
        }
    }
}

/// What the controller wants done after an observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Activate one more node (the lowest-numbered parked node).
    Out,
    /// Drain and park the highest-numbered active node.
    In,
    /// No membership change this round.
    Hold,
}

/// One applied membership change, for traces and tests.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleEvent {
    /// Virtual time the resize was applied.
    pub at_secs: f64,
    /// `Out` or `In` (never `Hold`).
    pub decision: ScaleDecision,
    /// The node that joined or drained.
    pub node: u32,
    /// Active node count after the change.
    pub active_nodes: u32,
}

/// Sustained-pressure scale controller. Owns only the decision state;
/// the service applies decisions to the cluster and cache.
#[derive(Debug, Clone)]
pub struct ElasticityController {
    cfg: ElasticityConfig,
    active_nodes: u32,
    high_rounds: u32,
    low_rounds: u32,
    cooldown: u32,
}

impl ElasticityController {
    /// Start with `min_nodes` active (clamped into `[1, max_nodes]`).
    pub fn new(cfg: ElasticityConfig) -> Self {
        let active = cfg.min_nodes.max(1).min(cfg.max_nodes.max(1));
        Self { cfg, active_nodes: active, high_rounds: 0, low_rounds: 0, cooldown: 0 }
    }

    /// The policy in force.
    pub fn config(&self) -> &ElasticityConfig {
        &self.cfg
    }

    /// Nodes currently active.
    pub fn active_nodes(&self) -> u32 {
        self.active_nodes
    }

    /// Observe end-of-round pressure and decide. `queued` is the total
    /// queued queries; `active_ranks` the ranks on active nodes. The
    /// controller updates its own `active_nodes` when it decides to
    /// resize — the caller must then apply the change.
    pub fn observe(&mut self, queued: usize, active_ranks: usize) -> ScaleDecision {
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return ScaleDecision::Hold;
        }
        let per_rank = queued as f64 / active_ranks.max(1) as f64;
        if per_rank >= self.cfg.scale_out_queue_per_rank {
            self.high_rounds += 1;
            self.low_rounds = 0;
        } else if per_rank <= self.cfg.scale_in_queue_per_rank {
            self.low_rounds += 1;
            self.high_rounds = 0;
        } else {
            self.high_rounds = 0;
            self.low_rounds = 0;
        }
        if self.high_rounds >= self.cfg.sustain_rounds && self.active_nodes < self.cfg.max_nodes {
            self.active_nodes += 1;
            self.high_rounds = 0;
            self.cooldown = self.cfg.cooldown_rounds;
            return ScaleDecision::Out;
        }
        if self.low_rounds >= self.cfg.sustain_rounds
            && self.active_nodes > self.cfg.min_nodes.max(1)
        {
            self.active_nodes -= 1;
            self.low_rounds = 0;
            self.cooldown = self.cfg.cooldown_rounds;
            return ScaleDecision::In;
        }
        ScaleDecision::Hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ElasticityConfig {
        ElasticityConfig {
            min_nodes: 1,
            max_nodes: 4,
            scale_out_queue_per_rank: 2.0,
            scale_in_queue_per_rank: 0.25,
            sustain_rounds: 3,
            cooldown_rounds: 2,
        }
    }

    #[test]
    fn sustained_pressure_scales_out_once() {
        let mut c = ElasticityController::new(cfg());
        assert_eq!(c.active_nodes(), 1);
        // Two high rounds are not enough; the third triggers.
        assert_eq!(c.observe(10, 2), ScaleDecision::Hold);
        assert_eq!(c.observe(10, 2), ScaleDecision::Hold);
        assert_eq!(c.observe(10, 2), ScaleDecision::Out);
        assert_eq!(c.active_nodes(), 2);
        // Cooldown: two rounds of Hold even under pressure, and the
        // sustain counter restarts after it.
        assert_eq!(c.observe(10, 4), ScaleDecision::Hold);
        assert_eq!(c.observe(10, 4), ScaleDecision::Hold);
        assert_eq!(c.observe(10, 4), ScaleDecision::Hold);
        assert_eq!(c.observe(10, 4), ScaleDecision::Hold);
        assert_eq!(c.observe(10, 4), ScaleDecision::Out);
        assert_eq!(c.active_nodes(), 3);
    }

    #[test]
    fn bursts_shorter_than_sustain_never_resize() {
        let mut c = ElasticityController::new(cfg());
        for _ in 0..10 {
            assert_eq!(c.observe(10, 2), ScaleDecision::Hold);
            assert_eq!(c.observe(10, 2), ScaleDecision::Hold);
            // The burst breaks before the third round.
            assert_eq!(c.observe(1, 2), ScaleDecision::Hold);
        }
        assert_eq!(c.active_nodes(), 1);
    }

    #[test]
    fn sustained_slack_scales_in_but_never_below_min() {
        let mut c = ElasticityController::new(ElasticityConfig { min_nodes: 2, ..cfg() });
        assert_eq!(c.active_nodes(), 2);
        for _ in 0..3 {
            c.observe(10, 2);
        }
        assert_eq!(c.active_nodes(), 3);
        // Drain: idle rounds past cooldown + sustain shrink back to min.
        let mut events = Vec::new();
        for _ in 0..20 {
            events.push(c.observe(0, 6));
        }
        assert_eq!(events.iter().filter(|d| **d == ScaleDecision::In).count(), 1);
        assert_eq!(c.active_nodes(), 2, "floor holds");
    }

    #[test]
    fn ceiling_holds() {
        let mut c = ElasticityController::new(ElasticityConfig { max_nodes: 2, ..cfg() });
        for _ in 0..30 {
            c.observe(100, 1);
        }
        assert_eq!(c.active_nodes(), 2);
    }
}
