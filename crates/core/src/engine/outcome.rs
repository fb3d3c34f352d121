//! What a run hands back: the completed [`QueryOutcome`] with its
//! per-stage breakdown, degradation annotations, recovery and adaptive
//! reports, or the [`ExecError`] it failed with.

use ids_graph::SolutionSet;
use ids_simrt::SpeculationReport;
use std::collections::HashMap;

/// Virtual-time breakdown by operator stage (Figure 4(b) / Figure 5).
#[derive(Debug, Clone, Default)]
pub struct StageBreakdown {
    /// Scan phases (pattern index → critical-path seconds folded in).
    pub scan_secs: f64,
    /// Exchange + join phases.
    pub join_secs: f64,
    /// Re-balance exchanges before UDF stages.
    pub rebalance_secs: f64,
    /// WHERE-filter evaluation (the paper's "inner FILTER").
    pub filter_secs: f64,
    /// Per-UDF APPLY stage time (e.g. `"vina_docking" → 40.2`).
    pub apply_secs: HashMap<String, f64>,
    /// Result gather.
    pub gather_secs: f64,
}

impl StageBreakdown {
    /// Total accounted virtual time.
    pub fn total(&self) -> f64 {
        self.scan_secs
            + self.join_secs
            + self.rebalance_secs
            + self.filter_secs
            + self.apply_secs.values().sum::<f64>()
            + self.gather_secs
    }
}

/// What went wrong for a dropped slice of work under graceful degradation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedKind {
    /// The row's worker panicked on every attempt.
    WorkerPanic,
    /// The row's expression evaluation returned an error.
    EvalError,
    /// The rank ran out of stage-deadline budget before reaching the row.
    DeadlineExceeded,
}

impl std::fmt::Display for DegradedKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradedKind::WorkerPanic => write!(f, "worker-panic"),
            DegradedKind::EvalError => write!(f, "eval-error"),
            DegradedKind::DeadlineExceeded => write!(f, "deadline-exceeded"),
        }
    }
}

/// A structured record of degraded execution: which stage, on which rank,
/// dropped how many rows, and why. Attached to [`QueryOutcome`] when
/// [`ExecOptions::degrade`](super::ExecOptions::degrade) is on; surfaced by
/// EXPLAIN.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorAnnotation {
    /// Stage name (`"filter"`, `"stage-filter"`, `"apply:<udf>"`).
    pub stage: String,
    /// Rank whose work was degraded. Wide enough for any `usize` rank
    /// index, so an annotation can never silently mis-attribute a rank
    /// through an `as u32` truncation.
    pub rank: u64,
    /// Failure class.
    pub kind: DegradedKind,
    /// First observed error/panic message (or the deadline that fired).
    pub detail: String,
    /// Rows this annotation accounts for.
    pub rows_dropped: u64,
}

impl std::fmt::Display for ErrorAnnotation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} rank {}: {} rows dropped ({}): {}",
            self.stage, self.rank, self.rows_dropped, self.kind, self.detail
        )
    }
}

/// A completed query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Final (gathered, projected, limited) solutions.
    pub solutions: SolutionSet,
    /// End-to-end virtual latency.
    pub elapsed_secs: f64,
    /// Per-stage breakdown.
    pub breakdown: StageBreakdown,
    /// Per-rank solution counts entering the first UDF stage (for
    /// re-balancing analysis).
    pub pre_filter_counts: Vec<u64>,
    /// Degraded-execution records (empty unless
    /// [`ExecOptions::degrade`](super::ExecOptions::degrade) dropped work).
    /// A non-empty list means `solutions` is partial.
    pub annotations: Vec<ErrorAnnotation>,
    /// Recovery-plane activity: rollbacks, re-plans, retired ranks, and
    /// speculation accounting (all-zero for a fault-free run with
    /// recovery and speculation off).
    pub recovery: RecoveryReport,
    /// Adaptive-planner activity: estimate-vs-actual checks at stage
    /// boundaries (recorded in static mode too) and mid-query re-plans
    /// (adaptive mode only).
    pub adaptive: AdaptiveReport,
}

impl QueryOutcome {
    /// Did this query drop any work (partial results)?
    pub fn degraded(&self) -> bool {
        !self.annotations.is_empty()
    }

    /// Total rows dropped across all annotations.
    pub fn rows_dropped(&self) -> u64 {
        self.annotations.iter().map(|a| a.rows_dropped).sum()
    }
}

/// Execution error. Recovery-relevant failures carry typed payloads so
/// the service tier can shape refusals (e.g. retry-after hints) without
/// parsing message strings.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// General execution failure (worker panic, unbound variable, …).
    Message(String),
    /// A rank ran out of its per-rank stage deadline
    /// ([`ExecOptions::stage_deadline_secs`](super::ExecOptions::stage_deadline_secs))
    /// with rows left and degradation off. A straggler, not wrong data:
    /// the recovery plane retries it from the last checkpoint. Displays
    /// like [`Self::Message`].
    StageDeadline(String),
    /// A rank was lost permanently mid-query and recovery was disabled
    /// or impossible.
    RankLost {
        /// The lost rank.
        rank: u32,
        /// Its (permanently dead) host node.
        node: u32,
        /// Human-readable context.
        detail: String,
    },
    /// Recovery needed a checkpoint that has no surviving replica.
    CheckpointLost {
        /// Ordinal of the unavailable checkpoint.
        ordinal: i64,
        /// Why it is unavailable.
        detail: String,
    },
    /// The per-query recovery budget
    /// ([`ExecOptions::max_recoveries`](super::ExecOptions::max_recoveries))
    /// is exhausted — fault storms shed load instead of looping.
    RecoveryExhausted {
        /// Rollbacks attempted, including the one that was refused.
        attempts: u32,
        /// What kept going wrong.
        detail: String,
    },
}

impl ExecError {
    /// A general (untyped) execution error.
    pub fn msg(m: impl Into<String>) -> Self {
        ExecError::Message(m.into())
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Message(m) | ExecError::StageDeadline(m) => {
                write!(f, "execution error: {m}")
            }
            ExecError::RankLost { rank, node, detail } => {
                write!(
                    f,
                    "execution error: rank {rank} lost (node {node} died permanently): {detail}"
                )
            }
            ExecError::CheckpointLost { ordinal, detail } => {
                write!(f, "execution error: recovery checkpoint {ordinal} unavailable: {detail}")
            }
            ExecError::RecoveryExhausted { attempts, detail } => {
                write!(
                    f,
                    "execution error: recovery budget exhausted after {attempts} attempts: {detail}"
                )
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// What the recovery plane did during one query: rollbacks, re-plans,
/// retired ranks, and speculative re-execution accounting. Attached to
/// [`QueryOutcome`]; all-zero for a fault-free run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Rollbacks to a checkpoint (or to scratch) performed.
    pub rollbacks: u32,
    /// Rollbacks that found no checkpoint and restarted from scratch.
    pub restarts: u32,
    /// Shard re-planning passes around newly dead ranks.
    pub replans: u32,
    /// Shards moved off dead ranks across all re-plans.
    pub shards_moved: u32,
    /// Ranks permanently retired during this query.
    pub retired_ranks: Vec<u32>,
    /// Recovery checkpoints stored.
    pub checkpoints_stored: u32,
    /// Rows restored from recovery checkpoints across all rollbacks.
    pub rows_restored: u64,
    /// `(ordinal, virtual time)` of each recovery checkpoint stored —
    /// the boundary schedule chaos tests aim their kills at.
    pub checkpoint_times: Vec<(i64, f64)>,
    /// Speculative re-execution over every UDF stage: hedges launched,
    /// won and lost, seconds saved, and the first win.
    pub speculation: SpeculationReport,
}

/// What the adaptive planner observed and did during one query. The
/// estimate-vs-actual boundaries are recorded unconditionally (they feed
/// EXPLAIN's `estimated vs actual` block and cost nothing); re-plans only
/// happen with [`ExecOptions::adaptive`](super::ExecOptions::adaptive) on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdaptiveReport {
    /// Stage boundaries where observed rows were compared to the
    /// estimate.
    pub checks: u32,
    /// Mid-query re-plans that actually changed the remaining join order.
    pub replans: u32,
    /// `(operator label, estimated rows, observed rows)` per boundary, in
    /// execution order (a boundary repeats if recovery rolled back over
    /// it).
    pub boundaries: Vec<(String, u64, u64)>,
}

impl AdaptiveReport {
    /// Worst estimate-vs-actual divergence ratio seen (1.0 = perfect).
    pub fn worst_divergence(&self) -> f64 {
        self.boundaries
            .iter()
            .map(|&(_, est, actual)| divergence_ratio(est, actual))
            .fold(1.0, f64::max)
    }
}

/// Symmetric divergence between an estimated and an observed row count:
/// `max(a/e, e/a)` with both sides floored at one row. 1.0 = exact.
pub(super) fn divergence_ratio(est: u64, actual: u64) -> f64 {
    let e = est.max(1) as f64;
    let a = actual.max(1) as f64;
    (a / e).max(e / a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_breakdown_totals() {
        let mut b = StageBreakdown {
            scan_secs: 1.0,
            join_secs: 2.0,
            filter_secs: 3.0,
            ..StageBreakdown::default()
        };
        b.apply_secs.insert("vina_docking".into(), 40.0);
        b.apply_secs.insert("dtba".into(), 4.0);
        b.gather_secs = 0.5;
        assert!((b.total() - 50.5).abs() < 1e-12);
    }
}
