//! What the executor is configured with: [`ExecOptions`], the execution
//! constants that are not options, and the text the reuse salt renders
//! them as.

use ids_simrt::cluster::SPECULATION_THRESHOLD;

/// Re-balancing strategy knob (ablation X1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceMode {
    /// Never move solutions before FILTER/APPLY.
    None,
    /// Paper's baseline: split by solution count.
    CountBased,
    /// Paper's contribution: split by measured per-rank throughput.
    ThroughputBased,
}

/// Execution options.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Re-balancing strategy before UDF stages.
    pub rebalance: RebalanceMode,
    /// Enable §2.4.3 conjunct reordering.
    pub reorder_conjuncts: bool,
    /// Virtual cost per triple produced by a scan (CGE-scale throughput).
    pub scan_secs_per_triple: f64,
    /// Virtual cost per row flowing through a join.
    pub join_secs_per_row: f64,
    /// Cost prior for UDFs with no profile yet.
    pub udf_cost_prior: f64,
    /// Per-rank virtual-time budget for each FILTER/APPLY stage. A rank
    /// that exhausts it stops evaluating further rows (infinite = off).
    pub stage_deadline_secs: f64,
    /// Graceful degradation: when `true`, failed rows are dropped and
    /// reported as [`ErrorAnnotation`](super::ErrorAnnotation)s on the outcome instead of failing
    /// the whole query. Default `false` (fail fast).
    pub degrade: bool,
    /// Pipelined streaming exchange (default `false` = BSP). When on,
    /// stage boundaries stop barriering: scans, joins, and FILTER/APPLY
    /// stages leave per-rank clocks skewed, and the join exchange streams
    /// repartitioned batches of 256 KiB through per-(src,dst) channels of
    /// eight batches, costed by `Cluster::streamed_exchange_cost` — a
    /// receiver starts when its *first* inbound batch lands and finishes
    /// no earlier than its last, and a sender whose receiver holds a full
    /// channel stalls, instead of the whole world syncing to the slowest
    /// rank. This selects only a virtual-time cost model; the data plane
    /// is identical, so results are byte-identical across modes.
    pub pipelined: bool,
    /// Mid-query recovery (default `false`): store recovery checkpoints at
    /// stage boundaries and, when a rank's node dies permanently (or a
    /// stage blows its strict deadline), roll back to the last completed
    /// checkpoint, re-plan the orphaned shards onto surviving ranks, and
    /// resume. Shard-keyed rng/hash/row-order makes the recovered result
    /// byte-identical to a fault-free run.
    pub recovery: bool,
    /// Per-query rollback budget: one more rollback than this fails the
    /// query with [`ExecError::RecoveryExhausted`](super::ExecError::RecoveryExhausted) so fault storms shed
    /// load instead of looping.
    pub max_recoveries: u32,
    /// Adaptive mid-query re-optimization (default `false`): at each
    /// pattern-join boundary the engine compares the observed intermediate
    /// row count against the cost model's prediction
    /// (`PhysicalPlan::est_rows_after`); when they diverge past
    /// [`Self::replan_ratio`] in either direction and at least two
    /// patterns remain, the remaining patterns are re-planned from the
    /// live intermediate (greedy cost-based, seeded with the *observed*
    /// rows). Results are byte-identical either way: the gather
    /// canonicalizes column and row order, making the output a pure
    /// function of the solution multiset rather than the join order.
    pub adaptive: bool,
    /// Estimate-vs-actual divergence ratio (`max(a/e, e/a)`) past which a
    /// re-plan triggers.
    pub replan_ratio: f64,
    /// Noise floor: boundaries where both observed and estimated rows sit
    /// below this count never trigger a re-plan (tiny intermediates make
    /// ratios meaningless and re-planning pointless).
    pub replan_min_rows: u64,
    /// Speculative re-execution of stragglers (default `false`): after each
    /// UDF stage's compute phase, ranks whose virtual finish lags the stage
    /// median past 1.5× get a hedged duplicate on the least-loaded live
    /// rank; first finisher wins (ties go to the
    /// original), and a losing hedge's cost stays charged to its host.
    /// Pure clock arithmetic — the data plane is untouched, so results
    /// stay byte-identical.
    pub speculation: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        Self {
            rebalance: RebalanceMode::ThroughputBased,
            reorder_conjuncts: true,
            scan_secs_per_triple: 2.0e-8,
            join_secs_per_row: 2.0e-8,
            udf_cost_prior: 0.5,
            stage_deadline_secs: f64::INFINITY,
            degrade: false,
            pipelined: false,
            recovery: false,
            max_recoveries: 3,
            adaptive: false,
            replan_ratio: 4.0,
            replan_min_rows: 64,
            speculation: false,
        }
    }
}

/// Fixed virtual cost per expression evaluation (the non-UDF part of a
/// FILTER/APPLY row).
pub(super) const EVAL_SECS_PER_ROW: f64 = 1.0e-7;

/// Rejection prior for UDFs with no profile yet.
pub(super) const UDF_REJECTION_PRIOR: f64 = 0.5;

/// Extra attempts after a row's worker panics before the row is declared
/// failed (bounded retry of failed rank work).
pub(super) const ROW_RETRIES: u32 = 2;

/// Virtual seconds charged per row retry attempt (linear backoff).
pub(super) const RETRY_BACKOFF_SECS: f64 = 1.0e-3;

/// Rows per batch: joins and FILTER/APPLY stages charge one
/// [`BATCH_DISPATCH_SECS`] per batch of this many rows, and a streamed
/// exchange ships sub-batches of this many rows.
pub(super) const BATCH_ROWS: usize = 1024;

/// Virtual cost of dispatching one batch through an operator
/// (registry/expression setup paid once per batch, not per row).
pub(super) const BATCH_DISPATCH_SECS: f64 = 5.0e-7;

/// Target wire bytes per streamed exchange batch (pipelined mode).
pub(super) const EXCHANGE_BATCH_BYTES: u64 = 256 << 10;

/// Bounded per-channel buffer in batches (pipelined mode): a sender whose
/// receiver has this many undrained batches stalls, and the stall is
/// charged to its virtual clock.
pub(super) const EXCHANGE_CHANNEL_CAPACITY: usize = 8;

impl ExecOptions {
    /// The options as the reuse salt renders them: the derived `Debug`
    /// text they had when the execution constants above (and
    /// [`SPECULATION_THRESHOLD`]) were fields too, so every reuse key
    /// stays what it was.
    pub(crate) fn salt_text(&self) -> String {
        let o = self;
        let text = std::fmt::from_fn(|f| {
            f.debug_struct("ExecOptions")
                .field("rebalance", &o.rebalance)
                .field("reorder_conjuncts", &o.reorder_conjuncts)
                .field("scan_secs_per_triple", &o.scan_secs_per_triple)
                .field("join_secs_per_row", &o.join_secs_per_row)
                .field("eval_secs_per_row", &EVAL_SECS_PER_ROW)
                .field("udf_cost_prior", &o.udf_cost_prior)
                .field("udf_rejection_prior", &UDF_REJECTION_PRIOR)
                .field("stage_deadline_secs", &o.stage_deadline_secs)
                .field("row_retries", &ROW_RETRIES)
                .field("retry_backoff_secs", &RETRY_BACKOFF_SECS)
                .field("degrade", &o.degrade)
                .field("batch_rows", &BATCH_ROWS)
                .field("batch_dispatch_secs", &BATCH_DISPATCH_SECS)
                .field("pipelined", &o.pipelined)
                .field("exchange_batch_bytes", &EXCHANGE_BATCH_BYTES)
                .field("exchange_channel_capacity", &EXCHANGE_CHANNEL_CAPACITY)
                .field("recovery", &o.recovery)
                .field("max_recoveries", &o.max_recoveries)
                .field("adaptive", &o.adaptive)
                .field("replan_ratio", &o.replan_ratio)
                .field("replan_min_rows", &o.replan_min_rows)
                .field("speculation", &o.speculation)
                .field("speculation_threshold", &SPECULATION_THRESHOLD)
                .finish()
        });
        format!("{text:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_options_defaults_match_paper_posture() {
        let o = ExecOptions::default();
        assert_eq!(o.rebalance, RebalanceMode::ThroughputBased);
        assert!(o.reorder_conjuncts);
        // BSP is the reproduction baseline; the streaming exchange is the
        // opt-in ablation arm.
        assert!(!o.pipelined);
        const { assert!(EXCHANGE_BATCH_BYTES > 0 && EXCHANGE_CHANNEL_CAPACITY > 0) };
    }
}
