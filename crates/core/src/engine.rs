//! The distributed query executor.
//!
//! Executes a [`PhysicalPlan`] as BSP phases over the simulated cluster,
//! mirroring CGE's operator pipeline:
//!
//! 1. **scan** — every rank scans its shard for the current pattern;
//! 2. **exchange** — solutions are hash-partitioned on the join variables
//!    and exchanged (all-to-all, charged with the α–β model);
//! 3. **join** — rank-local hash joins;
//! 4. **re-balance** — before UDF-bearing FILTER/APPLY stages, solutions
//!    move between ranks per §2.4.2 (count-based or throughput-based);
//! 5. **filter / apply** — per-rank expression evaluation with §2.4.3
//!    conjunct reordering, charging each UDF's virtual cost to the rank
//!    that ran it;
//! 6. **gather** — results concatenate to the client.
//!
//! The per-stage virtual-time breakdown (scan/join vs FILTER vs docking)
//! recorded here is exactly what Figures 4(a), 4(b), and 5 plot.

use crate::binding::RowBindings;
use crate::datastore::Datastore;
use crate::planner::{PhysicalPattern, PhysicalPlan, PhysicalStage};
use ids_cache::{CacheManager, IntermediateSolutions, TypedSolutionSet};
use ids_graph::batch::{BatchView, ColumnSlice};
use ids_graph::ops as gops;
use ids_graph::stage::{
    offsets_from_counts, partition_permutation, sort_permutation, IdBuffers, StagePart,
};
use ids_graph::{placement, Dictionary, SolutionSet, StageBatch, TermId};
use ids_obs::MetricsRegistry;
use ids_simrt::cluster::SPECULATION_THRESHOLD;
use ids_simrt::pool::map_shards_with;
use ids_simrt::rng::fnv1a;
use ids_simrt::{Cluster, ExchangeCost, Fanout, RankId, SpeculationReport};
use ids_udf::expr::EvalCtx;
use ids_udf::{
    order_by_udfs, plan_count_based, plan_throughput_based, ArgMemo, EvalError, Expr, ProfileRow,
    ProfileRowMut, ProfileTable, RebalancePlan, UdfRegistry, UdfValue,
};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Lock a rank's stage profile row even if a panicking worker poisoned it:
/// a poisoned row belongs to a stage that failed, and a failed stage
/// never commits its profiles. Poisoning must not turn a reportable
/// query error into an executor crash.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Render a panic payload (from [`catch_unwind`]) for an error message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

thread_local! {
    static CURRENT_RANK: Cell<u32> = const { Cell::new(0) };
}

/// The rank whose solutions the current thread is evaluating. Cache-aware
/// UDFs use this to attribute cache traffic to the right node.
///
/// Set at the start of every FILTER/APPLY shard by whichever host thread
/// runs that shard (see [`ids_simrt::pool`]), so inside a UDF it always
/// names the rank the call is for. A UDF must be a pure function of its
/// arguments and this rank: ranks run concurrently, in no fixed order.
pub fn current_rank() -> RankId {
    RankId(CURRENT_RANK.with(|c| c.get()))
}

fn set_current_rank(r: RankId) {
    CURRENT_RANK.with(|c| c.set(r.0));
}

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
    /// Extra attempts after a row's worker panics before the row is
    /// declared failed (bounded retry of failed rank work).
    pub row_retries: u32,
    /// Graceful degradation: when `true`, failed rows are dropped and
    /// reported as [`ErrorAnnotation`]s on the outcome instead of failing
    /// the whole query. Default `false` (fail fast).
    pub degrade: bool,
    /// Pipelined streaming exchange (default `false` = BSP). When on,
    /// stage boundaries stop barriering: scans, joins, and FILTER/APPLY
    /// stages leave per-rank clocks skewed, and the join exchange streams
    /// repartitioned batches of 256 KiB through per-(src,dst) channels of
    /// eight batches, costed by `Cluster::streamed_exchange_cost` — a
    /// receiver starts
    /// when its *first* inbound batch lands and finishes no earlier than
    /// its last, and a sender whose receiver holds a full channel stalls,
    /// instead of the whole world syncing to the slowest rank. This
    /// selects only a virtual-time cost model; the data plane is
    /// identical, so results are byte-identical across modes.
    pub pipelined: bool,
    /// Mid-query recovery (default `false`): store recovery checkpoints at
    /// stage boundaries and, when a rank's node dies permanently (or a
    /// stage blows its strict deadline), roll back to the last completed
    /// checkpoint, re-plan the orphaned shards onto surviving ranks, and
    /// resume. Shard-keyed rng/hash/row-order makes the recovered result
    /// byte-identical to a fault-free run.
    pub recovery: bool,
    /// Per-query rollback budget: one more rollback than this fails the
    /// query with [`ExecError::RecoveryExhausted`] so fault storms shed
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
            row_retries: 2,
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
const EVAL_SECS_PER_ROW: f64 = 1.0e-7;

/// Rejection prior for UDFs with no profile yet.
const UDF_REJECTION_PRIOR: f64 = 0.5;

/// Virtual seconds charged per row retry attempt (linear backoff).
const RETRY_BACKOFF_SECS: f64 = 1.0e-3;

/// Rows per batch: joins and FILTER/APPLY stages charge one
/// [`BATCH_DISPATCH_SECS`] per batch of this many rows, and a streamed
/// exchange ships sub-batches of this many rows.
const BATCH_ROWS: usize = 1024;

/// Virtual cost of dispatching one batch through an operator
/// (registry/expression setup paid once per batch, not per row).
const BATCH_DISPATCH_SECS: f64 = 5.0e-7;

/// Target wire bytes per streamed exchange batch (pipelined mode).
const EXCHANGE_BATCH_BYTES: u64 = 256 << 10;

/// Bounded per-channel buffer in batches (pipelined mode): a sender whose
/// receiver has this many undrained batches stalls, and the stall is
/// charged to its virtual clock.
const EXCHANGE_CHANNEL_CAPACITY: usize = 8;

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
                .field("row_retries", &o.row_retries)
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

    /// Everything except the named APPLY stage — the paper's
    /// "excluding docking" decomposition.
    pub fn total_excluding(&self, udf: &str) -> f64 {
        self.total() - self.apply_secs.get(udf).copied().unwrap_or(0.0)
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
/// [`ExecOptions::degrade`] is on; surfaced by EXPLAIN.
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
    /// Degraded-execution records (empty unless [`ExecOptions::degrade`]
    /// dropped work). A non-empty list means `solutions` is partial.
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
    /// The per-query recovery budget ([`ExecOptions::max_recoveries`])
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

    /// Does this error report a blown per-rank stage deadline? Those are
    /// transient-by-construction (a straggler, not wrong data), so the
    /// recovery plane retries them from the last checkpoint.
    fn is_stage_deadline(&self) -> bool {
        matches!(self, ExecError::Message(m) if m.contains("exceeded its") && m.contains("deadline"))
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Message(m) => write!(f, "execution error: {m}"),
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
    /// Hedged duplicates launched by speculative re-execution.
    pub spec_launched: u64,
    /// Duplicates that beat their straggling original.
    pub spec_wins: u64,
    /// Duplicates cancelled after the original finished first.
    pub spec_losses: u64,
    /// Critical-path seconds recovered by winning duplicates.
    pub spec_saved_secs: f64,
    /// First winning duplicate: `(host rank, virtual win time)`.
    pub first_spec_win: Option<(u32, f64)>,
}

impl RecoveryReport {
    /// Did the recovery plane intervene at all?
    pub fn intervened(&self) -> bool {
        self.rollbacks > 0 || self.spec_launched > 0
    }
}

/// What the adaptive planner observed and did during one query. The
/// estimate-vs-actual boundaries are recorded unconditionally (they feed
/// EXPLAIN's `estimated vs actual` block and cost nothing); re-plans only
/// happen with [`ExecOptions::adaptive`] on.
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
fn divergence_ratio(est: u64, actual: u64) -> f64 {
    let e = est.max(1) as f64;
    let a = actual.max(1) as f64;
    (a / e).max(e / a)
}

/// Record a finished operator stage into the observability registry: one
/// sample in the per-stage duration histogram plus a virtual-clock span.
fn record_stage(
    metrics: &MetricsRegistry,
    stage: &'static str,
    start_secs: f64,
    end_secs: f64,
    detail: String,
) {
    metrics.histogram_with("ids_engine_stage_secs", "stage", stage).observe(end_secs - start_secs);
    metrics.spans().record(stage, detail, start_secs, end_secs);
}

/// Give the attached cache a chance to run its anti-entropy pass. Stage
/// boundaries are the only place this happens: they are single-threaded
/// points between `cluster.execute` fan-outs, so the scrub's per-node
/// draw streams are consumed in a fixed order regardless of how rank
/// closures interleaved inside the stage — determinism is preserved.
fn anti_entropy_tick(cache: Option<&CacheManager>, metrics: &MetricsRegistry, at: f64) {
    let Some(c) = cache else { return };
    // Ticks count *offered* boundaries; the cache's own
    // `ids_cache_anti_entropy_runs_total` counts passes that actually ran.
    metrics.counter("ids_engine_anti_entropy_ticks_total").inc();
    if let Some(report) = c.maybe_anti_entropy() {
        if !report.is_noop() {
            metrics.spans().record(
                "anti_entropy",
                format!(
                    "re_replicated {} backing_repairs {} corruptions {}",
                    report.re_replicated, report.backing_repairs, report.corruptions
                ),
                at,
                at,
            );
        }
    }
}

/// One plan-fragment checkpoint for semantic result reuse: where in the
/// shared cache the intermediate state for a canonical fragment lives, and
/// how to translate between this query's variable names and the canonical
/// schema the cached object uses.
#[derive(Debug, Clone)]
pub struct ReuseCheckpoint {
    /// Cache object name. Callers salt it with everything outside the
    /// query text that determines the intermediate state (rank count,
    /// datastore identity, result-affecting exec options).
    pub key: String,
    /// Canonical fragment fingerprint, stored inside the typed object and
    /// verified on load so a key collision is detected, never resumed from.
    pub fingerprint: u64,
    /// Metrics label (`"bgp"`, `"where"`, `"stage0"`, …).
    pub label: String,
    /// `(this query's variable name, canonical name)` for every variable
    /// in the fragment's scope, sorted by the former. A handful of pairs
    /// held for the life of a prepared query, so a flat list, not a map.
    pub rename: Vec<(String, String)>,
}

/// The checkpoint schedule for a [`PlanRun`]: which execution prefixes may
/// be loaded from / stored to the shared cache. Built by
/// [`IdsInstance::prepare_run`](crate::instance::IdsInstance::prepare_run)
/// from [`crate::iql::fragment`]; the engine itself knows nothing about IQL
/// canonicalization.
#[derive(Debug, Clone)]
pub struct ReusePlan {
    /// State after the basic graph pattern (scans + joins).
    pub after_bgp: Option<ReuseCheckpoint>,
    /// State after the WHERE filter (`None` when the query has no filter).
    pub after_where: Option<ReuseCheckpoint>,
    /// State after each post-WHERE stage (aligned with `plan.stages`).
    pub after_stage: Vec<Option<ReuseCheckpoint>>,
    /// Intermediates larger than this are not cached (admission cap).
    pub max_object_bytes: usize,
}

impl ReusePlan {
    /// Default admission cap for cached intermediates.
    pub const DEFAULT_MAX_OBJECT_BYTES: usize = 16 << 20;
}

/// Where a [`PlanRun`] currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunPhase {
    /// About to execute pattern `i` (scan + join with prior state).
    Pattern(usize),
    /// About to run the WHERE filter (no-op if the plan has none).
    WhereFilter,
    /// About to run post-WHERE stage `i`.
    Stage(usize),
    /// About to gather, order, project, and finish.
    Gather,
    /// Finished; `step` must not be called again.
    Done,
}

impl RunPhase {
    /// Stage label (`pattern0`, `where-filter`, `stage1`, `gather`, `done`)
    /// — stable across runs, part of the scheduler trace.
    pub fn label(self) -> String {
        match self {
            RunPhase::Pattern(i) => format!("pattern{i}"),
            RunPhase::WhereFilter => "where-filter".to_string(),
            RunPhase::Stage(i) => format!("stage{i}"),
            RunPhase::Gather => "gather".to_string(),
            RunPhase::Done => "done".to_string(),
        }
    }
}

/// Result of one [`PlanRun::step`].
#[derive(Debug)]
pub enum StepOutcome {
    /// More stages remain; call `step` again.
    Pending,
    /// More stages remain, and the stage just stepped left batches flowing
    /// on streamed exchange channels (pipelined mode only): downstream
    /// ranks are already consuming them, so a scheduler should treat this
    /// like [`Self::Pending`] but may account the yield to channel
    /// readiness rather than a stage barrier.
    BatchReady {
        /// Channels that carried bytes in the stage's streamed exchange.
        channels: u64,
        /// Batches moved across those channels.
        batches: u64,
    },
    /// The recovery plane intervened instead of (or after discarding) a
    /// stage: dead ranks were retired, orphaned shards re-planned onto
    /// survivors, and the run rolled back to its last recovery checkpoint.
    /// More stages remain; call `step` again to resume.
    Recovered {
        /// Checkpoint ordinal the run resumed from (−1 = restarted from
        /// scratch on the survivors).
        resumed_ordinal: i64,
        /// Ranks permanently retired by this recovery.
        retired_ranks: u32,
    },
    /// The adaptive planner re-ordered the remaining patterns after an
    /// estimate-vs-actual divergence at a pattern boundary. More stages
    /// remain; call `step` again. A scheduler can treat this like
    /// [`Self::Pending`] — the yield exists so the service tier can meter
    /// re-plans per tenant. Results are unaffected: the gather
    /// canonicalizes output independent of join order.
    Replanned {
        /// Pattern boundary (index into the plan) whose observed
        /// cardinality triggered the re-plan.
        at_pattern: u32,
        /// How many remaining patterns changed position.
        reordered: u32,
    },
    /// The query finished. Boxed: a completed outcome carries the full
    /// solution set and would otherwise dwarf the per-stage variants.
    Done(Box<QueryOutcome>),
}

/// A resumable plan execution: the same scan → join → filter → apply →
/// gather pipeline as [`execute_plan`], broken at stage granularity so a
/// scheduler can interleave many in-flight queries over one cluster's
/// virtual clock. Each [`PlanRun::step`] runs exactly one pipeline stage
/// (one or two collectives) and returns; the run owns all intermediate
/// state, while cluster / datastore / profiles are borrowed per call so
/// several runs can share them.
///
/// With a [`ReusePlan`] attached, the first step probes the shared cache
/// for the longest already-computed fragment prefix (semantic result
/// reuse) and resumes past it; completed checkpoints are stored back so
/// later overlapping queries can do the same.
pub struct PlanRun {
    /// Shared with the instance's prepared-query cache: read in place,
    /// copied on write (`Arc::make_mut`) by the adaptive re-plan, so a run
    /// can never alter the plan another run starts from.
    plan: Arc<PhysicalPlan>,
    opts: ExecOptions,
    reuse: Option<Arc<ReusePlan>>,
    phase: RunPhase,
    started: bool,
    t0: f64,
    /// Every rank's intermediate solutions as one rank-segmented stage;
    /// split into per-rank batches only at the checkpoint boundaries.
    sets: Option<StageBatch>,
    /// The variable `sets` is placed on: every row sits on the rank that
    /// [`ids_graph::placement`] gives its value. A scan is placed on its
    /// subject variable, a key join on its key, a cross product where its
    /// unbroadcast side was; every other stage producer clears it. A join
    /// moves only the sides not placed on its key (DESIGN.md §5g).
    placed: Option<String>,
    breakdown: StageBreakdown,
    annotations: Vec<ErrorAnnotation>,
    pre_filter_counts: Vec<u64>,
    /// Checkpoint ordinal the run resumed from (−1 = cold). Checkpoints at
    /// or below this ordinal are already in the cache and are not rewritten.
    resume_ordinal: i64,
    /// Streamed-exchange activity of the stage currently being stepped;
    /// drained by [`Self::step`] into [`StepOutcome::BatchReady`].
    exchange_tally: ExchangeTally,
    /// Globally unique id naming this run's recovery checkpoints.
    run_id: u64,
    /// Last recovery checkpoint stored (−1 = none; rollback restarts from
    /// scratch). Distinct from `resume_ordinal`, which tracks *semantic
    /// reuse* checkpoints shared across queries.
    recovery_ordinal: i64,
    /// The profile table as of the last recovery checkpoint (or query
    /// start; set only with recovery on). Rollback restores it so a
    /// re-executed stage sees the same rate estimates — and therefore the
    /// same row placement and output order — as the discarded attempt.
    profile_snapshot: Option<ProfileTable>,
    /// Recovery-plane activity, cloned into the outcome at the gather.
    recovery: RecoveryReport,
    /// Adaptive-planner activity, cloned into the outcome at the gather.
    adaptive: AdaptiveReport,
    /// A re-plan performed by the stage just stepped, drained by
    /// [`Self::stage_outcome`] into [`StepOutcome::Replanned`].
    pending_replan: Option<(u32, u32)>,
    /// The run's free list of id buffers: what a phase is done with (the
    /// exchange's inputs, destinations and permutations, the join's
    /// inputs, the workers' leftover parts) goes back here, and later
    /// phases take from it. The gather empties it before it fills the
    /// result, so no buffer outlives its query (DESIGN.md §5g, *Stage
    /// buffer lifetime*).
    buffers: IdBuffers,
}

/// Aggregate of one stage's streamed exchanges (pipelined mode).
#[derive(Debug, Default, Clone, Copy)]
struct ExchangeTally {
    channels: u64,
    batches: u64,
}

/// Checkpoint ordinals: BGP = 0, WHERE = 1, stage i = 2 + i.
fn stage_ordinal(i: usize) -> i64 {
    2 + i as i64
}

/// The phase that executes next after restoring checkpoint `ord` (shared
/// by the semantic-reuse probe and the recovery rollback so the two resume
/// paths can never disagree).
fn phase_after_ordinal(ord: i64, plan: &PhysicalPlan) -> RunPhase {
    match ord {
        0 => RunPhase::WhereFilter,
        1 if plan.stages.is_empty() => RunPhase::Gather,
        1 => RunPhase::Stage(0),
        n => {
            let i = (n - 2) as usize;
            if i + 1 < plan.stages.len() {
                RunPhase::Stage(i + 1)
            } else {
                RunPhase::Gather
            }
        }
    }
}

/// The checkpoint ordinal a `from` → `to` phase transition completes
/// (`None` mid-BGP and at the gather, which have no boundary).
fn completed_ordinal(from: RunPhase, to: RunPhase) -> Option<i64> {
    match (from, to) {
        (RunPhase::Pattern(_), RunPhase::WhereFilter) => Some(0),
        (RunPhase::WhereFilter, _) => Some(1),
        (RunPhase::Stage(i), _) => Some(stage_ordinal(i)),
        _ => None,
    }
}

/// Recovery checkpoint ids are per-run, not semantic: a monotonic counter
/// keeps two interleaved runs of the same query from clobbering each
/// other's rollback state.
static NEXT_RUN_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

impl PlanRun {
    /// Prepare a run. Nothing executes until the first [`Self::step`].
    pub fn new(plan: Arc<PhysicalPlan>, opts: ExecOptions, reuse: Option<Arc<ReusePlan>>) -> Self {
        Self {
            plan,
            opts,
            reuse,
            phase: RunPhase::Pattern(0),
            started: false,
            t0: 0.0,
            sets: None,
            placed: None,
            breakdown: StageBreakdown::default(),
            annotations: Vec::new(),
            pre_filter_counts: Vec::new(),
            resume_ordinal: -1,
            exchange_tally: ExchangeTally::default(),
            run_id: NEXT_RUN_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            recovery_ordinal: -1,
            profile_snapshot: None,
            recovery: RecoveryReport::default(),
            adaptive: AdaptiveReport::default(),
            pending_replan: None,
            buffers: IdBuffers::default(),
        }
    }

    /// Label of the next stage to execute (stable across runs — part of
    /// the scheduler trace).
    pub fn phase_label(&self) -> String {
        self.phase.label()
    }

    /// The next stage to execute, as a `Copy` value (what the scheduler
    /// logs per slice; [`RunPhase::label`] renders it).
    pub fn phase(&self) -> RunPhase {
        self.phase
    }

    /// The plan this run executes (after any adaptive re-plan so far).
    pub fn plan(&self) -> &PhysicalPlan {
        &self.plan
    }

    /// Checkpoint ordinal this run resumed from (−1 when it started cold)
    /// — `0` = after-BGP, `1` = after-WHERE, `2 + i` = after stage `i`.
    pub fn resumed_from(&self) -> i64 {
        self.resume_ordinal
    }

    /// Execute the next pipeline stage. Returns [`StepOutcome::Done`] with
    /// the query outcome after the gather stage; stepping a finished run
    /// is an error.
    #[allow(clippy::too_many_arguments)]
    pub fn step(
        &mut self,
        cluster: &mut Cluster,
        ds: &Datastore,
        registry: &UdfRegistry,
        profiles: &mut ProfileTable,
        memo: &ArgMemo,
        metrics: &MetricsRegistry,
        cache: Option<&CacheManager>,
    ) -> Result<StepOutcome, ExecError> {
        let ranks = cluster.topology().total_ranks() as usize;
        if !self.started {
            self.begin(cluster, ds, profiles, metrics, cache, ranks)?;
            if self.opts.recovery {
                // A restart-from-scratch must replay the profiles the first
                // attempt started with: profiles persist across queries and
                // drive rebalance placement, so re-running with evolved
                // profiles would reorder rows.
                self.profile_snapshot = Some(profiles.clone());
            }
        }
        if !self.opts.recovery {
            return self.step_inner(cluster, ds, registry, profiles, memo, metrics, cache, ranks);
        }

        // Recovery plane. Deaths become visible when the virtual clock
        // passes the kill time, i.e. during the stage that overlapped it:
        // check before the stage (deaths surfaced by a previous stage's
        // collectives) and after it (deaths that happened mid-stage, whose
        // output is therefore void).
        let dead = self.newly_dead(cluster);
        if !dead.is_empty() {
            return self.recover(
                cluster,
                profiles,
                metrics,
                cache,
                ranks,
                &dead,
                "rank loss detected before stage",
            );
        }
        let ann_mark = self.annotations.len();
        let phase_before = self.phase;
        match self.step_inner(cluster, ds, registry, profiles, memo, metrics, cache, ranks) {
            Err(e) if e.is_stage_deadline() => {
                // A blown strict stage deadline is a straggler symptom, not
                // bad data: roll back and retry within the budget.
                self.annotations.truncate(ann_mark);
                self.discard_in_flight_exchange(None, metrics);
                self.recover(
                    cluster,
                    profiles,
                    metrics,
                    cache,
                    ranks,
                    &[],
                    "stage deadline exceeded",
                )
            }
            Err(e) => Err(e),
            Ok(outcome) => {
                let dead = self.newly_dead(cluster);
                if dead.is_empty() {
                    // Boundary verified fault-free: checkpoint it. A stage
                    // that overlapped a death never stores its own
                    // checkpoint — the rollback below discards it first.
                    if let Some(ord) = completed_ordinal(phase_before, self.phase) {
                        self.store_recovery_checkpoint(ord, cluster, profiles, metrics, cache);
                    }
                    return Ok(outcome);
                }
                // The stage (possibly the gather itself) overlapped a
                // permanent rank death: discard its output and roll back.
                // Streamed sub-batches the doomed stage pushed through
                // exchange channels are voided with it — the receiver never
                // consumes a partial stream; the rows are replayed in full
                // from the producer-side checkpoint on resume.
                self.discard_in_flight_exchange(Some(&outcome), metrics);
                if let StepOutcome::Done(done) = outcome {
                    self.breakdown = done.breakdown;
                    self.annotations = done.annotations;
                }
                self.annotations.truncate(ann_mark);
                self.recover(
                    cluster,
                    profiles,
                    metrics,
                    cache,
                    ranks,
                    &dead,
                    "rank loss detected after stage",
                )
            }
        }
    }

    /// One stage of the pipeline, with no recovery interposition.
    #[allow(clippy::too_many_arguments)]
    fn step_inner(
        &mut self,
        cluster: &mut Cluster,
        ds: &Datastore,
        registry: &UdfRegistry,
        profiles: &mut ProfileTable,
        memo: &ArgMemo,
        metrics: &MetricsRegistry,
        cache: Option<&CacheManager>,
        ranks: usize,
    ) -> Result<StepOutcome, ExecError> {
        match self.phase {
            RunPhase::Pattern(i) => {
                self.step_pattern(i, cluster, ds, metrics, cache, ranks)?;
                Ok(self.stage_outcome())
            }
            RunPhase::WhereFilter => {
                self.step_udf(None, cluster, ds, registry, profiles, memo, metrics, cache)?;
                Ok(self.stage_outcome())
            }
            RunPhase::Stage(i) => {
                self.step_udf(Some(i), cluster, ds, registry, profiles, memo, metrics, cache)?;
                Ok(self.stage_outcome())
            }
            RunPhase::Gather => {
                let outcome = self.step_gather(cluster, ds, metrics, cache, ranks)?;
                Ok(StepOutcome::Done(Box::new(outcome)))
            }
            RunPhase::Done => Err(ExecError::msg("step called on a completed plan run")),
        }
    }

    /// Ranks still live in the cluster whose host node the fault plane now
    /// reports permanently dead.
    fn newly_dead(&self, cluster: &Cluster) -> Vec<RankId> {
        let Some(plane) = cluster.faults() else { return Vec::new() };
        let t = cluster.elapsed();
        let topo = cluster.topology();
        (0..topo.total_ranks())
            .map(RankId)
            .filter(|&r| cluster.is_live(r) && plane.node_dead_at(topo.node_of(r), t))
            .collect()
    }

    /// Void every streamed-exchange sub-batch the doomed stage put in
    /// flight — both the untaken tally and any already-yielded
    /// [`StepOutcome::BatchReady`] being discarded by the rollback — and
    /// meter the loss. The channels are a cost-model concept (the data
    /// plane delivers a stage's rows before it returns), so "discard" here
    /// is an accounting truth: those batches will be re-produced from the
    /// checkpoint, never half-consumed downstream.
    fn discard_in_flight_exchange(
        &mut self,
        discarded_outcome: Option<&StepOutcome>,
        metrics: &MetricsRegistry,
    ) {
        let tally = std::mem::take(&mut self.exchange_tally);
        let mut batches = tally.batches;
        if let Some(StepOutcome::BatchReady { batches: b, .. }) = discarded_outcome {
            batches += b;
        }
        if batches > 0 {
            metrics.counter("ids_recovery_channel_batches_discarded_total").add(batches);
        }
    }

    /// Retire `dead` ranks, re-plan their shards onto the least-loaded
    /// survivors, and roll back to the last recovery checkpoint (or to
    /// scratch when none exists) — all within the per-query budget.
    #[allow(clippy::too_many_arguments)]
    fn recover(
        &mut self,
        cluster: &mut Cluster,
        profiles: &mut ProfileTable,
        metrics: &MetricsRegistry,
        cache: Option<&CacheManager>,
        ranks: usize,
        dead: &[RankId],
        reason: &str,
    ) -> Result<StepOutcome, ExecError> {
        let attempts = self.recovery.rollbacks + 1;
        if attempts > self.opts.max_recoveries {
            metrics.counter("ids_recovery_exhausted_total").inc();
            return Err(ExecError::RecoveryExhausted {
                attempts,
                detail: format!(
                    "{reason}; budget is {} rollbacks per query",
                    self.opts.max_recoveries
                ),
            });
        }
        // Retire the dead ranks and permanently fence their cache node:
        // checkpoints it owned must never serve a recovery read.
        for &r in dead {
            cluster.retire_rank(r);
            self.recovery.retired_ranks.push(r.0);
            metrics.counter("ids_recovery_ranks_lost_total").inc();
            if let Some(cache) = cache {
                cache.fail_node_permanently(cluster.topology().node_of(r));
            }
        }
        if cluster.live_count() == 0 {
            let rank = dead.first().map_or(0, |r| r.0);
            return Err(ExecError::RankLost {
                rank,
                node: cluster.topology().node_of(RankId(rank)).0,
                detail: "no live ranks remain to recover onto".to_string(),
            });
        }
        // Re-plan: orphaned shards go to the least-loaded survivor (fewest
        // owned shards, ties to the lowest rank id) — the same
        // deterministic least-loaded rule the count-based rebalancer uses.
        let mut owned = vec![0usize; ranks];
        for s in 0..ranks {
            let o = cluster.owner_of(s);
            if cluster.is_live(o) {
                owned[o.index()] += 1;
            }
        }
        let mut moved = 0u32;
        for s in 0..ranks {
            if cluster.is_live(cluster.owner_of(s)) {
                continue;
            }
            let Some(host) = cluster
                .live_ranks()
                .into_iter()
                .min_by(|a, b| owned[a.index()].cmp(&owned[b.index()]).then(a.0.cmp(&b.0)))
            else {
                break; // unreachable: live_count() > 0 was checked above
            };
            cluster.assign_shard(s, host);
            owned[host.index()] += 1;
            moved += 1;
        }
        if moved > 0 {
            self.recovery.replans += 1;
            self.recovery.shards_moved += moved;
            metrics.counter("ids_recovery_replans_total").inc();
            metrics.counter("ids_recovery_shards_moved_total").add(moved as u64);
        }
        self.recovery.rollbacks += 1;
        metrics.counter("ids_recovery_rollbacks_total").inc();
        let ord = self.recovery_ordinal;
        if ord < 0 {
            // No checkpoint yet: restart from scratch on the survivors
            // (scans re-read the datastore, so this needs no replica).
            self.sets = None;
            self.placed = None;
            self.pre_filter_counts = Vec::new();
            self.phase = RunPhase::Pattern(0);
            self.restore_profiles(profiles);
            self.recovery.restarts += 1;
            metrics.counter("ids_recovery_restarts_total").inc();
        } else {
            self.restore_recovery_checkpoint(ord, cluster, profiles, metrics, cache, ranks)?;
        }
        metrics.spans().record(
            "recovery",
            format!("{reason}: rolled back to ordinal {ord} ({} ranks retired)", dead.len()),
            cluster.elapsed(),
            cluster.elapsed(),
        );
        Ok(StepOutcome::Recovered { resumed_ordinal: ord, retired_ranks: dead.len() as u32 })
    }

    /// Cache object name for this run's recovery checkpoint at `ord`.
    fn recovery_key(&self, ord: i64) -> String {
        format!("rcov/{:016x}/{ord}", self.run_id)
    }

    /// Store a recovery checkpoint for the boundary `ord` that just
    /// completed fault-free. Ephemeral cache tiers only — durability
    /// against node loss comes from cache replication (rf ≥ 2), which the
    /// rollback path verifies before trusting a checkpoint.
    fn store_recovery_checkpoint(
        &mut self,
        ord: i64,
        cluster: &mut Cluster,
        profiles: &ProfileTable,
        metrics: &MetricsRegistry,
        cache: Option<&CacheManager>,
    ) {
        let Some(cache) = cache else { return };
        if ord <= self.recovery_ordinal {
            return; // the rollback target already covers this boundary
        }
        // Degraded intermediates are partial — recovery must not resume
        // from them (same rule as the semantic-reuse store).
        if !self.annotations.is_empty() {
            return;
        }
        let Some(stage) = &self.sets else { return };
        let key = self.recovery_key(ord);
        let typed_sets: Vec<TypedSolutionSet> = (0..stage.ranks())
            .map(|r| TypedSolutionSet {
                vars: stage.vars().to_vec(),
                rows: typed_rows(stage.segment(r)),
            })
            .collect();
        let obj = IntermediateSolutions {
            fingerprint: fnv1a(key.as_bytes()),
            pre_filter_counts: self.pre_filter_counts.clone(),
            sets: typed_sets,
        };
        let Some(writer) = cluster.live_ranks().into_iter().next() else { return };
        let cost = cache.put_ephemeral(writer, &key, obj.encode());
        cluster.charge_all(cost);
        self.recovery_ordinal = ord;
        self.profile_snapshot = Some(profiles.clone());
        self.recovery.checkpoints_stored += 1;
        self.recovery.checkpoint_times.push((ord, cluster.elapsed()));
        metrics.counter("ids_recovery_checkpoints_total").inc();
    }

    /// Load the recovery checkpoint at `ord` back into the run. Requires a
    /// replicated cache (rf ≥ 2): with a single replica the dead node may
    /// have owned the only copy, so recovery refuses deterministically
    /// with a typed error instead of sometimes succeeding by placement
    /// luck.
    fn restore_recovery_checkpoint(
        &mut self,
        ord: i64,
        cluster: &mut Cluster,
        profiles: &mut ProfileTable,
        metrics: &MetricsRegistry,
        cache: Option<&CacheManager>,
        ranks: usize,
    ) -> Result<(), ExecError> {
        let Some(cache) = cache else {
            return Err(ExecError::CheckpointLost {
                ordinal: ord,
                detail: "no cache attached to recover from".to_string(),
            });
        };
        if cache.config().replication < 2 {
            return Err(ExecError::CheckpointLost {
                ordinal: ord,
                detail: format!(
                    "replication factor {} leaves no durable replica after a permanent node loss",
                    cache.config().replication
                ),
            });
        }
        let Some(reader) = cluster.live_ranks().into_iter().next() else {
            return Err(ExecError::CheckpointLost {
                ordinal: ord,
                detail: "no live rank left to read the checkpoint".to_string(),
            });
        };
        let key = self.recovery_key(ord);
        let (bytes, out) = match cache.get(reader, &key) {
            Ok(Some(v)) => v,
            Ok(None) => {
                return Err(ExecError::CheckpointLost {
                    ordinal: ord,
                    detail: "checkpoint evicted or lost with its node".to_string(),
                });
            }
            Err(e) => {
                cluster.charge_all(e.spent_secs());
                return Err(ExecError::CheckpointLost {
                    ordinal: ord,
                    detail: format!("cache read failed: {e}"),
                });
            }
        };
        cluster.charge_all(out.virtual_secs);
        let obj = match IntermediateSolutions::decode(&bytes, fnv1a(key.as_bytes())) {
            Ok(obj) => obj,
            Err(e) => {
                return Err(ExecError::CheckpointLost {
                    ordinal: ord,
                    detail: format!("checkpoint failed to decode: {e:?}"),
                });
            }
        };
        if obj.sets.len() != ranks || obj.pre_filter_counts.len() != ranks {
            return Err(ExecError::CheckpointLost {
                ordinal: ord,
                detail: format!(
                    "checkpoint shape mismatch: {} sets for {ranks} ranks",
                    obj.sets.len()
                ),
            });
        }
        let sets = typed_stage(&obj.sets, |v| Some(v.to_string())).ok_or_else(|| {
            ExecError::CheckpointLost {
                ordinal: ord,
                detail: "checkpoint ranks disagree on their schema".into(),
            }
        })?;
        let rows = sets.len() as u64;
        self.recovery.rows_restored += rows;
        metrics.counter("ids_recovery_rows_restored_total").add(rows);
        self.sets = Some(sets);
        self.placed = None;
        self.pre_filter_counts = obj.pre_filter_counts;
        self.restore_profiles(profiles);
        self.phase = phase_after_ordinal(ord, &self.plan);
        Ok(())
    }

    /// Put the profiles back as they were at the rollback target.
    fn restore_profiles(&self, profiles: &mut ProfileTable) {
        if let Some(snap) = &self.profile_snapshot {
            profiles.clone_from(snap);
        }
    }

    /// Non-terminal step result: [`StepOutcome::Replanned`] when the stage
    /// just stepped triggered a mid-query re-plan,
    /// [`StepOutcome::BatchReady`] when it streamed batches over exchange
    /// channels, else [`StepOutcome::Pending`]. Drains the per-stage tally
    /// either way (a re-planning stage still moved its exchange data).
    fn stage_outcome(&mut self) -> StepOutcome {
        let tally = std::mem::take(&mut self.exchange_tally);
        if let Some((at_pattern, reordered)) = self.pending_replan.take() {
            return StepOutcome::Replanned { at_pattern, reordered };
        }
        if self.opts.pipelined && tally.batches > 0 {
            StepOutcome::BatchReady { channels: tally.channels, batches: tally.batches }
        } else {
            StepOutcome::Pending
        }
    }

    /// Record one estimate-vs-actual boundary: gauges for EXPLAIN's
    /// `estimated vs actual` block (set unconditionally — observability is
    /// mode-independent) plus the run's [`AdaptiveReport`].
    fn note_boundary(&mut self, label: String, est: u64, actual: u64, metrics: &MetricsRegistry) {
        let clamp = |v: u64| v.min(i64::MAX as u64) as i64;
        metrics.gauge_with("ids_adaptive_est_rows", "op", label.clone()).set(clamp(est));
        metrics.gauge_with("ids_adaptive_actual_rows", "op", label.clone()).set(clamp(actual));
        metrics.counter("ids_adaptive_checks_total").inc();
        self.adaptive.checks += 1;
        self.adaptive.boundaries.push((label, est, actual));
    }

    /// Mid-query re-optimization at pattern boundary `i`: re-order the
    /// remaining patterns with the greedy cost model seeded by the
    /// *observed* intermediate, and refresh the plan's suffix estimates so
    /// later divergence checks measure against the corrected predictions.
    /// Counts as a re-plan (and yields [`StepOutcome::Replanned`]) only
    /// when the order actually changed.
    fn replan_from(
        &mut self,
        i: usize,
        observed: u64,
        ratio: f64,
        metrics: &MetricsRegistry,
        now: f64,
    ) {
        let (order, rows_after) = crate::cost::replan_suffix(&self.plan.patterns, i + 1, observed);
        let reordered = order.iter().enumerate().filter(|&(k, &idx)| idx != i + 1 + k).count();
        // The only place a run writes its plan: un-share it first.
        let plan = Arc::make_mut(&mut self.plan);
        // Refresh suffix estimates either way: the observed seed is
        // strictly better information than the plan-time prediction.
        for (k, &r) in rows_after.iter().enumerate() {
            if let Some(slot) = plan.est_rows_after.get_mut(i + 1 + k) {
                *slot = r.max(0.0) as u64;
            }
        }
        if reordered == 0 {
            return;
        }
        // Permute the suffix in place (order is a permutation of
        // i+1..n by construction; a malformed one degrades to no-op).
        let mut slots: Vec<Option<PhysicalPattern>> =
            plan.patterns.drain(i + 1..).map(Some).collect();
        let mut suffix = Vec::with_capacity(slots.len());
        for &idx in &order {
            if let Some(p) = slots.get_mut(idx - i - 1).and_then(Option::take) {
                suffix.push(p);
            }
        }
        suffix.extend(slots.into_iter().flatten());
        plan.patterns.extend(suffix);
        self.adaptive.replans += 1;
        metrics.counter("ids_adaptive_replans_total").inc();
        metrics.spans().record(
            "replan",
            format!(
                "pattern{i}: observed {observed} rows diverged {ratio:.1}x; \
                 reordered {reordered} remaining patterns"
            ),
            now,
            now,
        );
        self.pending_replan = Some((i as u32, reordered as u32));
    }

    fn begin(
        &mut self,
        cluster: &mut Cluster,
        ds: &Datastore,
        profiles: &ProfileTable,
        metrics: &MetricsRegistry,
        cache: Option<&CacheManager>,
        ranks: usize,
    ) -> Result<(), ExecError> {
        // Precondition violations are reportable errors, not panics: under
        // the concurrent service driver a misconfigured client must not
        // take the process down.
        if profiles.ranks() != ranks {
            return Err(ExecError::msg(format!(
                "one profile row per rank required: {} rows for {ranks} ranks",
                profiles.ranks()
            )));
        }
        if ds.num_shards() != ranks {
            return Err(ExecError::msg(format!(
                "datastore sharding must match the cluster: {} shards for {ranks} ranks",
                ds.num_shards()
            )));
        }
        self.started = true;
        self.t0 = cluster.elapsed();
        metrics.counter("ids_engine_queries_total").inc();

        // Semantic reuse probe: longest already-cached prefix wins.
        let Some(reuse) = self.reuse.clone() else { return Ok(()) };
        let Some(cache) = cache else { return Ok(()) };
        let mut candidates: Vec<(i64, &ReuseCheckpoint)> = Vec::new();
        for (i, cp) in reuse.after_stage.iter().enumerate().rev() {
            if let Some(cp) = cp {
                candidates.push((stage_ordinal(i), cp));
            }
        }
        if let Some(cp) = &reuse.after_where {
            candidates.push((1, cp));
        }
        if let Some(cp) = &reuse.after_bgp {
            candidates.push((0, cp));
        }
        for (ord, cp) in candidates {
            let miss =
                || metrics.counter_with("ids_reuse_misses_total", "checkpoint", cp.label.clone());
            match cache.get(RankId(0), &cp.key) {
                Err(e) => {
                    // A failing probe charges what it spent and falls back
                    // to executing the fragment — reuse is best-effort.
                    cluster.charge_all(e.spent_secs());
                    miss().inc();
                }
                Ok(None) => miss().inc(),
                Ok(Some((bytes, out))) => {
                    cluster.charge_all(out.virtual_secs);
                    match load_checkpoint(&bytes, cp, ranks) {
                        None => miss().inc(),
                        Some((sets, pre_counts)) => {
                            let rows = sets.len() as u64;
                            metrics
                                .counter_with(
                                    "ids_reuse_hits_total",
                                    "checkpoint",
                                    cp.label.clone(),
                                )
                                .inc();
                            metrics.counter("ids_reuse_rows_restored_total").add(rows);
                            metrics.spans().record(
                                "reuse",
                                format!("resumed at {} ({rows} rows)", cp.label),
                                cluster.elapsed(),
                                cluster.elapsed(),
                            );
                            self.sets = Some(sets);
                            self.placed = None;
                            self.pre_filter_counts = pre_counts;
                            self.resume_ordinal = ord;
                            self.phase = phase_after_ordinal(ord, &self.plan);
                            return Ok(());
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Store the checkpoint with ordinal `ord` (if scheduled, not already
    /// cached, and the state is clean). Cache traffic is charged to the
    /// whole job's clock.
    fn maybe_store(
        &self,
        ord: i64,
        cluster: &mut Cluster,
        metrics: &MetricsRegistry,
        cache: Option<&CacheManager>,
    ) {
        let Some(reuse) = &self.reuse else { return };
        let Some(cache) = cache else { return };
        if ord <= self.resume_ordinal {
            return; // this prefix came *from* the cache
        }
        let cp = match ord {
            0 => reuse.after_bgp.as_ref(),
            1 => reuse.after_where.as_ref(),
            n => reuse.after_stage.get((n - 2) as usize).and_then(Option::as_ref),
        };
        let Some(cp) = cp else { return };
        // Degraded intermediates are partial — never share them.
        if !self.annotations.is_empty() {
            return;
        }
        let Some(stage) = &self.sets else { return };
        let mut vars = Vec::with_capacity(stage.vars().len());
        for v in stage.vars() {
            match cp.rename.iter().find(|(orig, _)| orig == v) {
                Some((_, c)) => vars.push(c.clone()),
                None => return, // schema var outside the fragment scope
            }
        }
        let typed_sets: Vec<TypedSolutionSet> = (0..stage.ranks())
            .map(|r| TypedSolutionSet { vars: vars.clone(), rows: typed_rows(stage.segment(r)) })
            .collect();
        let obj = IntermediateSolutions {
            fingerprint: cp.fingerprint,
            pre_filter_counts: self.pre_filter_counts.clone(),
            sets: typed_sets,
        };
        // `encoded_len` is exact (== `encode().len()`), so the admission
        // cap charges the measured serialized size, not an estimate.
        if obj.encoded_len() > reuse.max_object_bytes {
            metrics
                .counter_with("ids_reuse_skipped_total", "reason", "too-large".to_string())
                .inc();
            return;
        }
        // Checkpoints are recomputable intermediates: replicate them in
        // the cache tiers only. A durable write-through would pay a
        // backing-store RPC that can exceed the fragment's own cost.
        let cost = cache.put_ephemeral(RankId(0), &cp.key, obj.encode());
        cluster.charge_all(cost);
        metrics.counter_with("ids_reuse_stores_total", "checkpoint", cp.label.clone()).inc();
    }

    fn step_pattern(
        &mut self,
        i: usize,
        cluster: &mut Cluster,
        ds: &Datastore,
        metrics: &MetricsRegistry,
        cache: Option<&CacheManager>,
        ranks: usize,
    ) -> Result<(), ExecError> {
        if let Some(pat) = self.plan.patterns.get(i) {
            let schema = gops::scan_schema(
                &pat.pattern,
                pat.var_s.as_deref(),
                pat.var_p.as_deref(),
                pat.var_o.as_deref(),
            );
            if pat.impossible {
                // Nothing matches: no rows on any rank, under the schema
                // joining the pattern would have produced.
                let vars = match &self.sets {
                    Some(acc) => gops::join_schema(acc.schema(), schema.vars()).vars().clone(),
                    None => schema.vars().clone(),
                };
                self.sets = Some(StageBatch::empty(vars, ranks));
                self.placed = None;
            } else {
                // Scan phase: each rank binds its index range into its
                // worker's part of the stage (`gops::scan_into`), under one
                // read lock for the whole phase; the parts make one stage
                // in rank order.
                let opts = self.opts;
                let scan_start = cluster.elapsed();
                // The scan is the producing window of the join exchange
                // below: in pipelined mode batches stream out as each
                // rank's scan progresses, so snapshot the per-rank clocks
                // before the phase starts.
                let produce_start = cluster.clocks().to_vec();
                let buffers = &self.buffers;
                let scanned = {
                    let graph = ds.graph();
                    let graph = &*graph;
                    // The first worker runs the first ranks, and alone
                    // until the phase outlasts the pool's wake patience,
                    // so it may bind every match: room for all of them
                    // keeps its part (whose buffers the stage keeps) from
                    // regrowing.
                    // Helpers start empty and grow to their share through
                    // the run's buffers, in chunks of at most
                    // `stage::CHUNK_ROWS` rows.
                    let rows = |w| if w == 0 { pat.est_cardinality } else { 0 };
                    let init =
                        |w| (w, StagePart::with_capacity(schema.vars().len(), rows(w), buffers));
                    let (spans, parts, _) =
                        cluster.execute_with_state(false, Fanout::Host, init, |(w, part), ctx| {
                            let triples = graph.candidates(ctx.rank().index(), &pat.pattern);
                            ctx.charge(1.0e-5 + triples.len() as f64 * opts.scan_secs_per_triple);
                            part.reserve(triples.len(), buffers);
                            let (first, n) = gops::scan_into(&schema, triples, part);
                            (*w, first, n)
                        });
                    let parts = parts.into_iter().map(|(_, part)| part).collect();
                    StageBatch::assemble(schema.vars().clone(), parts, &spans, buffers)
                        .ok_or_else(stage_overflow)?
                };
                if !opts.pipelined {
                    // BSP: the world syncs before the exchange. Pipelined
                    // mode instead lets the exchange impose only real
                    // per-channel dependencies.
                    cluster.barrier();
                }
                let scan_end = cluster.elapsed();
                self.breakdown.scan_secs += scan_end - scan_start;
                let scanned_rows = scanned.len();
                record_stage(metrics, "scan", scan_start, scan_end, format!("{scanned_rows} rows"));
                anti_entropy_tick(cache, metrics, scan_end);

                // The store placed each triple by its subject, so the scan's
                // rows are placed on the subject variable.
                let scan_placed = pat.var_s.clone();
                let (stage, placed) = match self.sets.take() {
                    None => (scanned, scan_placed),
                    Some(existing) => {
                        let join_start = cluster.elapsed();
                        let joined = distributed_join(
                            cluster,
                            (existing, self.placed.take()),
                            (scanned, scan_placed),
                            &self.opts,
                            metrics,
                            &produce_start,
                            &mut self.exchange_tally,
                            &self.buffers,
                        )?;
                        let join_end = cluster.elapsed();
                        self.breakdown.join_secs += join_end - join_start;
                        let joined_rows = joined.0.len();
                        record_stage(
                            metrics,
                            "join",
                            join_start,
                            join_end,
                            format!("{joined_rows} rows"),
                        );
                        anti_entropy_tick(cache, metrics, join_end);
                        joined
                    }
                };
                self.sets = Some(stage);
                self.placed = placed;
            }
        }
        // Estimate-vs-actual at the pattern boundary (static mode records
        // it too — EXPLAIN reads the gauges); adaptive mode additionally
        // re-plans the remaining patterns when the divergence is past the
        // configured ratio and re-ordering can still matter (≥ 2 patterns
        // left).
        let observed = self.sets.as_ref().map_or(0, |s| s.len() as u64);
        let est = self.plan.est_rows_after.get(i).copied().unwrap_or(0);
        self.note_boundary(format!("pattern{i}"), est, observed, metrics);
        if self.opts.adaptive && i + 2 < self.plan.patterns.len() {
            let ratio = divergence_ratio(est, observed);
            if observed.max(est) >= self.opts.replan_min_rows && ratio > self.opts.replan_ratio {
                self.replan_from(i, observed, ratio, metrics, cluster.elapsed());
            }
        }
        if i + 1 < self.plan.patterns.len() {
            self.phase = RunPhase::Pattern(i + 1);
        } else {
            // End of BGP: normalize the no-pattern case, capture the
            // pre-filter counts, checkpoint, and move on.
            if self.sets.is_none() {
                // No patterns: a single empty-schema row on rank 0 lets
                // constant filters and APPLY stages still run once.
                let offsets = offsets_from_counts((0..ranks).map(|r| usize::from(r == 0)))
                    .ok_or_else(stage_overflow)?;
                self.sets = Some(StageBatch::from_columns(Arc::new([]), Vec::new(), offsets));
                self.placed = None;
            }
            self.pre_filter_counts = self.sets.as_ref().map_or_else(Vec::new, |s| {
                (0..s.ranks()).map(|r| s.segment_len(r) as u64).collect()
            });
            self.maybe_store(0, cluster, metrics, cache);
            self.phase = RunPhase::WhereFilter;
        }
        Ok(())
    }

    /// Run the WHERE filter (`stage` `None`) or FILTER/APPLY stage
    /// `stage`, book it — its virtual seconds, less re-balancing, to the
    /// breakdown, its span, an anti-entropy tick where it ends — and
    /// checkpoint what it kept.
    #[allow(clippy::too_many_arguments)] // mirrors step()'s executor context
    fn step_udf(
        &mut self,
        stage: Option<usize>,
        cluster: &mut Cluster,
        ds: &Datastore,
        registry: &UdfRegistry,
        profiles: &mut ProfileTable,
        memo: &ArgMemo,
        metrics: &MetricsRegistry,
        cache: Option<&CacheManager>,
    ) -> Result<(), ExecError> {
        let plan = Arc::clone(&self.plan);
        let ordinal = stage.map_or(1, stage_ordinal);
        let udf_stage = match stage.map(|i| &plan.stages[i]) {
            None => plan.where_filter.as_ref().map(|f| UdfStage::Filter(f, "filter")),
            Some(PhysicalStage::Filter(expr)) => Some(UdfStage::Filter(expr, "stage-filter")),
            Some(PhysicalStage::Apply { udf, args, bind_as }) => {
                Some(UdfStage::Apply { udf, args, bind_as })
            }
        };
        if let Some(udf_stage) = udf_stage {
            // FILTER and APPLY neither take from the free list nor give to
            // it: free what it holds rather than keep it through their UDF
            // work.
            self.buffers.clear();
            let solutions = self.sets.take().ok_or_else(|| missing_stage("stage"))?;
            self.placed = None;
            let t = cluster.elapsed();
            let mut cx = UdfStageCx {
                cluster: &mut *cluster,
                dict: ds.dictionary(),
                registry,
                profiles,
                memo,
                opts: &self.opts,
                cache,
                metrics,
                annotations: &mut self.annotations,
                recovery: &mut self.recovery,
            };
            let (out, rebalance) = match udf_stage {
                UdfStage::Filter(expr, label) => run_filter_stage(&mut cx, solutions, expr, label),
                UdfStage::Apply { udf, args, bind_as } => {
                    run_apply_stage(&mut cx, solutions, udf, args, bind_as)
                }
            }?;
            let end = cluster.elapsed();
            self.breakdown.rebalance_secs += rebalance;
            let spent = end - t - rebalance;
            let kept = out.len();
            match udf_stage {
                UdfStage::Filter(..) => {
                    self.breakdown.filter_secs += spent;
                    record_stage(metrics, "filter", t, end, format!("{kept} rows kept"));
                }
                UdfStage::Apply { udf, .. } => {
                    *self.breakdown.apply_secs.entry(udf.to_string()).or_insert(0.0) += spent;
                    record_stage(metrics, "apply", t, end, udf.to_string());
                }
            }
            anti_entropy_tick(cache, metrics, end);
            self.sets = Some(out);
            if stage.is_none() {
                self.note_boundary("where".to_string(), plan.est_where_rows, kept as u64, metrics);
            }
            self.maybe_store(ordinal, cluster, metrics, cache);
        }
        self.phase = phase_after_ordinal(ordinal, &plan);
        Ok(())
    }

    fn step_gather(
        &mut self,
        cluster: &mut Cluster,
        ds: &Datastore,
        metrics: &MetricsRegistry,
        cache: Option<&CacheManager>,
        ranks: usize,
    ) -> Result<QueryOutcome, ExecError> {
        let solutions = self.sets.take().ok_or_else(|| missing_stage("gather"))?;
        let gather_start = cluster.elapsed();
        // Exact columnar wire bytes of every rank's rows — the same formula
        // the cache accounting uses — so the gather collective is charged
        // for what would really cross the network.
        let total_bytes = solutions.byte_size();
        cluster.allgather_cost(total_bytes / ranks.max(1) as u64);
        self.breakdown.gather_secs = cluster.elapsed() - gather_start;
        record_stage(
            metrics,
            "gather",
            gather_start,
            cluster.elapsed(),
            format!("{total_bytes} bytes"),
        );
        anti_entropy_tick(cache, metrics, cluster.elapsed());

        // The stage is already every rank's rows in rank order: the merged
        // batch the result is shaped from.
        let plan = &self.plan;
        let gathered = shape_result(
            solutions.view(),
            plan.order_by.as_ref(),
            &plan.select,
            plan.distinct,
            plan.limit,
            ds,
            &self.buffers,
        )?;

        let elapsed_secs = cluster.elapsed() - self.t0;
        metrics.histogram("ids_engine_query_secs").observe(elapsed_secs);
        metrics.spans().record(
            "query",
            format!("{} solutions", gathered.len()),
            self.t0,
            cluster.elapsed(),
        );
        let annotations = std::mem::take(&mut self.annotations);
        if !annotations.is_empty() {
            metrics.counter("ids_engine_degraded_queries_total").inc();
            let dropped: u64 = annotations.iter().map(|a| a.rows_dropped).sum();
            metrics.spans().record(
                "degraded",
                format!("{} annotations, {dropped} rows dropped", annotations.len()),
                self.t0,
                cluster.elapsed(),
            );
        }
        self.phase = RunPhase::Done;

        Ok(QueryOutcome {
            solutions: gathered,
            elapsed_secs,
            breakdown: std::mem::take(&mut self.breakdown),
            pre_filter_counts: std::mem::take(&mut self.pre_filter_counts),
            annotations,
            // Cloned, not taken: if a death surfaced during the gather the
            // recovery wrapper discards this outcome and keeps accounting
            // on the run.
            recovery: self.recovery.clone(),
            adaptive: self.adaptive.clone(),
        })
    }
}

/// Decode a cached checkpoint into per-rank solution sets named in *this*
/// query's variables. Any mismatch (fingerprint, rank count, schema) is a
/// miss, not an error.
fn load_checkpoint(
    bytes: &[u8],
    cp: &ReuseCheckpoint,
    ranks: usize,
) -> Option<(StageBatch, Vec<u64>)> {
    let obj = IntermediateSolutions::decode(bytes, cp.fingerprint).ok()?;
    if obj.sets.len() != ranks || obj.pre_filter_counts.len() != ranks {
        return None;
    }
    let canon_to_orig: HashMap<&str, &str> =
        cp.rename.iter().map(|(o, c)| (c.as_str(), o.as_str())).collect();
    let sets = typed_stage(&obj.sets, |v| canon_to_orig.get(v).map(|o| o.to_string()))?;
    Some((sets, obj.pre_filter_counts))
}

/// The stage of decoded typed sets (one per rank), each column named
/// through `rename`. `None` if a name has no rename, the ranks disagree on
/// their schema, or a row does not hold one id per variable. The ranks'
/// rows fill one part, and every segment gets the widths its own rows give
/// it.
fn typed_stage(
    sets: &[TypedSolutionSet],
    rename: impl Fn(&str) -> Option<String>,
) -> Option<StageBatch> {
    let first = sets.first()?;
    let schema: Arc<[String]> =
        first.vars.iter().map(|v| rename(v)).collect::<Option<Vec<String>>>()?.into();
    let rows = sets.iter().map(|ts| ts.rows.len()).sum();
    let buffers = IdBuffers::default();
    let mut part = StagePart::with_capacity(schema.len(), rows, &buffers);
    let mut spans = Vec::with_capacity(sets.len());
    for ts in sets {
        if ts.vars != first.vars {
            return None;
        }
        let (at, n) = part.push_rank(&ts.rows)?;
        spans.push((0, at, n));
    }
    StageBatch::assemble(schema, vec![part], &spans, &buffers)
}

/// One rank's rows as the raw ids of a typed checkpoint, read straight
/// from its columns.
fn typed_rows(s: BatchView<'_>) -> Vec<Vec<u64>> {
    (0..s.len()).map(|i| (0..s.vars().len()).map(|c| s.column(c).get(i)).collect()).collect()
}

/// Execute a plan on the cluster. `profiles` is every rank's UDF profiles
/// (row r is rank r's), updated in place (they persist across queries,
/// §2.4.1), and `memo` the instance's prepared UDF arguments, filled in
/// place (they persist too).
/// `metrics` receives operator timings, spans, and reordering decisions.
/// `cache` (when the instance has one attached) gets anti-entropy ticks
/// at stage boundaries, so replication repair rides the query's own
/// virtual clock instead of needing a separate daemon.
///
/// This is the single-query convenience wrapper over [`PlanRun`]: it steps
/// the run to completion without interleaving and without reuse
/// checkpoints.
#[allow(clippy::too_many_arguments)]
pub fn execute_plan(
    cluster: &mut Cluster,
    ds: &Datastore,
    registry: &UdfRegistry,
    profiles: &mut ProfileTable,
    memo: &ArgMemo,
    plan: &PhysicalPlan,
    opts: &ExecOptions,
    metrics: &MetricsRegistry,
    cache: Option<&CacheManager>,
) -> Result<QueryOutcome, ExecError> {
    let mut run = PlanRun::new(Arc::new(plan.clone()), *opts, None);
    loop {
        if let StepOutcome::Done(outcome) =
            run.step(cluster, ds, registry, profiles, memo, metrics, cache)?
        {
            return Ok(*outcome);
        }
    }
}

/// Shape the merged solutions into the client's result: canonical row
/// order, then ORDER BY, SELECT, DISTINCT and LIMIT.
///
/// Canonicalize before any result-shaping (DESIGN.md §5l): the BGP join
/// order is an optimizer choice — and under adaptive re-planning can
/// change mid-query — while the solution *multiset* is order-independent.
/// Fixing the column order lexicographically and sorting rows by term id
/// makes everything downstream (the stable ORDER BY re-sort, SELECT
/// projection, DISTINCT's first-occurrence rule, LIMIT's prefix) a pure
/// function of that multiset, so static and adaptive plans return
/// byte-identical results.
///
/// Every step reorders or thins a row permutation over `merged`'s id
/// columns; the result is built once, at the end, in its final shape: one
/// row-major buffer filled a column at a time.
/// ORDER BY runs before projection so the sort variable need not be
/// projected; DISTINCT and LIMIT run after, on the final shape.
///
/// `merged` must be fully bound: a stage's rows always are. The canonical
/// permutation comes from `buffers`. Then, before the result is filled,
/// `buffers` is cleared: the result is the run's last and largest
/// allocation, and with the list's buffers back in the allocator it
/// reuses their pages instead of growing the heap (which the allocator
/// would trim again once the result is freed). Public so the micro
/// benches can time the gather's data plane alone.
pub fn shape_result(
    merged: BatchView<'_>,
    order_by: Option<&(String, bool)>,
    select: &[String],
    distinct: bool,
    limit: Option<usize>,
    ds: &Datastore,
    buffers: &IdBuffers,
) -> Result<SolutionSet, ExecError> {
    let mut canon: Vec<usize> = (0..merged.vars().len()).collect();
    canon.sort_unstable_by_key(|&c| &merged.vars()[c]);
    let mut perm = canonical_permutation(&merged, &canon, buffers)?;

    if let Some((var, descending)) = order_by {
        let idx = merged
            .var_index(var)
            .ok_or_else(|| ExecError::msg(format!("ORDER BY variable ?{var} is never bound")))?;
        // One decode and one key per row, not two `String`s per comparison.
        let dict = ds.dictionary();
        let col = merged.column(idx);
        let keys: Vec<OrderKey> = (0..merged.len())
            .map(|row| order_key(dict.decode(TermId(col.get(row))).as_ref()))
            .collect();
        perm.sort_by(|&a, &b| {
            let ord = compare_keys(&keys[a as usize], &keys[b as usize]);
            if *descending {
                ord.reverse()
            } else {
                ord
            }
        });
    }

    let (vars, cols): (Vec<String>, Vec<usize>) = if select.is_empty() {
        (canon.iter().map(|&c| merged.vars()[c].clone()).collect(), canon)
    } else {
        let cols = select
            .iter()
            .map(|v| {
                merged.var_index(v).ok_or_else(|| {
                    ExecError::msg(format!("projected variable ?{v} is never bound"))
                })
            })
            .collect::<Result<_, _>>()?;
        (select.to_vec(), cols)
    };

    let limit = limit.unwrap_or(usize::MAX);
    if distinct {
        // First occurrence wins.
        let picked: Vec<ColumnSlice<'_>> = cols.iter().map(|&c| merged.column(c)).collect();
        let mut seen: HashSet<Vec<TermId>> = HashSet::new();
        let mut row: Vec<TermId> = Vec::with_capacity(picked.len());
        perm.retain(|&i| {
            if seen.len() >= limit {
                return false;
            }
            row.clear();
            row.extend(picked.iter().map(|c| TermId(c.get(i as usize))));
            !seen.contains(&row) && seen.insert(row.clone())
        });
    }
    perm.truncate(limit);
    buffers.clear();
    Ok(merged.select_rows(vars, &cols, &perm))
}

/// The permutation that sorts `batch`'s rows lexicographically by the id
/// columns `cols`, ties in row order, in a buffer from `buffers`: a
/// counting sort by the lead column ([`sort_permutation`]), then each run
/// of rows that tie on it sorted by the other columns.
fn canonical_permutation(
    batch: &BatchView<'_>,
    cols: &[usize],
    buffers: &IdBuffers,
) -> Result<Vec<u32>, ExecError> {
    let overflow = || ExecError::msg("result exceeds the u32 row index space");
    let rows = u32::try_from(batch.len()).map_err(|_| overflow())?;
    let Some((&first, rest)) = cols.split_first() else {
        let mut perm = buffers.take_u32(batch.len());
        perm.extend(0..rows);
        return Ok(perm);
    };
    let lead = batch.column(first);
    let mut perm = sort_permutation(lead, buffers).ok_or_else(overflow)?;
    if !rest.is_empty() {
        let rest: Vec<ColumnSlice<'_>> = rest.iter().map(|&c| batch.column(c)).collect();
        let same_lead = |&a: &u32, &b: &u32| lead.get(a as usize) == lead.get(b as usize);
        for run in perm.chunk_by_mut(same_lead).filter(|run| run.len() > 1) {
            run.sort_unstable_by(|&a, &b| {
                rest.iter()
                    .map(|c| c.get(a as usize).cmp(&c.get(b as usize)))
                    .find(|ord| ord.is_ne())
                    .unwrap_or(a.cmp(&b))
            });
        }
    }
    Ok(perm)
}

/// ORDER BY's sort key for one decoded term: numerics first, by value;
/// then strings and IRIs, lexically by display form; unbound
/// (undecodable) terms last.
type OrderKey = (u8, f64, String);

fn order_key(t: Option<&ids_graph::Term>) -> OrderKey {
    match t {
        Some(t) => match t.as_f64() {
            Some(v) => (0, v, String::new()),
            None => (1, 0.0, t.to_string()),
        },
        None => (2, 0.0, String::new()),
    }
}

/// The total order over [`OrderKey`]s. `total_cmp` keeps the sort a strict
/// weak order even if a term decodes to NaN (it sorts after every other
/// numeric, before strings).
fn compare_keys(a: &OrderKey, b: &OrderKey) -> std::cmp::Ordering {
    a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then_with(|| a.2.cmp(&b.2))
}

/// How much of [`ExecOptions::join_secs_per_row`] batching amortizes away:
/// a batched join charges `join_secs_per_row / JOIN_AMORTIZATION` per row.
const JOIN_AMORTIZATION: f64 = 4.0;

/// How much of [`EVAL_SECS_PER_ROW`] batching amortizes away: a
/// FILTER/APPLY row costs `EVAL_SECS_PER_ROW / EVAL_AMORTIZATION` outside
/// its UDFs. UDF virtual costs are never amortized — the model's work is
/// the same however rows are dispatched.
const EVAL_AMORTIZATION: f64 = 8.0;

/// The virtual seconds one rank's join over `rows` rows charges:
/// `⌈rows / BATCH_ROWS⌉` dispatches (at least one) plus the amortized
/// per-row cost.
fn join_cost(rows: usize, opts: &ExecOptions) -> f64 {
    let batches = join_batches(rows);
    batches as f64 * BATCH_DISPATCH_SECS + rows as f64 * opts.join_secs_per_row / JOIN_AMORTIZATION
}

/// The batches a rank's join over `rows` rows dispatches.
fn join_batches(rows: usize) -> usize {
    rows.div_ceil(BATCH_ROWS).max(1)
}

/// Batch observability series for one operator, pre-resolved so a
/// phase's meters cost no registry lookup. Recorded on the calling thread
/// after the phase, in rank order: workers write none of these series,
/// and the series are a function of the query alone.
struct BatchMeter {
    batches: ids_obs::Counter,
    rows: ids_obs::Histogram,
}

impl BatchMeter {
    fn new(metrics: &MetricsRegistry, op: &str) -> Self {
        Self {
            batches: metrics.counter_with("ids_engine_batches_total", "op", op.to_string()),
            rows: metrics.histogram("ids_engine_batch_rows"),
        }
    }

    /// Record each rank's `(rows, batches)` in order: `batches` dispatches
    /// of `BATCH_ROWS` rows each over `rows` rows, the last one (or the one
    /// of an empty rank) holding what is left.
    fn record(&self, ranks: impl Iterator<Item = (usize, usize)>) {
        let mut total = 0;
        self.rows.observe_all(ranks.flat_map(|(rows, batches)| {
            total += batches as u64;
            (0..batches).map(move |b| rows.saturating_sub(b * BATCH_ROWS).min(BATCH_ROWS) as f64)
        }));
        self.batches.add(total);
    }
}

/// Exchange observability series for the streamed (pipelined) exchange,
/// feeding EXPLAIN's `exchange:` block.
struct ExchangeMeter {
    batches: ids_obs::Counter,
    bytes: ids_obs::Counter,
    channels: ids_obs::Counter,
    stall: ids_obs::Histogram,
    buffered: ids_obs::Histogram,
}

impl ExchangeMeter {
    fn new(metrics: &MetricsRegistry, op: &str) -> Self {
        Self {
            batches: metrics.counter_with("ids_exchange_batches_total", "op", op.to_string()),
            bytes: metrics.counter_with("ids_exchange_bytes_total", "op", op.to_string()),
            channels: metrics.counter_with("ids_exchange_channels_total", "op", op.to_string()),
            stall: metrics.histogram("ids_exchange_stall_secs"),
            buffered: metrics.histogram("ids_exchange_buffered_batches"),
        }
    }

    fn record(&self, xc: &ExchangeCost, wire_bytes: u64) {
        self.batches.add(xc.batches);
        self.bytes.add(wire_bytes);
        self.channels.add(xc.active_channels);
        for &s in &xc.sender_stall {
            if s > 0.0 {
                self.stall.observe(s);
            }
        }
        self.buffered.observe(xc.max_buffered as f64);
    }
}

/// Hash-partition the sides that are not already placed on the join key,
/// exchange, and join rank-locally; returns the joined stage and the
/// variable it is placed on.
///
/// A side arrives with the variable it is placed on (`Some(v)`: every row
/// sits on the rank [`ids_graph::placement`] gives its `v`). The exchange
/// key is one shared variable — rows with equal composite keys agree on
/// every component, so one column places them together: one both sides
/// are placed on, else one either side is placed on, else the first
/// shared variable. Only sides not placed on it move.
///
/// BSP mode charges the exchange as one `alltoallv` of the moved sides'
/// bytes, bound by the heaviest sender, and closes the stage with a
/// barrier. Pipelined mode streams the moved sides' per-(src,dst)
/// sub-batches through the α·β model as the producing window
/// (`produce_start` → current clocks) advances: each rank starts joining
/// when its first inbound batch lands, finishes no earlier than its last,
/// and nobody waits for unrelated ranks. The data plane — repartitioned
/// rows, join, output order — is identical in both modes.
///
/// Each pool worker joins its ranks into a [`StagePart`] of its own
/// ([`gops::JoinWorker`], one reused scratch per worker), and the parts
/// make the joined stage in rank order. The exchange's and the join's
/// inputs go back to `buffers` once read, and its outputs come from it.
#[allow(clippy::too_many_arguments)]
fn distributed_join(
    cluster: &mut Cluster,
    (left, left_placed): (StageBatch, Option<String>),
    (right, right_placed): (StageBatch, Option<String>),
    opts: &ExecOptions,
    metrics: &MetricsRegistry,
    produce_start: &[f64],
    tally: &mut ExchangeTally,
    buffers: &IdBuffers,
) -> Result<(StageBatch, Option<String>), ExecError> {
    let ranks = left.ranks();
    // One output layout for every rank: the exchange keeps each side's
    // schema, so each rank's inputs are the ones it was built for.
    let schema = gops::join_schema(left.schema(), right.schema());
    // A side has at most one placed variable, so "left's, then right's"
    // also finds one both sides are placed on.
    let shared = |v: &&String| left.vars().contains(v) && right.vars().contains(v);
    let key = [&left_placed, &right_placed]
        .into_iter()
        .flatten()
        .find(shared)
        .or_else(|| left.vars().iter().find(shared))
        .cloned();
    let side = |moved: bool| {
        let label = if moved { "moved" } else { "placed" };
        metrics.counter_with("ids_exchange_sides_total", "side", label.to_string()).inc();
    };

    // `matrix[s * ranks + d]` = wire bytes from rank s to rank d (pipelined
    // cost model); `exchanged_bytes` is the BSP aggregate charge. A cross
    // product broadcasts its smaller side (which counts as moved): every
    // rank joins with all of it, and the output stays where the other
    // side's rows were.
    let mut matrix: Vec<u64> = Vec::new();
    let (left, right, whole, exchanged_bytes, placed) = match key {
        None => {
            let small_is_left = left.len() <= right.len();
            side(true);
            side(false);
            let small = if small_is_left { &left } else { &right };
            if opts.pipelined {
                // Each rank ships its shard of the small side to every peer.
                matrix = vec![0u64; ranks * ranks];
                for s in 0..ranks {
                    let b = small.segment_byte_size(s);
                    for d in (0..ranks).filter(|&d| d != s) {
                        matrix[s * ranks + d] = b;
                    }
                }
            }
            let bytes = small.merged_byte_size() * ranks as u64;
            let placed = if small_is_left { right_placed } else { left_placed };
            (left, right, (small_is_left, !small_is_left), bytes, placed)
        }
        Some(key) => {
            if opts.pipelined {
                matrix = vec![0u64; ranks * ranks];
            }
            let mut bytes = 0;
            let mut place = |stage: StageBatch, placed: Option<String>| {
                let moved = placed.as_ref() != Some(&key);
                side(moved);
                if !moved {
                    return Ok(stage);
                }
                let out = if opts.pipelined {
                    let (out, b) = repartition_streamed(&stage, &key, BATCH_ROWS, buffers)?;
                    matrix.iter_mut().zip(b).for_each(|(m, b)| *m += b);
                    out
                } else {
                    repartition_by_vars(&stage, &key, buffers)?
                };
                buffers.give_stage(stage);
                bytes += out.byte_size();
                Ok::<_, ExecError>(out)
            };
            let l = place(left, left_placed)?;
            let r = place(right, right_placed)?;
            (l, r, (false, false), bytes, Some(key))
        }
    };

    // Charge the exchange. The byte matrix is indexed by *shard*; streamed
    // channels connect *physical* ranks, so fold it through the ownership
    // map first: a re-planned shard's traffic originates from (and lands
    // on) its surviving owner, and a dead rank is never a channel endpoint
    // — its in-flight batches are discarded with the stage and replayed
    // from the producer-side checkpoint. With identity ownership the fold
    // is a no-op (diagonal entries were already skipped by the cost model).
    let exchange = if opts.pipelined {
        let matrix = fold_matrix_by_owner(cluster, &matrix, ranks);
        let xc = cluster.streamed_exchange_cost(
            &matrix,
            produce_start,
            EXCHANGE_BATCH_BYTES,
            EXCHANGE_CHANNEL_CAPACITY,
        );
        let wire: u64 = matrix
            .iter()
            .enumerate()
            .filter(|(i, _)| i / ranks != i % ranks)
            .map(|(_, &b)| b)
            .sum();
        ExchangeMeter::new(metrics, "join").record(&xc, wire);
        tally.channels += xc.active_channels;
        tally.batches += xc.batches;
        // Each rank may start joining once its first inbound batch lands.
        cluster.raise_clocks(&xc.first_ready);
        Some(xc)
    } else {
        let per_rank = exchanged_bytes / ranks.max(1) as u64;
        cluster.alltoallv_cost(&vec![per_rank; ranks]);
        None
    };

    // Rank-local joins: each worker joins its ranks into a part of the
    // stage of its own, with one scratch for all of them; per-batch
    // dispatch with an amortized per-row probe on each rank's clock. As
    // in the scan, the first worker may join every rank, so its part has
    // room for a key join's usual output: one row per row of its larger
    // input; helpers grow to their share through the run's buffers, in
    // chunks of at most `stage::CHUNK_ROWS` rows.
    let meter = BatchMeter::new(metrics, "join");
    let rows = |w| if w == 0 { left.len().max(right.len()) } else { 0 };
    let init = |w| (w, gops::JoinWorker::with_capacity(&schema, rows(w), buffers));
    let (spans, workers, _) =
        cluster.execute_with_state(false, Fanout::Host, init, |(w, jw), ctx| {
            let r = ctx.rank().index();
            let (lv, rv) = (join_input(&left, whole.0, r), join_input(&right, whole.1, r));
            let (first, n) = jw.join(&schema, lv, rv, buffers);
            ctx.charge(join_cost(lv.len() + rv.len() + n, opts));
            (*w, first, n)
        });
    meter.record(spans.iter().enumerate().map(|(r, &(_, _, n))| {
        let rows = join_input(&left, whole.0, r).len() + join_input(&right, whole.1, r).len() + n;
        (rows, join_batches(rows))
    }));
    let parts = workers.into_iter().map(|(_, jw)| jw.into_part()).collect();
    let joined = StageBatch::assemble(schema.vars().clone(), parts, &spans, buffers)
        .ok_or_else(stage_overflow)?;
    buffers.give_stage(left);
    buffers.give_stage(right);
    match exchange {
        Some(xc) => {
            // A rank's join cannot complete before its last inbound batch
            // arrived — but it never waits for anyone else's channels.
            cluster.raise_clocks(&xc.all_ready);
        }
        None => {
            cluster.barrier();
        }
    }
    Ok((joined, placed))
}

/// Rank `r`'s input on one side of a join: its segment, or the whole
/// side when `whole` (the broadcast side of a cross product).
fn join_input(side: &StageBatch, whole: bool, r: usize) -> BatchView<'_> {
    if whole {
        side.view()
    } else {
        side.segment(r)
    }
}

/// Fold a shard-indexed wire-byte matrix into a rank-indexed one through
/// the cluster's shard-ownership map, dropping same-owner traffic (it
/// never crosses the wire). Identity ownership reproduces the input minus
/// its diagonal, which the streamed cost model ignores anyway.
fn fold_matrix_by_owner(cluster: &Cluster, matrix: &[u64], ranks: usize) -> Vec<u64> {
    let mut out = vec![0u64; ranks * ranks];
    for s in 0..ranks {
        let so = cluster.owner_of(s).index();
        for d in 0..ranks {
            let b = matrix[s * ranks + d];
            if b == 0 {
                continue;
            }
            let dof = cluster.owner_of(d).index();
            if so != dof {
                out[so * ranks + dof] += b;
            }
        }
    }
    out
}

/// A stage whose rows, over all ranks, do not fit the `u32` row index
/// space of [`StageBatch`], reported as a query error.
fn stage_overflow() -> ExecError {
    ExecError::msg("stage exceeds the u32 row index space")
}

/// A step found no stage where one must be: an internal sequencing bug,
/// reported as a query error.
fn missing_stage(step: &str) -> ExecError {
    ExecError::msg(format!("{step} ran before any stage produced solutions"))
}

/// Rows per hashing job of an exchange.
const EXCHANGE_CHUNK_ROWS: usize = 1 << 14;

/// The exchange's placement rule: every row's destination rank,
/// [`ids_graph::placement`] of its `var` column — the store's rule for a
/// subject, so a scan is already where this would send it — in a buffer
/// from `buffers`, computed in chunks of rows on the shard pool. Part of
/// the engine's determinism contract: row placement fixes per-rank order,
/// which fixes every downstream charge.
fn destinations(stage: &StageBatch, var: &str, buffers: &IdBuffers) -> Result<Vec<u32>, ExecError> {
    // The key was chosen from this schema, so lookup only fails on an
    // internal planner bug — report it instead of panicking.
    let key = stage.var_index(var).ok_or_else(|| {
        ExecError::msg(format!("join key ?{var} missing from schema {:?}", stage.vars()))
    })?;
    let ranks = stage.ranks();
    if u32::try_from(ranks).is_err() {
        return Err(ExecError::msg("exchange exceeds the u32 rank index space"));
    }
    let all = stage.view();
    let mut dest = buffers.take_u32(all.len());
    dest.resize(all.len(), 0);
    // One job per chunk of rows, each writing its own slice of `dest`.
    let chunks: Vec<Mutex<&mut [u32]>> =
        dest.chunks_mut(EXCHANGE_CHUNK_ROWS).map(Mutex::new).collect();
    let rank_of = |id: u64| placement(TermId(id), ranks) as u32;
    map_shards_with(
        chunks.len(),
        Fanout::Host,
        |_| (),
        |_, k| {
            let mut out = lock_unpoisoned(&chunks[k]);
            let start = k * EXCHANGE_CHUNK_ROWS;
            match all.column(key).slice(start..start + out.len()) {
                ColumnSlice::U32(ids) => {
                    out.iter_mut().zip(ids).for_each(|(d, &id)| *d = rank_of(u64::from(id)));
                }
                ColumnSlice::U64(ids) => {
                    out.iter_mut().zip(ids).for_each(|(d, &id)| *d = rank_of(id));
                }
            }
        },
    );
    drop(chunks);
    Ok(dest)
}

/// `stage.gather(sel, offsets)`, one column per shard-pool job, each in a
/// buffer from `buffers`.
fn gather_on_pool(
    stage: &StageBatch,
    sel: &[u32],
    offsets: Vec<u32>,
    buffers: &IdBuffers,
) -> StageBatch {
    let (cols, _) = map_shards_with(
        stage.vars().len(),
        Fanout::Host,
        |_| (),
        |_, c| stage.gather_column(c, sel, buffers),
    );
    StageBatch::from_columns(stage.schema().clone(), cols, offsets)
}

/// Redistribute rows so equal values of the join key `var` land on equal
/// ranks (the stage comes out placed on `var`): one stable counting sort
/// of the stage by destination, so destination `d`'s segment holds its
/// rows ordered by (source rank, row).
///
/// Its buffers come from `buffers`, and the destinations and permutation
/// go back to it. Public so the micro benches can time the exchange's data
/// plane alone.
pub fn repartition_by_vars(
    stage: &StageBatch,
    var: &str,
    buffers: &IdBuffers,
) -> Result<StageBatch, ExecError> {
    let dest = destinations(stage, var, buffers)?;
    let placed = partition_permutation(&dest, stage.ranks(), buffers);
    buffers.give_u32(dest);
    let (perm, offsets) = placed.ok_or_else(stage_overflow)?;
    let out = gather_on_pool(stage, &perm, offsets, buffers);
    buffers.give_u32(perm);
    Ok(out)
}

/// Redistribute rows exactly like [`repartition_by_vars`], plus the
/// `ranks × ranks` wire-byte matrix the streamed cost model consumes.
///
/// A streamed flow ships its rows in sub-batches of `batch_rows` rows
/// ([`BATCH_ROWS`] in the engine), each choosing its own column widths
/// (eight bytes exactly when it holds an id past `u32::MAX`), so entry
/// `(src, dst)` is the sum of those sub-batches' exact sizes — what a
/// row-at-a-time sender filling and sending them would have put on the
/// wire. The channel they would travel through (its capacity, the
/// sender's stalls) is a cost-model concept, priced by
/// `Cluster::streamed_exchange_cost`; its data plane would only re-append
/// the rows in push order, which is what the counting sort does directly.
fn repartition_streamed(
    stage: &StageBatch,
    var: &str,
    batch_rows: usize,
    buffers: &IdBuffers,
) -> Result<(StageBatch, Vec<u64>), ExecError> {
    let ranks = stage.ranks();
    let batch_rows = batch_rows.max(1);
    let dest = destinations(stage, var, buffers)?;
    let placed = partition_permutation(&dest, ranks, buffers);
    buffers.give_u32(dest);
    let (perm, offsets) = placed.ok_or_else(stage_overflow)?;
    let out = gather_on_pool(stage, &perm, offsets, buffers);
    let header: u64 = 2 + 8 + out.vars().iter().map(|v| 2 + v.len() as u64 + 1).sum::<u64>();
    let cols: Vec<ColumnSlice<'_>> = (0..out.vars().len()).map(|c| out.column(c)).collect();
    let sub_batch_bytes = |rows: std::ops::Range<usize>| -> u64 {
        let cells: u64 =
            cols.iter().map(|c| if c.slice(rows.clone()).has_wide_id() { 8 } else { 4 }).sum();
        header + rows.len() as u64 * cells
    };
    let src_of = |row: u32| stage.rank_offsets().partition_point(|&o| o <= row) - 1;
    let mut bytes = vec![0u64; ranks * ranks];
    for d in 0..ranks {
        let seg = out.segment_range(d);
        let mut p = seg.start;
        // The segment is in (source, row) order: one run per source.
        while p < seg.end {
            let src = src_of(perm[p]);
            let end_row = stage.rank_offsets()[src + 1];
            let run_end = p + perm[p..seg.end].partition_point(|&row| row < end_row);
            bytes[src * ranks + d] = (p..run_end)
                .step_by(batch_rows)
                .map(|a| sub_batch_bytes(a..(a + batch_rows).min(run_end)))
                .sum();
            p = run_end;
        }
    }
    buffers.give_u32(perm);
    Ok((out, bytes))
}

/// Move rows between ranks to match a re-balancing plan (round-robin from
/// surplus ranks to deficit ranks, [`StageBatch::rebalance`]) and charge
/// the exchange. Returns the moved rows and the virtual seconds the
/// exchange took.
fn apply_rebalance_plan(
    cluster: &mut Cluster,
    solutions: StageBatch,
    plan: &RebalancePlan,
) -> Result<(StageBatch, f64), ExecError> {
    let t0 = cluster.elapsed();
    // Each shipping rank's exact wire size — not a bytes-per-cell guess —
    // so the exchange collective is charged for the measured column bytes.
    let (placed, moved_bytes) = solutions.rebalance(&plan.targets).ok_or_else(stage_overflow)?;
    cluster.alltoallv_cost(&moved_bytes);
    Ok((placed, cluster.elapsed() - t0))
}

/// What a UDF stage needs from each rank's pre-stage profiles, worked out
/// once per stage: the rank's throughput estimate (solutions/second
/// through the stage's expression — the per-rank estimates §2.4.2
/// exchanges) and, for a conjunction, the rank's §2.4.3 conjunct order.
/// Ranks that settle on one order share one reordered expression.
struct RankPlans {
    rates: Vec<f64>,
    /// One entry per distinct conjunct order: the order, and the
    /// conjunction rewritten in it.
    orders: Vec<(Vec<usize>, Expr)>,
    /// Rank `r`'s entry in `orders` (unused without a conjunction).
    pick: Vec<usize>,
}

/// One pool worker's share of [`RankPlans::new`]: its scratch, and the
/// distinct orders its ranks settled on.
struct OrderWorker {
    id: usize,
    est: Vec<ids_udf::reorder::ConjunctEstimate>,
    order: Vec<usize>,
    seen: Vec<Vec<usize>>,
}

impl RankPlans {
    /// Plans for every row of `profiles` through `expr`, on the shard
    /// pool. A row is priced at the nominal [`EVAL_SECS_PER_ROW`], not at the
    /// batch-amortized charge the stage actually pays: the rebalance
    /// targets, and every row placement and virtual time downstream of
    /// them, are calibrated against the nominal rate. The expected cost
    /// honours short-circuiting: conjuncts in the rank's order, each
    /// weighted by the chance the earlier ones passed.
    fn new(expr: &Expr, profiles: &ProfileTable, opts: &ExecOptions) -> Self {
        let conjuncts = match expr {
            Expr::And(conjuncts) => Some(conjuncts),
            _ => None,
        };
        // Each conjunct's UDFs (or the whole expression's), resolved once.
        let udfs: Vec<Vec<&str>> = match conjuncts {
            Some(c) => c.iter().map(Expr::udf_names).collect(),
            None => vec![expr.udf_names()],
        };
        let cost = |p: ProfileRow<'_>, names: &[&str]| -> f64 {
            names.iter().map(|n| p.estimated_cost(n, opts.udf_cost_prior)).sum()
        };
        let init = |id| OrderWorker { id, est: Vec::new(), order: Vec::new(), seen: Vec::new() };
        let (per_rank, workers) = map_shards_with(profiles.ranks(), Fanout::Host, init, |w, r| {
            let p = profiles.row(r);
            let mut per_solution = EVAL_SECS_PER_ROW;
            if conjuncts.is_none() {
                per_solution += cost(p, &udfs[0]);
                return (w.id, 0, 1.0 / per_solution.max(1.0e-12));
            }
            let prior = UDF_REJECTION_PRIOR;
            order_by_udfs(&udfs, p, |_| opts.udf_cost_prior, prior, &mut w.est, &mut w.order);
            let mut survive = 1.0;
            for &i in &w.order {
                let rej =
                    udfs[i].iter().map(|n| p.estimated_rejection(n, prior)).fold(0.0, f64::max);
                per_solution += survive * cost(p, &udfs[i]);
                survive *= 1.0 - rej;
            }
            let k = match w.seen.iter().position(|o| *o == w.order) {
                Some(k) => k,
                None => {
                    w.seen.push(w.order.clone());
                    w.seen.len() - 1
                }
            };
            (w.id, k, 1.0 / per_solution.max(1.0e-12))
        });
        let rates = per_rank.iter().map(|&(_, _, rate)| rate).collect();
        let Some(conjuncts) = conjuncts else {
            return Self { rates, orders: Vec::new(), pick: Vec::new() };
        };
        // Merge the workers' distinct orders; a rank's entry depends only
        // on its order, never on which worker met it first.
        let mut orders: Vec<(Vec<usize>, Expr)> = Vec::new();
        let global: Vec<Vec<usize>> = workers
            .into_iter()
            .map(|w| {
                let mut to_global = |order: Vec<usize>| {
                    if let Some(g) = orders.iter().position(|(o, _)| *o == order) {
                        return g;
                    }
                    let rewritten = ids_udf::reorder::reorder_and(conjuncts.clone(), &order);
                    orders.push((order, rewritten));
                    orders.len() - 1
                };
                w.seen.into_iter().map(&mut to_global).collect()
            })
            .collect();
        let pick = per_rank.iter().map(|&(w, k, _)| global[w][k]).collect();
        Self { rates, orders, pick }
    }

    /// The expression rank `r` evaluates: its reordered conjunction.
    fn expr(&self, r: usize) -> &Expr {
        &self.orders[self.pick[r]].1
    }
}

/// Re-balance solutions before a UDF stage per [`ExecOptions::rebalance`];
/// `rates` yields each rank's throughput estimate when the mode needs it.
/// Returns the placed rows and the virtual seconds spent re-balancing —
/// which the caller books to [`StageBreakdown::rebalance_secs`], not to
/// the stage.
fn maybe_rebalance(
    cluster: &mut Cluster,
    solutions: StageBatch,
    rates: impl FnOnce() -> Vec<f64>,
    opts: &ExecOptions,
    metrics: &MetricsRegistry,
) -> Result<(StageBatch, f64), ExecError> {
    let total = solutions.len() as u64;
    if total == 0 {
        return Ok((solutions, 0.0));
    }
    match opts.rebalance {
        RebalanceMode::None => Ok((solutions, 0.0)),
        RebalanceMode::CountBased => {
            metrics.counter_with("ids_engine_rebalances_total", "mode", "count").inc();
            let plan = plan_count_based(total, solutions.ranks());
            apply_rebalance_plan(cluster, solutions, &plan)
        }
        RebalanceMode::ThroughputBased => {
            metrics.counter_with("ids_engine_rebalances_total", "mode", "throughput").inc();
            let rates = rates();
            // Exchanging the per-rank estimates is an allreduce-sized
            // collective.
            cluster.allgather_cost(8);
            let plan = plan_throughput_based(total, &rates);
            apply_rebalance_plan(cluster, solutions, &plan)
        }
    }
}

/// Fold one stage's speculation report into the run's recovery accounting
/// and the `ids_speculation_*` metric family.
fn note_speculation(
    recovery: &mut RecoveryReport,
    metrics: &MetricsRegistry,
    spec: &SpeculationReport,
) {
    if spec.launched == 0 {
        return;
    }
    recovery.spec_launched += spec.launched;
    recovery.spec_wins += spec.wins;
    recovery.spec_losses += spec.losses;
    recovery.spec_saved_secs += spec.saved_secs;
    if recovery.first_spec_win.is_none() {
        recovery.first_spec_win = spec.first_win;
    }
    metrics.counter("ids_speculation_launched_total").add(spec.launched);
    metrics.counter("ids_speculation_wins_total").add(spec.wins);
    metrics.counter("ids_speculation_losses_total").add(spec.losses);
    if spec.saved_secs > 0.0 {
        metrics.histogram("ids_speculation_saved_secs").observe(spec.saved_secs);
    }
}

/// Shared fault counters for a FILTER/APPLY stage, pre-resolved so worker
/// closures bump atomics without touching the registry maps.
struct StageFaultCtrs {
    row_retries: ids_obs::Counter,
    dropped_rows: ids_obs::Counter,
    deadline_hits: ids_obs::Counter,
}

impl StageFaultCtrs {
    fn new(metrics: &MetricsRegistry) -> Self {
        Self {
            row_retries: metrics.counter("ids_engine_row_retries_total"),
            dropped_rows: metrics.counter("ids_engine_dropped_rows_total"),
            deadline_hits: metrics.counter("ids_engine_stage_deadline_hits_total"),
        }
    }
}

/// Evaluate one row's closure with bounded retry of worker panics.
/// Returns `Ok(value)` on any successful attempt or `Err(panic message)`
/// once `opts.row_retries` extra attempts are exhausted. Backoff between
/// attempts is charged to the rank (`charge`) so retries consume virtual
/// time like everything else.
fn retry_row<T>(
    opts: &ExecOptions,
    ctrs: &StageFaultCtrs,
    mut charge: impl FnMut(f64),
    mut body: impl FnMut() -> T,
) -> Result<T, String> {
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        match catch_unwind(AssertUnwindSafe(&mut body)) {
            Ok(v) => return Ok(v),
            Err(payload) => {
                if attempt > opts.row_retries {
                    return Err(panic_message(&*payload).to_string());
                }
                ctrs.row_retries.inc();
                charge(RETRY_BACKOFF_SECS * attempt as f64);
            }
        }
    }
}

/// Per-rank degradation tally accumulated while a stage runs, turned into
/// at most one annotation per failure kind when the rank finishes.
#[derive(Default)]
struct RankDegradation {
    panic_rows: u64,
    panic_first: Option<String>,
    eval_rows: u64,
    eval_first: Option<String>,
    deadline_rows: u64,
}

impl RankDegradation {
    fn into_annotations(
        self,
        stage: &str,
        rank: usize,
        deadline_secs: f64,
    ) -> Vec<ErrorAnnotation> {
        // `u64::from` would not accept usize; `try_into` documents that the
        // conversion is checked. Ranks come from `RankId` (u32) today, so
        // the debug assert is a tripwire for a future wider rank space, and
        // the release-mode fallback keeps annotation plumbing total.
        debug_assert!(u64::try_from(rank).is_ok(), "rank {rank} exceeds u64 annotation field");
        let rank = u64::try_from(rank).unwrap_or(u64::MAX);
        let deadline =
            (self.deadline_rows > 0).then(|| format!("{deadline_secs:.6}s stage deadline"));
        [
            (DegradedKind::WorkerPanic, self.panic_rows, self.panic_first),
            (DegradedKind::EvalError, self.eval_rows, self.eval_first),
            (DegradedKind::DeadlineExceeded, self.deadline_rows, deadline),
        ]
        .into_iter()
        .filter(|&(_, rows_dropped, _)| rows_dropped > 0)
        .map(|(kind, rows_dropped, detail)| ErrorAnnotation {
            stage: stage.to_string(),
            rank,
            kind,
            detail: detail.unwrap_or_default(),
            rows_dropped,
        })
        .collect()
    }
}

/// One rank's share of a FILTER/APPLY stage as its worker returns it: the
/// rank's output plus its fatal errors, degradation annotations and the
/// batches it dispatched. The calling thread merges the parts in rank
/// order, so error text, annotation order and batch series never depend on
/// which host thread ran which rank.
struct RankPart<T> {
    out: T,
    errors: Vec<String>,
    annotations: Vec<ErrorAnnotation>,
    batches: usize,
}

/// A FILTER or APPLY stage as [`PlanRun::step_udf`] runs it.
#[derive(Clone, Copy)]
enum UdfStage<'a> {
    /// A FILTER and its stage name: `filter` in WHERE, `stage-filter`
    /// after it.
    Filter(&'a Expr, &'static str),
    Apply {
        udf: &'a str,
        args: &'a [Expr],
        bind_as: &'a str,
    },
}

/// What a FILTER/APPLY stage runs against: the cluster, the dictionary,
/// the UDFs, every rank's profile and the instance's prepared arguments,
/// and where its metrics, annotations and recovery accounting go.
struct UdfStageCx<'a> {
    cluster: &'a mut Cluster,
    dict: &'a Dictionary,
    registry: &'a UdfRegistry,
    profiles: &'a mut ProfileTable,
    memo: &'a ArgMemo,
    opts: &'a ExecOptions,
    cache: Option<&'a CacheManager>,
    metrics: &'a MetricsRegistry,
    annotations: &'a mut Vec<ErrorAnnotation>,
    recovery: &'a mut RecoveryReport,
}

/// Run a FILTER stage: re-balance, per-rank reorder, evaluate, retain.
/// `label` (`filter` or `stage-filter`) names the stage in deadline
/// errors and annotations. Returns the kept rows and the virtual seconds
/// spent re-balancing.
fn run_filter_stage(
    cx: &mut UdfStageCx<'_>,
    solutions: StageBatch,
    expr: &Expr,
    label: &str,
) -> Result<(StageBatch, f64), ExecError> {
    // §2.4.3: each rank's conjunct order, from its pre-stage profile — the
    // same order the throughput estimate assumes. Computed once, for
    // every rank, rows or not.
    let opts = cx.opts;
    let reorder = opts.reorder_conjuncts && matches!(expr, Expr::And(_));
    let needs_rates = !solutions.is_empty() && opts.rebalance == RebalanceMode::ThroughputBased;
    let mut plans = (reorder || needs_rates).then(|| RankPlans::new(expr, cx.profiles, opts));
    let rates = plans.as_mut().map(|p| std::mem::take(&mut p.rates)).unwrap_or_default();

    // §2.4.3 decision counters: did this rank's profile change the
    // conjunct order, or confirm the written one?
    let reordered_ctr =
        cx.metrics.counter_with("ids_engine_reorder_decisions_total", "decision", "reordered");
    let kept_ctr =
        cx.metrics.counter_with("ids_engine_reorder_decisions_total", "decision", "kept");
    let plans = plans.filter(|_| reorder);
    if let Some(p) = &plans {
        let written = |r: &usize| p.orders[p.pick[*r]].0.iter().enumerate().all(|(k, &i)| k == i);
        let kept = (0..p.pick.len()).filter(written).count() as u64;
        kept_ctr.add(kept);
        reordered_ctr.add(p.pick.len() as u64 - kept);
    }
    let (solutions, kept, rebalance) = run_udf_stage(
        cx,
        solutions,
        |_| rates,
        expr,
        "filter",
        label,
        |r, row, bindings, ecx| {
            let local_expr = plans.as_ref().map_or(expr, |p| p.expr(r));
            Ok(local_expr.eval_bool(bindings, ecx)?.then_some(row))
        },
    )?;
    let offsets = offsets_from_counts(kept.iter().map(Vec::len)).ok_or_else(stage_overflow)?;
    Ok((solutions.gather(&kept.concat(), offsets), rebalance))
}

/// An APPLY output as a worker hands it back: an existing term id, or a
/// term the calling thread interns after the fan-out.
enum Bound {
    Id(TermId),
    Term(ids_graph::Term),
}

impl Bound {
    /// The term a UDF value binds to; `None` for a null, which drops the
    /// row (SPARQL error semantics).
    fn of(value: UdfValue) -> Option<Self> {
        Some(Bound::Term(match value {
            UdfValue::F64(v) => ids_graph::Term::float(v),
            UdfValue::I64(v) => ids_graph::Term::Int(v),
            UdfValue::Str(s) => ids_graph::Term::str(s),
            UdfValue::Bool(b) => ids_graph::Term::Int(b as i64),
            UdfValue::Id(id) => return Some(Bound::Id(TermId(id))),
            UdfValue::Null => return None,
        }))
    }
}

/// Run an APPLY stage: re-balance, invoke the UDF per row, bind the
/// output as column `bind_as`, with the same return shape as
/// [`run_filter_stage`]. The calling thread interns new output terms
/// after the fan-out, in rank then row order, so the dictionary ids they
/// mint do not depend on the schedule.
fn run_apply_stage(
    cx: &mut UdfStageCx<'_>,
    solutions: StageBatch,
    udf: &str,
    args: &[Expr],
    bind_as: &str,
) -> Result<(StageBatch, f64), ExecError> {
    // Re-balance using the UDF itself as the cost driver.
    let opts = cx.opts;
    let probe_expr = Expr::udf(udf.to_string(), vec![]);
    let rates = |profiles: &ProfileTable| RankPlans::new(&probe_expr, profiles, opts).rates;
    // The call expression is identical for every row of every rank.
    let call = Expr::udf(udf.to_string(), args.to_vec());
    let label = format!("apply:{udf}");
    let (solutions, bound, rebalance) =
        run_udf_stage(cx, solutions, rates, &call, "apply", &label, |_, row, bindings, ecx| {
            Ok(Bound::of(call.eval(bindings, ecx)?).map(|b| (row, b)))
        })?;
    let offsets = offsets_from_counts(bound.iter().map(Vec::len)).ok_or_else(stage_overflow)?;
    let rows = offsets[offsets.len() - 1] as usize;
    let (mut sel, mut ids) = (Vec::with_capacity(rows), Vec::with_capacity(rows));
    for (i, b) in bound.into_iter().flatten() {
        sel.push(i);
        ids.push(
            match b {
                Bound::Id(id) => id,
                Bound::Term(term) => cx.dict.encode(&term),
            }
            .raw(),
        );
    }
    let schema: Arc<[String]> =
        solutions.vars().iter().cloned().chain([bind_as.to_string()]).collect();
    Ok((solutions.gather_with_column(&sel, offsets, schema, &ids), rebalance))
}

/// The FILTER/APPLY stage driver: re-balance the rows by `rates` (each
/// rank's throughput estimate from its profile, asked for only when the
/// mode needs it), then evaluate `row` on every row of every rank and
/// keep what it returns. `row` gets the rank, the row's index in the
/// re-balanced stage and its bindings. `calls` is every UDF call the
/// stage makes, `kind` (`filter` or `apply`) names its workers and
/// batches, and `label` names it in deadline errors and annotations.
///
/// Worker panics are retried per row ([`ExecOptions::row_retries`]); with
/// [`ExecOptions::degrade`] on, rows that still fail (or fall past the
/// stage deadline) are dropped and annotated instead of failing the query.
/// Workers read their rank's segment in place; the caller builds the next
/// stage from the re-balanced rows and each rank's outputs, returned in
/// rank order with the virtual seconds spent re-balancing.
fn run_udf_stage<T: Send, F>(
    cx: &mut UdfStageCx<'_>,
    solutions: StageBatch,
    rates: impl FnOnce(&ProfileTable) -> Vec<f64>,
    calls: &Expr,
    kind: &str,
    label: &str,
    row: F,
) -> Result<(StageBatch, Vec<Vec<T>>, f64), ExecError>
where
    F: Fn(usize, u32, &RowBindings<'_>, &mut EvalCtx<'_>) -> Result<Option<T>, EvalError> + Sync,
{
    let (opts, registry, memo, dict, metrics) =
        (cx.opts, cx.registry, cx.memo, cx.dict, cx.metrics);
    let profiles = &*cx.profiles;
    let (solutions, rebalance) =
        maybe_rebalance(cx.cluster, solutions, || rates(profiles), opts, metrics)?;
    let fault_ctrs = StageFaultCtrs::new(metrics);
    let batch_meter = BatchMeter::new(metrics, kind);
    // The virtual cost of evaluating one row outside its UDFs (registry
    // lookups, dispatch), amortized across a batch; the UDF's own charged
    // time is real work and is never amortized.
    let eval_overhead = EVAL_SECS_PER_ROW / EVAL_AMORTIZATION;
    // The stage records into a copy of the table, made here before the
    // fan-out with a column for every UDF the stage calls (interned on
    // this thread, so no column depends on the schedule), and committed
    // only when the stage succeeds. Each rank's worker holds its own row.
    let mut staged = profiles.clone();
    calls.for_each_udf(&mut |u| staged.intern(u));
    let rows: Vec<Mutex<ProfileRowMut<'_>>> = staged.rows_mut().map(Mutex::new).collect();
    // Ranks run concurrently in no fixed order, so the stage keeps to one
    // worker — the calling thread, ranks in order — whenever call order is
    // observable: with a cache attached (the cache-aware UDFs move LRU and
    // tier state and draw faults per call) or while a called dynamic UDF
    // is not yet loaded (its first caller pays the module-load charge).
    let serial = cx.cache.is_some() || !calls.udf_names().iter().all(|u| registry.is_loaded(u));
    let fanout = if serial { Fanout::One } else { Fanout::Host };

    let (parts, spec) = cx.cluster.execute_with_speculation(opts.speculation, fanout, |ctx| {
        let r = ctx.rank().index();
        set_current_rank(ctx.rank());
        let input = solutions.segment(r);
        let base = solutions.rank_offsets()[r];
        let mut out: Vec<T> = Vec::new();
        let mut errors = Vec::new();
        let mut deg = RankDegradation::default();
        let mut profile = lock_unpoisoned(&rows[r]);

        let mut spent = 0.0f64;
        let mut batches = 0;
        let n_rows = input.len();
        for i in 0..n_rows {
            // Batch boundary: the engine dispatches the stage once per
            // batch of rows, not once per row.
            if i % BATCH_ROWS == 0 {
                batches += 1;
                ctx.charge(BATCH_DISPATCH_SECS);
                spent += BATCH_DISPATCH_SECS;
            }
            // Per-rank stage deadline: stop evaluating once the budget is
            // spent; the remaining rows are dropped (degrade) or fatal.
            if spent > opts.stage_deadline_secs {
                let remaining = (n_rows - i) as u64;
                fault_ctrs.deadline_hits.inc();
                fault_ctrs.dropped_rows.add(remaining);
                if opts.degrade {
                    deg.deadline_rows = remaining;
                } else {
                    errors.push(format!(
                        "rank {r} {label} stage exceeded its {:.6}s deadline \
                         with {remaining} rows unprocessed",
                        opts.stage_deadline_secs
                    ));
                }
                break;
            }
            let bindings = RowBindings::at(input, i, dict);
            let verdict = retry_row(
                opts,
                &fault_ctrs,
                |secs| {
                    ctx.charge(secs);
                    spent += secs;
                },
                || {
                    let mut ecx = EvalCtx::new(registry, profile.reborrow()).with_memo(memo);
                    let kept = row(r, base + i as u32, &bindings, &mut ecx);
                    (kept, ecx.charged_secs)
                },
            );
            match verdict {
                Ok((Ok(kept), charged)) => {
                    let c = charged + eval_overhead;
                    ctx.charge(c);
                    spent += c;
                    out.extend(kept);
                }
                Ok((Err(e), charged)) => {
                    ctx.charge(charged);
                    spent += charged;
                    if opts.degrade {
                        fault_ctrs.dropped_rows.inc();
                        deg.eval_rows += 1;
                        deg.eval_first.get_or_insert_with(|| e.to_string());
                    } else {
                        errors.push(e.to_string());
                    }
                }
                Err(msg) => {
                    if opts.degrade {
                        fault_ctrs.dropped_rows.inc();
                        deg.panic_rows += 1;
                        deg.panic_first.get_or_insert(msg);
                    } else {
                        // Fail fast, like the pre-retry executor: record
                        // the panic and stop this rank's work.
                        errors.push(format!("rank {r} {kind} worker panicked: {msg}"));
                        break;
                    }
                }
            }
        }
        RankPart {
            out,
            errors,
            annotations: deg.into_annotations(label, r, opts.stage_deadline_secs),
            batches,
        }
    });
    batch_meter
        .record(parts.iter().enumerate().map(|(r, p)| (solutions.segment(r).len(), p.batches)));
    note_speculation(cx.recovery, metrics, &spec);
    if !opts.pipelined {
        // BSP closes the stage with a barrier; pipelined mode leaves the
        // per-rank clocks skewed — the next stage's dependencies (its own
        // input, or the gather collective) are the only synchronization.
        cx.cluster.barrier();
    }

    // Any error fails the stage with the first one in rank order (and the
    // total count); otherwise the annotations join the run's.
    if let Some(first) = parts.iter().find_map(|p| p.errors.first()) {
        let total: usize = parts.iter().map(|p| p.errors.len()).sum();
        return Err(ExecError::msg(format!("{first} ({total} total failures)")));
    }
    let outs = parts
        .into_iter()
        .map(|p| {
            cx.annotations.extend(p.annotations);
            p.out
        })
        .collect();
    drop(rows);
    *cx.profiles = staged;
    Ok((solutions, outs, rebalance))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_graph::Term;
    use ids_simrt::rng::hash_combine;
    use std::cmp::Ordering;

    /// ORDER BY's comparison of two decoded terms.
    fn compare_terms(a: Option<&Term>, b: Option<&Term>) -> Ordering {
        compare_keys(&order_key(a), &order_key(b))
    }

    #[test]
    fn compare_terms_orders_numbers_before_strings() {
        let a = Term::Int(5);
        let b = Term::float(5.5);
        let s = Term::str("abc");
        assert_eq!(compare_terms(Some(&a), Some(&b)), Ordering::Less);
        assert_eq!(compare_terms(Some(&b), Some(&a)), Ordering::Greater);
        assert_eq!(compare_terms(Some(&a), Some(&a)), Ordering::Equal);
        // Numbers sort before strings; strings before unbound.
        assert_eq!(compare_terms(Some(&b), Some(&s)), Ordering::Less);
        assert_eq!(compare_terms(Some(&s), None), Ordering::Less);
        assert_eq!(compare_terms(None, None), Ordering::Equal);
        // Strings compare lexically through their display form.
        let t = Term::str("abd");
        assert_eq!(compare_terms(Some(&s), Some(&t)), Ordering::Less);
    }

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
        assert!((b.total_excluding("vina_docking") - 10.5).abs() < 1e-12);
        assert!((b.total_excluding("never-ran") - 50.5).abs() < 1e-12);
    }

    #[test]
    fn current_rank_defaults_to_zero_off_engine_threads() {
        assert_eq!(current_rank(), RankId(0));
    }

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

    #[test]
    fn streamed_repartition_matches_barriered_rows_and_order() {
        // Whatever the sub-batch size, the per-destination rows — and
        // their (src, row) order — must equal the barriered path's.
        let vars = schema(&["a", "b"]);
        let mut sets = Vec::new();
        let mut id = 0u64;
        for src in 0..3u64 {
            sets.push(RankRows::of(&vars, (id..id + src * 7 + 5).map(|i| vec![i % 13, i])));
            id += src * 7 + 5;
        }
        let stage = stage_of(&sets);
        let barriered = repartition_by_vars(&stage, "a", &IdBuffers::default()).unwrap();
        let (streamed, bytes) =
            repartition_streamed(&stage, "a", 4, &IdBuffers::default()).unwrap();
        assert_eq!(streamed, barriered);
        assert_eq!(bytes.len(), 9);
        assert!(bytes.iter().sum::<u64>() > 0);
    }

    // A rank id beyond u32::MAX only exists on 64-bit hosts.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn error_annotation_rank_is_wide_and_checked() {
        let deg = RankDegradation {
            panic_rows: 2,
            panic_first: Some("boom".into()),
            ..Default::default()
        };
        let anns = deg.into_annotations("filter", u32::MAX as usize + 7, f64::INFINITY);
        assert_eq!(anns.len(), 1);
        // The rank survives beyond u32::MAX un-truncated.
        assert_eq!(anns[0].rank, u32::MAX as u64 + 7);
    }

    #[test]
    fn a_checkpoint_whose_ranks_disagree_on_their_schema_is_refused() {
        let set = |vars: &[&str]| TypedSolutionSet {
            vars: vars.iter().map(|v| v.to_string()).collect(),
            rows: vec![vec![1; vars.len()]],
        };
        let named = |v: &str| Some(v.to_string());
        let stage = typed_stage(&[set(&["k", "v"]), set(&["k", "v"])], named).unwrap();
        assert_eq!((stage.ranks(), stage.len()), (2, 2));
        assert!(typed_stage(&[set(&["k", "v"]), set(&["v", "k"])], named).is_none());
        assert!(typed_stage(&[set(&["k"])], |_| None).is_none());
    }

    #[test]
    fn a_checkpoint_of_no_ranks_or_a_ragged_row_is_refused() {
        let named = |v: &str| Some(v.to_string());
        assert!(typed_stage(&[], named).is_none());
        let vars = vec!["k".to_string(), "v".to_string()];
        let whole = TypedSolutionSet { vars: vars.clone(), rows: vec![vec![1, 2]] };
        let ragged = TypedSolutionSet { vars, rows: vec![vec![1, 2], vec![3]] };
        assert!(typed_stage(&[whole.clone(), whole.clone()], named).is_some());
        assert!(typed_stage(&[whole, ragged], named).is_none());
    }

    #[test]
    fn a_reuse_checkpoint_loads_under_the_querys_names() {
        let set =
            |rows: Vec<Vec<u64>>| TypedSolutionSet { vars: vec!["v0".into(), "v1".into()], rows };
        let obj = IntermediateSolutions {
            fingerprint: 0xf00d,
            pre_filter_counts: vec![1, 0],
            sets: vec![set(vec![vec![4, 5]]), set(Vec::new())],
        };
        let bytes = obj.encode();
        let cp = ReuseCheckpoint {
            key: "k".into(),
            fingerprint: 0xf00d,
            label: "bgp".into(),
            rename: vec![("protein".into(), "v1".into()), ("seq".into(), "v0".into())],
        };
        let (stage, counts) = load_checkpoint(&bytes, &cp, 2).unwrap();
        assert_eq!(stage.vars(), ["seq", "protein"]);
        assert_eq!((stage.rank_offsets(), counts), (&[0, 1, 1][..], vec![1, 0]));
        assert_eq!(stage.segment(0).column(1).get(0), 5);
        // Another rank count, fingerprint or an unknown name is a miss.
        assert!(load_checkpoint(&bytes, &cp, 3).is_none());
        assert!(
            load_checkpoint(&bytes, &ReuseCheckpoint { fingerprint: 1, ..cp.clone() }, 2).is_none()
        );
        let unnamed = ReuseCheckpoint { rename: cp.rename[..1].to_vec(), ..cp };
        assert!(load_checkpoint(&bytes, &unnamed, 2).is_none());
    }

    #[test]
    fn a_checkpoint_reloads_every_rank_at_its_own_widths() {
        // Only rank 1 holds an id past `u32::MAX`, in column `v`.
        let vars = schema(&["k", "v"]);
        let stage = stage_of(&[
            RankRows::of(&vars, [vec![1, 2], vec![3, 4]]),
            RankRows::of(&vars, [vec![5, 1 << 33], vec![6, 7], vec![8, 9]]),
        ]);
        let obj = IntermediateSolutions {
            fingerprint: 0xc4ec,
            pre_filter_counts: vec![2, 3],
            sets: (0..2)
                .map(|r| TypedSolutionSet {
                    vars: stage.vars().to_vec(),
                    rows: typed_rows(stage.segment(r)),
                })
                .collect(),
        };
        let decoded = IntermediateSolutions::decode(&obj.encode(), 0xc4ec).unwrap();
        let loaded = typed_stage(&decoded.sets, |v| Some(v.to_string())).unwrap();
        assert_eq!(loaded.ranks(), 2);
        for r in 0..2 {
            assert_eq!(RankRows::segment(&loaded, r), RankRows::segment(&stage, r), "rank {r}");
            for c in 0..2 {
                assert_eq!(loaded.segment_width(r, c), stage.segment_width(r, c), "rank {r}");
            }
            assert_eq!(loaded.segment_byte_size(r), stage.segment_byte_size(r), "rank {r}");
        }
        assert_eq!((loaded.segment_width(0, 1), loaded.segment_width(1, 1)), (4, 8));
        assert_eq!(loaded.segment_width(1, 0), 4);
    }

    fn schema(vars: &[&str]) -> Arc<[String]> {
        vars.iter().map(|v| v.to_string()).collect()
    }

    /// One rank's solutions as the per-rank layout held them: its rows, and
    /// per column whether the rank's column is eight bytes wide. A column
    /// widens on its first id past `u32::MAX` and stays wide when rows are
    /// split off. The reference every stage kernel is checked against.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct RankRows {
        vars: Arc<[String]>,
        rows: Vec<Vec<u64>>,
        wide: Vec<bool>,
    }

    impl RankRows {
        fn new(vars: &Arc<[String]>) -> Self {
            Self { vars: vars.clone(), rows: Vec::new(), wide: vec![false; vars.len()] }
        }

        /// `rows` pushed one by one.
        fn of(vars: &Arc<[String]>, rows: impl IntoIterator<Item = Vec<u64>>) -> Self {
            let mut out = Self::new(vars);
            rows.into_iter().for_each(|row| out.push_row(row));
            out
        }

        /// Rank `r` of `stage`, at its segment widths.
        fn segment(stage: &StageBatch, r: usize) -> Self {
            let s = stage.segment(r);
            let cols = 0..s.vars().len();
            Self {
                vars: stage.schema().clone(),
                rows: (0..s.len())
                    .map(|i| cols.clone().map(|c| s.column(c).get(i)).collect())
                    .collect(),
                wide: cols.map(|c| stage.segment_width(r, c) == 8).collect(),
            }
        }

        fn len(&self) -> usize {
            self.rows.len()
        }

        fn var_index(&self, var: &str) -> usize {
            self.vars.iter().position(|v| v == var).unwrap()
        }

        fn push_row(&mut self, row: Vec<u64>) {
            assert_eq!(row.len(), self.vars.len(), "row width must match schema");
            for (w, &id) in self.wide.iter_mut().zip(&row) {
                *w |= id > u64::from(u32::MAX);
            }
            self.rows.push(row);
        }

        /// Append `other`'s rows: this rank's widths widen only on ids.
        fn append(&mut self, other: &RankRows) {
            other.rows.iter().for_each(|row| self.push_row(row.clone()));
        }

        /// Split off rows `[at, len)`; both halves keep the widths.
        fn split_off(&mut self, at: usize) -> Self {
            Self { vars: self.vars.clone(), rows: self.rows.split_off(at), wide: self.wide.clone() }
        }

        /// The serialized size: `u16` var count; per var a `u16` length +
        /// name bytes and a tag byte; `u64` row count; `rows × width` bytes
        /// per column.
        fn byte_size(&self) -> u64 {
            let names: u64 = self.vars.iter().map(|v| 2 + v.len() as u64 + 1).sum();
            let cells: u64 = self.wide.iter().map(|&w| if w { 8 } else { 4 }).sum();
            2 + 8 + names + self.len() as u64 * cells
        }

        /// The rows as a boundary set.
        fn to_set(&self) -> SolutionSet {
            let rows = self.rows.iter().map(|r| r.iter().copied().map(TermId).collect()).collect();
            SolutionSet::new(self.vars.to_vec(), rows)
        }
    }

    /// `stage` holds `want[r]` on every rank r, at its widths and sizes.
    fn assert_stage(stage: &StageBatch, want: &[RankRows]) {
        assert_eq!(stage.ranks(), want.len());
        for (r, w) in want.iter().enumerate() {
            assert_eq!(&RankRows::segment(stage, r), w, "rank {r}");
            assert_eq!(stage.segment_byte_size(r), w.byte_size(), "rank {r}");
        }
        assert_eq!(stage.byte_size(), want.iter().map(RankRows::byte_size).sum::<u64>());
    }

    /// The stage whose rank r holds `ranks[r]` at its widths. The rows fill
    /// one part; a rank wider than its rows gets one more row, of wide ids
    /// in its wide columns, which a rebalance to the ranks' own row counts
    /// drops again (a kept segment keeps its widths).
    fn stage_of(ranks: &[RankRows]) -> StageBatch {
        let mut part = StagePart::new(ranks[0].vars.len());
        let spans: Vec<(usize, usize, usize)> = ranks
            .iter()
            .map(|t| {
                let mut rows = t.rows.clone();
                if RankRows::of(&t.vars, t.rows.clone()).wide != t.wide {
                    rows.push(t.wide.iter().map(|&w| if w { u64::MAX - 1 } else { 0 }).collect());
                }
                let (first, n) = part.push_rank(&rows).unwrap();
                (0, first, n)
            })
            .collect();
        let stage =
            StageBatch::assemble(ranks[0].vars.clone(), vec![part], &spans, &IdBuffers::default())
                .unwrap();
        let targets: Vec<u64> = ranks.iter().map(|t| t.len() as u64).collect();
        let (stage, _) = stage.rebalance(&targets).unwrap();
        assert_stage(&stage, ranks);
        stage
    }

    /// The per-rank exchange on key `var`: each source's rows cut by
    /// destination and appended, sources in rank order; with
    /// `batch_rows`, the wire bytes of its sub-batches per (source,
    /// destination).
    fn per_rank_repartition(
        sets: &[RankRows],
        var: &str,
        batch_rows: usize,
    ) -> (Vec<RankRows>, Vec<u64>) {
        let ranks = sets.len();
        let k = sets[0].var_index(var);
        let mut out = vec![RankRows::new(&sets[0].vars); ranks];
        let mut bytes = vec![0u64; ranks * ranks];
        for (src, set) in sets.iter().enumerate() {
            let mut by_dst: Vec<Vec<Vec<u64>>> = vec![Vec::new(); ranks];
            for row in &set.rows {
                let h = hash_combine(0xA17C_E55E, fnv1a(&row[k].to_le_bytes()));
                by_dst[(h % ranks as u64) as usize].push(row.clone());
            }
            for (dst, rows) in by_dst.into_iter().enumerate() {
                bytes[src * ranks + dst] = rows
                    .chunks(batch_rows)
                    .map(|sub| RankRows::of(&set.vars, sub.to_vec()).byte_size())
                    .sum();
                rows.into_iter().for_each(|row| out[dst].push_row(row));
            }
        }
        (out, bytes)
    }

    /// One rank's rows per rank over `vars`: `0..=max_rows` rows each
    /// (a quarter of ranks empty), ids from `0..domain`, about one in
    /// six past `u32::MAX` with `big`; with `sticky`, wide columns
    /// holding only small ids on every rank (a split-off wide row).
    fn random_ranks(
        vars: &[&str],
        ranks: usize,
        max_rows: usize,
        domain: u64,
        (big, sticky): (bool, bool),
        rng: &mut ids_simrt::rng::SplitMix64,
    ) -> Vec<RankRows> {
        let schema = schema(vars);
        (0..ranks)
            .map(|_| {
                let mut b = RankRows::new(&schema);
                if sticky {
                    b.push_row(vec![u64::MAX - 1; vars.len()]);
                }
                let rows = if rng.next_below(4) == 0 {
                    0
                } else {
                    rng.next_below(max_rows as u64 + 1) as usize
                };
                for _ in 0..rows {
                    let row: Vec<u64> = vars
                        .iter()
                        .map(|_| {
                            let v = rng.next_below(domain);
                            if big && rng.next_below(6) == 0 {
                                v + (1 << 32)
                            } else {
                                v
                            }
                        })
                        .collect();
                    b.push_row(row);
                }
                if sticky {
                    b = b.split_off(1);
                }
                b
            })
            .collect()
    }

    /// A one-rank stage over `vars` whose rows hold the given integers, as
    /// terms of `ds`.
    fn int_batch(ds: &Datastore, vars: &[&str], rows: &[&[i64]]) -> StageBatch {
        let rows = rows.iter().map(|row| row.iter().map(|&v| ds.encode(&Term::Int(v)).raw()));
        stage_of(&[RankRows::of(&schema(vars), rows.map(Iterator::collect))])
    }

    #[test]
    fn gather_select_reorders_and_drops_columns() {
        let ds = Datastore::new(1);
        let merged = int_batch(&ds, &["a", "b", "c"], &[&[1, 2, 3]]);
        let select = ["c".to_string(), "a".to_string()];
        let out =
            shape_result(merged.view(), None, &select, false, None, &ds, &IdBuffers::default())
                .unwrap();
        assert_eq!(out.vars(), select);
        assert_eq!(out.rows().to_vec(), [[3, 1].map(|v| ds.encode(&Term::Int(v)))]);
    }

    #[test]
    fn gather_select_of_an_unknown_variable_is_a_query_error() {
        let ds = Datastore::new(1);
        let merged = int_batch(&ds, &["a"], &[]);
        let err = shape_result(
            merged.view(),
            None,
            &["zzz".to_string()],
            false,
            None,
            &ds,
            &IdBuffers::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("projected variable ?zzz is never bound"), "{err}");
    }

    #[test]
    fn gather_distinct_keeps_first_occurrences_in_order() {
        // ORDER BY k DESC lines x up as 2, 1, 2, 3, 1; DISTINCT keeps the
        // first of each.
        let ds = Datastore::new(1);
        let rows: [&[i64]; 5] = [&[1, 1], &[2, 3], &[3, 2], &[4, 1], &[5, 2]];
        let merged = int_batch(&ds, &["k", "x"], &rows);
        let order = ("k".to_string(), true);
        let out = shape_result(
            merged.view(),
            Some(&order),
            &["x".to_string()],
            true,
            None,
            &ds,
            &IdBuffers::default(),
        )
        .unwrap();
        assert_eq!(out.rows().to_vec(), [2, 1, 3].map(|v| [ds.encode(&Term::Int(v))]));
    }

    /// The column-at-a-time repartition and gather against the
    /// row-at-a-time code they replaced: the per-rank exchange above, and
    /// the previous gather kept here verbatim. Sizes grow in release builds
    /// (`ci.sh` runs `cargo test -p ids-core --release -- kernels`).
    mod kernels {
        use super::*;
        use ids_simrt::rng::SplitMix64;
        use proptest::prelude::*;

        const FULL: bool = !cfg!(debug_assertions);

        /// The previous gather: materialise every row, project to the
        /// canonical column order, sort the rows, stable-sort again for
        /// ORDER BY (decoding both terms at every comparison), project to
        /// SELECT, then DISTINCT and LIMIT, each building a new set.
        fn reference_shape(
            merged: &RankRows,
            order_by: Option<&(String, bool)>,
            select: &[String],
            distinct: bool,
            limit: Option<usize>,
            ds: &Datastore,
        ) -> Result<SolutionSet, ExecError> {
            let set = merged.to_set();
            // Canonical column order: every row rebuilt over sorted names.
            let mut vars = set.vars().to_vec();
            vars.sort_unstable();
            let canon: Vec<usize> = vars.iter().map(|v| set.var_index(v).unwrap()).collect();
            let mut rows: Vec<Vec<TermId>> =
                set.rows().iter().map(|r| canon.iter().map(|&c| r[c]).collect()).collect();
            rows.sort_unstable();
            if let Some((var, descending)) = order_by {
                let idx = vars.iter().position(|v| v == var).ok_or_else(|| {
                    ExecError::msg(format!("ORDER BY variable ?{var} is never bound"))
                })?;
                let dict = ds.dictionary();
                rows.sort_by(|a, b| {
                    let ta = dict.decode(a[idx]);
                    let tb = dict.decode(b[idx]);
                    let ord = compare_terms(ta.as_ref(), tb.as_ref());
                    if *descending {
                        ord.reverse()
                    } else {
                        ord
                    }
                });
            }
            if !select.is_empty() {
                let cols = select
                    .iter()
                    .map(|c| {
                        vars.iter().position(|v| v == c).ok_or_else(|| {
                            ExecError::msg(format!("projected variable ?{c} is never bound"))
                        })
                    })
                    .collect::<Result<Vec<usize>, _>>()?;
                rows = rows.iter().map(|r| cols.iter().map(|&c| r[c]).collect()).collect();
                vars = select.to_vec();
            }
            if distinct {
                // First occurrence wins.
                let mut seen = HashSet::new();
                rows.retain(|r| seen.insert(r.clone()));
            }
            rows.truncate(limit.unwrap_or(usize::MAX));
            Ok(SolutionSet::new(vars, rows))
        }

        /// The canonical order by comparison sort: rows by (lead, row),
        /// then each run of rows that tie on the lead by the other columns,
        /// stably, so rows equal on every column keep their row order.
        fn reference_permutation(batch: &BatchView<'_>, cols: &[usize]) -> Vec<u32> {
            let id = |row: u32, c: usize| batch.column(c).get(row as usize);
            let mut perm: Vec<u32> = (0..batch.len() as u32).collect();
            let Some((&lead, rest)) = cols.split_first() else { return perm };
            perm.sort_by_key(|&row| (id(row, lead), row));
            for run in perm.chunk_by_mut(|&a, &b| id(a, lead) == id(b, lead)) {
                run.sort_by(|&a, &b| {
                    rest.iter()
                        .map(|&c| id(a, c).cmp(&id(b, c)))
                        .find(|ord| ord.is_ne())
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
            }
            perm
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(if FULL { 160 } else { 48 }))]

            /// The counting sort against the comparison sort: `u32` and
            /// `u64` leads, ids past `u32::MAX`, repeated leads, 0 and 1
            /// rows, and leads whose high digits are all equal.
            #[test]
            fn canonical_permutation_equals_the_comparison_sort(
                seed in 0u64..1_000_000,
                rows in prop_oneof![0usize..=1, 0usize..=(if FULL { 20_000 } else { 2_000 })],
                width in 0usize..=3,
                // Lead ids: from a few values, from many, or many values
                // above one high base (equal high digits), at 32 or 64 bits.
                lead in 0u8..3,
                base in prop_oneof![Just(0u64), Just(0xC000_0000u64), Just(0x5A5A_0000_0000u64)],
                domain in 1u64..=64,
            ) {
                let mut rng = SplitMix64::new(seed, 0xc0a7);
                let lead_id = |rng: &mut SplitMix64| match lead {
                    0 => base + rng.next_below(3),
                    1 => base + rng.next_below(rows as u64 * 4 + 1),
                    _ => base + (rng.next_below(domain) << 4),
                };
                let vars: Arc<[String]> = (0..width).map(|c| format!("v{c}")).collect();
                let cols: Vec<ids_graph::batch::Column> = (0..width)
                    .map(|c| {
                        let ids: Vec<u64> = (0..rows)
                            .map(|_| if c == 0 { lead_id(&mut rng) } else { rng.next_below(domain) })
                            .collect();
                        ids_graph::batch::Column::U64(ids)
                    })
                    .collect();
                let stage = StageBatch::from_columns(vars, cols, vec![0, rows as u32]);
                let view = stage.view();
                // The drawn lead column first, then last.
                let (first, last): (Vec<usize>, Vec<usize>) = ((0..width).collect(), (0..width).rev().collect());
                let buffers = IdBuffers::default();
                for cols in [&first, &last] {
                    let got = canonical_permutation(&view, cols, &buffers).unwrap();
                    prop_assert_eq!(&got, &reference_permutation(&view, cols));
                    buffers.give_u32(got);
                }
            }

            /// `==` on every rank's rows, their per-destination order and
            /// column widths, so every later `byte_size()` agrees.
            #[test]
            fn repartition_equals_the_row_loop(
                seed in 0u64..1_000_000,
                // Few ranks and fat sources, or far more ranks than rows.
                ranks in prop_oneof![1usize..=16, 100usize..=(if FULL { 700 } else { 200 })],
                key in 0usize..2,
                domain in 1u64..=500,
                flags in 0u8..4,
            ) {
                let mut rng = SplitMix64::new(seed, 0x9a97);
                let vars = ["p", "k0", "q", "k1"];
                let key_var = ["k1", "k0"][key];
                let max_rows = if ranks > 16 { 3 } else if FULL { 4000 } else { 200 };
                let sets =
                    random_ranks(&vars, ranks, max_rows, domain, (flags & 1 != 0, flags & 2 != 0), &mut rng);

                let (want, _) = per_rank_repartition(&sets, key_var, 1);
                let stage = stage_of(&sets);
                assert_stage(&repartition_by_vars(&stage, key_var, &IdBuffers::default()).unwrap(), &want);

                for batch_rows in [1usize, 7, 4096] {
                    let (want, want_bytes) = per_rank_repartition(&sets, key_var, batch_rows);
                    let (got, got_bytes) = repartition_streamed(&stage, key_var, batch_rows, &IdBuffers::default()).unwrap();
                    assert_stage(&got, &want);
                    prop_assert_eq!(got_bytes, want_bytes);
                }
            }

            #[test]
            fn gather_equals_materialise_project_sort_project(
                seed in 0u64..1_000_000,
                rows in 0usize..=(if FULL { 3000 } else { 150 }),
                // Low domains tie many rows on the lead column.
                domain in prop_oneof![1u64..=3, 1u64..=24],
                order in 0usize..=10,
                picks in 0usize..=5,
                distinct in any::<bool>(),
                limit in prop_oneof![Just(None), (0usize..=40).prop_map(Some), Just(Some(usize::MAX))],
                wide_small in any::<bool>(),
                big_ids in any::<bool>(),
            ) {
                let mut rng = SplitMix64::new(seed, 0x9a7e);
                // Ids 0..24 decode to terms with ties under `compare_terms`
                // (`Int(3)` and `3.0` are distinct ids, one sort key) and
                // every kind the order ranks; ids past the dictionary do not
                // decode and sort last.
                let ds = Datastore::new(1);
                for i in 0..6 {
                    ds.encode(&ids_graph::Term::Int(i / 2));
                    ds.encode(&ids_graph::Term::float((i / 2) as f64));
                    ds.encode(&ids_graph::Term::str(format!("s{}", 5 - i)));
                    ds.encode(&ids_graph::Term::iri(format!("e:{i}")));
                }
                // Join order, not name order — the gather canonicalises.
                let vars = schema(&["m", "b", "z", "a"]);
                let mut merged = RankRows::new(&vars);
                if wide_small {
                    // `U64` columns that will hold only small ids.
                    merged.push_row(vec![u64::MAX - 1; vars.len()]);
                    merged = merged.split_off(1);
                }
                for _ in 0..rows {
                    let row: Vec<u64> = vars
                        .iter()
                        .map(|_| {
                            let id = rng.next_below(domain);
                            // Some ids the dictionary never minted; with
                            // `big_ids`, some past `u32::MAX`, so a `U64`
                            // lead column sorts real wide ids.
                            match rng.next_below(9) {
                                0 => id + 10_000,
                                1 | 2 if big_ids => id + (1 << 32),
                                _ => id,
                            }
                        })
                        .collect();
                    merged.push_row(row);
                }

                // 0 → no ORDER BY; then each variable both ways; then a
                // variable that is never bound.
                let names = ["m", "b", "z", "a", "ghost"];
                let order_by = (order > 0)
                    .then(|| (names[(order - 1) / 2].to_string(), order.is_multiple_of(2)));
                // A random SELECT list: a permutation prefix, now and then
                // with a repeated or an unbound variable.
                let mut select: Vec<String> = Vec::new();
                for _ in 0..picks {
                    let choices = if rng.next_below(12) == 0 { 5 } else { 4 };
                    select.push(names[rng.next_below(choices) as usize].to_string());
                }

                let want = reference_shape(&merged, order_by.as_ref(), &select, distinct, limit, &ds);
                let stage = stage_of(std::slice::from_ref(&merged));
                let got = shape_result(stage.view(), order_by.as_ref(), &select, distinct, limit, &ds, &IdBuffers::default());
                prop_assert_eq!(got, want);
            }
        }
    }

    /// The rank-segmented stage against the per-rank path it replaced,
    /// kept here as the oracle over [`RankRows`]: scan, exchange
    /// (barriered and streamed), join (keyed and cross), the FILTER/APPLY
    /// gathers, rebalance and the result gather, at 1, 3, 16 and 2048
    /// ranks, with ids past `u32::MAX` and wide columns holding only small
    /// ids. Every comparison is `==` on each rank's rows, their order and
    /// column widths, plus each rank's byte size and the moved bytes.
    /// (`ci.sh` runs `cargo test -p ids-core --release -- stage_layout`.)
    mod stage_layout {
        use super::*;
        use ids_graph::{Triple, TriplePattern};
        use ids_simrt::rng::SplitMix64;
        use proptest::prelude::*;

        const FULL: bool = !cfg!(debug_assertions);

        /// One rank's join, nested loops: each left row in order with every
        /// right row that agrees on the shared variables, in order.
        fn join_rows(left: &RankRows, right: &RankRows) -> RankRows {
            let shared: Vec<(usize, usize)> = (0..left.vars.len())
                .filter_map(|l| right.vars.iter().position(|v| *v == left.vars[l]).map(|r| (l, r)))
                .collect();
            let extra: Vec<usize> =
                (0..right.vars.len()).filter(|r| !shared.iter().any(|s| s.1 == *r)).collect();
            let vars: Arc<[String]> =
                left.vars.iter().chain(extra.iter().map(|&r| &right.vars[r])).cloned().collect();
            let mut out = RankRows::new(&vars);
            for l in &left.rows {
                for r in right.rows.iter().filter(|r| shared.iter().all(|&(a, b)| l[a] == r[b])) {
                    out.push_row(l.iter().copied().chain(extra.iter().map(|&k| r[k])).collect());
                }
            }
            out
        }

        /// The per-rank join: exchange both sides on the key
        /// `distributed_join` picks — the first shared variable a side is
        /// placed on, else the first shared one — or replicate the smaller
        /// side of a cross product, then join rank by rank. Exchanging a
        /// side already placed on the key leaves it as it is.
        fn per_rank_join(
            (left, left_placed): (&[RankRows], Option<&str>),
            (right, right_placed): (&[RankRows], Option<&str>),
        ) -> Vec<RankRows> {
            let ranks = left.len();
            let shared: Vec<&str> = left[0]
                .vars
                .iter()
                .filter(|v| right[0].vars.contains(v))
                .map(String::as_str)
                .collect();
            let key = [left_placed, right_placed]
                .into_iter()
                .flatten()
                .find(|p| shared.contains(p))
                .or(shared.first().copied());
            let (l, r) = if let Some(key) = key {
                (per_rank_repartition(left, key, 1).0, per_rank_repartition(right, key, 1).0)
            } else {
                let count = |s: &[RankRows]| s.iter().map(RankRows::len).sum::<usize>();
                let small_is_left = count(left) <= count(right);
                let small = if small_is_left { left } else { right };
                let mut merged = small[0].clone();
                small[1..].iter().for_each(|b| merged.append(b));
                let replicated = vec![merged; ranks];
                if small_is_left {
                    (replicated, right.to_vec())
                } else {
                    (left.to_vec(), replicated)
                }
            };
            l.iter().zip(&r).map(|(l, r)| join_rows(l, r)).collect()
        }

        /// The per-rank rebalance: surplus ranks `split_off` their tails,
        /// whose rows are `push_row`ed round-robin onto deficit ranks.
        fn per_rank_rebalance(
            mut sets: Vec<RankRows>,
            targets: &[u64],
        ) -> (Vec<RankRows>, Vec<u64>) {
            let mut surplus: Vec<Vec<u64>> = Vec::new();
            let mut moved = vec![0u64; sets.len()];
            for (r, set) in sets.iter_mut().enumerate() {
                if set.len() > targets[r] as usize {
                    let give = set.split_off(targets[r] as usize);
                    moved[r] = give.byte_size();
                    surplus.extend(give.rows);
                }
            }
            let deficits: Vec<usize> =
                (0..sets.len()).filter(|&r| sets[r].len() < targets[r] as usize).collect();
            if !deficits.is_empty() {
                let mut di = 0usize;
                'deal: for row in surplus {
                    let mut tried = 0;
                    while sets[deficits[di]].len() >= targets[deficits[di]] as usize {
                        di = (di + 1) % deficits.len();
                        tried += 1;
                        if tried > deficits.len() {
                            break 'deal;
                        }
                    }
                    sets[deficits[di]].push_row(row);
                    di = (di + 1) % deficits.len();
                }
            }
            (sets, moved)
        }

        /// One rank's scan, a triple at a time: the variables of `names`
        /// (subject, predicate, object; a repeated name is one column, bound
        /// where its positions agree), one row per agreeing triple.
        fn per_rank_scan(names: [Option<&str>; 3], triples: &[Triple]) -> RankRows {
            let mut vars: Vec<String> = Vec::new();
            let mut slot = [None; 3];
            for (pos, name) in names.iter().enumerate() {
                if let Some(n) = name {
                    let at = vars.iter().position(|v| v == n).unwrap_or(vars.len());
                    if at == vars.len() {
                        vars.push(n.to_string());
                    }
                    slot[pos] = Some(at);
                }
            }
            let mut out = RankRows::new(&vars.into());
            for t in triples {
                let mut row: Vec<Option<u64>> = vec![None; out.vars.len()];
                let agrees = [t.s, t.p, t.o].iter().zip(slot).all(|(id, at)| match at {
                    Some(at) => *row[at].get_or_insert(id.raw()) == id.raw(),
                    None => true,
                });
                if agrees {
                    out.push_row(row.into_iter().flatten().collect());
                }
            }
            out
        }

        /// Bind every rank's range into three parts, the ranks dealt to
        /// them in runs of uneven length as stealing workers take them,
        /// then assemble the stage — the engine's scan phase, unthreaded.
        fn scan_in_parts(schema: &gops::ScanSchema, ranges: &[&[Triple]]) -> StageBatch {
            let mut parts: Vec<StagePart> =
                (0..3).map(|_| StagePart::new(schema.vars().len())).collect();
            let spans: Vec<(usize, usize, usize)> = ranges
                .iter()
                .enumerate()
                .map(|(r, triples)| {
                    let p = (r / 5 + r / 11) % 3;
                    let (first, n) = gops::scan_into(schema, triples, &mut parts[p]);
                    (p, first, n)
                })
                .collect();
            StageBatch::assemble(schema.vars().clone(), parts, &spans, &IdBuffers::default())
                .unwrap()
        }

        fn ranks_axis() -> impl Strategy<Value = usize> {
            prop_oneof![Just(1usize), Just(3usize), Just(16usize), Just(2048usize)]
        }

        /// Rows per rank: fat at few ranks, a handful at 2048.
        fn max_rows(ranks: usize) -> usize {
            match (ranks, FULL) {
                (2048, _) => 3,
                (_, true) => 400,
                (_, false) => 40,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(if FULL { 96 } else { 12 }))]

            #[test]
            fn stage_round_trips_and_gathers_like_the_per_rank_batches(
                seed in 0u64..1_000_000,
                ranks in ranks_axis(),
                flags in 0u8..4,
            ) {
                let mut rng = SplitMix64::new(seed, 0x57a6);
                let sets = random_ranks(
                    &["a", "b", "c"], ranks, max_rows(ranks), 50, (flags & 1 != 0, flags & 2 != 0), &mut rng,
                );
                let stage = stage_of(&sets);

                // FILTER: a selection per rank, gathered once.
                let kept: Vec<Vec<u32>> = sets
                    .iter()
                    .map(|b| (0..b.len() as u32).filter(|_| rng.next_below(2) == 0).collect())
                    .collect();
                let starts = stage.rank_offsets();
                let global: Vec<u32> = kept
                    .iter()
                    .enumerate()
                    .flat_map(|(r, k)| k.iter().map(move |&i| i + starts[r]))
                    .collect();
                let offsets = offsets_from_counts(kept.iter().map(Vec::len)).unwrap();
                let filtered = stage.gather(&global, offsets.clone());
                let want: Vec<RankRows> = sets
                    .iter()
                    .zip(&kept)
                    .map(|(b, k)| RankRows::of(&b.vars, k.iter().map(|&i| b.rows[i as usize].clone())))
                    .collect();
                assert_stage(&filtered, &want);

                // APPLY: the kept rows plus one bound id each, pushed row by row.
                let ids: Vec<u64> = global.iter().map(|&i| u64::from(i) * 7 + (1 << 33) * u64::from(i % 5 == 0)).collect();
                let schema = schema(&["a", "b", "c", "e"]);
                let applied = stage.gather_with_column(&global, offsets, schema.clone(), &ids);
                let mut next = ids.iter();
                let want: Vec<RankRows> = sets
                    .iter()
                    .zip(&kept)
                    .map(|(b, k)| {
                        let mut out = RankRows::new(&schema);
                        for &i in k {
                            let mut row = b.rows[i as usize].clone();
                            row.push(*next.next().unwrap());
                            out.push_row(row);
                        }
                        out
                    })
                    .collect();
                assert_stage(&applied, &want);

                // The result gather reads every rank's rows appended to
                // rank 0's.
                let mut merged = sets[0].clone();
                sets[1..].iter().for_each(|b| merged.append(b));
                let all: Vec<usize> = (0..3).collect();
                let every: Vec<u32> = (0..merged.len() as u32).collect();
                let names = merged.vars.to_vec();
                assert_eq!(stage.view().select_rows(names, &all, &every), merged.to_set());
                assert_eq!(stage.merged_byte_size(), merged.byte_size());
            }

            #[test]
            fn scan_stage_equals_the_per_rank_scans(
                seed in 0u64..1_000_000,
                ranks in ranks_axis(),
                shape in 0u8..5,
                big in any::<bool>(),
            ) {
                let mut rng = SplitMix64::new(seed, 0x5ca7);
                let term = |rng: &mut SplitMix64, domain: u64| {
                    let v = rng.next_below(domain);
                    TermId(if big && v.is_multiple_of(4) { v + (1 << 32) } else { v })
                };
                let shards: Vec<Vec<Triple>> = (0..ranks)
                    .map(|_| {
                        let n = rng.next_below(max_rows(ranks) as u64 + 1);
                        let mut triple =
                            || Triple::new(term(&mut rng, 6), term(&mut rng, 3), term(&mut rng, 6));
                        (0..n).map(|_| triple()).collect()
                    })
                    .collect();
                let ranges: Vec<&[Triple]> = shards.iter().map(Vec::as_slice).collect();
                let pat = TriplePattern::new(None, None, None);
                let (s, p, o) = [
                    (Some("s"), None, Some("o")),
                    (Some("x"), Some("p"), Some("x")),
                    (None, None, Some("o")),
                    (None, None, None),
                    (Some("s"), Some("p"), Some("o")),
                ][shape as usize];
                let schema = gops::scan_schema(&pat, s, p, o);
                let want: Vec<RankRows> = ranges.iter().map(|t| per_rank_scan([s, p, o], t)).collect();
                assert_stage(&scan_in_parts(&schema, &ranges), &want);
            }

            #[test]
            fn exchange_and_join_equal_the_per_rank_path(
                seed in 0u64..1_000_000,
                ranks in ranks_axis(),
                flags in 0u8..16,
                keys in 0usize..=2,
                domain in 1u64..=60,
                // Each side placed on none of its variables, or on one.
                placed in (0usize..=3, 0usize..=3),
            ) {
                let mut rng = SplitMix64::new(seed, 0xe7c4);
                let (lvars, rvars): (&[&str], &[&str]) = match keys {
                    0 => (&["a", "l"], &["b"]),
                    1 => (&["l", "k"], &["k", "r"]),
                    _ => (&["k", "l", "j"], &["j", "r", "k"]),
                };
                // A cross product's output is the product of its inputs.
                let rows = if keys == 0 { max_rows(ranks).min(12) } else { max_rows(ranks) };
                let mut side = |vars: &[&'static str], bits: u8, pick: usize| {
                    let sets = random_ranks(vars, ranks, rows, domain, (bits & 1 != 0, bits & 2 != 0), &mut rng);
                    match pick.checked_sub(1).and_then(|i| vars.get(i)) {
                        Some(&v) => (per_rank_repartition(&sets, v, 1).0, Some(v)),
                        None => (sets, None),
                    }
                };
                let (left, lp) = side(lvars, flags, placed.0);
                let (right, rp) = side(rvars, flags >> 2, placed.1);
                let (lstage, rstage) = (stage_of(&left), stage_of(&right));

                if keys > 0 {
                    let key = lvars.iter().find(|v| rvars.contains(v)).copied().unwrap();
                    let (want, _) = per_rank_repartition(&left, key, 1);
                    assert_stage(&repartition_by_vars(&lstage, key, &IdBuffers::default()).unwrap(), &want);
                    for batch_rows in [1usize, 3, 4096] {
                        let (want, want_bytes) = per_rank_repartition(&left, key, batch_rows);
                        let (got, got_bytes) = repartition_streamed(&lstage, key, batch_rows, &IdBuffers::default()).unwrap();
                        assert_stage(&got, &want);
                        assert_eq!(got_bytes, want_bytes);
                    }
                }

                let want = per_rank_join((&left, lp), (&right, rp));
                let mut cluster = Cluster::new(
                    ids_simrt::Topology::new(1, ranks as u32),
                    ids_simrt::NetworkModel::slingshot(),
                    1,
                );
                let (got, got_placed) = distributed_join(
                    &mut cluster,
                    (lstage, lp.map(str::to_string)),
                    (rstage, rp.map(str::to_string)),
                    &ExecOptions::default(),
                    &MetricsRegistry::new(),
                    &vec![0.0; ranks],
                    &mut ExchangeTally::default(),
                    &IdBuffers::default(),
                )
                .unwrap();
                assert_stage(&got, &want);
                // The output really is placed where the join says.
                if let Some(v) = &got_placed {
                    let c = got.var_index(v).unwrap();
                    for r in 0..ranks {
                        for row in RankRows::segment(&got, r).rows {
                            prop_assert_eq!(placement(TermId(row[c]), ranks), r);
                        }
                    }
                }
                // A key join is placed on a shared variable, a cross
                // product where its unbroadcast side was.
                if keys == 0 {
                    let count = |s: &[RankRows]| s.iter().map(RankRows::len).sum::<usize>();
                    let kept = if count(&left) <= count(&right) { rp } else { lp };
                    prop_assert_eq!(got_placed.as_deref(), kept);
                } else {
                    let v = got_placed.as_deref().unwrap();
                    prop_assert!(lvars.contains(&v) && rvars.contains(&v));
                }
            }

            #[test]
            fn rebalance_equals_split_off_and_push_row(
                seed in 0u64..1_000_000,
                ranks in ranks_axis(),
                flags in 0u8..4,
                plan in 0u8..3,
            ) {
                let mut rng = SplitMix64::new(seed, 0x4eba);
                let sets = random_ranks(
                    &["a", "b"], ranks, max_rows(ranks), 40, (flags & 1 != 0, flags & 2 != 0), &mut rng,
                );
                let total: u64 = sets.iter().map(|b| b.len() as u64).sum();
                // Count-based, throughput-based from random rates, or any
                // split of the rows — every one splits some ranks' rows.
                let targets: Vec<u64> = match plan {
                    0 => plan_count_based(total, ranks).targets,
                    1 => {
                        let rates: Vec<f64> =
                            (0..ranks).map(|_| 1.0 + rng.next_below(1000) as f64).collect();
                        plan_throughput_based(total, &rates).targets
                    }
                    _ => {
                        let mut t = vec![0u64; ranks];
                        for _ in 0..total {
                            t[rng.next_below(ranks as u64) as usize] += 1;
                        }
                        t
                    }
                };
                let stage = stage_of(&sets);
                let (want, want_moved) = per_rank_rebalance(sets, &targets);
                let (got, got_moved) = stage.rebalance(&targets).unwrap();
                assert_stage(&got, &want);
                assert_eq!(got_moved, want_moved);
            }
        }
    }
}
