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
//! recorded here is exactly what Figures 4(a), 4(b), and 5 plot. This
//! module is the stage driver, [`PlanRun`]; each submodule owns one
//! decision: `exchange` (moving rows, the one place BSP and pipelined
//! mode differ), `udf_stage`, `checkpoint` (reuse and recovery), `gather`,
//! `options` and `outcome`.

mod checkpoint;
mod exchange;
mod gather;
mod options;
mod outcome;
#[cfg(test)]
mod test_support;
mod udf_stage;

pub use checkpoint::{ReuseCheckpoint, ReusePlan};
pub use exchange::repartition_by_vars;
pub use gather::shape_result;
pub use options::{ExecOptions, RebalanceMode};
pub use outcome::{
    AdaptiveReport, DegradedKind, ErrorAnnotation, ExecError, QueryOutcome, RecoveryReport,
    StageBreakdown,
};
pub use udf_stage::current_rank;

use crate::datastore::Datastore;
use crate::planner::{PhysicalPattern, PhysicalPlan, PhysicalStage};
use checkpoint::{phase_after_ordinal, stage_ordinal, NEXT_RUN_ID};
use exchange::{close_phase, distributed_join, ExchangeTally};
use ids_cache::CacheManager;
use ids_graph::ops as gops;
use ids_graph::stage::{offsets_from_counts, IdBuffers, StagePart};
use ids_graph::StageBatch;
use ids_obs::MetricsRegistry;
use ids_simrt::{Cluster, Fanout};
use ids_udf::{ArgMemo, ProfileTable, UdfRegistry};
use outcome::divergence_ratio;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use udf_stage::{UdfStage, UdfStageCx};

/// Lock a rank's stage profile row even if a panicking worker poisoned it:
/// a poisoned row belongs to a stage that failed, and a failed stage
/// never commits its profiles. Poisoning must not turn a reportable
/// query error into an executor crash.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
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

/// What one [`PlanRun::step`] runs against, borrowed for the call: the
/// cluster, the datastore, the UDFs with every rank's profile and the
/// instance's prepared arguments, the metrics, and the attached cache.
struct StepCx<'a> {
    cluster: &'a mut Cluster,
    ds: &'a Datastore,
    registry: &'a UdfRegistry,
    profiles: &'a mut ProfileTable,
    memo: &'a ArgMemo,
    metrics: &'a MetricsRegistry,
    cache: Option<&'a CacheManager>,
    /// The cluster's rank count.
    ranks: usize,
}

impl StepCx<'_> {
    /// Book an operator stage that ran from `start` to `end`: one sample
    /// in the per-stage duration histogram and a virtual-clock span. Then
    /// give the attached cache a chance to run its anti-entropy pass.
    /// Stage boundaries are the only place that pass runs: they are
    /// single-threaded points between `cluster.execute` fan-outs, so the
    /// scrub's per-node draw streams are consumed in a fixed order
    /// regardless of how rank closures interleaved inside the stage —
    /// determinism is preserved.
    fn finish_stage(&self, stage: &'static str, start: f64, end: f64, detail: String) {
        let metrics = self.metrics;
        metrics.histogram_with("ids_engine_stage_secs", "stage", stage).observe(end - start);
        metrics.spans().record(stage, detail, start, end);
        let Some(cache) = self.cache else { return };
        // Ticks count *offered* boundaries; the cache's own
        // `ids_cache_anti_entropy_runs_total` counts passes that actually ran.
        metrics.counter("ids_engine_anti_entropy_ticks_total").inc();
        if let Some(report) = cache.maybe_anti_entropy().filter(|r| !r.is_noop()) {
            let detail = format!(
                "re_replicated {} backing_repairs {} corruptions {}",
                report.re_replicated, report.backing_repairs, report.corruptions
            );
            metrics.spans().record("anti_entropy", detail, end, end);
        }
    }
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
        let cx = &mut StepCx { cluster, ds, registry, profiles, memo, metrics, cache, ranks };
        if !self.started {
            self.begin(cx)?;
        }
        if self.opts.recovery {
            self.step_recovering(cx)
        } else {
            self.step_inner(cx)
        }
    }

    /// One stage of the pipeline, with no recovery interposition.
    fn step_inner(&mut self, cx: &mut StepCx<'_>) -> Result<StepOutcome, ExecError> {
        match self.phase {
            RunPhase::Pattern(i) => self.step_pattern(i, cx)?,
            RunPhase::WhereFilter => self.step_udf(None, cx)?,
            RunPhase::Stage(i) => self.step_udf(Some(i), cx)?,
            RunPhase::Gather => return Ok(StepOutcome::Done(Box::new(self.step_gather(cx)?))),
            RunPhase::Done => return Err(ExecError::msg("step called on a completed plan run")),
        }
        Ok(self.stage_outcome())
    }

    /// Non-terminal step result: [`StepOutcome::Replanned`] when the stage
    /// just stepped triggered a mid-query re-plan,
    /// [`StepOutcome::BatchReady`] when it streamed batches over exchange
    /// channels (only pipelined mode does), else [`StepOutcome::Pending`].
    /// Drains the per-stage tally either way (a re-planning stage still
    /// moved its exchange data).
    fn stage_outcome(&mut self) -> StepOutcome {
        let tally = std::mem::take(&mut self.exchange_tally);
        if let Some((at_pattern, reordered)) = self.pending_replan.take() {
            return StepOutcome::Replanned { at_pattern, reordered };
        }
        if tally.batches > 0 {
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

    fn begin(&mut self, cx: &mut StepCx<'_>) -> Result<(), ExecError> {
        // Precondition violations are reportable errors, not panics: under
        // the concurrent service driver a misconfigured client must not
        // take the process down.
        let ranks = cx.ranks;
        if cx.profiles.ranks() != ranks {
            return Err(ExecError::msg(format!(
                "one profile row per rank required: {} rows for {ranks} ranks",
                cx.profiles.ranks()
            )));
        }
        if cx.ds.num_shards() != ranks {
            return Err(ExecError::msg(format!(
                "datastore sharding must match the cluster: {} shards for {ranks} ranks",
                cx.ds.num_shards()
            )));
        }
        self.started = true;
        self.t0 = cx.cluster.elapsed();
        cx.metrics.counter("ids_engine_queries_total").inc();
        if self.opts.recovery {
            // A restart-from-scratch must replay the profiles the first
            // attempt started with: profiles persist across queries and
            // drive rebalance placement, so re-running with evolved
            // profiles would reorder rows.
            self.profile_snapshot = Some(cx.profiles.clone());
        }
        self.probe_reuse(cx);
        Ok(())
    }

    fn step_pattern(&mut self, i: usize, cx: &mut StepCx<'_>) -> Result<(), ExecError> {
        let ranks = cx.ranks;
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
                let scan_start = cx.cluster.elapsed();
                // The scan is the producing window of the join exchange
                // below: in pipelined mode batches stream out as each
                // rank's scan progresses, so snapshot the per-rank clocks
                // before the phase starts.
                let produce_start = cx.cluster.clocks().to_vec();
                let buffers = &self.buffers;
                let scanned = {
                    let graph = cx.ds.graph();
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
                    let (spans, parts, _) = cx.cluster.execute_with_state(
                        false,
                        Fanout::Host,
                        init,
                        |(w, part), ctx| {
                            let triples = graph.candidates(ctx.rank().index(), &pat.pattern);
                            ctx.charge(1.0e-5 + triples.len() as f64 * opts.scan_secs_per_triple);
                            part.reserve(triples.len(), buffers);
                            let (first, n) = gops::scan_into(&schema, triples, part);
                            (*w, first, n)
                        },
                    );
                    let parts = parts.into_iter().map(|(_, part)| part).collect();
                    StageBatch::assemble(schema.vars().clone(), parts, &spans, buffers)
                        .ok_or_else(stage_overflow)?
                };
                // Under BSP the world syncs before the exchange; pipelined
                // mode lets the exchange impose only real per-channel
                // dependencies.
                close_phase(cx.cluster, &opts);
                let scan_end = cx.cluster.elapsed();
                self.breakdown.scan_secs += scan_end - scan_start;
                cx.finish_stage("scan", scan_start, scan_end, format!("{} rows", scanned.len()));

                // The store placed each triple by its subject, so the scan's
                // rows are placed on the subject variable.
                let scan_placed = pat.var_s.clone();
                let (stage, placed) = match self.sets.take() {
                    None => (scanned, scan_placed),
                    Some(existing) => {
                        let join_start = cx.cluster.elapsed();
                        let joined = distributed_join(
                            cx.cluster,
                            (existing, self.placed.take()),
                            (scanned, scan_placed),
                            &self.opts,
                            cx.metrics,
                            &produce_start,
                            &mut self.exchange_tally,
                            &self.buffers,
                        )?;
                        let join_end = cx.cluster.elapsed();
                        self.breakdown.join_secs += join_end - join_start;
                        let detail = format!("{} rows", joined.0.len());
                        cx.finish_stage("join", join_start, join_end, detail);
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
        self.note_boundary(format!("pattern{i}"), est, observed, cx.metrics);
        if self.opts.adaptive && i + 2 < self.plan.patterns.len() {
            let ratio = divergence_ratio(est, observed);
            if observed.max(est) >= self.opts.replan_min_rows && ratio > self.opts.replan_ratio {
                self.replan_from(i, observed, ratio, cx.metrics, cx.cluster.elapsed());
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
            self.store_reuse_checkpoint(0, cx);
            self.phase = RunPhase::WhereFilter;
        }
        Ok(())
    }

    /// Run the WHERE filter (`stage` `None`) or FILTER/APPLY stage
    /// `stage`, book it — its virtual seconds, less re-balancing, to the
    /// breakdown, its span, an anti-entropy tick where it ends — and
    /// checkpoint what it kept.
    fn step_udf(&mut self, stage: Option<usize>, cx: &mut StepCx<'_>) -> Result<(), ExecError> {
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
            let t = cx.cluster.elapsed();
            let mut ucx = UdfStageCx {
                cluster: &mut *cx.cluster,
                dict: cx.ds.dictionary(),
                registry: cx.registry,
                profiles: &mut *cx.profiles,
                memo: cx.memo,
                opts: &self.opts,
                cache: cx.cache,
                metrics: cx.metrics,
                annotations: &mut self.annotations,
                recovery: &mut self.recovery,
            };
            let (out, rebalance) = udf_stage.run(&mut ucx, solutions)?;
            let end = cx.cluster.elapsed();
            self.breakdown.rebalance_secs += rebalance;
            let spent = end - t - rebalance;
            let kept = out.len();
            match udf_stage {
                UdfStage::Filter(..) => {
                    self.breakdown.filter_secs += spent;
                    cx.finish_stage("filter", t, end, format!("{kept} rows kept"));
                }
                UdfStage::Apply { udf, .. } => {
                    *self.breakdown.apply_secs.entry(udf.to_string()).or_insert(0.0) += spent;
                    cx.finish_stage("apply", t, end, udf.to_string());
                }
            }
            self.sets = Some(out);
            if stage.is_none() {
                let (est, actual) = (plan.est_where_rows, kept as u64);
                self.note_boundary("where".to_string(), est, actual, cx.metrics);
            }
            self.store_reuse_checkpoint(ordinal, cx);
        }
        self.phase = phase_after_ordinal(ordinal, &plan);
        Ok(())
    }

    fn step_gather(&mut self, cx: &mut StepCx<'_>) -> Result<QueryOutcome, ExecError> {
        let solutions = self.sets.take().ok_or_else(|| missing_stage("gather"))?;
        let gather_start = cx.cluster.elapsed();
        // Exact columnar wire bytes of every rank's rows — the same formula
        // the cache accounting uses — so the gather collective is charged
        // for what would really cross the network.
        let total_bytes = solutions.byte_size();
        cx.cluster.allgather_cost(total_bytes / cx.ranks.max(1) as u64);
        let gather_end = cx.cluster.elapsed();
        self.breakdown.gather_secs = gather_end - gather_start;
        cx.finish_stage("gather", gather_start, gather_end, format!("{total_bytes} bytes"));

        // The stage is already every rank's rows in rank order: the merged
        // batch the result is shaped from.
        let plan = &self.plan;
        let gathered = shape_result(
            solutions.view(),
            plan.order_by.as_ref(),
            &plan.select,
            plan.distinct,
            plan.limit,
            cx.ds,
            &self.buffers,
        )?;

        let (metrics, now) = (cx.metrics, cx.cluster.elapsed());
        let elapsed_secs = now - self.t0;
        metrics.histogram("ids_engine_query_secs").observe(elapsed_secs);
        metrics.spans().record("query", format!("{} solutions", gathered.len()), self.t0, now);
        let annotations = std::mem::take(&mut self.annotations);
        if !annotations.is_empty() {
            metrics.counter("ids_engine_degraded_queries_total").inc();
            let dropped: u64 = annotations.iter().map(|a| a.rows_dropped).sum();
            metrics.spans().record(
                "degraded",
                format!("{} annotations, {dropped} rows dropped", annotations.len()),
                self.t0,
                now,
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
