//! FILTER and APPLY stages: per-rank plans from the UDF profiles (§2.4.2
//! throughput estimates, §2.4.3 conjunct orders), the re-balance before
//! the stage, and the per-rank evaluation with bounded row retries,
//! graceful degradation and the stage deadline.

use super::exchange::{close_phase, BatchMeter};
use super::options::{
    BATCH_DISPATCH_SECS, BATCH_ROWS, EVAL_SECS_PER_ROW, RETRY_BACKOFF_SECS, ROW_RETRIES,
    UDF_REJECTION_PRIOR,
};
use super::{
    stage_overflow, DegradedKind, ErrorAnnotation, ExecError, ExecOptions, RebalanceMode,
    RecoveryReport,
};
use crate::binding::RowBindings;
use ids_cache::CacheManager;
use ids_graph::stage::offsets_from_counts;
use ids_graph::{Dictionary, StageBatch, TermId};
use ids_obs::MetricsRegistry;
use ids_simrt::pool::map_shards_with;
use ids_simrt::sync::lock;
use ids_simrt::{Cluster, Fanout, RankId, SpeculationReport};
use ids_udf::expr::EvalCtx;
use ids_udf::{
    order_by_udfs, plan_count_based, plan_throughput_based, ArgMemo, EvalError, Expr, ProfileRow,
    ProfileRowMut, ProfileTable, UdfRegistry, UdfValue,
};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

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

/// Render a panic payload (from [`catch_unwind`]) for an error message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    let text = payload.downcast_ref::<String>().map(String::as_str);
    payload.downcast_ref::<&str>().copied().or(text).unwrap_or("non-string panic payload")
}

/// How much of [`EVAL_SECS_PER_ROW`] batching amortizes away: a
/// FILTER/APPLY row costs `EVAL_SECS_PER_ROW / EVAL_AMORTIZATION` outside
/// its UDFs. UDF virtual costs are never amortized — the model's work is
/// the same however rows are dispatched.
const EVAL_AMORTIZATION: f64 = 8.0;

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

/// Re-balance solutions before a UDF stage per [`ExecOptions::rebalance`]:
/// move rows from surplus to deficit ranks round-robin
/// ([`StageBatch::rebalance`]) and charge the exchange. `rates` yields
/// each rank's throughput estimate when the mode needs it. Returns the
/// placed rows and the virtual seconds the exchange took — which the
/// caller books to
/// [`StageBreakdown::rebalance_secs`](super::StageBreakdown::rebalance_secs),
/// not to the stage.
fn maybe_rebalance(
    cluster: &mut Cluster,
    solutions: StageBatch,
    rates: impl FnOnce() -> Vec<f64>,
    opts: &ExecOptions,
    metrics: &MetricsRegistry,
) -> Result<(StageBatch, f64), ExecError> {
    let total = solutions.len() as u64;
    let plan = match opts.rebalance {
        _ if total == 0 => return Ok((solutions, 0.0)),
        RebalanceMode::None => return Ok((solutions, 0.0)),
        RebalanceMode::CountBased => {
            metrics.counter_with("ids_engine_rebalances_total", "mode", "count").inc();
            plan_count_based(total, solutions.ranks())
        }
        RebalanceMode::ThroughputBased => {
            metrics.counter_with("ids_engine_rebalances_total", "mode", "throughput").inc();
            let rates = rates();
            // Exchanging the per-rank estimates is an allreduce-sized
            // collective.
            cluster.allgather_cost(8);
            plan_throughput_based(total, &rates)
        }
    };
    let t0 = cluster.elapsed();
    // Each shipping rank's exact wire size — not a bytes-per-cell guess —
    // so the exchange collective is charged for the measured column bytes.
    let (placed, moved_bytes) = solutions.rebalance(&plan.targets).ok_or_else(stage_overflow)?;
    cluster.alltoallv_cost(&moved_bytes);
    Ok((placed, cluster.elapsed() - t0))
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
    recovery.speculation.merge(spec);
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
/// once [`ROW_RETRIES`] extra attempts are exhausted. Backoff between
/// attempts is charged to the rank (`charge`) so retries consume virtual
/// time like everything else.
fn retry_row<T>(
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
                if attempt > ROW_RETRIES {
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
    /// The error the rank stopped with when it ran out of its stage
    /// deadline; it comes after every one in `errors`.
    deadline: Option<String>,
    annotations: Vec<ErrorAnnotation>,
    batches: usize,
}

/// A FILTER or APPLY stage as [`PlanRun::step_udf`](super::PlanRun) runs
/// it.
#[derive(Clone, Copy)]
pub(super) enum UdfStage<'a> {
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
pub(super) struct UdfStageCx<'a> {
    pub(super) cluster: &'a mut Cluster,
    pub(super) dict: &'a Dictionary,
    pub(super) registry: &'a UdfRegistry,
    pub(super) profiles: &'a mut ProfileTable,
    pub(super) memo: &'a ArgMemo,
    pub(super) opts: &'a ExecOptions,
    pub(super) cache: Option<&'a CacheManager>,
    pub(super) metrics: &'a MetricsRegistry,
    pub(super) annotations: &'a mut Vec<ErrorAnnotation>,
    pub(super) recovery: &'a mut RecoveryReport,
}

impl UdfStage<'_> {
    /// Run the stage over `solutions`: the rows it keeps (with an APPLY's
    /// output bound) and the virtual seconds spent re-balancing.
    pub(super) fn run(
        self,
        cx: &mut UdfStageCx<'_>,
        solutions: StageBatch,
    ) -> Result<(StageBatch, f64), ExecError> {
        match self {
            UdfStage::Filter(expr, label) => run_filter_stage(cx, solutions, expr, label),
            UdfStage::Apply { udf, args, bind_as } => {
                run_apply_stage(cx, solutions, udf, args, bind_as)
            }
        }
    }
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
/// Worker panics are retried per row ([`ROW_RETRIES`]); with
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
    // Each column's prepared UDF resolved once, here, for every row.
    let memo = memo.stage(registry, &staged);
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
        let mut deadline = None;
        let mut deg = RankDegradation::default();
        // A row poisoned by a panicking worker belongs to a failed stage,
        // which never commits its profiles.
        let mut profile = lock(&rows[r]);

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
                    deadline = Some(format!(
                        "rank {r} {label} stage exceeded its {:.6}s deadline \
                         with {remaining} rows unprocessed",
                        opts.stage_deadline_secs
                    ));
                }
                break;
            }
            let bindings = RowBindings::at(input, i, dict);
            let verdict = retry_row(
                &fault_ctrs,
                |secs| {
                    ctx.charge(secs);
                    spent += secs;
                },
                || {
                    let mut ecx = EvalCtx::new(registry, profile.reborrow()).with_memo(&memo);
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
            deadline,
            annotations: deg.into_annotations(label, r, opts.stage_deadline_secs),
            batches,
        }
    });
    batch_meter
        .record(parts.iter().enumerate().map(|(r, p)| (solutions.segment(r).len(), p.batches)));
    note_speculation(cx.recovery, metrics, &spec);
    close_phase(cx.cluster, opts);

    // Any error fails the stage with the first one in rank order (and the
    // total count) — a stage deadline error if that first one is a rank's
    // deadline; otherwise the annotations join the run's.
    let mut failures = parts.iter().flat_map(|p| {
        p.errors.iter().map(|e| (e, false)).chain(p.deadline.iter().map(|e| (e, true)))
    });
    if let Some((first, deadline)) = failures.next() {
        let text = format!("{first} ({} total failures)", 1 + failures.count());
        return Err(if deadline { ExecError::StageDeadline(text) } else { ExecError::msg(text) });
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

    #[test]
    fn current_rank_defaults_to_zero_off_engine_threads() {
        assert_eq!(current_rank(), RankId(0));
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
}
