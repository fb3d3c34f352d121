//! Query plan explanation.
//!
//! Renders a [`PhysicalPlan`] the way `EXPLAIN` does in mature engines:
//! join order with cardinality estimates, the FILTER conjunction in the
//! order the *aggregate* profile would evaluate it (each rank may still
//! deviate per its own profile, §2.4.3), per-conjunct cost/selectivity
//! estimates, and the post-WHERE stages.

use crate::planner::{PhysicalPlan, PhysicalStage};
use ids_obs::MetricsSnapshot;
use ids_udf::expr::CmpOp;
use ids_udf::reorder::estimate_conjunct;
use ids_udf::{order_conjuncts, Expr, ProfileRow, UdfValue};

fn render_value(v: &UdfValue) -> String {
    format!("{v}")
}

/// Render an expression in IQL-ish surface syntax.
pub fn render_expr(e: &Expr) -> String {
    match e {
        Expr::Const(v) => render_value(v),
        Expr::Var(v) => format!("?{v}"),
        Expr::Cmp(op, a, b) => {
            let sym = match op {
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
                CmpOp::Eq => "==",
                CmpOp::Ne => "!=",
            };
            format!("{} {sym} {}", render_expr(a), render_expr(b))
        }
        Expr::And(es) => es.iter().map(render_expr).collect::<Vec<_>>().join(" && "),
        Expr::Or(es) => {
            format!("({})", es.iter().map(render_expr).collect::<Vec<_>>().join(" || "))
        }
        Expr::Not(inner) => format!("!({})", render_expr(inner)),
        Expr::Udf { name, args } => {
            format!("{name}({})", args.iter().map(render_expr).collect::<Vec<_>>().join(", "))
        }
    }
}

/// Produce the EXPLAIN text for a plan, using `profiler` (typically the
/// merged row of the instance's profile table) for cost/selectivity
/// annotations.
pub fn explain(plan: &PhysicalPlan, profiler: ProfileRow<'_>) -> String {
    let mut out = String::new();
    out.push_str("QUERY PLAN\n");

    out.push_str("  patterns (join order, est. cardinality):\n");
    for (i, p) in plan.patterns.iter().enumerate() {
        let pos = |v: &Option<String>, bound: Option<ids_graph::TermId>| match (v, bound) {
            (Some(var), _) => format!("?{var}"),
            (None, Some(id)) => format!("{id}"),
            (None, None) => "?".into(),
        };
        out.push_str(&format!(
            "    {i}. [{} {} {}]  ~{} rows{}\n",
            pos(&p.var_s, p.pattern.s),
            pos(&p.var_p, p.pattern.p),
            pos(&p.var_o, p.pattern.o),
            p.est_cardinality,
            if p.impossible { "  (IMPOSSIBLE: unknown ground term)" } else { "" }
        ));
    }

    // Cost-model predictions for the same boundaries the engine checks at
    // run time (`ids_adaptive_*` gauges render under "estimated vs actual"
    // in `explain_with_metrics` once a query has executed).
    if let Some(&after_joins) = plan.est_rows_after.last() {
        out.push_str(&format!("    est. rows: ~{after_joins} after joins"));
        if plan.where_filter.is_some() {
            out.push_str(&format!(", ~{} after WHERE", plan.est_where_rows));
        }
        out.push('\n');
    }

    if let Some(Expr::And(conjuncts)) = &plan.where_filter {
        out.push_str("  filter (profile-ordered conjuncts):\n");
        let order = order_conjuncts(conjuncts, profiler, |_| 0.5, 0.5);
        let mut chain_cost = 0.0;
        let mut survive = 1.0;
        for &i in &order {
            let est = estimate_conjunct(&conjuncts[i], profiler, |_| 0.5, 0.5);
            out.push_str(&format!(
                "    - {}   (est {:.4}s/eval, rejects {:.0}%)\n",
                render_expr(&conjuncts[i]),
                est.cost,
                est.rejection * 100.0
            ));
            // Short-circuit expectation: later conjuncts only run on the
            // fraction of solutions the earlier ones let through.
            chain_cost += survive * est.cost;
            survive *= 1.0 - est.rejection;
        }
        out.push_str(&format!(
            "    expected chain cost: {chain_cost:.4}s/solution (pass rate {:.1}%)\n",
            survive * 100.0
        ));
    } else if let Some(f) = &plan.where_filter {
        out.push_str(&format!("  filter: {}\n", render_expr(f)));
    }

    for stage in &plan.stages {
        match stage {
            PhysicalStage::Apply { udf, args, bind_as } => {
                let cost = profiler.estimated_cost(udf, 0.5);
                out.push_str(&format!(
                    "  apply: {udf}({}) AS ?{bind_as}   (est {cost:.3}s/row)\n",
                    args.iter().map(render_expr).collect::<Vec<_>>().join(", ")
                ));
            }
            PhysicalStage::Filter(e) => {
                out.push_str(&format!("  stage-filter: {}\n", render_expr(e)));
            }
        }
    }

    if let Some((var, desc)) = &plan.order_by {
        out.push_str(&format!("  order by: ?{var} {}\n", if *desc { "DESC" } else { "ASC" }));
    }
    if plan.distinct {
        out.push_str("  distinct\n");
    }
    if plan.select.is_empty() {
        out.push_str("  project: *\n");
    } else {
        out.push_str(&format!(
            "  project: {}\n",
            plan.select.iter().map(|v| format!("?{v}")).collect::<Vec<_>>().join(" ")
        ));
    }
    if let Some(l) = plan.limit {
        out.push_str(&format!("  limit: {l}\n"));
    }
    out
}

/// EXPLAIN with the instance's live metric snapshot appended: operator
/// timing histograms, cache hit ratio, and §2.4.3 reorder decisions from
/// queries executed so far. An instance that has run nothing renders a
/// placeholder instead of an empty block.
pub fn explain_with_metrics(
    plan: &PhysicalPlan,
    profiler: ProfileRow<'_>,
    snapshot: &MetricsSnapshot,
) -> String {
    let mut out = explain(plan, profiler);
    out.push_str("  metrics (live, virtual time):\n");
    if snapshot.is_empty() {
        out.push_str("    (no metrics recorded)\n");
        return out;
    }

    let mut any_stage = false;
    for (key, hist) in &snapshot.histograms {
        if key.name != "ids_engine_stage_secs" || hist.count == 0 {
            continue;
        }
        any_stage = true;
        out.push_str(&format!(
            "    {} : {} runs, mean {:.6}s, max {:.6}s\n",
            key.label_value,
            hist.count,
            hist.mean(),
            hist.max
        ));
    }
    if !any_stage {
        out.push_str("    (no operator timings yet)\n");
    }

    // A lookup is a hit when a cache tier served it; "backing" fetches
    // and outright misses both went past the cache.
    let hits: u64 = snapshot
        .counters
        .iter()
        .filter(|(k, _)| k.name == "ids_cache_lookup_hits_total" && k.label_value != "backing")
        .map(|(_, v)| *v)
        .sum();
    let backing = snapshot.counter("ids_cache_lookup_hits_total", "backing");
    let misses = snapshot.counter("ids_cache_lookup_misses_total", "");
    let lookups = hits + misses + backing;
    if lookups > 0 {
        out.push_str(&format!(
            "    cache: {hits} hits / {lookups} lookups ({:.1}% hit ratio)\n",
            hits as f64 / lookups as f64 * 100.0
        ));
    }

    let prepared_hits = snapshot.counter("ids_prepared_hits_total", "");
    let prepares = prepared_hits + snapshot.counter("ids_prepared_misses_total", "");
    if prepares > 0 {
        out.push_str(&format!(
            "    prepared queries: {prepared_hits} hits / {prepares} prepares, {} cached, \
             {} evicted, {} dropped stale\n",
            snapshot.gauge("ids_prepared_entries", ""),
            snapshot.counter("ids_prepared_evictions_total", ""),
            snapshot.counter("ids_prepared_stale_total", ""),
        ));
    }

    let reordered = snapshot.counter("ids_engine_reorder_decisions_total", "reordered");
    let kept = snapshot.counter("ids_engine_reorder_decisions_total", "kept");
    if reordered + kept > 0 {
        out.push_str(&format!(
            "    conjunct reordering: {reordered} reordered, {kept} kept as written\n"
        ));
    }

    // Distinct arguments the instance's memo holds for a prepared UDF,
    // every prepared position's together (each prepared once, for the
    // instance's life), over the calls its rows made.
    let prepared: Vec<String> = snapshot
        .counters
        .iter()
        .filter(|(k, _)| k.name == "ids_udf_prepares_total")
        .map(|(k, n)| {
            let calls = profiler.get(&k.label_value).map_or(0, |p| p.calls);
            format!("{} {n} / {calls} calls", k.label_value)
        })
        .collect();
    if !prepared.is_empty() {
        out.push_str(&format!(
            "    prepared args (kept by the instance): {}\n",
            prepared.join(", ")
        ));
    }

    render_adaptive_block(&mut out, snapshot);
    render_columnar_block(&mut out, snapshot);
    render_exchange_block(&mut out, snapshot);
    render_fault_block(&mut out, snapshot);
    render_replication_block(&mut out, snapshot);
    render_service_block(&mut out, snapshot);
    render_recovery_block(&mut out, snapshot);
    render_cache_tiers_block(&mut out, snapshot);
    out
}

/// Append the adaptive-planning block when any stage-boundary cardinality
/// check has fired: per-operator *estimated vs actual* row counts from the
/// most recent run (gauges, so they reflect the latest boundary crossing)
/// plus the mid-query re-optimization tally. Instances that have executed
/// nothing render nothing here, keeping baseline EXPLAIN output unchanged.
fn render_adaptive_block(out: &mut String, snapshot: &MetricsSnapshot) {
    let checks = snapshot.counter("ids_adaptive_checks_total", "");
    if checks == 0 {
        return;
    }
    out.push_str("  adaptive (estimated vs actual, latest run):\n");
    let actual = snapshot.gauge_series("ids_adaptive_actual_rows");
    let mut rows: Vec<(&str, i64, i64)> = snapshot
        .gauge_series("ids_adaptive_est_rows")
        .into_iter()
        .map(|(label, est)| {
            let act = actual.iter().find(|(l, _)| *l == label).map_or(0, |&(_, v)| v);
            (label, est, act)
        })
        .collect();
    // Pattern boundaries in join order first (numerically, so pattern10
    // sorts after pattern9), then the WHERE boundary.
    rows.sort_by_key(|&(label, _, _)| {
        label.strip_prefix("pattern").and_then(|n| n.parse::<u64>().ok()).map_or((1, 0), |n| (0, n))
    });
    for (label, est, act) in rows {
        let (e, a) = (est.max(1) as f64, act.max(1) as f64);
        let ratio = (a / e).max(e / a);
        out.push_str(&format!(
            "    {label}: est {est} rows, actual {act} (x{ratio:.1} divergence)\n"
        ));
    }
    let replans = snapshot.counter("ids_adaptive_replans_total", "");
    out.push_str(&format!(
        "    re-optimizations: {replans} re-plans over {checks} boundary checks\n"
    ));
}

/// Append the columnar execution block when any batch counter has fired:
/// batches dispatched per operator and the mean/max batch occupancy. An
/// instance that has run no join or FILTER/APPLY stage renders nothing.
fn render_columnar_block(out: &mut String, snapshot: &MetricsSnapshot) {
    let total_batches = snapshot.counter_sum("ids_engine_batches_total");
    if total_batches == 0 {
        return;
    }
    out.push_str("  columnar execution:\n");
    let mut ops: Vec<&str> = snapshot
        .counters
        .iter()
        .filter(|(k, v)| k.name == "ids_engine_batches_total" && **v > 0)
        .map(|(k, _)| k.label_value.as_str())
        .collect();
    ops.sort_unstable();
    let detail: Vec<String> = ops
        .iter()
        .map(|op| format!("{} {op}", snapshot.counter("ids_engine_batches_total", op)))
        .collect();
    out.push_str(&format!("    batches dispatched: {total_batches} ({})\n", detail.join(", ")));
    for (key, hist) in &snapshot.histograms {
        if key.name != "ids_engine_batch_rows" || hist.count == 0 {
            continue;
        }
        out.push_str(&format!(
            "    batch occupancy: mean {:.1} rows, max {:.0} rows over {} batches\n",
            hist.mean(),
            hist.max,
            hist.count
        ));
    }
}

/// Append the pipelined-exchange block when any streamed exchange fired:
/// per-operator batch counts, total wire bytes and channels, and the
/// backpressure figures (sender stall time, per-channel buffered
/// high-water). BSP-mode runs barrier instead of streaming and render
/// nothing here, so baseline EXPLAIN output is unchanged.
fn render_exchange_block(out: &mut String, snapshot: &MetricsSnapshot) {
    let total_batches = snapshot.counter_sum("ids_exchange_batches_total");
    if total_batches == 0 {
        return;
    }
    out.push_str("  exchange:\n");
    let mut ops: Vec<&str> = snapshot
        .counters
        .iter()
        .filter(|(k, v)| k.name == "ids_exchange_batches_total" && **v > 0)
        .map(|(k, _)| k.label_value.as_str())
        .collect();
    ops.sort_unstable();
    let detail: Vec<String> = ops
        .iter()
        .map(|op| format!("{} {op}", snapshot.counter("ids_exchange_batches_total", op)))
        .collect();
    let bytes = snapshot.counter_sum("ids_exchange_bytes_total");
    let channels = snapshot.counter_sum("ids_exchange_channels_total");
    out.push_str(&format!(
        "    batches streamed: {total_batches} ({}) over {channels} channels, {bytes} bytes\n",
        detail.join(", ")
    ));
    for (key, hist) in &snapshot.histograms {
        if hist.count == 0 {
            continue;
        }
        match key.name {
            "ids_exchange_stall_secs" => out.push_str(&format!(
                "    backpressure stalls: {} senders, mean {:.6}s, max {:.6}s\n",
                hist.count,
                hist.mean(),
                hist.max
            )),
            "ids_exchange_buffered_batches" => out.push_str(&format!(
                "    buffered high-water: mean {:.1} batches, max {:.0} batches\n",
                hist.mean(),
                hist.max
            )),
            _ => {}
        }
    }
}

/// Append the faults/degradation block when any fault-plane, retry, or
/// degraded-execution counter has fired. Queries that ran clean add
/// nothing, so fault-free EXPLAIN output is unchanged.
fn render_fault_block(out: &mut String, snapshot: &MetricsSnapshot) {
    let injected = snapshot.counter_sum("ids_faults_injected_total");
    let degraded = snapshot.counter("ids_engine_degraded_queries_total", "");
    let row_retries = snapshot.counter("ids_engine_row_retries_total", "");
    let dropped = snapshot.counter("ids_engine_dropped_rows_total", "");
    let deadline_hits = snapshot.counter("ids_engine_stage_deadline_hits_total", "");
    let cache_retries = snapshot.counter("ids_cache_retries_total", "");
    let node_failures = snapshot.counter("ids_cache_node_failures_total", "");
    let repopulations = snapshot.counter("ids_cache_repopulations_total", "");
    if injected
        + degraded
        + row_retries
        + dropped
        + deadline_hits
        + cache_retries
        + node_failures
        + repopulations
        == 0
    {
        return;
    }

    out.push_str("  faults & degradation:\n");
    if injected > 0 {
        let detail: Vec<String> = snapshot
            .counters
            .iter()
            .filter(|(k, v)| k.name == "ids_faults_injected_total" && **v > 0)
            .map(|(k, v)| format!("{} {}", v, k.label_value))
            .collect();
        out.push_str(&format!("    faults injected: {} ({})\n", injected, detail.join(", ")));
    }
    if degraded > 0 || dropped > 0 || row_retries > 0 || deadline_hits > 0 {
        out.push_str(&format!(
            "    degraded queries: {degraded} ({dropped} rows dropped, \
             {row_retries} row retries, {deadline_hits} stage-deadline hits)\n"
        ));
    }
    if cache_retries + node_failures + repopulations > 0 {
        out.push_str(&format!(
            "    cache faults: {cache_retries} retries, {node_failures} node failures, \
             {repopulations} re-populations\n"
        ));
    }
}

/// Append the replication/integrity block when any failover, repair, or
/// anti-entropy counter has fired. A replication-factor-1 run with no
/// storage faults renders nothing, keeping baseline EXPLAIN stable.
fn render_replication_block(out: &mut String, snapshot: &MetricsSnapshot) {
    let failovers = snapshot.counter("ids_cache_failover_reads_total", "");
    let under_rep = snapshot.counter("ids_cache_under_replicated_writes_total", "");
    let corrupt_cache = snapshot.counter("ids_cache_corruptions_detected_total", "cache");
    let corrupt_backing = snapshot.counter("ids_cache_corruptions_detected_total", "backing");
    let quarantines = snapshot.counter("ids_cache_quarantines_total", "");
    let re_replicated = snapshot.counter("ids_cache_repairs_total", "re_replicate");
    let rewrites = snapshot.counter("ids_cache_repairs_total", "backing_rewrite");
    let ae_runs = snapshot.counter("ids_cache_anti_entropy_runs_total", "");
    let scrubbed = snapshot.counter("ids_cache_scrubbed_objects_total", "");
    if failovers
        + under_rep
        + corrupt_cache
        + corrupt_backing
        + quarantines
        + re_replicated
        + rewrites
        + ae_runs
        == 0
    {
        return;
    }

    out.push_str("  replication & integrity:\n");
    if failovers + under_rep > 0 {
        out.push_str(&format!(
            "    replica health: {failovers} failover reads, \
             {under_rep} under-replicated writes\n"
        ));
    }
    if corrupt_cache + corrupt_backing + quarantines > 0 {
        out.push_str(&format!(
            "    integrity: {} corruptions detected ({corrupt_cache} cache, \
             {corrupt_backing} backing), {quarantines} quarantined\n",
            corrupt_cache + corrupt_backing
        ));
    }
    if ae_runs + re_replicated + rewrites > 0 {
        out.push_str(&format!(
            "    anti-entropy: {ae_runs} runs, {scrubbed} objects scrubbed, \
             {re_replicated} re-replications, {rewrites} backing rewrites\n"
        ));
    }
    // What the integrity work above cost in hashing; on its own (every
    // put hashes) it does not open the block.
    let hashed = snapshot.counter_sum("ids_cache_checksummed_bytes_total");
    if hashed > 0 {
        let site = |s| snapshot.counter("ids_cache_checksummed_bytes_total", s);
        out.push_str(&format!(
            "    checksummed: {hashed} bytes ({} put, {} backing read, {} scrub, \
             {} quarantine, {} warm verify)\n",
            site("put"),
            site("backing_read"),
            site("scrub"),
            site("quarantine"),
            site("warm_verify"),
        ));
    }
}

/// Append the query-survivability block when the recovery plane or the
/// speculative re-execution machinery did anything: rollbacks to mid-query
/// checkpoints, re-plans around retired ranks, scratch restarts, and the
/// hedged-duplicate win/loss tally. Fault-free runs (and runs with
/// `ExecOptions::recovery` off) render nothing here.
fn render_recovery_block(out: &mut String, snapshot: &MetricsSnapshot) {
    let rollbacks = snapshot.counter_sum("ids_recovery_rollbacks_total");
    let replans = snapshot.counter_sum("ids_recovery_replans_total");
    let restarts = snapshot.counter_sum("ids_recovery_restarts_total");
    let exhausted = snapshot.counter_sum("ids_recovery_exhausted_total");
    let launched = snapshot.counter_sum("ids_speculation_launched_total");
    if rollbacks + replans + restarts + exhausted + launched == 0 {
        return;
    }

    out.push_str("  recovery:\n");
    if rollbacks + restarts > 0 {
        let checkpoints = snapshot.counter_sum("ids_recovery_checkpoints_total");
        let rows = snapshot.counter_sum("ids_recovery_rows_restored_total");
        out.push_str(&format!(
            "    rollbacks: {rollbacks} ({restarts} from scratch), \
             {checkpoints} checkpoints stored, {rows} rows restored\n"
        ));
    }
    if replans > 0 {
        let ranks_lost = snapshot.counter_sum("ids_recovery_ranks_lost_total");
        let moved = snapshot.counter_sum("ids_recovery_shards_moved_total");
        out.push_str(&format!(
            "    re-plans: {replans} around {ranks_lost} lost ranks, \
             {moved} shards re-owned\n"
        ));
    }
    if launched > 0 {
        let wins = snapshot.counter_sum("ids_speculation_wins_total");
        let losses = snapshot.counter_sum("ids_speculation_losses_total");
        out.push_str(&format!(
            "    speculation: {launched} hedges launched, {wins} won, {losses} lost"
        ));
        for (key, hist) in &snapshot.histograms {
            if key.name == "ids_speculation_saved_secs" && hist.count > 0 {
                out.push_str(&format!(", {:.6}s critical path saved", hist.sum));
            }
        }
        out.push('\n');
    }
    if exhausted > 0 {
        out.push_str(&format!("    budget: {exhausted} queries exhausted their recovery budget\n"));
    }
}

/// Append the cache-tier block when the tiered store actually moved
/// data between tiers: DRAM→NVMe spills, promote-on-reuse, admission
/// rejects, and warm-restart retention. Runs that never hit tier
/// pressure (everything fits in DRAM, no restarts) render nothing here,
/// so pressure-free EXPLAIN output is unchanged.
fn render_cache_tiers_block(out: &mut String, snapshot: &MetricsSnapshot) {
    let spills = snapshot.counter("ids_cache_spills_total", "");
    let promotes = snapshot.counter("ids_cache_promotes_total", "");
    let rejects = snapshot.counter_sum("ids_cache_admission_rejects_total");
    let retained = snapshot.counter("ids_cache_warm_restart_retained_total", "");
    if spills + promotes + rejects + retained == 0 {
        return;
    }

    out.push_str("  cache tiers:\n");
    let dram = snapshot.gauge("ids_cache_size_bytes", "dram");
    let nvme = snapshot.gauge("ids_cache_size_bytes", "nvme");
    out.push_str(&format!("    resident: {dram} bytes dram, {nvme} bytes nvme\n"));
    let evicted_dram = snapshot.counter("ids_cache_evictions_total", "dram");
    out.push_str(&format!(
        "    movement: {spills} spills to nvme ({evicted_dram} dram evictions), \
         {promotes} promotes on reuse\n"
    ));
    if rejects > 0 {
        let dram_rejects = snapshot.counter("ids_cache_admission_rejects_total", "dram");
        let nvme_rejects = snapshot.counter("ids_cache_admission_rejects_total", "nvme");
        out.push_str(&format!(
            "    admission: {rejects} one-hit wonders rejected \
             ({dram_rejects} at dram, {nvme_rejects} at nvme)\n"
        ));
    }
    if retained > 0 {
        let verified = snapshot.counter("ids_cache_warm_restart_verified_total", "");
        out.push_str(&format!(
            "    warm restart: {retained} nvme entries retained, {verified} re-verified\n"
        ));
    }
}

/// Append the multi-tenant service block when the serve layer (or the
/// engine's semantic-reuse checkpoints) recorded anything: per-tenant
/// admission/queue/scheduling figures and the fingerprint hit/miss/store
/// tallies per checkpoint stage. Single-client instances that never went
/// through `ids-serve` render nothing here.
fn render_service_block(out: &mut String, snapshot: &MetricsSnapshot) {
    let admitted_total = snapshot.counter_sum("ids_serve_admitted_total");
    let reuse_activity = snapshot.counter_sum("ids_reuse_hits_total")
        + snapshot.counter_sum("ids_reuse_misses_total")
        + snapshot.counter_sum("ids_reuse_stores_total");
    if admitted_total + reuse_activity == 0 {
        return;
    }

    out.push_str("  service:\n");
    // Tenants, in deterministic label order (sourced from the admission
    // counter — every query a tenant ever submitted passed through it).
    let mut tenants: Vec<&str> = snapshot
        .counters
        .iter()
        .filter(|(k, _)| k.name == "ids_serve_admitted_total")
        .map(|(k, _)| k.label_value.as_str())
        .collect();
    tenants.sort_unstable();
    tenants.dedup();
    for tenant in tenants {
        let admitted = snapshot.counter("ids_serve_admitted_total", tenant);
        let completed = snapshot.counter("ids_serve_completed_total", tenant);
        let failed = snapshot.counter("ids_serve_failed_total", tenant);
        let slices = snapshot.counter("ids_serve_slices_total", tenant);
        out.push_str(&format!(
            "    tenant {tenant}: {admitted} admitted, {completed} completed, \
             {failed} failed, {slices} scheduler slices\n"
        ));
        for (key, hist) in &snapshot.histograms {
            if key.label_value != tenant || hist.count == 0 {
                continue;
            }
            let what = match key.name {
                "ids_serve_queue_wait_secs" => "queue wait",
                "ids_serve_latency_secs" => "latency",
                _ => continue,
            };
            out.push_str(&format!(
                "      {what}: mean {:.6}s, max {:.6}s over {} queries\n",
                hist.mean(),
                hist.max,
                hist.count
            ));
        }
        let overloaded = snapshot.counter("ids_serve_overloaded_total", tenant);
        let rejected = snapshot.counter("ids_serve_rejected_total", tenant);
        let aborted = snapshot.counter("ids_serve_deadline_aborts_total", tenant);
        if overloaded + rejected + aborted > 0 {
            out.push_str(&format!(
                "      refused: {overloaded} overloaded, {rejected} rejected, \
                 {aborted} deadline aborts\n"
            ));
        }
    }

    if reuse_activity > 0 {
        out.push_str("    semantic reuse (per checkpoint):\n");
        let mut labels: Vec<&str> = snapshot
            .counters
            .iter()
            .filter(|(k, v)| {
                **v > 0
                    && matches!(
                        k.name,
                        "ids_reuse_hits_total"
                            | "ids_reuse_misses_total"
                            | "ids_reuse_stores_total"
                    )
            })
            .map(|(k, _)| k.label_value.as_str())
            .collect();
        labels.sort_unstable();
        labels.dedup();
        for label in labels {
            let hits = snapshot.counter("ids_reuse_hits_total", label);
            let misses = snapshot.counter("ids_reuse_misses_total", label);
            let stores = snapshot.counter("ids_reuse_stores_total", label);
            let probes = hits + misses;
            let ratio = if probes > 0 { hits as f64 / probes as f64 * 100.0 } else { 0.0 };
            out.push_str(&format!(
                "      {label}: {hits} hits / {probes} probes ({ratio:.1}%), {stores} stores\n"
            ));
        }
        let restored = snapshot.counter("ids_reuse_rows_restored_total", "");
        if restored > 0 {
            out.push_str(&format!("      rows restored from cache: {restored}\n"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_block_renders_only_for_served_instances() {
        let reg = ids_obs::MetricsRegistry::new();
        let mut out = String::new();
        render_service_block(&mut out, &reg.snapshot());
        assert!(out.is_empty(), "single-client run adds no service block");

        reg.counter_with("ids_serve_admitted_total", "tenant", "alice").add(3);
        reg.counter_with("ids_serve_completed_total", "tenant", "alice").add(2);
        reg.counter_with("ids_serve_slices_total", "tenant", "alice").add(14);
        reg.counter_with("ids_serve_deadline_aborts_total", "tenant", "alice").add(1);
        reg.histogram_with("ids_serve_queue_wait_secs", "tenant", "alice").observe(0.25);
        reg.counter_with("ids_reuse_hits_total", "checkpoint", "bgp").add(2);
        reg.counter_with("ids_reuse_misses_total", "checkpoint", "bgp").add(2);
        reg.counter_with("ids_reuse_stores_total", "checkpoint", "where").add(1);
        reg.counter("ids_reuse_rows_restored_total").add(80);
        render_service_block(&mut out, &reg.snapshot());
        assert!(out.contains("service:"), "{out}");
        assert!(out.contains("tenant alice: 3 admitted, 2 completed, 0 failed, 14"), "{out}");
        assert!(out.contains("queue wait: mean 0.250000s"), "{out}");
        assert!(out.contains("1 deadline aborts"), "{out}");
        assert!(out.contains("bgp: 2 hits / 4 probes (50.0%)"), "{out}");
        assert!(out.contains("where: 0 hits / 0 probes (0.0%), 1 stores"), "{out}");
        assert!(out.contains("rows restored from cache: 80"), "{out}");
    }

    #[test]
    fn recovery_block_renders_only_after_interventions() {
        let reg = ids_obs::MetricsRegistry::new();
        let mut out = String::new();
        render_recovery_block(&mut out, &reg.snapshot());
        assert!(out.is_empty(), "fault-free run adds no recovery block");

        reg.counter("ids_recovery_rollbacks_total").add(2);
        reg.counter("ids_recovery_restarts_total").add(1);
        reg.counter("ids_recovery_checkpoints_total").add(5);
        reg.counter("ids_recovery_rows_restored_total").add(120);
        reg.counter("ids_recovery_replans_total").add(2);
        reg.counter("ids_recovery_ranks_lost_total").add(2);
        reg.counter("ids_recovery_shards_moved_total").add(6);
        reg.counter("ids_speculation_launched_total").add(3);
        reg.counter("ids_speculation_wins_total").add(2);
        reg.counter("ids_speculation_losses_total").add(1);
        reg.histogram("ids_speculation_saved_secs").observe(0.5);
        reg.counter("ids_recovery_exhausted_total").add(1);
        render_recovery_block(&mut out, &reg.snapshot());
        assert!(out.contains("recovery:"), "{out}");
        assert!(
            out.contains("rollbacks: 2 (1 from scratch), 5 checkpoints stored, 120 rows restored"),
            "{out}"
        );
        assert!(out.contains("re-plans: 2 around 2 lost ranks, 6 shards re-owned"), "{out}");
        assert!(out.contains("speculation: 3 hedges launched, 2 won, 1 lost"), "{out}");
        assert!(out.contains("0.500000s critical path saved"), "{out}");
        assert!(out.contains("budget: 1 queries exhausted their recovery budget"), "{out}");
    }

    #[test]
    fn cache_tiers_block_renders_only_under_tier_pressure() {
        let reg = ids_obs::MetricsRegistry::new();
        let mut out = String::new();
        render_cache_tiers_block(&mut out, &reg.snapshot());
        assert!(out.is_empty(), "pressure-free run adds no cache-tier block");

        reg.counter("ids_cache_spills_total").add(4);
        reg.counter_with("ids_cache_evictions_total", "tier", "dram").add(5);
        reg.counter("ids_cache_promotes_total").add(2);
        reg.counter_with("ids_cache_admission_rejects_total", "tier", "nvme").add(1);
        reg.counter("ids_cache_warm_restart_retained_total").add(3);
        reg.counter("ids_cache_warm_restart_verified_total").add(1);
        reg.gauge_with("ids_cache_size_bytes", "tier", "dram").set(600);
        reg.gauge_with("ids_cache_size_bytes", "tier", "nvme").set(2000);
        render_cache_tiers_block(&mut out, &reg.snapshot());
        assert!(out.contains("cache tiers:"), "{out}");
        assert!(out.contains("resident: 600 bytes dram, 2000 bytes nvme"), "{out}");
        assert!(out.contains("4 spills to nvme (5 dram evictions), 2 promotes on reuse"), "{out}");
        assert!(
            out.contains("admission: 1 one-hit wonders rejected (0 at dram, 1 at nvme)"),
            "{out}"
        );
        assert!(out.contains("warm restart: 3 nvme entries retained, 1 re-verified"), "{out}");
    }

    #[test]
    fn replication_block_renders_only_when_counters_fired() {
        let reg = ids_obs::MetricsRegistry::new();
        let mut out = String::new();
        render_replication_block(&mut out, &reg.snapshot());
        assert!(out.is_empty(), "clean run adds no replication block");

        reg.counter("ids_cache_failover_reads_total").add(2);
        reg.counter_with("ids_cache_corruptions_detected_total", "source", "cache").add(1);
        reg.counter_with("ids_cache_repairs_total", "kind", "re_replicate").add(3);
        reg.counter("ids_cache_anti_entropy_runs_total").add(4);
        reg.counter("ids_cache_scrubbed_objects_total").add(9);
        render_replication_block(&mut out, &reg.snapshot());
        assert!(out.contains("replication & integrity"));
        assert!(out.contains("2 failover reads"));
        assert!(out.contains("1 corruptions detected (1 cache, 0 backing)"));
        assert!(out.contains("4 runs, 9 objects scrubbed, 3 re-replications"));
        assert!(!out.contains("checksummed"), "nothing hashed, nothing listed: {out}");

        reg.counter_with("ids_cache_checksummed_bytes_total", "site", "put").add(4096);
        reg.counter_with("ids_cache_checksummed_bytes_total", "site", "scrub").add(1024);
        out.clear();
        render_replication_block(&mut out, &reg.snapshot());
        assert!(
            out.contains(
                "checksummed: 5120 bytes (4096 put, 0 backing read, 1024 scrub, \
                 0 quarantine, 0 warm verify)"
            ),
            "{out}"
        );
    }

    #[test]
    fn columnar_block_renders_only_when_batches_fired() {
        let reg = ids_obs::MetricsRegistry::new();
        let mut out = String::new();
        render_columnar_block(&mut out, &reg.snapshot());
        assert!(out.is_empty(), "no batch dispatched, no columnar block");

        reg.counter_with("ids_engine_batches_total", "op", "filter").add(3);
        reg.counter_with("ids_engine_batches_total", "op", "join").add(2);
        reg.histogram("ids_engine_batch_rows").observe(1024.0);
        reg.histogram("ids_engine_batch_rows").observe(512.0);
        render_columnar_block(&mut out, &reg.snapshot());
        assert!(out.contains("columnar execution:"), "{out}");
        assert!(out.contains("batches dispatched: 5 (3 filter, 2 join)"), "{out}");
        assert!(out.contains("batch occupancy: mean 768.0 rows, max 1024 rows over 2"), "{out}");
    }

    #[test]
    fn exchange_block_renders_only_when_streaming_fired() {
        let reg = ids_obs::MetricsRegistry::new();
        let mut out = String::new();
        render_exchange_block(&mut out, &reg.snapshot());
        assert!(out.is_empty(), "BSP run adds no exchange block");

        reg.counter_with("ids_exchange_batches_total", "op", "repartition").add(6);
        reg.counter_with("ids_exchange_batches_total", "op", "broadcast").add(2);
        reg.counter_with("ids_exchange_bytes_total", "op", "repartition").add(4096);
        reg.counter_with("ids_exchange_channels_total", "op", "repartition").add(4);
        reg.histogram("ids_exchange_stall_secs").observe(0.002);
        reg.histogram("ids_exchange_buffered_batches").observe(3.0);
        reg.histogram("ids_exchange_buffered_batches").observe(5.0);
        render_exchange_block(&mut out, &reg.snapshot());
        assert!(out.contains("exchange:"), "{out}");
        assert!(
            out.contains(
                "batches streamed: 8 (2 broadcast, 6 repartition) over 4 channels, 4096 bytes"
            ),
            "{out}"
        );
        assert!(out.contains("backpressure stalls: 1 senders, mean 0.002000s"), "{out}");
        assert!(out.contains("buffered high-water: mean 4.0 batches, max 5 batches"), "{out}");
    }

    #[test]
    fn adaptive_block_renders_only_after_boundary_checks() {
        let reg = ids_obs::MetricsRegistry::new();
        let mut out = String::new();
        render_adaptive_block(&mut out, &reg.snapshot());
        assert!(out.is_empty(), "never-executed instance adds no adaptive block");

        reg.gauge_with("ids_adaptive_est_rows", "op", "pattern0").set(100);
        reg.gauge_with("ids_adaptive_actual_rows", "op", "pattern0").set(100);
        reg.gauge_with("ids_adaptive_est_rows", "op", "pattern1").set(50);
        reg.gauge_with("ids_adaptive_actual_rows", "op", "pattern1").set(400);
        reg.gauge_with("ids_adaptive_est_rows", "op", "where").set(10);
        reg.gauge_with("ids_adaptive_actual_rows", "op", "where").set(12);
        reg.counter("ids_adaptive_checks_total").add(3);
        reg.counter("ids_adaptive_replans_total").add(1);
        render_adaptive_block(&mut out, &reg.snapshot());
        assert!(out.contains("adaptive (estimated vs actual"), "{out}");
        assert!(out.contains("pattern0: est 100 rows, actual 100 (x1.0 divergence)"), "{out}");
        assert!(out.contains("pattern1: est 50 rows, actual 400 (x8.0 divergence)"), "{out}");
        assert!(out.contains("where: est 10 rows, actual 12 (x1.2 divergence)"), "{out}");
        assert!(out.contains("re-optimizations: 1 re-plans over 3 boundary checks"), "{out}");
        // Pattern boundaries render in join order, WHERE last.
        let p0 = out.find("pattern0:").unwrap();
        let p1 = out.find("pattern1:").unwrap();
        let w = out.find("where:").unwrap();
        assert!(p0 < p1 && p1 < w, "{out}");
    }

    #[test]
    fn renders_expressions() {
        let e = Expr::And(vec![
            Expr::cmp(
                CmpOp::Ge,
                Expr::udf("sw_similarity", vec![Expr::var("seq")]),
                Expr::Const(UdfValue::F64(0.9)),
            ),
            Expr::Not(Box::new(Expr::Or(vec![Expr::var("a"), Expr::var("b")]))),
        ]);
        assert_eq!(render_expr(&e), "sw_similarity(?seq) >= 0.9 && !((?a || ?b))");
    }
}
