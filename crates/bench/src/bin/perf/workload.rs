//! What every workload gives the harness, plus the pieces three of the
//! four share: the NCNPR instance launch (copied here on purpose — see
//! `launch`), result digests, and the engine-phase span names.

use crate::trace::Tracer;
use ids_cache::CacheManager;
use ids_core::{IdsConfig, IdsInstance, QueryOutcome, StageBreakdown};
use ids_graph::SolutionSet;
use ids_simrt::Topology;
use ids_workloads::ncnpr::{build, Band, NcnprConfig, NcnprDataset};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One completed operation, as the closed-loop driver saw it.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// Host nanoseconds from submission to completion.
    pub wall_ns: u64,
    /// Model seconds the simulated cluster charged for it.
    pub virtual_s: f64,
    /// Completed, was not refused, and passed its output check.
    pub ok: bool,
    /// Digest of what it returned (compared between repeats).
    pub digest: u64,
}

/// Full-size run or the reduced pass the unit tests use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// Metric values by name. The harness owns the list of names and units
/// (`PER_LAYER` in `main.rs`); anything a workload leaves unset reads 0.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(k, v)| (*k, *v))
    }
}

pub trait Workload {
    /// Operations in the deterministic window: every count, digest and
    /// `virtual_*` number is taken over exactly this many operations, so
    /// it repeats whatever the host's speed.
    fn window_ops(&self) -> usize;

    /// Advance the closed loop and push one sample per operation that
    /// completed. With the tracer enabled the same pipeline is driven
    /// through its stepwise entry points, one span per layer call.
    fn step(&mut self, tr: &mut Tracer, out: &mut Vec<OpSample>);

    /// Program-side counts and model outputs accumulated since set-up.
    /// Exact for a given seed and operation count.
    fn counts(&self, v: &mut Values);

    /// Share of this workload's wall time spent in allocation- and
    /// hash-heavy code, the kind a busy host slows most (see
    /// `util::HostProbe`). Measured at the seed commit by regressing the
    /// workload's median on the probe across quiet and noisy periods.
    fn alloc_share(&self) -> f64;

    /// Individual program operations one sample stands for (`ops_per_s`
    /// counts these).
    fn ops_per_sample(&self) -> f64 {
        1.0
    }

    /// Outside-in probes of single layers on this workload's own inputs.
    /// Called once, after the timed phases; may disturb program state.
    fn probes(&mut self, v: &mut Values);
}

/// Launch an instance over `topo` and load the NCNPR graph into it.
///
/// This is the figure binaries' `ncnpr_setup::build_ncnpr_instance`
/// reduced to what the workloads need and copied, not imported: a later
/// edit to that helper must not change what this benchmark measures.
pub fn launch(
    topo: Topology,
    seed: u64,
    cache: Option<Arc<CacheManager>>,
    mut ncfg: NcnprConfig,
) -> (IdsInstance, NcnprDataset) {
    let mut cfg = IdsConfig::cray_ex(topo.nodes(), seed);
    cfg.topology = topo;
    let mut inst = IdsInstance::launch(cfg);
    if let Some(cache) = cache {
        inst.attach_cache(cache);
    }
    ncfg.seed = seed ^ 0x29274;
    let dataset = build(inst.datastore(), &ncfg);
    (inst, dataset)
}

/// The bulk band: Smith–Waterman volume below every threshold, without
/// the (slow) per-member rejection sampling.
pub fn bulk_band(proteins: usize, compounds_per_protein: usize) -> Band {
    Band { mutation_rate: 0.62, similarity_range: None, proteins, compounds_per_protein }
}

/// Order-independent digest over raw term ids. Ids come from ingest
/// order, which the seed fixes, so equal digests mean equal row sets.
pub fn id_digest(rows: &SolutionSet) -> u64 {
    crate::util::unordered_digest(
        rows.rows().iter().map(|r| crate::util::fnv_words(r.iter().map(|t| t.0))),
    )
}

/// Span name for the stage a `PlanRun` is about to execute.
pub fn phase_span(label: &str) -> &'static str {
    if label.starts_with("pattern") {
        "engine.pattern"
    } else if label == "where-filter" {
        "engine.filter"
    } else if label.starts_with("stage") {
        "engine.apply"
    } else {
        "engine.gather"
    }
}

/// Run one query and time it: through the one-shot `IdsInstance::query`
/// when untraced, through `prepare_run` + `step_run` with a span per call
/// (under one `query` span) when traced.
pub fn run_query(
    inst: &mut IdsInstance,
    text: &str,
    op: u64,
    tr: &mut Tracer,
) -> (Result<QueryOutcome, ids_core::QueryError>, u64) {
    let t = std::time::Instant::now();
    let result = if tr.enabled() {
        let q = tr.begin("query", op);
        let r = stepwise_query(inst, text, op, tr);
        tr.end(q);
        r
    } else {
        inst.query(text)
    };
    (result, t.elapsed().as_nanos() as u64)
}

fn stepwise_query(
    inst: &mut IdsInstance,
    text: &str,
    op: u64,
    tr: &mut Tracer,
) -> Result<QueryOutcome, ids_core::QueryError> {
    let mut run = tr.span("planner.prepare", op, || inst.prepare_run(text, false))?;
    loop {
        let name = phase_span(&run.phase_label());
        if let ids_core::StepOutcome::Done(outcome) =
            tr.span(name, op, || inst.step_run(&mut run))?
        {
            return Ok(*outcome);
        }
    }
}

/// Tier movement and hit share since the cache's statistics were reset.
pub fn cache_counts(stats: &ids_cache::CacheStats, v: &mut Values) {
    v.set("cache.hit_share", stats.hit_rate());
    v.set("cache.spills", stats.evictions_to_nvme as f64);
    v.set("cache.promotes", stats.promotes as f64);
    v.set("cache.evictions", stats.evictions_dropped as f64);
    v.set("cache.admission_rejects", stats.admission_rejects as f64);
}

/// Running totals of the model's per-stage breakdown.
#[derive(Debug, Default, Clone)]
pub struct EngineTotals {
    pub queries: u64,
    pub rows_out: u64,
    pub scan_s: f64,
    pub join_s: f64,
    pub rebalance_s: f64,
    pub filter_s: f64,
    pub apply_s: f64,
    pub gather_s: f64,
}

impl EngineTotals {
    pub fn add(&mut self, rows: usize, b: &StageBreakdown) {
        self.queries += 1;
        self.rows_out += rows as u64;
        self.scan_s += b.scan_secs;
        self.join_s += b.join_secs;
        self.rebalance_s += b.rebalance_secs;
        self.filter_s += b.filter_secs;
        // Sorted so the float sum does not depend on `HashMap` order.
        let mut apply: Vec<f64> = b.apply_secs.values().copied().collect();
        apply.sort_by(f64::total_cmp);
        self.apply_s += apply.iter().sum::<f64>();
        self.gather_s += b.gather_secs;
    }

    /// Means per query.
    pub fn report(&self, v: &mut Values) {
        let n = self.queries.max(1) as f64;
        v.set("engine.rows_out", self.rows_out as f64 / n);
        v.set("engine.virtual_scan_s", self.scan_s / n);
        v.set("engine.virtual_join_s", self.join_s / n);
        v.set("engine.virtual_rebalance_s", self.rebalance_s / n);
        v.set("engine.virtual_filter_s", self.filter_s / n);
        v.set("engine.virtual_apply_s", self.apply_s / n);
        v.set("engine.virtual_gather_s", self.gather_s / n);
    }
}

/// Batch and exchange counters from the instance's own registry, and the
/// UDF call tallies from its profilers. Workloads read it once when
/// set-up ends and report the difference, so warm-up is not counted.
#[derive(Debug, Default, Clone, Copy)]
pub struct InstanceTally {
    batches: u64,
    batch_rows: f64,
    exchange_bytes: u64,
    udf_calls: u64,
    udf_rejected: u64,
}

impl InstanceTally {
    pub fn read(inst: &IdsInstance) -> Self {
        let snap = inst.metrics().snapshot();
        let mut t = Self {
            batches: snap.counter_sum("ids_engine_batches_total"),
            batch_rows: snap
                .histograms
                .iter()
                .filter(|(k, _)| k.name == "ids_engine_batch_rows")
                .map(|(_, h)| h.sum)
                .sum(),
            exchange_bytes: snap.counter_sum("ids_exchange_bytes_total"),
            ..Self::default()
        };
        for p in inst.profilers() {
            for profile in p.names().into_iter().filter_map(|name| p.get(name)) {
                t.udf_calls += profile.calls;
                t.udf_rejected += profile.rejections;
            }
        }
        t
    }

    /// Report what happened since `base` was read.
    pub fn report_since(&self, base: &Self, v: &mut Values) {
        v.set("graph.batches", (self.batches - base.batches) as f64);
        v.set("graph.batch_rows", self.batch_rows - base.batch_rows);
        v.set("graph.exchange_bytes", (self.exchange_bytes - base.exchange_bytes) as f64);
        let calls = self.udf_calls - base.udf_calls;
        let rejected = self.udf_rejected - base.udf_rejected;
        v.set("udf.calls", calls as f64);
        v.set("udf.rejected_share", if calls == 0 { 0.0 } else { rejected as f64 / calls as f64 });
    }
}
