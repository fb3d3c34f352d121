//! The IDS instance: launcher / client / agent facade.
//!
//! §2.2's components — Datastore Launcher (launch, open the query
//! endpoint, tear down), Datastore Client (submit queries, add user
//! codes), and Datastore Agent (per-node runtime) — collapse in the
//! simulator to one façade owning the cluster, the 3-in-1 datastore, the
//! model repository, the UDF registry, the per-rank UDF profiles, the prepared
//! UDF arguments, and an optional *shared* global cache (multiple
//! instances on one cluster can hand each other the same
//! `Arc<CacheManager>`, the cross-instance reuse §8 envisions).

use crate::datastore::Datastore;
use crate::engine::{
    self, ExecOptions, PlanRun, QueryOutcome, ReuseCheckpoint, ReusePlan, StepOutcome,
};
use crate::iql::{self, FragmentSpec};
use crate::planner::{self, PhysicalPlan, PlannerCounters};
use crate::prepared::{PlanEpoch, Prepared, PreparedCache};
use crate::stats::StatsCatalog;
use ids_cache::CacheManager;
use ids_models::ModelRepository;
use ids_obs::{MetricsRegistry, MetricsSnapshot};
use ids_simrt::rng::fnv1a;
use ids_simrt::{Cluster, FaultPlane, NetworkModel, Topology};
use ids_udf::{ArgMemo, ProfileRow, ProfileTable, UdfRegistry};
use parking_lot::Mutex;
use std::sync::Arc;

/// Instance configuration.
#[derive(Debug, Clone)]
pub struct IdsConfig {
    /// Cluster shape (nodes × ranks-per-node).
    pub topology: Topology,
    /// Network cost model.
    pub network: NetworkModel,
    /// Root random seed.
    pub seed: u64,
    /// Execution options (re-balancing, reordering, cost priors).
    pub exec: ExecOptions,
}

impl IdsConfig {
    /// The paper's Cray EX scaling configuration at `nodes` nodes.
    pub fn cray_ex(nodes: u32, seed: u64) -> Self {
        Self {
            topology: Topology::cray_ex(nodes),
            network: NetworkModel::slingshot(),
            seed,
            exec: ExecOptions::default(),
        }
    }

    /// A laptop-scale instance (`ranks` ranks on one node) — the paper's
    /// "launch IDS on their laptop" container story.
    pub fn laptop(ranks: u32, seed: u64) -> Self {
        Self {
            topology: Topology::laptop(ranks),
            network: NetworkModel::slingshot(),
            seed,
            exec: ExecOptions::default(),
        }
    }
}

/// A running IDS instance.
pub struct IdsInstance {
    config: IdsConfig,
    cluster: Cluster,
    datastore: Arc<Datastore>,
    registry: UdfRegistry,
    models: ModelRepository,
    /// Every rank's UDF profiles: the only copy (DESIGN.md §5l).
    profiles: ProfileTable,
    /// Prepared UDF arguments, kept for the instance's life: no entry can
    /// go stale while the registry and the dictionary only grow.
    arg_memo: ArgMemo,
    cache: Option<Arc<CacheManager>>,
    faults: Option<Arc<FaultPlane>>,
    metrics: MetricsRegistry,
    /// The planner's counters in `metrics`, looked up on first use.
    planner_counters: PlannerCounters,
    /// Cached statistics catalog for cost-based planning, keyed on the
    /// datastore's version at collection time so ingest invalidates it.
    /// Interior mutability keeps `explain`/`prepare_run` `&self`.
    stats: Mutex<Option<(u64, Arc<StatsCatalog>)>>,
    /// Bumped whenever exec options or the attached cache may have
    /// changed; with the datastore's version it forms the plan epoch.
    config_generation: u64,
    /// Prepared queries by text, valid for one plan epoch. Built on the
    /// first `prepare_run` so an idle instance exports no series for it.
    prepared: Mutex<Option<PreparedCache>>,
}

impl IdsInstance {
    /// Launch an instance (the Datastore Launcher's `launch` operation).
    pub fn launch(config: IdsConfig) -> Self {
        let ranks = config.topology.total_ranks() as usize;
        let cluster = Cluster::new(config.topology, config.network, config.seed);
        let metrics = MetricsRegistry::new();
        Self {
            config,
            cluster,
            datastore: Arc::new(Datastore::new(ranks)),
            registry: UdfRegistry::new(),
            models: ModelRepository::with_builtin_models(),
            profiles: ProfileTable::new(ranks),
            arg_memo: ArgMemo::new(&metrics),
            cache: None,
            faults: None,
            planner_counters: PlannerCounters::new(&metrics),
            metrics,
            stats: Mutex::new(None),
            config_generation: 0,
            prepared: Mutex::new(None),
        }
    }

    /// Attach a (possibly shared) global cache. If a fault plane is
    /// already attached, the cache joins the same fault schedule.
    pub fn attach_cache(&mut self, cache: Arc<CacheManager>) {
        if let Some(plane) = &self.faults {
            cache.attach_faults(plane.clone());
        }
        self.cache = Some(cache);
        self.config_generation += 1;
    }

    /// Attach a deterministic fault-injection plane: the cluster (crash
    /// windows, stragglers, link degradation) and any attached cache
    /// (fencing, transient FAM failures) follow its schedule, and its
    /// fault counters join [`IdsInstance::metrics_snapshot`].
    pub fn attach_faults(&mut self, plane: Arc<FaultPlane>) {
        self.cluster.attach_faults(plane.clone());
        if let Some(cache) = &self.cache {
            cache.attach_faults(plane.clone());
        }
        self.faults = Some(plane);
    }

    /// The attached fault plane, if any.
    pub fn faults(&self) -> Option<&Arc<FaultPlane>> {
        self.faults.as_ref()
    }

    /// The attached cache, if any.
    pub fn cache(&self) -> Option<&Arc<CacheManager>> {
        self.cache.as_ref()
    }

    /// The datastore (ingest surface).
    pub fn datastore(&self) -> &Arc<Datastore> {
        &self.datastore
    }

    /// The UDF registry (the Client's "add new user codes" surface).
    pub fn registry(&self) -> &UdfRegistry {
        &self.registry
    }

    /// The model repository.
    pub fn models(&self) -> &ModelRepository {
        &self.models
    }

    /// The simulated cluster (benches read phase history from here).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Mutable cluster access for membership changes driven from outside
    /// the engine — the service tier's elastic scale-out/in re-owns
    /// logical shards here (`Cluster::rebalance_owners`). Only safe
    /// between query steps: shard ownership must not move while a
    /// compute phase is in flight.
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// Every rank's UDF profiles, in rank order (read-only views).
    pub fn profilers(&self) -> impl ExactSizeIterator<Item = ProfileRow<'_>> {
        self.profiles.rows()
    }

    /// The instance's `ids-obs` registry (engine, planner, and UDF-profile
    /// series; cache series live in the cache manager's own registry and
    /// are merged by [`IdsInstance::metrics_snapshot`]).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// One consistent snapshot of everything observable on this instance:
    /// engine/planner series, the merged UDF profiles (exported as
    /// gauges), and — when a cache is attached — its tier counters.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.profiles.export_metrics(&self.metrics);
        // Process-wide NaN comparison tally (see `UdfValue::compare`):
        // NaN-emitting UDFs/models degrade to deterministic ordering
        // instead of failing queries, and this gauge is how that surfaces.
        // Exported only once non-zero so clean instances stay empty.
        let nan_cmps = ids_udf::nan_comparison_count();
        if nan_cmps > 0 {
            self.metrics.gauge("ids_udf_nan_comparisons_total").set(nan_cmps as i64);
        }
        let mut snap = self.metrics.snapshot();
        if let Some(cache) = &self.cache {
            snap = snap.merge(&cache.metrics().snapshot());
        }
        if let Some(plane) = &self.faults {
            snap = snap.merge(&plane.metrics().snapshot());
        }
        snap
    }

    /// Prometheus text exposition of [`IdsInstance::metrics_snapshot`].
    pub fn render_prometheus(&self) -> String {
        self.metrics_snapshot().render_prometheus()
    }

    /// Point-in-time tier inspection of the attached cache: per-node
    /// DRAM/NVMe occupancy plus spill/promote/admission/warm-restart
    /// tallies. `None` when no cache is attached.
    pub fn cache_inspection(&self) -> Option<ids_cache::CacheInspection> {
        self.cache.as_ref().map(|c| c.inspect())
    }

    /// Execution options (mutable so benches can flip ablation knobs).
    /// Handing out the borrow starts a new plan epoch: prepared queries and
    /// the reuse salt are rebuilt on their next use.
    pub fn exec_options_mut(&mut self) -> &mut ExecOptions {
        self.config_generation += 1;
        &mut self.config.exec
    }

    /// Reset virtual clocks between measured queries (data, caches, and
    /// profiles persist — matching a long-running instance serving
    /// successive queries).
    pub fn reset_clocks(&mut self) {
        self.cluster.reset_clocks();
    }

    /// The statistics catalog for cost-based planning. The expensive part
    /// (one scan pass over every shard) is cached and re-collected only
    /// when the datastore's version moves; the merged UDF cost/selectivity
    /// profiles are re-attached fresh on every call so the planner always
    /// prices WHERE conjuncts from the latest observed behaviour.
    pub fn stats_catalog(&self) -> Arc<StatsCatalog> {
        let version = self.datastore.version();
        let base = {
            let mut guard = self.stats.lock();
            match guard.as_ref() {
                Some((v, cat)) if *v == version => cat.clone(),
                _ => {
                    let cat = Arc::new(StatsCatalog::collect(&self.datastore));
                    *guard = Some((version, cat.clone()));
                    cat
                }
            }
        };
        Arc::new((*base).clone().with_udf_profiles(&self.profiles))
    }

    /// Plan an already-parsed query. With `exec.adaptive` set the planner
    /// runs cost-based join ordering against [`IdsInstance::stats_catalog`];
    /// otherwise it keeps the static cheapest-first heuristic.
    fn plan_query(&self, parsed: &iql::ast::Query) -> Result<PhysicalPlan, QueryError> {
        let stats = if self.config.exec.adaptive { Some(self.stats_catalog()) } else { None };
        let counters = Some(&self.planner_counters);
        planner::lower_with_stats(parsed, &self.datastore, stats.as_deref(), counters)
            .map_err(|e| QueryError::Plan(e.to_string()))
    }

    /// EXPLAIN: parse and plan a query, rendering the physical plan with
    /// cost annotations from the instance's aggregated profiles plus the
    /// live metric snapshot — operator timings, cache hit ratio, and
    /// reordering decisions from queries run so far (no execution
    /// happens).
    pub fn explain(&self, iql_text: &str) -> Result<String, QueryError> {
        let parsed = parse(iql_text)?;
        // Snapshot before planning so EXPLAIN reports what queries have
        // done, not its own planner bookkeeping.
        let snapshot = self.metrics_snapshot();
        let plan = self.plan_query(&parsed)?;
        let merged = self.profiles.merged();
        Ok(crate::explain::explain_with_metrics(&plan, merged.row(0), &snapshot))
    }

    /// Parse, plan, and execute an IQL query.
    pub fn query(&mut self, iql_text: &str) -> Result<QueryOutcome, QueryError> {
        let parsed = parse(iql_text)?;
        self.query_parsed(&parsed)
    }

    /// Execute an already-parsed query.
    pub fn query_parsed(&mut self, parsed: &iql::ast::Query) -> Result<QueryOutcome, QueryError> {
        let plan = self.plan_query(parsed)?;
        engine::execute_plan(
            &mut self.cluster,
            &self.datastore,
            &self.registry,
            &mut self.profiles,
            &self.arg_memo,
            &plan,
            &self.config.exec,
            &self.metrics,
            self.cache.as_deref(),
        )
        .map_err(QueryError::Exec)
    }

    /// Everything *outside* the query text that determines an intermediate
    /// result: cluster shape, root seed, datastore contents (term ids are
    /// dictionary-specific), and result-affecting exec options. Cache keys
    /// for semantic reuse are salted with this so instances with different
    /// data or configuration sharing one cache never cross-resume. The
    /// salt is a pure function of instance inputs, keeping replay
    /// deterministic. Every input is fixed within a plan epoch, so
    /// `prepare_run` renders it once per epoch, not per query.
    fn reuse_salt(&self) -> u64 {
        let rendered = format!(
            "ids-reuse-salt-v1|ranks={}|seed={}|shards={}|triples={}|exec={}",
            self.config.topology.total_ranks(),
            self.config.seed,
            self.datastore.num_shards(),
            self.datastore.triple_count(),
            self.config.exec.salt_text(),
        );
        fnv1a(rendered.as_bytes())
    }

    /// Everything `iql_text` prepares to, derived from scratch with no
    /// cache involved (salt included) — the oracle a cached
    /// [`IdsInstance::prepared`] entry must equal.
    pub fn prepare_fresh(&self, iql_text: &str, reuse: bool) -> Result<Prepared, QueryError> {
        let salt = (reuse && self.cache.is_some()).then(|| self.reuse_salt());
        self.build_prepared(iql_text, salt)
    }

    /// Parse, lower, and — when `reuse_salt` is given — canonicalise the
    /// fragments the plan schedules into reuse checkpoints salted with it.
    fn build_prepared(
        &self,
        iql_text: &str,
        reuse_salt: Option<u64>,
    ) -> Result<Prepared, QueryError> {
        let ast = parse(iql_text)?;
        let plan = self.plan_query(&ast)?;
        let reuse = reuse_salt.map(|salt| {
            let checkpoint = |spec: FragmentSpec, label: String| {
                let frag = iql::fragment(&ast, spec);
                ReuseCheckpoint {
                    key: format!("reuse/{salt:016x}/{:016x}", frag.fingerprint),
                    fingerprint: frag.fingerprint,
                    label,
                    rename: frag.rename.into_iter().collect(),
                }
            };
            // Only the fragments the plan has a boundary for: a filter-less
            // query's WHERE fragment is its BGP fragment.
            Arc::new(ReusePlan {
                after_bgp: Some(checkpoint(FragmentSpec::Bgp, "bgp".to_string())),
                after_where: plan
                    .where_filter
                    .is_some()
                    .then(|| checkpoint(FragmentSpec::Where, "where".to_string())),
                after_stage: (0..plan.stages.len())
                    .map(|i| Some(checkpoint(FragmentSpec::Stages(i + 1), format!("stage{i}"))))
                    .collect(),
                max_object_bytes: ReusePlan::DEFAULT_MAX_OBJECT_BYTES,
            })
        });
        Ok(Prepared { plan: Arc::new(plan), reuse })
    }

    /// The prepared form of `iql_text` for the current plan epoch — the
    /// datastore's version plus this instance's exec options and attached
    /// cache — from the instance's bounded cache, built and cached on a
    /// miss. An entry from an earlier epoch is never returned. The flag
    /// says whether the entry was built by this call.
    fn prepared_entry(
        &self,
        iql_text: &str,
        reuse: bool,
    ) -> Result<(Arc<Prepared>, bool), QueryError> {
        let reuse = reuse && self.cache.is_some();
        let mut guard = self.prepared.lock();
        let cache = guard.get_or_insert_with(|| PreparedCache::new(&self.metrics));
        let epoch = PlanEpoch { store: self.datastore.version(), config: self.config_generation };
        cache.enter(epoch, || self.reuse_salt());
        if let Some(hit) = cache.get(iql_text, reuse) {
            return Ok((hit, false));
        }
        let built = Arc::new(self.build_prepared(iql_text, reuse.then(|| cache.salt()))?);
        cache.insert(iql_text, reuse, built.clone());
        Ok((built, true))
    }

    /// [`IdsInstance::prepare_run`]'s cached half, exposed so tests can
    /// compare an entry with [`IdsInstance::prepare_fresh`].
    pub fn prepared(&self, iql_text: &str, reuse: bool) -> Result<Arc<Prepared>, QueryError> {
        self.prepared_entry(iql_text, reuse).map(|(prepared, _)| prepared)
    }

    /// Parse and plan `iql_text` into a resumable [`PlanRun`] that a
    /// scheduler can interleave with other runs via
    /// [`IdsInstance::step_run`]. With `reuse` set (and a cache attached),
    /// the run probes/stores canonical plan-fragment checkpoints so
    /// overlapping queries — even α-renamed ones from different clients —
    /// share intermediate results.
    ///
    /// Repeated texts are served from the prepared-query cache (see
    /// [`crate::prepared`]): the run shares the cached plan and checkpoints
    /// and copies the plan only if it re-plans. With `exec.adaptive` on,
    /// the planner's inputs (UDF profiles, harvested statistics) move from
    /// query to query, so a cached entry contributes only its checkpoints
    /// (canonicalising a query's checkpoint prefixes costs ≈ 2–3× its
    /// lex + parse) and the text is parsed and lowered again.
    pub fn prepare_run(&self, iql_text: &str, reuse: bool) -> Result<PlanRun, QueryError> {
        let (prepared, built_now) = self.prepared_entry(iql_text, reuse)?;
        let plan = if self.config.exec.adaptive && !built_now {
            Arc::new(self.plan_query(&parse(iql_text)?)?)
        } else {
            prepared.plan.clone()
        };
        Ok(PlanRun::new(plan, self.config.exec, prepared.reuse.clone()))
    }

    /// Advance a prepared run by one pipeline stage against this
    /// instance's cluster, datastore, UDF profiles, prepared UDF arguments,
    /// and cache.
    pub fn step_run(&mut self, run: &mut PlanRun) -> Result<StepOutcome, QueryError> {
        run.step(
            &mut self.cluster,
            &self.datastore,
            &self.registry,
            &mut self.profiles,
            &self.arg_memo,
            &self.metrics,
            self.cache.as_deref(),
        )
        .map_err(QueryError::Exec)
    }

    /// Parse, plan, and execute a query with semantic reuse checkpoints
    /// enabled (requires an attached cache to have any effect).
    pub fn query_with_reuse(&mut self, iql_text: &str) -> Result<QueryOutcome, QueryError> {
        let mut run = self.prepare_run(iql_text, true)?;
        loop {
            if let StepOutcome::Done(outcome) = self.step_run(&mut run)? {
                return Ok(*outcome);
            }
        }
    }
}

fn parse(iql_text: &str) -> Result<iql::ast::Query, QueryError> {
    iql::parse_query(iql_text).map_err(|e| QueryError::Parse(e.to_string()))
}

/// Any failure between IQL text and results. Execution failures keep
/// their typed [`ExecError`](crate::engine::ExecError) payload so the
/// service tier can distinguish
/// (say) an exhausted recovery budget from an unbound variable without
/// parsing message strings.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    Parse(String),
    Plan(String),
    Exec(engine::ExecError),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Parse(m) => write!(f, "parse: {m}"),
            QueryError::Plan(m) => write!(f, "plan: {m}"),
            QueryError::Exec(e) => write!(f, "exec: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_graph::Term;
    use ids_udf::{UdfOutput, UdfValue};
    use std::sync::Arc as StdArc;

    fn demo_instance() -> IdsInstance {
        let inst = IdsInstance::launch(IdsConfig::laptop(4, 42));
        let ds = inst.datastore();
        for i in 0..20 {
            ds.add_fact(
                &Term::iri(format!("p:{i}")),
                &Term::iri("rdf:type"),
                &Term::iri("up:Protein"),
            );
            ds.add_fact(&Term::iri(format!("p:{i}")), &Term::iri("up:len"), &Term::Int(i * 10));
        }
        for c in 0..40 {
            ds.add_fact(
                &Term::iri(format!("c:{c}")),
                &Term::iri("inhibits"),
                &Term::iri(format!("p:{}", c % 20)),
            );
        }
        ds.build_indexes();
        inst
    }

    /// The salt keys every reuse object, so it must not move when an
    /// execution setting becomes a constant: these are the values the
    /// salt had while all 23 settings were `ExecOptions` fields.
    #[test]
    fn reuse_salt_is_pinned() {
        let inst = IdsInstance::launch(IdsConfig::laptop(4, 42));
        assert_eq!(inst.reuse_salt(), 0xc9df_2a0a_d741_691d);
        let mut inst = demo_instance();
        inst.exec_options_mut().pipelined = true;
        inst.exec_options_mut().scan_secs_per_triple = 3.0e-8;
        assert_eq!(inst.reuse_salt(), 0xc5e5_96c2_6405_d4a9);
    }

    #[test]
    fn simple_select_returns_all_matches() {
        let mut inst = demo_instance();
        let out = inst.query("SELECT ?p WHERE { ?p <rdf:type> <up:Protein> . }").unwrap();
        assert_eq!(out.solutions.len(), 20);
        assert!(out.elapsed_secs > 0.0);
    }

    /// Each `ids_planner_*` series appears with the first lowering that
    /// adds to it, not before, and counts every lowering after.
    #[test]
    fn planner_counters_appear_with_their_first_lowering() {
        let planner_series = |inst: &IdsInstance| -> Vec<(String, u64)> {
            let snap = inst.metrics().snapshot();
            let planner =
                snap.counters.into_iter().filter(|(k, _)| k.name.starts_with("ids_planner"));
            planner.map(|(k, v)| (k.name.to_string(), v)).collect()
        };
        let series = |pairs: &[(&str, u64)]| -> Vec<(String, u64)> {
            pairs.iter().map(|&(n, v)| (format!("ids_planner_{n}_total"), v)).collect()
        };
        let mut inst = demo_instance();
        assert!(planner_series(&inst).is_empty(), "an idle instance exports none");
        inst.query("SELECT ?p WHERE { ?p <rdf:type> <up:Protein> . }").unwrap();
        let plain = [("impossible_patterns", 0), ("patterns", 1), ("plans", 1), ("stages", 0)];
        assert_eq!(planner_series(&inst), series(&plain));
        inst.query("SELECT ?p WHERE { ?p <up:len> ?l . FILTER(?l > 3) }").unwrap();
        let filtered = [
            ("filter_conjuncts", 1),
            ("impossible_patterns", 0),
            ("patterns", 2),
            ("plans", 2),
            ("stages", 0),
        ];
        assert_eq!(planner_series(&inst), series(&filtered));
        inst.exec_options_mut().adaptive = true;
        inst.query("SELECT ?p WHERE { ?p <nope> ?x . }").unwrap();
        let adaptive = [
            ("cost_based_plans", 1),
            ("filter_conjuncts", 1),
            ("impossible_patterns", 1),
            ("patterns", 3),
            ("plans", 3),
            ("stages", 0),
        ];
        assert_eq!(planner_series(&inst), series(&adaptive));
    }

    #[test]
    fn adaptive_planning_matches_static_results() {
        let raw = |out: &QueryOutcome| -> Vec<Vec<u64>> {
            out.solutions.rows().iter().map(|r| r.iter().map(|t| t.raw()).collect()).collect()
        };
        let q = "SELECT ?c ?p ?l WHERE { ?c <inhibits> ?p . ?p <rdf:type> <up:Protein> . ?p <up:len> ?l . }";
        let mut stat = demo_instance();
        let stat_out = stat.query(q).unwrap();
        let mut adap = demo_instance();
        adap.exec_options_mut().adaptive = true;
        let adap_out = adap.query(q).unwrap();
        assert_eq!(raw(&stat_out), raw(&adap_out), "adaptive planning changed result bytes");
        assert!(adap_out.adaptive.checks >= 1, "adaptive run recorded no boundary checks");
        let snap = adap.metrics_snapshot();
        assert!(snap.counter_sum("ids_planner_cost_based_plans_total") >= 1);
        // The statistics catalog is cached until ingest changes the store.
        let c1 = adap.stats_catalog();
        let c2 = adap.stats_catalog();
        assert_eq!(c1.total_triples(), c2.total_triples());
        adap.datastore().add_fact(
            &Term::iri("p:new"),
            &Term::iri("rdf:type"),
            &Term::iri("up:Protein"),
        );
        adap.datastore().build_indexes();
        let c3 = adap.stats_catalog();
        assert_eq!(c3.total_triples(), c1.total_triples() + 1, "ingest must refresh the catalog");
    }

    #[test]
    fn join_across_patterns() {
        let mut inst = demo_instance();
        let out = inst
            .query("SELECT ?c ?p WHERE { ?c <inhibits> ?p . ?p <rdf:type> <up:Protein> . }")
            .unwrap();
        assert_eq!(out.solutions.len(), 40);
        assert!(out.breakdown.join_secs > 0.0);
        assert!(out.breakdown.scan_secs > 0.0);
    }

    #[test]
    fn filter_on_literal_values() {
        let mut inst = demo_instance();
        let out = inst.query("SELECT ?p WHERE { ?p <up:len> ?l . FILTER(?l >= 100) }").unwrap();
        // len = 0,10,…,190; >= 100 → 10 rows.
        assert_eq!(out.solutions.len(), 10);
    }

    #[test]
    fn panicking_udf_in_filter_reports_query_error() {
        let mut inst = demo_instance();
        inst.registry()
            .register_static(
                "boom",
                StdArc::new(|_args: &[UdfValue]| -> UdfOutput { panic!("udf exploded") }),
            )
            .unwrap();
        let err = inst.query("SELECT ?p WHERE { ?p <up:len> ?l . FILTER(boom(?l)) }").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("panicked") && msg.contains("udf exploded"), "{msg}");
        // The instance must stay usable: no poisoned executor state.
        let out = inst.query("SELECT ?p WHERE { ?p <rdf:type> <up:Protein> . }").unwrap();
        assert_eq!(out.solutions.len(), 20);
    }

    #[test]
    fn panicking_udf_in_apply_reports_query_error() {
        let mut inst = demo_instance();
        inst.registry()
            .register_static(
                "boom",
                StdArc::new(|_args: &[UdfValue]| -> UdfOutput { panic!("apply exploded") }),
            )
            .unwrap();
        let err =
            inst.query("SELECT ?p ?x WHERE { ?p <up:len> ?l . } APPLY boom(?l) AS ?x").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("panicked") && msg.contains("apply exploded"), "{msg}");
        let out = inst.query("SELECT ?p WHERE { ?p <rdf:type> <up:Protein> . }").unwrap();
        assert_eq!(out.solutions.len(), 20);
    }

    #[test]
    fn a_udf_error_that_mentions_a_deadline_is_not_a_stage_deadline() {
        // The UDF's own text names a deadline; no stage deadline is set.
        // Recovery must report the UDF's error, not retry it as a
        // straggler until the rollback budget runs out.
        let mut inst = demo_instance();
        inst.registry()
            .register_static(
                "upstream",
                StdArc::new(|_args: &[UdfValue]| -> UdfOutput {
                    UdfOutput::new(UdfValue::Str("upstream exceeded its deadline".into()), 0.01)
                }),
            )
            .unwrap();
        inst.exec_options_mut().recovery = true;
        let err =
            inst.query("SELECT ?p WHERE { ?p <up:len> ?l . FILTER(upstream(?l)) }").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("expression is not boolean") && msg.contains("upstream"), "{msg}");
        let snap = inst.metrics_snapshot();
        assert_eq!(snap.counter("ids_recovery_rollbacks_total", ""), 0, "{msg}");
    }

    #[test]
    fn flaky_udf_is_absorbed_by_row_retries() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let mut inst = demo_instance();
        let failed_once = StdArc::new(Mutex::new(HashSet::new()));
        inst.registry()
            .register_static(
                "flaky",
                StdArc::new(move |args: &[UdfValue]| -> UdfOutput {
                    // Every row's first attempt panics and its retry
                    // succeeds (default row_retries = 2), keyed by the
                    // row's own value — so however ranks interleave on
                    // host threads, each row fails exactly once.
                    let l = args[0].as_f64().unwrap_or(0.0);
                    let first_attempt = failed_once.lock().unwrap().insert(l.to_bits());
                    if first_attempt {
                        panic!("transient worker fault");
                    }
                    UdfOutput::new(UdfValue::Bool(l >= 0.0), 0.01)
                }),
            )
            .unwrap();
        let out = inst.query("SELECT ?p WHERE { ?p <up:len> ?l . FILTER(flaky(?l)) }").unwrap();
        assert_eq!(out.solutions.len(), 20, "every row succeeds within its retry budget");
        assert!(!out.degraded());
        let snap = inst.metrics_snapshot();
        assert_eq!(snap.counter("ids_engine_row_retries_total", ""), 20, "one retry per row");
        assert_eq!(snap.counter("ids_engine_dropped_rows_total", ""), 0);
    }

    #[test]
    fn degrade_mode_returns_partial_result_with_annotations() {
        let mut inst = demo_instance();
        inst.registry()
            .register_static(
                "picky",
                StdArc::new(|args: &[UdfValue]| -> UdfOutput {
                    let l = args[0].as_f64().unwrap_or(0.0);
                    // Rows with len >= 100 always panic — retries cannot
                    // save them, so degrade mode must drop exactly those.
                    if l >= 100.0 {
                        panic!("row poisoned at len {l}");
                    }
                    UdfOutput::new(UdfValue::Bool(true), 0.01)
                }),
            )
            .unwrap();
        inst.exec_options_mut().degrade = true;
        let out = inst.query("SELECT ?p WHERE { ?p <up:len> ?l . FILTER(picky(?l)) }").unwrap();
        // len = 0,10,…,190: ten rows below 100 survive, ten are dropped.
        assert_eq!(out.solutions.len(), 10);
        assert!(out.degraded());
        assert_eq!(out.rows_dropped(), 10);
        assert!(out
            .annotations
            .iter()
            .all(|a| a.kind == crate::engine::DegradedKind::WorkerPanic && a.stage == "filter"));
        assert!(out.annotations.iter().any(|a| a.detail.contains("row poisoned")));

        // The degradation is observable after the fact too.
        let snap = inst.metrics_snapshot();
        assert_eq!(snap.counter("ids_engine_degraded_queries_total", ""), 1);
        assert_eq!(snap.counter("ids_engine_dropped_rows_total", ""), 10);
        let text = inst.explain("SELECT ?p WHERE { ?p <up:len> ?l . FILTER(picky(?l)) }").unwrap();
        assert!(text.contains("faults & degradation"), "{text}");
        assert!(text.contains("rows dropped"), "{text}");
    }

    #[test]
    fn stage_deadline_degrades_or_fails_per_policy() {
        // Strict (default): blowing the stage deadline is a query error.
        let mut inst = demo_instance();
        inst.exec_options_mut().stage_deadline_secs = 2.5e-7;
        let q = "SELECT ?p WHERE { ?p <up:len> ?l . FILTER(?l >= 0) }";
        let err = inst.query(q).unwrap_err();
        assert!(err.to_string().contains("deadline"), "{err}");

        // Degrade: the stage stops early and reports what it dropped.
        let mut inst = demo_instance();
        inst.exec_options_mut().stage_deadline_secs = 2.5e-7;
        inst.exec_options_mut().degrade = true;
        let out = inst.query(q).unwrap();
        assert!(out.solutions.len() < 20, "some rows must be dropped");
        assert!(out.degraded());
        assert!(out
            .annotations
            .iter()
            .all(|a| a.kind == crate::engine::DegradedKind::DeadlineExceeded));
        assert_eq!(out.solutions.len() as u64 + out.rows_dropped(), 20);
        let snap = inst.metrics_snapshot();
        assert!(snap.counter("ids_engine_stage_deadline_hits_total", "") > 0);
    }

    #[test]
    fn udf_in_filter_and_apply() {
        let mut inst = demo_instance();
        inst.registry()
            .register_static(
                "long_enough",
                StdArc::new(|args: &[UdfValue]| {
                    let l = args[0].as_f64().unwrap_or(0.0);
                    UdfOutput::new(UdfValue::Bool(l >= 50.0), 0.01)
                }),
            )
            .unwrap();
        inst.registry()
            .register_static(
                "scale",
                StdArc::new(|args: &[UdfValue]| {
                    let l = args[0].as_f64().unwrap_or(0.0);
                    UdfOutput::new(UdfValue::F64(l / 10.0), 0.02)
                }),
            )
            .unwrap();
        let out = inst
            .query(
                "SELECT ?p ?s WHERE { ?p <up:len> ?l . FILTER(long_enough(?l)) } \
                 APPLY scale(?l) AS ?s FILTER(?s < 15.0) LIMIT 5",
            )
            .unwrap();
        // len 50..190 passes (15 rows), s=len/10 < 15 → len < 150 → 10 rows, limit 5.
        assert_eq!(out.solutions.len(), 5);
        assert_eq!(out.solutions.vars(), &["p".to_string(), "s".to_string()]);
        // Profilers saw the UDFs.
        let total_calls: u64 =
            inst.profilers().filter_map(|p| p.get("long_enough")).map(|p| p.calls).sum();
        assert_eq!(total_calls, 20);
        // Apply stage is on the breakdown.
        assert!(out.breakdown.apply_secs.contains_key("scale"));
    }

    #[test]
    fn a_failed_stage_leaves_the_profile_table_unchanged() {
        let mut inst = demo_instance();
        inst.registry()
            .register_static(
                "long_enough",
                StdArc::new(|args: &[UdfValue]| {
                    let l = args[0].as_f64().unwrap_or(0.0);
                    UdfOutput::new(UdfValue::Bool(l >= 50.0), 0.01)
                }),
            )
            .unwrap();
        // Not a boolean from length 150 on: the FILTER fails on that row,
        // after its rank has already recorded calls.
        inst.registry()
            .register_static(
                "fragile",
                StdArc::new(|args: &[UdfValue]| {
                    let l = args[0].as_f64().unwrap_or(0.0);
                    let v = if l < 150.0 { UdfValue::Bool(true) } else { UdfValue::F64(l) };
                    UdfOutput::new(v, 0.03)
                }),
            )
            .unwrap();
        inst.query("SELECT ?p WHERE { ?p <up:len> ?l . FILTER(long_enough(?l)) }").unwrap();
        let before = inst.profiles.clone();
        assert_eq!(before.merged().row(0).get("long_enough").unwrap().calls, 20);
        let err = inst
            .query("SELECT ?p WHERE { ?p <up:len> ?l . FILTER(long_enough(?l) && fragile(?l)) }")
            .unwrap_err();
        assert!(err.to_string().contains("not boolean"), "{err}");
        assert_eq!(inst.profiles, before, "a failed stage committed its profiles");
    }

    #[test]
    fn unknown_projection_errors() {
        let mut inst = demo_instance();
        let err = inst.query("SELECT ?ghost WHERE { ?p <rdf:type> <up:Protein> . }").unwrap_err();
        assert!(matches!(err, QueryError::Exec(_)));
    }

    #[test]
    fn impossible_pattern_yields_empty() {
        let mut inst = demo_instance();
        let out = inst.query("SELECT ?p WHERE { ?p <rdf:type> <up:Unicorn> . }").unwrap();
        assert!(out.solutions.is_empty());
    }

    #[test]
    fn parse_error_surfaces() {
        let mut inst = demo_instance();
        assert!(matches!(inst.query("SELECT"), Err(QueryError::Parse(_))));
    }

    #[test]
    fn clock_reset_between_queries() {
        let mut inst = demo_instance();
        inst.query("SELECT ?p WHERE { ?p <rdf:type> <up:Protein> . }").unwrap();
        let t1 = inst.cluster().elapsed();
        assert!(t1 > 0.0);
        inst.reset_clocks();
        assert_eq!(inst.cluster().elapsed(), 0.0);
    }

    #[test]
    fn explain_shows_plan_without_executing() {
        let inst = demo_instance();
        let text = inst
            .explain(
                "SELECT ?p WHERE { ?c <inhibits> ?p . ?p <rdf:type> <up:Protein> . \
                 FILTER(?p != <p:0>) } ORDER BY ?p LIMIT 5",
            )
            .unwrap();
        assert!(text.contains("QUERY PLAN"), "{text}");
        assert!(text.contains("~20 rows"), "type pattern cardinality: {text}");
        assert!(text.contains("~40 rows"), "inhibits cardinality: {text}");
        assert!(text.contains("order by: ?p ASC"), "{text}");
        assert!(text.contains("limit: 5"), "{text}");
        // No execution happened: clocks untouched.
        assert_eq!(inst.cluster().elapsed(), 0.0);
    }

    #[test]
    fn explain_metrics_block_empty_then_populated() {
        let mut inst = demo_instance();
        let q = "SELECT ?p WHERE { ?p <up:len> ?l . FILTER(?l >= 100) }";
        // No cache attached and nothing executed: the snapshot is truly
        // empty and EXPLAIN renders the placeholder.
        assert!(inst.metrics_snapshot().is_empty());
        let before = inst.explain(q).unwrap();
        assert!(before.contains("(no metrics recorded)"), "{before}");

        inst.query(q).unwrap();
        let after = inst.explain(q).unwrap();
        assert!(after.contains("metrics (live, virtual time)"), "{after}");
        assert!(after.contains("scan :"), "{after}");
        assert!(after.contains("filter :"), "{after}");
        assert!(!after.contains("(no metrics recorded)"), "{after}");
    }

    #[test]
    fn prometheus_render_tracks_queries() {
        let mut inst = demo_instance();
        inst.query("SELECT ?p WHERE { ?p <rdf:type> <up:Protein> . }").unwrap();
        inst.query("SELECT ?p WHERE { ?p <rdf:type> <up:Protein> . }").unwrap();
        let text = inst.render_prometheus();
        assert!(text.contains("ids_engine_queries_total 2"), "{text}");
        assert!(text.contains("ids_planner_plans_total 2"), "{text}");
        assert!(text.contains("# TYPE ids_engine_query_secs histogram"), "{text}");
        assert!(text.contains("ids_engine_query_secs_count 2"), "{text}");
    }

    #[test]
    fn order_by_sorts_before_limit() {
        let mut inst = demo_instance();
        // Top-3 longest proteins.
        let out =
            inst.query("SELECT ?p ?l WHERE { ?p <up:len> ?l . } ORDER BY ?l DESC LIMIT 3").unwrap();
        let lens: Vec<i64> = out
            .solutions
            .rows()
            .iter()
            .map(|r| inst.datastore().decode(r[1]).unwrap().as_i64().unwrap())
            .collect();
        assert_eq!(lens, vec![190, 180, 170]);
        // Ascending variant.
        let out = inst.query("SELECT ?l WHERE { ?p <up:len> ?l . } ORDER BY ?l LIMIT 2").unwrap();
        let lens: Vec<i64> = out
            .solutions
            .rows()
            .iter()
            .map(|r| inst.datastore().decode(r[0]).unwrap().as_i64().unwrap())
            .collect();
        assert_eq!(lens, vec![0, 10]);
    }

    #[test]
    fn order_by_unbound_variable_errors() {
        let mut inst = demo_instance();
        assert!(inst.query("SELECT ?p WHERE { ?p <up:len> ?l . } ORDER BY ?ghost").is_err());
    }

    #[test]
    fn distinct_deduplicates_projection() {
        let mut inst = demo_instance();
        // 40 inhibits-edges over 20 proteins: DISTINCT projects 20.
        let all = inst.query("SELECT ?p WHERE { ?c <inhibits> ?p . }").unwrap();
        assert_eq!(all.solutions.len(), 40);
        let distinct = inst.query("SELECT DISTINCT ?p WHERE { ?c <inhibits> ?p . }").unwrap();
        assert_eq!(distinct.solutions.len(), 20);
    }

    #[test]
    fn semantic_reuse_resumes_from_cached_fragments() {
        use ids_cache::{BackingStore, CacheConfig, CacheManager};
        use ids_simrt::{NetworkModel, Topology};

        let mut inst = demo_instance();
        inst.attach_cache(StdArc::new(CacheManager::new(
            Topology::new(4, 1),
            NetworkModel::slingshot(),
            CacheConfig::new(4, 16 << 20, 64 << 20),
            BackingStore::default_store(),
        )));
        let q1 = "SELECT ?c ?p WHERE { ?c <inhibits> ?p . ?p <rdf:type> <up:Protein> . \
                  FILTER(?p != <p:0>) }";
        // α-renamed variant with a different filter constant: shares the
        // BGP checkpoint but not the post-WHERE one.
        let q2 = "SELECT ?a ?b WHERE { ?a <inhibits> ?b . ?b <rdf:type> <up:Protein> . \
                  FILTER(?b != <p:1>) }";

        let cold = inst.query_with_reuse(q1).unwrap();
        let snap = inst.metrics_snapshot();
        assert!(snap.counter("ids_reuse_stores_total", "bgp") >= 1, "cold run stores the BGP");
        assert_eq!(snap.counter("ids_reuse_hits_total", "bgp"), 0);

        let renamed = inst.query_with_reuse(q2).unwrap();
        let snap = inst.metrics_snapshot();
        assert_eq!(snap.counter("ids_reuse_hits_total", "bgp"), 1, "α-renamed query reuses BGP");
        // 40 inhibits-edges, minus the two proteins excluded once each.
        assert_eq!(cold.solutions.len(), 38);
        assert_eq!(renamed.solutions.len(), 38);

        // The exact same query resumes from its deepest checkpoint and
        // produces the same rows.
        let replay = inst.query_with_reuse(q1).unwrap();
        let snap = inst.metrics_snapshot();
        assert!(snap.counter("ids_reuse_hits_total", "where") >= 1, "replay resumes after WHERE");
        let decode = |o: &QueryOutcome| -> Vec<Vec<String>> {
            let mut rows: Vec<Vec<String>> = o
                .solutions
                .rows()
                .iter()
                .map(|r| {
                    r.iter().map(|t| inst.datastore().decode(*t).unwrap().to_string()).collect()
                })
                .collect();
            rows.sort();
            rows
        };
        assert_eq!(decode(&cold), decode(&replay), "reused rows match re-execution");

        // q1, q2 and the replay: three prepares, the replay served from the
        // prepared-query cache — so the planner lowered only twice.
        let text = inst.explain(q1).unwrap();
        assert!(text.contains("prepared queries: 1 hits / 3 prepares, 2 cached"), "{text}");
        assert_eq!(snap.counter("ids_planner_plans_total", ""), 2);
    }

    #[test]
    fn reuse_disabled_without_cache_is_plain_execution() {
        let mut inst = demo_instance();
        let q = "SELECT ?p WHERE { ?p <rdf:type> <up:Protein> . }";
        let out = inst.query_with_reuse(q).unwrap();
        assert_eq!(out.solutions.len(), 20);
        let snap = inst.metrics_snapshot();
        assert_eq!(snap.counter("ids_reuse_hits_total", "bgp"), 0);
        assert_eq!(snap.counter("ids_reuse_stores_total", "bgp"), 0);
    }

    #[test]
    fn cross_product_when_no_shared_vars() {
        let mut inst = demo_instance();
        let out = inst
            .query(
                "SELECT ?a ?b WHERE { ?a <rdf:type> <up:Protein> . ?b <inhibits> ?x . } LIMIT 1000",
            )
            .unwrap();
        assert_eq!(out.solutions.len(), 20 * 40);
    }
}
