//! The query service: sessions, admission control, and the fair-share
//! scheduler.
//!
//! One [`QueryService`] owns one [`IdsInstance`] and multiplexes many
//! tenants over it. Queries are admitted into bounded per-tenant queues,
//! then interleaved at *pipeline-stage granularity* by a class-aware
//! weighted deficit-round-robin (WDRR) scheduler running on the instance's
//! virtual clock: each scheduling slice steps one query's [`PlanRun`]
//! through one BSP stage, charges the stage's virtual cost against the
//! tenant's deficit, and moves on. The scheduler is single-threaded (only
//! a stage's ranks fan out to host threads, and they return bit-identical
//! results whatever the schedule) and seeded, so a given (seed, workload)
//! pair replays byte-identically — including the scheduler's slice trace,
//! which hashes to a stable digest via [`QueryService::trace_hash`].
//!
//! Three overload-survivability mechanisms ride on top of the scheduler
//! (see `crate::slo` and `crate::elastic` for the controllers):
//!
//! * each tenant's [`SloClass`] orders it within a round and scales its
//!   deficit rate; a starving `Batch`/`BestEffort` tenant whose head
//!   query ages past its promotion threshold is scheduled one class up
//!   (**deadline-based promotion**), so low classes degrade to slower —
//!   never to stuck;
//! * past a queue-occupancy high-water mark the service **sheds load**,
//!   refusing `BestEffort` admissions first and `Batch` next with typed
//!   retryable [`ServeError::Shed`] errors, protecting `Interactive`
//!   goodput instead of collapsing every class together;
//! * sustained queue pressure **scales the active node set out** (and
//!   sustained slack scales it back in), reusing the cache's crash
//!   recovery + anti-entropy re-replication for joiners and the engine's
//!   shard re-owning for drains.

use crate::elastic::{ElasticityController, ScaleDecision, ScaleEvent};
use crate::error::{Refusal, ServeError};
use crate::slo::{ShedConfig, ShedController, SloClass};
use ids_core::{ExecError, IdsInstance, PlanRun, QueryError, QueryOutcome, RunPhase, StepOutcome};
use ids_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use ids_simrt::rng::{fnv1a, hash_combine};
use ids_simrt::{NodeId, RankId};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Service-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Virtual seconds of work a weight-1 tenant earns per scheduler
    /// round. Larger quanta mean fewer, longer slices.
    pub quantum_secs: f64,
    /// Enable semantic result reuse (plan-fragment checkpoints in the
    /// instance's attached cache). Off = every query executes cold.
    pub reuse: bool,
    /// Global bound on queued queries across all tenants. Also the
    /// denominator of the load-shedding occupancy signal.
    pub max_in_flight: usize,
    /// Hysteresis thresholds for the load-shedding controller.
    pub shed: ShedConfig,
    /// Promotion threshold (virtual seconds) for tenants without a
    /// deadline: a non-`Interactive` tenant whose head query has waited
    /// longer is scheduled one class up for the round. A tenant with a
    /// deadline is promoted once its head query has aged past
    /// `PROMOTE_DEADLINE_FRAC` (half) of it.
    pub promote_wait_secs: f64,
    /// Elastic scale-out/in policy. `None` = fixed membership (every
    /// cluster node active), the pre-elasticity behavior.
    pub elasticity: Option<crate::elastic::ElasticityConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            quantum_secs: 0.05,
            reuse: true,
            max_in_flight: 256,
            shed: ShedConfig::default(),
            promote_wait_secs: 1.0,
            elasticity: None,
        }
    }
}

/// Deadline-based promotion: the fraction of its tenant deadline past
/// which a non-`Interactive` tenant's head query is scheduled one class
/// up for the round.
const PROMOTE_DEADLINE_FRAC: f64 = 0.5;

/// Per-tenant admission and scheduling policy.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Tenant name (also the metrics label).
    pub name: String,
    /// Fair-share weight: a weight-2 tenant earns twice the virtual time
    /// per round of a weight-1 tenant. Clamped to at least 1.
    pub weight: u32,
    /// Bound on this tenant's queued + running queries.
    pub max_queued: usize,
    /// Optional per-query deadline (virtual seconds from admission).
    /// Queries still queued or running past it are aborted with
    /// [`ServeError::DeadlineExceeded`].
    pub deadline_secs: Option<f64>,
    /// SLO class: orders the tenant within each scheduler round, scales
    /// its deficit rate, and decides when overload sheds its traffic.
    pub class: SloClass,
}

impl TenantConfig {
    /// A weight-1 `Interactive` tenant with an 8-deep queue and no
    /// deadline.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            weight: 1,
            max_queued: 8,
            deadline_secs: None,
            class: SloClass::Interactive,
        }
    }

    /// Set the fair-share weight.
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// Set the queue-depth bound.
    pub fn with_max_queued(mut self, depth: usize) -> Self {
        self.max_queued = depth.max(1);
        self
    }

    /// Set the per-query deadline.
    pub fn with_deadline(mut self, secs: f64) -> Self {
        self.deadline_secs = Some(secs);
        self
    }

    /// Set the SLO class.
    pub fn with_class(mut self, class: SloClass) -> Self {
        self.class = class;
        self
    }
}

/// Handle for an open client session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

/// Handle for an admitted query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u64);

/// One scheduler slice: which query ran which pipeline stage, and when on
/// the virtual clock. The full slice sequence is the scheduler trace, one
/// record per slice for the life of the service — so a record owns no heap
/// data of its own.
#[derive(Debug, Clone)]
pub struct SliceRecord {
    /// Tenant that was charged (the name is shared with the tenant table).
    pub tenant: Arc<str>,
    /// Query that ran.
    pub query: QueryId,
    /// Pipeline stage that ran; [`RunPhase::label`] renders it
    /// (`pattern0`, `where-filter`, `stage1`, `gather`).
    pub phase: RunPhase,
    /// Virtual time when the slice started.
    pub started_at: f64,
    /// Virtual time when the slice ended.
    pub ended_at: f64,
}

/// A finished (or aborted) query with its service-level timings.
#[derive(Debug)]
pub struct Completed {
    /// Owning tenant.
    pub tenant: String,
    /// The tenant's SLO class at completion time.
    pub class: SloClass,
    /// Session the query was submitted on.
    pub session: SessionId,
    /// The admitted query id.
    pub query: QueryId,
    /// Engine outcome, or the service error that ended the query.
    pub result: Result<QueryOutcome, ServeError>,
    /// Virtual seconds between admission and the first scheduled slice.
    pub queue_wait_secs: f64,
    /// Virtual seconds between admission and completion.
    pub latency_secs: f64,
    /// Scheduler slices this query consumed.
    pub slices: u32,
    /// Reuse checkpoint the run resumed from (−1 = executed cold; 0 =
    /// after-BGP, 1 = after-WHERE, 2 + i = after stage i).
    pub resumed_from: i64,
}

struct Job {
    id: QueryId,
    session: SessionId,
    run: PlanRun,
    enqueued_at: f64,
    first_slice_at: Option<f64>,
    slices: u32,
}

struct Tenant {
    cfg: TenantConfig,
    /// `cfg.name`, shared with sessions and slice records.
    name: Arc<str>,
    deficit: f64,
    queue: VecDeque<Job>,
    meters: TenantMeters,
}

impl Tenant {
    /// The fair-share weight scaled by an SLO class multiplier, widened so
    /// that no caller-supplied weight can overflow it.
    fn effective_weight(&self, class_mult: u32) -> u64 {
        u64::from(self.cfg.weight) * u64::from(class_mult)
    }
}

/// The metric handles every served query touches, resolved once per
/// tenant (and its SLO class) instead of by name per query. Refusals,
/// aborts and recovery events stay by-name look-ups at their call sites.
struct TenantMeters {
    admitted: Counter,
    queue_depth: Gauge,
    slices: Counter,
    queue_wait: Histogram,
    latency: Histogram,
    completed: Counter,
    class_admitted: Counter,
    class_latency: Histogram,
    class_completed: Counter,
}

impl TenantMeters {
    fn resolve(m: &MetricsRegistry, tenant: &str, class: SloClass) -> Self {
        Self {
            admitted: m.counter_with("ids_serve_admitted_total", "tenant", tenant),
            queue_depth: m.gauge_with("ids_serve_queue_depth", "tenant", tenant),
            slices: m.counter_with("ids_serve_slices_total", "tenant", tenant),
            queue_wait: m.histogram_with("ids_serve_queue_wait_secs", "tenant", tenant),
            latency: m.histogram_with("ids_serve_latency_secs", "tenant", tenant),
            completed: m.counter_with("ids_serve_completed_total", "tenant", tenant),
            class_admitted: m.counter_with(
                "ids_serve_class_admitted_total",
                "class",
                class.label(),
            ),
            class_latency: m.histogram_with("ids_serve_class_latency_secs", "class", class.label()),
            class_completed: m.counter_with(
                "ids_serve_class_completed_total",
                "class",
                class.label(),
            ),
        }
    }
}

struct Session {
    tenant: Arc<str>,
}

/// A deterministic multi-tenant query service over one [`IdsInstance`].
pub struct QueryService {
    inst: IdsInstance,
    cfg: ServeConfig,
    tenants: BTreeMap<String, Tenant>,
    sessions: BTreeMap<u64, Session>,
    next_session: u64,
    next_query: u64,
    trace: Vec<SliceRecord>,
    shed: ShedController,
    elastic: Option<ElasticityController>,
    scale_events: Vec<ScaleEvent>,
    /// Admissions refused (shed or overloaded) since the last scheduler
    /// round — demand the queue length cannot see because it was turned
    /// away at the door. Folded into the elasticity pressure signal so
    /// tight admission control does not starve scale-out of evidence.
    refused_since_round: usize,
}

impl QueryService {
    /// Wrap an instance. The instance keeps its datastore, cache, faults,
    /// and profilers — the service only adds multiplexing on top. With
    /// elasticity configured, the service starts at the policy's
    /// `min_nodes`: the remaining cluster nodes are parked (shards
    /// re-owned onto the active set, cache copies fenced) until queue
    /// pressure scales them in.
    pub fn new(inst: IdsInstance, cfg: ServeConfig) -> Self {
        let mut svc = Self {
            inst,
            cfg,
            tenants: BTreeMap::new(),
            sessions: BTreeMap::new(),
            next_session: 0,
            next_query: 0,
            trace: Vec::new(),
            shed: ShedController::new(cfg.shed),
            elastic: cfg.elasticity.map(ElasticityController::new),
            scale_events: Vec::new(),
            refused_since_round: 0,
        };
        if let Some(el) = &svc.elastic {
            let active = el.active_nodes();
            let topo = *svc.inst.cluster().topology();
            // Park everything past the initial active set through the
            // same fault-plane surface a crash uses.
            if let Some(cache) = svc.inst.cache().cloned() {
                for node in active..topo.nodes() {
                    cache.fail_node(NodeId(node));
                }
            }
            let ranks = svc.active_rank_set(active);
            svc.inst.cluster_mut().rebalance_owners(&ranks);
            svc.inst.metrics().gauge("ids_serve_active_nodes").set(active as i64);
        }
        svc
    }

    /// Register a tenant (idempotent by name: re-registering replaces the
    /// policy but keeps any queued work).
    pub fn register_tenant(&mut self, mut cfg: TenantConfig) {
        cfg.weight = cfg.weight.max(1);
        let meters = TenantMeters::resolve(self.inst.metrics(), &cfg.name, cfg.class);
        match self.tenants.get_mut(&cfg.name) {
            Some(t) => {
                t.cfg = cfg;
                t.meters = meters;
            }
            None => {
                let name: Arc<str> = Arc::from(cfg.name.as_str());
                self.tenants.insert(
                    cfg.name.clone(),
                    Tenant { cfg, name, deficit: 0.0, queue: VecDeque::new(), meters },
                );
            }
        }
    }

    /// Open a session for `tenant`.
    pub fn open_session(&mut self, tenant: &str) -> Result<SessionId, ServeError> {
        let Some(t) = self.tenants.get(tenant) else {
            return Err(ServeError::UnknownTenant(tenant.to_string()));
        };
        let id = self.next_session;
        self.next_session += 1;
        self.sessions.insert(id, Session { tenant: t.name.clone() });
        self.inst
            .metrics()
            .counter_with("ids_serve_sessions_total", "tenant", tenant.to_string())
            .inc();
        Ok(SessionId(id))
    }

    /// Submit a query on a session. Admission control runs here: unknown
    /// sessions, shed SLO classes, full queues, and parse/plan failures
    /// are all refused with a typed error; admitted queries are parsed,
    /// planned, and queued for the scheduler.
    pub fn submit(&mut self, session: SessionId, iql: &str) -> Result<QueryId, ServeError> {
        let tenant_name = self
            .sessions
            .get(&session.0)
            .ok_or(ServeError::UnknownSession(session.0))?
            .tenant
            .clone();
        let total_queued: usize = self.tenants.values().map(|t| t.queue.len()).sum();
        let tenant = self
            .tenants
            .get_mut(&*tenant_name)
            .ok_or_else(|| ServeError::UnknownTenant(tenant_name.to_string()))?;
        let class = tenant.cfg.class;
        // Load shedding runs before the per-tenant queue bound: the
        // controller observes the current occupancy and refuses sheddable
        // classes past the high-water mark.
        self.shed.observe(total_queued as f64 / self.cfg.max_in_flight.max(1) as f64);
        if self.shed.sheds(class) {
            let m = self.inst.metrics();
            m.counter_with("ids_serve_shed_total", "class", class.label()).inc();
            m.counter_with("ids_serve_shed_tenant_total", "tenant", &*tenant_name).inc();
            let refusal = Refusal::backoff(
                &*tenant_name,
                total_queued,
                self.cfg.quantum_secs,
                tenant.effective_weight(class.weight_mult()),
            );
            self.refused_since_round += 1;
            return Err(ServeError::Shed { refusal, class });
        }
        if tenant.queue.len() >= tenant.cfg.max_queued || total_queued >= self.cfg.max_in_flight {
            self.inst
                .metrics()
                .counter_with("ids_serve_overloaded_total", "tenant", &*tenant_name)
                .inc();
            let err = ServeError::Overloaded(Refusal::backoff(
                &*tenant_name,
                tenant.queue.len(),
                self.cfg.quantum_secs,
                tenant.effective_weight(1),
            ));
            self.refused_since_round += 1;
            return Err(err);
        }
        let run = match self.inst.prepare_run(iql, self.cfg.reuse) {
            Ok(run) => run,
            Err(e) => {
                self.inst
                    .metrics()
                    .counter_with("ids_serve_rejected_total", "tenant", &*tenant_name)
                    .inc();
                return Err(ServeError::Rejected(e.to_string()));
            }
        };
        let id = QueryId(self.next_query);
        self.next_query += 1;
        let enqueued_at = self.inst.cluster().elapsed();
        tenant.meters.admitted.inc();
        tenant.meters.class_admitted.inc();
        tenant.meters.queue_depth.set(tenant.queue.len() as i64 + 1);
        tenant.queue.push_back(Job {
            id,
            session,
            run,
            enqueued_at,
            first_slice_at: None,
            slices: 0,
        });
        Ok(id)
    }

    /// Drive every queued query to completion under class-aware weighted
    /// deficit round-robin and return the finished queries in completion
    /// order.
    ///
    /// Each round visits SLO classes in priority order (`Interactive`,
    /// `Batch`, `BestEffort`) and tenants in name order within a class; a
    /// tenant with queued work earns `weight × class multiplier × quantum`
    /// virtual seconds of deficit and spends it stepping its oldest query
    /// one pipeline stage at a time. Stage costs come off the instance's
    /// virtual clock, so an expensive APPLY stage exhausts the deficit
    /// quickly and yields to other tenants, while cheap scans interleave
    /// tightly. Every tenant with work is visited every round, so nonzero
    /// weight guarantees progress — lower classes degrade to slower, not
    /// to starved.
    pub fn run_until_idle(&mut self) -> Vec<Completed> {
        let mut done = Vec::new();
        while self.tenants.values().any(|t| !t.queue.is_empty()) {
            self.round(&mut done);
        }
        done
    }

    /// Run exactly one scheduler round (all classes, all tenants with
    /// work) and return whatever completed. Open-loop drivers and the
    /// retrying client use this to interleave scheduling with arrivals;
    /// an idle round still updates the shedding and elasticity
    /// controllers, so pressure signals decay while no work is queued.
    pub fn run_round(&mut self) -> Vec<Completed> {
        let mut done = Vec::new();
        self.round(&mut done);
        done
    }

    fn round(&mut self, done: &mut Vec<Completed>) {
        let now = self.inst.cluster().elapsed();
        // Bucket tenants by *effective* class: a non-Interactive tenant
        // whose head query has aged past its promotion threshold runs one
        // class up this round (deadline-based promotion), earning the
        // higher class's deficit rate and position in the round.
        let mut buckets: [Vec<(Arc<str>, u32)>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        let inst = &self.inst;
        let cfg = &self.cfg;
        for t in self.tenants.values_mut() {
            if t.queue.is_empty() {
                // WDRR: idle tenants don't bank credit.
                t.deficit = 0.0;
                continue;
            }
            let base = t.cfg.class;
            let mut eff = base;
            if base != SloClass::Interactive {
                if let Some(job) = t.queue.front() {
                    let age = now - job.enqueued_at;
                    let promote = match t.cfg.deadline_secs {
                        Some(d) => age > PROMOTE_DEADLINE_FRAC * d,
                        None => age > cfg.promote_wait_secs,
                    };
                    if promote {
                        eff = base.promoted();
                        inst.metrics()
                            .counter_with("ids_serve_promotions_total", "class", base.label())
                            .inc();
                    }
                }
            }
            let slot = match eff {
                SloClass::Interactive => 0,
                SloClass::Batch => 1,
                SloClass::BestEffort => 2,
            };
            buckets[slot].push((t.name.clone(), eff.weight_mult()));
        }
        for bucket in buckets {
            for (name, class_mult) in bucket {
                self.run_tenant_round(&name, class_mult, done);
            }
        }
        // End-of-round controller updates: shedding hysteresis decays as
        // the queue drains, and sustained pressure drives elasticity. The
        // pressure signal is queue depth *plus* the admissions refused
        // since the last round: under tight admission control the queue
        // stays short precisely because demand is being turned away, and
        // that refused demand is exactly the evidence scale-out needs.
        let queued = self.queued();
        self.shed.observe(queued as f64 / self.cfg.max_in_flight.max(1) as f64);
        let pressure = queued + std::mem::take(&mut self.refused_since_round);
        self.maybe_rescale(pressure);
    }

    fn run_tenant_round(&mut self, name: &str, class_mult: u32, done: &mut Vec<Completed>) {
        let Some(tenant) = self.tenants.get_mut(name) else { return };
        if tenant.queue.is_empty() {
            // WDRR: idle tenants don't bank credit.
            tenant.deficit = 0.0;
            return;
        }
        tenant.deficit += tenant.effective_weight(class_mult) as f64 * self.cfg.quantum_secs;
        // Progress floor: even a tenant deep in deficit debt (one
        // expensive stage can overdraw many quanta) steps at least once
        // per round. Nonzero weight therefore guarantees per-round
        // progress — low classes degrade to slower, never to starved.
        // The head job leaves the queue for its slice and goes back to the
        // front only while it is unfinished.
        let mut first_slice_of_round = true;
        while std::mem::take(&mut first_slice_of_round) || tenant.deficit > 0.0 {
            let now = self.inst.cluster().elapsed();
            let Some(mut job) = tenant.queue.pop_front() else { break };
            // Deadline check happens on the scheduler clock, before the
            // next slice is granted.
            if let Some(deadline) = tenant.cfg.deadline_secs {
                if now - job.enqueued_at > deadline {
                    self.inst
                        .metrics()
                        .counter_with("ids_serve_deadline_aborts_total", "tenant", name)
                        .inc();
                    done.push(finish(
                        &self.inst,
                        tenant,
                        job,
                        now,
                        Err(ServeError::DeadlineExceeded {
                            tenant: name.to_string(),
                            deadline_secs: deadline,
                        }),
                    ));
                    continue;
                }
            }
            let started_at = now;
            job.first_slice_at.get_or_insert(started_at);
            job.slices += 1;
            // The stage about to run, captured before the step advances
            // the run's phase.
            let phase = job.run.phase();
            let step = self.inst.step_run(&mut job.run);
            let ended_at = self.inst.cluster().elapsed();
            tenant.deficit -= ended_at - started_at;
            self.trace.push(SliceRecord {
                tenant: tenant.name.clone(),
                query: job.id,
                phase,
                started_at,
                ended_at,
            });
            tenant.meters.slices.inc();
            match step {
                Ok(StepOutcome::Pending) => {}
                Ok(StepOutcome::BatchReady { batches, .. }) => {
                    // A pipelined run yielded on exchange-channel readiness
                    // rather than a stage barrier. The job stays queued (the
                    // slice above already charged its virtual time); just
                    // meter the yield so fairness under streaming is
                    // observable.
                    let metrics = self.inst.metrics();
                    metrics
                        .counter_with("ids_serve_channel_yields_total", "tenant", name.to_string())
                        .inc();
                    metrics
                        .counter_with("ids_serve_channel_batches_total", "tenant", name.to_string())
                        .add(batches);
                }
                Ok(StepOutcome::Replanned { at_pattern, reordered }) => {
                    // The adaptive planner re-ordered the job's remaining
                    // patterns mid-query; the run stays queued and the next
                    // slice executes the corrected order. Meter per tenant
                    // so re-plan churn shows up alongside the scheduler's
                    // fairness accounting.
                    let metrics = self.inst.metrics();
                    metrics
                        .counter_with("ids_serve_replans_total", "tenant", name.to_string())
                        .inc();
                    metrics.spans().record(
                        "serve.replan",
                        format!(
                            "tenant {name} re-planned {reordered} patterns \
                             after pattern{at_pattern}"
                        ),
                        ended_at,
                        ended_at,
                    );
                }
                Ok(StepOutcome::Recovered { resumed_ordinal, retired_ranks }) => {
                    // The engine rolled the run back around dead ranks (or
                    // a blown deadline) and re-planned; the job stays
                    // queued and resumes from the restored checkpoint.
                    // Meter per tenant so noisy-neighbor fault exposure is
                    // observable.
                    let metrics = self.inst.metrics();
                    metrics
                        .counter_with("ids_serve_recoveries_total", "tenant", name.to_string())
                        .inc();
                    metrics
                        .counter_with("ids_serve_retired_ranks_total", "tenant", name.to_string())
                        .add(retired_ranks as u64);
                    metrics.spans().record(
                        "serve.recovery",
                        format!("tenant {name} resumed from checkpoint ordinal {resumed_ordinal}"),
                        ended_at,
                        ended_at,
                    );
                }
                Ok(StepOutcome::Done(outcome)) => {
                    done.push(finish(&self.inst, tenant, job, ended_at, Ok(*outcome)));
                    continue;
                }
                Err(e) => {
                    // A blown recovery budget maps to the typed retryable
                    // refusal: the dead ranks are already retired, so a
                    // resubmission re-plans onto the survivors from the
                    // start. The shared back-off formula lives on
                    // `Refusal`, so the hint cannot drift from the
                    // Overloaded/Shed shapes.
                    let err = match e {
                        QueryError::Exec(ExecError::RecoveryExhausted { attempts, .. }) => {
                            self.inst
                                .metrics()
                                .counter_with(
                                    "ids_serve_recovery_exhausted_total",
                                    "tenant",
                                    name.to_string(),
                                )
                                .inc();
                            ServeError::RecoveryExhausted {
                                refusal: Refusal::backoff(
                                    name,
                                    tenant.queue.len(),
                                    self.cfg.quantum_secs,
                                    tenant.effective_weight(1),
                                ),
                                attempts,
                            }
                        }
                        other => ServeError::Exec(other.to_string()),
                    };
                    done.push(finish(&self.inst, tenant, job, ended_at, Err(err)));
                    continue;
                }
            }
            tenant.queue.push_front(job);
        }
    }

    /// Ranks hosted on the first `active_nodes` nodes that are still
    /// cluster-live (permanently killed ranks stay excluded).
    fn active_rank_set(&self, active_nodes: u32) -> Vec<RankId> {
        let topo = *self.inst.cluster().topology();
        let cluster = self.inst.cluster();
        (0..active_nodes.min(topo.nodes()))
            .flat_map(|n| topo.ranks_on(NodeId(n)))
            .filter(|&r| cluster.is_live(r))
            .collect()
    }

    fn maybe_rescale(&mut self, pressure: usize) {
        let Some(el) = self.elastic.as_mut() else { return };
        let active_ranks = self.inst.cluster().topology().ranks_per_node() * el.active_nodes();
        let decision = el.observe(pressure, active_ranks as usize);
        let after = el.active_nodes();
        match decision {
            ScaleDecision::Hold => {}
            // Out activates node `after - 1`; In drains node `after` (the
            // one just past the shrunken active set).
            ScaleDecision::Out => self.apply_membership(decision, after - 1, after),
            ScaleDecision::In => self.apply_membership(decision, after, after),
        }
    }

    /// Apply one membership change through the existing fault machinery:
    /// joiners rejoin the cache like a recovered crash and get
    /// re-replicated by a forced anti-entropy pass; leavers are drained
    /// by re-owning their shards onto the survivors (the dead-rank
    /// re-planning path) before their cache copies are fenced.
    fn apply_membership(&mut self, decision: ScaleDecision, node: u32, active_nodes: u32) {
        let cache = self.inst.cache().cloned();
        let m = self.inst.metrics();
        match decision {
            ScaleDecision::Out => {
                if let Some(cache) = &cache {
                    cache.recover_node(NodeId(node));
                    // Re-replicate under-replicated objects onto the
                    // (empty) joiner now, not lazily: the same forced
                    // anti-entropy pass post-crash recovery uses.
                    let report = cache.anti_entropy();
                    m.counter("ids_serve_scale_rereplications_total").add(report.re_replicated);
                }
                m.counter("ids_serve_scale_out_total").inc();
            }
            ScaleDecision::In => {
                m.counter("ids_serve_scale_in_total").inc();
            }
            ScaleDecision::Hold => return,
        }
        let ranks = self.active_rank_set(active_nodes);
        let moved = self.inst.cluster_mut().rebalance_owners(&ranks);
        if let (ScaleDecision::In, Some(cache)) = (decision, &cache) {
            // Shards are off the leaver now; fencing its cache copies
            // last keeps them readable during the drain.
            cache.fail_node(NodeId(node));
        }
        let at_secs = self.inst.cluster().elapsed();
        let m = self.inst.metrics();
        m.counter("ids_serve_moved_shards_total").add(moved as u64);
        m.gauge("ids_serve_active_nodes").set(active_nodes as i64);
        m.spans().record(
            "serve.rescale",
            format!(
                "{} node {node}: {active_nodes} active, {moved} shards re-owned",
                if decision == ScaleDecision::Out { "scale-out onto" } else { "drain of" }
            ),
            at_secs,
            at_secs,
        );
        self.scale_events.push(ScaleEvent { at_secs, decision, node, active_nodes });
    }

    /// The scheduler slice trace accumulated so far.
    pub fn trace(&self) -> &[SliceRecord] {
        &self.trace
    }

    /// Deterministic digest of the slice trace: two runs of the same
    /// (seed, workload) pair must produce the same hash — the replay
    /// acceptance check for the service layer.
    pub fn trace_hash(&self) -> u64 {
        let mut h = fnv1a(b"ids-serve-trace-v1");
        for s in &self.trace {
            h = hash_combine(h, fnv1a(s.tenant.as_bytes()));
            h = hash_combine(h, s.query.0);
            h = hash_combine(h, fnv1a(s.phase.label().as_bytes()));
            h = hash_combine(h, s.started_at.to_bits());
            h = hash_combine(h, s.ended_at.to_bits());
        }
        hash_combine(h, self.trace.len() as u64)
    }

    /// Borrow the wrapped instance (datastore ingest, metrics, EXPLAIN).
    pub fn instance(&self) -> &IdsInstance {
        &self.inst
    }

    /// Mutable access to the wrapped instance (clock resets, exec knobs).
    pub fn instance_mut(&mut self) -> &mut IdsInstance {
        &mut self.inst
    }

    /// Unwrap the service, recovering the instance.
    pub fn into_inner(self) -> IdsInstance {
        self.inst
    }

    /// Total queries currently queued across tenants.
    pub fn queued(&self) -> usize {
        self.tenants.values().map(|t| t.queue.len()).sum()
    }

    /// Per-tenant queue depths (registered tenants with empty queues
    /// included), in name order.
    pub fn queue_depths(&self) -> BTreeMap<String, usize> {
        self.tenants.iter().map(|(n, t)| (n.clone(), t.queue.len())).collect()
    }

    /// Current (best_effort, batch) shedding state.
    pub fn shed_state(&self) -> (bool, bool) {
        self.shed.state()
    }

    /// Membership changes applied so far, in virtual-time order.
    pub fn scale_events(&self) -> &[ScaleEvent] {
        &self.scale_events
    }

    /// Nodes currently active (= the cluster's node count when
    /// elasticity is off).
    pub fn active_nodes(&self) -> u32 {
        match &self.elastic {
            Some(el) => el.active_nodes(),
            None => self.inst.cluster().topology().nodes(),
        }
    }

    /// The cache inspector's debug surface: per-tier occupancy and
    /// movement counters of the instance's attached cache, rendered as
    /// the same multi-line text EXPLAIN's `cache tiers:` block uses.
    /// `None` when the instance runs cacheless.
    pub fn debug_cache_tiers(&self) -> Option<String> {
        self.inst.cache_inspection().map(|i| i.render())
    }
}

/// Build the completion record and emit per-tenant service metrics.
fn finish(
    inst: &IdsInstance,
    tenant: &Tenant,
    job: Job,
    finished_at: f64,
    result: Result<QueryOutcome, ServeError>,
) -> Completed {
    let queue_wait_secs = job.first_slice_at.unwrap_or(finished_at) - job.enqueued_at;
    let latency_secs = finished_at - job.enqueued_at;
    let meters = &tenant.meters;
    meters.queue_wait.observe(queue_wait_secs.max(0.0));
    meters.latency.observe(latency_secs.max(0.0));
    meters.class_latency.observe(latency_secs.max(0.0));
    if result.is_ok() {
        meters.completed.inc();
        meters.class_completed.inc();
    } else {
        inst.metrics().counter_with("ids_serve_failed_total", "tenant", &*tenant.name).inc();
    }
    Completed {
        tenant: tenant.cfg.name.clone(),
        class: tenant.cfg.class,
        session: job.session,
        query: job.id,
        result,
        queue_wait_secs,
        latency_secs,
        slices: job.slices,
        resumed_from: job.run.resumed_from(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elastic::ElasticityConfig;
    use ids_cache::{BackingStore, CacheConfig, CacheManager};
    use ids_core::IdsConfig;
    use ids_graph::Term;
    use ids_simrt::{NetworkModel, Topology};
    use std::sync::Arc;

    fn demo_instance(seed: u64, with_cache: bool) -> IdsInstance {
        let mut inst = IdsInstance::launch(IdsConfig::laptop(4, seed));
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
        if with_cache {
            inst.attach_cache(Arc::new(CacheManager::new(
                Topology::new(4, 1),
                NetworkModel::slingshot(),
                CacheConfig::new(4, 16 << 20, 64 << 20),
                BackingStore::default_store(),
            )));
        }
        inst
    }

    /// A 4-node × 1-rank instance (elasticity scales whole nodes, so the
    /// single-node laptop topology cannot exercise it).
    fn multi_node_instance(seed: u64) -> IdsInstance {
        let topo = Topology::new(4, 1);
        let mut cfg = IdsConfig::laptop(topo.total_ranks(), seed);
        cfg.topology = topo;
        let mut inst = IdsInstance::launch(cfg);
        let ds = inst.datastore();
        for i in 0..20 {
            ds.add_fact(
                &Term::iri(format!("p:{i}")),
                &Term::iri("rdf:type"),
                &Term::iri("up:Protein"),
            );
        }
        for c in 0..40 {
            ds.add_fact(
                &Term::iri(format!("c:{c}")),
                &Term::iri("inhibits"),
                &Term::iri(format!("p:{}", c % 20)),
            );
        }
        ds.build_indexes();
        inst.attach_cache(Arc::new(CacheManager::new(
            topo,
            NetworkModel::slingshot(),
            CacheConfig::new(4, 16 << 20, 64 << 20).with_replication(2),
            BackingStore::default_store(),
        )));
        inst
    }

    fn service(seed: u64, with_cache: bool) -> QueryService {
        let mut svc = QueryService::new(demo_instance(seed, with_cache), ServeConfig::default());
        svc.register_tenant(TenantConfig::new("alice"));
        svc.register_tenant(TenantConfig::new("bob"));
        svc
    }

    const Q_PROTEINS: &str = "SELECT ?p WHERE { ?p <rdf:type> <up:Protein> . }";
    const Q_JOIN: &str = "SELECT ?c ?p WHERE { ?c <inhibits> ?p . ?p <rdf:type> <up:Protein> . }";

    #[test]
    fn debug_cache_tiers_reflects_the_attached_cache() {
        let svc = service(7, false);
        assert!(svc.debug_cache_tiers().is_none(), "cacheless instance has no tier surface");

        let svc = service(7, true);
        let text = svc.debug_cache_tiers().expect("cache attached");
        assert!(text.contains("eviction policy: lru"), "{text}");
        assert!(text.contains("node 0 dram: 0/"), "{text}");
    }

    #[test]
    fn sessions_admit_and_complete_queries() {
        let mut svc = service(7, false);
        let a = svc.open_session("alice").unwrap();
        let b = svc.open_session("bob").unwrap();
        let qa = svc.submit(a, Q_PROTEINS).unwrap();
        let qb = svc.submit(b, Q_JOIN).unwrap();
        assert_eq!(svc.queued(), 2);
        let done = svc.run_until_idle();
        assert_eq!(svc.queued(), 0);
        assert_eq!(done.len(), 2);
        let by_id = |id: QueryId| done.iter().find(|c| c.query == id).unwrap();
        assert_eq!(by_id(qa).result.as_ref().unwrap().solutions.len(), 20);
        assert_eq!(by_id(qb).result.as_ref().unwrap().solutions.len(), 40);
        assert!(done.iter().all(|c| c.slices >= 2), "stage granularity: several slices each");
        assert!(done.iter().all(|c| c.latency_secs >= c.queue_wait_secs));
        assert!(done.iter().all(|c| c.class == SloClass::Interactive), "default class");
        let snap = svc.instance().metrics_snapshot();
        assert_eq!(snap.counter("ids_serve_admitted_total", "alice"), 1);
        assert_eq!(snap.counter("ids_serve_completed_total", "bob"), 1);
        assert_eq!(snap.counter("ids_serve_class_admitted_total", "interactive"), 2);
        assert_eq!(snap.counter("ids_serve_class_completed_total", "interactive"), 2);
        assert!(snap.counter("ids_serve_slices_total", "alice") >= 2);
    }

    #[test]
    fn unknown_and_closed_sessions_are_refused() {
        let mut svc = service(7, false);
        assert_eq!(
            svc.open_session("mallory").unwrap_err(),
            ServeError::UnknownTenant("mallory".into())
        );
        svc.open_session("alice").unwrap();
        assert_eq!(
            svc.submit(SessionId(99), Q_PROTEINS).unwrap_err(),
            ServeError::UnknownSession(99)
        );
    }

    #[test]
    fn parse_failures_are_rejected_at_admission() {
        let mut svc = service(7, false);
        let a = svc.open_session("alice").unwrap();
        let err = svc.submit(a, "SELECT").unwrap_err();
        assert!(matches!(err, ServeError::Rejected(_)), "{err}");
        assert!(!err.is_retryable());
        assert_eq!(svc.queued(), 0, "rejected queries never enter the queue");
        let snap = svc.instance().metrics_snapshot();
        assert_eq!(snap.counter("ids_serve_rejected_total", "alice"), 1);
    }

    #[test]
    fn queue_bound_rejects_with_retry_after() {
        let mut svc = service(7, false);
        svc.register_tenant(TenantConfig::new("alice").with_max_queued(2));
        let a = svc.open_session("alice").unwrap();
        svc.submit(a, Q_PROTEINS).unwrap();
        svc.submit(a, Q_PROTEINS).unwrap();
        let err = svc.submit(a, Q_PROTEINS).unwrap_err();
        let ServeError::Overloaded(refusal) = &err else {
            panic!("expected overload, got {err}");
        };
        assert_eq!(refusal.tenant(), "alice");
        assert!(refusal.retry_after_secs() > 0.0);
        assert!(err.is_retryable());
        // Draining the queue makes room again.
        svc.run_until_idle();
        svc.submit(a, Q_PROTEINS).unwrap();
        let snap = svc.instance().metrics_snapshot();
        assert_eq!(snap.counter("ids_serve_overloaded_total", "alice"), 1);
    }

    #[test]
    fn weighted_tenants_interleave_fairly() {
        // A quantum comparable to one stage's virtual cost forces real
        // interleaving (the default quantum is sized for paper-scale
        // queries, which are far heavier than this toy workload).
        let mut svc = QueryService::new(
            demo_instance(7, false),
            ServeConfig { quantum_secs: 1.0e-5, ..ServeConfig::default() },
        );
        svc.register_tenant(TenantConfig::new("bob"));
        svc.register_tenant(TenantConfig::new("alice").with_weight(3));
        let a = svc.open_session("alice").unwrap();
        let b = svc.open_session("bob").unwrap();
        for _ in 0..3 {
            svc.submit(a, Q_JOIN).unwrap();
            svc.submit(b, Q_JOIN).unwrap();
        }
        let done = svc.run_until_idle();
        assert_eq!(done.len(), 6);
        // The trace interleaves tenants rather than running one to
        // exhaustion: bob must get slices before alice's last query ends.
        let trace = svc.trace();
        let first_bob = trace.iter().position(|s| &*s.tenant == "bob").unwrap();
        let last_alice = trace.iter().rposition(|s| &*s.tenant == "alice").unwrap();
        assert!(first_bob < last_alice, "slices interleave across tenants");
        // Weight 3 lets alice finish her backlog no later than bob.
        let finish_of = |t: &str| done.iter().rposition(|c| c.tenant == t).unwrap();
        assert!(finish_of("alice") <= finish_of("bob"));
    }

    #[test]
    fn a_huge_interactive_weight_neither_overflows_nor_starves() {
        // Weight 2^30 times the Interactive multiplier 4 does not fit a
        // u32: a u32 product panics in debug builds and wraps to 0 in
        // release, which leaves the heaviest tenant only the progress
        // floor.
        let mut svc = QueryService::new(
            demo_instance(7, false),
            ServeConfig { quantum_secs: 1.0e-5, ..ServeConfig::default() },
        );
        svc.register_tenant(TenantConfig::new("heavy").with_weight(1 << 30));
        svc.register_tenant(TenantConfig::new("light"));
        let h = svc.open_session("heavy").unwrap();
        let l = svc.open_session("light").unwrap();
        for _ in 0..3 {
            svc.submit(l, Q_JOIN).unwrap();
            svc.submit(h, Q_JOIN).unwrap();
        }
        let done = svc.run_until_idle();
        assert_eq!(done.len(), 6);
        assert!(done.iter().all(|c| c.result.is_ok()));
        let finish_of = |t: &str| done.iter().rposition(|c| c.tenant == t).unwrap();
        assert!(finish_of("heavy") < finish_of("light"), "the heaviest tenant finishes first");
    }

    #[test]
    fn registration_clamps_a_struct_literal_weight_of_zero() {
        // Unclamped, weight 0 would earn no deficit and take one slice a
        // round while bob takes several, changing the interleaving.
        let trace_of = |alice: TenantConfig| {
            let mut svc = QueryService::new(
                demo_instance(7, false),
                ServeConfig { quantum_secs: 1.0e-5, ..ServeConfig::default() },
            );
            svc.register_tenant(alice);
            svc.register_tenant(TenantConfig::new("bob"));
            let a = svc.open_session("alice").unwrap();
            let b = svc.open_session("bob").unwrap();
            for _ in 0..3 {
                svc.submit(a, Q_JOIN).unwrap();
                svc.submit(b, Q_JOIN).unwrap();
            }
            svc.run_until_idle();
            svc.trace_hash()
        };
        let zero = TenantConfig { weight: 0, ..TenantConfig::new("alice") };
        assert_eq!(trace_of(zero), trace_of(TenantConfig::new("alice")));
    }

    #[test]
    fn classes_order_rounds_and_scale_service_rates() {
        // Same weight, different classes: the Interactive tenant's higher
        // deficit rate and round position finish its backlog first even
        // though the BestEffort tenant registered first alphabetically.
        let mut svc = QueryService::new(
            demo_instance(7, false),
            ServeConfig { quantum_secs: 1.0e-5, ..ServeConfig::default() },
        );
        svc.register_tenant(TenantConfig::new("aa-scavenger").with_class(SloClass::BestEffort));
        svc.register_tenant(TenantConfig::new("zz-human").with_class(SloClass::Interactive));
        let s = svc.open_session("aa-scavenger").unwrap();
        let h = svc.open_session("zz-human").unwrap();
        for _ in 0..3 {
            svc.submit(s, Q_JOIN).unwrap();
            svc.submit(h, Q_JOIN).unwrap();
        }
        let done = svc.run_until_idle();
        assert_eq!(done.len(), 6);
        let finish_of = |t: &str| done.iter().rposition(|c| c.tenant == t).unwrap();
        assert!(
            finish_of("zz-human") < finish_of("aa-scavenger"),
            "Interactive backlog completes first despite name order"
        );
        // Both made progress every round: the scavenger still completed.
        assert_eq!(done.iter().filter(|c| c.class == SloClass::BestEffort).count(), 3);
    }

    #[test]
    fn aged_best_effort_head_is_promoted() {
        let mut svc = QueryService::new(
            demo_instance(7, false),
            ServeConfig {
                quantum_secs: 1.0e-5,
                promote_wait_secs: 1.0e-7,
                ..ServeConfig::default()
            },
        );
        svc.register_tenant(TenantConfig::new("batchy").with_class(SloClass::Batch));
        let b = svc.open_session("batchy").unwrap();
        svc.submit(b, Q_JOIN).unwrap();
        // Age the queued head past the promotion threshold.
        svc.instance_mut().cluster_mut().charge_all(1.0e-3);
        let done = svc.run_until_idle();
        assert_eq!(done.len(), 1);
        let snap = svc.instance().metrics_snapshot();
        assert!(
            snap.counter("ids_serve_promotions_total", "batch") >= 1,
            "aged Batch head ran in the Interactive pass"
        );
    }

    #[test]
    fn shedding_is_class_ordered_with_hysteresis() {
        // Tiny global bound so a handful of queued queries saturates it.
        let mut svc = QueryService::new(
            demo_instance(7, false),
            ServeConfig { max_in_flight: 4, ..ServeConfig::default() },
        );
        svc.register_tenant(
            TenantConfig::new("human").with_class(SloClass::Interactive).with_max_queued(16),
        );
        svc.register_tenant(
            TenantConfig::new("pipeline").with_class(SloClass::Batch).with_max_queued(16),
        );
        svc.register_tenant(
            TenantConfig::new("scavenger").with_class(SloClass::BestEffort).with_max_queued(16),
        );
        let h = svc.open_session("human").unwrap();
        let p = svc.open_session("pipeline").unwrap();
        let s = svc.open_session("scavenger").unwrap();
        // Occupancy 2/4 crosses the BestEffort enter mark (0.5) but not
        // the Batch mark (0.75).
        svc.submit(h, Q_PROTEINS).unwrap();
        svc.submit(h, Q_PROTEINS).unwrap();
        let err = svc.submit(s, Q_PROTEINS).unwrap_err();
        assert!(
            matches!(err, ServeError::Shed { class: SloClass::BestEffort, .. }),
            "BestEffort shed first: {err}"
        );
        assert!(err.is_retryable());
        assert!(err.retry_after_secs().unwrap() > 0.0);
        // Batch still admitted at this occupancy...
        svc.submit(p, Q_PROTEINS).unwrap();
        // ...until the queue grows past its own mark (4/4 ≥ 0.75).
        svc.submit(h, Q_PROTEINS).unwrap();
        let err = svc.submit(p, Q_PROTEINS).unwrap_err();
        assert!(
            matches!(err, ServeError::Shed { class: SloClass::Batch, .. }),
            "Batch sheds only past its higher mark: {err}"
        );
        // Interactive is never shed: at full occupancy its refusal is the
        // plain queue-bound Overloaded, not a class shed.
        let err = svc.submit(h, Q_PROTEINS).unwrap_err();
        assert!(matches!(err, ServeError::Overloaded(_)), "never Shed for interactive: {err}");
        assert_eq!(svc.shed_state(), (true, true));
        // Draining drops occupancy to zero: hysteresis exits and both
        // classes admit again.
        svc.run_until_idle();
        assert_eq!(svc.shed_state(), (false, false));
        svc.submit(s, Q_PROTEINS).unwrap();
        svc.submit(p, Q_PROTEINS).unwrap();
        let snap = svc.instance().metrics_snapshot();
        assert!(snap.counter("ids_serve_shed_total", "best_effort") >= 1);
        assert!(snap.counter("ids_serve_shed_total", "batch") >= 1);
        assert_eq!(snap.counter("ids_serve_shed_total", "interactive"), 0);
    }

    #[test]
    fn elasticity_scales_out_under_pressure_and_back_in_when_idle() {
        let mut svc = QueryService::new(
            multi_node_instance(7),
            ServeConfig {
                quantum_secs: 1.0e-5,
                elasticity: Some(ElasticityConfig {
                    min_nodes: 1,
                    max_nodes: 4,
                    scale_out_queue_per_rank: 2.0,
                    scale_in_queue_per_rank: 0.25,
                    sustain_rounds: 2,
                    cooldown_rounds: 1,
                }),
                ..ServeConfig::default()
            },
        );
        svc.register_tenant(TenantConfig::new("alice").with_max_queued(64));
        assert_eq!(svc.active_nodes(), 1, "starts at the policy floor");
        let a = svc.open_session("alice").unwrap();
        for _ in 0..12 {
            svc.submit(a, Q_JOIN).unwrap();
        }
        let done = svc.run_until_idle();
        assert_eq!(done.len(), 12);
        assert!(done.iter().all(|c| c.result.is_ok()));
        let outs = svc.scale_events().iter().filter(|e| e.decision == ScaleDecision::Out).count();
        assert!(outs >= 1, "sustained backlog scales out: {:?}", svc.scale_events());
        // Idle rounds drain the pressure signal and shrink back toward
        // the floor.
        let grown = svc.active_nodes();
        for _ in 0..32 {
            svc.run_round();
        }
        assert!(svc.active_nodes() < grown, "sustained slack scales back in");
        let snap = svc.instance().metrics_snapshot();
        assert!(snap.counter_sum("ids_serve_scale_out_total") >= 1);
        assert!(snap.counter_sum("ids_serve_scale_in_total") >= 1);
        assert!(snap.counter_sum("ids_serve_moved_shards_total") >= 1);
    }

    #[test]
    fn elasticity_is_invisible_in_results() {
        // Same workload with and without elastic membership churn: the
        // rows of every query are byte-identical, because shard identity
        // (not ownership) drives the data plane.
        let run = |elasticity: Option<ElasticityConfig>| {
            let mut svc = QueryService::new(
                multi_node_instance(7),
                ServeConfig { quantum_secs: 1.0e-5, elasticity, ..ServeConfig::default() },
            );
            svc.register_tenant(TenantConfig::new("alice").with_max_queued(64));
            let a = svc.open_session("alice").unwrap();
            for _ in 0..8 {
                svc.submit(a, Q_JOIN).unwrap();
            }
            let done = svc.run_until_idle();
            let mut rows: Vec<Vec<Vec<u64>>> = done
                .iter()
                .map(|c| {
                    c.result
                        .as_ref()
                        .unwrap()
                        .solutions
                        .rows()
                        .iter()
                        .map(|r| r.iter().map(|t| t.raw()).collect())
                        .collect()
                })
                .collect();
            rows.sort();
            rows
        };
        let fixed = run(None);
        let elastic = run(Some(ElasticityConfig {
            min_nodes: 1,
            max_nodes: 4,
            scale_out_queue_per_rank: 1.0,
            scale_in_queue_per_rank: 0.25,
            sustain_rounds: 2,
            cooldown_rounds: 1,
        }));
        assert_eq!(fixed, elastic, "membership churn never changes results");
    }

    #[test]
    fn deadline_aborts_stale_queries() {
        let mut svc = service(7, false);
        // A deadline so tight the second queued query cannot make it.
        svc.register_tenant(TenantConfig::new("alice").with_deadline(1.0e-9));
        let a = svc.open_session("alice").unwrap();
        svc.submit(a, Q_JOIN).unwrap();
        svc.submit(a, Q_JOIN).unwrap();
        let done = svc.run_until_idle();
        assert_eq!(done.len(), 2);
        // The first query gets at least its first slice at t=enqueue; the
        // second is aborted once the clock has advanced past its deadline.
        let aborted: Vec<_> = done.iter().filter(|c| c.result.is_err()).collect();
        assert!(!aborted.is_empty(), "at least one deadline abort");
        for c in &aborted {
            let err = c.result.as_ref().unwrap_err();
            assert!(matches!(err, ServeError::DeadlineExceeded { .. }), "{err}");
        }
        let snap = svc.instance().metrics_snapshot();
        assert!(snap.counter("ids_serve_deadline_aborts_total", "alice") >= 1);
    }

    #[test]
    fn replay_is_byte_identical() {
        let run = |seed: u64| {
            let mut svc = service(seed, true);
            let a = svc.open_session("alice").unwrap();
            let b = svc.open_session("bob").unwrap();
            for _ in 0..2 {
                svc.submit(a, Q_JOIN).unwrap();
                svc.submit(b, Q_PROTEINS).unwrap();
            }
            let done = svc.run_until_idle();
            let rows: Vec<Vec<Vec<u64>>> = done
                .iter()
                .map(|c| {
                    c.result
                        .as_ref()
                        .unwrap()
                        .solutions
                        .rows()
                        .iter()
                        .map(|r| r.iter().map(|t| t.raw()).collect())
                        .collect()
                })
                .collect();
            (svc.trace_hash(), rows)
        };
        let (h1, r1) = run(11);
        let (h2, r2) = run(11);
        assert_eq!(h1, h2, "same seed+workload ⇒ same scheduler trace");
        assert_eq!(r1, r2, "…and byte-identical per-query rows");

        // A different workload yields a different trace.
        let mut svc = service(11, true);
        let a = svc.open_session("alice").unwrap();
        svc.submit(a, Q_PROTEINS).unwrap();
        svc.run_until_idle();
        assert_ne!(h1, svc.trace_hash(), "different workload ⇒ different trace");
    }

    #[test]
    fn cross_tenant_semantic_reuse() {
        let mut svc = service(7, true);
        let a = svc.open_session("alice").unwrap();
        let b = svc.open_session("bob").unwrap();
        svc.submit(a, Q_JOIN).unwrap();
        let first = svc.run_until_idle();
        assert_eq!(first[0].resumed_from, -1, "cold run");
        // Bob submits an α-renamed variant of alice's query: the service
        // canonicalizes both to the same fingerprints, so bob's run
        // resumes from alice's cached BGP state.
        svc.submit(b, "SELECT ?x ?y WHERE { ?x <inhibits> ?y . ?y <rdf:type> <up:Protein> . }")
            .unwrap();
        let second = svc.run_until_idle();
        assert!(second[0].resumed_from >= 0, "warm run resumed from a checkpoint");
        assert_eq!(second[0].result.as_ref().unwrap().solutions.len(), 40);
        assert!(
            second[0].slices < first[0].slices,
            "resumed run skips the scan/join slices ({} vs {})",
            second[0].slices,
            first[0].slices
        );
        let snap = svc.instance().metrics_snapshot();
        assert!(snap.counter("ids_reuse_hits_total", "bgp") >= 1);
    }

    #[test]
    fn reuse_off_never_touches_checkpoints() {
        let inst = demo_instance(7, true);
        let mut svc =
            QueryService::new(inst, ServeConfig { reuse: false, ..ServeConfig::default() });
        svc.register_tenant(TenantConfig::new("alice"));
        let a = svc.open_session("alice").unwrap();
        svc.submit(a, Q_JOIN).unwrap();
        svc.submit(a, Q_JOIN).unwrap();
        let done = svc.run_until_idle();
        assert!(done.iter().all(|c| c.resumed_from == -1));
        let snap = svc.instance().metrics_snapshot();
        assert_eq!(snap.counter("ids_reuse_hits_total", "bgp"), 0);
        assert_eq!(snap.counter("ids_reuse_stores_total", "bgp"), 0);
    }
}
