//! Overload chaos harness: open-loop Poisson×Zipf traffic pushed well
//! past service capacity, with SLO-class shedding and elastic membership
//! churn active.
//!
//! The chaos dimension here is *load* (plus the scale-out/in membership
//! changes it triggers), and the contract has three legs:
//!
//! 1. **Deterministic shedding** — replaying the identical (seed, mode)
//!    pair reproduces the exact refusal sequence (same arrivals refused,
//!    same typed error, same retry hints), the same completion latencies,
//!    and the same scheduler trace hash.
//! 2. **Class-ordered shedding** — `BestEffort` is refused before the
//!    first `Batch` refusal, and `Interactive` is never shed (its only
//!    refusal shape is the per-tenant/global queue bound).
//! 3. **Result integrity under overload** — every admitted query returns
//!    rows identical (sorted) to the same query on a solo, uncontended
//!    instance, even though elastic resizes re-own shards and re-replicate
//!    cache objects mid-run.
//!
//! Every seed runs under both arrival shapes: `default`, and `burst`,
//! which quantizes arrival times into synchronized clumps — the
//! adversarial arrival pattern for an occupancy-triggered controller.

mod chaos;

use chaos::SEEDS;
use ids::cache::{BackingStore, CacheConfig, CacheManager};
use ids::core::{IdsConfig, IdsInstance};
use ids::graph::Term;
use ids::serve::{ElasticityConfig, QueryService, ServeConfig, ServeError, SloClass, TenantConfig};
use ids::simrt::{NetworkModel, Topology};
use ids::workloads::traffic::{class_of, generate, Arrival, TrafficConfig};
use std::collections::BTreeMap;
use std::sync::Arc;

const TENANTS: usize = 60;
const ARRIVALS: usize = 240;
/// Offered load as a multiple of the probed fair-weather capacity.
const OVERLOAD: f64 = 3.0;

/// The arrival shapes of the matrix.
const MODES: [&str; 2] = ["default", "burst"];

fn query_pool() -> Vec<String> {
    vec![
        "SELECT ?p WHERE { ?p <rdf:type> <up:Protein> . }".to_string(),
        "SELECT ?c ?p WHERE { ?c <inhibits> ?p . ?p <rdf:type> <up:Protein> . }".to_string(),
    ]
}

/// A 4-node cluster with half the nodes initially parked for elasticity.
fn launch() -> IdsInstance {
    let topo = Topology::new(4, 1);
    let cache = Arc::new(CacheManager::new(
        topo,
        NetworkModel::slingshot(),
        CacheConfig::new(2, 64 << 20, 256 << 20).with_replication(2),
        BackingStore::default_store(),
    ));
    let mut cfg = IdsConfig::laptop(topo.total_ranks(), 11);
    cfg.topology = topo;
    let mut inst = IdsInstance::launch(cfg);
    inst.attach_cache(cache);
    let ds = inst.datastore();
    for i in 0..40 {
        ds.add_fact(&Term::iri(format!("p:{i}")), &Term::iri("rdf:type"), &Term::iri("up:Protein"));
        ds.add_fact(
            &Term::iri(format!("c:{i}")),
            &Term::iri("inhibits"),
            &Term::iri(format!("p:{}", i % 7)),
        );
    }
    ds.build_indexes();
    inst
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        quantum_secs: 1.0e-5,
        reuse: false,
        max_in_flight: 16,
        elasticity: Some(ElasticityConfig {
            min_nodes: 2,
            max_nodes: 4,
            scale_out_queue_per_rank: 1.0,
            scale_in_queue_per_rank: 0.25,
            sustain_rounds: 2,
            cooldown_rounds: 3,
        }),
        ..ServeConfig::default()
    }
}

/// Closed-loop probe of the fair-weather service rate, q/vsec.
fn capacity_qps() -> f64 {
    let mut svc = QueryService::new(launch(), serve_config());
    svc.register_tenant(TenantConfig::new("probe").with_max_queued(16));
    let s = svc.open_session("probe").unwrap();
    let pool = query_pool();
    let n = 12;
    for q in 0..n {
        svc.submit(s, &pool[q % pool.len()]).unwrap();
    }
    let done = svc.run_until_idle();
    assert_eq!(done.len(), n);
    n as f64 / svc.instance().cluster().elapsed()
}

fn schedule(seed: u64, mode: &str, qps: f64) -> (TrafficConfig, Vec<Arrival>) {
    let cfg = TrafficConfig {
        tenants: TENANTS,
        arrivals: ARRIVALS,
        mean_interarrival_secs: 1.0 / (OVERLOAD * qps),
        seed,
        ..TrafficConfig::default()
    };
    let mut arrivals = generate(&cfg);
    if mode == "burst" {
        // Quantize arrivals into synchronized clumps 16 mean-gaps wide:
        // every query in a window lands at the same instant, the worst
        // case for an occupancy-triggered shedding controller.
        let window = 16.0 * cfg.mean_interarrival_secs;
        for a in &mut arrivals {
            a.at_secs = (a.at_secs / window).floor() * window;
        }
    }
    (cfg, arrivals)
}

/// Everything one run produces that the contract compares.
struct RunRecord {
    /// (arrival index, tenant, debug-formatted error) per refusal, in
    /// arrival order. The debug form captures the error type, class, and
    /// exact retry hint bits.
    refusals: Vec<(usize, usize, String)>,
    /// (tenant, latency bits) per completion, in completion order.
    completions: Vec<(String, u64)>,
    /// Scheduler slice trace hash.
    trace_hash: u64,
    /// Per-query-text sorted decoded rows for every admitted query.
    rows_by_text: Vec<(String, Vec<Vec<String>>)>,
    /// Membership changes applied during the run.
    scale_events: usize,
    /// First arrival index at which each sheddable class was latched
    /// (`BestEffort`, then `Batch`), if ever.
    first_latched: (Option<usize>, Option<usize>),
}

fn run(seed: u64, mode: &str, qps: f64) -> RunRecord {
    let (tcfg, arrivals) = schedule(seed, mode, qps);
    let mut svc = QueryService::new(launch(), serve_config());
    let mut sessions = Vec::with_capacity(TENANTS);
    for t in 0..TENANTS {
        let name = format!("t{t:02}");
        svc.register_tenant(
            TenantConfig::new(&name).with_class(class_of(&tcfg, t)).with_max_queued(4),
        );
        sessions.push(svc.open_session(&name).unwrap());
    }
    let pool = query_pool();
    // Inline open-loop driver (the library version lives in
    // `ids::workloads::client`): driving by hand lets the test witness the
    // shed-controller state at every single admission decision, which is
    // where the class-ordering contract actually lives.
    let mut completed = Vec::new();
    let mut refusals: Vec<(usize, usize, String)> = Vec::new();
    let mut first_latched = (None, None);
    let mut next = 0;
    while next < arrivals.len() || svc.queued() > 0 {
        let now = svc.instance().cluster().elapsed();
        while next < arrivals.len() && arrivals[next].at_secs <= now {
            let a = &arrivals[next];
            let text = &pool[(a.query_draw % pool.len() as u64) as usize];
            let res = svc.submit(sessions[a.tenant], text);
            let (shed_be, shed_batch) = svc.shed_state();
            if shed_be {
                first_latched.0.get_or_insert(next);
            }
            if shed_batch {
                first_latched.1.get_or_insert(next);
            }
            // The class-ordering invariant, checked at every decision
            // point: Batch is never refused while BestEffort is admitted.
            assert!(
                !shed_batch || shed_be,
                "shedding Batch without BestEffort at arrival {next} (seed {seed} {mode})"
            );
            if let Err(error) = res {
                if matches!(error, ServeError::Shed { class: SloClass::Batch, .. }) {
                    assert!(shed_be && shed_batch, "Batch shed implies both classes latched");
                }
                refusals.push((next, a.tenant, format!("{error:?}")));
            }
            next += 1;
        }
        if svc.queued() > 0 {
            completed.extend(svc.run_round());
        } else if next < arrivals.len() {
            let gap = arrivals[next].at_secs - svc.instance().cluster().elapsed();
            if gap > 0.0 {
                svc.instance_mut().cluster_mut().charge_all(gap);
            } else {
                completed.extend(svc.run_round());
            }
        }
    }
    assert_eq!(
        completed.len() + refusals.len(),
        ARRIVALS,
        "every arrival is exactly admitted or refused"
    );
    let ds = svc.instance().datastore();
    let mut rows_by_text = Vec::new();
    for c in &completed {
        let out = c.result.as_ref().unwrap_or_else(|e| panic!("admitted query failed: {e}"));
        assert!(!out.degraded(), "overload paths must not drop rows");
        let mut rows: Vec<Vec<String>> = out
            .solutions
            .rows()
            .iter()
            .map(|r| r.iter().map(|t| ds.decode(*t).unwrap().to_string()).collect())
            .collect();
        rows.sort();
        // Recover the query text from the column shape: the scan has one
        // column, the join two.
        let text = pool[if rows.first().map_or(0, Vec::len) == 1 { 0 } else { 1 }].clone();
        rows_by_text.push((text, rows));
    }
    RunRecord {
        refusals,
        completions: completed
            .iter()
            .map(|c| (c.tenant.clone(), c.latency_secs.to_bits()))
            .collect(),
        trace_hash: svc.trace_hash(),
        rows_by_text,
        scale_events: svc.scale_events().len(),
        first_latched,
    }
}

/// Sorted rows for each pool query on a solo, uncontended instance.
fn solo_baselines() -> BTreeMap<String, Vec<Vec<String>>> {
    let mut out = BTreeMap::new();
    for text in query_pool() {
        let mut inst = launch();
        let res = inst.query(&text).unwrap();
        let ds = inst.datastore();
        let mut rows: Vec<Vec<String>> = res
            .solutions
            .rows()
            .iter()
            .map(|r| r.iter().map(|t| ds.decode(*t).unwrap().to_string()).collect())
            .collect();
        rows.sort();
        out.insert(text, rows);
    }
    out
}

#[test]
fn overload_shedding_is_deterministic_class_ordered_and_result_preserving() {
    let qps = capacity_qps();
    assert!(qps > 0.0);
    let baselines = solo_baselines();
    for mode in MODES {
        for seed in SEEDS {
            let a = run(seed, mode, qps);
            let b = run(seed, mode, qps);

            // 1. Deterministic shedding and scheduling.
            assert_eq!(a.refusals, b.refusals, "refusal sequence replays (seed {seed} {mode})");
            assert_eq!(
                a.completions, b.completions,
                "completion order and latencies replay (seed {seed} {mode})"
            );
            assert_eq!(a.trace_hash, b.trace_hash, "scheduler trace replays (seed {seed} {mode})");

            // 2. Class-ordered shedding. The run itself asserted the state
            // invariant (Batch never refused while BestEffort is admitted)
            // at every decision point; here check the latch order, that
            // overload actually shed something, and that Interactive never
            // sheds. (The first *refusal* of each class can arrive in any
            // order — Zipf puts BestEffort tenants in the unpopular tail —
            // which is exactly why the state, not the event log, carries
            // the ordering contract.)
            let (first_be, first_batch) = a.first_latched;
            assert!(
                first_be.is_some(),
                "3x overload must latch BestEffort shedding (seed {seed} {mode})"
            );
            if let Some(batch_at) = first_batch {
                assert!(
                    first_be.unwrap() <= batch_at,
                    "BestEffort latches no later than Batch (seed {seed} {mode}): \
                     {first_be:?} vs {batch_at}"
                );
            }
            let shed_count = |class: SloClass| {
                a.refusals
                    .iter()
                    .filter(|(_, _, e)| e.starts_with("Shed") && e.contains(&format!("{class:?}")))
                    .count()
            };
            assert!(
                shed_count(SloClass::BestEffort) + shed_count(SloClass::Batch) > 0,
                "3x overload must shed lower-class traffic (seed {seed} {mode})"
            );
            assert_eq!(
                shed_count(SloClass::Interactive),
                0,
                "Interactive is never shed (seed {seed} {mode})"
            );
            // Every Interactive refusal is the queue-bound shape.
            for (arrival, tenant, err) in &a.refusals {
                if class_of(&schedule(seed, mode, qps).0, *tenant) == SloClass::Interactive {
                    assert!(
                        err.starts_with("Overloaded"),
                        "interactive refusal at arrival {arrival} must be Overloaded: {err}"
                    );
                }
            }

            // 3. Admitted results are byte-identical to the solo run, with
            // elastic membership churn active.
            assert!(a.scale_events > 0, "overload must trigger resizes (seed {seed} {mode})");
            for (text, rows) in &a.rows_by_text {
                assert_eq!(
                    rows,
                    baselines.get(text).unwrap(),
                    "admitted rows match solo baseline (seed {seed} {mode})"
                );
            }
        }
    }
}
