//! Concurrency chaos harness: many clients multiplexed over one instance
//! by `ids-serve`, under the crash and bit-rot fault classes.
//!
//! The contract extends the solo chaos harness two ways:
//!
//! 1. **Result equivalence under interleaving** — every query a client
//!    gets back from the shared, fault-injected, reuse-enabled service is
//!    row-identical (sorted) to the same query run solo on a fault-free
//!    instance. Scheduler slicing, cross-client checkpoint reuse, cache
//!    fencing, and bit-rot quarantine must all be invisible in results.
//! 2. **Replay determinism** — re-running the identical (seed, workload)
//!    pair reproduces the scheduler slice trace hash and byte-identical
//!    unsorted per-query rows.
//!
//! Both run at every seed, with 4 and with 16 clients.

mod chaos;
mod ncnpr;

use chaos::SEEDS;
use ids::cache::CacheConfig;
use ids::core::workflow::{repurposing_query, RepurposingThresholds};
use ids::core::{IdsInstance, QueryOutcome};
use ids::serve::{Completed, QueryService, ServeConfig, TenantConfig};
use ids::simrt::{FaultConfig, FaultPlane, Topology};
use ncnpr::query;
use std::collections::BTreeMap;

/// The client counts of the matrix.
const CLIENTS: [usize; 2] = [4, 16];

fn launch(faults: Option<(u64, FaultConfig)>) -> IdsInstance {
    let topo = Topology::new(4, 2);
    let cache = ncnpr::cache(topo, CacheConfig::new(2, 64 << 20, 256 << 20).with_replication(2));
    let plane =
        faults.map(|(seed, fc)| FaultPlane::new(seed, fc, topo.nodes(), topo.total_ranks(), 10.0));
    ncnpr::launch(topo, Some(cache), plane)
}

/// Millisecond-scale crash windows (the test workload runs in virtual
/// milliseconds, like the solo chaos harness).
fn ms_crashes() -> FaultConfig {
    FaultConfig::crashes_only(2.0e-3, 0.5e-3)
}

/// Storage bit-rot on cached objects — with semantic reuse on, the cached
/// plan-fragment intermediates themselves are exposed to rot.
fn bit_rot() -> FaultConfig {
    FaultConfig::storage_only(0.2, 0.0)
}

/// The overlapping client workload: two repurposing variants sharing a
/// BGP (different FILTER thresholds), plus an α-renamed pair of simple
/// scans. Client `i` submits `pool[i % 4]`, so a 16-client run hits each
/// query text four times — plenty of checkpoint overlap.
fn query_pool() -> Vec<String> {
    vec![
        query(0.9),
        repurposing_query(&RepurposingThresholds {
            sw_similarity: 0.9,
            min_pic50: 3.5,
            min_dtba: 3.0,
        }),
        "SELECT ?p WHERE { ?p <rdf:type> <up:Protein> . }".to_string(),
        "SELECT ?q WHERE { ?q <rdf:type> <up:Protein> . }".to_string(),
    ]
}

/// Sorted, decoded rows — sorted because scheduling and re-balancing may
/// legitimately shuffle rows across ranks.
fn sorted_rows(out: &QueryOutcome, inst: &IdsInstance) -> Vec<Vec<String>> {
    let ds = inst.datastore();
    let mut rows: Vec<Vec<String>> = out
        .solutions
        .rows()
        .iter()
        .map(|r| r.iter().map(|t| ds.decode(*t).unwrap().to_string()).collect())
        .collect();
    rows.sort();
    rows
}

/// A completed query's [`sorted_rows`]; it must have succeeded whole.
fn extract(c: &Completed, inst: &IdsInstance) -> Vec<Vec<String>> {
    let out = c.result.as_ref().unwrap_or_else(|e| panic!("query {:?} failed: {e}", c.query));
    assert!(!out.degraded(), "fault paths must not drop rows");
    sorted_rows(out, inst)
}

/// Fault-free solo baselines, one fresh instance per distinct query text.
fn solo_baselines() -> BTreeMap<String, Vec<Vec<String>>> {
    let mut out = BTreeMap::new();
    for text in query_pool() {
        if out.contains_key(&text) {
            continue;
        }
        let mut inst = launch(None);
        let res = inst.query(&text).unwrap();
        out.insert(text, sorted_rows(&res, &inst));
    }
    out
}

/// Build the service, open `clients` single-query sessions, run to idle,
/// and return (service, completed, per-query-id query text).
fn run_concurrent(
    clients: usize,
    faults: Option<(u64, FaultConfig)>,
) -> (QueryService, Vec<Completed>, Vec<String>) {
    let inst = launch(faults);
    let mut svc = QueryService::new(
        inst,
        ServeConfig {
            quantum_secs: 1.0e-5,
            reuse: true,
            max_in_flight: 1024,
            ..ServeConfig::default()
        },
    );
    let pool = query_pool();
    let mut texts = Vec::new();
    for i in 0..clients {
        let tenant = format!("client{i:02}");
        svc.register_tenant(TenantConfig::new(tenant.clone()));
        let session = svc.open_session(&tenant).unwrap();
        let text = pool[i % pool.len()].clone();
        svc.submit(session, &text).unwrap();
        texts.push(text);
    }
    let done = svc.run_until_idle();
    assert_eq!(done.len(), clients, "every admitted query completes");
    (svc, done, texts)
}

#[test]
fn concurrent_clients_under_crash_chaos_match_solo_results() {
    let baselines = solo_baselines();
    for clients in CLIENTS {
        for seed in SEEDS {
            let (svc, done, texts) = run_concurrent(clients, Some((seed, ms_crashes())));
            for c in &done {
                let text = &texts[c.query.0 as usize];
                assert_eq!(
                    &extract(c, svc.instance()),
                    baselines.get(text).unwrap(),
                    "seed {seed} clients {clients}: query {:?} diverged from the solo \
                     fault-free run",
                    c.query
                );
            }
            let snap = svc.instance().metrics_snapshot();
            assert!(
                snap.counter_sum("ids_reuse_hits_total") > 0,
                "seed {seed}: an overlapping {clients}-client workload must reuse checkpoints"
            );
        }
    }
}

#[test]
fn concurrent_clients_under_bit_rot_match_solo_results() {
    let baselines = solo_baselines();
    for clients in CLIENTS {
        for seed in SEEDS {
            let (svc, done, texts) = run_concurrent(clients, Some((seed, bit_rot())));
            for c in &done {
                let text = &texts[c.query.0 as usize];
                assert_eq!(
                    &extract(c, svc.instance()),
                    baselines.get(text).unwrap(),
                    "seed {seed} clients {clients}: query {:?} diverged under storage rot",
                    c.query
                );
            }
            // Rot may or may not have hit a cached intermediate this seed;
            // what matters is that any detection was quarantined, never
            // served.
            let snap = svc.instance().metrics_snapshot();
            assert_eq!(
                snap.counter("ids_cache_quarantines_total", ""),
                snap.counter("ids_cache_corruptions_detected_total", "cache"),
                "seed {seed} clients {clients}: every cache-side detection quarantines \
                 exactly once"
            );
        }
    }
}

#[test]
fn concurrent_replay_is_byte_identical() {
    // Same (seed, workload) twice: identical scheduler trace hash and
    // byte-identical unsorted rows, query by query — under fault
    // injection and cross-client reuse.
    for clients in CLIENTS {
        for seed in SEEDS {
            let run = || {
                let (svc, done, _) = run_concurrent(clients, Some((seed, ms_crashes())));
                let rows: Vec<_> =
                    done.iter().map(|c| c.result.as_ref().unwrap().solutions.clone()).collect();
                (svc.trace_hash(), rows)
            };
            let (h1, r1) = run();
            let (h2, r2) = run();
            let label = format!("seed {seed} clients {clients}");
            assert_eq!(h1, h2, "{label}: scheduler trace must replay exactly");
            assert_eq!(r1, r2, "{label}: per-query rows must replay byte-identically");
        }
    }
}
