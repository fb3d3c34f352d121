//! Prepared-query cache: serving from a cached entry is indistinguishable
//! from preparing the text afresh.
//!
//! * **Golden** — a fixed 16-client Zipf script over `ids-serve` returns
//!   the same rows, `latency_secs` bits, `resumed_from` and slice-trace
//!   hash whether every submission misses the prepared cache first (cold)
//!   or finds its entry already there (warm), and the hash equals the one
//!   recorded on the commit before the cache existed.
//! * **Invalidation** — ingest, an exec-option change and a cache
//!   attachment each start a new plan epoch; no entry outlives its epoch.
//! * **Bound** — thousands of distinct texts never grow the cache past
//!   its capacity, and every answer stays right.
//! * **Checkpoint bytes** — the reuse objects a query stores, and what a
//!   recovery run's checkpoints leave in the cache tiers, are pinned to
//!   the values recorded while reuse and recovery stored checkpoints
//!   through separate functions.

use ids::cache::{BackingStore, CacheConfig, CacheManager};
use ids::core::workflow::{
    install_workflow, repurposing_query, RepurposingThresholds, WorkflowModels,
};
use ids::core::{IdsConfig, IdsInstance};
use ids::graph::Term;
use ids::serve::{QueryId, QueryService, ServeConfig, SessionId, TenantConfig};
use ids::simrt::rng::{fnv1a, SplitMix64};
use ids::simrt::{NetworkModel, RankId, Topology};
use ids::workloads::ncnpr::{build, Band, NcnprConfig};
use std::sync::Arc;

/// `QueryService::trace_hash()` of [`run_script`] on the commit before
/// the prepared cache (da6aca4), where every submission parsed, lowered
/// and canonicalised its text from scratch — re-recorded when the store
/// and the exchange took one placement function (the script's join
/// queries move fewer rows, so their slices end earlier; its rows and
/// `resumed_from`s did not move).
const PARENT_TRACE_HASH: u64 = 0x8e6d_5616_6238_950a;

const CLIENTS: usize = 16;
const ROUNDS: usize = 120;

fn topology() -> Topology {
    Topology::new(4, 2)
}

fn cache() -> Arc<CacheManager> {
    Arc::new(CacheManager::new(
        topology(),
        NetworkModel::slingshot(),
        CacheConfig::new(2, 64 << 20, 256 << 20).with_replication(2),
        BackingStore::default_store(),
    ))
}

fn bands() -> Vec<Band> {
    vec![
        Band { mutation_rate: 0.0, similarity_range: None, proteins: 3, compounds_per_protein: 4 },
        Band {
            mutation_rate: 0.62,
            similarity_range: Some((0.21, 0.39)),
            proteins: 5,
            compounds_per_protein: 2,
        },
    ]
}

fn launch(with_cache: bool) -> IdsInstance {
    let mut cfg = IdsConfig::laptop(topology().total_ranks(), 11);
    cfg.topology = topology();
    let mut inst = IdsInstance::launch(cfg);
    if with_cache {
        inst.attach_cache(cache());
    }
    let ncfg = NcnprConfig { bands: bands(), background_proteins: 10, ..NcnprConfig::default() };
    let dataset = build(inst.datastore(), &ncfg);
    install_workflow(&mut inst, &dataset.target, WorkflowModels::test_models());
    inst
}

/// The `serve-mix` query shapes at test size: per protein a lookup, its
/// α-renamed twin and an all-pass-filtered twin; compound → protein
/// lookups; two background scans.
fn pool() -> Vec<String> {
    let mut pool = Vec::new();
    let mut compounds = 0;
    for (bi, band) in bands().iter().enumerate() {
        for p in 0..band.proteins {
            compounds += band.compounds_per_protein;
            let lookup = |c: &str, s: &str, filter: &str| {
                format!(
                    "SELECT ?{c} ?{s} WHERE {{ ?{c} <chembl:inhibits> <up:B{bi}_{p}> . \
                     ?{c} <chembl:smiles> ?{s} . {filter}}}"
                )
            };
            pool.push(lookup("c", "s", ""));
            pool.push(lookup("x", "y", ""));
            pool.push(lookup("c", "s", "FILTER(pic50(?s) > 0.0) "));
        }
    }
    for n in (1..=compounds).step_by(5) {
        pool.push(format!("SELECT ?p WHERE {{ <chembl:C{n}> <chembl:inhibits> ?p . }}"));
    }
    pool.push("SELECT ?p WHERE { ?p <up:reviewed> 0 . }".to_string());
    pool.push("SELECT ?p ?a WHERE { ?p <up:reviewed> 0 . ?p <up:accession> ?a . }".to_string());
    pool
}

/// One completion, reduced to what must not depend on the prepared cache.
#[derive(Debug, PartialEq)]
struct Served {
    query: QueryId,
    rows: Vec<Vec<u64>>,
    latency_bits: u64,
    resumed_from: i64,
}

/// Sixteen closed-loop clients drawing from `pool` by Zipf(1.1) rank:
/// every idle client submits, the scheduler runs one round, repeat.
fn run_script(svc: &mut QueryService, pool: &[String]) -> Vec<Served> {
    let sessions: Vec<SessionId> = (0..CLIENTS)
        .map(|i| {
            let tenant = format!("c{i:02}");
            svc.register_tenant(TenantConfig::new(tenant.clone()));
            svc.open_session(&tenant).unwrap()
        })
        .collect();
    let weights: Vec<f64> = (1..=pool.len()).map(|r| (r as f64).powf(-1.1)).collect();
    let total: f64 = weights.iter().sum();
    let mut rng = SplitMix64::new(7, 0x5e7e);
    let mut idle = [true; CLIENTS];
    let mut served = Vec::new();
    for _ in 0..ROUNDS {
        for (client, session) in sessions.iter().enumerate() {
            if !std::mem::take(&mut idle[client]) {
                continue;
            }
            let mut u = rng.next_f64() * total;
            let rank = weights
                .iter()
                .position(|w| {
                    u -= w;
                    u < 0.0
                })
                .unwrap_or(pool.len() - 1);
            svc.submit(*session, &pool[rank]).unwrap();
        }
        for done in svc.run_round() {
            idle[sessions.iter().position(|s| *s == done.session).unwrap()] = true;
            let outcome = done.result.as_ref().unwrap();
            served.push(Served {
                query: done.query,
                rows: outcome
                    .solutions
                    .rows()
                    .iter()
                    .map(|r| r.iter().map(|t| t.raw()).collect())
                    .collect(),
                latency_bits: done.latency_secs.to_bits(),
                resumed_from: done.resumed_from,
            });
        }
    }
    served
}

fn prepared_counts(inst: &IdsInstance) -> (u64, u64) {
    let snap = inst.metrics().snapshot();
    (snap.counter("ids_prepared_hits_total", ""), snap.counter("ids_prepared_misses_total", ""))
}

#[test]
fn cold_and_warm_prepared_cache_serve_the_same_bits() {
    let pool = pool();

    let mut cold = QueryService::new(launch(true), ServeConfig::default());
    let cold_served = run_script(&mut cold, &pool);
    let (cold_hits, cold_misses) = prepared_counts(cold.instance());
    assert!(cold_misses > 0 && cold_hits > cold_misses, "script repeats texts: {cold_hits} hits");

    // Warm: every text prepared (nothing executed, no clock moved) before
    // the first submission, so the script never builds an entry itself.
    let mut warm = QueryService::new(launch(true), ServeConfig::default());
    for text in &pool {
        warm.instance().prepared(text, true).unwrap();
    }
    let (_, warm_misses_before) = prepared_counts(warm.instance());
    let warm_served = run_script(&mut warm, &pool);
    let (warm_hits, warm_misses) = prepared_counts(warm.instance());
    assert_eq!(warm_misses, warm_misses_before, "warm run built an entry");
    assert_eq!(warm_hits, cold_hits + cold_misses);

    assert!(cold_served.len() > 10 * CLIENTS);
    assert!(cold_served.iter().any(|s| s.resumed_from >= 0), "script exercises semantic reuse");
    assert_eq!(cold_served, warm_served);
    assert_eq!(cold.trace_hash(), warm.trace_hash());
    assert_eq!(cold.trace_hash(), PARENT_TRACE_HASH, "slice trace moved: {:#x}", cold.trace_hash());
}

#[test]
fn ingest_starts_a_new_epoch() {
    let mut svc = QueryService::new(launch(true), ServeConfig::default());
    svc.register_tenant(TenantConfig::new("t"));
    let session = svc.open_session("t").unwrap();
    let q = "SELECT ?p WHERE { <chembl:Cnew> <chembl:inhibits> ?p . }";
    let serve = |svc: &mut QueryService| {
        svc.submit(session, q).unwrap();
        let done = svc.run_until_idle().pop().unwrap();
        done.result.unwrap().solutions.rows().to_vec()
    };
    // Unknown constant: an impossible pattern, cached as such, served twice.
    assert!(serve(&mut svc).is_empty());
    assert!(serve(&mut svc).is_empty());
    assert!(svc.instance().prepared(q, true).unwrap().plan.patterns[0].impossible);

    let ds = svc.instance().datastore().clone();
    ds.add_fact(&Term::iri("chembl:Cnew"), &Term::iri("chembl:inhibits"), &Term::iri("up:B0_0"));
    ds.build_indexes();
    let rows = serve(&mut svc);
    assert_eq!(rows, vec![vec![ds.encode(&Term::iri("up:B0_0"))]]);
    let snap = svc.instance().metrics().snapshot();
    assert!(snap.counter("ids_prepared_stale_total", "") >= 1);
}

#[test]
fn exec_options_and_cache_attachment_start_a_new_epoch() {
    let q = "SELECT ?p WHERE { ?p <up:reviewed> 0 . }";
    let key = |inst: &IdsInstance| {
        let prepared = inst.prepared(q, true).unwrap();
        prepared.reuse.as_ref().map(|r| r.after_bgp.as_ref().unwrap().key.clone())
    };

    let mut inst = launch(true);
    let before = key(&inst).expect("cache attached: reuse plan present");
    assert_eq!(key(&inst).as_ref(), Some(&before), "same epoch, same entry");
    inst.exec_options_mut().degrade = true;
    let after = key(&inst).expect("reuse plan present");
    assert_ne!(before, after, "result-affecting option changed the reuse salt");
    assert_eq!(
        Some(after),
        inst.prepare_fresh(q, true)
            .unwrap()
            .reuse
            .map(|r| { r.after_bgp.as_ref().unwrap().key.clone() })
    );

    // Cached without a cache attached (so no reuse plan), then attached.
    let mut inst = launch(false);
    assert_eq!(key(&inst), None);
    inst.attach_cache(cache());
    assert!(key(&inst).is_some(), "attach_cache after caching: reuse plan present");
}

#[test]
fn distinct_texts_stay_within_capacity_and_answer_correctly() {
    let mut inst = launch(true);
    let compounds: usize = bands().iter().map(|b| b.proteins * b.compounds_per_protein).sum();
    let oracle: Vec<Vec<Vec<u64>>> = (1..=compounds)
        .map(|n| {
            let q = format!("SELECT ?p WHERE {{ <chembl:C{n}> <chembl:inhibits> ?p . }}");
            let out = inst.query(&q).unwrap();
            assert_eq!(out.solutions.len(), 1);
            out.solutions.rows().iter().map(|r| r.iter().map(|t| t.raw()).collect()).collect()
        })
        .collect();

    let mut svc = QueryService::new(inst, ServeConfig::default());
    svc.register_tenant(TenantConfig::new("t"));
    let session = svc.open_session("t").unwrap();
    const TEXTS: usize = 5000;
    for batch in (0..TEXTS).collect::<Vec<_>>().chunks(8) {
        let mut expected = Vec::new();
        for &i in batch {
            // Distinct text per query: the variable name carries `i`.
            let n = i % compounds;
            let q =
                format!("SELECT ?p{i} WHERE {{ <chembl:C{}> <chembl:inhibits> ?p{i} . }}", n + 1);
            expected.push((svc.submit(session, &q).unwrap(), n));
        }
        for done in svc.run_until_idle() {
            let n = expected.iter().find(|(id, _)| *id == done.query).unwrap().1;
            let rows: Vec<Vec<u64>> = done
                .result
                .unwrap()
                .solutions
                .rows()
                .iter()
                .map(|r| r.iter().map(|t| t.raw()).collect())
                .collect();
            assert_eq!(rows, oracle[n]);
        }
        let entries = svc.instance().metrics().snapshot().gauge("ids_prepared_entries", "");
        assert!((1..=1024).contains(&entries), "{entries} prepared entries");
    }
    let snap = svc.instance().metrics().snapshot();
    assert_eq!(snap.gauge("ids_prepared_entries", ""), 1024);
    assert_eq!(snap.counter("ids_prepared_misses_total", ""), TEXTS as u64);
    assert_eq!(snap.counter("ids_prepared_evictions_total", ""), TEXTS as u64 - 1024);
}

/// FNV-1a over every `(key, bytes)` reuse object [`checkpoint_queries`]
/// store, in schedule order, recorded on the commit where reuse and
/// recovery checkpoints had store functions of their own (9d81cf4).
const REUSE_OBJECTS_DIGEST: u64 = 0xf80531349d2aa66e;
/// Reuse objects the schedule names and the cache holds.
const REUSE_OBJECTS: usize = 6;
/// Recovery checkpoints a fault-free `recovery = true` run of the same
/// queries stores, on the same commit.
const RECOVERY_CHECKPOINTS: u32 = 7;
/// `(node, tier, occupied bytes)` after that run, on the same commit.
const RECOVERY_OCCUPIED: [(usize, &str, u64); 4] =
    [(0, "dram", 10105), (1, "dram", 10105), (0, "nvme", 0), (1, "nvme", 0)];

/// A BGP, the same BGP under a WHERE filter, and the re-purposing query
/// (three filters and an APPLY stage): every checkpoint ordinal.
fn checkpoint_queries() -> Vec<String> {
    let lookup = "SELECT ?c ?s WHERE { ?c <chembl:inhibits> <up:B1_2> . ?c <chembl:smiles> ?s . ";
    let loose = RepurposingThresholds { sw_similarity: 0.2, min_pic50: 0.0, min_dtba: 0.0 };
    vec![
        format!("{lookup}}}"),
        format!("{lookup}FILTER(pic50(?s) > 0.0) }}"),
        repurposing_query(&loose),
    ]
}

#[test]
fn checkpoint_stores_write_the_pinned_bytes() {
    let mut inst = launch(true);
    let mut digest = Vec::new();
    let mut objects = 0;
    for q in checkpoint_queries() {
        inst.query_with_reuse(&q).unwrap();
        let prepared = inst.prepared(&q, true).unwrap();
        let reuse = prepared.reuse.as_ref().expect("cache attached: reuse plan present");
        let scheduled =
            [&reuse.after_bgp, &reuse.after_where].into_iter().chain(&reuse.after_stage);
        for cp in scheduled.flatten() {
            let (bytes, _) = inst.cache().unwrap().get(RankId(0), &cp.key).unwrap().unwrap();
            digest.extend_from_slice(cp.key.as_bytes());
            digest.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            digest.extend_from_slice(&bytes);
            objects += 1;
        }
    }
    assert_eq!((objects, fnv1a(&digest)), (REUSE_OBJECTS, REUSE_OBJECTS_DIGEST));

    let mut inst = launch(true);
    inst.exec_options_mut().recovery = true;
    let mut stored = 0;
    for q in checkpoint_queries() {
        let out = inst.query(&q).unwrap();
        assert_eq!(out.recovery.rollbacks, 0, "fault-free run");
        stored += out.recovery.checkpoints_stored;
    }
    let occupied: Vec<(usize, String, u64)> = inst
        .cache_inspection()
        .unwrap()
        .tiers
        .into_iter()
        .map(|t| (t.node, t.tier, t.occupied_bytes))
        .collect();
    let want: Vec<(usize, String, u64)> =
        RECOVERY_OCCUPIED.iter().map(|&(n, t, b)| (n, t.to_string(), b)).collect();
    assert_eq!((stored, occupied), (RECOVERY_CHECKPOINTS, want));
}
