//! Experiment X6 — multi-tenant service ablation (serving plane).
//!
//! Sweeps concurrent client count × semantic-reuse on/off over an
//! overlapping NCNPR workload served by `ids-serve` and reports, per
//! cell: total virtual time, throughput (queries per virtual second),
//! p50/p99 virtual latency, and the plan-fragment reuse hit rate.
//!
//! Two invariants from the PR acceptance are asserted, not just
//! printed: at 16 clients, reuse-on must (a) hit the fingerprint cache
//! at least once and (b) finish the workload in less total virtual time
//! than reuse-off.

use crate::reporting::{percentile, section, table, Records};
use ids_cache::CacheConfig;
use ids_core::workflow::{
    install_workflow, repurposing_query, RepurposingThresholds, WorkflowModels,
};
use ids_core::IdsInstance;
use ids_serve::{QueryService, ServeConfig, TenantConfig};
use ids_simrt::Topology;
use ids_workloads::ncnpr::{build, Band, NcnprConfig};

const CLIENTS_AXIS: [usize; 4] = [1, 4, 16, 64];
const QUERIES_PER_CLIENT: usize = 4;

/// Bench-scale dataset: large enough that recomputing a plan fragment
/// costs far more than the ~1 ms backing-store write a checkpoint pays,
/// so the reuse trade-off is measured in the regime the paper targets
/// (the unit-test configs are deliberately tiny and sit below it).
fn dataset_config() -> NcnprConfig {
    NcnprConfig {
        bands: vec![
            Band {
                mutation_rate: 0.0,
                similarity_range: None,
                proteins: 12,
                compounds_per_protein: 6,
            },
            Band {
                mutation_rate: 0.62,
                similarity_range: Some((0.21, 0.39)),
                proteins: 24,
                compounds_per_protein: 4,
            },
        ],
        background_proteins: 400,
        ..NcnprConfig::default()
    }
}

fn launch() -> IdsInstance {
    let topo = Topology::new(4, 2);
    let cache = super::cache(topo, CacheConfig::new(2, 64 << 20, 256 << 20).with_replication(2));
    let mut inst = super::instance(topo, 11);
    inst.attach_cache(cache);
    let dataset = build(inst.datastore(), &dataset_config());
    let target = dataset.target.clone();
    install_workflow(&mut inst, &target, WorkflowModels::test_models());
    inst
}

/// The overlapping workload: two repurposing variants that share a BGP
/// (different FILTER thresholds) plus an α-renamed pair of scans. Every
/// client cycles through all four, so any two clients overlap on every
/// checkpointed fragment.
fn query_pool() -> Vec<String> {
    vec![
        repurposing_query(&RepurposingThresholds {
            sw_similarity: 0.9,
            min_pic50: 3.0,
            min_dtba: 3.0,
        }),
        repurposing_query(&RepurposingThresholds {
            sw_similarity: 0.9,
            min_pic50: 3.5,
            min_dtba: 3.0,
        }),
        "SELECT ?p WHERE { ?p <rdf:type> <up:Protein> . }".to_string(),
        "SELECT ?q WHERE { ?q <rdf:type> <up:Protein> . }".to_string(),
    ]
}

struct Cell {
    clients: usize,
    reuse: bool,
    queries: usize,
    total_virtual_secs: f64,
    throughput_qps: f64,
    p50_latency_secs: f64,
    p99_latency_secs: f64,
    reuse_hits: u64,
    reuse_probes: u64,
    trace_hash: u64,
}

impl Cell {
    fn hit_rate(&self) -> f64 {
        if self.reuse_probes == 0 {
            0.0
        } else {
            self.reuse_hits as f64 / self.reuse_probes as f64
        }
    }
}

fn run_cell(clients: usize, reuse: bool) -> Cell {
    let inst = launch();
    let mut svc = QueryService::new(
        inst,
        ServeConfig {
            quantum_secs: 1.0e-5,
            reuse,
            max_in_flight: usize::MAX,
            ..ServeConfig::default()
        },
    );
    let pool = query_pool();
    let mut sessions = Vec::new();
    for i in 0..clients {
        let tenant = format!("client{i:03}");
        // Mild weight skew so WDRR has something to arbitrate.
        svc.register_tenant(
            TenantConfig::new(tenant.clone())
                .with_weight(1 + (i % 3) as u32)
                .with_max_queued(QUERIES_PER_CLIENT),
        );
        sessions.push(svc.open_session(&tenant).expect("fresh tenant"));
    }
    // Interleave submissions round-robin so clients contend for slices.
    for q in 0..QUERIES_PER_CLIENT {
        for (i, session) in sessions.iter().enumerate() {
            let text = &pool[(i + q) % pool.len()];
            svc.submit(*session, text).expect("admission under bound");
        }
    }
    let done = svc.run_until_idle();
    assert_eq!(done.len(), clients * QUERIES_PER_CLIENT, "all queries complete");
    let mut latencies: Vec<f64> = done
        .iter()
        .map(|c| {
            assert!(c.result.is_ok(), "no query may fail: {:?}", c.result);
            c.latency_secs
        })
        .collect();
    latencies.sort_by(f64::total_cmp);
    let total = svc.instance().cluster().elapsed();
    let snap = svc.instance().metrics_snapshot();
    let hits = snap.counter_sum("ids_reuse_hits_total");
    let probes = hits + snap.counter_sum("ids_reuse_misses_total");
    Cell {
        clients,
        reuse,
        queries: done.len(),
        total_virtual_secs: total,
        throughput_qps: done.len() as f64 / total,
        p50_latency_secs: percentile(&latencies, 0.50),
        p99_latency_secs: percentile(&latencies, 0.99),
        reuse_hits: hits,
        reuse_probes: probes,
        trace_hash: svc.trace_hash(),
    }
}

pub fn run() {
    section("X6: multi-tenant service — clients x semantic reuse");
    let mut cells = Vec::new();
    for &clients in &CLIENTS_AXIS {
        for reuse in [false, true] {
            cells.push(run_cell(clients, reuse));
        }
    }

    let mut rec = Records::new("serve");
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            let key = format!("c{}.reuse_{}", c.clients, if c.reuse { "on" } else { "off" });
            rec.add(format_args!("{key}.queries"), c.queries);
            rec.add(format_args!("{key}.total_virtual_secs"), c.total_virtual_secs);
            rec.add(format_args!("{key}.throughput_qps"), c.throughput_qps);
            rec.add(format_args!("{key}.p50_latency_secs"), c.p50_latency_secs);
            rec.add(format_args!("{key}.p99_latency_secs"), c.p99_latency_secs);
            rec.add(format_args!("{key}.reuse_hits"), c.reuse_hits);
            rec.add(format_args!("{key}.reuse_probes"), c.reuse_probes);
            rec.add(format_args!("{key}.hit_rate"), c.hit_rate());
            rec.add(format_args!("{key}.trace_hash"), c.trace_hash);
            vec![
                c.clients.to_string(),
                if c.reuse { "on" } else { "off" }.to_string(),
                c.queries.to_string(),
                format!("{:.6}s", c.total_virtual_secs),
                format!("{:.1}", c.throughput_qps),
                format!("{:.6}s", c.p50_latency_secs),
                format!("{:.6}s", c.p99_latency_secs),
                format!("{:.1}%", 100.0 * c.hit_rate()),
            ]
        })
        .collect();
    table(
        &["clients", "reuse", "queries", "virtual total", "qps", "p50", "p99", "hit rate"],
        &rows,
    );

    // Acceptance checks at the 16-client cell.
    let off16 = cells.iter().find(|c| c.clients == 16 && !c.reuse).unwrap();
    let on16 = cells.iter().find(|c| c.clients == 16 && c.reuse).unwrap();
    assert!(on16.reuse_hits > 0, "overlapping workload must hit the fingerprint cache");
    assert!(
        on16.total_virtual_secs < off16.total_virtual_secs,
        "reuse must cut total virtual time at 16 clients: on={} off={}",
        on16.total_virtual_secs,
        off16.total_virtual_secs
    );
    println!(
        "\n16 clients: reuse cut total virtual time {:.6}s -> {:.6}s ({:.1}% saved) \
         with {}/{} checkpoint probes hitting ({:.1}%)",
        off16.total_virtual_secs,
        on16.total_virtual_secs,
        100.0 * (1.0 - on16.total_virtual_secs / off16.total_virtual_secs),
        on16.reuse_hits,
        on16.reuse_probes,
        100.0 * on16.hit_rate(),
    );
    rec.print();
}
