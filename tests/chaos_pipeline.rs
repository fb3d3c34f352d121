//! Pipelined/BSP parity under chaos: the `pipelined` execution option
//! replaces whole-stage barriers with streamed, bounded exchange
//! channels — but it selects a virtual-time *cost model*, never a data
//! plane. The streamed repartition drains sources
//! in rank order and channels in FIFO order, so whatever
//! straggler/crash schedule the chaos matrix throws at the cluster,
//! the pipelined engine returns **byte-identical** `QueryOutcome` rows
//! to the barriered BSP engine.
//!
//! Fault-free, equality is exact (same rows, same order, same term
//! ids). Under faults the two modes accrue different virtual times —
//! that is the point of the pipeline — so fault windows can intersect
//! stages differently; rows are compared as sorted decoded multisets,
//! the same tolerance `chaos_faults.rs` grants dilated clocks.

use ids::cache::{BackingStore, CacheConfig, CacheManager};
use ids::core::workflow::{
    install_workflow, repurposing_query, RepurposingThresholds, WorkflowModels,
};
use ids::core::{IdsConfig, IdsInstance, QueryOutcome};
use ids::simrt::{FaultConfig, FaultPlane, NetworkModel, Topology};
use ids::workloads::ncnpr::{build, Band, NcnprConfig};
use std::sync::Arc;

/// The CI seed matrix (ci.sh runs one seed per job via `CHAOS_SEED`).
fn chaos_seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("CHAOS_SEED must be an unsigned integer")],
        Err(_) => (1..=8).collect(),
    }
}

/// Stragglers and crashes only: the two fault classes the streamed
/// exchange interacts with directly (per-channel delays instead of
/// whole-stage barriers). Transient/link/storage faults are covered by
/// `chaos_faults.rs` and `engine_vs_oracle.rs`.
fn pipeline_chaos() -> FaultConfig {
    use ids::simrt::faults::{CrashConfig, StragglerConfig};
    FaultConfig {
        crash: Some(CrashConfig { mean_uptime_secs: 2.0e-3, mean_downtime_secs: 0.5e-3 }),
        transient: None,
        link: None,
        straggler: Some(StragglerConfig { fraction: 0.25, slowdown: 4.0 }),
        storage: None,
        permanent: None,
    }
}

fn small_config() -> NcnprConfig {
    NcnprConfig {
        bands: vec![
            Band {
                mutation_rate: 0.0,
                similarity_range: None,
                proteins: 3,
                compounds_per_protein: 4,
            },
            Band {
                mutation_rate: 0.62,
                similarity_range: Some((0.21, 0.39)),
                proteins: 5,
                compounds_per_protein: 2,
            },
        ],
        background_proteins: 10,
        ..NcnprConfig::default()
    }
}

/// Launch one instance with the full NCNPR workflow installed and the
/// exchange mode pinned; the `chaos_faults.rs` harness plus the
/// `pipelined` switch.
fn launch(topo: Topology, faults: Option<(u64, FaultConfig)>, pipelined: bool) -> IdsInstance {
    let cache = Arc::new(CacheManager::new(
        topo,
        NetworkModel::slingshot(),
        CacheConfig::new(2, 64 << 20, 256 << 20),
        BackingStore::default_store(),
    ));
    let mut cfg = IdsConfig::laptop(topo.total_ranks(), 11);
    cfg.topology = topo;
    let mut inst = IdsInstance::launch(cfg);
    inst.attach_cache(cache);
    if let Some((seed, fc)) = faults {
        let plane = Arc::new(FaultPlane::new(seed, fc, topo.nodes(), topo.total_ranks(), 10.0));
        inst.attach_faults(plane);
    }
    let dataset = build(inst.datastore(), &small_config());
    let target = dataset.target.clone();
    install_workflow(&mut inst, &target, WorkflowModels::test_models());
    inst.exec_options_mut().pipelined = pipelined;
    inst
}

fn query() -> String {
    repurposing_query(&RepurposingThresholds { sw_similarity: 0.9, min_pic50: 3.0, min_dtba: 3.0 })
}

/// Raw term-id rows — the strictest equality there is.
fn raw_rows(o: &QueryOutcome) -> Vec<Vec<u64>> {
    o.solutions.rows().iter().map(|r| r.iter().map(|t| t.raw()).collect()).collect()
}

/// Sorted decoded (compound, energy) rows — rank-placement tolerant.
fn extract(o: &QueryOutcome, inst: &IdsInstance) -> Vec<(String, String)> {
    let ds = inst.datastore();
    let mut v: Vec<(String, String)> = o
        .solutions
        .rows()
        .iter()
        .map(|r| {
            (
                ds.decode(r[1]).unwrap().to_string(),
                format!("{:.12}", ds.decode(r[2]).unwrap().as_f64().unwrap()),
            )
        })
        .collect();
    v.sort();
    v
}

/// Fault-free, streaming is observationally indistinguishable from BSP
/// at the data plane: same schema, same rows, same order, same
/// dictionary ids. The `ablation_pipeline` bench owns the speedup claim
/// (this 12-row workload is too small to amortize anything); here the
/// pipelined run must also finish no later than the barriered one,
/// since streaming only ever removes synchronization.
#[test]
fn fault_free_runs_are_byte_identical() {
    let mut bsp = launch(Topology::new(4, 2), None, false);
    let mut pipe = launch(Topology::new(4, 2), None, true);
    let bsp_out = bsp.query(&query()).unwrap();
    let pipe_out = pipe.query(&query()).unwrap();
    assert_eq!(bsp_out.solutions.vars(), pipe_out.solutions.vars(), "schema divergence");
    assert_eq!(raw_rows(&bsp_out), raw_rows(&pipe_out), "BSP/pipelined data-plane divergence");
    assert_eq!(bsp_out.solutions.len(), 12, "3 proteins x 4 compounds");
    assert!(
        pipe_out.elapsed_secs <= bsp_out.elapsed_secs + 1e-12,
        "streaming must not add virtual time over barriers: pipelined {} vs BSP {}",
        pipe_out.elapsed_secs,
        bsp_out.elapsed_secs
    );
}

/// EXPLAIN surfaces the exchange block only for pipelined runs: the
/// per-channel batch metrics exist exactly when streaming happened.
#[test]
fn explain_reports_exchange_block_only_when_pipelined() {
    let mut bsp = launch(Topology::new(4, 2), None, false);
    bsp.query(&query()).unwrap();
    let plan = bsp.explain(&query()).unwrap();
    assert!(!plan.contains("exchange:"), "BSP EXPLAIN must not grow an exchange block:\n{plan}");

    let mut pipe = launch(Topology::new(4, 2), None, true);
    pipe.query(&query()).unwrap();
    let plan = pipe.explain(&query()).unwrap();
    assert!(plan.contains("exchange:"), "pipelined EXPLAIN lacks the exchange block:\n{plan}");
    assert!(plan.contains("batches streamed:"), "missing batch metrics:\n{plan}");
}

/// The straggler/crash chaos matrix: per seed, the pipelined engine
/// under faults matches the BSP engine under the *same* fault schedule
/// and the fault-free baseline, row for row after the
/// placement-tolerant sort. Crash schedules delay individual channels
/// in pipelined mode and whole stages in BSP mode, so only the
/// multiset of decoded rows is comparable — and it must be identical.
#[test]
fn chaos_matrix_bsp_vs_pipelined_parity() {
    let mut base = launch(Topology::new(4, 2), None, true);
    let base_out = base.query(&query()).unwrap();
    let expected = extract(&base_out, &base);
    assert_eq!(expected.len(), 12);

    for seed in chaos_seeds() {
        let mut bsp = launch(Topology::new(4, 2), Some((seed, pipeline_chaos())), false);
        let mut pipe = launch(Topology::new(4, 2), Some((seed, pipeline_chaos())), true);
        let bsp_out = bsp
            .query(&query())
            .unwrap_or_else(|e| panic!("seed {seed}: BSP chaos run failed: {e}"));
        let pipe_out = pipe
            .query(&query())
            .unwrap_or_else(|e| panic!("seed {seed}: pipelined chaos run failed: {e}"));
        assert!(!pipe_out.degraded(), "seed {seed}: pipelined fault paths must not drop rows");
        assert_eq!(
            extract(&bsp_out, &bsp),
            extract(&pipe_out, &pipe),
            "seed {seed}: BSP/pipelined divergence under chaos"
        );
        assert_eq!(
            extract(&pipe_out, &pipe),
            expected,
            "seed {seed}: pipelined chaos run diverged from fault-free baseline"
        );
    }
}
