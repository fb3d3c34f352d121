//! Experiment X5 — fault-injection ablation (robustness plane).
//!
//! Runs the NCNPR re-purposing query under deterministic fault schedules
//! and reports the **virtual-time overhead** each fault class adds over
//! the fault-free baseline, while asserting result equivalence — the
//! same contract `tests/chaos_faults.rs` enforces in CI:
//!
//! 1. **Fault-class ladder** — baseline vs node crashes, transient FAM
//!    failures, degraded links, straggler ranks, and the full chaos mix.
//! 2. **Transient-probability sweep** — how retry/backoff absorbs rising
//!    FAM failure rates.
//! 3. **Metrics dump** — the fault/retry/degradation counters a chaos
//!    run leaves behind in the `ids-obs` snapshot.

use crate::reporting::{metrics_dump, secs, section, table, Records};
use ids_cache::{CacheConfig, CacheManager};
use ids_core::workflow::{
    install_workflow, repurposing_query, RepurposingThresholds, WorkflowModels,
};
use ids_core::{IdsInstance, QueryOutcome};
use ids_simrt::faults::{CrashConfig, LinkConfig, StorageConfig, StragglerConfig, TransientConfig};
use ids_simrt::{FaultConfig, FaultPlane, Topology};
use ids_workloads::ncnpr::{build, Band, NcnprConfig};
use std::sync::Arc;

const SEED: u64 = 3;

fn dataset_config() -> NcnprConfig {
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

/// Fault windows are millisecond-scale because the test-model workflow
/// spans a few virtual milliseconds — the run then crosses several
/// windows, just as a paper-scale run crosses second-scale ones.
fn ms_chaos() -> FaultConfig {
    FaultConfig {
        crash: Some(CrashConfig { mean_uptime_secs: 2.0e-3, mean_downtime_secs: 0.5e-3 }),
        transient: Some(TransientConfig { fail_prob: 0.05 }),
        link: Some(LinkConfig {
            mean_healthy_secs: 1.0e-3,
            mean_degraded_secs: 0.4e-3,
            latency_mult: 8.0,
            bandwidth_mult: 0.25,
        }),
        straggler: Some(StragglerConfig { fraction: 0.25, slowdown: 3.0 }),
        storage: Some(StorageConfig { bit_rot_prob: 0.02, torn_write_prob: 0.01 }),
        permanent: None,
    }
}

/// An instance, and its cache of `replication` copies, under `faults`.
fn launch(faults: Option<FaultConfig>, replication: usize) -> (IdsInstance, Arc<CacheManager>) {
    let topo = Topology::new(4, 2);
    let cache =
        super::cache(topo, CacheConfig::new(2, 64 << 20, 256 << 20).with_replication(replication));
    let mut inst = super::instance(topo, 11);
    inst.attach_cache(Arc::clone(&cache));
    if let Some(fc) = faults {
        inst.attach_faults(Arc::new(FaultPlane::new(
            SEED,
            fc,
            topo.nodes(),
            topo.total_ranks(),
            10.0,
        )));
    }
    let dataset = build(inst.datastore(), &dataset_config());
    let target = dataset.target.clone();
    install_workflow(&mut inst, &target, WorkflowModels::test_models());
    (inst, cache)
}

fn query() -> String {
    repurposing_query(&RepurposingThresholds { sw_similarity: 0.9, min_pic50: 3.0, min_dtba: 3.0 })
}

fn rows(inst: &IdsInstance, out: &QueryOutcome) -> Vec<String> {
    let ds = inst.datastore();
    let mut v: Vec<String> = out
        .solutions
        .rows()
        .iter()
        .map(|r| {
            format!(
                "{} {:.12}",
                ds.decode(r[1]).unwrap(),
                ds.decode(r[2]).unwrap().as_f64().unwrap()
            )
        })
        .collect();
    v.sort();
    v
}

/// Run the query twice: a cold pass that populates the cache and a warm
/// pass that hits it. The warm pass is where the FAM fault surface lives
/// (a cold run misses straight to the backing store), so overheads are
/// reported for both.
fn cold_warm(inst: &mut IdsInstance) -> (QueryOutcome, QueryOutcome) {
    let cold = inst.query(&query()).unwrap();
    inst.reset_clocks();
    let warm = inst.query(&query()).unwrap();
    (cold, warm)
}

pub fn run() {
    let mut base = launch(None, 1).0;
    let (base_cold, base_warm) = cold_warm(&mut base);
    let base_rows = rows(&base, &base_cold);
    let (cold_base, warm_base) = (base_cold.elapsed_secs, base_warm.elapsed_secs);
    let mut rec = Records::new("faults");
    rec.add("baseline.cold_secs", cold_base);
    rec.add("baseline.warm_secs", warm_base);

    // ---- 1. fault-class ladder ---------------------------------------------
    section("X5a: virtual-time overhead per fault class (NCNPR query, seed 3)");
    let schedules: Vec<(&str, &str, FaultConfig)> = vec![
        ("node crashes", "crashes", FaultConfig::crashes_only(2.0e-3, 0.5e-3)),
        ("transient FAM (p=0.2)", "transient", FaultConfig::transient_only(0.2)),
        (
            "degraded links",
            "links",
            FaultConfig::link_only(LinkConfig {
                mean_healthy_secs: 1.0e-3,
                mean_degraded_secs: 0.6e-3,
                latency_mult: 10.0,
                bandwidth_mult: 0.2,
            }),
        ),
        ("stragglers (50% @ 4x)", "stragglers", FaultConfig::stragglers_only(0.5, 4.0)),
        ("full chaos mix", "chaos", ms_chaos()),
    ];
    let mut out_rows = vec![vec![
        "fault-free baseline".to_string(),
        secs(cold_base),
        secs(warm_base),
        "1.00x".to_string(),
        "-".to_string(),
    ]];
    let mut chaos_inst = None;
    for (label, key, fc) in schedules {
        let is_chaos = label == "full chaos mix";
        let mut inst = launch(Some(fc), 1).0;
        let (cold, warm) = cold_warm(&mut inst);
        let equivalent = rows(&inst, &cold) == base_rows
            && rows(&inst, &warm) == base_rows
            && !cold.degraded()
            && !warm.degraded();
        rec.add(format_args!("{key}.cold_secs"), cold.elapsed_secs);
        rec.add(format_args!("{key}.warm_secs"), warm.elapsed_secs);
        out_rows.push(vec![
            label.to_string(),
            secs(cold.elapsed_secs),
            secs(warm.elapsed_secs),
            format!("{:.2}x", warm.elapsed_secs / warm_base),
            if equivalent { "identical".into() } else { "DIVERGED".into() },
        ]);
        assert!(equivalent, "{label}: fault run diverged from baseline");
        if is_chaos {
            chaos_inst = Some(inst);
        }
    }
    table(
        &["schedule", "cold secs", "warm secs", "warm overhead", "result vs baseline"],
        &out_rows,
    );

    // ---- 2. transient-probability sweep ------------------------------------
    section("X5b: transient FAM failure-probability sweep (warm cache)");
    let mut out_rows = Vec::new();
    for p in [0.0, 0.1, 0.3, 0.5, 0.8] {
        let mut inst = launch(Some(FaultConfig::transient_only(p)), 1).0;
        let (cold, warm) = cold_warm(&mut inst);
        assert_eq!(rows(&inst, &cold), base_rows, "p={p}: diverged (cold)");
        assert_eq!(rows(&inst, &warm), base_rows, "p={p}: diverged (warm)");
        let snap = inst.metrics_snapshot();
        let retries = snap.counter("ids_cache_retries_total", "");
        rec.add(format_args!("p{p:.1}.warm_secs"), warm.elapsed_secs);
        rec.add(format_args!("p{p:.1}.cache_retries"), retries);
        out_rows.push(vec![
            format!("{p:.1}"),
            secs(warm.elapsed_secs),
            format!("{:.2}x", warm.elapsed_secs / warm_base),
            retries.to_string(),
        ]);
    }
    table(&["fail prob", "warm secs", "overhead", "cache retries"], &out_rows);
    println!("\nshape check: retries grow with the failure rate while results stay identical;");
    println!("the backoff cost is charged to the virtual clock, never hidden");

    // ---- 3. metrics dump ----------------------------------------------------
    let inst = chaos_inst.expect("chaos run recorded above");
    let snap = inst.metrics_snapshot();
    metrics_dump("X5c: fault/retry/degradation metrics after the full chaos run", &snap);

    // ---- 4. replication-factor ladder --------------------------------------
    section("X5d: replication factor under aggressive node crashes");
    let mut out_rows = Vec::new();
    for rf in [1usize, 2, 3] {
        // Nodes spend almost half their time down so warm reads keep
        // crossing crash windows; several warm passes accumulate the
        // failover / re-population trade-off the ladder is about.
        let (mut inst, cache) = launch(Some(FaultConfig::crashes_only(1.0e-3, 0.8e-3)), rf);
        let cold = inst.query(&query()).unwrap();
        assert_eq!(rows(&inst, &cold), base_rows, "rf={rf}: diverged (cold)");
        let mut warm_secs = 0.0;
        for pass in 0..4 {
            inst.reset_clocks();
            let warm = inst.query(&query()).unwrap();
            assert_eq!(rows(&inst, &warm), base_rows, "rf={rf}: diverged (warm pass {pass})");
            warm_secs += warm.elapsed_secs;
        }
        let snap = inst.metrics_snapshot().merge(&cache.metrics().snapshot());
        let counts = [
            snap.counter("ids_cache_failover_reads_total", ""),
            snap.counter("ids_cache_repopulations_total", ""),
            snap.counter("ids_cache_repairs_total", "re_replicate"),
        ];
        rec.add(format_args!("rf{rf}.cold_secs"), cold.elapsed_secs);
        rec.add(format_args!("rf{rf}.mean_warm_secs"), warm_secs / 4.0);
        for (name, n) in ["failover_reads", "repopulations", "re_replications"].iter().zip(counts) {
            rec.add(format_args!("rf{rf}.{name}"), n);
        }
        let mut row = vec![format!("{rf}"), secs(cold.elapsed_secs), secs(warm_secs / 4.0)];
        row.extend(counts.map(|n| n.to_string()));
        out_rows.push(row);
    }
    table(
        &[
            "replication",
            "cold secs",
            "mean warm secs",
            "failover reads",
            "re-populations",
            "re-replications",
        ],
        &out_rows,
    );
    println!("\nshape check: extra replicas trade write amplification (cold) for crash");
    println!("absorption — failover reads replace backing re-populations as rf grows");
    rec.print();
}
