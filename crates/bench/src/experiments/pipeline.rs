//! Experiment X8 — pipelined streaming exchange ablation.
//!
//! Runs the same join-heavy NCNPR workload twice on identically built
//! 256-rank instances under the *same* straggler fault schedule: once
//! with classic BSP stage barriers and once with the pipelined
//! streaming exchange (bounded per-channel buffers, backpressure
//! charged to the virtual clock). Three invariants from the PR
//! acceptance are asserted, not just printed:
//!
//! 1. the two modes produce **byte-identical** solution sets (same
//!    schema, same rows, same order — `pipelined` only changes the
//!    virtual-time cost model, never the data plane),
//! 2. the pipelined critical path is measurably shorter: barriers
//!    sync every rank to the straggler each stage, while streaming
//!    only waits on real per-channel dependencies,
//! 3. the exchange actually streamed — batch/channel counters fired —
//!    and BSP mode fired none of them.

use crate::reporting::{section, table, Records};
use ids_core::engine::QueryOutcome;
use ids_simrt::{FaultConfig, FaultPlane, Topology};
use ids_workloads::ncnpr::{build, Band, NcnprConfig};
use std::sync::Arc;

const SEED: u64 = 11;
const FAULT_SEED: u64 = 7;

/// A quarter of the ranks run 4x slow: the schedule BSP is worst at,
/// because every barrier drags the whole cluster down to the slowest
/// straggler even when that rank contributes few (or zero) bytes to
/// the exchange.
fn straggler_schedule() -> FaultConfig {
    FaultConfig::stragglers_only(0.25, 4.0)
}

/// Join-heavy dataset: two distributed joins move real bytes through
/// the exchange, so the pipelined win comes from overlapping transfer
/// with production and skipping barriers, not from an empty workload.
fn dataset_config() -> NcnprConfig {
    NcnprConfig {
        bands: vec![
            Band {
                mutation_rate: 0.0,
                similarity_range: None,
                proteins: 200,
                compounds_per_protein: 24,
            },
            Band {
                mutation_rate: 0.5,
                similarity_range: Some((0.2, 0.4)),
                proteins: 200,
                compounds_per_protein: 24,
            },
        ],
        background_proteins: 200,
        ..NcnprConfig::default()
    }
}

/// Three patterns (two distributed joins) and a FILTER — the
/// scan→join→FILTER pipeline shape the streaming exchange exists for.
fn workload_query() -> &'static str {
    "SELECT ?c ?p WHERE { ?c <chembl:inhibits> ?p . \
                          ?p <up:reviewed> ?r . \
                          ?p <rdf:type> <up:Protein> . \
       FILTER(?r >= 0 && ?r <= 1 && ?r != 2) }"
}

struct Run {
    mode: &'static str,
    rows: usize,
    total_virtual_secs: f64,
    exchange_batches: u64,
    exchange_channels: u64,
    stall_secs: f64,
    outcome: QueryOutcome,
}

fn run_mode(pipelined: bool) -> Run {
    let topo = Topology::cray_ex(8); // 8 nodes x 32 ranks = 256 ranks
    let mut inst = super::instance(topo, SEED);
    let plane = Arc::new(FaultPlane::new(
        FAULT_SEED,
        straggler_schedule(),
        topo.nodes(),
        topo.total_ranks(),
        10.0,
    ));
    inst.attach_faults(plane);
    build(inst.datastore(), &dataset_config());
    inst.exec_options_mut().pipelined = pipelined;

    let outcome = inst.query(workload_query()).expect("workload query runs clean");
    let snap = inst.metrics_snapshot();
    let stall_secs = snap
        .histograms
        .iter()
        .filter(|(k, _)| k.name == "ids_exchange_stall_secs")
        .map(|(_, h)| h.sum)
        .fold(0.0, |a, b| a + b);
    Run {
        mode: if pipelined { "pipelined" } else { "bsp" },
        rows: outcome.solutions.len(),
        total_virtual_secs: outcome.elapsed_secs,
        exchange_batches: snap.counter_sum("ids_exchange_batches_total"),
        exchange_channels: snap.counter_sum("ids_exchange_channels_total"),
        stall_secs,
        outcome,
    }
}

pub fn run() {
    section("X8: pipelined streaming exchange — BSP barriers vs bounded channels");
    let bsp = run_mode(false);
    let pipe = run_mode(true);

    // 1. Byte-identical results: same schema, same rows, same order.
    assert_eq!(bsp.outcome.solutions.vars(), pipe.outcome.solutions.vars(), "schemas match");
    assert_eq!(
        bsp.outcome.solutions.rows(),
        pipe.outcome.solutions.rows(),
        "the pipelined exchange must reproduce the BSP engine's rows exactly"
    );
    assert!(bsp.rows > 1000, "workload must be join-heavy, got {} rows", bsp.rows);

    // 2. The exchange streamed in pipelined mode and only there.
    assert_eq!(bsp.exchange_batches, 0, "BSP mode fires no exchange counters");
    assert!(pipe.exchange_batches > 0, "pipelined mode meters its streamed batches");
    assert!(pipe.exchange_channels > 0, "pipelined mode meters its active channels");

    // 3. The critical-path win streaming exists to deliver: under a
    //    straggler schedule at 256 ranks the barrier-free path must be
    //    measurably shorter.
    let speedup = bsp.total_virtual_secs / pipe.total_virtual_secs;
    assert!(
        speedup >= 1.05,
        "pipelined must beat BSP under stragglers: bsp={:.9}s pipe={:.9}s ({speedup:.3}x)",
        bsp.total_virtual_secs,
        pipe.total_virtual_secs
    );

    let mut rec = Records::new("pipeline");
    rec.add("query_rows", pipe.rows);
    let rows_tbl: Vec<Vec<String>> = [&bsp, &pipe]
        .iter()
        .map(|r| {
            rec.add(format_args!("{}.total_virtual_secs", r.mode), r.total_virtual_secs);
            rec.add(format_args!("{}.exchange_batches", r.mode), r.exchange_batches);
            rec.add(format_args!("{}.exchange_channels", r.mode), r.exchange_channels);
            rec.add(format_args!("{}.stall_secs", r.mode), r.stall_secs);
            vec![
                r.mode.to_string(),
                r.rows.to_string(),
                format!("{:.9}s", r.total_virtual_secs),
                r.exchange_batches.to_string(),
                r.exchange_channels.to_string(),
                format!("{:.9}s", r.stall_secs),
            ]
        })
        .collect();
    table(
        &["mode", "result rows", "virtual total", "exch batches", "channels", "stall secs"],
        &rows_tbl,
    );
    println!(
        "\npipelined speedup under stragglers: {speedup:.3}x ({:.9}s -> {:.9}s), \
         results byte-identical",
        bsp.total_virtual_secs, pipe.total_virtual_secs
    );
    rec.add("speedup", speedup);
    rec.print();
}
