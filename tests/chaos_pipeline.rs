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

mod chaos;
mod docked;
mod ncnpr;

use chaos::SEEDS;
use docked::extract;
use ids::cache::CacheConfig;
use ids::core::IdsInstance;
use ids::simrt::faults::StragglerConfig;
use ids::simrt::{FaultConfig, FaultPlane, Topology};
use ncnpr::query;

/// Stragglers and crashes only: the two fault classes the streamed
/// exchange interacts with directly (per-channel delays instead of
/// whole-stage barriers). Transient/link/storage faults are covered by
/// `chaos_faults.rs` and `engine_vs_oracle.rs`.
fn pipeline_chaos() -> FaultConfig {
    FaultConfig {
        straggler: Some(StragglerConfig { fraction: 0.25, slowdown: 4.0 }),
        ..FaultConfig::crashes_only(2.0e-3, 0.5e-3)
    }
}

/// Launch one instance with the full NCNPR workflow installed and the
/// exchange mode pinned; the `chaos_faults.rs` harness plus the
/// `pipelined` switch.
fn launch(topo: Topology, faults: Option<(u64, FaultConfig)>, pipelined: bool) -> IdsInstance {
    let cache = ncnpr::cache(topo, CacheConfig::new(2, 64 << 20, 256 << 20));
    let plane =
        faults.map(|(seed, fc)| FaultPlane::new(seed, fc, topo.nodes(), topo.total_ranks(), 10.0));
    let mut inst = ncnpr::launch(topo, Some(cache), plane);
    inst.exec_options_mut().pipelined = pipelined;
    inst
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
    let bsp_out = bsp.query(&query(0.9)).unwrap();
    let pipe_out = pipe.query(&query(0.9)).unwrap();
    assert_eq!(bsp_out.solutions.vars(), pipe_out.solutions.vars(), "schema divergence");
    assert_eq!(bsp_out.solutions, pipe_out.solutions, "BSP/pipelined data-plane divergence");
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
    bsp.query(&query(0.9)).unwrap();
    let plan = bsp.explain(&query(0.9)).unwrap();
    assert!(!plan.contains("exchange:"), "BSP EXPLAIN must not grow an exchange block:\n{plan}");

    let mut pipe = launch(Topology::new(4, 2), None, true);
    pipe.query(&query(0.9)).unwrap();
    let plan = pipe.explain(&query(0.9)).unwrap();
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
    let base_out = base.query(&query(0.9)).unwrap();
    let expected = extract(&base_out, &base);
    assert_eq!(expected.len(), 12);

    for seed in SEEDS {
        let mut bsp = launch(Topology::new(4, 2), Some((seed, pipeline_chaos())), false);
        let mut pipe = launch(Topology::new(4, 2), Some((seed, pipeline_chaos())), true);
        let bsp_out = bsp
            .query(&query(0.9))
            .unwrap_or_else(|e| panic!("seed {seed}: BSP chaos run failed: {e}"));
        let pipe_out = pipe
            .query(&query(0.9))
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
