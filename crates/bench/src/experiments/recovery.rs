//! Experiment X9 — mid-query recovery and speculative re-execution
//! ablation.
//!
//! Two fault scenarios at two scales (64 and 256 ranks), every run
//! byte-identical at the data plane:
//!
//! 1. **Permanent node loss** mid-query, at a checkpoint boundary taken
//!    from a fault-free probe run. Two strategies face the same kill:
//!    *fail-and-restart* (no durable checkpoints — the recovery plane
//!    retires the dead ranks, re-plans, and re-runs the query from
//!    scratch) vs *checkpoint-resume* (typed intermediates in the
//!    replicated cache — roll back only to the last completed
//!    boundary). Resume must beat restart on the virtual clock.
//! 2. **Stragglers** (25 % of ranks at 3.5×) with and without
//!    speculative re-execution. A hedged duplicate on a fast rank
//!    bounds each stage near the median finish, so speculation must
//!    recover **at least half** of the straggler-induced critical-path
//!    loss: `(T_spec − T_ff) ≤ 0.5 × (T_straggler − T_ff)`.

use crate::reporting::{raw_rows, section, table, Records};
use ids_cache::CacheConfig;
use ids_core::engine::QueryOutcome;
use ids_core::workflow::{
    install_workflow, repurposing_query, RepurposingThresholds, WorkflowModels,
};
use ids_models::docking::DockingEngine;
use ids_simrt::{FaultConfig, FaultPlane, NodeId, Topology};
use ids_workloads::ncnpr::{build, Band, NcnprConfig};
use std::sync::Arc;

const SEED: u64 = 11;
const FAULT_SEED: u64 = 7;

/// A quarter of the ranks at 3.5×: enough lag to trip the hedging
/// threshold every stage without drowning the baseline.
fn straggler_schedule() -> FaultConfig {
    FaultConfig::stragglers_only(0.25, 3.5)
}

/// Small candidate set, real analytic models: the UDF FILTER stage
/// carries the virtual-time bulk (scaled ×200), which is exactly the
/// stage speculation hedges — and the stage whose loss stragglers
/// inflate.
fn dataset_config() -> NcnprConfig {
    NcnprConfig {
        bands: vec![
            Band {
                mutation_rate: 0.0,
                similarity_range: None,
                proteins: 6,
                compounds_per_protein: 8,
            },
            Band {
                mutation_rate: 0.62,
                similarity_range: Some((0.21, 0.39)),
                proteins: 24,
                compounds_per_protein: 6,
            },
        ],
        background_proteins: 40,
        ..NcnprConfig::default()
    }
}

fn models() -> WorkflowModels {
    let mut m = WorkflowModels::paper_models();
    // Light docking (48 survivors; the docking cost is not under test)
    // and a bulk-analytics multiplier that puts the FILTER stage on the
    // critical path.
    m.docking = DockingEngine::test_engine();
    m.analytics_scale = 200.0;
    m
}

fn query() -> String {
    repurposing_query(&RepurposingThresholds { sw_similarity: 0.9, min_pic50: 3.0, min_dtba: 3.0 })
}

#[derive(Clone, Copy)]
struct Variant {
    /// Durable recovery checkpoints (attach the replicated cache).
    checkpoints: bool,
    /// Speculative re-execution of stragglers.
    speculation: bool,
    /// Permanent kill `(node, at_secs)`.
    kill: Option<(u32, f64)>,
    /// Straggler dilation on.
    stragglers: bool,
}

struct Run {
    label: &'static str,
    outcome: QueryOutcome,
}

fn run_variant(nodes: u32, label: &'static str, v: Variant) -> Run {
    let topo = Topology::cray_ex(nodes);
    let mut inst = super::instance(topo, SEED);
    let cache = v.checkpoints.then(|| {
        super::cache(
            topo,
            CacheConfig::new(topo.nodes() as usize, 64 << 20, 256 << 20).with_replication(2),
        )
    });
    if let Some(cache) = cache {
        inst.attach_cache(cache);
    }
    let faults = if v.stragglers { straggler_schedule() } else { FaultConfig::none() };
    let mut plane = FaultPlane::new(FAULT_SEED, faults, topo.nodes(), topo.total_ranks(), 10.0);
    if let Some((node, at)) = v.kill {
        plane.schedule_permanent_kill(NodeId(node), at);
    }
    inst.attach_faults(Arc::new(plane));
    let dataset = build(inst.datastore(), &dataset_config());
    let target = dataset.target.clone();
    install_workflow(&mut inst, &target, models());
    let opts = inst.exec_options_mut();
    opts.recovery = true;
    opts.speculation = v.speculation;

    let outcome = inst.query(&query()).expect("X9 workload query survives its fault schedule");
    Run { label, outcome }
}

fn run_scale(nodes: u32, rec: &mut Records) {
    let ranks = nodes * 32;
    section(&format!("X9 @ {ranks} ranks: restart vs resume vs +speculation"));

    // Fault-free probe: the byte-identity reference, the straggler
    // baseline T_ff, and the checkpoint boundary schedule the kill aims
    // at.
    let probe = run_variant(
        nodes,
        "fault-free",
        Variant { checkpoints: true, speculation: false, kill: None, stragglers: false },
    );
    let expected = raw_rows(&probe.outcome);
    assert!(!expected.is_empty(), "workload must produce rows");
    let boundaries = &probe.outcome.recovery.checkpoint_times;
    assert!(boundaries.len() >= 2, "probe stored too few checkpoints: {boundaries:?}");
    // Kill just after a mid-query boundary: late enough that real work
    // is lost, early enough that real work remains.
    let (_, mid_t) = boundaries[boundaries.len() / 2];
    let kill = Some((1u32, mid_t + 1e-9));

    let restart = run_variant(
        nodes,
        "kill+restart",
        Variant { checkpoints: false, speculation: false, kill, stragglers: false },
    );
    let resume = run_variant(
        nodes,
        "kill+resume",
        Variant { checkpoints: true, speculation: false, kill, stragglers: false },
    );
    let straggler = run_variant(
        nodes,
        "stragglers",
        Variant { checkpoints: true, speculation: false, kill: None, stragglers: true },
    );
    let spec = run_variant(
        nodes,
        "stragglers+speculation",
        Variant { checkpoints: true, speculation: true, kill: None, stragglers: true },
    );

    // Byte identity across every strategy.
    for r in [&restart, &resume, &straggler, &spec] {
        assert_eq!(
            raw_rows(&r.outcome),
            expected,
            "{ranks} ranks / {}: rows diverged from the fault-free baseline",
            r.label
        );
    }

    // The kill really interrupted both kill runs, with the intended
    // strategy: restart fell back to scratch, resume did not.
    let (rs, rm) = (&restart.outcome.recovery, &resume.outcome.recovery);
    assert!(rs.rollbacks >= 1 && rs.restarts >= 1, "restart strategy not exercised");
    assert!(rm.rollbacks >= 1 && rm.restarts == 0, "resume strategy not exercised");

    // Checkpoint-resume beats fail-and-restart under the same kill.
    let resume_speedup = restart.outcome.elapsed_secs / resume.outcome.elapsed_secs;
    assert!(
        resume.outcome.elapsed_secs < restart.outcome.elapsed_secs,
        "{ranks} ranks: resume ({:.6}s) must beat restart ({:.6}s)",
        resume.outcome.elapsed_secs,
        restart.outcome.elapsed_secs
    );

    // Speculation recovers at least half of the straggler loss.
    let sp = &spec.outcome.recovery;
    assert!(
        sp.speculation.launched >= 1 && sp.speculation.wins >= 1,
        "no hedges won: speculation inert"
    );
    let straggler_loss = straggler.outcome.elapsed_secs - probe.outcome.elapsed_secs;
    let spec_loss = spec.outcome.elapsed_secs - probe.outcome.elapsed_secs;
    assert!(straggler_loss > 0.0, "stragglers must cost virtual time");
    assert!(
        spec_loss <= 0.5 * straggler_loss,
        "{ranks} ranks: speculation must recover >= half the straggler loss \
         (loss with: {spec_loss:.6}s, without: {straggler_loss:.6}s)"
    );

    let rows_tbl: Vec<Vec<String>> = [&probe, &restart, &resume, &straggler, &spec]
        .iter()
        .map(|r| {
            let key = format!("r{ranks}.{}", r.label);
            let rep = &r.outcome.recovery;
            rec.add(format_args!("{key}.total_virtual_secs"), r.outcome.elapsed_secs);
            rec.add(format_args!("{key}.rollbacks"), rep.rollbacks);
            rec.add(format_args!("{key}.restarts"), rep.restarts);
            rec.add(format_args!("{key}.spec_launched"), rep.speculation.launched);
            rec.add(format_args!("{key}.spec_wins"), rep.speculation.wins);
            rec.add(format_args!("{key}.spec_saved_secs"), rep.speculation.saved_secs);
            vec![
                r.label.to_string(),
                format!("{:.6}s", r.outcome.elapsed_secs),
                rep.rollbacks.to_string(),
                rep.restarts.to_string(),
                rep.speculation.wins.to_string(),
                format!("{:.6}s", rep.speculation.saved_secs),
            ]
        })
        .collect();
    table(
        &["strategy", "virtual total", "rollbacks", "restarts", "spec wins", "spec saved"],
        &rows_tbl,
    );
    println!(
        "\n{ranks} ranks: resume beats restart {resume_speedup:.3}x; speculation keeps \
         {spec_loss:.6}s of a {straggler_loss:.6}s straggler loss"
    );
    rec.add(format_args!("r{ranks}.resume_speedup"), resume_speedup);
    rec.add(format_args!("r{ranks}.straggler_loss_secs"), straggler_loss);
    rec.add(format_args!("r{ranks}.speculation_loss_secs"), spec_loss);
}

pub fn run() {
    let mut rec = Records::new("recovery");
    run_scale(2, &mut rec);
    run_scale(8, &mut rec);
    rec.print();
}
