//! Golden: the model kernels (Smith–Waterman, DTBA, docking) are free to
//! change how they compute, never what — not a score, not an energy bit,
//! not a virtual second charged. This suite runs the perf plane's smoke
//! NCNPR scenario (2 × 4 ranks, the tight band plus one 0.85-similarity
//! protein, 96-residue sequences) and pins the row digest, the query's
//! virtual latency and the merged per-UDF profile to constants captured
//! on the commit before the kernels were rewritten. The two latencies
//! were re-captured when joins stopped moving sides already placed on
//! their key (their exchange charge shrank); rows and profiles were not.
//!
//! The search is the light test one (2 restarts × 60 steps) so the suite
//! stays quick unoptimised, but the cost model is the paper-calibrated
//! one: `WorkflowModels::test_models()` charges zero for every call, which
//! would make "the charges did not move" vacuous.

use ids::core::workflow::{
    install_workflow, repurposing_query, RepurposingThresholds, WorkflowModels,
};
use ids::core::{IdsConfig, IdsInstance, QueryOutcome};
use ids::models::docking::{DockingParams, ScoringWeights};
use ids::models::pic50::Pic50Model;
use ids::models::{CostModel, DockingEngine, DtbaModel, SmithWaterman};
use ids::simrt::rng::fnv1a;
use ids::simrt::Topology;
use ids::udf::UdfProfile;
use ids::workloads::ncnpr::{build, NcnprConfig};

const SEED: u64 = 7;

fn launch() -> IdsInstance {
    let topo = Topology::new(2, 4);
    let mut cfg = IdsConfig::cray_ex(topo.nodes(), SEED);
    cfg.topology = topo;
    let mut inst = IdsInstance::launch(cfg);

    let mut ncfg = NcnprConfig::default();
    ncfg.bands.truncate(2);
    ncfg.background_proteins = 8;
    ncfg.sequence_len = 96;
    ncfg.seed = SEED ^ 0x29274;
    let dataset = build(inst.datastore(), &ncfg);

    let models = WorkflowModels {
        sw: SmithWaterman::default_model(),
        pic50: Pic50Model::default_model(),
        dtba: DtbaModel::pretrained(),
        docking: DockingEngine::new(
            ScoringWeights::default(),
            DockingParams { exhaustiveness: 2, steps: 60, ..DockingParams::default() },
            CostModel::paper_calibrated(),
        ),
        analytics_scale: 66.0e6 / dataset.compounds.max(1) as f64,
        dtba_scale: 2.0,
        cache_dtba: false,
    };
    install_workflow(&mut inst, &dataset.target, models);
    inst
}

/// Order-independent digest over decoded terms (docking energies are
/// minted as float terms, so their bits are part of it).
fn row_digest(inst: &IdsInstance, out: &QueryOutcome) -> u64 {
    let ds = inst.datastore();
    let mut sum = 0u64;
    for row in out.solutions.rows() {
        let mut bytes = Vec::new();
        for id in row {
            bytes.extend_from_slice(&ds.decode(*id).map(|t| t.to_bytes()).unwrap_or_default());
            bytes.push(0xff);
        }
        sum = sum.wrapping_add(fnv1a(&bytes));
    }
    sum ^ (out.solutions.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// `(calls, total_secs bits, rejections)` of `udf`, merged over ranks in
/// rank order (the float sum is order-sensitive; rank order is fixed).
fn merged(inst: &IdsInstance, udf: &str) -> (u64, u64, u64) {
    let mut p = UdfProfile::default();
    for rank in inst.profilers() {
        if let Some(q) = rank.get(udf) {
            p.merge(q);
        }
    }
    (p.calls, p.total_secs.to_bits(), p.rejections)
}

#[test]
fn smoke_query_rows_charges_and_profiles_match_the_pre_rewrite_commit() {
    let mut inst = launch();
    let text = repurposing_query(&RepurposingThresholds {
        sw_similarity: 0.9,
        min_pic50: 3.0,
        min_dtba: 3.0,
    });

    // First run: cold profiles, the conjunct order as written.
    let first = inst.query(&text).expect("query runs");
    assert_eq!(first.solutions.len(), 56);
    assert_eq!(row_digest(&inst, &first), 0x69d5_1566_b2f7_5173, "row digest");
    // 769.653 366 897 817 1 virtual seconds (769.653 366 967 657 1 before
    // the exchange stopped moving join sides already placed on the key).
    assert_eq!(first.elapsed_secs.to_bits(), 0x4088_0d3a_186c_934f, "virtual latency");
    assert_eq!(merged(&inst, "sw_similarity"), (57, 0x40a7_c28f_5c28_f5c1, 1));
    assert_eq!(merged(&inst, "pic50"), (56, 0x4084_435e_50d7_9437, 0));
    assert_eq!(merged(&inst, "dtba"), (56, 0x4053_6e48_e8a7_1de8, 0));
    assert_eq!(merged(&inst, "vina_docking"), (56, 0x409e_5e8b_774a_f41b, 0));

    // Second run on the warm instance: profiles now drive re-ordering and
    // re-balancing, so every charge feeds back into the plan.
    let second = inst.query(&text).expect("repeat runs");
    assert_eq!(row_digest(&inst, &second), row_digest(&inst, &first), "same rows");
    // 782.485 914 266 237 7 virtual seconds (782.485 914 336 077 7 before).
    assert_eq!(second.elapsed_secs.to_bits(), 0x4088_73e3_2704_d135, "repeat virtual latency");
    assert_eq!(merged(&inst, "sw_similarity"), (114, 0x40b7_c28f_5c28_f5c1, 2));
    assert_eq!(merged(&inst, "pic50"), (113, 0x4094_71af_286b_ca1a, 0));
    assert_eq!(merged(&inst, "dtba"), (113, 0x4063_9666_6666_6666, 0));
    assert_eq!(merged(&inst, "vina_docking"), (112, 0x40ae_5e8b_774a_f41b, 0));
}
