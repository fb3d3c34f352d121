//! Golden: running ranks on host threads never changes an answer. Each
//! case below runs at 64 ranks with FILTER/APPLY stages that panic, fail,
//! hit a deadline, mint new terms, load a dynamic UDF or go through an
//! attached cache, and pins everything the query returns — raw `TermId`
//! rows, the `elapsed_secs` bits, every `StageBreakdown` field, the
//! annotations in order, or the error text — to constants recorded when
//! every rank ran on one thread. Each case runs 8 times: the order in
//! which workers claim ranks changes from run to run, the bits must not.
//! The constants were re-recorded (alike on one worker and on two) when
//! the store and the exchange took one placement function. Which rank
//! holds a row moved, and so did everything keyed by rank: virtual times,
//! the rank order new terms' ids are minted in, the rows a rank's
//! deadline or failure drops, and the failure counts in error texts.
//! Fault-free rows did not move, apart from those minted ids.
//! A cache-free NCNPR query runs its stages on every worker, so workers
//! share one stage's prepared `sw_similarity` / `dtba` arguments; its
//! constant was recorded before those arguments were prepared at all.
//!
//! The UDFs are pure functions of their arguments, as the engine requires
//! of any UDF once ranks run concurrently; failures are keyed by row
//! content, so the same rows fail on every run.

use ids::cache::{BackingStore, CacheConfig, CacheManager};
use ids::core::workflow::{
    install_workflow, repurposing_query, RepurposingThresholds, WorkflowModels,
};
use ids::core::{IdsConfig, IdsInstance, QueryError, QueryOutcome};
use ids::graph::Term;
use ids::models::{DtbaModel, SmithWaterman};
use ids::simrt::rng::fnv1a;
use ids::simrt::{NetworkModel, Topology};
use ids::udf::{UdfOutput, UdfValue};
use ids::workloads::ncnpr::{build, NcnprConfig};
use std::fmt::Write as _;
use std::sync::Arc;

/// 8 nodes × 8 ranks.
fn topology() -> Topology {
    Topology::new(8, 8)
}

const RUNS: usize = 8;

/// 640 entities `e:i` with an integer `val` each, hashed across all 64
/// ranks, plus the content-keyed UDFs the cases call.
fn launch() -> IdsInstance {
    let mut cfg = IdsConfig::laptop(64, 7);
    cfg.topology = topology();
    let inst = IdsInstance::launch(cfg);
    let ds = inst.datastore();
    for i in 0..640i64 {
        ds.add_fact(&Term::iri(format!("e:{i}")), &Term::iri("val"), &Term::Int(i));
    }
    ds.build_indexes();
    let reg = inst.registry();
    let int = |args: &[UdfValue]| args.first().and_then(UdfValue::as_f64).unwrap_or(0.0) as i64;
    // FILTER verdict: panics on v ≡ 5 (mod 13), returns a non-boolean
    // (an evaluation error) on v ≡ 4 (mod 11); costs vary by row.
    reg.register_static(
        "gate",
        Arc::new(move |args: &[UdfValue]| {
            let v = int(args);
            if v % 13 == 5 {
                panic!("gate rejected row {v}");
            }
            let cost = 1.0e-3 + (v % 5) as f64 * 2.0e-4;
            if v % 11 == 4 {
                return UdfOutput::new(UdfValue::Str(format!("no verdict for {v}")), cost);
            }
            UdfOutput::new(UdfValue::Bool(v % 3 != 0), cost)
        }),
    )
    .unwrap();
    // APPLY value: a new float term per row; panics on v ≡ 2 (mod 17).
    reg.register_static(
        "score",
        Arc::new(move |args: &[UdfValue]| {
            let v = int(args);
            if v % 17 == 2 {
                panic!("score failed on row {v}");
            }
            UdfOutput::new(UdfValue::F64(v as f64 * 0.37 + 0.01), 2.0e-3 + (v % 7) as f64 * 1e-4)
        }),
    )
    .unwrap();
    // A clean APPLY value: a new float term per row, never failing.
    reg.register_static(
        "ratio",
        Arc::new(move |args: &[UdfValue]| {
            let v = int(args);
            UdfOutput::new(UdfValue::F64(v as f64 / 7.0), 2.0e-3 + (v % 7) as f64 * 1e-4)
        }),
    )
    .unwrap();
    // A probe whose output is incomparable (a string) on v ≡ 4 (mod 11),
    // so an APPLY argument `probe(?v) >= 0.0` fails on those rows.
    reg.register_static(
        "probe",
        Arc::new(move |args: &[UdfValue]| {
            let v = int(args);
            let out = if v % 11 == 4 { UdfValue::Str("n/a".into()) } else { UdfValue::F64(1.0) };
            UdfOutput::new(out, 5.0e-4)
        }),
    )
    .unwrap();
    inst
}

/// Everything a query returned, rendered canonically.
fn render(result: &Result<QueryOutcome, QueryError>) -> String {
    let out = match result {
        Err(e) => return format!("error: {e}"),
        Ok(out) => out,
    };
    let mut s = String::new();
    for row in out.solutions.rows() {
        let ids: Vec<u64> = row.iter().map(|t| t.raw()).collect();
        writeln!(s, "row {ids:?}").unwrap();
    }
    let b = &out.breakdown;
    writeln!(s, "elapsed {:016x}", out.elapsed_secs.to_bits()).unwrap();
    for (name, v) in [
        ("scan", b.scan_secs),
        ("join", b.join_secs),
        ("rebalance", b.rebalance_secs),
        ("filter", b.filter_secs),
        ("gather", b.gather_secs),
    ] {
        writeln!(s, "{name} {:016x}", v.to_bits()).unwrap();
    }
    let mut apply: Vec<_> = b.apply_secs.iter().collect();
    apply.sort_by(|a, b| a.0.cmp(b.0));
    for (udf, v) in apply {
        writeln!(s, "apply {udf} {:016x}", v.to_bits()).unwrap();
    }
    for a in &out.annotations {
        writeln!(s, "ann {} r{} {:?} {:?} {}", a.stage, a.rank, a.kind, a.detail, a.rows_dropped)
            .unwrap();
    }
    s
}

/// A short human-readable summary for failure messages.
fn summary(result: &Result<QueryOutcome, QueryError>) -> String {
    match result {
        Err(e) => format!("error: {e}"),
        Ok(out) => format!(
            "{} rows, {} annotations, elapsed {}",
            out.solutions.len(),
            out.annotations.len(),
            out.elapsed_secs
        ),
    }
}

/// Run `case` [`RUNS`] times; every run must render to `expected`.
fn check(name: &str, expected: u64, case: impl Fn() -> Vec<Result<QueryOutcome, QueryError>>) {
    for run in 0..RUNS {
        let results = case();
        let rendered: String = results.iter().map(render).collect::<Vec<_>>().join("--\n");
        let digest = fnv1a(rendered.as_bytes());
        let summaries: Vec<String> = results.iter().map(summary).collect();
        assert_eq!(digest, expected, "{name}, run {run}: {summaries:?}");
    }
}

fn query_with(
    setup: impl Fn(&mut IdsInstance),
    text: &str,
) -> Vec<Result<QueryOutcome, QueryError>> {
    let mut inst = launch();
    setup(&mut inst);
    vec![inst.query(text)]
}

const FILTER_Q: &str = "SELECT ?e ?v WHERE { ?e <val> ?v . FILTER(gate(?v)) }";
const APPLY_Q: &str =
    "SELECT ?e ?s WHERE { ?e <val> ?v . } APPLY score(?v, probe(?v) >= 0.0) AS ?s";

#[test]
fn filter_failures_fail_the_query_with_the_same_first_error() {
    check("filter strict", 0x5a14_5f30_a59d_4625, || query_with(|_| {}, FILTER_Q));
}

#[test]
fn filter_failures_degrade_to_the_same_rows_and_annotations() {
    check("filter degrade", 0xefa8_529f_1a38_9e10, || {
        query_with(|i| i.exec_options_mut().degrade = true, FILTER_Q)
    });
}

#[test]
fn apply_failures_fail_the_query_with_the_same_first_error() {
    check("apply strict", 0xef47_7371_c2e1_d08c, || query_with(|_| {}, APPLY_Q));
}

#[test]
fn apply_failures_degrade_to_the_same_rows_and_annotations() {
    check("apply degrade", 0x8b16_253f_f411_4b3b, || {
        query_with(|i| i.exec_options_mut().degrade = true, APPLY_Q)
    });
}

#[test]
fn stage_deadline_drops_or_fails_the_same_rows() {
    // ~10 rows of ~2.3 ms per rank against a 12 ms budget: every rank
    // runs out part-way, at a row that depends on its own rows only.
    let deadline = |degrade: bool| {
        move |i: &mut IdsInstance| {
            let o = i.exec_options_mut();
            o.stage_deadline_secs = 1.2e-2;
            o.degrade = degrade;
        }
    };
    let q = "SELECT ?e ?s WHERE { ?e <val> ?v . } APPLY ratio(?v) AS ?s";
    // Strict first, on the same thread: the re-balance time of a stage
    // that fails must not leak into the next query's breakdown.
    check("deadline strict", 0x3ee6_9fe9_208c_94ac, || query_with(deadline(false), q));
    check("deadline degrade", 0xfed4_584b_6031_a226, || query_with(deadline(true), q));
}

#[test]
fn filter_deadline_drops_or_fails_the_same_rows() {
    // The same ~2.3 ms per row against a 12 ms budget, spent in a WHERE
    // FILTER (stage `filter`) and in a FILTER stage after the BGP
    // (`stage-filter`).
    let deadline = |degrade: bool| {
        move |i: &mut IdsInstance| {
            let o = i.exec_options_mut();
            o.stage_deadline_secs = 1.2e-2;
            o.degrade = degrade;
        }
    };
    let where_q = "SELECT ?e ?v WHERE { ?e <val> ?v . FILTER(ratio(?v) > 30.0) }";
    let stage_q = "SELECT ?e ?v WHERE { ?e <val> ?v . } FILTER(ratio(?v) > 30.0)";
    let both = |degrade: bool| {
        move || {
            let mut out = query_with(deadline(degrade), where_q);
            out.extend(query_with(deadline(degrade), stage_q));
            out
        }
    };
    check("filter deadline strict", 0x0ac7_9081_d904_94e6, both(false));
    check("filter deadline degrade", 0x39e4_bc26_e433_6645, both(true));
}

#[test]
fn apply_mints_new_float_terms_in_the_same_order() {
    // Every surviving row binds a float the dictionary has not seen, so
    // ids are minted on all 64 ranks in one stage.
    let q = "SELECT ?e ?v ?s WHERE { ?e <val> ?v . FILTER(?v >= 20) } APPLY ratio(?v) AS ?s";
    check("apply mint", 0x29cf_b6d1_e651_1627, || query_with(|_| {}, q));
}

#[test]
fn dynamic_udf_first_load_is_charged_to_the_same_rank() {
    check("dynamic load", 0x76e2_b61c_aa28_a326, || {
        let mut inst = launch();
        inst.registry()
            .register_dynamic(
                "lab",
                "assay",
                2.5,
                Arc::new(|args: &[UdfValue]| {
                    let v = args.first().and_then(UdfValue::as_f64).unwrap_or(0.0);
                    UdfOutput::new(UdfValue::F64(v / 640.0), 1.0e-3 + v * 1.0e-6)
                }),
            )
            .unwrap();
        let q = "SELECT ?e ?v WHERE { ?e <val> ?v . FILTER(lab.assay(?v) > 0.5) }";
        // The first query pays the module load, the second does not.
        let first = inst.query(q);
        inst.reset_clocks();
        vec![first, inst.query(q)]
    });
}

#[test]
fn cache_attached_ncnpr_query_repeats_cold_and_warm() {
    check("ncnpr cache", 0x6737_86e6_eb3c_bb82, || {
        let topo = topology();
        let cache = Arc::new(CacheManager::new(
            topo,
            NetworkModel::slingshot(),
            CacheConfig::new(2, 64 << 20, 256 << 20),
            BackingStore::default_store(),
        ));
        let mut cfg = IdsConfig::laptop(64, 11);
        cfg.topology = topo;
        let mut inst = IdsInstance::launch(cfg);
        inst.attach_cache(cache);
        let mut ncfg = NcnprConfig::default();
        ncfg.bands.truncate(2);
        ncfg.background_proteins = 8;
        ncfg.sequence_len = 96;
        let dataset = build(inst.datastore(), &ncfg);
        install_workflow(&mut inst, &dataset.target, WorkflowModels::test_models());
        let q = repurposing_query(&RepurposingThresholds {
            sw_similarity: 0.9,
            min_pic50: 3.0,
            min_dtba: 3.0,
        });
        let cold = inst.query(&q);
        inst.reset_clocks();
        vec![cold, inst.query(&q)]
    });
}

/// A cache-free 64-rank NCNPR instance with paper-calibrated SW and DTBA,
/// so every row's charge is in the bits, and its repurposing query.
fn cache_free_ncnpr() -> (IdsInstance, String) {
    let mut cfg = IdsConfig::laptop(64, 11);
    cfg.topology = topology();
    let mut inst = IdsInstance::launch(cfg);
    let mut ncfg = NcnprConfig::default();
    ncfg.bands.truncate(2);
    ncfg.background_proteins = 8;
    ncfg.sequence_len = 96;
    let dataset = build(inst.datastore(), &ncfg);
    let models = WorkflowModels {
        sw: SmithWaterman::default_model(),
        dtba: DtbaModel::pretrained(),
        ..WorkflowModels::test_models()
    };
    install_workflow(&mut inst, &dataset.target, models);
    let q = repurposing_query(&RepurposingThresholds {
        sw_similarity: 0.5,
        min_pic50: 3.0,
        min_dtba: 3.0,
    });
    (inst, q)
}

#[test]
fn cache_free_ncnpr_query_repeats_across_workers() {
    check("ncnpr threads", 0x1761_af3f_e7e2_15b9, || {
        let (mut inst, q) = cache_free_ncnpr();
        let cold = inst.query(&q);
        inst.reset_clocks();
        vec![cold, inst.query(&q)]
    });
}

/// The batch series — `ids_engine_batch_rows` (count, sum bits, min, max,
/// buckets) and `ids_engine_batches_total` per operator — after the
/// cache-free NCNPR query twice. The engine records them on the calling
/// thread after each phase, in rank order, so they are a function of the
/// query alone; the constant was recorded when each worker wrote them as
/// it ran its ranks.
#[test]
fn batch_meters_are_a_function_of_the_query() {
    for run in 0..RUNS {
        let (mut inst, q) = cache_free_ncnpr();
        for _ in 0..2 {
            inst.query(&q).unwrap();
        }
        let snap = inst.metrics_snapshot();
        let mut s = String::new();
        for (k, h) in snap.histograms.iter().filter(|(k, _)| k.name == "ids_engine_batch_rows") {
            let (sum, min, max) = (h.sum.to_bits(), h.min.to_bits(), h.max.to_bits());
            writeln!(s, "{k:?} {} {sum:x} {min:x} {max:x} {:?}", h.count, h.buckets).unwrap();
        }
        for (k, v) in snap.counters.iter().filter(|(k, _)| k.name == "ids_engine_batches_total") {
            writeln!(s, "{k:?} {v}").unwrap();
        }
        assert_eq!(fnv1a(s.as_bytes()), 0x795a_9507_1fb2_4148, "run {run}:\n{s}");
    }
}
